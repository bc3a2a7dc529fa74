"""The chunk loop: pinned record streams, streamed blocking, O(chunk) memory."""

import hashlib
import itertools
import json
import math
import shutil
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

import cvpulse.records as records
import cvpulse.simulate as simulate_module
from cvpulse.analysis import end_to_end_report
from cvpulse.cli import EXIT_INVALID_INPUT, main
from cvpulse.gaussian import SourceSpec
from cvpulse.scenario import reference_scenario
from cvpulse.schema import from_dict, to_dict
from cvpulse.simulate import (
    FORMAT_VERSION,
    DetectorModel,
    PhaseSchedule,
    RunConfig,
    Sidecar,
    block_variance_trace,
    detected_covariance,
    read_metadata,
    read_records,
    sample_pulses,
    stream_block_variances,
    theta_scan,
    write_records,
)
from joint_sampler import sample_pulses_joint

REFERENCE = reference_scenario(n_pulses=200_003, seed=12345).config  # 3 chunks + 3 pulses


def _ramp(n):
    return PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, n)


# (sampler, config, chunk size, SHA-256 of value bytes, SHA-256 of lo_phase bytes)
# under format version 4.  The lo_phase digests are those of versions 1 to 3:
# version 3 changed only the normals each chunk draws (SFC64, not PCG64), and
# version 4 only the last bits of the fringe coefficients.  The constant
# stream's one standard deviation rounds alike in both, and the joint sampler
# keeps the matrix chain, so their value digests are those of version 3.
PINNED_STREAMS = {
    "ramp_partial_chunk": (
        sample_pulses, REFERENCE, 65536,
        "b97f6f7e7d056d5f2d8a8d209b5dd8dce03be20a4eddcec41886e3224a062fd8",
        "d4f5c2326033145fc46be355126d38c49d9a16da1761a189d23138fbda852310",
    ),
    "constant": (
        sample_pulses,
        replace(REFERENCE, schedule=PhaseSchedule.constant(0.7, 70_000),
                detector=DetectorModel(), theta=0.4, seed=7),
        65536,
        "1d3f521911c30cefd08d3fc2e3a3760f981c6d0d3c45f1af0abca72c29176392",
        "3a26c75ce0df49c62cb9bffcc2dc627bc1da32548eb7513ceb297858185fad94",
    ),
    "blocked_b": (
        sample_pulses, replace(REFERENCE, blocked_arm="b", seed=11), 65536,
        "abce3b2d8de3b771ab27fb6833acc37fe67604e241ceb82e96e3dcac00540527",
        "d4f5c2326033145fc46be355126d38c49d9a16da1761a189d23138fbda852310",
    ),
    "chunk_128": (
        sample_pulses, replace(REFERENCE, schedule=_ramp(1000), seed=5), 128,
        "839c8a5f634cc73634b669ae2a95a0b783b4eca8b2a2bdeb5711d54e595aad0c",
        "05bc28637e452c5e350a531d432f2052f4a95a38e81e20ac8a6690c01b760483",
    ),
    "joint": (
        sample_pulses_joint,
        replace(REFERENCE, schedule=_ramp(70_000), detector=DetectorModel(),
                theta=0.4, seed=13),
        65536,
        "b88e1b8fbdd175fbd7564655a1387b8e89c5ccefe6617d51b23a737f5c171f39",
        "84d885f1381367f1a2da6e43a1c89d7dfb2ca268b8595e633181ee1176b46259",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_STREAMS))
def test_record_streams_are_pinned(case):
    """Records stay bit-identical for the same (seed, chunk size)."""
    sampler, config, chunk, value_digest, phase_digest = PINNED_STREAMS[case]
    train = sampler(config, chunk_size=chunk)
    assert hashlib.sha256(train.value.tobytes()).hexdigest() == value_digest
    assert hashlib.sha256(train.lo_phase.tobytes()).hexdigest() == phase_digest


PURE_NOPA_CONSTANT = RunConfig(
    source=SourceSpec.pure_nopa(0.4),
    detector=DetectorModel(),
    schedule=PhaseSchedule.constant(0.3, 1000),
    theta=0.2,
    seed=7,
    blocked_arm="a",
)

# (config, SHA-256 of the sidecar JSON bytes written by format version 7)
PINNED_SIDECARS = {
    "reference": (
        reference_scenario(n_pulses=1000, seed=12345).config,
        "ea463dad30a07e4e95342d0737a5031eaeb711939d7acbaac9b07de6ddb8a8b9",
    ),
    "pure_nopa_constant": (
        PURE_NOPA_CONSTANT,
        "98adea6be86d18afc690fab657a70c4bbf0bb73231edfc6d7327d5305855912d",
    ),
}

# A version 1 sidecar, as written before the format_version key existed;
# old sidecars must stay readable
PURE_NOPA_CONSTANT_SIDECAR = """\
{
  "format": "index,lo_phase_rad,value",
  "n_pulses": 1000,
  "chunk_size": 65536,
  "config": {
    "source": {
      "kind": "pure_nopa",
      "r": 0.4
    },
    "detector": {
      "eta_transmission": 0.93,
      "eta_homodyne": 0.88,
      "eta_detector": 0.945,
      "electronic_noise_var": 0.07943282347242814,
      "lo_photons_per_pulse": 250000000.0
    },
    "schedule": {
      "kind": "constant",
      "n_pulses": 1000,
      "phi": 0.3
    },
    "theta": 0.2,
    "beamsplitter_r": 0.5,
    "seed": 7,
    "blocked_arm": "a"
  }
}
"""
PURE_NOPA_CONSTANT_SIDECAR_DIGEST = (
    "407afad189acfbbda02514ae487cccbb5b8a9684ba3208161a1993a6815d29e6"
)

# The version 6 sidecar write_records wrote for RAMP_40K before version 7 dropped
# lo_photons_per_pulse and bound the chunk size: its digests take its config alone
RAMP_40K = replace(REFERENCE, schedule=_ramp(40_000))
RAMP_40K_VERSION_6_SIDECAR = """\
{
  "format_version": 6,
  "format": "index,lo_phase_rad,value",
  "n_pulses": 40000,
  "chunk_size": 65536,
  "records_sha256": "09fbd87d5bdd98f4efda1ab29b6f04c3cc314700b436c3cc549506b2e485f18d",
  "values_sha256": "d225b9e83f027661f813172d6eb8599c9cf9e339444a5eb22555882a65187b6a",
  "config": {
    "source": {
      "kind": "symmetric_mixed",
      "v": 1.5,
      "k": 0.94
    },
    "detector": {
      "eta_transmission": 0.93,
      "eta_homodyne": 0.88,
      "eta_detector": 0.945,
      "electronic_noise_var": 0.0,
      "lo_photons_per_pulse": 250000000.0
    },
    "schedule": {
      "kind": "linear_ramp",
      "n_pulses": 40000,
      "phi_start": 0.0,
      "phi_end": 12.566370614359172
    },
    "theta": 0.0,
    "beamsplitter_r": 0.5,
    "seed": 12345,
    "blocked_arm": "none"
  }
}
"""


@pytest.mark.parametrize("case", sorted(PINNED_SIDECARS))
def test_sidecar_bytes_are_pinned(case, tmp_path):
    config, digest = PINNED_SIDECARS[case]
    csv = write_records(config, tmp_path / "r.csv")
    sidecar = csv.with_suffix(".json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == digest
    assert Sidecar.from_dict(json.loads(sidecar)).format_version == FORMAT_VERSION == 7


def test_pinned_sidecar_decodes_to_its_config():
    text = PURE_NOPA_CONSTANT_SIDECAR
    assert hashlib.sha256(text.encode()).hexdigest() == PURE_NOPA_CONSTANT_SIDECAR_DIGEST
    meta = Sidecar.from_dict(json.loads(text))
    assert meta.format_version == 1
    assert meta.config == PURE_NOPA_CONSTANT
    # Sidecar.from_dict drops the raw-unit key versions 1 to 6 wrote; a config
    # itself, as a version 7 sidecar or a scenario file holds it, may not name it
    with pytest.raises(ValueError, match="unknown key 'detector.lo_photons_per_pulse'"):
        RunConfig.from_dict(json.loads(text)["config"])
    # the codec itself stays strict: only Sidecar.from_dict supplies version 1
    with pytest.raises(ValueError, match="missing key 'format_version'"):
        from_dict(Sidecar, json.loads(text))


def test_version_1_sidecar_still_analyzes(tmp_path, capsys):
    """analyze needs only the config and pulse count of a sidecar, which
    version 1 shares; the pinned sidecar's count (in the sidecar and in its
    schedule, which must agree), schedule and blocked arm are set to the CSV's
    (analyze refuses a blocked-arm record, and a constant schedule before it
    reads any)."""
    ramp = replace(REFERENCE, schedule=_ramp(50_000))
    csv = write_records(ramp, tmp_path / "r.csv")
    meta = {**json.loads(PURE_NOPA_CONSTANT_SIDECAR), "n_pulses": 50_000}
    meta["config"]["schedule"] = to_dict(ramp.schedule)
    meta["config"]["blocked_arm"] = ramp.blocked_arm
    csv.with_suffix(".json").write_text(json.dumps(meta))
    assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["efficiency_used"] == PURE_NOPA_CONSTANT.detector.efficiency


def test_version_2_sidecar_still_analyzes(tmp_path, capsys):
    """Records of contracts 2 to 4 differ only in their values, which analyze
    reads from the CSV: a sidecar that says version 2, 3 or 4 (with no digest)
    analyzes as the current version does."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(50_000)), tmp_path / "r.csv")
    assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
    as_current = capsys.readouterr().out
    meta = json.loads(csv.with_suffix(".json").read_text())
    assert meta.pop("records_sha256") and meta.pop("values_sha256")
    assert meta["format_version"] == FORMAT_VERSION
    for version in (2, 3, 4):
        csv.with_suffix(".json").write_text(json.dumps({**meta, "format_version": version}))
        assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
        assert capsys.readouterr().out == as_current


def test_records_regenerate_from_their_sidecar(tmp_path):
    """The route a reader takes: sidecar dict -> config -> sample_pulses == the CSV.

    70,001 pulses are a multiple of neither chunk size nor of the 2048-row
    write batch, so the last chunk and the last batch are partial."""
    config = replace(REFERENCE, schedule=_ramp(70_001), seed=21)
    for chunk_size in (128, simulate_module.DEFAULT_CHUNK_SIZE):
        written = write_records(config, tmp_path / "r.csv", chunk_size=chunk_size)
        meta = read_metadata(written)
        assert meta["chunk_size"] == chunk_size
        fresh = sample_pulses(RunConfig.from_dict(meta["config"]), chunk_size=meta["chunk_size"])
        train = read_records(written)
        assert np.array_equal(fresh.value, train.value)
        assert np.array_equal(fresh.lo_phase, train.lo_phase)
        assert np.array_equal(fresh.index, train.index)


# SHA-256 of two reports' JSON under format version 4: reordering a single
# floating-point operation in the sampler, the fit, the correction or the
# reconstruction changes them
PINNED_ANALYZE_STDOUT = "96d183c52cb92f4f79c97d5e3f09c67991045792d8e81da197517a608a57791f"
PINNED_END_TO_END_REPORT = "c2556fe89956b5e9c13c887874381283696fe1178246fc91635ec651484ca620"


def test_analyze_report_is_pinned(tmp_path, capsys):
    args = ["--out", str(tmp_path)]
    assert main(["simulate", "--pulses", "50000", "--seed", "7", *args]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "pulses.csv"), "--json", *args]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_ANALYZE_STDOUT


def test_end_to_end_report_is_pinned():
    report = end_to_end_report(reference_scenario().config, 200_000)
    text = json.dumps(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_END_TO_END_REPORT


def test_concurrent_scans_from_cold_memos_give_the_pinned_report():
    """The three scans of a report, on threads switching every microsecond and
    all building the shared memo tables at once, still give the pinned bits."""
    simulate_module._fringe_tables.cache_clear()
    simulate_module._block_columns.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = end_to_end_report(reference_scenario().config, 200_000)
    finally:
        sys.setswitchinterval(interval)
    text = json.dumps(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_END_TO_END_REPORT


def test_schedule_slices_match_the_whole_train():
    for schedule in (_ramp(1001), PhaseSchedule.linear_ramp(0.3, -2.0, 77),
                     PhaseSchedule.constant(0.7, 50)):
        whole = schedule.values()
        n = len(schedule)
        for start, stop in ((0, n), (0, 0), (3, 17), (n - 5, n), (n, n)):
            assert np.array_equal(schedule.values(start, stop), whole[start:stop])
        with pytest.raises(ValueError):
            schedule.values(5, 4)
        with pytest.raises(ValueError):
            schedule.values(0, n + 1)


def test_schedule_slice_allocates_only_its_result():
    """A ramp slice is built in place: one chunk of phases peaks at its own size."""
    schedule = _ramp(1_000_000)
    tracemalloc.start()
    try:
        phases = schedule.values(65_536, 131_072)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * phases.nbytes


@pytest.mark.parametrize(
    "chunk, block", [(65536, 2500), (65536, 500), (128, 300), (1000, 2500)]
)
def test_streamed_blocks_equal_the_whole_train_blocks(chunk, block):
    """Blocks spanning chunk boundaries, or whole chunks, reduce as in one array."""
    config = REFERENCE if chunk > 1000 else replace(REFERENCE, schedule=_ramp(10_001))
    for theta, arm in itertools.product((0.0, math.pi), ("none", "a", "b", "signal")):
        scan = replace(config, theta=theta, blocked_arm=arm)
        streamed = stream_block_variances(scan, block, chunk_size=chunk)
        whole = block_variance_trace(sample_pulses(scan, chunk_size=chunk), block)
        assert np.array_equal(streamed[0], whole[0])
        assert np.array_equal(streamed[1], whole[1])


def test_fringe_tables_are_read_only():
    for table in simulate_module._fringe_tables(0.01, 100):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@pytest.mark.parametrize("block", [500, 2500, 70_000])
def test_block_phase_means_equal_those_of_the_whole_schedule(block):
    """Reduced a chunk's worth of blocks at a time, or a block at a time when
    a block outgrows a chunk, every block's mean of cos 2phi and of sin 2phi
    is that of the whole schedule."""
    for schedule in (_ramp(200_003), PhaseSchedule.linear_ramp(0.3, -2.0, 150_001),
                     PhaseSchedule.constant(0.7, 150_000)):
        used = len(schedule) - len(schedule) % block
        two_phi = 2.0 * schedule.values()[:used]
        whole = np.column_stack([np.cos(two_phi).reshape(-1, block).mean(axis=1),
                                 np.sin(two_phi).reshape(-1, block).mean(axis=1)])
        columns = simulate_module._block_columns(schedule, block)
        assert columns.tobytes() == whole.tobytes()
        assert not columns.flags.writeable


def test_returned_block_phases_do_not_reach_the_memo():
    config = replace(REFERENCE, schedule=_ramp(10_000))
    columns, _ = stream_block_variances(config, 2500)
    expected = columns.copy()
    columns[:] = -1.0
    again, _ = stream_block_variances(config, 2500)
    assert np.array_equal(again, expected)


def test_one_report_builds_one_table_and_one_set_of_block_phases():
    """The three scans share one ramp: the two fringe scans one table; the
    report takes the one set of block columns its fit reads, once.  The
    blocked-arm scan needs no table."""
    simulate_module._fringe_tables.cache_clear()
    simulate_module._block_columns.cache_clear()
    end_to_end_report(reference_scenario().config, 50_000)
    tables = simulate_module._fringe_tables.cache_info()
    columns = simulate_module._block_columns.cache_info()
    assert (tables.misses, tables.hits) == (1, 1)
    assert (columns.misses, columns.hits) == (1, 0)


PHYSICS_THETAS = (0.0, -0.0, 0.7, math.pi)


def _physics_outputs(config):
    """Bytes of every output that reads the detected port, for one config; the
    thetas a scan hands back are its input, so they are left out."""
    calls = (
        lambda: [detected_covariance(config)],
        lambda: theta_scan(config, (config.theta,))[1:],
        lambda: theta_scan(config, PHYSICS_THETAS)[1:],
        lambda: stream_block_variances(config, 50, chunk_size=256),
    )
    return [array.tobytes() for call in calls for array in call()]


def _physics_config(**overrides):
    return replace(REFERENCE, schedule=_ramp(1000), detector=DetectorModel(), **overrides)


@pytest.mark.parametrize("arm", ["none", "a", "b", "signal"])
def test_signed_zeros_never_change_an_output_bit(arm):
    """A zero theta, k or r gives the same bits whichever its sign."""
    pairs = [
        (_physics_config(theta=0.0), _physics_config(theta=-0.0)),
        (_physics_config(source=SourceSpec.symmetric_mixed(1.5, 0.0)),
         _physics_config(source=SourceSpec.symmetric_mixed(1.5, -0.0))),
        (_physics_config(source=SourceSpec.pure_nopa(0.0)),
         _physics_config(source=SourceSpec.pure_nopa(-0.0))),
    ]
    for first, second in pairs:
        first, second = replace(first, blocked_arm=arm), replace(second, blocked_arm=arm)
        assert _physics_outputs(first) == _physics_outputs(second)


def test_detected_covariance_is_the_callers_own():
    """Writing into the returned matrix leaves every later output as it was."""
    config = _physics_config(theta=0.7)
    expected = _physics_outputs(config)
    detected_covariance(config)[:] = -1.0
    assert _physics_outputs(config) == expected


def test_streamed_blocking_rejects_what_block_variance_trace_rejects(tmp_path):
    """Sizes below their bounds, and sizes that are not integers, are refused
    by every route with a message that names them, before any file is made."""
    short = replace(REFERENCE, schedule=_ramp(2499))
    with pytest.raises(ValueError, match="full block of 2500 pulses, got 2499"):
        stream_block_variances(short, 2500)
    with pytest.raises(ValueError, match="block size must be >= 2, got 1"):
        stream_block_variances(REFERENCE, 1)
    with pytest.raises(ValueError, match="chunk size must be >= 1, got 0"):
        stream_block_variances(REFERENCE, 2500, chunk_size=0)
    train = sample_pulses(replace(REFERENCE, schedule=_ramp(5000)))
    path = tmp_path / "r.csv"
    stream_block_variances(REFERENCE, 2500)  # its cached columns must not serve 2500.0
    for bad in (2.5, 2500.0, True):
        block = f"block size must be an integer, got {bad}"
        chunk = f"chunk size must be an integer, got {bad}"
        for route, message in (
            (lambda: stream_block_variances(REFERENCE, bad), block),
            (lambda: block_variance_trace(train, bad), block),
            (lambda: end_to_end_report(REFERENCE, 5000, block_size=bad), block),
            (lambda: stream_block_variances(REFERENCE, 2500, chunk_size=bad), chunk),
            (lambda: sample_pulses(REFERENCE, chunk_size=bad), chunk),
            (lambda: write_records(REFERENCE, path, chunk_size=bad), chunk),
        ):
            with pytest.raises(ValueError, match=message):
                route()
    assert not path.exists()


@pytest.mark.parametrize(
    "source", [SourceSpec.symmetric_mixed(1.50, 0.94), SourceSpec.pure_nopa(0.472)]
)
@pytest.mark.parametrize("arm", ["a", "b", "signal"])
def test_blocked_arm_scan_is_isotropic_and_trig_free(monkeypatch, source, arm):
    """With an arm blocked the detected covariance is a multiple of I.

    That is what lets a blocked-arm run use one scalar standard deviation:
    no array trig is done, every pulse gets the same deviation, and the
    streamed blocks equal those of the sampled train.
    """
    noisy = DetectorModel(electronic_noise_var=0.05)
    for theta in (0.0, 0.7, math.pi):
        config = replace(REFERENCE, source=source, detector=noisy, theta=theta,
                         blocked_arm=arm, schedule=_ramp(100_000))
        g = detected_covariance(config)
        np.testing.assert_allclose(g, g[0, 0] * np.eye(2), rtol=0.0, atol=1e-14)

        # the block columns are the schedule's, memoized: trig once per ramp, not per scan
        simulate_module._block_columns(config.schedule, 2500)
        monkeypatch.setattr(simulate_module, "np", _NoArrayTrig())
        _, streamed = stream_block_variances(config, 2500)
        monkeypatch.undo()
        _, whole = block_variance_trace(sample_pulses(config), 2500)
        assert np.array_equal(streamed, whole)


class _NoArrayTrig:
    """numpy, for cvpulse.simulate, with cos and sin taken away."""

    def __getattr__(self, name):
        if name in ("cos", "sin"):
            raise AssertionError(f"np.{name} called")
        return getattr(np, name)


def test_end_to_end_report_memory_is_order_chunk():
    """10^6 pulses per scan stay below the 8 MB of one array of n float64."""
    config = reference_scenario(n_pulses=1_000_000).config
    tracemalloc.start()
    try:
        end_to_end_report(config, pulses_per_scan=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1_000_000


def test_end_to_end_report_memory_does_not_grow_with_pulses():
    """A report peaks at the same memory for 10^6 and 4x10^6 pulses per scan:
    each chunk's result is stitched and dropped, never held to the end."""
    peaks = []
    for n in (1_000_000, 4_000_000):
        config = reference_scenario(n_pulses=n).config
        end_to_end_report(config, pulses_per_scan=n)  # builds the memoized tables first
        tracemalloc.start()
        try:
            end_to_end_report(config, pulses_per_scan=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("block", [2, 7, 2500, 70_000])
def test_scans_drawn_on_threads_equal_scans_drawn_in_turn(monkeypatch, block, cpus):
    """The chunks of three scans drawn on threads and stitched as they finish
    give the blocks of each scan streamed alone, bit for bit: blocks of the
    minimum size, blocks that straddle chunk boundaries, blocks longer than a
    chunk, and a trailing partial chunk and block.  Four threads on two CPUs
    that switch every microsecond would show a block filed in the wrong place."""
    import os

    ramp = _ramp(3 * simulate_module.DEFAULT_CHUNK_SIZE + 1234)
    scans = [
        replace(REFERENCE, schedule=ramp, theta=theta, blocked_arm=arm, seed=seed)
        for theta, arm, seed in ((0.0, "none", 31), (math.pi, "none", 32), (0.0, "b", 33))
    ]
    expected = [stream_block_variances(scan, block) for scan in scans]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drawn = simulate_module._stream_scans(scans, block)
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == len(expected)
    for blocks, (want_columns, want_blocks) in zip(drawn, expected):
        assert blocks.tobytes() == want_blocks.tobytes()
        assert simulate_module._block_columns(ramp, block).tobytes() == want_columns.tobytes()


@pytest.mark.parametrize("block", [2, 7, 2500, 70_000])
def test_stitch_takes_the_pieces_of_a_scan_in_any_order(block):
    """A scan's chunk-long pieces of pulses fed to a variance stitch, and its
    pieces of phases fed to a column stitch, in shuffled orders give the
    blocks and fringe columns of the whole train bit for bit: blocks of the
    minimum size, blocks that straddle chunks, blocks longer than a chunk, and
    a trailing partial block, dropped whenever its pieces arrive."""
    chunk = 10_000
    config = replace(REFERENCE, schedule=_ramp(197_843))  # no multiple of any block here
    train = sample_pulses(config, chunk_size=chunk)
    want_columns, want_blocks = block_variance_trace(train, block)
    starts = range(0, len(train), chunk)
    orders = [range(len(starts)), range(len(starts) - 1, -1, -1)]
    orders += [np.random.default_rng(seed).permutation(len(starts)) for seed in range(3)]
    for order in orders:
        columns = simulate_module._Stitch(block, simulate_module._fringe_columns)
        variances = simulate_module._Stitch(block, simulate_module._reduce_blocks)
        for start in (starts[i] for i in order):
            columns.add(start, train.lo_phase[start : start + chunk])
            variances.add(start, train.value[start : start + chunk].copy())  # reduced in place
        assert columns.blocks().tobytes() == want_columns.tobytes()
        assert variances.blocks().tobytes() == want_blocks.tobytes()


def test_streamed_scan_allocates_no_chunk_temporaries():
    """A 10^6-pulse ramp at the default chunk peaks at the chunk task's reused
    buffer and scratch, each a chunk long, plus the stitch's one block."""
    config = replace(REFERENCE, schedule=_ramp(1_000_000))
    stream_block_variances(config, 2500)  # builds the memoized tables first
    tracemalloc.start()
    try:
        stream_block_variances(config, 2500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * 8 * simulate_module.DEFAULT_CHUNK_SIZE


def test_write_records_memory_does_not_grow_with_pulses(tmp_path, monkeypatch):
    """One write_records call peaks at the same memory for 10^6 and 4x10^6
    pulses: the records are drawn a chunk at a time, never as a whole train.

    Rows are formatted to no text here: traced, the formatting of 4x10^6 rows
    takes about a minute, and its text never exceeds one 2048-row batch.
    """
    monkeypatch.setattr(records, "_rows", lambda first, phases, values: b"")
    peaks = []
    for n in (1_000_000, 4_000_000):
        config = replace(REFERENCE, schedule=_ramp(n))
        write_records(config, tmp_path / "r.csv")  # builds the memoized tables first
        tracemalloc.start()
        try:
            write_records(config, tmp_path / "r.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_two_open_streams_do_not_share_a_scratch(monkeypatch):
    """Two streams on one ramp share its fringe tables, not their scratch.

    Stream b advances one chunk while stream a draws each of its chunks,
    between a's standard deviations and its normals; both must give the
    blocks they give when run one after the other.
    """
    a = replace(REFERENCE, schedule=_ramp(300_000), seed=21)
    b = replace(a, theta=math.pi, seed=22)
    expected_a = stream_block_variances(a, 2500, chunk_size=10_000)
    expected_b = stream_block_variances(b, 2500, chunk_size=10_000)

    draw_b = simulate_module._marginal_draw(b, 10_000)
    stream_b = (draw_b(lo, rng, np.empty(hi - lo), np.empty(hi - lo))
                for lo, hi, rng in simulate_module._chunks(b, 10_000, simulate_module._STREAM_FAST))
    values_b = []

    class _Interleaved:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, m, out=None):
            values_b.append(next(stream_b))
            return self.rng.standard_normal(m, out=out)

    chunks = simulate_module._chunks
    monkeypatch.setattr(
        simulate_module, "_chunks",
        lambda *args: ((lo, hi, _Interleaved(rng)) for lo, hi, rng in chunks(*args)),
    )
    columns_a, blocks_a = stream_block_variances(a, 2500, chunk_size=10_000)
    monkeypatch.undo()
    assert len(values_b) == 30
    assert np.array_equal(columns_a, expected_a[0])
    assert np.array_equal(blocks_a, expected_a[1])
    blocks_b = np.concatenate(values_b).reshape(-1, 2500).var(axis=1, ddof=1)
    assert np.array_equal(blocks_b, expected_b[1])


def test_write_records_matches_savetxt(tmp_path):
    """Batched formatting writes the bytes np.savetxt wrote of the sampled run,
    across batches and across chunks that end inside a batch."""
    ramp = replace(REFERENCE, schedule=_ramp(20_000), seed=3)
    blocked = replace(ramp, schedule=PhaseSchedule.constant(0.7, 20_000), blocked_arm="a")
    for name, config, chunk_size in (
        ("ramp", ramp, simulate_module.DEFAULT_CHUNK_SIZE),
        ("ramp-128", ramp, 128),
        ("blocked", blocked, 3000),
    ):
        path = write_records(config, tmp_path / f"{name}.csv", chunk_size=chunk_size)
        t = sample_pulses(config, chunk_size)
        expected = tmp_path / f"{name}-savetxt.csv"
        np.savetxt(expected, np.column_stack([t.index, t.lo_phase, t.value]),
                   fmt="%d,%.17g,%.17g", header="index,lo_phase_rad,value", comments="")
        assert path.read_bytes() == expected.read_bytes()


def test_write_records_refuses_a_path_that_is_its_own_sidecar(tmp_path, monkeypatch):
    """Records named *.json would be overwritten by their own sidecar, so the
    path is refused, by name, before a chunk is drawn or a file is written."""
    monkeypatch.setattr(simulate_module, "_marginal_draw", None)  # a drawn chunk would fail
    with pytest.raises(ValueError, match="run.json"):
        write_records(replace(REFERENCE, schedule=_ramp(10)), tmp_path / "run.json")
    assert list(tmp_path.iterdir()) == []


def _format_cases():
    """10^6 float64 values that reach every path of the record formatter."""
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in range(-8, 18)])  # every exponent layout
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ties = []  # odd M / 2^(j+1) with M 5^j / 2 in [1e16, 1e17): 18 digits ending in 5
    for j in range(1, 25):
        low, high = -(-2 * 10**16 // 5**j), min(2 * 10**17 // 5**j, 2**53)
        ties.append(np.ldexp(2.0 * rng.integers(low // 2, high // 2, 2500) + 1.0, -(j + 1)))
    ties = np.concatenate(ties)
    for x in ties[::2500].tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
               math.nan, -math.nan, math.inf, -math.inf]
    cases = np.concatenate([
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
        rng.choice([-1.0, 1.0], 400_000) * 10.0 ** rng.uniform(-9.0, 19.0, 400_000),
        rng.uniform(0.0, 4.0 * math.pi, 170_000),
        rng.normal(0.0, 1.3, 170_000),
        ties, neighbours, -neighbours, special,
    ])
    return rng.permutation(cases)


def test_rows_are_the_bytes_percent_formatting_writes():
    """The numpy record formatter writes exactly "%d,%.17g,%.17g\\n" % row, on
    random bit patterns, 10^-9 to 10^19, every exponent layout with its powers
    of ten and their neighbours, exact ties at the 17th digit, zeros,
    subnormals, huge and non-finite values, and index columns that widen
    inside a batch (rows 9999 and 10000 share one)."""
    cases = _format_cases()
    assert cases.size >= 1_000_000
    phases, values = cases[: cases.size // 2], cases[cases.size // 2 : 2 * (cases.size // 2)]
    batch = records._FORMAT_BATCH
    assert 10**4 % batch != 0
    for first in range(0, len(values), batch):
        rows = slice(first, first + batch)
        got = records._rows(first, phases[rows], values[rows]).decode()
        expected = "".join(
            "%d,%.17g,%.17g\n" % row
            for row in zip(itertools.count(first), phases[rows].tolist(), values[rows].tolist())
        )
        if got != expected:
            line = next(i for i, (g, e) in enumerate(zip(got.splitlines(), expected.splitlines()))
                        if g != e)
            pytest.fail(f"row {first + line}: {got.splitlines()[line]!r} "
                        f"!= {expected.splitlines()[line]!r}")


@pytest.mark.parametrize("first", [10**7 - 1000, 10**8 - 1000, 10**12 - 1000,
                                   10**16 - 1000, sys.maxsize - 2048])
def test_rows_of_wide_indices_are_the_bytes_percent_formatting_writes(first):
    """A batch of ramp phases and normal values, each laid out by the formatter with
    no '%.17g' fallback, whose index widens inside it or reaches sys.maxsize - 1,
    so the index spans two or three words: exactly "%d,%.17g,%.17g\\n" % row."""
    rng = np.random.default_rng(first % 2**32)
    phases = np.linspace(0.0, 4.0 * math.pi, records._FORMAT_BATCH)
    values = rng.normal(0.0, 1.3, records._FORMAT_BATCH)
    assert records._fixed_notation(np.stack((phases, values), axis=1))[1].all()
    expected = "".join("%d,%.17g,%.17g\n" % row
                       for row in zip(itertools.count(first), phases.tolist(), values.tolist()))
    assert records._rows(first, phases, values).decode() == expected


def test_write_records_memory_is_bounded_while_formatting(tmp_path):
    """write_records, formatting every row, peaks at the same traced memory for
    1.3x10^5 and 5.2x10^5 pulses, and below 4 MB: rows are formatted a batch
    at a time."""
    peaks = []
    for n in (130_000, 520_000):
        config = replace(REFERENCE, schedule=_ramp(n))
        write_records(config, tmp_path / "r.csv")  # builds the memoized tables first
        tracemalloc.start()
        try:
            write_records(config, tmp_path / "r.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 4 * 2**20


def _loadtxt_columns(path):
    """The phase and value columns as one np.loadtxt call reads them."""
    with open(path) as fh:
        fh.readline()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return table[:, 1], table[:, 2]


def _assert_reads_as_loadtxt(path):
    train = read_records(path)
    phase, value = _loadtxt_columns(path)
    assert train.lo_phase.view(np.uint64).tolist() == phase.view(np.uint64).tolist()
    assert train.value.view(np.uint64).tolist() == value.view(np.uint64).tolist()


def _near_ties():
    """Decimals next to the midpoints of neighbouring doubles, each midpoint
    rounded down and up to 16-19 significant digits, then the midpoints in
    full."""
    rng = np.random.default_rng(7)
    doubles = np.concatenate([
        rng.uniform(0.0, 4.0 * math.pi, 300), rng.normal(0.0, 1.3, 300),
        10.0 ** rng.uniform(-4.0, 8.0, 300),
    ])
    mids = [(Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2 for x in doubles.tolist()]
    return [
        f"{mid.quantize(Decimal(1).scaleb(mid.adjusted() - digits + 1), rounding=rounding):f}"
        for mid in mids for digits in range(16, 20) for rounding in ("ROUND_FLOOR", "ROUND_CEILING")
    ] + [f"{mid:f}" for mid in mids]


def _write_lines(path, fields):
    """A records file of the given field texts, one row per pair of them."""
    with open(path, "w") as fh:
        fh.write("index,lo_phase_rad,value\n")
        fh.writelines(f"{i},{a},{b}\n" for i, (a, b) in enumerate(zip(fields[::2], fields[1::2])))


def test_read_records_equals_loadtxt_bit_for_bit(tmp_path, monkeypatch):
    """read_records returns np.loadtxt's values bit for bit: on every finite
    value of the formatter's cases as write_records writes them (the bytes
    np.savetxt writes); on decimals next to midpoints of neighbouring doubles;
    on powers of two with their neighbours, -0 and exponent notation; and on
    lines only np.loadtxt reads, with a few rows to many per np.loadtxt call, so
    that a call ends next to comment, blank, CR and CRLF lines.  At 1 and 2 rows
    per call, where the calls cost most, the formatter's file is read by its first
    4,096 rows; every other setting reads all of both files."""
    cases = _format_cases()
    cases = cases[np.isfinite(cases)]
    phases, values = cases[0::2][: cases.size // 2], cases[1::2][: cases.size // 2]
    rows_path = tmp_path / "rows.csv"
    with open(rows_path, "wb") as fh:
        fh.write(b"index,lo_phase_rad,value\n")
        for first in range(0, len(values), records._FORMAT_BATCH):
            batch = slice(first, first + records._FORMAT_BATCH)
            fh.write(records._rows(first, phases[batch], values[batch]))
    prefix_path = tmp_path / "prefix.csv"
    with open(rows_path, "rb") as fh:
        prefix_path.write_bytes(b"".join(itertools.islice(fh, 1 + 4096)))
    ties_path = tmp_path / "ties.csv"
    _write_lines(ties_path, _near_ties())
    _assert_reads_as_loadtxt(ties_path)

    powers = np.ldexp(1.0, np.arange(-60, 27))
    twos = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    texts = [
        f"{sign}{x:.{digits}g}" for x in twos.tolist() for digits in (16, 17, 18, 19)
        for sign in ("", "-")
    ] + ["-0", "-0.0", "0", "0.0", "00.5", "-00", "1e-05", "5.0265482457436693e-05",
         "-1.2345678901234567e-07", "1E+3", "+1.5", " 2.5", "3.5 ", ".5", "5."]
    lines = [f"{i},{t},{texts[-1 - i]}\n" for i, t in enumerate(texts)]
    odd = {  # lines np.loadtxt reads that write_records does not write
        5: "5,1.0,2.0\r\n", 9: "9,1.0,2.0 # comment\n", 12: "+12,1,2\n", 14: "014,1,2\n",
        20: " 20 , 0.25 , -0.5 \n", 21: "21,1,2\r",
    }
    for i, line in odd.items():
        lines[i] = line
    lines[30:30] = ["\n", "# a comment line\n"]
    path = tmp_path / "mixed.csv"
    path.write_text("index,lo_phase_rad,value\n" + "".join(lines).rstrip("\n"), newline="")
    assert records._LOAD_ROWS < len(values)
    wanted = {p: [column.tobytes() for column in _loadtxt_columns(p)]
              for p in (path, rows_path, prefix_path)}
    for rows in (1, 2, 29, 30, 31, 61, 1000, records._LOAD_ROWS):
        monkeypatch.setattr(records, "_LOAD_ROWS", rows)
        for p in (path, prefix_path if rows <= 2 else rows_path):
            phase, value = wanted[p]
            train = read_records(p)
            assert train.lo_phase.tobytes() == phase and train.value.tobytes() == value, (p, rows)


_HEADER = "index,lo_phase_rad,value"
_ROWS = ["0,0.5,1.25", "1,1e-05,-2.5", "2,3.1415926535897931,0.125", "3,12.5,-0.0001"]


@pytest.mark.parametrize("text, error", [
    pytest.param(_HEADER + "\r\n" + "\r\n".join(_ROWS) + "\r\n", None, id="CRLF"),
    pytest.param(_HEADER + "\r" + "\r".join(_ROWS) + "\r", None, id="CR only"),
    pytest.param(_HEADER + "\r" + "\n".join(_ROWS), None, id="rows after a CR header"),
    pytest.param("  " + _HEADER + " \t\n" + "\n".join(_ROWS) + "\n", None,
                 id="space-padded header"),
    pytest.param(_HEADER + "\r\n", "odd.csv: no records", id="CRLF header, no rows"),
    pytest.param("", f"odd.csv line 1: expected header {_HEADER!r}, got ''", id="zero bytes"),
    pytest.param("\n" + _HEADER + "\n" + "\n".join(_ROWS) + "\n",
                 f"odd.csv line 1: expected header {_HEADER!r}, got ''", id="blank first line"),
    pytest.param(_HEADER + "\n# a comment\n# another\n", "odd.csv: no records",
                 id="comment-only body"),
])
def test_odd_records_files_read_as_loadtxt_or_name_their_fault(tmp_path, text, error):
    """Line ends text mode reads, a padded header, and files with no rows:
    read_records gives np.loadtxt's arrays bit for bit, or one error."""
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    if error is None:
        _assert_reads_as_loadtxt(path)
    else:
        with pytest.raises(ValueError) as excinfo:
            read_records(path)
        assert str(excinfo.value) == error


@pytest.mark.parametrize("header, row_100, message", [
    pytest.param(_HEADER, "100,0.5,2.5x",
                 "pulses.csv line 102: non-numeric field in '100,0.5,2.5x'",
                 id="non-numeric value"),
    pytest.param(_HEADER, "7,0.5,2.5", "pulses.csv line 102: expected index 100, got 7",
                 id="index out of sequence"),
    pytest.param("index,phase,value", "100,0.5,2.5",
                 f"pulses.csv line 1: expected header {_HEADER!r}, got 'index,phase,value'",
                 id="bad header"),
])
def test_a_fault_after_the_first_loadtxt_call_is_named_once(
    tmp_path, monkeypatch, capsys, header, row_100, message
):
    """With 61 rows per np.loadtxt call, a fault in row 100, read by the second call,
    makes analyze exit 2 naming line 102, and a bad header names line 1; either way
    the records file is rescanned for its first bad line once."""
    rows = [f"{i},0.5,2.5" for i in range(200)]
    rows[100] = row_100
    csv = tmp_path / "pulses.csv"
    csv.write_text("\n".join([header, *rows]) + "\n")
    rescans, rescan = [], records._raise_at_first_bad_line
    monkeypatch.setattr(records, "_raise_at_first_bad_line",
                        lambda path: rescans.append(path) or rescan(path))
    monkeypatch.setattr(records, "_LOAD_ROWS", 61)
    capsys.readouterr()
    assert main(["analyze", str(csv), "--out", str(tmp_path)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert rescans == [csv]


def test_read_records_memory_grows_only_with_its_arrays(tmp_path):
    """read_records' traced peak grows from 1.3x10^5 to 5.2x10^5 pulses by
    about the 16 bytes per pulse of the arrays it returns, not by the 45
    bytes per row of the file: it holds one block of text at a time, also
    where each line ends in a lone CR."""
    paths = [
        write_records(replace(REFERENCE, schedule=_ramp(n)), tmp_path / f"r{n}.csv")
        for n in (130_000, 520_000)
    ]
    paths.append(tmp_path / "cr.csv")
    paths[2].write_bytes(paths[0].read_bytes().replace(b"\n", b"\r"))
    peaks = []
    for path in paths:
        read_records(path)  # builds the memoized tables first
        tracemalloc.start()
        try:
            read_records(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.1 * 16 * (520_000 - 130_000)
    assert peaks[2] <= 1.1 * peaks[0]


def _unbind(csv):
    """Rewrite the sidecar of ``csv`` as version 4 wrote it: its config, no digest."""
    sidecar = csv.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    del meta["records_sha256"], meta["values_sha256"]
    sidecar.write_text(json.dumps({**meta, "format_version": 4}, indent=2) + "\n")


def test_analyze_memory_does_not_grow_with_pulses(tmp_path, capsys):
    """analyze peaks at the same traced memory for 2.5x10^5 and 10^6 pulses,
    on the redraw of records next to their own sidecars and on the full read
    of the same records once their sidecars carry no digest: the bound CSV is
    hashed a read block at a time and redrawn a chunk at a time, the unbound
    one split and stitched a block of lines at a time, and no train of the
    records is ever held.  Each builds its schedule's block columns, for the
    design check before any read, a chunk of pulses at a time."""
    runs = []
    for n in (250_000, 1_000_000):
        out = tmp_path / f"r{n}"
        out.mkdir()
        write_records(replace(REFERENCE, schedule=_ramp(n)), out / "pulses.csv")
        runs.append(["analyze", str(out / "pulses.csv"), "--out", str(out)])
    for bound in (True, False):
        if not bound:
            for n in (250_000, 1_000_000):
                _unbind(tmp_path / f"r{n}" / "pulses.csv")
        assert main(runs[0]) == 0  # imports the record format first
        peaks = []
        for argv in runs:
            simulate_module._block_columns.cache_clear()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= 1.1 * peaks[0], bound


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """(path, read_records of it) of a written file of 80,001 pulses, of its
    CR-only and CRLF copies, and of a copy with a comment line, an empty
    line and a '%.17e' row, lines write_records does not write."""
    out = tmp_path_factory.mktemp("records")
    written = write_records(replace(REFERENCE, schedule=_ramp(80_001)), out / "written.csv")
    text = written.read_bytes()
    lines = text.splitlines(keepends=True)
    index, phase, value = lines[40_001].decode().split(",")
    lines[40_001] = f"{index},{float(phase):.17e},{float(value):.17e}\n".encode()
    lines[50_001:50_001] = [b"\n"]
    lines[30_001:30_001] = [b"# an edited file\n"]
    copies = {"cr.csv": text.replace(b"\n", b"\r"), "crlf.csv": text.replace(b"\n", b"\r\n"),
              "edited.csv": b"".join(lines)}
    for name, data in copies.items():
        (out / name).write_bytes(data)
    paths = [written, *(out / name for name in copies)]
    return [(path, read_records(path)) for path in paths]


@pytest.mark.parametrize("block", [2, 7, 2500, 70_000])
def test_records_read_block_by_block_give_the_blocks_of_the_whole_train(record_files, block):
    """analyze's route, the rows of each np.loadtxt call split and stitched as
    they are read, gives the block columns, block variances and record count of
    the whole train bit for bit: blocks of the minimum size, blocks that straddle
    calls, a block longer than a call's 16,384 rows and a trailing partial block,
    on LF, CR-only and CRLF files and on lines write_records does not write."""
    for path, train in record_files:
        columns, variances, rows = records.blocks(path, block, None, None)
        want_columns, want_variances = block_variance_trace(train, block)
        assert rows == len(train) == 80_001
        assert columns.tobytes() == want_columns.tobytes()
        assert variances.tobytes() == want_variances.tobytes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(config: dict) -> bytes:
    return json.dumps(config, sort_keys=True, separators=(",", ":")).encode()


def test_the_digest_binds_the_config_then_every_byte(tmp_path):
    """records_sha256 is the SHA-256 of the canonical JSON (sorted keys, no spaces)
    of {"chunk_size": ..., "config": ...} followed by the CSV's bytes, header
    included, not of the CSV alone; values_sha256 is that of the same JSON followed
    by the drawn values as little-endian float64, in pulse order, over chunks of any
    size."""
    config = replace(REFERENCE, schedule=_ramp(3000))
    csv = write_records(config, tmp_path / "r.csv", chunk_size=1000)
    meta = read_metadata(csv)
    stored = _canonical({"chunk_size": 1000, "config": meta["config"]})
    assert meta["records_sha256"] == _sha256(stored + csv.read_bytes())
    assert meta["records_sha256"] != _sha256(csv.read_bytes())
    values = sample_pulses(config, chunk_size=1000).value.astype("<f8").tobytes()
    assert meta["values_sha256"] == _sha256(stored + values)


def _no_full_decode(monkeypatch):
    """Make a full decode of any records line, or a column stitch, fail."""

    def never(*args, **kwargs):
        raise AssertionError("records were decoded in full")

    monkeypatch.setattr(records, "read", never)
    stitch = simulate_module._Stitch

    def variance_stitch(size, reduce):
        assert reduce is simulate_module._reduce_blocks, "a column stitch was built"
        return stitch(size, reduce)

    monkeypatch.setattr(simulate_module, "_Stitch", variance_stitch)


def _bound_and_unbound(tmp_path, config, chunk_size=simulate_module.DEFAULT_CHUNK_SIZE):
    """The CSV of ``config`` in tmp_path/bound with the sidecar write_records wrote, and
    a link to it in tmp_path/unbound with that sidecar rewritten without a digest."""
    bound, unbound = tmp_path / "bound", tmp_path / "unbound"
    bound.mkdir()
    unbound.mkdir()
    csv = write_records(config, bound / "pulses.csv", chunk_size=chunk_size)
    (unbound / "pulses.csv").symlink_to(csv)
    shutil.copy(csv.with_suffix(".json"), unbound / "pulses.json")
    _unbind(unbound / "pulses.csv")
    return csv, unbound / "pulses.csv"


@pytest.fixture(scope="module")
def simulated_runs(tmp_path_factory):
    """``make(pulses, seed)``: :func:`_bound_and_unbound` of the records of
    ``simulate --pulses P --seed S``."""
    made = {}

    def make(pulses, seed):
        if (pulses, seed) not in made:
            config = reference_scenario(n_pulses=pulses, seed=seed).config
            made[pulses, seed] = _bound_and_unbound(tmp_path_factory.mktemp("run"), config)
        return made[pulses, seed]

    return make


def _analyze_counting_reads(monkeypatch, capsys, csv, *args):
    """(exit code, stdout, stderr, report.json bytes or None, full reads, redraws) of
    analyze."""
    full_reads, redraws = [], []
    read, drawn = records.read, simulate_module._drawn
    report = csv.parent / "report.json"
    report.unlink(missing_ok=True)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(records, "read", lambda path: full_reads.append(path) or read(path))
        patch.setattr(simulate_module, "_drawn", lambda *a: redraws.append(a) or drawn(*a))
        code = main(["analyze", str(csv), "--out", str(csv.parent), "--json", *args])
    out, err = capsys.readouterr()
    return (code, out, err, report.read_bytes() if report.exists() else None,
            len(full_reads), len(redraws))


def _assert_analyzes_as_unbound(monkeypatch, capsys, bound, unbound, *args, reads=(0, 1)):
    """analyze of ``bound`` makes ``reads`` (full reads, redraws), and gives the exit
    code, stdout, stderr and report.json of the full read of ``unbound`` (none where
    ``bound`` is refused before any read), byte for byte."""
    got = _analyze_counting_reads(monkeypatch, capsys, bound, *args)
    want = _analyze_counting_reads(monkeypatch, capsys, unbound, *args)
    assert got[4:] == reads and want[4:] == ((1, 0) if any(reads) else (0, 0))
    assert got[:4] == want[:4]
    return got


def test_a_fresh_record_is_redrawn_not_decoded(tmp_path, monkeypatch, capsys):
    """analyze of a record next to the sidecar simulate wrote with it decodes no
    line and stitches no columns: its bytes give records_sha256, so it is redrawn
    from the sidecar's config, the redrawn values give values_sha256, and the
    columns are the schedule's memoized ones.  Its blocks equal those of the full
    read bit for bit, and analyze gives the stdout and report.json of the full
    read of the same CSV with no digest, byte for byte."""
    csv, unbound = _bound_and_unbound(tmp_path, replace(REFERENCE, schedule=_ramp(80_001)))
    stored = read_metadata(csv)
    meta = Sidecar.from_dict(stored)
    blocks = (2, 7, 2500, 70_000)
    full = [records.blocks(csv, block, None, None) for block in blocks]
    with monkeypatch.context() as patch:
        _no_full_decode(patch)
        for block, (columns, variances, rows) in zip(blocks, full):
            got = records.blocks(csv, block, meta, stored["config"])
            assert got[0].tobytes() == columns.tobytes()
            assert got[1].tobytes() == variances.tobytes()
            assert got[2] == rows == 80_001
    assert _assert_analyzes_as_unbound(monkeypatch, capsys, csv, unbound)[0] == 0


@pytest.mark.parametrize("block", [2, 7, 2500, 70_000])
def test_bound_values_in_exponent_notation_are_redrawn_as_loadtxt_reads_them(
    tmp_path, monkeypatch, capsys, block
):
    """A bound record holds values below 1e-4, which '%.17g' writes in exponent
    notation: redrawn, not decoded, it gives the whole train's block variances
    bit for bit, in blocks of the minimum size, blocks that straddle chunks and a
    block longer than one, and analyze gives the full read's stdout and
    report.json, byte for byte (a block of 70,000 pulses is refused by both
    before any read)."""
    csv, unbound = _bound_and_unbound(tmp_path, replace(REFERENCE, schedule=_ramp(80_001)))
    values = [line.rsplit(b",", 1)[1] for line in csv.read_bytes().splitlines()[1:]]
    assert sum(b"e-" in value for value in values) == 6
    train = read_records(csv)
    stored = read_metadata(csv)
    meta = Sidecar.from_dict(stored)
    with monkeypatch.context() as patch:
        _no_full_decode(patch)
        columns, variances, rows = records.blocks(csv, block, meta, stored["config"])
    want_columns, want_variances = block_variance_trace(train, block)
    assert rows == len(train) == 80_001
    assert columns.tobytes() == want_columns.tobytes()
    assert variances.tobytes() == want_variances.tobytes()
    _assert_analyzes_as_unbound(monkeypatch, capsys, csv, unbound, "--block-size", str(block),
                                reads=(0, 1) if block < 70_000 else (0, 0))


@pytest.mark.parametrize("block", [2500, 7000, 100])
@pytest.mark.parametrize("pulses, seed", [(250_000, 9), (1_000_000, 4)])
def test_a_bound_record_analyzes_as_the_full_read_does(
    simulated_runs, monkeypatch, capsys, pulses, seed, block
):
    """analyze --json and report.json of a record redrawn from its sidecar are
    those of the full read, which analyzes the same CSV with no digest, byte for byte."""
    bound, unbound = simulated_runs(pulses, seed)
    got = _assert_analyzes_as_unbound(monkeypatch, capsys, bound, unbound, "--block-size", str(block))
    assert got[0] == 0


def test_a_record_of_another_chunk_size_is_redrawn_with_it(tmp_path, monkeypatch, capsys):
    """A record written in chunks of 4,096 pulses, whose blocks straddle chunks, is
    redrawn in chunks of its sidecar's chunk_size and analyzes as its full read."""
    csv, unbound = _bound_and_unbound(
        tmp_path, replace(REFERENCE, schedule=_ramp(60_000)), chunk_size=4096)
    assert read_metadata(csv)["chunk_size"] == 4096
    got = _assert_analyzes_as_unbound(monkeypatch, capsys, csv, unbound)
    assert got[0] == 0


def test_a_record_another_sampler_draws_is_read_in_full(tmp_path, monkeypatch, capsys):
    """Where the redraw does not give values_sha256, as on a numpy whose bit
    generator draws another stream, the record is read in full, once, and analyzes
    as its full read."""
    csv, unbound = _bound_and_unbound(tmp_path, replace(REFERENCE, schedule=_ramp(60_000)))
    draw = simulate_module._marginal_draw

    def another_stream(config, chunk_size):
        inner = draw(config, chunk_size)
        return lambda start, rng, out, scratch: inner(
            start, np.random.Generator(np.random.PCG64(start)), out, scratch)

    monkeypatch.setattr(simulate_module, "_marginal_draw", another_stream)
    got = _assert_analyzes_as_unbound(monkeypatch, capsys, csv, unbound, reads=(1, 1))
    assert got[0] == 0


def test_the_digests_hash_the_config_as_stored(tmp_path, monkeypatch, capsys):
    """Both digests take the canonical JSON of the sidecar file's own config object,
    not of the config read from it and written again: a sidecar that stores float
    fields as integers, which read as the same config but write back as 0.0, with
    its digests taken over that stored form and its chunk size, is redrawn, not read
    in full."""
    csv, unbound = _bound_and_unbound(tmp_path, replace(REFERENCE, schedule=_ramp(60_000)))
    sidecar = csv.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    config = meta["config"]
    config["theta"], config["schedule"]["phi_start"] = 0, 0
    config["detector"]["electronic_noise_var"] = 0
    stored = _canonical({"chunk_size": meta["chunk_size"], "config": config})
    read_back = Sidecar.from_dict(meta).config
    assert read_back == RunConfig.from_dict(read_metadata(unbound)["config"])
    assert _canonical(read_back.to_dict()) != stored
    values = sample_pulses(read_back).value.astype("<f8").tobytes()
    meta["records_sha256"] = _sha256(stored + csv.read_bytes())
    meta["values_sha256"] = _sha256(stored + values)
    sidecar.write_text(json.dumps(meta))
    got = _assert_analyzes_as_unbound(monkeypatch, capsys, csv, unbound)
    assert got[0] == 0


def _digit_changed(csv, meta):
    """The last digit of line 1001's value one up (mod 10)."""
    lines = csv.read_bytes().splitlines(keepends=True)
    digit = lines[1000][-2] - ord("0")
    lines[1000] = lines[1000][:-2] + str((digit + 1) % 10).encode() + b"\n"
    csv.write_bytes(b"".join(lines))


def _value_not_a_number(csv, meta):
    lines = csv.read_bytes().splitlines(keepends=True)
    lines[1000] = lines[1000].rsplit(b",", 1)[0] + b",0.5x\n"
    csv.write_bytes(b"".join(lines))


def _crlf(csv, meta):
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))


def _phi_end_one_ulp_up(csv, meta):
    schedule = meta["config"]["schedule"]
    schedule["phi_end"] = math.nextafter(schedule["phi_end"], math.inf)
    # the edited schedule's own columns differ, so a redraw would move the report
    written = simulate_module._block_columns(_ramp(60_000), 2500)
    edited = simulate_module._block_columns(from_dict(PhaseSchedule, schedule), 2500)
    assert written.tobytes() != edited.tobytes()


def _eta_transmission_changed(csv, meta):
    meta["config"]["detector"]["eta_transmission"] = 0.9


@pytest.mark.parametrize("edit", [
    _digit_changed, _value_not_a_number, _crlf, _phi_end_one_ulp_up, _eta_transmission_changed,
])
def test_an_edited_bound_record_is_refused(tmp_path, monkeypatch, capsys, edit):
    """A record whose bytes or sidecar config were edited after simulate wrote
    them, a CRLF copy included, does not give records_sha256, so analyze hashes it
    once, then exits 2 naming records_sha256, with no full read, no redraw and no
    report."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(60_000)), tmp_path / "pulses.csv")
    meta = json.loads(csv.with_suffix(".json").read_text())
    edit(csv, meta)
    csv.with_suffix(".json").write_text(json.dumps(meta))
    code, out, err, report, full_reads, redraws = _analyze_counting_reads(monkeypatch, capsys, csv)
    assert code == EXIT_INVALID_INPUT and "records_sha256" in err, (code, err)
    assert (out, report, full_reads, redraws) == ("", None, 0, 0)


def test_a_version_4_sidecar_reads_the_record_in_full(tmp_path, monkeypatch, capsys):
    """Sidecars of versions 1 to 4 carry no digest: the record next to one is
    read in full, and gives the report of the redraw."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(60_000)), tmp_path / "pulses.csv")
    redrawn = _analyze_counting_reads(monkeypatch, capsys, csv)
    _unbind(csv)
    in_full = _analyze_counting_reads(monkeypatch, capsys, csv)
    assert redrawn[0] == 0 and redrawn[4:] == (0, 1) and in_full[4:] == (1, 0)
    assert redrawn[:4] == in_full[:4]


def test_a_version_5_sidecar_reads_the_record_in_full(tmp_path, monkeypatch, capsys):
    """A version 5 sidecar binds the CSV's bytes, after its config alone, but not its
    values, so the record next to one is read in full, once, with no redraw, and
    gives the report of the redraw."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(60_000)), tmp_path / "pulses.csv")
    redrawn = _analyze_counting_reads(monkeypatch, capsys, csv)
    sidecar = csv.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    del meta["values_sha256"]
    meta["records_sha256"] = _sha256(_canonical(meta["config"]) + csv.read_bytes())
    sidecar.write_text(json.dumps({**meta, "format_version": 5}, indent=2) + "\n")
    assert Sidecar.from_dict(read_metadata(csv)).records_sha256 == meta["records_sha256"]
    in_full = _analyze_counting_reads(monkeypatch, capsys, csv)
    assert redrawn[0] == 0 and redrawn[4:] == (0, 1) and in_full[4:] == (1, 0)
    assert redrawn[:4] == in_full[:4]


@pytest.mark.parametrize("chunk_size", [4, 64, 65535])
def test_an_edited_chunk_size_is_refused_before_any_redraw(
    tmp_path, monkeypatch, capsys, chunk_size
):
    """Both digests bind the sidecar's chunk_size: edited after simulate wrote the
    record, it does not give records_sha256, so analyze hashes the record once, then
    exits 2 naming records_sha256, with no redraw in chunks of the edited size, no
    full read and no report."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(60_000)), tmp_path / "pulses.csv")
    meta = json.loads(csv.with_suffix(".json").read_text())
    csv.with_suffix(".json").write_text(json.dumps({**meta, "chunk_size": chunk_size}))
    code, out, err, report, full_reads, redraws = _analyze_counting_reads(monkeypatch, capsys, csv)
    assert code == EXIT_INVALID_INPUT and "records_sha256" in err, (code, err)
    assert (out, report, full_reads, redraws) == ("", None, 0, 0)


def test_a_version_6_sidecar_still_binds_its_record(tmp_path, monkeypatch, capsys):
    """The version 6 sidecar of RAMP_40K, which carries lo_photons_per_pulse and whose
    digests take its config alone, still binds the record write_records writes now:
    next to it the record is redrawn, not read, and analyzes as next to its version 7
    sidecar, byte for byte."""
    csv = write_records(RAMP_40K, tmp_path / "pulses.csv")
    current = _analyze_counting_reads(monkeypatch, capsys, csv)
    csv.with_suffix(".json").write_text(RAMP_40K_VERSION_6_SIDECAR)
    assert Sidecar.from_dict(read_metadata(csv)).config == RAMP_40K
    old = _analyze_counting_reads(monkeypatch, capsys, csv)
    assert old[0] == current[0] == 0 and old[4:] == current[4:] == (0, 1)
    assert old[:4] == current[:4]


_ODD_FIELDS = [
    "1_0", "١", "\xa01\xa0", "\x1c1\x1c", "\x0b1\x0b", "\t1 ", " 1", "1\x85",
    "1e400", "-1e400", "1e-400", "Infinity", "-inf", "nan", "NaN", "0x10", "1e", "e5", ".",
    "--1", "1..2", "+.5", "5.e3", "", "1e0", "1E+0", "01", "-0", "1 0", "1.0000000000000001",
]


@pytest.mark.parametrize("column", ["index", "phase", "value"])
@pytest.mark.parametrize("text", _ODD_FIELDS, ids=ascii)
def test_an_odd_field_is_read_as_loadtxt_reads_it_or_names_its_line(tmp_path, text, column):
    """One grammar: an odd field gives np.loadtxt's value bit for bit where
    np.loadtxt reads it and read_records' checks pass, and one error naming its
    line otherwise (a rejection, a non-finite value or an index out of sequence)."""
    row = ["1", "0.5", "-0.25"]
    row[["index", "phase", "value"].index(column)] = text
    path = tmp_path / "odd.csv"
    path.write_text(f"{_HEADER}\n0,1.5,2.5\n{','.join(row)}\n2,3.5,4.5\n", encoding="utf-8")
    try:
        _loadtxt_columns(path)
    except ValueError:
        reason = "non-numeric field"
    else:
        values = [float(field.strip()) for field in row]  # as np.loadtxt read them
        if not np.isfinite(values).all():
            reason = "non-finite field"
        elif values[0] != 1:
            reason = "expected index 1,"
        else:
            _assert_reads_as_loadtxt(path)
            return
    with pytest.raises(ValueError, match=rf"^odd\.csv line 3: {reason} "):
        read_records(path)
