"""The chunk loop: pinned record streams, streamed blocking, O(chunk) memory."""

import hashlib
import itertools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

import cvpulse.records as records
import cvpulse.simulate as simulate_module
from cvpulse.analysis import end_to_end_report
from cvpulse.cli import main
from cvpulse.gaussian import SourceSpec
from cvpulse.scenario import reference_scenario
from cvpulse.schema import from_dict
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
# under format version 3.  The lo_phase digests are those of versions 1 and 2:
# version 3 changed only the normals each chunk draws (SFC64, not PCG64).
PINNED_STREAMS = {
    "ramp_partial_chunk": (
        sample_pulses, REFERENCE, 65536,
        "d9afed25160fe4d243438d98390772cb1ea3eb80dcbfd7dba5e6f5f7bcf422b6",
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
        "d18e5ac988c199697d1553c8093f809d00f29253518f63852c5b9250ebb42b2d",
        "d4f5c2326033145fc46be355126d38c49d9a16da1761a189d23138fbda852310",
    ),
    "chunk_128": (
        sample_pulses, replace(REFERENCE, schedule=_ramp(1000), seed=5), 128,
        "1808793fc2f57ff2d9229376af8d9e4893f3dbd8d8ea0d2b05587510d86fc822",
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

# (config, SHA-256 of the sidecar JSON bytes written by format version 3)
PINNED_SIDECARS = {
    "reference": (
        reference_scenario(n_pulses=1000, seed=12345).config,
        "71edd594ae0c9464132011720c4090c90a3bfba0a1283f3e59746eebaab23845",
    ),
    "pure_nopa_constant": (
        PURE_NOPA_CONSTANT,
        "a3db8d36cdb2a656b295edbf7d77a3b37064824a9b2e6f0006b0af953207bb10",
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


@pytest.mark.parametrize("case", sorted(PINNED_SIDECARS))
def test_sidecar_bytes_are_pinned(case, tmp_path):
    config, digest = PINNED_SIDECARS[case]
    csv = write_records(config, tmp_path / "r.csv")
    sidecar = csv.with_suffix(".json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == digest
    assert Sidecar.from_dict(json.loads(sidecar)).format_version == FORMAT_VERSION == 3


def test_pinned_sidecar_decodes_to_its_config():
    text = PURE_NOPA_CONSTANT_SIDECAR
    assert hashlib.sha256(text.encode()).hexdigest() == PURE_NOPA_CONSTANT_SIDECAR_DIGEST
    meta = Sidecar.from_dict(json.loads(text))
    assert meta.format_version == 1
    assert meta.config == PURE_NOPA_CONSTANT
    assert RunConfig.from_dict(json.loads(text)["config"]) == PURE_NOPA_CONSTANT
    # the codec itself stays strict: only Sidecar.from_dict supplies version 1
    with pytest.raises(ValueError, match="missing key 'format_version'"):
        from_dict(Sidecar, json.loads(text))


def test_version_1_sidecar_still_analyzes(tmp_path, capsys):
    """analyze needs only the config and pulse count of a sidecar, which
    version 1 shares; the pinned sidecar's count and blocked arm are set to
    the CSV's (analyze refuses a blocked-arm record)."""
    ramp = replace(REFERENCE, schedule=_ramp(50_000))
    csv = write_records(ramp, tmp_path / "r.csv")
    meta = {**json.loads(PURE_NOPA_CONSTANT_SIDECAR), "n_pulses": 50_000}
    meta["config"]["blocked_arm"] = ramp.blocked_arm
    csv.with_suffix(".json").write_text(json.dumps(meta))
    assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["efficiency_used"] == PURE_NOPA_CONSTANT.detector.efficiency


def test_version_2_sidecar_still_analyzes(tmp_path, capsys):
    """Records of contract 2 differ only in their normals, which analyze reads
    from the CSV: a sidecar that says version 2 analyzes as version 3 does."""
    csv = write_records(replace(REFERENCE, schedule=_ramp(50_000)), tmp_path / "r.csv")
    assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
    as_version_3 = capsys.readouterr().out
    meta = json.loads(csv.with_suffix(".json").read_text())
    assert meta["format_version"] == 3
    csv.with_suffix(".json").write_text(json.dumps({**meta, "format_version": 2}))
    assert main(["analyze", str(csv), "--out", str(tmp_path), "--json"]) == 0
    assert capsys.readouterr().out == as_version_3


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


# SHA-256 of two reports' JSON under format version 3: reordering a single
# floating-point operation in the sampler, the fit, the correction or the
# reconstruction changes them
PINNED_ANALYZE_STDOUT = "7211597f62866d5f61faf2a941a1eec44073a905da34c7cd1b60d21ae76b1533"
PINNED_END_TO_END_REPORT = "5c66c0875dd7db79739f05b30d563c6c3d9c6337319105650e76fd84c5411c3c"


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
    """The three scans share one ramp: the two fringe scans one table, all three
    one set of block columns; the blocked-arm scan needs no table."""
    simulate_module._fringe_tables.cache_clear()
    simulate_module._block_columns.cache_clear()
    end_to_end_report(reference_scenario().config, 50_000)
    tables = simulate_module._fringe_tables.cache_info()
    columns = simulate_module._block_columns.cache_info()
    assert (tables.misses, tables.hits) == (1, 1)
    assert (columns.misses, columns.hits) == (1, 2)


PHYSICS_SOURCES = {
    "pure_nopa": SourceSpec.pure_nopa(0.472),
    "mixed": SourceSpec.symmetric_mixed(1.5, 0.94),
}
PHYSICS_THETAS = (0.0, -0.0, 0.7, math.pi)
BLOCKED_ARMS = ("none", "a", "b", "signal")


def _physics_outputs(config, before_each_call=lambda: None):
    """Bytes of every output that reads the physics memo, for one config."""
    calls = (
        lambda: [detected_covariance(config)],
        lambda: theta_scan(config, (config.theta,)),
        lambda: theta_scan(config, PHYSICS_THETAS),
        lambda: stream_block_variances(config, 50, chunk_size=256),
    )
    outputs = []
    for call in calls:
        before_each_call()
        outputs += [array.tobytes() for array in call()]
    return outputs


def _physics_config(**overrides):
    return replace(REFERENCE, schedule=_ramp(1000), detector=DetectorModel(), **overrides)


@pytest.mark.parametrize("kind", sorted(PHYSICS_SOURCES))
def test_physics_memo_changes_no_output_bit(kind):
    """Outputs read from the memo, filled by any of its readers, are the bits of
    outputs computed with the memo emptied before every call."""
    from cvpulse.simulate import _PHYSICS_MEMO_SIZE, _covariance_stack

    configs = [
        _physics_config(source=PHYSICS_SOURCES[kind], blocked_arm=arm, beamsplitter_r=r,
                        theta=theta)
        for arm, r, theta in itertools.product(BLOCKED_ARMS, (0.5, 0.3), PHYSICS_THETAS)
    ]
    uncached = [_physics_outputs(c, _covariance_stack.cache_clear) for c in configs]
    _covariance_stack.cache_clear()
    filling = [_physics_outputs(c) for c in configs]
    filled = _covariance_stack.cache_info()
    assert filled.currsize <= _PHYSICS_MEMO_SIZE
    cached = [_physics_outputs(c) for c in configs]
    assert _covariance_stack.cache_info().misses == filled.misses
    assert filling == uncached
    assert cached == uncached


@pytest.mark.parametrize("arm", BLOCKED_ARMS)
def test_signed_zeros_never_change_an_output_bit(arm):
    """Whichever sign of a zero theta, k or r filled the memo, the other sign
    reads the bits it gets from an empty memo."""
    from cvpulse.simulate import _covariance_stack

    pairs = [
        (_physics_config(theta=0.0), _physics_config(theta=-0.0)),
        (_physics_config(source=SourceSpec.symmetric_mixed(1.5, 0.0)),
         _physics_config(source=SourceSpec.symmetric_mixed(1.5, -0.0))),
        (_physics_config(source=SourceSpec.pure_nopa(0.0)),
         _physics_config(source=SourceSpec.pure_nopa(-0.0))),
    ]
    for first, second in pairs:
        for filler, reader in ((first, second), (second, first)):
            filler, reader = replace(filler, blocked_arm=arm), replace(reader, blocked_arm=arm)
            _covariance_stack.cache_clear()
            expected = _physics_outputs(reader)
            _covariance_stack.cache_clear()
            _physics_outputs(filler)
            assert _physics_outputs(reader) == expected


def test_two_seeds_of_a_sweep_grid_miss_once_per_distinct_key():
    """18 reports of 2x10^4 pulses, each with a 64-theta scan, for two seeds.

    A report asks for 3 keys (theta 0 and pi, and 0 with arm b) and its theta
    scan for one more, and the two noise settings share every key, so the 9
    (source, efficiency) pairs have 36 distinct keys: 36 misses in 144 lookups.
    """
    from cvpulse.simulate import _covariance_stack

    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    grid = itertools.product(
        (1, 2), ((1.5, 0.94), (1.5, 0.6), (2.0, 1.3)), (0.93, 0.85, 0.75), (0.0, 10.0**-1.1)
    )
    _covariance_stack.cache_clear()
    for seed, (v, k), transmission, noise in grid:
        config = RunConfig(
            source=SourceSpec.symmetric_mixed(v, k),
            detector=DetectorModel(eta_transmission=transmission, electronic_noise_var=noise),
            schedule=_ramp(20_000),
            seed=seed,
        )
        end_to_end_report(config, 20_000, block_size=500)
        theta_scan(config, thetas)
    info = _covariance_stack.cache_info()
    assert (info.misses, info.hits) == (36, 2 * 18 * 4 - 36)


def test_detected_covariance_is_the_callers_own():
    """Writing into the returned matrix leaves the memo, and every later output,
    as it was; the memo's own arrays refuse writes."""
    from cvpulse.simulate import _detected_covariances

    config = _physics_config(theta=0.7)
    expected = _physics_outputs(config)
    detected_covariance(config)[:] = -1.0
    assert _physics_outputs(config) == expected
    stack = _detected_covariances(config, config.theta)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 0.0


def test_streamed_blocking_rejects_what_block_variance_trace_rejects():
    short = replace(REFERENCE, schedule=_ramp(2499))
    with pytest.raises(ValueError, match="full block of 2500 pulses, got 2499"):
        stream_block_variances(short, 2500)
    with pytest.raises(ValueError, match="block size"):
        stream_block_variances(REFERENCE, 1)
    with pytest.raises(ValueError, match="chunk size"):
        stream_block_variances(REFERENCE, 2500, chunk_size=0)


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
    for (columns, blocks), (want_columns, want_blocks) in zip(drawn, expected):
        assert columns.tobytes() == want_columns.tobytes()
        assert blocks.tobytes() == want_blocks.tobytes()


@pytest.mark.parametrize("block", [2, 7, 2500, 70_000])
def test_stitch_takes_the_pieces_of_a_scan_in_any_order(block):
    """A scan's chunk splits fed to the stitch in shuffled orders give the
    blocks of the whole train bit for bit: blocks of the minimum size, blocks
    that straddle chunks, blocks longer than a chunk, and a trailing partial
    block, dropped whenever its pieces arrive."""
    chunk = 10_000
    config = replace(REFERENCE, schedule=_ramp(197_843))  # no multiple of any block here
    expected = block_variance_trace(sample_pulses(config, chunk_size=chunk), block)[1]
    values = sample_pulses(config, chunk_size=chunk).value
    pieces = [
        (start, simulate_module._split(
            values[start : start + chunk], start, block, simulate_module._reduce_blocks))
        for start in range(0, len(values), chunk)
    ]
    orders = [range(len(pieces)), range(len(pieces) - 1, -1, -1)]
    orders += [np.random.default_rng(seed).permutation(len(pieces)) for seed in range(3)]
    for order in orders:
        stitch = simulate_module._Stitch(block, simulate_module._reduce_blocks)
        for i in order:
            start, piece = pieces[i]
            stitch.add(start, *piece)
        assert stitch.blocks().tobytes() == expected.tobytes()


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
    monkeypatch.setattr(records, "_rows", lambda first, phases, values: "")
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
        got = records._rows(first, phases[rows], values[rows])
        expected = "".join(
            "%d,%.17g,%.17g\n" % row
            for row in zip(itertools.count(first), phases[rows].tolist(), values[rows].tolist())
        )
        if got != expected:
            line = next(i for i, (g, e) in enumerate(zip(got.splitlines(), expected.splitlines()))
                        if g != e)
            pytest.fail(f"row {first + line}: {got.splitlines()[line]!r} "
                        f"!= {expected.splitlines()[line]!r}")


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
    full (too many digits for the fast path)."""
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
    np.savetxt writes), never declining one it parses; on decimals next to
    midpoints of neighbouring doubles, declining some; on powers of two with
    their neighbours, -0 and exponent notation; and on lines only np.loadtxt
    reads, in blocks whose boundaries fall inside rows."""
    declined = []
    decimal_value = records._decimal_value

    def counting(digits, places):
        value, exact = decimal_value(digits, places)
        declined.append(np.count_nonzero(~exact))
        return value, exact

    monkeypatch.setattr(records, "_decimal_value", counting)
    cases = _format_cases()
    fixed = (np.abs(cases) >= 1e-4) & (np.abs(cases) < 1e8) | (cases == 0)
    cases = np.concatenate([cases[fixed], cases[~fixed & np.isfinite(cases)]])  # fast rows first
    phases, values = cases[0::2][: cases.size // 2], cases[1::2][: cases.size // 2]
    rows_path = tmp_path / "rows.csv"
    with open(rows_path, "w") as fh:
        fh.write("index,lo_phase_rad,value\n")
        for first in range(0, len(values), records._FORMAT_BATCH):
            batch = slice(first, first + records._FORMAT_BATCH)
            fh.write(records._rows(first, phases[batch], values[batch]))
    _assert_reads_as_loadtxt(rows_path)
    assert sum(declined) == 0
    ties_path = tmp_path / "ties.csv"
    _write_lines(ties_path, _near_ties())
    _assert_reads_as_loadtxt(ties_path)
    assert sum(declined) > 0

    powers = np.ldexp(1.0, np.arange(-60, 27))
    twos = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    texts = [
        f"{sign}{x:.{digits}g}" for x in twos.tolist() for digits in (16, 17, 18, 19)
        for sign in ("", "-")
    ] + ["-0", "-0.0", "0", "0.0", "00.5", "-00", "1e-05", "5.0265482457436693e-05",
         "-1.2345678901234567e-07", "1E+3", "+1.5", " 2.5", "3.5 ", ".5", "5."]
    lines = [f"{i},{t},{texts[-1 - i]}\n" for i, t in enumerate(texts)]
    odd = {  # lines np.loadtxt reads that the fast path leaves to it
        5: "5,1.0,2.0\r\n", 9: "9,1.0,2.0 # comment\n", 12: "+12,1,2\n", 14: "014,1,2\n",
        20: " 20 , 0.25 , -0.5 \n", 21: "21,1,2\r",
    }
    for i, line in odd.items():
        lines[i] = line
    lines[30:30] = ["\n", "# a comment line\n"]
    path = tmp_path / "mixed.csv"
    path.write_text("index,lo_phase_rad,value\n" + "".join(lines).rstrip("\n"), newline="")
    assert records._READ_BLOCK < rows_path.stat().st_size
    for block in (1, 61, 1000, records._READ_BLOCK):
        monkeypatch.setattr(records, "_READ_BLOCK", block)
        _assert_reads_as_loadtxt(path)


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


def test_analyze_memory_does_not_grow_with_pulses(tmp_path, capsys):
    """analyze peaks at the same traced memory for 2.5x10^5 and 10^6 pulses:
    each block of lines is split and stitched as it is read, and no train
    of the records is ever held."""
    runs = []
    for n in (250_000, 1_000_000):
        out = tmp_path / f"r{n}"
        out.mkdir()
        write_records(replace(REFERENCE, schedule=_ramp(n)), out / "pulses.csv")
        runs.append(["analyze", str(out / "pulses.csv"), "--out", str(out)])
    assert main(runs[0]) == 0  # imports the record format and builds the parser first
    peaks = []
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """(path, read_records of it) of a written file of 80,001 pulses, of its
    CR-only and CRLF copies, and of a copy with a comment line, an empty
    line and a '%.17e' row, lines the fast path leaves to records._fields."""
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
    """analyze's route, each block of lines split and stitched as it is read,
    gives the block columns, block variances and record count of the whole
    train bit for bit: blocks of the minimum size, blocks that straddle read
    blocks, a block longer than a 128 kB read block and a trailing partial
    block, on LF, CR-only and CRLF files and on lines the fast path declines."""
    for path, train in record_files:
        columns, variances, rows = simulate_module._read_blocks(path, block)
        want_columns, want_variances = block_variance_trace(train, block)
        assert rows == len(train) == 80_001
        assert columns.tobytes() == want_columns.tobytes()
        assert variances.tobytes() == want_variances.tobytes()


_ODD_FIELDS = [
    "1_0", "١", "\xa01\xa0", "\x1c1\x1c", "\x0b1\x0b", "\t1 ", " 1", "1\x85",
    "1e400", "-1e400", "1e-400", "Infinity", "-inf", "nan", "NaN", "0x10", "1e", "e5", ".",
    "--1", "1..2", "+.5", "5.e3", "", "1e0", "1E+0", "01", "-0", "1 0", "1.0000000000000001",
]


@pytest.mark.parametrize("column", ["index", "phase", "value"])
@pytest.mark.parametrize("text", _ODD_FIELDS, ids=ascii)
def test_an_odd_field_is_read_as_loadtxt_reads_it_or_names_its_line(tmp_path, text, column):
    """One grammar: an odd field, most of which the fast path declines, gives
    np.loadtxt's value bit for bit where np.loadtxt reads it and read_records'
    checks pass, and one error naming its line otherwise (a rejection, a
    non-finite value or an index out of sequence)."""
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
