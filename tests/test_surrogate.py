"""The block-level surrogate sampler (``tests/surrogate.py``) against the real scan loop."""

import math
from dataclasses import replace

import numpy as np

import cvpulse.analysis as analysis
from cvpulse.analysis import end_to_end_report
from cvpulse.scenario import reference_scenario
from cvpulse.simulate import DEFAULT_BLOCK_SIZE, PhaseSchedule, _stream_scans
import surrogate

REFERENCE = reference_scenario().config
REFERENCE_DUAN_SIMON = 1.12  # 2 (v - k) of the reference source, symmetric_mixed(1.50, 0.94)


def _recording(stream_scans, drawn):
    """``stream_scans``, also filing each (config, block variances) in ``drawn``."""

    def record(configs, block_size, *args):
        variances = stream_scans(configs, block_size, *args)
        drawn.extend(zip(configs, variances))
        return variances

    return record


def _pulls(monkeypatch, stream_scans, drawn):
    """(DS - 1.12) / duan_simon_stderr over seeds 0-299 at 10^5 pulses per scan, as the
    fault ledger's item 2 row takes them, with ``stream_scans`` as the scan loop."""
    monkeypatch.setattr(analysis, "_stream_scans", _recording(stream_scans, drawn))
    pulls = []
    for seed in range(300):
        report = end_to_end_report(replace(REFERENCE, seed=seed), 100_000)
        pulls.append((report.duan_simon - REFERENCE_DUAN_SIMON) / report.duan_simon_stderr)
    return np.array(pulls)


def _normalized(drawn, blocked_arm):
    """s^2 / mu of every block of the drawn scans at theta 0 with ``blocked_arm``."""
    return np.concatenate([
        variances / surrogate.block_means(config, DEFAULT_BLOCK_SIZE)
        for config, variances in drawn
        if config.theta == 0.0 and config.blocked_arm == blocked_arm
    ])


def _variance_and_se(x):
    """The sample variance of ``x`` and its standard error, from the fourth moment."""
    deviations = x - x.mean()
    variance = float(np.mean(deviations**2))
    return variance, math.sqrt((np.mean(deviations**4) - variance**2) / len(x))


def _assert_same_law(real, fake, factor):
    """Equal means within 3 SE, and var(real) = ``factor`` var(fake) within 3 SE."""
    se = math.hypot(real.std() / math.sqrt(len(real)), fake.std() / math.sqrt(len(fake)))
    assert abs(real.mean() - fake.mean()) <= 3.0 * se, (real.mean(), fake.mean(), se)
    (v_real, se_real), (v_fake, se_fake) = _variance_and_se(real), _variance_and_se(fake)
    se = math.hypot(se_real, factor * se_fake)
    assert abs(v_real - factor * v_fake) <= 3.0 * se, (v_real, v_fake, factor, se)


def _scans(pulses, seeds):
    """A recombined ramp scan at theta 0 and a blocked-arm scan per seed, each of its own
    stream, over the 4 pi ramp end_to_end_report draws."""
    ramp = PhaseSchedule.linear_ramp(0.0, 4.0 * math.pi, pulses)
    return [replace(REFERENCE, schedule=ramp, blocked_arm=arm, seed=seed + offset)
            for seed in seeds for arm, offset in (("none", 0), ("b", 10**6))]


def test_the_surrogate_draws_the_block_variances_and_pulls_of_the_real_sampler(monkeypatch):
    """At 10^5 pulses per scan (the 300 reports of the ledger's pull row, 12,000 blocks
    of each kind) and at 10^6 (5 seeds, 2,000 blocks of each kind), the ramp scan's and
    the blocked scan's s^2 / mu have the real sampler's mean, and its variance over the
    Welch-Satterthwaite factor, each within 3 SE.  That factor, var(s^2) of pulses whose
    variances differ within a block over the Gamma's, is what the surrogate leaves out:
    it averages 1.0045 (at most 1.0092) on the 10^5 ramp, 1.000045 on the 10^6 ramp and
    1 on a blocked arm, so it is held below 1.005.  The Duan-Simon pulls of the two
    samplers over seeds 0-299 agree in mean and in sd within 3 SE."""
    drawn_real, drawn_fake = [], []
    real = _pulls(monkeypatch, _stream_scans, drawn_real)
    fake = _pulls(monkeypatch, surrogate.stream_scans, drawn_fake)
    se_mean = math.hypot(real.std(ddof=1), fake.std(ddof=1)) / math.sqrt(len(real))
    assert abs(real.mean() - fake.mean()) <= 3.0 * se_mean, (real.mean(), fake.mean())
    se_sd = math.hypot(real.std(ddof=1), fake.std(ddof=1)) / math.sqrt(2 * (len(real) - 1))
    assert abs(real.std(ddof=1) - fake.std(ddof=1)) <= 3.0 * se_sd, (real.std(), fake.std())

    configs = _scans(1_000_000, range(5))
    drawn = {100_000: (drawn_real, drawn_fake), 1_000_000: (
        list(zip(configs, _stream_scans(configs, DEFAULT_BLOCK_SIZE))),
        list(zip(configs, surrogate.stream_scans(configs, DEFAULT_BLOCK_SIZE))),
    )}
    for pulses, (drawn_real, drawn_fake) in drawn.items():
        for arm in ("none", "b"):
            config = next(c for c, _ in drawn_real if c.theta == 0.0 and c.blocked_arm == arm)
            factor = surrogate.variance_factor(config, DEFAULT_BLOCK_SIZE).mean()
            assert 1.0 <= factor < 1.005, (pulses, arm, factor)
            _assert_same_law(_normalized(drawn_real, arm), _normalized(drawn_fake, arm), factor)
