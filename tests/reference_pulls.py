"""Duan-Simon pulls of the reference source over seeds 0-299 at 10^5 pulses per scan,
drawn once per scan loop in a test run and shared by the tests that read them: the
fault ledger's item 2 row, and the surrogate's check against the real sampler."""

import functools
from dataclasses import replace
from unittest import mock

import numpy as np

import cvpulse.analysis as analysis
from cvpulse.analysis import end_to_end_report
from cvpulse.scenario import reference_scenario

REFERENCE = reference_scenario().config
REFERENCE_DUAN_SIMON = 1.12  # 2 (v - k) of the reference source, symmetric_mixed(1.50, 0.94)


@functools.cache
def pulls(stream_scans):
    """(DS - 1.12) / duan_simon_stderr of each report, with ``stream_scans`` as the
    scan loop, and the (config, block variances) of every scan the reports drew."""
    drawn = []

    def record(configs, block_size, *args):
        variances = stream_scans(configs, block_size, *args)
        drawn.extend(zip(configs, variances))
        return variances

    values = []
    with mock.patch.object(analysis, "_stream_scans", record):
        for seed in range(300):
            report = end_to_end_report(replace(REFERENCE, seed=seed), 100_000)
            values.append((report.duan_simon - REFERENCE_DUAN_SIMON) / report.duan_simon_stderr)
    values = np.array(values)
    values.flags.writeable = False  # shared by every caller
    return values, tuple(drawn)
