"""Block-level surrogate of the scan loop: block variances drawn from their law, no pulses.

``stream_scans`` stands in for ``cvpulse.analysis._stream_scans`` (wrap it in with
``monkeypatch.setattr(analysis, "_stream_scans", stream_scans)``, as the fault
ledger wraps the real loop).  The sample variance s^2 of n Gaussian pulses of one
variance mu is mu chi^2_{n-1} / (n - 1), a Gamma draw of shape (n - 1) / 2 and mean
mu.  Each block's mu is the exact mean of its pulses' variances, a + b C + c S plus
the electronic noise, from ``simulate._fringe`` and the block's columns
``simulate._block_columns``; a blocked arm leaves no fringe, so that scan's mu is
constant.  On a ramp the pulse variances differ slightly within a block, which makes
var(s^2) larger than the Gamma's by the Welch-Satterthwaite factor that
:func:`variance_factor` gives; the surrogate leaves it out.

It cannot see a fault of the sampler, correlated or non-Gaussian pulses, or anything
of the record route: those stay on the real sampler.  Importable both under pytest
and when a test file runs as a script, since either way this directory is on
``sys.path``.
"""

import numpy as np

from cvpulse.simulate import DEFAULT_CHUNK_SIZE, RunConfig, _block_columns, _fringe


def block_means(config: RunConfig, block_size: int) -> np.ndarray:
    """Expected s^2 of every complete block: the mean of its pulses' variances."""
    a, b, c = _fringe(config, config.theta)
    columns = _block_columns(config.schedule, block_size)
    return a + config.detector.electronic_noise_var + b * columns[:, 0] + c * columns[:, 1]


def block_variances(config: RunConfig, block_size: int) -> np.ndarray:
    """One Gamma draw per complete block, seeded from ``SeedSequence(config.seed)``."""
    means = block_means(config, block_size)
    shape = (block_size - 1) / 2.0
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(config.seed)))
    return rng.gamma(shape, means / shape)


def stream_scans(configs, block_size: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """The block variances of every config, in order, as ``_stream_scans`` returns them."""
    return [block_variances(config, block_size) for config in configs]


def variance_factor(config: RunConfig, block_size: int) -> np.ndarray:
    """var(s^2) of each block over 2 mu^2 / (n - 1), the Gamma's, for independent
    Gaussian pulses of variances v_i and mean mu: ((n - 2) mean(v^2) + mu^2) /
    ((n - 1) mu^2), which is 1 where every v_i is mu."""
    a, b, c = _fringe(config, config.theta)
    a += config.detector.electronic_noise_var
    n_blocks = len(_block_columns(config.schedule, block_size))
    two_phi = 2.0 * config.schedule.values(0, n_blocks * block_size).reshape(n_blocks, -1)
    v = a + b * np.cos(two_phi) + c * np.sin(two_phi)
    mu, mean_square = v.mean(axis=1), (v * v).mean(axis=1)
    return ((block_size - 2) * mean_square + mu * mu) / ((block_size - 1) * mu * mu)
