"""Brute-force pulse sampler, an independent cross-check of ``sample_pulses``.

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.gaussian import beamsplitter, phase_rotation
from cvpulse.simulate import (
    _STREAM_JOINT,
    DEFAULT_CHUNK_SIZE,
    PulseTrain,
    RunConfig,
    _collect,
    _input_covariance,
)


def sample_pulses_joint(
    config: RunConfig, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> PulseTrain:
    """Draw the run of ``sample_pulses(config, chunk_size)`` the long way.

    Instead of collapsing the chain to a single variance, every pulse draws
    the full four-dimensional quadrature vector of the source, pushes it
    through the phase shift and the beamsplitter explicitly, projects the
    bright port onto the LO phase, and applies loss as a literal vacuum
    admixture plus electronic noise.
    """
    return _collect(config, chunk_size, _STREAM_JOINT, _joint_draw)


def _joint_draw(config: RunConfig, chunk_size: int):
    """The per-chunk draw of :func:`sample_pulses_joint`, called as the fast one is;
    it needs no scratch."""
    chol = np.linalg.cholesky(_input_covariance(config.source, config.blocked_arm))
    # rows producing the measured port's (X, P) from the 4 source normals
    chain = beamsplitter(config.beamsplitter_r) @ phase_rotation(config.theta, mode=1)
    port_rows = chain[:2] @ chol
    eta = config.detector.efficiency
    noise_std = math.sqrt(config.detector.electronic_noise_var)

    def draw(start, rng, out, scratch):
        m = len(out)
        phases = config.schedule.values(start, start + m)
        z = rng.standard_normal((4, m))
        x_port, p_port = port_rows @ z
        projected = np.cos(phases) * x_port + np.sin(phases) * p_port
        vacuum = rng.standard_normal(m)
        electronic = rng.standard_normal(m)
        return np.add(
            math.sqrt(eta) * projected + math.sqrt(1.0 - eta) * vacuum,
            noise_std * electronic,
            out=out,
        )

    return draw
