"""Brute-force pulse sampler, an independent cross-check of ``sample_pulses``.

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.simulate import DEFAULT_CHUNK_SIZE, PulseTrain, RunConfig, _chunks
from gaussian_reference import _input_covariance, beamsplitter, phase_rotation

# RNG stream tag of this sampler, kept apart from those of ``cvpulse.simulate``
_STREAM_JOINT = 1


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
    chunks = _chunks(config, chunk_size, _STREAM_JOINT)
    chol = np.linalg.cholesky(_input_covariance(config.source, config.blocked_arm))
    # rows producing the measured port's (X, P) from the 4 source normals
    chain = beamsplitter(config.beamsplitter_r) @ phase_rotation(config.theta, mode=1)
    port_rows = chain[:2] @ chol
    eta = config.detector.efficiency
    noise_std = math.sqrt(config.detector.electronic_noise_var)
    train = PulseTrain(lo_phase=config.schedule.values(), value=np.empty(len(config.schedule)))
    for start, stop, rng in chunks:
        m = stop - start
        phases = train.lo_phase[start:stop]
        z = rng.standard_normal((4, m))
        x_port, p_port = port_rows @ z
        projected = np.cos(phases) * x_port + np.sin(phases) * p_port
        vacuum = rng.standard_normal(m)
        electronic = rng.standard_normal(m)
        np.add(
            math.sqrt(eta) * projected + math.sqrt(1.0 - eta) * vacuum,
            noise_std * electronic,
            out=train.value[start:stop],
        )
    return train
