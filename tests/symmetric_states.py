"""Random two-mode test states, shared by the test modules.

Importable both under pytest and when a test file runs as a script, since
either way this directory is on ``sys.path``.
"""

import math

import numpy as np

from cvpulse.gaussian import Matrix, SourceSpec, source_covariance
from gaussian_reference import apply_transform, loss_channel, phase_rotation


def random_symmetric_state(
    rng: np.random.Generator,
    r_max: float = 1.5,
    eta_range: tuple[float, float] = (0.3, 1.0),
) -> Matrix:
    """Draw a random physical two-mode covariance in symmetric form.

    A pure two-mode squeezed state is dressed with equal-and-opposite phase
    rotations of the two modes (which preserve both the state and the
    symmetric form) and then degraded by a common loss channel.  Physicality
    holds by construction.
    """
    r = rng.uniform(0.0, r_max)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    eta = rng.uniform(*eta_range)
    gamma = source_covariance(SourceSpec.pure_nopa(r))
    opposite = phase_rotation(alpha, 0) @ phase_rotation(-alpha, 1)
    gamma = apply_transform(opposite, gamma)
    return loss_channel(gamma, eta)
