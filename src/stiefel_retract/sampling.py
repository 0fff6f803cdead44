"""Seeded random inputs for tests, the self-test suite and CLI generation.

Generated matrices have entries uniform in [-1, 1] and are resampled when
validation rejects them; the resample count is returned so tools can report
it. Condition-targeted families are built from prescribed singular spectra.
"""

from __future__ import annotations

import numpy as np

from .core import InjectiveMap, as_integer, as_real_scalar, validate_injective
from .errors import DomainError, RankDeficientError, StiefelRetractError

#: Draws tried by :func:`generate_injective` before it gives up.
MAX_TRIES = 1000


def generate_injective(
    rng: np.random.Generator,
    m: int,
    d: int,
    max_condition: float | None = None,
) -> tuple[InjectiveMap, int]:
    """Draw a validated m x d map with uniform [-1, 1] entries.

    Returns ``(map, resamples)``. ``max_condition`` optionally rejects draws
    with a larger condition estimate.
    """
    m, d = as_integer(m, "m"), as_integer(d, "d")
    resamples = 0
    for _ in range(MAX_TRIES):
        raw = rng.uniform(-1.0, 1.0, size=(m, d))
        try:
            alpha = validate_injective(raw)
        except RankDeficientError:
            resamples += 1
            continue
        if max_condition is not None and alpha.condition_estimate > max_condition:
            resamples += 1
            continue
        return alpha, resamples
    raise StiefelRetractError(
        f"could not generate a valid {m}x{d} matrix in {MAX_TRIES} tries"
    )


def random_dims(rng: np.random.Generator, max_m: int) -> tuple[int, int]:
    max_m = as_integer(max_m, "max_m")
    m = int(rng.integers(1, max_m + 1))
    d = int(rng.integers(1, m + 1))
    return m, d


def conditioned_injective(
    rng: np.random.Generator, m: int, d: int, condition: float
) -> InjectiveMap:
    """A validated m x d map with singular values log-spaced so the condition
    number is close to ``condition``.

    Orthogonal factors come from LAPACK QR of Gaussian draws, independent of
    this package's own sweep, so tests that target a conditioning regime do
    not depend on the code under test.
    """
    m, d = as_integer(m, "m"), as_integer(d, "d")
    condition = as_real_scalar(condition, "condition")
    if not condition >= 1.0:
        raise DomainError(f"condition must be >= 1, got {condition}")
    u, _ = np.linalg.qr(rng.standard_normal((m, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = np.logspace(0.0, -np.log10(condition), num=d)
    return validate_injective(u @ (sigma[:, None] * v.T))
