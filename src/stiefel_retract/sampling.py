"""Seeded random inputs for tests, the self-test suite and CLI generation.

Generated matrices have entries uniform in [-1, 1] and are resampled when
validation rejects them; the resample count is returned so tools can report
it. Condition-targeted families take their rank verdict and condition
estimate from the singular spectra they are built from.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_ENTRIES, InjectiveMap, as_integer, as_matrix, as_real_scalar, rank_ratio, validate_injective
from .errors import DimensionError, DomainError, RankDeficientError, StiefelRetractError

#: Draws tried by :func:`generate_injective` before it gives up.
MAX_TRIES = 1000


def _injective_shape(m: int, d: int) -> tuple[int, int]:
    m, d = as_integer(m, "m"), as_integer(d, "d")
    if not 0 < d <= m:
        raise DimensionError(f"need 0 < d <= m for an injective map, got {m}x{d}")
    if m * d > MAX_ENTRIES:
        raise DimensionError(f"a {m}x{d} map has more than {MAX_ENTRIES} entries")
    return m, d


def generate_injective(
    rng: np.random.Generator,
    m: int,
    d: int,
    max_condition: float | None = None,
) -> tuple[InjectiveMap, int]:
    """Draw a validated m x d map with uniform [-1, 1] entries.

    Returns ``(map, resamples)``; a draw is kept if it validates and, when
    given, ``max_condition`` bounds its condition estimate. A shape outside
    0 < d <= m, or a ``max_condition`` that is not a real number >= 1 (no
    estimate is below 1), raises a library error before any draw.
    """
    m, d = _injective_shape(m, d)
    bound = np.inf if max_condition is None else as_real_scalar(max_condition, "max_condition")
    if not bound >= 1.0:
        raise DomainError(f"max_condition must be at least 1, got {max_condition}")
    for resamples in range(MAX_TRIES):
        raw = rng.uniform(-1.0, 1.0, size=(m, d))
        try:
            alpha = validate_injective(raw)
        except RankDeficientError:
            continue
        if alpha.condition_estimate <= bound:
            return alpha, resamples
    raise StiefelRetractError(
        f"could not generate a valid {m}x{d} matrix in {MAX_TRIES} tries"
    )


def random_dims(rng: np.random.Generator, max_m: int) -> tuple[int, int]:
    max_m = as_integer(max_m, "max_m")
    if max_m < 1:
        raise DomainError(f"max_m must be positive, got {max_m}")
    if max_m > MAX_ENTRIES:
        raise DomainError(f"max_m must be at most {MAX_ENTRIES}, got {max_m}")
    m = int(rng.integers(1, max_m + 1))
    d = int(rng.integers(1, m + 1))
    return m, d


def conditioned_injective(
    rng: np.random.Generator, m: int, d: int, condition: float
) -> InjectiveMap:
    """A validated m x d map ``U diag(sigma) V^T``, ``sigma`` log-spaced from
    1 down to ``1 / condition``. Its rank verdict and ``condition_estimate``
    come from ``sigma`` through ``rank_ratio``, within about eps * condition
    of the SVD of the product. U and V come from LAPACK QR of Gaussian draws,
    so the map does not depend on this package's own sweep. A shape outside
    0 < d <= m raises ``DimensionError`` before any draw.
    """
    m, d = _injective_shape(m, d)
    condition = as_real_scalar(condition, "condition")
    if not 1.0 <= condition < np.inf:
        raise DomainError(f"condition must be finite and >= 1, got {condition}")
    u, _ = np.linalg.qr(rng.standard_normal((m, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = np.logspace(0.0, -np.log10(condition), num=d)
    a = as_matrix(u @ (sigma[:, None] * v.T))
    return InjectiveMap(matrix=a, condition_estimate=rank_ratio(*sigma[[0, -1]].tolist()))
