"""Gram-Schmidt retraction onto the Stiefel manifold.

A library and CLI for orthonormalizing injective linear maps, the triangular
coefficient matrix tying input to frame, the straight-line homotopy between
them, positive-diagonal QR, and rotation-equivariance verification.
"""

from .core import (
    DEFAULT_TOL_ORTHO,
    DEFAULT_TOL_RANK,
    GUARANTEE_CONDITION,
    InjectiveMap,
    Rotation,
    StiefelFrame,
    UpperTriangularPositive,
    include_frame,
    tri_solve_inverse,
    validate_frame,
    validate_injective,
    validate_rotation,
)
from .equivariance import (
    EquivarianceReport,
    act,
    check_equivariance,
    random_rotation,
)
from .errors import (
    DimensionError,
    DomainError,
    InternalRankLossError,
    MatrixFormatError,
    NonFiniteError,
    NotOrthonormalError,
    NumericalRankLossError,
    RankDeficientError,
    StiefelRetractError,
    ZeroVectorError,
)
from .gram_schmidt import (
    GramSchmidtResult,
    coefficient_matrix,
    householder_qr_oracle,
    orthonormalize,
    qr_decompose,
    retract,
)
from .homotopy import (
    HomotopyPath,
    PathSample,
    homotopy_step,
    interpolant,
    sphere_interpolant,
    trace_path,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL_ORTHO",
    "DEFAULT_TOL_RANK",
    "GUARANTEE_CONDITION",
    "DimensionError",
    "DomainError",
    "EquivarianceReport",
    "GramSchmidtResult",
    "HomotopyPath",
    "InjectiveMap",
    "InternalRankLossError",
    "MatrixFormatError",
    "NonFiniteError",
    "NotOrthonormalError",
    "NumericalRankLossError",
    "PathSample",
    "RankDeficientError",
    "Rotation",
    "StiefelFrame",
    "StiefelRetractError",
    "UpperTriangularPositive",
    "ZeroVectorError",
    "act",
    "check_equivariance",
    "coefficient_matrix",
    "homotopy_step",
    "householder_qr_oracle",
    "include_frame",
    "interpolant",
    "orthonormalize",
    "qr_decompose",
    "random_rotation",
    "retract",
    "sphere_interpolant",
    "trace_path",
    "tri_solve_inverse",
    "validate_frame",
    "validate_injective",
    "validate_rotation",
]
