"""Exact Hilbert series of one-sided ladder determinantal rings.

The Hilbert series of the ring cogenerated by a minor equals a determinant
of generating functions for two-rowed arrays divided by a power of (1 - z);
equivalently, it counts families of nonintersecting lattice paths inside the
ladder region by their total number of north-east turns.  All arithmetic is
exact over Python integers.

>>> from laddergf import validate_ladder, Bivector, hilbert_series
>>> ladder = validate_ladder(1, 1, [2, 2])
>>> hs = hilbert_series(ladder, Bivector((1,), (1,)))
>>> hs.z_coefficients, hs.denom_exponent
((1, 1), 3)
"""

from .errors import (
    BoundaryNotFlatLeftOfFirstStart,
    CapExceeded,
    ChainViolation,
    EndpointOutsideLadder,
    InstanceTooLarge,
    InvalidBivector,
    InvalidLatticePath,
    LadderError,
    MismatchFound,
    NotAnUpperLadder,
    NotWeaklyIncreasing,
    OddExponentPresent,
    PointOutsideLadder,
    PreconditionViolated,
    StarRequiresNonemptyFirstColumn,
    ValidationError,
    ValueOutOfRange,
)
from .genfun import (
    BorderPiece,
    TASpec,
    gf_diagonal,
    gf_direct,
    gf_recursive,
    gf_star_diagonal,
    gf_star_recursive,
    gf_star_trivial,
    gf_trivial,
    partition_border,
)
from .hilbert import GFMatrix, build_gf_matrix, hilbert_series, path_gf
from .model import (
    Bivector,
    EndpointConfig,
    LadderFunction,
    LatticePoint,
    endpoints_from_bivector,
    ladder_from_mask,
    validate_general_endpoints,
    validate_ladder,
)
from .oracle import (
    LatticePath,
    enumerate_arrays,
    enumerate_path_families,
    ne_turns,
)
from .polyring import (
    HalfPolynomial,
    HilbertSeries,
    binomial,
    det_poly_matrix,
    series_expand,
    to_z_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BorderPiece",
    "Bivector",
    "EndpointConfig",
    "GFMatrix",
    "HalfPolynomial",
    "HilbertSeries",
    "LadderFunction",
    "LatticePath",
    "LatticePoint",
    "TASpec",
    "binomial",
    "build_gf_matrix",
    "det_poly_matrix",
    "endpoints_from_bivector",
    "enumerate_arrays",
    "enumerate_path_families",
    "gf_diagonal",
    "gf_direct",
    "gf_recursive",
    "gf_star_diagonal",
    "gf_star_recursive",
    "gf_star_trivial",
    "gf_trivial",
    "hilbert_series",
    "ladder_from_mask",
    "ne_turns",
    "partition_border",
    "path_gf",
    "series_expand",
    "to_z_polynomial",
    "validate_general_endpoints",
    "validate_ladder",
    # errors
    "LadderError",
    "ValidationError",
    "NotWeaklyIncreasing",
    "ValueOutOfRange",
    "NotAnUpperLadder",
    "InvalidBivector",
    "InvalidLatticePath",
    "EndpointOutsideLadder",
    "ChainViolation",
    "PointOutsideLadder",
    "BoundaryNotFlatLeftOfFirstStart",
    "StarRequiresNonemptyFirstColumn",
    "PreconditionViolated",
    "CapExceeded",
    "InstanceTooLarge",
    "MismatchFound",
    "OddExponentPresent",
]
