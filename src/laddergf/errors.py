"""Exception types raised across the package.

Validation errors carry the first offending index (where one exists) so a
caller can point at the bad element of its input instead of guessing.
"""


class LadderError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LadderError):
    """Malformed input data (ladders, bivectors, endpoints, instances)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotWeaklyIncreasing(ValidationError):
    """Boundary values decrease somewhere."""


class ValueOutOfRange(ValidationError):
    """A boundary value falls outside [1, b+1]."""


class NotAnUpperLadder(ValidationError):
    """A 0/1 mask is not column-contiguous from the bottom or not monotone."""


class InvalidBivector(ValidationError):
    """Row/column index sequences are not strictly increasing positive ints."""


class InvalidLatticePath(ValidationError):
    """A lattice path's steps are not a sequence of 'E' and 'N'."""


class EndpointOutsideLadder(ValidationError):
    """A start or end point violates a region membership condition."""


class ChainViolation(ValidationError):
    """Start or end points break the required ordering chains."""


class PointOutsideLadder(ValidationError):
    """A lattice point does not lie in the ladder region."""


class BoundaryNotFlatLeftOfFirstStart(ValidationError):
    """The boundary is required to be constant left of the first start point."""


class StarRequiresNonemptyFirstColumn(ValidationError):
    """Pinned-first-entry generating functions need alpha_1 <= eps_1."""


class PreconditionViolated(ValidationError):
    """A closed form or recursion was invoked outside its hypotheses."""


class CapExceeded(LadderError):
    """Brute-force array enumeration would exceed the requested size cap."""


class InstanceTooLarge(LadderError):
    """Brute-force path-family enumeration would exceed the safety guard."""


class MismatchFound(LadderError):
    """Two computations that must agree differ: two evaluation methods in a
    cross-method verification, the path enumerator's two containment
    tests (by NE-turns and by all points) on a region that is not an upper
    ladder, or a determinant matrix whose determinant does not count path
    families (negative, or coefficients not summing to its value at z = 1)."""


class OddExponentPresent(LadderError):
    """A polynomial expected to be even in q has an odd-exponent term.

    Also raised for a determinant entry (s, t) with a term whose q-exponent
    is not congruent to t - s mod 2; such an entry puts odd exponents into
    the determinant.  This is never a valid outcome of the determinant
    pipeline; seeing it means a bug or hand-built invalid input.
    """

    def __init__(self, exponent: int, entry: tuple[int, int] | None = None):
        if entry is None:
            message = f"nonzero coefficient at odd q-exponent {exponent}"
        else:
            message = (f"entry {entry} has a nonzero coefficient at q-exponent "
                       f"{exponent}, breaking the q-parity invariant")
        super().__init__(message)
        self.exponent = exponent
        self.entry = entry
