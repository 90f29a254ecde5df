"""Ladder regions, cogenerating bivectors, and path endpoint derivation.

A one-sided (upper) ladder inside a (b+1) x (a+1) matrix of indeterminates is
encoded by its weakly increasing boundary function f: [0, a] -> [1, b+1]; the
planar region is L = {(x, y) : 0 <= x <= a, 0 <= y < f(x)}, where matrix
entry (i, j) corresponds to the plane point (j, b - i).  For queries left of
the region, f extends flat: f(x) = f(0) for x < 0.

All types here are immutable; all operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import (
    BoundaryNotFlatLeftOfFirstStart,
    ChainViolation,
    EndpointOutsideLadder,
    InvalidBivector,
    NotAnUpperLadder,
    NotWeaklyIncreasing,
    PointOutsideLadder,
    ValidationError,
    ValueOutOfRange,
)


class LatticePoint(NamedTuple):
    """A point in the plane; negative coordinates occur for shifted points."""

    x: int
    y: int


def _require_int(value, what: str, error=ValidationError, index: int | None = None):
    """Reject anything but an ``int``; a bool is no integer here."""
    if type(value) is not int:
        raise error(f"{what} = {value!r} must be an integer", index=index)


def _as_tuple(seq, what: str, error) -> tuple:
    """Any iterable as a tuple; anything else raises error."""
    try:
        items = iter(seq)
    except TypeError:
        raise error(f"{what} = {seq!r} is not a sequence") from None
    return tuple(items)


def as_point(p) -> LatticePoint:
    """An (x, y) pair of ``int``s as a LatticePoint.  Anything else, a bool or
    a LatticePoint holding a float included, raises ValidationError."""
    if not isinstance(p, (tuple, list)) or len(p) != 2:
        raise ValidationError(f"point {p!r} is not an (x, y) pair")
    for v in p:
        _require_int(v, f"coordinate of point {tuple(p)}")
    return p if isinstance(p, LatticePoint) else LatticePoint(*p)


@dataclass(frozen=True)
class LadderFunction:
    """The boundary f of an upper ladder region, stored densely.

    ``values[x]`` is f(x) for 0 <= x <= a, so every query is O(1); the
    widths involved here stay small enough that nothing fancier pays off.
    """

    a: int
    b: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_tuple(self.values, "values", ValueOutOfRange))
        _check_ladder(self.a, self.b, self.values)

    def __reduce__(self):
        # a ladder's value is (a, b, values); the engine a query leaves in
        # its ``__dict__`` is not pickled or copied
        return LadderFunction, (self.a, self.b, self.values)

    def value(self, x: int) -> int:
        """f(x), extended by f(x) = f(0) for x < 0.  Undefined right of a."""
        if x < 0:
            return self.values[0]
        if x > self.a:
            raise ValueError(f"boundary undefined at x={x} > a={self.a}")
        return self.values[x]

    def contains(self, point) -> bool:
        """Is the point in the region (flat extension applying for x < 0)?"""
        p = as_point(point)
        if p.x > self.a:
            return False
        return 0 <= p.y < self.value(p.x)

    def to_mask(self) -> list[list[bool]]:
        """(b+1) x (a+1) grid in matrix orientation: cell (i, j) is True iff
        the matrix entry survives, i.e. (j, b - i) lies in the region."""
        return [
            [self.values[j] > self.b - i for j in range(self.a + 1)]
            for i in range(self.b + 1)
        ]


def _check_ladder(a: int, b: int, values: Sequence[int]) -> None:
    _require_int(a, "a", ValueOutOfRange)
    _require_int(b, "b", ValueOutOfRange)
    if a < 0 or b < 0:
        raise ValueOutOfRange(f"need a >= 0 and b >= 0, got a={a}, b={b}")
    if len(values) != a + 1:
        raise ValueOutOfRange(
            f"need exactly a+1 = {a + 1} boundary values, got {len(values)}"
        )
    for i, v in enumerate(values):
        _require_int(v, f"f({i})", ValueOutOfRange, index=i)
        if not 1 <= v <= b + 1:
            raise ValueOutOfRange(
                f"f({i}) = {v} outside [1, {b + 1}]", index=i
            )
    for i in range(a):
        if values[i] > values[i + 1]:
            raise NotWeaklyIncreasing(
                f"f({i}) = {values[i]} > f({i + 1}) = {values[i + 1]}", index=i
            )


def validate_ladder(a: int, b: int, values: Sequence[int]) -> LadderFunction:
    """Build a LadderFunction, rejecting non-monotone or out-of-range input.
    An a, b or boundary value that is not an ``int``, a bool included, or
    values that are not iterable, raise ValueOutOfRange."""
    return LadderFunction(a, b, values)


def ladder_from_mask(mask: Sequence[Sequence[bool]]) -> LadderFunction:
    """Recover the boundary function from a 0/1 matrix mask.

    The mask uses matrix orientation (row 0 on top), with mask[i][j] true iff
    entry (i, j) survives.  Each column must be a contiguous run of true
    cells anchored at the bottom, and the run lengths must be weakly
    increasing left to right; anything else is not an upper ladder.
    """
    nrows = len(mask)
    if nrows == 0 or len(mask[0]) == 0:
        raise NotAnUpperLadder("mask must be nonempty")
    ncols = len(mask[0])
    if any(len(row) != ncols for row in mask):
        raise NotAnUpperLadder("mask rows have unequal lengths")
    b, a = nrows - 1, ncols - 1
    values = []
    for j in range(ncols):
        col = [bool(mask[i][j]) for i in range(nrows)]
        count = sum(col)
        if count == 0:
            raise NotAnUpperLadder(f"column {j} has no surviving cells", index=j)
        # bottom-anchored contiguity: exactly the last `count` cells are true
        if col != [False] * (nrows - count) + [True] * count:
            raise NotAnUpperLadder(
                f"column {j} is not contiguous from the bottom", index=j
            )
        values.append(count)
    for j in range(a):
        if values[j] > values[j + 1]:
            raise NotAnUpperLadder(
                f"column heights decrease at column {j}", index=j
            )
    return LadderFunction(a, b, values)


@dataclass(frozen=True)
class Bivector:
    """The cogenerating minor [u_1..u_n | v_1..v_n].

    Both index sequences are strictly increasing positive integers of equal
    length n >= 1.  An index that is not an ``int``, a bool included, or a
    row that is not iterable, raises InvalidBivector.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", _as_tuple(self.u, "u", InvalidBivector))
        object.__setattr__(self, "v", _as_tuple(self.v, "v", InvalidBivector))
        if len(self.u) != len(self.v) or not self.u:
            raise InvalidBivector(
                f"need equal nonempty rows, got |u|={len(self.u)}, |v|={len(self.v)}"
            )
        for name, seq in (("u", self.u), ("v", self.v)):
            for i, w in enumerate(seq):
                _require_int(w, f"{name}[{i}]", InvalidBivector, index=i)
            if seq[0] < 1:
                raise InvalidBivector(f"{name}[0] = {seq[0]} must be >= 1", index=0)
            for i in range(len(seq) - 1):
                if seq[i] >= seq[i + 1]:
                    raise InvalidBivector(
                        f"{name} not strictly increasing at index {i}", index=i
                    )

    @property
    def n(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class EndpointConfig:
    """Start/end points of the n lattice paths, plus their shifted copies.

    With 1-based path index i, the shifts are start + (-i+1, i) and
    end + (-i, i-1); the shifted points feed the generating-function matrix.
    """

    starts: tuple[LatticePoint, ...]
    ends: tuple[LatticePoint, ...]
    shifted_starts: tuple[LatticePoint, ...] = field(init=False)
    shifted_ends: tuple[LatticePoint, ...] = field(init=False)

    def __post_init__(self):
        starts = tuple(as_point(p) for p in self.starts)
        ends = tuple(as_point(p) for p in self.ends)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        _check_chains(starts, ends)
        object.__setattr__(
            self,
            "shifted_starts",
            tuple(LatticePoint(x - i, y + i + 1) for i, (x, y) in enumerate(starts)),
        )
        object.__setattr__(
            self,
            "shifted_ends",
            tuple(LatticePoint(x - i - 1, y + i) for i, (x, y) in enumerate(ends)),
        )

    @property
    def n(self) -> int:
        return len(self.starts)


def _check_pair_count(starts: Sequence, ends: Sequence) -> None:
    """Paths pair starts with ends: at least one of each, equally many."""
    if len(starts) != len(ends) or not starts:
        raise ChainViolation(
            f"need equally many starts and ends, got {len(starts)} and {len(ends)}"
        )


def _check_chains(starts: tuple[LatticePoint, ...], ends: tuple[LatticePoint, ...]):
    _check_pair_count(starts, ends)
    for i in range(len(starts) - 1):
        if starts[i].x > starts[i + 1].x:
            raise ChainViolation(
                f"start x-coordinates must be weakly increasing (index {i})", index=i
            )
        if starts[i].y <= starts[i + 1].y:
            raise ChainViolation(
                f"start y-coordinates must be strictly decreasing (index {i})", index=i
            )
        if ends[i].x >= ends[i + 1].x:
            raise ChainViolation(
                f"end x-coordinates must be strictly increasing (index {i})", index=i
            )
        if ends[i].y < ends[i + 1].y:
            raise ChainViolation(
                f"end y-coordinates must be weakly decreasing (index {i})", index=i
            )
    for i, (A, E) in enumerate(zip(starts, ends)):
        # a monotone path A -> E exists only when E dominates A; the
        # determinant identity presumes it, so reject rather than mis-answer
        if E.x < A.x or E.y < A.y:
            raise ChainViolation(
                f"end point {tuple(E)} does not dominate start {tuple(A)} (index {i})",
                index=i,
            )


def endpoints_from_bivector(ladder: LadderFunction, m: Bivector) -> EndpointConfig:
    """Endpoints of the n nonintersecting paths encoding the minor m.

    Path i (1-based) runs from (0, u_{n+1-i} - 1) to (a - v_{n+1-i} + 1, b).
    Two membership conditions keep every endpoint inside the region:
    u_n <= f(0), and f(a - v_n + 1) = b + 1.
    """
    a, b, n = ladder.a, ladder.b, m.n
    if m.u[-1] > ladder.value(0):
        raise EndpointOutsideLadder(
            f"u_n = {m.u[-1]} exceeds f(0) = {ladder.value(0)}: "
            "start points leave the region",
            index=n - 1,
        )
    if m.v[-1] > a + 1:
        raise EndpointOutsideLadder(
            f"v_n = {m.v[-1]} exceeds a + 1 = {a + 1}", index=n - 1
        )
    x_last = a - m.v[-1] + 1
    if ladder.value(x_last) != b + 1:
        raise EndpointOutsideLadder(
            f"f({x_last}) = {ladder.value(x_last)} != b + 1 = {b + 1}: "
            "end points leave the region",
            index=n - 1,
        )
    starts = tuple(LatticePoint(0, m.u[n - i] - 1) for i in range(1, n + 1))
    ends = tuple(LatticePoint(a - m.v[n - i] + 1, b) for i in range(1, n + 1))
    return EndpointConfig(starts, ends)


def validate_general_endpoints(
    ladder: LadderFunction, starts: Sequence, ends: Sequence
) -> EndpointConfig:
    """Validate arbitrary path endpoints for the determinant formula.

    Checks region membership for every point (the flat extension admits
    x < 0), the ordering chains, domination of each start by its end, and
    that the boundary is constant on [0, x] up to the first start's column.
    The flatness is not silently repaired: rewriting user input would mask
    errors, and the caller can always pass the normalized ladder directly.
    """
    pts_s = tuple(as_point(p) for p in starts)
    pts_e = tuple(as_point(p) for p in ends)
    for label, pts in (("start", pts_s), ("end", pts_e)):
        for i, p in enumerate(pts):
            if not ladder.contains(p):
                raise PointOutsideLadder(
                    f"{label} point {tuple(p)} outside the ladder region", index=i
                )
    cfg = EndpointConfig(pts_s, pts_e)
    first_x = pts_s[0].x
    level = ladder.value(first_x)
    # the last column below level, left of first_x as f is weakly increasing
    x = bisect_left(ladder.values, level) - 1
    if x >= 0:
        raise BoundaryNotFlatLeftOfFirstStart(
            f"f({x}) = {ladder.value(x)} != f({first_x}) = {level}: boundary "
            "must be constant left of the first start",
            index=x,
        )
    return cfg
