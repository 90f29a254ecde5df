"""Brute-force ground truth, by exhaustive enumeration.

Everything in this module favours simplicity over speed: it exists to check
the closed forms and the determinant pipeline on desk-size instances, not to
compute anything large.  It checks the coupling and the pairwise
disjointness of path families as their definitions state them.
Single-threaded and deterministic by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .errors import CapExceeded, InstanceTooLarge, InvalidLatticePath, MismatchFound
from .genfun import TASpec
from .model import LadderFunction, LatticePoint, _as_tuple, _check_pair_count, as_point
from .polyring import HalfPolynomial, binomial


@dataclass(frozen=True)
class LatticePath:
    """A monotone lattice path: a start point plus unit E/N steps.

    Steps that are not an iterable of 'E' and 'N' raise InvalidLatticePath,
    naming the index of the first bad step."""

    start: LatticePoint
    steps: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start))
        object.__setattr__(self, "steps", _as_tuple(self.steps, "steps", InvalidLatticePath))
        for i, s in enumerate(self.steps):
            if s not in ("E", "N"):
                raise InvalidLatticePath(f"steps[{i}] = {s!r} is not 'E' or 'N'", index=i)

    def points(self) -> list[LatticePoint]:
        pts = [self.start]
        x, y = self.start
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                y += 1
            pts.append(LatticePoint(x, y))
        return pts

    @property
    def end(self) -> LatticePoint:
        x, y = self.start
        return LatticePoint(x + self.steps.count("E"), y + self.steps.count("N"))


def ne_turns(path: LatticePath) -> list[LatticePoint]:
    """Points ending a North step and starting an East step, in path order."""
    turns = []
    x, y = path.start
    prev = None
    for s in path.steps:
        if s == "E":
            if prev == "N":
                turns.append(LatticePoint(x, y))
            x += 1
        else:
            y += 1
        prev = s
    return turns


ORACLE_ARRAY_GUARD = 2_000_000   # candidate row pairs per spec


def array_candidates(spec: TASpec) -> int:
    """The number of row pairs ``enumerate_arrays`` tries for the spec.

    It tries every pair of a (k + l)-subset of the w1 first-row slots and a
    k-subset of the w2 second-row slots, over all k; by Vandermonde's
    identity that is C(w1 + w2, w2 + l), with empty ranges counting 0
    slots.
    """
    w1 = max(0, spec.end.x - spec.start.x + 1)
    w2 = max(0, spec.end.y - spec.start.y + 1)
    return binomial(w1 + w2, w2 + spec.l)


def enumerate_arrays(spec: TASpec, size_cap: int = 64) -> HalfPolynomial:
    """Sum of q^|T| over every two-rowed array admitted by the spec.

    Generates all strictly increasing row pairs within the bounds and keeps
    those satisfying b_s < f(a_{s+d}) wherever both entries exist.  Row
    lengths are k + l and k; raises CapExceeded when the largest feasible k
    exceeds size_cap, and InstanceTooLarge, before building any row, when
    ``array_candidates`` exceeds ORACLE_ARRAY_GUARD.
    """
    lad, l, d = spec.ladder, spec.l, spec.d
    a1, a2 = spec.start
    e1, e2 = spec.end
    kmax = min(max(0, e1 - a1 + 1) - l, max(0, e2 - a2 + 1))
    if kmax > size_cap:
        raise CapExceeded(f"maximum second-row length {kmax} exceeds cap {size_cap}")
    candidates = array_candidates(spec)
    if candidates > ORACLE_ARRAY_GUARD:
        raise InstanceTooLarge(
            f"{candidates} candidate arrays exceed the guard of {ORACLE_ARRAY_GUARD}"
        )
    terms: dict[int, int] = {}
    for k in range(max(0, -l), kmax + 1):
        # b_s = second[s - 1] pairs with a_{s+d} = first[s + d + l - 1]
        # wherever both entries exist: 1 <= s <= k and -l + 1 <= s + d <= k
        pairs = [(s - 1, s + d + l - 1) for s in range(1, k + 1) if -l + 1 <= s + d <= k]
        terms[2 * k + l] = sum(
            all(second[i] < lad.value(first[j]) for i, j in pairs)
            for first in itertools.combinations(range(a1, e1 + 1), k + l)
            for second in itertools.combinations(range(a2, e2 + 1), k)
        )
    return HalfPolynomial.from_dict(terms)


def _paths_between(A: LatticePoint, E: LatticePoint) -> Iterator[LatticePath]:
    dx, dy = E.x - A.x, E.y - A.y
    if dx < 0 or dy < 0:
        return
    for east_positions in itertools.combinations(range(dx + dy), dx):
        steps = ["N"] * (dx + dy)
        for p in east_positions:
            steps[p] = "E"
        yield LatticePath(A, tuple(steps))


def enumerate_path_families(
    ladder: LadderFunction,
    starts: Sequence,
    ends: Sequence,
    max_candidates: int = 50_000,
) -> HalfPolynomial:
    """Sum of z^(total NE-turns) over nonintersecting path families, as q^(2 NE).

    Path i must run from starts[i] to ends[i] with every NE-turn inside the
    ladder region; families must be pairwise point-disjoint, endpoints
    included.  As a self-check, each candidate path must lie in the region
    exactly when its turns do (true on upper ladders); MismatchFound is
    raised otherwise.  Unequally many starts and ends, or none, raise
    ChainViolation; unordered endpoints, and an end that does not dominate
    its start (so no path joins them), are accepted.

    Before enumerating anything, InstanceTooLarge is raised when the
    candidate families (the product of the per-pair path counts) or the
    candidate paths (their sum) exceed max_candidates.  Every candidate path
    is built and tested, about 0.1 ms each, and every admissible one is
    kept, about 3.5 KB each: one path across a full 10 x 10 box (48,620
    candidates) took 4.7 s and 178 MiB peak RSS on a 2-vCPU Xeon VM.  The
    default admits the flagship's longest path (43,758 candidates).
    """
    pts_s = [as_point(p) for p in starts]
    pts_e = [as_point(p) for p in ends]
    _check_pair_count(pts_s, pts_e)
    families, paths = 1, 0
    for A, E in zip(pts_s, pts_e):
        dx, dy = E.x - A.x, E.y - A.y
        count = comb(dx + dy, dx) if dx >= 0 and dy >= 0 else 0
        families *= count
        paths += count
        if families > max_candidates or paths > max_candidates:
            raise InstanceTooLarge(
                f"more than {max_candidates} candidate paths or families"
            )
    per_path: list[list[tuple[frozenset, int]]] = []
    for A, E in zip(pts_s, pts_e):
        admissible = []
        for path in _paths_between(A, E):
            turns, points = ne_turns(path), path.points()
            turns_inside = all(ladder.contains(t) for t in turns)
            path_inside = all(ladder.contains(p) for p in points)
            if turns_inside != path_inside:
                raise MismatchFound(
                    f"containment mismatch for the path from {A} to {E}: on an "
                    "upper ladder a path lies inside exactly when its NE-turns do"
                )
            if turns_inside:
                admissible.append((frozenset(points), len(turns)))
        per_path.append(admissible)
    terms: dict[int, int] = {}
    for combo in itertools.product(*per_path):
        if all(p.isdisjoint(r) for (p, _), (r, _) in itertools.combinations(combo, 2)):
            exp = 2 * sum(turns for _, turns in combo)
            terms[exp] = terms.get(exp, 0) + 1
    return HalfPolynomial.from_dict(terms)
