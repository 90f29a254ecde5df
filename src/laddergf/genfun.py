"""Generating functions for bounded two-rowed arrays.

A two-rowed array of type l consists of two strictly increasing integer rows,
the first longer than the second by l (l may be negative).  Writing the rows
as a_{-l+1} < ... < a_k and b_1 < ... < b_k, the set TA(l; A, E; f, d)
collects the arrays whose first row lies in [alpha_1, eps_1], whose second
row lies in [alpha_2, eps_2], and which satisfy the boundary coupling

    b_s < f(a_{s+d})   whenever both entries exist,

for the ladder boundary f (extended by f(x) = f(0) for x < 0).  The size |T|
is the total number of entries, and every generating function below is
sum over T of q^|T|, a HalfPolynomial.

Two evaluation strategies are provided:

* ``gf_direct`` -- a single multi-sum over the coarsest partition of
  [alpha_1, eps_1] into intervals of constant boundary value, one pair of
  summation indices per interval, evaluated as a dynamic program over the
  running entry counts of the two rows in time polynomial in the ladder.
  It uses no closed form.

* ``gf_recursive`` -- peel the rightmost piece of the boundary (horizontal
  run or diagonal staircase run) and recurse.  Its base cases are two
  closed binomial forms: the unrestricted form, where the coupling cannot
  bind, and the reflection form for one diagonal piece.  A whole diagonal
  piece costs it one closed form instead of one interval per column.  It
  keeps one memo per ladder, shared by every query on that ladder or an
  equal one and freed with the last of those: a pinned-start set (first
  row starting exactly at alpha_1) is the memoized difference of the sets
  starting at alpha_1 and alpha_1 + 1.  A single flat piece, and a
  diagonal piece that fails the
  reflection hypothesis, are peeled at x = eps_1, because second-row
  entries at or above f(eps_1) can only be the at most d unpaired top
  ones.  First-row entries in the columns where the boundary clears
  eps_2 (f >= eps_2 + 1) are the mirror case: they clear every second-row
  entry, so they are split off in one step, m of them at a time, leaving
  type l - m and offset d + m on the columns to their left.  So the two
  engines share no formula.  It computes on packed integers, each value
  its generating function at q = 2^k: every coefficient counts arrays
  whose rows are subsets of ranges holding W slots in all, so it is a
  nonnegative integer at most 2^W, and with k = W + 1 the base-2^k digits
  are the coefficients, never carrying or borrowing through the engine's
  sums, products and set differences.
  Each closed form is written once, as a generator of its terms; the
  public function builds a HalfPolynomial from it, and the engine shifts
  the same terms straight into its packed integer.  One helper,
  ``_pinned``, gives all three pinned-start forms, ``gf_star_trivial``,
  ``gf_star_diagonal`` and ``gf_star_recursive``: each is its value at
  first-row start alpha_1 minus the same value at alpha_1 + 1, the
  difference the engine's memo takes.

Both strategies clamp the boundary into the window [alpha_2, eps_2 + 1]
before analysing its shape; values outside that window constrain nothing,
so the clamp preserves the array set while merging irrelevant pieces.  The
recursive engine takes the window as a slice of the boundary values and,
since f is weakly increasing, finds the clamped prefix and suffix by
bisection.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from math import comb
from typing import Iterable, Iterator, Literal

from .errors import (
    EndpointOutsideLadder,
    PreconditionViolated,
    StarRequiresNonemptyFirstColumn,
)
from .model import LadderFunction, LatticePoint, as_point
from .polyring import HalfPolynomial, _pack_terms, _unpack, binomial


@dataclass(frozen=True)
class TASpec:
    """Parameters naming one set of two-rowed arrays on a ladder.

    l is the row-length difference (type), start/end hold the bounds
    (alpha_1, alpha_2) and (eps_1, eps_2), and d is the coupling offset.
    The recursive and direct methods additionally require l + d >= 0; the
    brute-force oracle does not.
    """

    l: int
    start: LatticePoint
    end: LatticePoint
    d: int
    ladder: LadderFunction

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start))
        object.__setattr__(self, "end", as_point(self.end))
        if self.d < 0:
            raise PreconditionViolated(f"offset d = {self.d} must be >= 0")
        if self.end.x > self.ladder.a:
            raise EndpointOutsideLadder(
                f"eps_1 = {self.end.x} exceeds the ladder width a = {self.ladder.a}"
            )


@dataclass(frozen=True)
class BorderPiece:
    """A maximal horizontal or diagonal run of the boundary.

    The piece covers columns x_lo+1 .. x_hi.  For a horizontal piece,
    ``level`` is the constant boundary value; for a diagonal piece it is the
    offset D with f(x) = x + D + 1 along the run.
    """

    x_lo: int
    x_hi: int
    kind: Literal["horizontal", "diagonal"]
    level: int


def _runs(values: tuple[int, ...], x_start: int) -> list[tuple[int, int, bool, int]]:
    """Greedy maximal-run partition of a weakly increasing sequence.

    A run extends while consecutive increments stay 0 (horizontal) or 1
    (diagonal); singleton runs count as horizontal.  Each run is the tuple
    (x_lo, x_hi, diagonal, level) of the ``BorderPiece`` it describes.
    """
    runs = []
    n = len(values)
    i = 0
    while i < n:
        j = i
        step = 0
        if j + 1 < n and values[j + 1] - values[j] in (0, 1):
            step = values[j + 1] - values[j]
            while j + 1 < n and values[j + 1] - values[j] == step:
                j += 1
        x = x_start + i
        if step == 1:
            runs.append((x - 1, x_start + j, True, values[i] - x - 1))
        else:
            runs.append((x - 1, x_start + j, False, values[i]))
        i = j + 1
    return runs


def partition_border(ladder: LadderFunction) -> list[BorderPiece]:
    """Split the full boundary {(x, f(x)): 0 <= x <= a} into pieces.

    Every weakly increasing boundary admits this partition; jumps larger
    than one simply separate pieces.
    """
    return [
        BorderPiece(x_lo, x_hi, "diagonal" if diagonal else "horizontal", level)
        for x_lo, x_hi, diagonal, level in _runs(ladder.values, 0)
    ]


# ---------------------------------------------------------------------------
# closed forms on shape-free / single-shape boundaries
# ---------------------------------------------------------------------------

def _require_pairing(l: int, d: int) -> None:
    """The pairing b_s < f(a_{s+d}) needs d >= 0 and l + d >= 0."""
    if d < 0:
        raise PreconditionViolated(f"offset d = {d} must be >= 0")
    if l + d < 0:
        raise PreconditionViolated(f"l + d = {l + d} must be >= 0")


def _pinned(value, l: int, alpha, eps, *rest) -> HalfPolynomial:
    """Arrays whose first row starts exactly at alpha_1: value(l, alpha,
    eps, *rest) minus the same value at first-row start alpha_1 + 1.  A
    pinned-start set needs a first-row range to pin: alpha_1 <= eps_1."""
    alpha, eps = as_point(alpha), as_point(eps)
    if alpha.x > eps.x:
        raise StarRequiresNonemptyFirstColumn(
            f"alpha_1 = {alpha.x} > eps_1 = {eps.x}"
        )
    return value(l, alpha, eps, *rest) - value(l, (alpha.x + 1, alpha.y), eps, *rest)


def _trivial_terms(l: int, a1: int, a2: int, e1: int, e2: int) -> Iterator[tuple[int, int]]:
    """The nonzero terms (q-exponent, coefficient) of ``gf_trivial``, ascending.

    A range of negative width holds no entry, like an empty one; on the
    widths w1, w2 >= 0 the terms with 0 <= k + l <= w1 and 0 <= k <= w2 are
    exactly the nonzero ones, so ``math.comb`` follows the ``binomial``
    convention there.
    """
    w1, w2 = max(0, e1 - a1 + 1), max(0, e2 - a2 + 1)
    for k in range(max(0, -l), min(w1 - l, w2) + 1):
        yield 2 * k + l, comb(w1, k + l) * comb(w2, k)


def gf_trivial(l: int, alpha, eps, d: int = 0) -> HalfPolynomial:
    """No boundary restriction: a product of two binomial choices per k.

    sum_k C(eps_1 - alpha_1 + 1, k + l) * C(eps_2 - alpha_2 + 1, k) q^(2k+l).
    Degenerate (empty) ranges come out right through the binomial
    convention; d plays no role without a boundary.
    """
    alpha, eps = as_point(alpha), as_point(eps)
    return HalfPolynomial.from_dict(dict(_trivial_terms(l, alpha.x, alpha.y, eps.x, eps.y)))


def gf_star_trivial(l: int, alpha, eps, d: int = 0) -> HalfPolynomial:
    """Unrestricted arrays whose first row starts exactly at alpha_1: the
    form at start alpha_1 minus the form at start alpha_1 + 1."""
    return _pinned(gf_trivial, l, alpha, eps)


def _check_diagonal_pre(l, alpha, eps, D, d):
    _require_pairing(l, d)
    if alpha.x + D + 1 + l + d < alpha.y:
        raise PreconditionViolated(
            f"alpha_1 + D + 1 + l + d = {alpha.x + D + 1 + l + d} < alpha_2 = {alpha.y}"
        )
    if eps.x + D + 1 + d < eps.y:
        raise PreconditionViolated(
            f"eps_1 + D + 1 + d = {eps.x + D + 1 + d} < eps_2 = {eps.y}"
        )


def _diagonal_terms(l: int, a1: int, a2: int, e1: int, e2: int, D: int,
                    d: int) -> Iterator[tuple[int, int]]:
    """The nonzero terms (q-exponent, coefficient) of ``gf_diagonal``,
    ascending, for parameters that meet its preconditions."""
    w1, w2 = max(0, e1 - a1 + 1), max(0, e2 - a2 + 1)
    for k in range(max(0, -l), min(w1 - l, w2) + 1):
        c = comb(w1, k + l) * comb(w2, k) - binomial(
            e1 - a2 + D + 1, k - d - 1
        ) * binomial(e2 - a1 - D + 1, k + l + d + 1)
        if c:
            yield 2 * k + l, c


def gf_diagonal(l: int, alpha, eps, D: int, d: int) -> HalfPolynomial:
    """Diagonal boundary f(x) = x + D + 1: unrestricted count minus a
    reflection term, by the standard bad-array correspondence."""
    alpha, eps = as_point(alpha), as_point(eps)
    _check_diagonal_pre(l, alpha, eps, D, d)
    return HalfPolynomial.from_dict(
        dict(_diagonal_terms(l, alpha.x, alpha.y, eps.x, eps.y, D, d))
    )


def gf_star_diagonal(l: int, alpha, eps, D: int, d: int) -> HalfPolynomial:
    """Diagonal boundary, first row pinned to start at alpha_1: the form at
    start alpha_1 minus the form at start alpha_1 + 1, whose hypotheses
    follow from those at alpha_1."""
    return _pinned(gf_diagonal, l, alpha, eps, D, d)


# ---------------------------------------------------------------------------
# the direct multi-sum
# ---------------------------------------------------------------------------

def _direct_sum(ladder: LadderFunction, l, a1, a2, e1, e2, d) -> HalfPolynomial:
    """Multi-sum over the coarsest constant partition of the clamped boundary.

    With g = clamp(f, [alpha_2, eps_2 + 1]) constant on position blocks
    (s_i, s_{i-1}], i = 1..kappa (s_kappa = alpha_1 - 1, s_0 = eps_1), count
    first-row entries beyond each s_i (vector e) and second-row entries at or
    above each block value (vector f).  The coupling reduces to f_i <= e_i + d
    per block, rows within a block are free binomial choices, and the term
    weight is q^(2 e_kappa - l).  One extra top layer counts second-row
    entries at or above g(eps_1): those pair with nothing only while their
    number stays <= d, which matters precisely when eps_2 reaches the
    boundary, as it always does for the shifted determinant entries.

    A summand depends on the earlier blocks only through the running pair
    (e_i, f_i), so the sum runs forward over the blocks on a table mapping
    each pair to its summed weight: at most (eps_1 - alpha_1 + 2) *
    (eps_2 - alpha_2 + 2) pairs, each extended by (width + 1)(rise + 1)
    steps per block, instead of one visit per summand.  An empty first row
    (eps_1 < alpha_1) gives no block, and the top layer alone, with
    threshold alpha_2, counts the second rows; so no closed form is needed.
    """
    g = [min(max(ladder.value(x), a2), e2 + 1) for x in range(a1, e1 + 1)]
    svals = [e1] if g else []
    for x in range(e1 - 1, a1 - 1, -1):
        if g[x - a1] != g[x - a1 + 1]:
            svals.append(x)
    svals.append(a1 - 1)
    kappa = len(svals) - 1
    thr = [g[svals[i] - a1] for i in range(kappa)] + [a2]
    states: dict[tuple[int, int], int] = {}
    for f0 in range(0, d + 1):
        ctop = binomial(e2 + 1 - thr[0], f0)
        if ctop:
            states[(0, f0)] = ctop
    for i in range(1, kappa + 1):
        we = svals[i - 1] - svals[i]
        wf = thr[i - 1] - thr[i]
        cbe = [binomial(we, de) for de in range(we + 1)]
        cbf = [binomial(wf, df) for df in range(wf + 1)]
        nxt: dict[tuple[int, int], int] = {}
        for (e, f), weight in states.items():
            for de, ce in enumerate(cbe):
                w_de = weight * ce
                # coupling cut f + df <= e + de + d
                for df in range(0, min(wf, e + de + d - f) + 1):
                    key = (e + de, f + df)
                    nxt[key] = nxt.get(key, 0) + w_de * cbf[df]
        states = nxt
    return HalfPolynomial.from_dict(
        {2 * e - l: weight for (e, f), weight in states.items() if e - f == l}
    )


def gf_direct(spec: TASpec) -> HalfPolynomial:
    """Evaluate the generating function by the interval multi-sum."""
    _require_pairing(spec.l, spec.d)
    return _direct_sum(spec.ladder, spec.l, spec.start.x, spec.start.y,
                       spec.end.x, spec.end.y, spec.d)


# ---------------------------------------------------------------------------
# the border-peeling recursion
# ---------------------------------------------------------------------------

def _row_slots(spec: TASpec) -> int:
    """W = |[alpha_1, eps_1]| + |[alpha_2, eps_2]|, empty ranges counting 0.

    An array of the spec's set is a pair of subsets of these two ranges, so
    the set has at most 2^W arrays, and every coefficient is at most 2^W.
    """
    return max(0, spec.end.x - spec.start.x + 1) + max(0, spec.end.y - spec.start.y + 1)


class _Engine:
    """Memoized recursion over one fixed ladder, on packed integers.

    Every value the engine computes, memoizes and combines is one
    nonnegative int: the generating function evaluated at q = 2^k, k fixed
    per engine.  A product of generating functions is then one big-int
    product, a sum one addition, a factor q^j a shift by k*j bits, and the
    zero test ``not v``.  This is exact, with no carry or borrow between
    packed digits, as long as every coefficient of every value stays in
    [0, 2^k).  Each value counts arrays whose rows are subsets of its two
    ranges, and every sub-problem's ranges lie inside its caller's, so
    every coefficient of every value, running sum and product is a count
    of a subset of the top-level set: nonnegative and at most 2^W
    (``_row_slots``), W the largest over the specs the engine serves.  So
    k = W + 1.  Base cases are two closed forms, packed by ``_pack_terms``
    straight from their term generators, which rejects a coefficient
    outside [0, 2^k): the form of ``gf_trivial`` where ``_vacuous`` finds
    that the coupling cannot bind (an empty first row included), and that
    of ``gf_diagonal`` for one diagonal piece that meets the reflection
    hypothesis (eps_1 + D + 1 + d >= eps_2; its other hypothesis,
    alpha_1 + D + 1 + l + d >= alpha_2, holds because the clamped boundary
    is at least alpha_2 and every engine call keeps l + d >= 0).  A miss
    builds no LatticePoint, dict or HalfPolynomial.

    One recursion fills one memo.  A pinned-start set, whose first row
    starts exactly at alpha_1, is the set starting at alpha_1 minus its
    subset starting at alpha_1 + 1: a difference of two memoized values,
    nonnegative digit by digit.  The peel runs its tail start j downwards
    and carries the value at j + 1, so each step looks up one new value.

    Before any peel, the columns t..eps_1 where the boundary clears eps_2
    (f(t) >= eps_2 + 1, t found by bisection) are split off in one step.
    The boundary at a first-row entry there exceeds every second-row
    entry, so every pair the entry is in holds; such entries are the top m
    of the first row, and removing them leaves an array of type l - m and
    offset d + m on [alpha_1, t - 1].  So the value is the sum over m of
    C(eps_1 - t + 1, m) q^m times that sub-value: each term keeps
    l + d >= 0 and counts a disjoint subset of the caller's arrays.
    Without this step every peel's prefix windows, which end in such
    columns, would be peeled again one column at a time.

    Every other spec is peeled: at the last interior piece boundary, or at
    x = eps_1 for a single flat piece at level h <= eps_2 or a single
    diagonal piece that fails the hypothesis.  A second-row entry at or
    above f(eps_1) exceeds the boundary at every first-row entry, so it can
    only be one of the at most d unpaired top entries; splitting those off
    leaves sub-problems with eps_2 = f(eps_1) - 1, which are vacuous under
    a flat piece and satisfy the hypothesis under a diagonal one.  So the
    engine shares no formula with the direct multi-sum, and
    ``direct == recursive`` checks two independent computations.

    The boundary clamped into [alpha_2, eps_2 + 1] is a function of the
    numeric parameters alone, so the memo key is just the parameter tuple.
    ``_pieces`` slices that window out of ``ladder.values`` and partitions
    it with ``_runs``, the forward-greedy partition of ``partition_border``.
    A trailing clamped-flat piece merges into a preceding diagonal whenever
    the diagonal's continuation clears the clamp level: on that stretch both
    shapes exceed every admissible second-row entry, constraining nothing.
    The clearing columns are split off first, so no window that ``_eval``
    partitions reaches eps_2 + 1, and there the upper clamp and the merge
    never take effect.
    """

    def __init__(self, ladder: LadderFunction, specs: Iterable[TASpec]):
        # an equal copy, the engine's registry key: it holds no engine, so
        # the ladders that hold this one can die.  ``copy.copy`` would read
        # the ladder's ``__dict__``, which makes every later attribute read
        # on it 2-3x slower in CPython 3.11.
        self.ladder = replace(ladder)
        self.k = max(map(_row_slots, specs)) + 1
        self.memo: dict[tuple, int] = {}

    def gf(self, spec: TASpec) -> HalfPolynomial:
        """The generating function of spec, unpacked; spec must be no wider
        than those the engine was made for."""
        if _row_slots(spec) >= self.k:
            raise PreconditionViolated(
                f"spec spans {_row_slots(spec)} row slots; the engine packs "
                f"at most {self.k - 1}"
            )
        v = self.eval(spec.l, spec.start.x, spec.start.y, spec.end.x, spec.end.y, spec.d)
        return _unpack(v, self.k)

    def _pieces(self, a1, a2, e1, e2) -> list[tuple[int, int, bool, int]]:
        """``_runs`` of the boundary on columns a1..e1, clamped into
        [a2, e2 + 1], with a trailing clamped-flat piece merged into a
        preceding diagonal that clears the clamp level.

        The window is a slice of ``ladder.values``, with f(0) repeated for
        the columns left of 0.  f is weakly increasing, so the values below
        a2 form a prefix and those above e2 + 1 a suffix, found by bisection.
        """
        vals = self.ladder.values
        if e1 > self.ladder.a:
            raise ValueError(f"boundary undefined at x={e1} > a={self.ladder.a}")
        seg = (vals[0],) * (min(e1 + 1, 0) - a1) + vals[max(a1, 0):max(e1 + 1, 0)]
        top = e2 + 1
        lo = bisect_left(seg, a2)
        hi = bisect_right(seg, top, lo)
        g = (min(a2, top),) * lo + seg[lo:hi] + (top,) * (len(seg) - hi)
        pieces = _runs(g, a1)
        if len(pieces) >= 2:
            x_lo, x_hi, diagonal, level = pieces[-2]
            _, x_end, last_diagonal, last_level = pieces[-1]
            if not last_diagonal and last_level == top and diagonal \
                    and x_hi + level + 2 >= top:
                pieces[-2:] = [(x_lo, x_end, True, level)]
        return pieces

    def _vacuous(self, l, a1, a2, e1, e2, d) -> bool:
        """Can the coupling never bind?  (Sufficient check, not necessary.)"""
        kmax = min(max(0, e1 - a1 + 1) - l, max(0, e2 - a2 + 1))
        if kmax <= d:
            return True  # every second row is too short to reach a pair
        return e2 - d < self.ladder.value(a1)

    def eval(self, *key) -> int:
        """The memoized value of ``_eval`` at key = (l, a1, a2, e1, e2, d)."""
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = self._eval(*key)
        return v

    def _eval(self, l, a1, a2, e1, e2, d) -> int:
        if self._vacuous(l, a1, a2, e1, e2, d):
            return _pack_terms(_trivial_terms(l, a1, a2, e1, e2), self.k)
        # first-row entries in columns t..e1 clear every second-row entry
        # (f(t) >= e2 + 1): they are the top m of the row, in every pair
        # they are in, and splitting them off leaves type l - m, offset d + m
        t = bisect_left(self.ladder.values, e2 + 1, max(a1, 0), e1 + 1)
        if t <= e1:
            w = e1 - t + 1
            acc = 0
            for m in range(0, min(w, e2 - a2 + 1 + l) + 1):
                v = self.eval(l - m, a1, a2, t - 1, e2, d + m)
                if v:
                    acc += (v * comb(w, m)) << (self.k * m)
            return acc
        pieces = self._pieces(a1, a2, e1, e2)
        x_lo, _, diagonal, level = pieces[-1]
        if len(pieces) > 1:
            x = x_lo  # the last interior piece boundary
        elif diagonal and e1 + level + 1 + d >= e2:
            return _pack_terms(_diagonal_terms(l, a1, a2, e1, e2, level, d), self.k)
        else:
            x = e1  # one flat piece, or a failing diagonal: only boundary terms remain
        fx = max(self.ladder.values[max(x, 0)], a2)  # <= e2 after the split above
        acc = 0
        # pinned-start tail on [j, eps_1] = start j minus start j + 1; from
        # start eps_1 + 1 the first row is empty and the d second-row entries
        # in [f(x), eps_2] pair with nothing
        above = binomial(e2 - fx + 1, d) << (self.k * d)
        for j in range(e1, x, -1):
            tail = self.eval(-d, j, fx, e1, e2, d)
            left = self.eval(l + d, a1, a2, j - 1, fx - 1, 0)
            if left:
                acc += left * (tail - above)
            above = tail
        for e in range(0, d + 1):
            c = binomial(e2 - fx + 1, d - e)
            if c:
                acc += (self.eval(l + d - e, a1, a2, e1, fx - 1, e) * c) << (self.k * (d - e))
        return acc


# The recursive engine of each ladder value, keyed by the engine's own copy
# of the ladder, so that equal ladders find one engine (its memo depends only
# on the boundary).  Each ladder that asked for it holds it, so it lives
# while any of them does and leaves the registry with the last.
_ENGINES: weakref.WeakValueDictionary[LadderFunction, _Engine] = weakref.WeakValueDictionary()


def _engine_for(ladder: LadderFunction, specs: list[TASpec]) -> _Engine:
    """The ladder's engine, so that every query on one ladder, or on an
    equal one, shares its memo.

    The ladder keeps the engine in its ``_engine`` attribute, the instance
    cache idiom of ``functools.cached_property``; the attribute takes no
    part in equality, hashing or repr.  An engine packs at a fixed width k,
    so when a spec needs a wider one, a new engine made for these specs
    replaces the registered one, whose memo is cleared: an equal ladder
    still holding it keeps no second memo.  A pass over the minors of one
    ladder grows k a few times.  Two threads may race to replace it, or
    clear a memo that another query is filling; every engine's values are
    exact, so the worst a race does is recompute some of them.
    """
    engine = _ENGINES.get(ladder)
    if engine is None or any(_row_slots(spec) >= engine.k for spec in specs):
        if engine is not None:
            engine.memo.clear()
        engine = _Engine(ladder, specs)
        _ENGINES[engine.ladder] = engine  # a key already present stays
    object.__setattr__(ladder, "_engine", engine)
    return engine


def gf_recursive(spec: TASpec) -> HalfPolynomial:
    """Evaluate the generating function by border peeling.

    First splits off, in one step, the first-row entries in the columns
    where the boundary clears eps_2: they pair with every second-row entry
    freely, so m of them leave type l - m and offset d + m on the columns
    to their left, with weight C(width, m) q^m.  Then splits at the last
    interior piece boundary x: arrays decompose by the first second-row
    entry reaching f(x) into a prefix below f(x) paired with a pinned-start
    tail on the final piece, plus the boundary terms in which at most d
    entries sit at or above f(x) unpaired.  The tail is the
    memoized difference of the tails starting at j and j + 1.  A single
    flat piece, and a single diagonal piece that fails the reflection
    hypothesis, are peeled at x = eps_1: second-row entries at or above
    f(eps_1) can only be the at most d unpaired top ones, so only boundary
    terms remain.  The base cases are ``gf_trivial`` where the coupling
    cannot bind and ``gf_diagonal`` for one diagonal piece; the direct
    multi-sum is never called.
    """
    _require_pairing(spec.l, spec.d)
    return _engine_for(spec.ladder, [spec]).gf(spec)


def gf_star_recursive(spec: TASpec) -> HalfPolynomial:
    """Border peeling for arrays whose first row starts exactly at alpha_1:
    the value at spec minus the value at first-row start alpha_1 + 1, both
    from the ladder's engine."""
    _require_pairing(spec.l, spec.d)
    engine = _engine_for(spec.ladder, [spec])
    return _pinned(lambda l, alpha, eps: engine.gf(replace(spec, start=alpha)),
                   spec.l, spec.start, spec.end)
