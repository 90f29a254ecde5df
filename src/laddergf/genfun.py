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
  running entry counts of the two rows in time polynomial in the ladder:
  two passes per interval, one per row, each keeping only the counts from
  which the type l can still be reached.  It uses no closed form.
  ``gf_direct_row`` answers specs that share their end and offset, such as
  one determinant row, in one sweep: the specs share the program's steps
  from eps_1 down to where their own clamp at alpha_2, or their own
  alpha_1, makes a step differ, and there they fork; each shared step keeps
  the counts that any spec below it can still use.  ``gf_direct`` is its
  one-spec case.

* ``gf_recursive`` -- peel the maximal run of the boundary (horizontal
  or diagonal staircase) that ends at eps_1, and recurse.  Its base cases
  are two closed binomial forms: the unrestricted form, where the coupling
  cannot bind, and the reflection form for one diagonal run.  A whole
  diagonal run costs it one closed form instead of one interval per
  column.  It computes on packed integers, in one memo per ladder object,
  shared by every query on it and living as long as that ladder.
  ``_Engine`` states the decomposition, why it is exact, and why the
  packed arithmetic never carries; the two engines share no formula.
  Each closed form is written once, as a generator of its terms; the
  public function builds a HalfPolynomial from it, and the engine shifts
  the same terms straight into its packed integer.  One helper,
  ``_pinned``, gives all three pinned-start forms, ``gf_star_trivial``,
  ``gf_star_diagonal`` and ``gf_star_recursive``: each is its value at
  first-row start alpha_1 minus the same value at alpha_1 + 1, the
  difference the engine's memo takes.

Both strategies read the boundary clamped into the window
[alpha_2, eps_2 + 1]; values outside that window constrain nothing, so the
clamp preserves the array set while merging irrelevant pieces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from math import comb, inf
from typing import Iterable, Iterator, Literal, Sequence

from .errors import (
    EndpointOutsideLadder,
    PreconditionViolated,
    StarRequiresNonemptyFirstColumn,
    ValidationError,
)
from .model import LadderFunction, LatticePoint, _require_int, as_point
from .polyring import HalfPolynomial, _binomial, _digits, _pack_terms, _spread


@dataclass(frozen=True)
class TASpec:
    """Parameters naming one set of two-rowed arrays on a ladder.

    l is the row-length difference (type), start/end hold the bounds
    (alpha_1, alpha_2) and (eps_1, eps_2), and d is the coupling offset.
    l and d must be ``int``s, a bool excluded, and the ladder a
    LadderFunction (ValidationError).  The recursive and direct methods
    additionally require l + d >= 0; the brute-force oracle does not.
    """

    l: int
    start: LatticePoint
    end: LatticePoint
    d: int
    ladder: LadderFunction

    def __post_init__(self):
        _require_int(self.l, "l")
        _require_int(self.d, "d")
        if not isinstance(self.ladder, LadderFunction):
            raise ValidationError(f"ladder = {self.ladder!r} is not a LadderFunction")
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
    than one simply separate pieces.  A ladder that is no LadderFunction
    raises ValidationError.
    """
    if not isinstance(ladder, LadderFunction):
        raise ValidationError(f"ladder = {ladder!r} is not a LadderFunction")
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
    """The nonzero terms of ``gf_trivial``, ascending, as (k, c): c arrays
    with k second-row entries, the coefficient of q^(2k + l).

    A range of negative width holds no entry, like an empty one; on the
    widths w1, w2 >= 0 the terms with 0 <= k + l <= w1 and 0 <= k <= w2 are
    exactly the nonzero ones, so ``math.comb`` follows the ``binomial``
    convention there.
    """
    w1, w2 = max(0, e1 - a1 + 1), max(0, e2 - a2 + 1)
    for k in range(max(0, -l), min(w1 - l, w2) + 1):
        yield k, comb(w1, k + l) * comb(w2, k)


def gf_trivial(l: int, alpha, eps, d: int = 0) -> HalfPolynomial:
    """No boundary restriction: a product of two binomial choices per k.

    sum_k C(eps_1 - alpha_1 + 1, k + l) * C(eps_2 - alpha_2 + 1, k) q^(2k+l).
    Degenerate (empty) ranges come out right through the binomial
    convention; d plays no role without a boundary.  l and d must be
    ``int``s, a bool excluded (ValidationError), as in ``TASpec``.
    """
    _require_int(l, "l")
    _require_int(d, "d")
    alpha, eps = as_point(alpha), as_point(eps)
    return HalfPolynomial.from_dict(
        {2 * k + l: c for k, c in _trivial_terms(l, alpha.x, alpha.y, eps.x, eps.y)}
    )


def gf_star_trivial(l: int, alpha, eps, d: int = 0) -> HalfPolynomial:
    """Unrestricted arrays whose first row starts exactly at alpha_1: the
    form at start alpha_1 minus the form at start alpha_1 + 1."""
    return _pinned(gf_trivial, l, alpha, eps, d)


def _check_diagonal_pre(l, alpha, eps, D, d):
    _require_int(l, "l")
    _require_int(D, "D")
    _require_int(d, "d")
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
    """The nonzero terms of ``gf_diagonal``, ascending, as (k, c) like those
    of ``_trivial_terms``, for parameters that meet its preconditions: each
    unrestricted term minus the reflected (bad) arrays with k second-row
    entries."""
    for k, c in _trivial_terms(l, a1, a2, e1, e2):
        c -= _binomial(e1 - a2 + D + 1, k - d - 1) * _binomial(e2 - a1 - D + 1, k + l + d + 1)
        if c:
            yield k, c


def gf_diagonal(l: int, alpha, eps, D: int, d: int) -> HalfPolynomial:
    """Diagonal boundary f(x) = x + D + 1: unrestricted count minus a
    reflection term, by the standard bad-array correspondence.  l, D and d
    must be ``int``s, a bool excluded (ValidationError)."""
    alpha, eps = as_point(alpha), as_point(eps)
    _check_diagonal_pre(l, alpha, eps, D, d)
    return HalfPolynomial.from_dict(
        {2 * k + l: c for k, c in _diagonal_terms(l, alpha.x, alpha.y, eps.x, eps.y, D, d)}
    )


def gf_star_diagonal(l: int, alpha, eps, D: int, d: int) -> HalfPolynomial:
    """Diagonal boundary, first row pinned to start at alpha_1: the form at
    start alpha_1 minus the form at start alpha_1 + 1, whose hypotheses
    follow from those at alpha_1."""
    return _pinned(gf_diagonal, l, alpha, eps, D, d)


# ---------------------------------------------------------------------------
# the direct multi-sum
# ---------------------------------------------------------------------------

def _direct_steps(values, a1, a2, e1, e2) -> list[tuple[int, int]]:
    """One target's steps (width, rise), from eps_1 down: each block of
    constant g = clamp(f, [alpha_2, eps_2 + 1]), with the fall of g below it,
    g read as eps_2 + 1 right of eps_1 and as alpha_2 left of alpha_1.  So
    the first is the top layer (0, eps_2 + 1 - g(eps_1)) unless that is
    (0, 0).  A second-row range of negative width is clamped to the empty
    one, eps_2 = alpha_2 - 1, so that the window is not inverted; an empty
    first row has the one step (0, eps_2 + 1 - alpha_2)."""
    top = max(e2, a2 - 1) + 1
    steps, s, h = [], e1, top
    for x in range(e1, a1 - 1, -1):
        v = min(max(values[max(x, 0)], a2), top)
        if v != h:
            steps.append((s - x, h - v))
            s, h = x, v
    steps.append((max(0, s - a1 + 1), h - a2))
    return steps


def _direct_row(ladder: LadderFunction, e1, e2, d,
                targets: list[tuple[int, int, int]]) -> list[HalfPolynomial]:
    """The multi-sums of the targets (l, alpha_1, alpha_2) that share the end
    (eps_1, eps_2) and the offset d, such as one determinant row, in one
    sweep over the coarsest constant partitions of their clamped boundaries.

    For one target, with g constant on the blocks (s_i, s_{i-1}],
    i = 1..kappa (s_0 = eps_1, s_kappa = alpha_1 - 1, g(s_kappa) read as
    alpha_2), count first-row entries beyond each s_i (vector e) and
    second-row entries at or above each g(s_i) (vector f).  The steps of
    ``_direct_steps`` are the top layer above g(eps_1), when it is not
    empty, and then block i's width and the rise g(s_{i-1}) - g(s_i) for
    i = 1..kappa.  Such a second-row entry exceeds the boundary at every
    column up to s_i, so it pairs with a first-row entry beyond s_i or is
    one of the at most d unpaired top entries: the coupling reduces to
    f_i <= e_i + d per block, the top layer included.
    Rows within a block are free binomial choices, and the term weight is
    q^(2 f_kappa + l).  A summand depends on the earlier steps only through
    the running pair (e_i, f_i), so the sum runs forward over the steps on
    a table mapping each pair to its summed weight: at most
    (eps_1 - alpha_1 + 2) * (eps_2 - alpha_2 + 2) pairs, instead of one
    visit per summand.  The coupling cut f_{i-1} + df <= e_{i-1} + de + d
    reads f only before the step's rise and e only after its width, so a
    step is two passes: move e by de with weight C(width, de), then f by df
    with weight C(rise, df) under the cut.  That is (width + 1) +
    (rise + 1) moves per pair and step, not their product.

    Both passes also drop the pairs that cannot reach the end.  The widths
    sum to w1 = |[alpha_1, eps_1]| and the rises to w2 = |[alpha_2, eps_2]|,
    the slots of the two rows (an empty range has none), and only pairs
    with e - f = l are summed.  Once the steps so far took (taken_e,
    taken_f) of them, a pair whose e - f lies outside [l - w1 + taken_e,
    l + w2 - taken_f] adds nothing; between a step's two passes, taken_e
    holds the step's width, taken_f not yet its rise.

    The table after a step depends only on the steps so far and d, so the
    targets share it along the common prefix of their step sequences, a
    trie walked depth first.  A target forks off where its own clamp at
    alpha_2, or its own alpha_1, makes its next step differ from the shared
    one, and reads its answer off the table after its last step.  Each
    step keeps the pairs that the interval of any target below it keeps,
    the hull of those intervals, so every pair a target needs is kept: the
    cut drops only pairs whose every extension misses e - f = l for every
    one of those targets, so it is exact.  It uses no closed form.
    """
    steps = [_direct_steps(ladder.values, a1, a2, e1, e2) for _, a1, a2 in targets]
    slots = [(l - max(0, e1 - a1 + 1), l + max(0, e2 - a2 + 1)) for l, a1, a2 in targets]
    answers: list = [None] * len(targets)  # each set where its target's steps end
    stack = [({(0, 0): 1}, 0, 0, 0, range(len(targets)))]
    while stack:
        states, j, taken_e, taken_f, group = stack.pop()
        forks: dict[tuple[int, int], list[int]] = {}
        for t in group:
            if j < len(steps[t]):
                forks.setdefault(steps[t][j], []).append(t)
            else:
                # the weights of e - f = l by f, at most the target's w2
                l = targets[t][0]
                by_f = [0] * (slots[t][1] - l + 1)
                for (e, f), weight in states.items():
                    if e - f == l:
                        by_f[f] = weight
                answers[t] = _spread(by_f, l)
        for (we, wf), below in forks.items():
            lo = min(slots[t][0] for t in below) + taken_e + we
            hi = max(slots[t][1] for t in below) - taken_f
            cbe = [comb(we, de) for de in range(we + 1)]
            cbf = [comb(wf, df) for df in range(wf + 1)]
            moved: dict[tuple[int, int], int] = {}
            get = moved.get
            for (e, f), weight in states.items():
                s = e - f
                for de in range(max(0, lo - s), min(we, hi - s) + 1):
                    key = (e + de, f)
                    moved[key] = get(key, 0) + weight * cbe[de]
            hi -= wf
            after: dict[tuple[int, int], int] = {}
            get = after.get
            for (e, f), weight in moved.items():
                s = e - f
                # coupling cut f + df <= e + d
                for df in range(max(0, s - hi), min(wf, s + d, s - lo) + 1):
                    key = (e, f + df)
                    after[key] = get(key, 0) + weight * cbf[df]
            stack.append((after, j + 1, taken_e + we, taken_f + wf, below))
    return answers


def _direct_sum(ladder: LadderFunction, l, a1, a2, e1, e2, d) -> HalfPolynomial:
    """The multi-sum of one target: ``_direct_row`` with one target."""
    return _direct_row(ladder, e1, e2, d, [(l, a1, a2)])[0]


def gf_direct_row(specs: Sequence[TASpec]) -> list[HalfPolynomial]:
    """Evaluate the generating functions of specs that share their end,
    offset and ladder, such as the entries of one determinant row, by one
    interval multi-sum sweep (``_direct_row``)."""
    if not specs:
        return []
    first = specs[0]
    for spec in specs:
        _require_pairing(spec.l, spec.d)
        if (spec.end, spec.d, spec.ladder) != (first.end, first.d, first.ladder):
            raise PreconditionViolated(
                "a direct row needs one end, offset and ladder for all its specs"
            )
    return _direct_row(first.ladder, first.end.x, first.end.y, first.d,
                       [(spec.l, spec.start.x, spec.start.y) for spec in specs])


def gf_direct(spec: TASpec) -> HalfPolynomial:
    """Evaluate the generating function by the interval multi-sum."""
    return gf_direct_row([spec])[0]


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
    nonnegative int whose base-2^k digit i, k fixed per engine, is the
    number of the set's arrays with i second-row entries.  An array of
    type l with i second-row entries has size 2i + l, so digit i is the
    coefficient of q^(2i + l): the value is the generating function divided
    by q^l, in z = q^2, at z = 2^k.  ``gf`` spreads the digits back to
    those q-exponents; half of the q-exponents of a type have no arrays,
    and this packing stores none of them.  A product of generating
    functions is then one big-int product (the second-row lengths of two
    glued parts add), a sum one addition, i more second-row entries a
    shift by k*i bits, and the zero test ``not v``.  This is exact, with
    no carry or borrow between packed digits, as long as every digit of
    every value stays in [0, 2^k).  Each value counts arrays whose rows are
    subsets of its two ranges, and every sub-problem's ranges lie inside
    its caller's, so every digit of every value, running sum and product
    is a count of a subset of the top-level set: nonnegative and at most
    2^W (``_row_slots``), W the largest over the specs the engine serves.
    So k = W + 1.  Base cases are two closed forms, packed by
    ``_pack_terms`` straight from their term generators, which give their
    terms by second-row length and reject a coefficient outside [0, 2^k):
    the form of ``gf_trivial`` where ``_vacuous`` finds
    that the coupling cannot bind (an empty first row included), and that
    of ``gf_diagonal`` for one diagonal run that meets the reflection
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
    offset d + m on [alpha_1, t - 1] with the same second row.  So the
    value is the sum over m of C(eps_1 - t + 1, m) times that sub-value,
    unshifted: each term keeps l + d >= 0 and counts a disjoint subset of
    the caller's arrays.
    Without this step every peel's prefix windows, which end in such
    columns, would be peeled again one column at a time.

    Every other spec is peeled at a column x of its window.  Write g for the
    boundary clamped below at alpha_2 and split each array at its first
    second-row entry b_s >= g(x).  As g is weakly increasing, b_s is at least
    g at every column up to x and pairs with none of them.  So either b_s and
    the entries above it are among the at most d unpaired top entries (the
    boundary terms), or b_s pairs with a first-row entry j > x; then the
    entries from that pair on form a tail of type -d on
    [j, eps_1] x [g(x), eps_2] whose first row starts exactly at j, and the
    entries before it an array of type l + d, offset 0, on
    [alpha_1, j - 1] x [alpha_2, g(x) - 1].  Every pair lies in one part and
    every such pair of parts glues back, so the peel is exact at every x,
    not only at a piece boundary of ``_runs``.  The choice of x decides
    only the shape of the parts, and the engine takes the column before the
    maximal run of g that ends at eps_1.  Then each tail window [j, eps_1]
    with j > x lies on that one run, which the clamp at g(x) leaves as it
    is; a diagonal tail is a closed form or, failing the hypothesis, one
    peel at its eps_1, and a flat one peels into vacuous terms.  Where the
    run fills the window, the spec is a diagonal closed form or is peeled at
    x = eps_1: a second-row entry at or above f(eps_1) exceeds the boundary
    at every first-row entry, so only boundary terms remain, with
    eps_2 = f(eps_1) - 1, vacuous under a flat run and meeting the
    hypothesis under a diagonal one.  Every left part and boundary term
    has a smaller eps_2 and every tail a larger alpha_1, so the recursion
    ends.  It shares no formula with the direct multi-sum, and
    ``direct == recursive`` checks two independent computations.

    The peel skips its tails where none can hold an array.  The tail pinned
    at j has type -d and its first row starts at j: that row has k - d >= 1
    entries, so the second row has k >= d + 1 entries, all in [g(x), eps_2].
    With d > eps_2 - g(x) that range has fewer slots, every pinned tail is
    empty, and every difference tail - above is 0, so the loop over j adds
    nothing and is not run.  The boundary term of offset e puts d - e
    unpaired top entries in [g(x), eps_2], in C(eps_2 - g(x) + 1, d - e)
    ways, so its value is shifted by d - e digits, and its loop starts
    where that weight is nonzero.  g(x) <= eps_2 at every
    peel, so these binomials and that of ``above`` are ordinary: ``comb``.
    Only the reflection form needs the extended ``polyring._binomial``.

    The engine keeps the ladder's boundary tuple ``values``, not the
    ladder.  The boundary clamped into [alpha_2, eps_2 + 1] is a function of
    the numeric parameters alone, so the memo key is just the parameter
    tuple.  ``_last_run`` reads the run of g that ends at eps_1 in O(1) from
    a run index built once per engine: for each column, the first column of
    the flat run and of the diagonal run of f that end there.  The clearing
    columns are split off first, so no window that ``_eval`` peels reaches
    eps_2 + 1, and the upper clamp never applies there.
    """

    def __init__(self, ladder: LadderFunction, specs: Iterable[TASpec]):
        # the boundary tuple, not the ladder: no ladder -> engine -> ladder
        # cycle, so refcounting frees the engine with its ladder
        self.values = vals = ladder.values
        self.k = max(map(_row_slots, specs)) + 1
        self.memo: dict[tuple, int] = {}
        # the run index: a column starts its own flat (diagonal) run unless
        # f steps into it by 0 (by 1); f is flat left of 0
        flat, diag = [-inf], [0]
        for x in range(1, len(vals)):
            step = vals[x] - vals[x - 1]
            flat.append(flat[-1] if step == 0 else x)
            diag.append(diag[-1] if step == 1 else x)
        self._flat_start, self._diag_start = flat, diag

    def gf(self, spec: TASpec) -> HalfPolynomial:
        """The generating function of spec, unpacked; spec must be no wider
        than those the engine was made for."""
        if _row_slots(spec) >= self.k:
            raise PreconditionViolated(
                f"spec spans {_row_slots(spec)} row slots; the engine packs "
                f"at most {self.k - 1}"
            )
        v = self.eval(spec.l, spec.start.x, spec.start.y, spec.end.x, spec.end.y, spec.d)
        return _spread(_digits(v, self.k), spec.l)

    def _pieces(self, a1, a2, e1, e2) -> list[tuple[int, int, bool, int]]:
        """``_runs`` of the boundary on columns a1..e1, clamped column by
        column into [a2, e2 + 1], with a trailing clamped-flat piece merged
        into a preceding diagonal that clears the clamp level.  The boundary
        is f(0) left of column 0 and undefined right of a (ValueError)."""
        vals = self.values
        if e1 >= len(vals):
            raise ValueError(f"boundary undefined at x={e1} > a={len(vals) - 1}")
        top = e2 + 1
        pieces = _runs([min(max(vals[max(x, 0)], a2), top) for x in range(a1, e1 + 1)], a1)
        if len(pieces) >= 2:
            x_lo, x_hi, diagonal, level = pieces[-2]
            _, x_end, last_diagonal, last_level = pieces[-1]
            if not last_diagonal and last_level == top and diagonal \
                    and x_hi + level + 2 >= top:
                pieces[-2:] = [(x_lo, x_end, True, level)]
        return pieces

    def _last_run(self, a1, a2, e1, e2) -> tuple[int, bool, int]:
        """The maximal run ending at e1 of the boundary on columns a1..e1
        clamped below at a2, as (x_lo, diagonal, level) for the columns
        x_lo+1..e1, read from the run index in O(1).  The run fills the
        window iff x_lo = a1 - 1; a lone column counts as flat, at level
        g(e1), and a diagonal run's level is D with g(x) = x + D + 1.

        The window must hold a column (a1 <= e1 <= a) and lie below the
        top, f(e1) <= e2, as every window the engine peels does; there the
        upper clamp at e2 + 1 changes nothing, so it is not computed.
        """
        vals = self.values
        c = max(e1, 0)
        h = vals[c]
        if h <= a2 or e1 == a1:  # flat at max(h, a2) throughout, or one column
            return a1 - 1, False, max(h, a2)
        s = self._flat_start[c]
        if s < c:  # g = f = h > a2 on the flat run, and g < h left of it
            return max(s, a1) - 1, False, h
        s = self._diag_start[c]
        if vals[s] < a2:  # the clamp flattens the run left of f = a2
            s = e1 - h + a2
        elif vals[s] == a2 + 1 and s and vals[s - 1] < a2:
            s -= 1  # the column before clamps up to a2 = f(s) - 1 and joins
        if s == e1:  # a step of 2 or more into e1, not clamped away
            return e1 - 1, False, h
        return max(s, a1) - 1, True, h - e1 - 1

    def _vacuous(self, l, a1, a2, e1, e2, d) -> bool:
        """Can the coupling never bind?  Sufficient, not necessary, but both
        clauses end the recursion, as a peel at fx > eps_2 asks for its own
        key: the first takes an empty second row (fx >= alpha_2 > eps_2), the
        second a window left of column 0, unseen by the split, with f(0) > eps_2."""
        kmax = min(max(0, e1 - a1 + 1) - l, max(0, e2 - a2 + 1))
        if kmax <= d:
            return True  # every second row is too short to reach a pair
        return e2 - d < self.values[max(a1, 0)]  # a1 <= e1 <= a here

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
        t = bisect_left(self.values, e2 + 1, max(a1, 0), e1 + 1)
        if t <= e1:
            w = e1 - t + 1
            acc = 0
            for m in range(0, min(w, e2 - a2 + 1 + l) + 1):
                acc += self.eval(l - m, a1, a2, t - 1, e2, d + m) * comb(w, m)
            return acc
        x, diagonal, level = self._last_run(a1, a2, e1, e2)
        if x < a1:  # one run fills the window
            if diagonal and e1 + level + 1 + d >= e2:
                return _pack_terms(_diagonal_terms(l, a1, a2, e1, e2, level, d), self.k)
            x = e1  # one flat run, or a failing diagonal: only boundary terms remain
        # by the split above, or by _vacuous where the split cannot see
        fx = max(self.values[max(x, 0)], a2)  # <= e2, so the recursion ends
        acc = 0
        # pinned-start tail on [j, eps_1] = start j minus start j + 1; from
        # start eps_1 + 1 the first row is empty and the d second-row entries
        # in [f(x), eps_2] pair with nothing.  A tail's nonempty first row
        # needs d + 1 second-row entries in [f(x), eps_2]: with fewer slots
        # every tail is empty, so the peel adds nothing
        if d <= e2 - fx:
            above = comb(e2 - fx + 1, d) << (self.k * d)
            for j in range(e1, x, -1):
                tail = self.eval(-d, j, fx, e1, e2, d)
                acc += self.eval(l + d, a1, a2, j - 1, fx - 1, 0) * (tail - above)
                above = tail
        for e in range(max(0, d - (e2 - fx + 1)), d + 1):
            c = comb(e2 - fx + 1, d - e)
            acc += (self.eval(l + d - e, a1, a2, e1, fx - 1, e) * c) << (self.k * (d - e))
        return acc


def _engine_for(ladder: LadderFunction, specs: list[TASpec]) -> _Engine:
    """The ladder's engine, so that every query on one ladder object shares
    its memo, which lives as long as that ladder object.

    The ladder keeps the engine in its ``_engine`` attribute, the instance
    cache idiom of ``functools.cached_property``; the attribute takes no
    part in equality, hashing, repr, copying or pickling.  An engine packs
    at a fixed width k, so when a spec needs a wider one, a new engine made
    for these specs replaces it, and the old one is freed.  A pass over the
    minors of one ladder grows k a few times.  Two threads may race to
    replace it; every engine's values are exact, so the worst a race does
    is recompute some of them.
    """
    engine = getattr(ladder, "_engine", None)
    if engine is None or any(_row_slots(spec) >= engine.k for spec in specs):
        engine = _Engine(ladder, specs)
        object.__setattr__(ladder, "_engine", engine)
    return engine


def gf_recursive(spec: TASpec) -> HalfPolynomial:
    """Evaluate the generating function by border peeling, from the
    ladder's engine; ``_Engine`` states the decomposition and why it is
    exact.  The base cases are ``gf_trivial`` where the coupling cannot
    bind and ``gf_diagonal`` for one diagonal run; the direct multi-sum is
    never called."""
    _require_pairing(spec.l, spec.d)
    return _engine_for(spec.ladder, [spec]).gf(spec)


def gf_star_recursive(spec: TASpec) -> HalfPolynomial:
    """Border peeling for arrays whose first row starts exactly at alpha_1:
    ``gf_recursive`` at spec minus ``gf_recursive`` at first-row start
    alpha_1 + 1, whose set is smaller, so both come from one engine."""
    return _pinned(lambda l, alpha, eps: gf_recursive(replace(spec, start=alpha)),
                   spec.l, spec.start, spec.end)
