"""Closed forms, the border partition, and both evaluation strategies.

Every closed form is pinned to exhaustive enumeration; the two strategies
are pinned to each other and to the oracle on random ladders.
"""

import random
import time
from dataclasses import replace

import pytest

from laddergf import (
    Bivector,
    BorderPiece,
    EndpointOutsideLadder,
    HalfPolynomial,
    LadderError,
    PreconditionViolated,
    StarRequiresNonemptyFirstColumn,
    TASpec,
    ValidationError,
    binomial,
    endpoints_from_bivector,
    enumerate_arrays,
    gf_diagonal,
    gf_direct,
    gf_recursive,
    gf_star_diagonal,
    gf_star_recursive,
    gf_star_trivial,
    gf_trivial,
    partition_border,
    validate_general_endpoints,
    validate_ladder,
)
from laddergf.genfun import (
    _Engine,
    _diagonal_terms,
    _direct_steps,
    _direct_sum,
    _runs,
    _trivial_terms,
    gf_direct_row,
)
from laddergf.hilbert import matrix_specs
from laddergf.polyring import _digits, _pack_terms
from helpers import flagship_ladder, random_ladder, random_taspec_wide

P = HalfPolynomial


def _packed(p: HalfPolynomial, l: int, k: int) -> int:
    """A generating function of type l in the recursive engine's format: its
    q^(2i + l) coefficient at base-2^k digit i.  Raises ValueError unless
    every coefficient is a base-2^k digit at such an exponent."""
    if any(c for e, c in enumerate(p.coeffs) if (e - l) % 2 or e < l):
        raise ValueError(f"{p} is no type-{l} generating function")
    return _pack_terms([((e - l) // 2, c) for e, c in enumerate(p.coeffs) if c], k)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_gf_trivial_examples():
    # type 0 on a 2x2 box: 1 empty array, 4 of size two, 1 of size four
    assert gf_trivial(0, (0, 0), (1, 1)) == P([1, 0, 4, 0, 1])
    # type 1: two arrays of size one, two of size three
    assert gf_trivial(1, (0, 0), (1, 1)) == P([0, 2, 0, 2])
    # empty first-row range leaves only the empty array
    assert gf_trivial(0, (0, 0), (-1, 5)) == P.one()


def test_gf_star_trivial_examples():
    assert gf_star_trivial(0, (0, 0), (1, 1)) == P([0, 0, 2, 0, 1])
    with pytest.raises(StarRequiresNonemptyFirstColumn):
        gf_star_trivial(0, (1, 0), (0, 5))


def test_gf_star_trivial_is_set_difference():
    rng = random.Random(11)
    for _ in range(100):
        a1, a2 = rng.randint(-3, 3), rng.randint(-3, 3)
        e1, e2 = a1 + rng.randint(0, 5), a2 + rng.randint(-2, 5)
        l, d = rng.randint(-3, 3), rng.randint(0, 2)
        diff = gf_trivial(l, (a1, a2), (e1, e2), d) - gf_trivial(l, (a1 + 1, a2), (e1, e2), d)
        assert gf_star_trivial(l, (a1, a2), (e1, e2), d) == diff


def test_gf_star_trivial_single_column():
    lad = validate_ladder(0, 2, [3])
    # first row pinned to {0}: only the size-one array survives
    truth = enumerate_arrays(TASpec(1, (0, 0), (0, 1), 0, lad)) - enumerate_arrays(
        TASpec(1, (1, 0), (0, 1), 0, lad)
    )
    assert gf_star_trivial(1, (0, 0), (0, 1)) == truth == P([0, 1])


def test_gf_diagonal_examples():
    # boundary b_i <= a_i: pairs (0,0), (1,0), (1,1) at size two
    assert gf_diagonal(0, (0, 0), (1, 1), 0, 0) == P([1, 0, 3, 0, 1])


def test_gf_diagonal_against_enumeration():
    lad = validate_ladder(2, 2, [1, 2, 3])  # f(x) = x + 1, offset D = 0
    spec = TASpec(1, (0, 1), (2, 2), 0, lad)
    assert gf_diagonal(1, (0, 1), (2, 2), 0, 0) == enumerate_arrays(spec)


def test_gf_diagonal_large_offset_is_trivial():
    rng = random.Random(12)
    for _ in range(60):
        a1, a2 = rng.randint(-2, 2), rng.randint(-2, 2)
        e1, e2 = a1 + rng.randint(0, 4), a2 + rng.randint(0, 4)
        d = rng.randint(0, 2)
        l = rng.randint(-d, 3)
        D = e2 - a1 + 1  # reflection term vanishes identically
        assert gf_diagonal(l, (a1, a2), (e1, e2), D, d) == gf_trivial(l, (a1, a2), (e1, e2), d)


def test_gf_diagonal_preconditions():
    with pytest.raises(PreconditionViolated):
        gf_diagonal(0, (0, 9), (3, 3), 0, 0)  # alpha side fails
    with pytest.raises(PreconditionViolated):
        gf_diagonal(0, (0, 0), (3, 9), 0, 0)  # eps side fails
    with pytest.raises(PreconditionViolated):
        gf_diagonal(-2, (0, 0), (3, 3), 0, 1)  # l + d < 0
    with pytest.raises(PreconditionViolated):
        gf_diagonal(0, (0, 0), (3, 3), 0, -1)  # d < 0
    with pytest.raises(StarRequiresNonemptyFirstColumn):
        gf_star_diagonal(0, (4, 0), (3, 3), 0, 0)


def test_gf_star_diagonal_is_set_difference():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        a1, a2 = rng.randint(-2, 2), rng.randint(-2, 2)
        e1, e2 = a1 + rng.randint(0, 4), a2 + rng.randint(-1, 4)
        d = rng.randint(0, 2)
        l = rng.randint(-d, 3)
        D = rng.randint(-3, 4)
        if a1 + D + 1 + l + d < a2 or e1 + D + 1 + d < e2:
            continue
        if (a1 + 1) + D + 1 + l + d < a2:
            continue
        diff = gf_diagonal(l, (a1, a2), (e1, e2), D, d) - gf_diagonal(
            l, (a1 + 1, a2), (e1, e2), D, d
        )
        assert gf_star_diagonal(l, (a1, a2), (e1, e2), D, d) == diff
        checked += 1


def test_gf_star_diagonal_small_case():
    lad = validate_ladder(1, 1, [1, 2])  # f(x) = x + 1
    truth = enumerate_arrays(TASpec(0, (0, 0), (1, 1), 0, lad)) - enumerate_arrays(
        TASpec(0, (1, 0), (1, 1), 0, lad)
    )
    assert gf_star_diagonal(0, (0, 0), (1, 1), 0, 0) == truth


# ---------------------------------------------------------------------------
# border partition
# ---------------------------------------------------------------------------

def test_partition_border_flagship():
    pieces = partition_border(flagship_ladder())
    assert pieces == [
        BorderPiece(-1, 3, "horizontal", 7),
        BorderPiece(3, 7, "diagonal", 5),
        BorderPiece(7, 13, "horizontal", 16),
    ]


def test_partition_border_trivial():
    lad = validate_ladder(3, 2, [3, 3, 3, 3])
    assert partition_border(lad) == [BorderPiece(-1, 3, "horizontal", 3)]


def test_partition_border_staircase():
    lad = validate_ladder(2, 2, [1, 2, 3])
    assert partition_border(lad) == [BorderPiece(-1, 2, "diagonal", 0)]


def test_partition_border_singletons():
    lad = validate_ladder(2, 6, [1, 4, 7])
    pieces = partition_border(lad)
    assert [p.kind for p in pieces] == ["horizontal"] * 3
    assert [(p.x_lo, p.x_hi) for p in pieces] == [(-1, 0), (0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# direct and recursive evaluation
# ---------------------------------------------------------------------------

def test_taspec_validation():
    lad = validate_ladder(2, 2, [1, 2, 3])
    with pytest.raises(PreconditionViolated):
        TASpec(0, (0, 0), (1, 1), -1, lad)
    with pytest.raises(EndpointOutsideLadder):
        TASpec(0, (0, 0), (3, 1), 0, lad)
    with pytest.raises(PreconditionViolated):
        gf_recursive(TASpec(-2, (0, 0), (1, 1), 1, lad))
    with pytest.raises(PreconditionViolated):
        gf_direct(TASpec(-2, (0, 0), (1, 1), 1, lad))
    with pytest.raises(StarRequiresNonemptyFirstColumn):
        gf_star_recursive(TASpec(0, (2, 0), (1, 1), 0, lad))


@pytest.mark.parametrize("l, d", [(0.5, 0), (True, 0), ("0", 0), (0, 1.0), (0, True)],
                         ids=["l=0.5", "l=True", "l='0'", "d=1.0", "d=True"])
def test_taspec_type_and_offset_must_be_ints(l, d):
    """A non-integer l or d, a bool included, is rejected up front, instead
    of one engine answering (or answering 0) where the other raises."""
    lad = validate_ladder(3, 3, [1, 2, 3, 4])
    with pytest.raises(ValidationError):
        TASpec(l, (0, 0), (3, 3), d, lad)


@pytest.mark.parametrize("form, args", [
    (gf_trivial, (True, (0, 0), (3, 3))),
    (gf_trivial, (1.0, (0, 0), (3, 3))),
    (gf_trivial, (0, (0, 0), (3, 3), 0.5)),
    (gf_star_trivial, (0, (0, 0), (3, 3), True)),
    (gf_star_trivial, (0.0, (0, 0), (3, 3))),
    (gf_diagonal, (False, (0, 0), (3, 3), 0, 0)),
    (gf_diagonal, (0, (0, 0), (3, 3), 1.0, 0)),
    (gf_diagonal, (0, (0, 0), (3, 3), 0, True)),
    (gf_star_diagonal, (0, (0, 0), (3, 3), True, 0)),
    (gf_star_diagonal, (0, (0, 0), (3, 3), 0, 0.0)),
])
def test_closed_forms_take_int_parameters(form, args):
    """The closed forms check l, D and d as ``TASpec`` checks l and d: a
    bool or a float raises ValidationError, not an answer for 0 or 1 or a
    bare TypeError."""
    with pytest.raises(ValidationError):
        form(*args)


def test_direct_on_trivial_ladder():
    lad = validate_ladder(1, 1, [2, 2])
    spec = TASpec(0, (0, 0), (1, 1), 0, lad)
    assert gf_direct(spec) == P([1, 0, 4, 0, 1])


def test_point_spec_on_trivial_ladder():
    for b in range(0, 3):
        lad = validate_ladder(0, b, [b + 1])
        spec = TASpec(0, (0, 0), (0, 0), 0, lad)
        # two arrays: the empty one, and a single column (0; 0)
        assert gf_direct(spec) == gf_recursive(spec) == P([1, 0, 1])


def test_flagship_subinstance_cross_method():
    lad = flagship_ladder()
    spec = TASpec(0, (0, 1), (5, 8), 0, lad)
    truth = enumerate_arrays(spec)
    assert gf_direct(spec) == truth
    assert gf_recursive(spec) == truth


def test_methods_match_oracle_on_random_specs():
    # one flat piece at level 3 <= eps_2 = 5, not vacuous for d = 1, 2:
    # the recursive engine peels it at x = eps_1
    flat = validate_ladder(4, 5, [3] * 5)
    specs = [TASpec(0, (0, 0), (4, 5), d, flat) for d in (1, 2)]
    assert not any(_Engine(flat, specs)._vacuous(0, 0, 0, 4, 5, s.d) for s in specs)
    rng = random.Random(321)
    for _ in range(120):
        specs.append(random_taspec_wide(rng, random_ladder(rng)))
    for spec in specs:
        truth = enumerate_arrays(spec)
        assert gf_direct(spec) == truth, spec
        assert gf_recursive(spec) == truth, spec


def test_direct_on_negative_width_ranges():
    """Either row's range may have negative width (eps < alpha - 1); it
    holds no entry, like an empty one.  A second row of negative width once
    inverted the direct engine's clamp window and lost every array."""
    lad = validate_ladder(4, 4, (2, 3, 3, 4, 5))
    spec = TASpec(1, (0, 3), (3, 1), 0, lad)
    assert gf_direct(spec) == gf_recursive(spec) == enumerate_arrays(spec) == P([0, 4])
    rng = random.Random(1919)
    negative = [0, 0]
    for _ in range(300):
        lad = random_ladder(rng, amax=6, bmax=6)
        a, b = lad.a, lad.b
        d = rng.randint(0, 3)
        l = rng.randint(-d, 3)
        a1 = rng.randint(-2, a)
        e1 = rng.randint(min(a1 - 3, a), a)
        a2 = rng.randint(0, b + 1)
        e2 = rng.randint(a2 - 3, b + 2)
        negative[0] += e1 < a1 - 1
        negative[1] += e2 < a2 - 1
        spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
        truth = enumerate_arrays(spec)
        assert gf_direct(spec) == truth, spec
        assert gf_recursive(spec) == truth, spec
    assert min(negative) >= 50, negative


def test_direct_sum_reachability_cut_edges():
    """The direct multi-sum against enumeration where its reachability cut
    is tight: the smallest type l = -d and the largest ones a window
    allows (l = w1 keeps every first-row slot and no second-row entry),
    an empty first row, a first row starting left of column 0, a second
    row reaching past the ladder's top, and d up to 3."""
    rng = random.Random(2019)
    cases = 0
    for _ in range(120):
        lad = random_ladder(rng, amin=2, bmin=2, amax=7, bmax=7)
        a, b = lad.a, lad.b
        d = rng.randint(0, 3)
        a1 = rng.randint(-2, a)
        e1 = rng.randint(a1 - 1, a)
        a2 = rng.randint(0, lad.value(a1))
        e2 = rng.randint(max(a2, b - 1), b + 3)
        w1 = e1 - a1 + 1
        for l in {-d, 1 - d, w1 - 1, w1, w1 + 1}:
            if l + d < 0:
                continue
            spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
            assert _direct_sum(lad, l, a1, a2, e1, e2, d) == enumerate_arrays(spec), spec
            cases += 1
    assert cases >= 400, cases


def _general_endpoints(rng, lad, n):
    """n random start/end pairs that ``validate_general_endpoints`` takes,
    or None: starts on strictly falling rows from a first start on the flat
    prefix (left of column 0 allowed), ends on strictly rising columns."""
    flat = 0
    while flat < lad.a and lad.value(flat + 1) == lad.value(0):
        flat += 1
    xs = sorted([rng.randint(-2, flat)] + [rng.randint(-2, lad.a) for _ in range(n - 1)])
    if lad.value(xs[0]) < n or lad.a + 1 < n:
        return None
    ys = sorted(rng.sample(range(lad.value(xs[0])), n), reverse=True)
    ex = sorted(rng.sample(range(lad.a + 1), n))
    ey = [rng.randint(lad.value(ex[0]) // 2, lad.value(ex[0]) - 1)]
    for _ in range(n - 1):
        ey.append(rng.randint(0, ey[-1]))
    try:
        return validate_general_endpoints(lad, list(zip(xs, ys)), list(zip(ex, ey)))
    except LadderError:
        return None


def test_direct_rows_fork_where_their_steps_differ():
    """Each entry of a determinant row, answered by one sweep of the row,
    equals enumeration and the recursive engine, in either order of the
    row's entries.  The rows come from random general endpoints, n = 2..4,
    and hold every case in which a target's steps leave the shared ones,
    and rows that fork: a whole window in one clamped block
    (f(eps_1) <= alpha_2), an empty first row, a second row of negative
    width, a first row starting left of column 0, and two targets with
    equal alpha_2.  Budget 60 s; about 1 s on a 2-vCPU Xeon VM."""
    rng = random.Random(2323)
    t0 = time.perf_counter()
    seen = dict.fromkeys(("one block", "empty first row", "negative second row",
                          "left of column 0", "equal alpha_2", "forked"), 0)
    rows = 0
    while rows < 2000:
        lad = random_ladder(rng, amin=2, bmin=2, amax=6, bmax=6)
        cfg = _general_endpoints(rng, lad, rng.randint(2, 4))
        if cfg is None:
            continue
        for row in matrix_specs(lad, cfg):
            rows += 1
            # reversed too: the sweep must not depend on the targets' order
            backwards = gf_direct_row(row[::-1])[::-1]
            for spec, got, back in zip(row, gf_direct_row(row), backwards):
                assert got == back == enumerate_arrays(spec) == gf_recursive(spec), spec
                (a1, a2), (e1, e2) = spec.start, spec.end
                seen["one block"] += a1 <= e1 and lad.value(e1) <= a2
                seen["empty first row"] += e1 < a1
                seen["negative second row"] += e2 < a2 - 1
                seen["left of column 0"] += a1 < 0 <= e1
            seen["equal alpha_2"] += len({spec.start.y for spec in row}) < len(row)
            e1, e2 = row[0].end
            paths = {tuple(_direct_steps(lad.values, *s.start, e1, e2)) for s in row}
            seen["forked"] += len(paths) > 1
    assert min(seen.values()) >= 30, seen
    assert time.perf_counter() - t0 < 60.0


def test_direct_row_needs_one_end_offset_and_ladder():
    """A row sweep shares the end, the offset and the ladder of its specs,
    so specs that differ in any of them, or break the pairing rule, raise
    PreconditionViolated; an empty row has no entries."""
    lad = flagship_ladder()
    spec = TASpec(0, (0, 2), (5, 6), 1, lad)
    other = validate_ladder(lad.a, lad.b, [lad.b + 1] * (lad.a + 1))
    for bad in (replace(spec, end=(4, 6)), replace(spec, d=2), replace(spec, ladder=other),
                replace(spec, l=-2)):
        with pytest.raises(PreconditionViolated):
            gf_direct_row([spec, bad])
    assert gf_direct_row([spec, spec]) == [gf_direct(spec)] * 2
    assert gf_direct_row([]) == []


def test_direct_steps_take_the_top_layer_only_when_it_moves():
    """The steps run from eps_1 down with g read as eps_2 + 1 above it, so
    the top layer (0, eps_2 + 1 - g(eps_1)) is a step only when it moves
    f; an empty first row has the one step (0, eps_2 + 1 - alpha_2).  The
    widths sum to the first row's width and the rises to the second's."""
    values = (1, 2, 4, 4, 6)
    assert _direct_steps(values, 3, 1, 2, 4) == [(0, 4)]
    assert _direct_steps(values, 0, 0, 4, 4) == [(1, 1), (2, 2), (1, 1), (1, 1)]
    assert _direct_steps(values, 0, 0, 4, 6) == [(0, 1), (1, 2), (2, 2), (1, 1), (1, 1)]
    lad = validate_ladder(4, 6, values)
    spec = TASpec(0, (0, 0), (4, 4), 1, lad)
    assert gf_direct(spec) == enumerate_arrays(spec) == gf_recursive(spec)
    rng = random.Random(2424)
    seen = {"no top layer": 0, "top layer": 0, "empty first row": 0}
    for _ in range(400):
        spec = random_taspec_wide(rng, random_ladder(rng, amax=7, bmax=7))
        (a1, a2), (e1, e2) = spec.start, spec.end
        steps = _direct_steps(spec.ladder.values, a1, a2, e1, e2)
        assert sum(w for w, _ in steps) == max(0, e1 - a1 + 1), (spec, steps)
        assert sum(r for _, r in steps) == max(e2, a2 - 1) + 1 - a2, (spec, steps)
        assert all(w for w, _ in steps[1:]) and (0, 0) not in steps[:-1], (spec, steps)
        if e1 < a1:
            seen["empty first row"] += 1
            assert len(steps) == 1
        else:
            seen["top layer" if steps[0][0] == 0 else "no top layer"] += 1
    assert min(seen.values()) >= 30, seen


def test_recursive_equals_trivial_form_on_trivial_ladders():
    rng = random.Random(17)
    for _ in range(40):
        b = rng.randint(0, 6)
        a = rng.randint(0, 6)
        lad = validate_ladder(a, b, [b + 1] * (a + 1))
        d = rng.randint(0, 3)
        l = rng.randint(-d, 3)
        a1 = rng.randint(-2, a)
        e1 = rng.randint(a1 - 1, a)
        a2 = rng.randint(0, b)
        e2 = rng.randint(a2 - 1, b)
        spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
        assert gf_recursive(spec) == gf_trivial(l, (a1, a2), (e1, e2), d)


def test_recursive_packing_width_on_wide_ladders():
    """Coefficients within 6 bits of 2^W, W = 60 row slots.

    The engine packs each value in base 2^(W + 1); the trivial ladder gives
    the closed forms exactly, and a boundary step to the top from two rows
    under it (binding for every d <= 2) sends the same spec through the
    peel, whose products and sums must not carry.
    """
    a = b = 29
    trivial = validate_ladder(a, b, [b + 1] * (a + 1))
    step = validate_ladder(a, b, [b - 2] * a + [b + 1])
    for d in range(0, 3):
        for l in range(-d, 3):
            spec = TASpec(l, (0, 0), (a, b), d, trivial)
            widest = max(gf_trivial(l, (0, 0), (a, b), d).coeffs)
            assert widest.bit_length() >= 2 * (a + 1) - 6
            assert gf_recursive(spec) == gf_trivial(l, (0, 0), (a, b), d)
            assert gf_star_recursive(spec) == gf_star_trivial(l, (0, 0), (a, b), d)
            spec = TASpec(l, (0, 0), (a, b), d, step)
            shifted = TASpec(l, (1, 0), (a, b), d, step)
            assert gf_recursive(spec) == gf_direct(spec), (l, d)
            assert gf_star_recursive(spec) == gf_direct(spec) - gf_direct(shifted), (l, d)


def test_packing_helpers_reject_bad_input():
    assert _digits(_pack_terms(enumerate((3, 0, 7)), 3), 3) == [3, 0, 7]
    assert _pack_terms([], 1) == 0 and _digits(0, 1) == []
    with pytest.raises(ValueError):
        _pack_terms(enumerate((1, -1)), 4)
    with pytest.raises(ValueError):
        _pack_terms(enumerate((16,)), 4)
    with pytest.raises(ValueError):
        _digits(-1, 4)
    with pytest.raises(ValueError):
        _digits(1, 0)
    lad = validate_ladder(3, 3, [1, 2, 3, 4])
    engine = _Engine(lad, [TASpec(0, (0, 0), (1, 1), 0, lad)])
    with pytest.raises(PreconditionViolated):
        engine.gf(TASpec(0, (0, 0), (3, 3), 0, lad))


def _closed_form_cases(rng):
    """Seeded (l, a1, a2, e1, e2, d): a1 < 0 in about half, an empty first
    row (e1 = a1 - 1) or an empty second row (e2 = a2 - 1) in a fifth each,
    l = -d in a quarter."""
    for i in range(400):
        d = rng.randint(0, 3)
        l = -d if i % 4 == 0 else rng.randint(-d, 4)
        a1, a2 = rng.randint(-4, 3), rng.randint(-4, 4)
        e1 = a1 - 1 if i % 5 == 1 else a1 + rng.randint(0, 7)
        e2 = a2 - 1 if i % 5 == 2 else a2 + rng.randint(0, 7)
        yield l, a1, a2, e1, e2, d


def test_packed_closed_forms_match_public_ones():
    """The engine packs the closed forms from their term generators; the
    result must equal the public HalfPolynomial packed by ``_packed``.  The
    diagonal offsets D sit at the edge of the reflection hypothesis
    (alpha_1 + D + 1 + l + d = alpha_2 or eps_1 + D + 1 + d = eps_2) and up
    to two beyond it."""
    rng = random.Random(2207)
    for l, a1, a2, e1, e2, d in _closed_form_cases(rng):
        w1, w2 = e1 - a1 + 1, e2 - a2 + 1
        k = max(0, w1) + max(0, w2) + 1
        packed = _pack_terms(_trivial_terms(l, a1, a2, e1, e2), k)
        assert packed == _packed(gf_trivial(l, (a1, a2), (e1, e2), d), l, k)
        # the product formula with ``binomial`` on the raw widths
        assert packed == sum(binomial(w1, j + l) * binomial(w2, j) << k * j
                             for j in range(max(0, -l), 12))
        edge = max(a2 - a1 - 1 - l - d, e2 - e1 - 1 - d)
        for D in (edge, edge + 1, edge + 2):
            packed = _pack_terms(_diagonal_terms(l, a1, a2, e1, e2, D, d), k)
            public = _packed(gf_diagonal(l, (a1, a2), (e1, e2), D, d), l, k)
            assert packed == public, (l, a1, a2, e1, e2, D, d)


def test_packed_closed_forms_reject_wide_coefficients():
    with pytest.raises(ValueError):
        _pack_terms([(0, 1), (1, 16)], 4)
    with pytest.raises(ValueError):
        _pack_terms([(1, -1)], 4)
    # C(4, 2)^2 = 36 does not fit in 5 bits, though every row slot count does
    assert max(gf_trivial(0, (0, 0), (3, 3)).coeffs) == 36
    with pytest.raises(ValueError):
        _pack_terms(_trivial_terms(0, 0, 0, 3, 3), 5)
    with pytest.raises(ValueError):
        _pack_terms(_diagonal_terms(0, 0, 0, 3, 3, 3, 0), 5)
    assert _pack_terms(_trivial_terms(0, 0, 0, 3, 3), 6) == _packed(gf_trivial(0, (0, 0), (3, 3)), 0, 6)


def test_engine_on_one_diagonal_piece_matches_enumeration():
    """Windows whose clamped boundary is one diagonal piece, with eps_2 at
    the edge of the reflection hypothesis or inside it: the engine's value
    equals the enumeration, and the packed ``gf_diagonal`` too."""
    rng = random.Random(2208)
    by_formula = 0
    for _ in range(150):
        D, a = rng.randint(0, 3), rng.randint(1, 6)
        lad = validate_ladder(a, a + D, [x + D + 1 for x in range(a + 1)])
        d = rng.randint(0, 2)
        l = rng.randint(-d, 2)
        a1 = rng.randint(0, a - 1)
        e1 = rng.randint(a1 + 1, a)  # one column would be a flat singleton
        e2 = e1 + D + 1 + d - rng.randint(0, 1)
        a2 = rng.randint(max(0, a1 + D - 1), a1 + D + 1)
        spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
        engine = _Engine(lad, [spec])
        truth = _packed(enumerate_arrays(spec), l, engine.k)
        assert engine.eval(l, a1, a2, e1, e2, d) == truth
        assert engine._pieces(a1, a2, e1, e2) == [(a1 - 1, e1, True, D)]
        assert _packed(gf_diagonal(l, (a1, a2), (e1, e2), D, d), l, engine.k) == truth
        by_formula += not engine._vacuous(l, a1, a2, e1, e2, d)
    assert by_formula >= 50


def test_engine_splits_off_columns_clearing_eps2():
    """Windows in which the boundary first reaches eps_2 + 1 at a column t
    in (alpha_1, eps_1]: the first-row entries in [t, eps_1] clear every
    second-row entry, and the engine splits them off in one step.  Its
    value equals the enumeration and the direct engine.  The windows
    include alpha_1 < 0, l = -d, d up to 3 and t = alpha_1 + 1.  The rule
    fired where the window is not vacuous and the engine never looked up a
    split point for it (``_last_run``); it does on at least 100."""
    rng = random.Random(2210)
    windows = fired = 0
    seen = set()
    while windows < 200:
        values = [rng.randint(1, 3)]
        for _ in range(rng.randint(1, 6)):
            values.append(values[-1] + rng.choice((0, 1, 2, 3, 4)))
        lad = validate_ladder(len(values) - 1, values[-1] - 1, values)
        a1 = rng.randint(-2, -1) if windows % 3 == 0 else rng.randint(-2, lad.a - 1)
        jumps = [x for x in range(max(a1 + 1, 1), lad.a + 1) if values[x] > values[x - 1]]
        if not jumps:
            continue
        t = a1 + 1 if windows % 5 == 0 and a1 + 1 in jumps else rng.choice(jumps)
        e1 = rng.randint(t, lad.a)
        e2 = rng.randint(values[t - 1], values[t] - 1)
        a2 = e2 - rng.randint(1, 6)
        d = rng.randint(0, 3)
        l = -d if windows % 4 == 0 else rng.randint(-d, 3)
        spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
        engine = _Engine(lad, [spec])
        partitioned = []
        last_run = engine._last_run
        engine._last_run = lambda *window: partitioned.append(window) or last_run(*window)
        truth = _packed(enumerate_arrays(spec), l, engine.k)
        assert engine.eval(l, a1, a2, e1, e2, d) == truth == _packed(gf_direct(spec), l, engine.k), spec
        windows += 1
        if not engine._vacuous(l, a1, a2, e1, e2, d) and (a1, a2, e1, e2) not in partitioned:
            fired += 1
            seen.update(name for name, hit in (("a1 < 0", a1 < 0), ("l = -d", l == -d),
                                               ("d = 3", d == 3), ("t = a1 + 1", t == a1 + 1))
                        if hit)
    assert fired >= 100
    assert seen == {"a1 < 0", "l = -d", "d = 3", "t = a1 + 1"}


def test_vacuous_ends_the_recursion_left_of_column_0():
    """A window left of column 0 whose boundary f(0) = 1 exceeds eps_2 = 0:
    the clearing split bisects from column 0 and sees no column, and a peel
    at eps_1 would ask for the same key again.  ``_Engine._vacuous``'s second
    clause returns the unrestricted form instead: the empty array and
    a_1 = -1 over b_1 = 0."""
    lad = validate_ladder(5, 8, (1, 2, 3, 4, 7, 9))
    spec = TASpec(0, (-1, 0), (-1, 0), 0, lad)
    engine = _Engine(lad, [spec])
    assert engine.gf(spec) == enumerate_arrays(spec) == P([1, 0, 1])


def _fresh_shaped_ladder(rng: random.Random, a: int, n: int):
    """An a x a ladder shaped like the benchmark's fresh ones, and the
    widths (h0, tail) of its first column and flat top block: short
    diagonal climbs from f(0) = h0 in n..n+3, a last diagonal run of 3-8
    columns ending 2-3 rows under a + 1, then a top block n..n+3 wide."""
    while True:
        h0, tail, final = rng.randint(n, n + 3), rng.randint(n, n + 3), rng.randint(3, 8)
        top = a + 1 - rng.randint(2, 3)
        values = [h0]
        while len(values) < a + 1 - tail - final:
            values.append(values[-1] + rng.choice((0, 1, 1, 1, 2)))
        # the last run must not extend a diagonal of the climb
        if values[-1] == top - final + 1 or values[-1] <= top - final - 1:
            values += list(range(top - final + 1, top + 1)) + [a + 1] * tail
            return validate_ladder(a, a, values), h0, tail


def test_peel_requests_no_empty_pinned_tail():
    """On ladders shaped like the benchmark's fresh ones, the peel never asks
    for a pinned tail (-d, j, f(x), eps_1, eps_2, d) with d > eps_2 - f(x):
    its nonempty first row would need d + 1 second-row entries in
    [f(x), eps_2], so every such tail is empty and adds nothing.  A tail is
    the one request that keeps its caller's (eps_1, eps_2, d).  Offsets
    reach 10 and more, and every matrix entry equals the direct engine's."""
    rng = random.Random(2611)
    tails = max_d = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        lad, h0, tail = _fresh_shaped_ladder(rng, rng.randint(16, 22), n)
        m = Bivector(tuple(sorted(rng.sample(range(1, h0 + 1), n))),
                     tuple(sorted(rng.sample(range(1, tail + 1), n))))
        specs = [spec for row in matrix_specs(lad, endpoints_from_bivector(lad, m))
                 for spec in row]
        engine = _Engine(lad, specs)
        callers, requests = [None], []
        evaluate = engine.eval

        def spy(*key):
            requests.append((callers[-1], key))
            callers.append(key)
            try:
                return evaluate(*key)
            finally:
                callers.pop()

        engine.eval = spy
        for spec in specs:
            assert engine.gf(spec) == gf_direct(spec), spec
        for caller, (l, j, fx, e1, e2, d) in requests:
            max_d = max(max_d, d)
            if caller is not None and caller[3:] == (e1, e2, d):
                assert l == -d and d <= e2 - fx, (caller, (l, j, fx, e1, e2, d))
                tails += 1
    assert tails >= 1000 and max_d >= 10, (tails, max_d)


def test_pinned_tails_past_the_slot_bound_are_empty():
    """By enumeration on small ladders: arrays of type -d whose first row
    starts exactly at alpha_1 need d + 1 second-row slots, so with
    d > eps_2 - alpha_2 there are none, while at d = eps_2 - alpha_2 some
    windows hold one."""
    rng = random.Random(2612)
    tight = 0
    for _ in range(40):
        lad = random_ladder(rng, amax=5, bmax=5, amin=1, bmin=1)
        e1, e2 = rng.randint(0, lad.a), rng.randint(0, lad.b)
        j, a2 = rng.randint(0, e1), rng.randint(0, e2)
        for d in range(e2 - a2, e2 - a2 + 3):
            pinned = (enumerate_arrays(TASpec(-d, (j, a2), (e1, e2), d, lad))
                      - enumerate_arrays(TASpec(-d, (j + 1, a2), (e1, e2), d, lad)))
            if d > e2 - a2:
                assert pinned.is_zero(), (lad, j, a2, e1, e2, d)
            else:
                tight += not pinned.is_zero()
    assert tight >= 5, tight


def test_sliced_boundary_matches_per_column_clamp():
    """``_Engine._pieces`` equals its definition: ``_runs`` of the boundary
    clamped column by column, with the trailing merge.  Seeded boundaries
    rising by 0, 1 or 2 per column, and windows with a1 < 0, alpha_2 above
    every boundary value, eps_2 + 1 below every boundary value, an empty
    first row (e1 = a1 - 1) and e1 = a; a window right of a raises, as
    ``LadderFunction.value`` does."""
    rng = random.Random(2209)
    merged = 0
    for i in range(600):
        values = [rng.randint(1, 3)]
        for _ in range(rng.randint(0, 10)):
            values.append(values[-1] + rng.choice((0, 1, 1, 1, 2)))
        lad = validate_ladder(len(values) - 1, values[-1] - 1 + rng.randint(0, 2), values)
        a, b, low, high = lad.a, lad.b, lad.values[0], lad.values[-1]
        a1 = rng.randint(-3, -1) if i % 3 == 0 else rng.randint(-3, a)
        if i % 4 == 0:
            e1 = a1 - 1
        elif i % 4 == 1:
            e1 = a
        else:
            e1 = rng.randint(a1, a)
        if i % 5 == 0:  # every value below alpha_2
            a2 = high + rng.randint(1, 3)
            e2 = rng.randint(a2 - 1, a2 + 3)
        elif i % 5 == 1:  # every value above eps_2 + 1, alpha_2 up to eps_2 + 3
            e2 = low - rng.randint(2, 4)
            a2 = rng.randint(e2 - 2, e2 + 3)
        else:
            a2 = rng.randint(-2, high)
            e2 = rng.randint(a2 - 1, b + 3) if i % 2 else rng.randint(a2 - 1, high)
        g = tuple(min(max(lad.value(x), a2), e2 + 1) for x in range(a1, e1 + 1))
        expected = _runs(g, a1)
        if len(expected) >= 2:
            x_lo, x_hi, diagonal, level = expected[-2]
            _, x_end, last_diagonal, last_level = expected[-1]
            if not last_diagonal and last_level == e2 + 1 and diagonal \
                    and x_hi + 1 + level + 1 >= e2 + 1:
                expected[-2:] = [(x_lo, x_end, True, level)]
                merged += 1
        engine = _Engine(lad, [TASpec(0, (0, 0), (a, b), 0, lad)])
        assert engine._pieces(a1, a2, e1, e2) == expected, (lad.values, a1, a2, e1, e2)
        with pytest.raises(ValueError):
            engine._pieces(a1, a2, a + 1, e2)
    assert merged >= 10  # the trailing merge is exercised


def _backward_run(lad, a1, a2, e1):
    """The maximal run ending at e1 of the boundary on a1..e1 clamped below
    at a2, found column by column: (x_lo, diagonal, level) as
    ``_Engine._last_run`` gives it, a lone column counting as flat."""
    g = [max(lad.value(x), a2) for x in range(a1, e1 + 1)]
    i = len(g) - 1
    step = g[i] - g[i - 1] if i else None
    if step not in (0, 1):
        return e1 - 1, False, g[-1]
    while i and g[i] - g[i - 1] == step:
        i -= 1
    return a1 + i - 1, step == 1, g[-1] - e1 - 1 if step else g[-1]


def test_run_index_matches_backward_run_of_clamped_boundary():
    """``_Engine._last_run`` reads from the run index what the clamped
    boundary gives column by column: its maximal run ending at eps_1.  The
    boundaries are those of the per-column clamp test; the windows include
    alpha_1 < 0, alpha_2 above every boundary value, eps_1 = alpha_1, and at
    least 20 where the column before a raw diagonal run clamps up to
    alpha_2 = f(start) - 1 and joins it.  Where the run starts left of the
    forward-greedy last piece of ``_pieces``, the engine peels at another
    column than that piece boundary; on at least 50 such windows that are
    not vacuous, its value equals the enumeration and the direct engine."""
    rng = random.Random(2218)
    joined = checked = 0
    seen = set()
    for i in range(4000):
        values = [rng.randint(1, 3)]
        for _ in range(rng.randint(0, 10)):
            values.append(values[-1] + rng.choice((0, 1, 1, 1, 2)))
        lad = validate_ladder(len(values) - 1, values[-1] - 1 + rng.randint(0, 2), values)
        a, high = lad.a, lad.values[-1]
        a1 = rng.randint(-3, -1) if i % 3 == 0 else rng.randint(-3, a)
        e1 = a1 if i % 4 == 0 else rng.randint(a1, a)
        a2 = high + rng.randint(1, 3) if i % 5 == 0 else rng.randint(-2, high)
        e2 = max(lad.value(e1), a2 - 1) + rng.randint(0, 2)  # below the top
        engine = _Engine(lad, [TASpec(0, (0, 0), (a, lad.b), 0, lad)])
        run = engine._last_run(a1, a2, e1, e2)
        assert run == _backward_run(lad, a1, a2, e1), (lad.values, a1, a2, e1)
        x_lo, diagonal, _ = run
        joined += diagonal and lad.value(x_lo + 1) < a2
        seen.update(name for name, hit in (("a1 < 0", a1 < 0), ("a2 > f", a2 > high),
                                           ("e1 = a1", e1 == a1)) if hit)
        if x_lo == engine._pieces(a1, a2, e1, e2)[-1][0] or e1 - a1 > 6 or e2 - a2 > 6:
            continue
        d = rng.randint(0, 2)
        l = rng.randint(-d, 2)
        spec = TASpec(l, (a1, a2), (e1, e2), d, lad)
        engine = _Engine(lad, [spec])
        if engine._vacuous(l, a1, a2, e1, e2, d):
            continue
        truth = _packed(enumerate_arrays(spec), l, engine.k)
        assert engine.eval(l, a1, a2, e1, e2, d) == truth == _packed(gf_direct(spec), l, engine.k), spec
        checked += 1
    assert seen == {"a1 < 0", "a2 > f", "e1 = a1"}
    assert joined >= 20
    assert checked >= 50


def test_memo_digits_count_arrays_by_second_row_length():
    """Base-2^k digit i of every value in the recursive engine's memo is the
    number of the key's arrays with i second-row entries: the coefficient
    of q^(2i + l) in the enumeration.  The digits sum to the enumeration's
    array count, so no array lies past them.  Seeded small ladders and wide
    specs fill the memos; their keys include types l < 0, pinned tails of
    type l = -d with d >= 1, and alpha_1 < 0."""
    rng = random.Random(2801)
    seen = {"l < 0": 0, "l = -d": 0, "a1 < 0": 0}
    for _ in range(150):
        lad = random_ladder(rng, 7, 7)
        specs = [random_taspec_wide(rng, lad) for _ in range(4)]
        engine = _Engine(lad, specs)
        for spec in specs:
            assert engine.gf(spec) == enumerate_arrays(spec), spec
        for (l, a1, a2, e1, e2, d), v in engine.memo.items():
            truth = enumerate_arrays(TASpec(l, (a1, a2), (e1, e2), d, lad))
            digits = _digits(v, engine.k)
            assert digits == [truth.coefficient(2 * i + l) for i in range(len(digits))], \
                (lad.values, l, a1, a2, e1, e2, d)
            assert sum(digits) == sum(truth.coeffs), (lad.values, l, a1, a2, e1, e2, d)
            for name, hit in (("l < 0", l < 0), ("l = -d", l == -d and d), ("a1 < 0", a1 < 0)):
                seen[name] += bool(hit)
    assert min(seen.values()) >= 150, seen


def test_star_recursive():
    rng = random.Random(18)
    # trivial ladder: must agree with the closed star form
    lad = validate_ladder(3, 3, [4, 4, 4, 4])
    spec = TASpec(1, (0, 0), (2, 3), 1, lad)
    assert gf_star_recursive(spec) == gf_star_trivial(1, (0, 0), (2, 3), 1)
    # diagonal ladder within the reflection hypotheses
    lad = validate_ladder(3, 3, [1, 2, 3, 4])
    spec = TASpec(0, (0, 0), (3, 2), 0, lad)
    assert gf_star_recursive(spec) == gf_star_diagonal(0, (0, 0), (3, 2), 0, 0)
    # random small specs against the enumeration difference
    for _ in range(60):
        lad = random_ladder(rng, 6, 6)
        spec = random_taspec_wide(rng, lad, lmax=2, dmax=2)
        if spec.start.x > spec.end.x:
            continue
        shifted = TASpec(spec.l, (spec.start.x + 1, spec.start.y), spec.end, spec.d, lad)
        truth = enumerate_arrays(spec) - enumerate_arrays(shifted)
        assert gf_star_recursive(spec) == truth


def test_star_telescoping():
    rng = random.Random(19)
    for _ in range(60):
        lad = random_ladder(rng, 6, 6)
        spec = random_taspec_wide(rng, lad, lmax=2, dmax=2)
        if spec.start.x > spec.end.x:
            continue
        shifted = TASpec(spec.l, (spec.start.x + 1, spec.start.y), spec.end, spec.d, lad)
        assert gf_recursive(spec) == gf_star_recursive(spec) + gf_recursive(shifted)


def test_parity_and_nonnegativity():
    rng = random.Random(20)
    for _ in range(80):
        lad = random_ladder(rng, 6, 6)
        spec = random_taspec_wide(rng, lad)
        gf = gf_recursive(spec)
        for exp in gf.exponents():
            assert exp % 2 == spec.l % 2
            assert gf.coefficient(exp) > 0


def test_raising_boundary_grows_coefficients():
    rng = random.Random(21)
    for _ in range(60):
        lad = random_ladder(rng, 6, 6)
        spec = random_taspec_wide(rng, lad, lmax=2, dmax=2)
        x0 = rng.randint(0, lad.a)
        bumped = list(lad.values)
        bumped[x0] = min(lad.b + 1, bumped[x0] + 1)
        for x in range(x0 + 1, lad.a + 1):
            bumped[x] = max(bumped[x], bumped[x0])
        lad2 = validate_ladder(lad.a, lad.b, bumped)
        spec2 = TASpec(spec.l, spec.start, spec.end, spec.d, lad2)
        low, high = gf_recursive(spec), gf_recursive(spec2)
        for exp in low.exponents():
            assert high.coefficient(exp) >= low.coefficient(exp)
