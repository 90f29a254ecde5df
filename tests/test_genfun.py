"""Closed forms, the border partition, and both evaluation strategies.

Every closed form is pinned to exhaustive enumeration; the two strategies
are pinned to each other and to the oracle on random ladders.
"""

import random

import pytest

from laddergf import (
    BorderPiece,
    EndpointOutsideLadder,
    HalfPolynomial,
    PreconditionViolated,
    StarRequiresNonemptyFirstColumn,
    TASpec,
    binomial,
    enumerate_arrays,
    gf_diagonal,
    gf_direct,
    gf_recursive,
    gf_star_diagonal,
    gf_star_recursive,
    gf_star_trivial,
    gf_trivial,
    partition_border,
    validate_ladder,
)
from laddergf.genfun import _Engine, _diagonal_terms, _runs, _trivial_terms
from laddergf.polyring import _pack_terms, _unpack
from helpers import flagship_ladder, random_ladder, random_taspec_wide

P = HalfPolynomial


def _packed(p: HalfPolynomial, k: int) -> int:
    """p at q = 2^k; raises ValueError unless every coefficient is a
    base-2^k digit."""
    return _pack_terms(enumerate(p.coeffs), k)


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

    The engine packs each value at q = 2^(W + 1); the trivial ladder gives
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
    assert _unpack(_packed(P([3, 0, 7]), 3), 3) == P([3, 0, 7])
    assert _packed(P.zero(), 1) == 0 and _unpack(0, 1) == P.zero()
    with pytest.raises(ValueError):
        _packed(P([1, -1]), 4)
    with pytest.raises(ValueError):
        _packed(P([16]), 4)
    with pytest.raises(ValueError):
        _unpack(-1, 4)
    with pytest.raises(ValueError):
        _unpack(1, 0)
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
        assert packed == _packed(gf_trivial(l, (a1, a2), (e1, e2), d), k)
        # the product formula with ``binomial`` on the raw widths
        assert packed == sum(binomial(w1, j + l) * binomial(w2, j) << k * (2 * j + l)
                             for j in range(max(0, -l), 12))
        edge = max(a2 - a1 - 1 - l - d, e2 - e1 - 1 - d)
        for D in (edge, edge + 1, edge + 2):
            packed = _pack_terms(_diagonal_terms(l, a1, a2, e1, e2, D, d), k)
            public = _packed(gf_diagonal(l, (a1, a2), (e1, e2), D, d), k)
            assert packed == public, (l, a1, a2, e1, e2, D, d)


def test_packed_closed_forms_reject_wide_coefficients():
    with pytest.raises(ValueError):
        _pack_terms([(0, 1), (2, 16)], 4)
    with pytest.raises(ValueError):
        _pack_terms([(1, -1)], 4)
    # C(4, 2)^2 = 36 does not fit in 5 bits, though every row slot count does
    assert max(gf_trivial(0, (0, 0), (3, 3)).coeffs) == 36
    with pytest.raises(ValueError):
        _pack_terms(_trivial_terms(0, 0, 0, 3, 3), 5)
    with pytest.raises(ValueError):
        _pack_terms(_diagonal_terms(0, 0, 0, 3, 3, 3, 0), 5)
    assert _pack_terms(_trivial_terms(0, 0, 0, 3, 3), 6) == _packed(gf_trivial(0, (0, 0), (3, 3)), 6)


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
        truth = _packed(enumerate_arrays(spec), engine.k)
        assert engine.eval(l, a1, a2, e1, e2, d) == truth
        assert engine._pieces(a1, a2, e1, e2) == [(a1 - 1, e1, True, D)]
        assert _packed(gf_diagonal(l, (a1, a2), (e1, e2), D, d), engine.k) == truth
        by_formula += not engine._vacuous(l, a1, a2, e1, e2, d)
    assert by_formula >= 50


def test_engine_splits_off_columns_clearing_eps2():
    """Windows in which the boundary first reaches eps_2 + 1 at a column t
    in (alpha_1, eps_1]: the first-row entries in [t, eps_1] clear every
    second-row entry, and the engine splits them off in one step.  Its
    value equals the enumeration and the direct engine.  The windows
    include alpha_1 < 0, l = -d, d up to 3 and t = alpha_1 + 1.  The rule
    fired where the window is not vacuous and was never partitioned; it
    does on at least 100."""
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
        pieces = engine._pieces
        engine._pieces = lambda *window: partitioned.append(window) or pieces(*window)
        truth = _packed(enumerate_arrays(spec), engine.k)
        assert engine.eval(l, a1, a2, e1, e2, d) == truth == _packed(gf_direct(spec), engine.k), spec
        windows += 1
        if not engine._vacuous(l, a1, a2, e1, e2, d) and (a1, a2, e1, e2) not in partitioned:
            fired += 1
            seen.update(name for name, hit in (("a1 < 0", a1 < 0), ("l = -d", l == -d),
                                               ("d = 3", d == 3), ("t = a1 + 1", t == a1 + 1))
                        if hit)
    assert fired >= 100
    assert seen == {"a1 < 0", "l = -d", "d = 3", "t = a1 + 1"}


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
