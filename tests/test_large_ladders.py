"""Ladders beyond the reach of brute force: long diagonal runs, many pieces.

The brute-force oracle stops near a, b = 13, so here the two engines are
checked against each other and against pinned digests.  The pins were
computed by the recursive engine of the leaf-by-leaf multi-sum version.
"""

import hashlib
import random
import time

import laddergf.genfun
from laddergf import (
    Bivector,
    TASpec,
    build_gf_matrix,
    endpoints_from_bivector,
    enumerate_arrays,
    gf_direct,
    hilbert_series,
    path_gf,
    validate_ladder,
)
from laddergf.genfun import _Engine
from helpers import (
    FLAGSHIP_NUMERATOR,
    count_eliminations,
    flagship_bivector,
    flagship_ladder,
    hadamard_determinant,
    random_bivector,
    random_ladder,
    random_taspec_wide,
    rational_det,
)

CLIFF_MINOR = Bivector((1, 3, 4, 6), (1, 3, 5, 8))

# L -> sha256 of the comma-joined numerator coefficients of the cliff ladder
CLIFF_PINS = {
    9: "ff1340d2677e85c181c1465c42fdcc4fe07ef04254e6524053a4f7dc1440d2e7",
    10: "e013cadd1dd43242f9957c2c01c6db160248c17d42ba9562478ffce74c3676ab",
    11: "cb208d3bccf418ed7720a264dcd60dda70904d6c85c9ddf2af21f49f2de25e93",
    12: "f624d9434265cff6af52082dccf795248e858253dd5bbc785426759aefbebbda",
}


def cliff_ladder(L: int):
    """a = b = 21: flat, then a diagonal run of L columns ending at 19 (two
    rows under the top), then a jump to 22 for the last 8 columns."""
    values = [20 - L] * (14 - L) + list(range(20 - L, 20)) + [22] * 8
    return validate_ladder(21, 21, values)


def _digest(series) -> str:
    return hashlib.sha256(",".join(map(str, series.z_coefficients)).encode()).hexdigest()


def test_long_diagonal_pins_both_engines():
    for L, pin in CLIFF_PINS.items():
        lad = cliff_ladder(L)
        for method in ("recursive", "direct"):
            hs = hilbert_series(lad, CLIFF_MINOR, method)
            assert len(hs.z_coefficients) == 66, (L, method)
            assert hs.denom_exponent == 149, (L, method)
            assert _digest(hs) == pin, (L, method)


def test_long_diagonal_14_columns():
    """The 14-column run took 114 s when the multi-sum walked every leaf."""
    lad = cliff_ladder(14)
    t0 = time.perf_counter()
    rec = hilbert_series(lad, CLIFF_MINOR, "recursive")
    direct = hilbert_series(lad, CLIFF_MINOR, "direct")
    elapsed = time.perf_counter() - t0
    assert rec == direct
    assert rec.denom_exponent == 149
    assert elapsed < 60.0


# The 26 x 26 ladder of the minor_sweep benchmark workload; minors
# u = v = (1..n) for n = 10 and 11, beyond that workload's n <= 9.
SWEEP_LADDER = (11, 12, 13, 14, 14, 15, 16, 18, 19, 20, 21, 22, 22, 22, 23, 25) + (27,) * 11

# n -> (sha256 as in CLIFF_PINS, denominator exponent, numerator length),
# computed with the Laplace-expansion determinant
SWEEP_PINS = {
    10: ("9bfdb30da7f5fbdaa3b8f168d51f50c7145182d27c8369e2d32f209dc4351070", 440, 151),
    11: ("929f375e218b98e7ad415c1bf2f7612b9f4fa09a35f05049f8b17a2e59ad8d22", 473, 144),
}


def test_large_determinants():
    """On a 2-vCPU Xeon VM, n = 10 and 11 took 1.9 s and 3.9 s with the
    Laplace expansion (n * 2^(n-1) products), 0.32 s and 0.46 s with the
    O(n^3) elimination packed by Hadamard's bound, and 0.07 s each packed
    by the family count D.  Timed again on that VM when the host ran
    slower: 0.10 s each with one elimination at z = 2^K, and 0.055 s each
    with two at z = 2^b and z = -2^b, b = ceil(K / 2).  Timed again there,
    best of 20 from a fresh ladder: 0.058 s each with those two, and 0.045 s
    and 0.042 s on the four-point route, with two more eliminations on the
    reversed matrix and half the width."""
    lad = validate_ladder(26, 26, SWEEP_LADDER)
    t0 = time.perf_counter()
    for n, (pin, exponent, length) in SWEEP_PINS.items():
        hs = hilbert_series(lad, Bivector(tuple(range(1, n + 1)), tuple(range(1, n + 1))))
        assert (_digest(hs), hs.denom_exponent, len(hs.z_coefficients)) == (pin, exponent, length), n
    assert time.perf_counter() - t0 < 60.0


# SWEEP_LADDER raised by 4, with a flat top block 15 columns wide: a = b = 30,
# and both the first column and the top block take minors up to n = 15.
WIDE_SWEEP_LADDER = tuple(v + 4 for v in SWEEP_LADDER[:16]) + (31,) * 15


def test_sweep_determinants_take_the_four_point_route(monkeypatch):
    """Seeded minors n = 8 and 9 of the minor_sweep ladder are eliminated
    five times, at z = 1 and at z = +-2^c on the matrix and its reversal,
    and equal the Hadamard-sized determinant and the rational determinant
    of the entries at q = 2, 3 and -1."""
    lad = validate_ladder(26, 26, SWEEP_LADDER)
    rng = random.Random(53)
    calls = count_eliminations(monkeypatch)
    for n in (8, 8, 9, 9):
        m = Bivector(tuple(sorted(rng.sample(range(1, 12), n))),
                     tuple(sorted(rng.sample(range(1, 12), n))))
        matrix = build_gf_matrix(lad, endpoints_from_bivector(lad, m))
        calls.clear()
        det = matrix.determinant()
        assert calls == [n] * 5, m
        assert det == hadamard_determinant(matrix.entries), m
        for q0 in (2, 3, -1):
            at_q0 = rational_det([[_evaluate(e, q0) for e in row] for row in matrix.entries])
            assert _evaluate(det, q0) == at_q0, (m, q0)


def test_family_count_packing_at_large_n(monkeypatch):
    """GFMatrix.determinant, packed by the family count D, against the
    generic determinant packed by Hadamard's bound, at n = 12 and 14.  On a
    2-vCPU Xeon VM the two took 0.5 s and 2.6 s at n = 12, and 0.5 s and
    4.3 s at n = 14.  Timed again on that VM when the host ran slower, the
    pipeline determinant took 0.37 s at n = 12 and 0.38 s at n = 14 with two
    eliminations at z = 2^b and z = -2^b, against 0.65 s and 0.70 s with
    one at z = 2^K, and the generic one 3.3 s and 5.8 s.  Timed again there
    (best of 12), the pipeline determinant took 0.22 s at n = 12 and 0.28 s
    at n = 14 on the four-point route, against 0.36 s and 0.38 s on the
    two-point one; each takes the four-point route."""
    lad = validate_ladder(30, 30, WIDE_SWEEP_LADDER)
    calls = count_eliminations(monkeypatch)
    t0 = time.perf_counter()
    for n in (12, 14):
        m = Bivector(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        matrix = build_gf_matrix(lad, endpoints_from_bivector(lad, m))
        calls.clear()
        assert matrix.determinant() == hadamard_determinant(matrix.entries), n
        assert calls == [n] * 5, n
    assert time.perf_counter() - t0 < 60.0


def test_family_count_packing_by_evaluation_at_large_n(monkeypatch):
    """GFMatrix.determinant at n = 12 and 14, evaluated at q = 2, 3 and -1,
    against the determinant of the entries evaluated there, taken by exact
    rational elimination: a check that shares no packing or division code
    with the library's.  On a 2-vCPU Xeon VM the six rational determinants,
    entry evaluation included, took 0.05 s in all."""
    lad = validate_ladder(30, 30, WIDE_SWEEP_LADDER)
    calls = count_eliminations(monkeypatch)
    elapsed = 0.0
    for n in (12, 14):
        m = Bivector(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        matrix = build_gf_matrix(lad, endpoints_from_bivector(lad, m))
        calls.clear()
        det = matrix.determinant()
        assert calls == [n] * 5, n
        for q0 in (2, 3, -1):
            t0 = time.perf_counter()
            at_q0 = rational_det([[_evaluate(e, q0) for e in row] for row in matrix.entries])
            elapsed += time.perf_counter() - t0
            assert _evaluate(det, q0) == at_q0, (n, q0)
    assert elapsed < 5.0


def _evaluate(p, q0):
    return sum(c * q0 ** i for i, c in enumerate(p.coeffs))


def _climbing_ladder(rng: random.Random, style: str, size=(20, 30)):
    """a, b in the size range (20..30 by default); a flat top block at b + 1
    after a climbing boundary.

    ``diagonal``: diagonal runs of 4..12 columns separated by flat columns or
    jumps, the last run ending 1..3 rows under the top.  ``pieces``: a rise
    of 0..3 at every column, so the boundary has many short pieces.
    """
    a, b = rng.randint(*size), rng.randint(*size)
    tail = rng.randint(2, 5)
    top = b + 1 - rng.randint(1, 3)
    final = rng.randint(4, 12) if style == "diagonal" else 0
    cur = rng.randint(2, 6)
    values = [cur]
    while len(values) < a + 1 - tail - final:
        if style == "diagonal":
            for _ in range(rng.randint(4, 12)):
                cur += 1
                values.append(cur)
            cur += rng.choice((0, 2, 3))
            values.append(cur)
        else:
            cur += rng.choice((0, 1, 2, 3))
            values.append(cur)
    values = [min(v, top - final) for v in values[:a + 1 - tail - final]]
    values += list(range(top - final + 1, top + 1)) + [b + 1] * tail
    return validate_ladder(a, b, values)


def _large_queries():
    """40 seeded (ladder, minor) pairs with a, b in 20..30; half of the
    boundaries are diagonal-heavy, half have many pieces."""
    rng = random.Random(2020)
    for k in range(40):
        lad = _climbing_ladder(rng, "diagonal" if k % 2 else "pieces")
        yield lad, random_bivector(rng, lad, nmax=4)


def test_engines_agree_on_large_ladders():
    """direct == recursive on the 40 large queries.

    The recursive engine never calls the direct multi-sum (see
    ``test_recursive_engine_never_calls_direct_sum``), so on these
    diagonal-heavy and many-piece boundaries the two engines check each
    other.
    """
    for lad, m in _large_queries():
        rec = hilbert_series(lad, m, "recursive")
        assert hilbert_series(lad, m, "direct") == rec, (lad.values, m)
        assert rec.z_coefficients[0] == 1


def test_engines_agree_on_larger_ladders():
    """direct == recursive on 20 seeded queries with a, b in 40..60, half
    diagonal-heavy and half with many pieces, inside the 60-s budget."""
    rng = random.Random(4060)
    t0 = time.perf_counter()
    for k in range(20):
        lad = _climbing_ladder(rng, "diagonal" if k % 2 else "pieces", size=(40, 60))
        m = random_bivector(rng, lad, nmax=4)
        rec = hilbert_series(lad, m, "recursive")
        assert hilbert_series(lad, m, "direct") == rec, (lad.values, m)
        assert rec.z_coefficients[0] == 1
    assert time.perf_counter() - t0 < 60.0


def test_engines_agree_on_ladders_past_80():
    """direct == recursive on 8 seeded queries with a, b in 80..120 and
    n <= 3, half diagonal-heavy and half with many pieces, inside a 30-s
    budget.  On a 2-vCPU Xeon VM the direct engine took 8.8 s with one
    step per (width, rise) pair and block, 4.3 s in two passes per block
    with the reachability cut; the recursive engine 0.5 s.  On a slower
    host of that kind, the direct engine took 11.9-12.6 s entry by entry
    and 5.3-6.0 s in one sweep per determinant row, and the recursive
    engine 1.4 s."""
    rng = random.Random(8012)
    t0 = time.perf_counter()
    for k in range(8):
        lad = _climbing_ladder(rng, "diagonal" if k % 2 else "pieces", size=(80, 120))
        m = random_bivector(rng, lad, nmax=3)
        rec = hilbert_series(lad, m, "recursive")
        assert hilbert_series(lad, m, "direct") == rec, (lad.values, m)
        assert rec.z_coefficients[0] == 1
    assert time.perf_counter() - t0 < 30.0


def test_many_pieces_boundary():
    """A boundary rising by 2 at every column (b = 2a + 1, f(x) = 2x + 2),
    a = 30 and 80: one piece per column.  Only 1 x 1 minors fit this
    boundary, so n = 2 runs as a path family."""
    t0 = time.perf_counter()
    for a in (30, 80):
        lad = validate_ladder(a, 2 * a + 1, [2 * x + 2 for x in range(a + 1)])
        for m in (Bivector((1,), (1,)), Bivector((2,), (1,))):
            assert hilbert_series(lad, m, "recursive") == hilbert_series(lad, m, "direct"), (a, m)
        starts, ends = ((0, 1), (0, 0)), ((a - 1, 2 * a - 1), (a, 2 * a - 1))
        assert path_gf(lad, starts, ends, "recursive") == path_gf(lad, starts, ends, "direct"), a
    assert time.perf_counter() - t0 < 60.0


def test_rise_two_memo_values_fit_their_second_row_slots():
    """The recursive engine packs a value by second-row length, one base-2^k
    digit per length 0 .. |[alpha_2, eps_2]|, so it has at most
    k * (|[alpha_2, eps_2]| + 1) bits.  Checked on every memo value of the
    1 x 1 minor of the rise-2 ladder f(x) = 2x + 1 for x < a = 80,
    f(a) = b + 1 = 2a + 2, whose memo holds over 2,000 values; both engines
    give one series."""
    a, b = 80, 161
    lad = validate_ladder(a, b, [2 * x + 1 for x in range(a)] + [b + 1])
    m = Bivector((1,), (1,))
    series = hilbert_series(lad, m, "recursive")
    engine = lad._engine
    assert len(engine.memo) > 2000
    for (l, a1, a2, e1, e2, d), v in engine.memo.items():
        slots = max(0, e2 - a2 + 1)
        assert v.bit_length() <= engine.k * (slots + 1), (l, a1, a2, e1, e2, d)
    assert series == hilbert_series(lad, m, "direct")


def test_recursive_engine_never_calls_direct_sum(monkeypatch):
    """With the direct multi-sum, one target's and one row's, made to raise,
    the recursive engine still answers the cliff ladders, whose last
    diagonal run fails the reflection hypothesis, and the 40 large queries."""

    def unavailable(*args):
        raise RuntimeError("the recursive engine called the direct multi-sum")

    for name in ("_direct_sum", "_direct_row"):
        monkeypatch.setattr(laddergf.genfun, name, unavailable)
    for L in (9, 10, 11, 12, 14):
        hs = hilbert_series(cliff_ladder(L), CLIFF_MINOR, "recursive")
        assert hs.denom_exponent == 149, L
        if L in CLIFF_PINS:
            assert _digest(hs) == CLIFF_PINS[L], L
    for lad, m in _large_queries():
        assert hilbert_series(lad, m, "recursive").z_coefficients[0] == 1, (lad.values, m)


def test_partitioned_windows_stay_below_eps2(monkeypatch):
    """The engine splits off the first-row columns whose boundary reaches
    eps_2 + 1 before it chooses a split point, so ``_Engine._last_run``
    never meets such a column: with ``_last_run`` made to raise on one,
    the engine still answers the flagship, the cliff ladders (L = 9..14)
    and the 40 large queries."""
    last_run = _Engine._last_run
    calls = 0

    def below_eps2(self, a1, a2, e1, e2):
        nonlocal calls
        calls += 1
        # f is weakly increasing: the window's last column holds its maximum
        if e1 >= a1 and self.values[max(e1, 0)] >= e2 + 1:
            raise RuntimeError(f"window {(a1, a2, e1, e2)} has a column with f >= eps_2 + 1")
        return last_run(self, a1, a2, e1, e2)

    monkeypatch.setattr(_Engine, "_last_run", below_eps2)
    hs = hilbert_series(flagship_ladder(), flagship_bivector(), "recursive")
    assert list(hs.z_coefficients) == FLAGSHIP_NUMERATOR
    for L in range(9, 15):
        hs = hilbert_series(cliff_ladder(L), CLIFF_MINOR, "recursive")
        assert hs.denom_exponent == 149, L
        if L in CLIFF_PINS:
            assert _digest(hs) == CLIFF_PINS[L], L
    for lad, m in _large_queries():
        assert hilbert_series(lad, m, "recursive").z_coefficients[0] == 1, (lad.values, m)
    assert calls >= 1000


def test_direct_engine_uses_no_closed_form(monkeypatch):
    """With the closed forms and their term generators made to raise, the
    direct engine still answers seeded wide specs, each also with an empty
    first row (eps_1 = alpha_1 - 1), and the 40 large queries."""

    def unavailable(*args):
        raise RuntimeError("the direct engine called a closed form")

    for name in ("gf_trivial", "gf_diagonal", "_trivial_terms", "_diagonal_terms"):
        monkeypatch.setattr(laddergf.genfun, name, unavailable)
    rng = random.Random(2121)
    for _ in range(60):
        spec = random_taspec_wide(rng, random_ladder(rng))
        empty = TASpec(spec.l, spec.start, (spec.start.x - 1, spec.end.y), spec.d, spec.ladder)
        for s in (spec, empty):
            assert gf_direct(s) == enumerate_arrays(s), s
    for lad, m in _large_queries():
        assert hilbert_series(lad, m, "direct").z_coefficients[0] == 1, (lad.values, m)
