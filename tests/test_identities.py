"""Classical identities of determinantal rings, checked without enumeration.

Both families below have answers known in closed form, so they reach ladders
far beyond the brute-force oracle:

* Low degrees.  For the minor u = v = (1..n) the ideal is generated by the
  (n + 1)-minors inside the ladder.  Nothing vanishes below degree n + 1, so
  with c = sum_x f(x) variables H(k) = C(c + k - 1, k) for k <= n.  In degree
  n + 1 the (n + 1)-minors are independent; one whose leftmost column is x
  lies in the ladder exactly when its rows lie below f(x), so there are
  sum_x C(f(x), n + 1) C(a - x, n) of them.
* Rectangle.  The full N x m ladder (a = m - 1, b = N - 1, f = N, m <= N)
  with u = v = (1..t-1) gives the ring of the t-minors of a generic matrix:
  its multiplicity is det[C(m + N - i - j, m - i)], i, j = 1..t-1, its
  a-invariant deg h - dim is -(t - 1) N, and it is Gorenstein, so h is
  palindromic, exactly when m = N.
* Low degrees for every bivector.  The ideal cogenerated by M = [u | v] is
  spanned by the minors that are not >= M in the bitableau order, and the
  standard monomials form a basis, also inside one-sided ladders (DeConcini,
  Eisenbud and Procesi 1980; Herzog and Trung 1992).  So H(1) = c1, the
  number of region points (x, y) with y >= u_1 - 1 and x <= a - v_1 + 1,
  and H(2) = C(c1 + 1, 2) minus the 2-minors whose four corners lie among
  those points and that are not >= M.  A 2-minor with corners (x1, y1) and
  (x2, y2), x1 < x2 and y1 < y2, lies in the ladder iff y2 < f(x1), and is
  not >= M iff n = 1, or y2 < u_2 - 1, or x1 > a - v_2 + 1.
"""

import random
from math import comb

import pytest

from laddergf import Bivector, hilbert_series, series_expand, validate_ladder
from helpers import random_bivector, random_corollary_ladder, rational_det


def _low_degree_check(ladder, n):
    a, f = ladder.a, ladder.values
    series = hilbert_series(ladder, Bivector(range(1, n + 1), range(1, n + 1)))
    c = sum(f)
    minors = sum(comb(f[x], n + 1) * comb(a - x, n) for x in range(a + 1))
    expected = [comb(c + k - 1, k) for k in range(n + 1)]
    expected.append(comb(c + n, n + 1) - minors)
    assert series_expand(series, n + 2) == expected


def test_low_degrees_random_ladders():
    rng = random.Random(41)
    for _ in range(200):
        a, b = rng.randint(0, 12), rng.randint(0, 12)
        low, top = rng.randint(1, b + 1), rng.randint(1, a + 1)
        f = sorted(rng.randint(low, b + 1) for _ in range(a + 1 - top)) + [b + 1] * top
        n = rng.randint(1, min(f[0], top))
        _low_degree_check(validate_ladder(a, b, f), n)


def test_low_degrees_climbing_ladders():
    """Boundaries that climb from at least n to b + 1 over 40-60 columns."""
    rng = random.Random(42)
    for _ in range(40):
        a, b, n = rng.randint(40, 60), rng.randint(40, 60), rng.randint(1, 4)
        f = sorted(rng.randint(n, b + 1) for _ in range(a + 1 - n)) + [b + 1] * n
        _low_degree_check(validate_ladder(a, b, f), n)


def _rectangle_check(m, N, t):
    ladder = validate_ladder(m - 1, N - 1, [N] * m)
    series = hilbert_series(ladder, Bivector(range(1, t), range(1, t)))
    h = series.z_coefficients
    assert series.multiplicity == rational_det(
        [[comb(m + N - i - j, m - i) for j in range(1, t)] for i in range(1, t)]
    )
    assert len(h) - 1 - series.denom_exponent == -(t - 1) * N
    assert (h == h[::-1]) == (m == N)


@pytest.mark.parametrize("m", range(2, 10))
def test_rectangle_identities(m):
    for N in range(m, 12):
        for t in range(2, m + 1):
            _rectangle_check(m, N, t)


def test_rectangle_identities_large():
    _rectangle_check(30, 34, 10)


def _standard_low_degrees(ladder, m):
    """[H(0), H(1), H(2)] of the ring cogenerated by m, counted column by
    column: the corners x1 < x2 <= x_end of a 2-minor are free, and its
    rows y0 <= y1 < y2 lie below f(x1), and below u_2 - 1 too where the
    minor would otherwise be >= m."""
    a, f, u, v = ladder.a, ladder.values, m.u, m.v
    y0, x_end = u[0] - 1, a - v[0] + 1
    c1 = sum(max(0, f[x] - y0) for x in range(x_end + 1))
    minors = 0
    for x1 in range(x_end):
        top = f[x1] if m.n == 1 or x1 > a - v[1] + 1 else min(f[x1], u[1] - 1)
        minors += comb(max(0, top - y0), 2) * (x_end - x1)
    return [1, c1, comb(c1 + 1, 2) - minors]


def _standard_check(ladder, m):
    series = hilbert_series(ladder, m)
    assert series_expand(series, 3) == _standard_low_degrees(ladder, m), (ladder.values, m)


def test_standard_low_degrees_small_ladders():
    """400 seeded bivectors on ladders with a, b <= 8, n up to 4; at least
    100 of them are not u = v = (1..n)."""
    rng = random.Random(43)
    general = 0
    for _ in range(400):
        ladder = random_corollary_ladder(rng, 8, 8)
        m = random_bivector(rng, ladder, nmax=4)
        _standard_check(ladder, m)
        general += m.u != m.v or m.u != tuple(range(1, m.n + 1))
    assert general >= 100


# The 26 x 26 ladder of the benchmark's minor_sweep workload
SWEEP_LADDER = (11, 12, 13, 14, 14, 15, 16, 18, 19, 20, 21, 22, 22, 22, 23, 25) + (27,) * 11


def test_standard_low_degrees_sweep_ladder():
    """60 seeded bivectors, n = 1..9, on the benchmark's sweep ladder."""
    rng = random.Random(44)
    ladder = validate_ladder(26, 26, SWEEP_LADDER)
    for k in range(60):
        n = k % 9 + 1
        m = Bivector(sorted(rng.sample(range(1, 12), n)), sorted(rng.sample(range(1, 12), n)))
        _standard_check(ladder, m)


def test_standard_low_degrees_ladders_past_100():
    """10 seeded ladders with a, b in 100..130: a first column 4-10 high,
    steps of 0-3 and a top block 4-8 columns wide; n up to 4."""
    rng = random.Random(45)
    for _ in range(10):
        a, b = rng.randint(100, 130), rng.randint(100, 130)
        top = rng.randint(4, 8)
        f = [rng.randint(4, 10)]
        while len(f) < a + 1 - top:
            f.append(min(b + 1, f[-1] + rng.choice((0, 1, 1, 2, 3))))
        ladder = validate_ladder(a, b, f + [b + 1] * top)
        _standard_check(ladder, random_bivector(rng, ladder, nmax=4))
