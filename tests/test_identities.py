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
"""

import random
from fractions import Fraction
from math import comb

import pytest

from laddergf import Bivector, hilbert_series, series_expand, validate_ladder


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


def _det(rows):
    """Determinant by exact Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            ratio = m[r][i] / m[i][i]
            m[r] = [x - ratio * y for x, y in zip(m[r], m[i])]
    return det


def _rectangle_check(m, N, t):
    ladder = validate_ladder(m - 1, N - 1, [N] * m)
    series = hilbert_series(ladder, Bivector(range(1, t), range(1, t)))
    h = series.z_coefficients
    assert series.multiplicity == _det(
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
