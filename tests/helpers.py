"""Shared fixtures: the worked flagship instance, random samplers and
independent determinant oracles."""

import random
from fractions import Fraction

from laddergf import (
    Bivector,
    HalfPolynomial,
    LadderFunction,
    TASpec,
    det_poly_matrix,
    validate_ladder,
)

FLAGSHIP_A = 13
FLAGSHIP_B = 15
FLAGSHIP_F = [7, 7, 7, 7, 10, 11, 12, 13, 16, 16, 16, 16, 16, 16]
FLAGSHIP_U = (1, 2, 4, 6)
FLAGSHIP_V = (1, 2, 3, 6)

# numerator of the Hilbert series for the flagship ladder and minor,
# coefficients of z^0 .. z^31 over (1 - z)^99
FLAGSHIP_NUMERATOR = [
    1,
    71,
    2556,
    61832,
    1115762,
    15750005,
    178390279,
    1647137174,
    12534233703,
    79245271879,
    418852424787,
    1859941402206,
    6965987806143,
    22071622313567,
    59298706514083,
    135299444287353,
    262400571075662,
    432640455645309,
    606103694379729,
    720535170430557,
    725289798304502,
    616230022969392,
    439998448014899,
    262469031030333,
    129776697745621,
    52622863698472,
    17241967478923,
    4468021840695,
    885721405230,
    126901720400,
    11760999250,
    532021875,
]


def flagship_ladder() -> LadderFunction:
    return validate_ladder(FLAGSHIP_A, FLAGSHIP_B, FLAGSHIP_F)


def flagship_bivector() -> Bivector:
    return Bivector(FLAGSHIP_U, FLAGSHIP_V)


def random_ladder(rng: random.Random, amax=8, bmax=8, amin=0, bmin=0) -> LadderFunction:
    a = rng.randint(amin, amax)
    b = rng.randint(bmin, bmax)
    values = sorted(rng.randint(1, b + 1) for _ in range(a + 1))
    return validate_ladder(a, b, values)


def random_corollary_ladder(rng: random.Random, amax=8, bmax=8) -> LadderFunction:
    """A ladder whose boundary reaches b+1, so valid bivectors exist."""
    a = rng.randint(0, amax)
    b = rng.randint(0, bmax)
    values = sorted(rng.randint(1, b + 1) for _ in range(a + 1))
    values[-1] = b + 1
    return validate_ladder(a, b, values)


def random_bivector(rng: random.Random, ladder: LadderFunction, nmax=3) -> Bivector:
    """A bivector satisfying both region membership conditions."""
    a, b = ladder.a, ladder.b
    x_top = next(x for x in range(a + 1) if ladder.value(x) == b + 1)
    n = rng.randint(1, max(1, min(nmax, ladder.value(0), a + 1 - x_top)))
    u = sorted(rng.sample(range(1, ladder.value(0) + 1), n))
    v = sorted(rng.sample(range(1, a + 1 - x_top + 1), n))
    return Bivector(tuple(u), tuple(v))


def random_taspec_inside(rng: random.Random, ladder: LadderFunction,
                         lmax=3, dmax=3) -> TASpec:
    """Both corner points strictly inside the (flat-extended) region."""
    a = ladder.a
    d = rng.randint(0, dmax)
    l = rng.randint(-min(d, lmax), lmax)
    a1 = rng.randint(-2, a)
    e1 = rng.randint(a1, a)
    a2 = rng.randint(0, ladder.value(a1) - 1)
    e2 = rng.randint(min(a2, ladder.value(e1) - 1), ladder.value(e1) - 1)
    return TASpec(l, (a1, a2), (e1, e2), d, ladder)


def random_taspec_wide(rng: random.Random, ladder: LadderFunction,
                       lmax=3, dmax=3) -> TASpec:
    """Corner points allowed above the boundary, like shifted matrix entries."""
    a, b = ladder.a, ladder.b
    d = rng.randint(0, dmax)
    l = rng.randint(-min(d, lmax), lmax)
    a1 = rng.randint(-2, a)
    e1 = rng.randint(a1 - 1, a)
    a2 = rng.randint(0, max(0, ladder.value(a1) - 1))
    e2 = rng.randint(a2 - 1, b + 3)
    return TASpec(l, (a1, a2), (e1, e2), d, ladder)


def random_endpoints(rng: random.Random, ladder: LadderFunction, n: int):
    """Valid endpoint lists for the determinant formula, or None.

    Picks the first start on the flat prefix of the boundary and biases the
    first end toward the far corner so the sampled path sets are not
    degenerate; every end must dominate its start.  Retries the second
    start/end a few times before giving up on the draw.
    """
    a = ladder.a
    flat_end = 0
    while flat_end < a and ladder.value(flat_end + 1) == ladder.value(0):
        flat_end += 1
    a1x = rng.randint(0, flat_end)
    y_top = ladder.value(a1x) - 1
    if n == 2 and y_top < 1:
        return None
    a1y = rng.randint(1 if n == 2 else 0, y_top)
    e1x = rng.randint((a1x + a + 1) // 2, a)
    if a1y > ladder.value(e1x) - 1:
        return None
    e1y = rng.randint(max(a1y, (ladder.value(e1x) - 1) // 2), ladder.value(e1x) - 1)
    starts, ends = [(a1x, a1y)], [(e1x, e1y)]
    if n == 1:
        return starts, ends
    if e1x + 1 > a:
        return None
    for _ in range(6):
        a2x = rng.randint(a1x, a)
        a2y = rng.randint(0, min(a1y - 1, ladder.value(a2x) - 1))
        e2x = rng.randint(max(e1x + 1, a2x), a)
        hi = min(e1y, ladder.value(e2x) - 1)
        if hi < a2y:
            continue
        return starts + [(a2x, a2y)], ends + [(e2x, rng.randint(a2y, hi))]
    return None


def laplace_det(rows) -> HalfPolynomial:
    """Determinant by Laplace expansion memoized over column subsets.

    The minor on rows 0..|S|-1 and columns S is computed once per subset:
    n * 2^(n-1) polynomial products and no division.  Kept here as an
    independent oracle for the library's elimination.
    """
    n = len(rows)
    memo = {(): HalfPolynomial.one()}

    def minor(cols):
        if cols not in memo:
            r = len(cols) - 1
            acc = HalfPolynomial.zero()
            for idx, c in enumerate(cols):
                if rows[r][c]:
                    term = rows[r][c] * minor(cols[:idx] + cols[idx + 1:])
                    acc = acc + (-term if (r + idx) % 2 else term)
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(n)))


def rational_det(rows):
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


def hadamard_determinant(entries) -> HalfPolynomial:
    """Determinant of a pipeline matrix by the generic ``det_poly_matrix``,
    whose packing is sized by Hadamard's bound with balanced digits.

    Halves to z = q^2 as ``GFMatrix.determinant`` does (row s and column t
    times q^(s mod 2) and q^(t mod 2)), then drops the z^(n // 2) this adds
    and spreads the coefficients back to q.  Kept as an independent oracle
    for the family-count packing, which relies on the path-family theorem.
    """
    n = len(entries)
    in_z = [
        [HalfPolynomial(((0,) * (s % 2 + t % 2) + entry.coeffs)[::2])
         for t, entry in enumerate(row)]
        for s, row in enumerate(entries)
    ]
    z_coeffs = det_poly_matrix(in_z).coeffs[n // 2:]
    q_coeffs = [0] * (2 * len(z_coeffs))
    q_coeffs[::2] = z_coeffs
    return HalfPolynomial(q_coeffs)
