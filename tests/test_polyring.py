"""Exact polynomial arithmetic, the binomial convention, and determinants."""

import itertools
import operator
import pickle
import random

import pytest

from laddergf import (
    HalfPolynomial,
    HilbertSeries,
    OddExponentPresent,
    ValidationError,
    binomial,
    det_poly_matrix,
    series_expand,
    to_z_polynomial,
)
from laddergf.polyring import _binomial, _pack, _unpack

P = HalfPolynomial


def test_canonical_form():
    assert P([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
    assert P([0, 0]).coeffs == ()
    assert P().is_zero()
    assert P([1]).degree == 0
    assert P().degree == -1
    assert P.monomial(3, 5) == P([0, 0, 0, 5])


@pytest.mark.parametrize("coeffs, index", [([1.5, 0.0], 0), ([True], 0), ([1, 0, 2.0], 2)])
def test_coefficients_must_be_ints(coeffs, index):
    """Coefficients are exact Python ints: a float or a bool raises
    ValidationError naming its index, where it once printed as ``1.5`` or
    ``True`` and failed later inside a determinant."""
    with pytest.raises(ValidationError) as err:
        P(coeffs)
    assert err.value.index == index


@pytest.mark.parametrize("call", [
    lambda: P.from_dict({1.5: 1}),
    lambda: P.from_dict({True: 3}),
    lambda: P.from_dict({0: 1, "2": 1}),
    lambda: P.monomial(2.0),
    lambda: P.monomial(True),
    lambda: P([1, 2, 3]).coefficient(1.5),
    lambda: P([1, 2, 3]).coefficient(True),
], ids=["from_dict-float", "from_dict-bool", "from_dict-str", "monomial-float",
        "monomial-bool", "coefficient-float", "coefficient-bool"])
def test_exponents_must_be_ints(call):
    """Exponents follow the coefficients' integer rule: a float once raised
    a bare TypeError, and a bool stood for q^1."""
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: det_poly_matrix([[1]]),
    lambda: det_poly_matrix([[P.one(), P.one()], [P.one(), (1,)]]),
    lambda: to_z_polynomial([1, 0, 1]),
    lambda: to_z_polynomial(None),
], ids=["det-int", "det-tuple", "to_z-list", "to_z-none"])
def test_non_polynomials_are_rejected(call):
    """A matrix entry or a numerator that is no HalfPolynomial raises
    ValidationError, where it once raised AttributeError."""
    with pytest.raises(ValidationError):
        call()


def test_polynomial_edge_cases():
    """Negative exponents, coefficients beyond the degree, empty terms, the
    zero factor and operands that are no polynomials."""
    for call in (lambda: P.monomial(-1), lambda: P.from_dict({-1: 1}),
                 lambda: P.from_dict({2: 1, -3: 1})):
        with pytest.raises(ValueError):
            call()
    p = P([1, 2, 3])
    assert p.coefficient(3) == p.coefficient(99) == p.coefficient(-1) == 0
    assert P.from_dict({}) == P.from_dict({2: 0}) == P()
    assert p * P() == P() * p == P() * P() == P()
    for op in (operator.add, operator.sub, operator.mul):
        for other in (1, (1, 2)):
            with pytest.raises(TypeError):
                op(p, other)


def test_unpack_builds_the_canonical_form_unchecked(monkeypatch):
    """``_unpack`` reads digits that are ints by construction, so it builds
    its polynomial without the constructor's type test; the result equals,
    hashes and pickles like the checked one, interior zero digits included."""
    rng = random.Random(23)
    cases = [[rng.choice((0, 0, 1, 5, 255)) for _ in range(rng.randint(0, 9))] + [rng.randint(1, 255)]
             for _ in range(50)]
    checked = [P(c) for c in cases]

    def unavailable(self):
        raise RuntimeError("_unpack ran the constructor's check")

    monkeypatch.setattr(P, "__post_init__", unavailable)
    for c, want in zip(cases, checked):
        got = _unpack(_pack(c, 8), 8)
        assert got.coeffs == tuple(c) and got == want and hash(got) == hash(want), c
        assert pickle.loads(pickle.dumps(got)) == want
    assert _unpack(0, 8).coeffs == ()


def test_polynomials_are_immutable():
    p = P([1, 2])
    for name in ("coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (3,))
    assert p.coeffs == (1, 2)


def test_poly_add_examples():
    assert P([1, 0, 1]) + P([0, 0, 1]) == P([1, 0, 2])
    p = P([3, 1, 4])
    assert p + P.zero() == p
    # cancellation must land back on the canonical zero
    assert P([0, 1]) + P([0, -1]) == P.zero()


def test_poly_mul_examples():
    assert P([1, 1]) * P([1, -1]) == P([1, 0, -1])
    assert P([2, 7, 1]) * P.zero() == P.zero()
    # (2q + 2q^3)^2, checked by hand convolution
    sq = P([0, 2, 0, 2]) * P([0, 2, 0, 2])
    assert sq == P([0, 0, 4, 0, 8, 0, 4])


def test_ring_axioms_random():
    rng = random.Random(2024)

    def rand_poly():
        return P([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])

    for _ in range(200):
        p, r, s = rand_poly(), rand_poly(), rand_poly()
        assert p + r == r + p
        assert p * r == r * p
        assert (p + r) + s == p + (r + s)
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s


def test_binomial_convention():
    assert binomial(2, 1) == 2
    assert binomial(-3, 2) == 0
    assert binomial(-3, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(4, -1) == 0
    assert binomial(-1, -1) == 0
    assert binomial(6, 2) == 15


def test_unchecked_binomial_equals_binomial():
    """The engine's unchecked ``_binomial`` keeps the public convention,
    negative arguments included."""
    for n in range(-6, 13):
        for k in range(-6, 13):
            assert _binomial(n, k) == binomial(n, k), (n, k)


def test_binomial_pascal_rule():
    for n in range(1, 11):
        for k in range(-2, 11):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)
    # the boundary rows are deliberately non-Pascal: negative n with k > 0
    # is forced to zero although the rule would give 1 here
    assert binomial(-2, 1) != binomial(-3, 1) + binomial(-3, 0)


def test_det_examples():
    p = P([4, 0, 2])
    assert det_poly_matrix([[p]]) == p
    q = P.monomial(1)
    assert det_poly_matrix([[P.one(), q], [q, P.one()]]) == P([1, 0, -1])
    one_plus_z = P([1, 0, 1])
    z = P.monomial(2)
    got = det_poly_matrix([[one_plus_z, z], [P.one(), one_plus_z]])
    assert got == P([1, 0, 1, 0, 1])


def _leibniz(rows):
    n = len(rows)
    total = P.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = P.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign == 1 else -term)
    return total


def _random_poly(rng, bits):
    """Zero one time in four; else 1..6 coefficients in [-2^bits, 2^bits]."""
    if rng.random() < 0.25:
        return P.zero()
    span = 1 << bits
    return P([rng.randint(-span, span) for _ in range(rng.randint(1, 6))])


def test_det_matches_leibniz():
    """Random n x n matrices, n = 1..5: zero entries, zero leading entries
    of the first column (row swaps), repeated rows (singular), both
    q-parities in one entry, negative and ~200-bit coefficients."""
    rng = random.Random(7)
    for n in range(1, 6):
        for case in range(12):
            bits = 200 if case % 3 == 2 else 2
            rows = [[_random_poly(rng, bits) for _ in range(n)] for _ in range(n)]
            if case % 4 == 1:
                for r in range(rng.randint(1, n)):
                    rows[r][0] = P.zero()
            want = _leibniz(rows)
            assert det_poly_matrix(rows) == want, (n, case)
            if n > 1:
                rows[rng.randrange(1, n)] = list(rows[0])
                assert det_poly_matrix(rows) == P.zero() == _leibniz(rows)


def test_det_row_swaps():
    one, zero = P.one(), P.zero()
    assert det_poly_matrix([[zero, one], [one, zero]]) == -one
    # the second pivot vanishes only after the first elimination step
    rows = [[one, one, zero], [one, one, one], [zero, one, P([1, 1])]]
    assert det_poly_matrix(rows) == _leibniz(rows) == -one
    # a zero column leaves no pivot at all
    rows = [[one, zero, one], [P([0, 2]), zero, one], [one, zero, zero]]
    assert det_poly_matrix(rows) == zero


def test_det_meets_hadamard_bound():
    """A Sylvester-Hadamard matrix reaches Hadamard's bound exactly."""
    h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    for c in (1, 2**200 - 1, -(2**200) + 3):
        rows = [[P([c * x]) for x in r] for r in h4]
        assert det_poly_matrix(rows) == P([16 * c**4])
        rows = [[P([c * x, 0, -c * x]) for x in r] for r in h4]
        assert det_poly_matrix(rows) == _leibniz(rows)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det_poly_matrix([[P.one(), P.one()]])


def test_to_z_polynomial():
    even = P([1, 0, 4, 0, 1])
    assert to_z_polynomial(even) is even
    with pytest.raises(OddExponentPresent) as err:
        to_z_polynomial(P([0, 2]))
    assert err.value.exponent == 1


def test_hilbert_series_type():
    hs = HilbertSeries(P([1, 0, 1]), 3)
    assert hs.z_coefficients == (1, 1)
    with pytest.raises(OddExponentPresent):
        HilbertSeries(P([0, 1]), 2)
    with pytest.raises(ValueError):
        HilbertSeries(P.one(), -1)


@pytest.mark.parametrize("exponent", [99.0, 3.0, True, "3"])
def test_hilbert_series_rejects_a_non_int_exponent(exponent):
    """A float exponent made ``series_expand`` return inexact floats, and a
    bool stood for 0 or 1."""
    with pytest.raises(ValidationError):
        HilbertSeries(P([1, 0, 1]), exponent)


@pytest.mark.parametrize("numerator", [[1, 0, 1], (1, 0, 1), None, 1])
def test_hilbert_series_rejects_a_numerator_that_is_no_half_polynomial(numerator):
    with pytest.raises(ValidationError):
        HilbertSeries(numerator, 3)


@pytest.mark.parametrize("terms", [2.0, True, False, "2", None])
def test_series_expand_rejects_a_non_int_term_count(terms):
    with pytest.raises(ValidationError):
        series_expand(HilbertSeries(P([1, 0, 1]), 3), terms)


def test_series_expand_rejects_a_negative_term_count():
    with pytest.raises(ValueError):
        series_expand(HilbertSeries(P([1, 0, 1]), 3), -1)


def test_series_expand_hypersurface():
    hs = HilbertSeries(P([1, 0, 1]), 3)
    assert series_expand(hs, 4) == [1, 4, 9, 16]
    assert series_expand(hs, 6) == [(k + 1) ** 2 for k in range(6)]


def test_series_expand_degenerate():
    assert series_expand(HilbertSeries(P.one(), 0), 3) == [1, 0, 0]
    assert series_expand(HilbertSeries(P([1, 0, 1]), 0), 4) == [1, 1, 0, 0]
    assert series_expand(HilbertSeries(P.one(), 1), 5) == [1, 1, 1, 1, 1]


def test_series_expand_binomial_rows():
    for e in (1, 2, 3):
        hs = HilbertSeries(P.one(), e)
        got = series_expand(hs, 21)
        assert got == [binomial(ell + e - 1, e - 1) for ell in range(21)]


def test_series_expand_random_numerators():
    """Multi-term numerators over (1 - z)^e, e up to 50, against the
    binomial sum coeff(L) = sum_j num_j * C(L - j + e - 1, L - j), which
    the binomial convention makes [L == j] at e = 0."""
    rng = random.Random(2026)
    for _ in range(300):
        e = rng.randint(0, 50)
        num = [1] + [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 12))]
        hs = HilbertSeries(P([c for z in num for c in (z, 0)]), e)
        terms = rng.choice((0, 1, 5, 40))
        want = [
            sum(num[j] * binomial(ell - j + e - 1, ell - j) for j in range(min(ell + 1, len(num))))
            for ell in range(terms)
        ]
        assert series_expand(hs, terms) == want, (num, e, terms)


def test_str_rendering():
    assert str(P.zero()) == "0"
    assert str(P([1, 0, 4, 0, 1])) == "1 + 4*q^2 + q^4"
    assert str(P([0, 2, 0, -2])) == "2*q - 2*q^3"
