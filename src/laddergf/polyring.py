"""Exact polynomial arithmetic in the half-integer-power variable q = z^(1/2).

Generating functions for two-rowed arrays live in Z[q]: an array of size m
contributes q^m = z^(m/2), and only the fully assembled determinant is a
genuine power series in z.  Coefficients are Python ints, so nothing ever
overflows or rounds.  Determinants are taken by fraction-free elimination
on integers that pack whole polynomials (Kronecker substitution), in O(n^3)
integer products.  The packing width must exceed every coefficient of the
result.  ``det_poly_matrix`` takes it from Hadamard's bound, which holds for
any signed matrix; the pipeline determinant (``GFMatrix.determinant``) takes
it from the number D of path families, and describes its packing there.

This module owns that base-2^k digit format: ``_pack`` evaluates a
polynomial at 2^k, ``_pack_terms`` packs (exponent, coefficient) terms
and rejects a coefficient that is not a digit (the ``genfun`` recursive
engine packs its closed forms with it), ``_unpack`` reads unsigned digits
back (the pipeline determinant and the recursive engine both use it), and
``_bareiss`` eliminates on the packed integers.

Everything here is immutable and pure; concurrent callers need no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import OddExponentPresent, ValidationError
from .model import _require_int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient extended to all integer pairs.

    The convention: 0 for k < 0, 1 for k = 0 (even when n is negative),
    0 whenever n is negative and k is positive, 0 for 0 <= n < k, and the
    ordinary value otherwise.  The k = 0 case must be 1 for every n so that
    degenerate empty-range choices count exactly one way.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0 or n < k:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class HalfPolynomial:
    """Dense polynomial in q with arbitrary-precision integer coefficients.

    ``coeffs[k]`` is the coefficient of q^k = z^(k/2).  The representation is
    canonical: no trailing zeros, and the zero polynomial is the empty tuple;
    the constructor takes any iterable of ints and trims it to that form;
    any other coefficient, or an exponent given to ``monomial``,
    ``from_dict`` or ``coefficient`` that is no int, a bool included,
    raises ValidationError.
    Instances are immutable and hashable, and they pickle and copy.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not set(map(type, cs)) <= {int}:
            for i, c in enumerate(cs):
                _require_int(c, f"coefficient {i}", index=i)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    @classmethod
    def zero(cls) -> "HalfPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "HalfPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "HalfPolynomial":
        _require_int(exponent, "exponent")
        if exponent < 0:
            raise ValueError("q-exponents must be nonnegative")
        return cls((0,) * exponent + (coeff,))

    @classmethod
    def from_dict(cls, terms: dict[int, int]) -> "HalfPolynomial":
        if not set(map(type, terms)) <= {int}:
            for e in terms:
                _require_int(e, "exponent")
        cs = [0] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            if e < 0:
                raise ValueError("q-exponents must be nonnegative")
            cs[e] = c
        return cls(cs)

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        _require_int(k, "exponent")
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def exponents(self) -> Iterator[int]:
        """Exponents with nonzero coefficient, ascending."""
        return (k for k, c in enumerate(self.coeffs) if c)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "HalfPolynomial":
        return HalfPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "HalfPolynomial") -> "HalfPolynomial":
        if not isinstance(other, HalfPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HalfPolynomial(out)

    def __sub__(self, other: "HalfPolynomial") -> "HalfPolynomial":
        if not isinstance(other, HalfPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, HalfPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return HalfPolynomial(out)

    def __str__(self) -> str:
        return _format_poly(self.coeffs, "q")


def _format_poly(coeffs: Sequence[int], var: str) -> str:
    """Coefficients of var^0, var^1, ... as a sum such as "1 - 2*q + q^3"."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        power = var if k == 1 else f"{var}^{k}"
        if k == 0:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(power if c == 1 else f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _pack(coeffs: Sequence[int], k: int) -> int:
    """The polynomial with these coefficients, evaluated at 2^k by Horner
    shifts."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


def _pack_terms(terms: Iterable[tuple[int, int]], k: int) -> int:
    """The sum of c * 2^(k*e) over the terms (e, c), exponents distinct.

    Raises ValueError unless every coefficient is a base-2^k digit
    (0 <= c < 2^k): anything else would spill into its neighbours.
    """
    v = 0
    for e, c in terms:
        if c < 0 or c >> k:
            raise ValueError(f"coefficient {c} is not a base-2^{k} digit")
        v |= c << (k * e)
    return v


def _unpack(v: int, k: int) -> HalfPolynomial:
    """The polynomial whose base-2^k digits are v's; inverse of ``_pack``.

    Raises ValueError on a negative v, which no digit string represents,
    and on k < 1, which has no digits to read.
    """
    if v < 0 or k < 1:
        raise ValueError(f"cannot read packed value {v} in base 2^{k}")
    mask = (1 << k) - 1
    coeffs = []
    while v:
        coeffs.append(v & mask)
        v >>= k
    # ints whose last one is v's nonzero top digit: the canonical form,
    # built without the constructor's per-coefficient type test
    p = object.__new__(HalfPolynomial)
    object.__setattr__(p, "coeffs", tuple(coeffs))
    return p


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix, by fraction-free
    elimination (Bareiss 1968) with exact ``//`` and a row swap on a zero
    pivot; O(n^3) integer products.  Overwrites m."""
    n = len(m)
    sign, prev = 1, 1
    for j in range(n - 1):
        if not m[j][j]:
            swap = next((i for i in range(j + 1, n) if m[i][j]), None)
            if swap is None:
                return 0
            m[j], m[swap] = m[swap], m[j]
            sign = -sign
        pivot, top = m[j][j], m[j]
        for i in range(j + 1, n):
            row, lead = m[i], m[i][j]
            for c in range(j + 1, n):
                row[c] = (row[c] * pivot - lead * top[c]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_poly_matrix(rows: Sequence[Sequence[HalfPolynomial]]) -> HalfPolynomial:
    """Determinant of a square matrix of polynomials with signed integer
    coefficients, by fraction-free elimination on Kronecker-packed integers.

    Hadamard's inequality bounds every coefficient of the determinant by
    H = isqrt(prod_s sum_t L1(entry_st)^2) + 1, where L1 is the sum of
    absolute coefficient values.  With 2^(K-1) > H, each entry is packed
    into the integer entry(2^K); the integer determinant (``_bareiss``) is
    the polynomial determinant evaluated at 2^K; and its balanced base-2^K
    digits are the coefficients.  O(n^3) products of integers about
    n * K * (entry degree) bits long.  The variable is generic.

    ``GFMatrix.determinant`` does not call this: the path-family theorem
    gives its matrices a much smaller bound (see there), and this
    Hadamard-sized version is its independent check in the tests.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    if not all(isinstance(p, HalfPolynomial) for r in rows for p in r):
        raise ValidationError("every matrix entry must be a HalfPolynomial")
    hadamard_sq = 1
    for r in rows:
        hadamard_sq *= sum(sum(map(abs, p.coeffs)) ** 2 for p in r)
    k = (math.isqrt(hadamard_sq) + 1).bit_length() + 1
    v = _bareiss([[_pack(p.coeffs, k) for p in r] for r in rows])
    mask, half = (1 << k) - 1, 1 << (k - 1)
    coeffs = []
    while v:
        digit = v & mask
        v >>= k
        if digit >= half:
            digit -= 1 << k
            v += 1
        coeffs.append(digit)
    return HalfPolynomial(coeffs)


def to_z_polynomial(p: HalfPolynomial) -> HalfPolynomial:
    """Check that every term of p sits at an even q-exponent.

    Returns p unchanged on success; this is the gateway through which a
    determinant becomes the numerator of a Hilbert series.  A failure is a
    bug indicator, never a valid outcome of the pipeline.  A p that is no
    HalfPolynomial raises ValidationError.
    """
    if not isinstance(p, HalfPolynomial):
        raise ValidationError(f"{p!r} is not a HalfPolynomial")
    for k in p.exponents():
        if k % 2:
            raise OddExponentPresent(k)
    return p


@dataclass(frozen=True)
class HilbertSeries:
    """A rational series numerator(z) / (1 - z)^denom_exponent.

    The numerator is stored as a HalfPolynomial whose nonzero terms all sit
    at even q-exponents, i.e. a genuine polynomial in z = q^2.  A numerator
    that is no HalfPolynomial, or an exponent that is no ``int`` (a bool
    included), raises ValidationError; a negative exponent, ValueError.
    """

    numerator: HalfPolynomial
    denom_exponent: int

    def __post_init__(self):
        to_z_polynomial(self.numerator)
        _require_int(self.denom_exponent, "denom_exponent")
        if self.denom_exponent < 0:
            raise ValueError("denominator exponent must be nonnegative")

    @property
    def z_coefficients(self) -> tuple[int, ...]:
        """Numerator coefficients of z^0, z^1, ..., z^deg."""
        return self.numerator.coeffs[::2]

    @property
    def multiplicity(self) -> int:
        """The numerator at z = 1.

        For a series from ``hilbert_series`` this is D = det M(1), the
        determinant of the entries at q = 1: the number of nonintersecting
        path families, which is the multiplicity (degree) of the ring.
        """
        return sum(self.numerator.coeffs)


def series_expand(series: HilbertSeries, terms: int) -> list[int]:
    """First ``terms`` power-series coefficients of the rational series.

    coeff(L) = sum_j num_j * c_(L - j) over numerator terms with j <= L,
    where c_L = binomial(L + e - 1, L) is the coefficient of z^L in
    (1 - z)^(-e), built once by c_0 = 1, c_L = c_(L-1) (L - 1 + e) / L
    (an exact division; for e = 0 it gives 1, 0, 0, ...).  ``terms`` must
    be an ``int``, a bool excluded (ValidationError), and nonnegative
    (ValueError).
    """
    _require_int(terms, "terms")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    num = series.z_coefficients
    e = series.denom_exponent
    col = [1]
    for ell in range(1, terms):
        col.append(col[-1] * (ell - 1 + e) // ell)
    return [
        sum(num[j] * col[ell - j] for j in range(min(ell + 1, len(num))))
        for ell in range(terms)
    ]
