"""Assembling the determinant and the Hilbert series.

The turn generating function for n nonintersecting lattice paths inside an
upper ladder is an n x n determinant whose (s, t) entry is the two-rowed
array generating function with type t - s, offset s - 1, start equal to the
t-th shifted start and end equal to the s-th shifted end.  Dividing by
(1 - z)^((a+b+3) n - sum(u_i + v_i)) yields the Hilbert series of the ladder
determinantal ring cogenerated by the bivector.

The recursive method answers every query on a ladder from one engine kept
on that ladder object, so the entries of one matrix, and the minors of one
ladder, share sub-results; the engine's memo lives as long as the ladder
object that was queried.  Values are exact counts, so evaluation order never
affects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import MismatchFound, OddExponentPresent, ValidationError
from .genfun import TASpec, _engine_for, gf_direct_row
from .model import (
    Bivector,
    EndpointConfig,
    LadderFunction,
    _as_tuple,
    _require_int,
    endpoints_from_bivector,
    validate_general_endpoints,
)
from .polyring import HalfPolynomial, HilbertSeries, _bareiss, _digits, _pack, _wide_digits

METHODS = ("recursive", "direct")  # the default first

# The size in bits of the two-point determinant's packed result from which
# GFMatrix.determinant takes the four-point route, where it ran faster
# (README gives the measurement).
FOUR_POINT_BITS = 5000


@dataclass(frozen=True)
class GFMatrix:
    """The n x n grid of array generating functions.

    Entry (s, t) carries only q-exponents congruent to t - s mod 2, so every
    expansion term of the determinant has even total degree.  The constructor
    stores the grid and each row as tuples, checks the types
    (ValidationError, also for a grid or row that is not iterable), the
    shape (ValueError unless n x n) and the parity (OddExponentPresent,
    naming the 1-based entry).
    """

    n: int
    entries: tuple[tuple[HalfPolynomial, ...], ...]

    def __post_init__(self):
        _require_int(self.n, "n")
        rows = _as_tuple(self.entries, "GFMatrix entries", ValidationError)
        object.__setattr__(self, "entries", tuple(
            _as_tuple(row, "GFMatrix row", ValidationError) for row in rows))
        if not all(isinstance(e, HalfPolynomial) for row in self.entries for e in row):
            raise ValidationError("every GFMatrix entry must be a HalfPolynomial")
        if self.n < 1 or len(self.entries) != self.n or any(
                len(r) != self.n for r in self.entries):
            raise ValueError(f"GFMatrix entries must form a {self.n} x {self.n} grid, n >= 1")
        for s in range(self.n):
            for t in range(self.n):
                parity = (t - s) % 2
                for e in self.entries[s][t].exponents():
                    if e % 2 != parity:
                        raise OddExponentPresent(e, entry=(s + 1, t + 1))

    def determinant(self) -> HalfPolynomial:
        """The determinant, computed over z = q^2.

        Multiplying row s and column t (0-based) by q^(s mod 2) and
        q^(t mod 2) makes every exponent even, by the parity invariant, so
        the matrix becomes one over Z[z] of half the degree.  Its
        determinant P is z^(n // 2) times the wanted one.

        By the path-family theorem (as by Lindstrom-Gessel-Viennot) P counts
        families of nonintersecting paths by turns, so its coefficients are
        nonnegative and sum to D, the integer determinant of the entries at
        z = 1: the number of families.  Each coefficient is then at most D
        and fits in K = max(1, D.bit_length()) bits.  Write
        P(z) = E(z^2) + z O(z^2).  Two fraction-free eliminations, on the
        entries packed at z = 2^h and at z = -2^h, give
        E(4^h) = (P(2^h) + P(-2^h)) / 2 and
        O(4^h) = (P(2^h) - P(-2^h)) / 2^(h+1), both exact divisions for any
        integer matrix (multipoint Kronecker substitution, Harvey 2009).
        CPython multiplies by Karatsuba and divides in quadratic time, so
        eliminations on shorter integers cost less than their share.

        The two-point route takes h = b = ceil(K / 2): since 2b >= K, the
        unsigned base-2^(2b) digits of E(4^b) and O(4^b) are the even and
        odd coefficients of P.  The four-point route halves h once more.
        Column shifts c_t = min_s deg M_st and row shifts
        r_s = max_t (deg M_st - c_t), over the nonzero entries, bound each
        entry's degree by r_s + c_t, so deg P <= N = sum r + sum c, padded
        to even on the first row.  The
        reversed matrix z^(r_s + c_t) M_st(1/z) has determinant
        z^N P(1/z), whose even and odd parts hold the coefficients of E and
        O in reverse.  Four eliminations, on both matrices at
        z = +-2^c with c = ceil((K + 1) / 4), give E and O at 4^c and
        their reversals there; every coefficient is below 2^(4c - 1), so
        ``_wide_digits`` reads each coefficient, two base-4^c digits wide,
        from the reversal's low digits and the forward value's high ones.
        The four-point route runs when the two-point result would be
        FOUR_POINT_BITS bits or more, b * N, where it is the faster one
        (README gives measured figures).  ``det_poly_matrix`` sizes its
        single width by Hadamard's bound, which holds for any signed matrix,
        and that is wider than K.

        The bound holds only by the theorem.  A matrix that breaks it, such
        as a hand-built one, raises MismatchFound when E or O is negative,
        when the four-point digits leave a remainder or a negative
        coefficient, or when the coefficients do not sum to D.
        """
        # entry (s, t) times q^(s mod 2 + t mod 2): its q^(4j) and q^(4j + 2)
        # coefficients are those of z^(2j) and z^(2j + 1), and the others are 0
        shifted = [
            [(0,) * (s % 2 + t % 2) + entry.coeffs for t, entry in enumerate(row)]
            for s, row in enumerate(self.entries)
        ]
        families = _bareiss([[sum(c) for c in row] for row in shifted])
        width = max(1, families.bit_length())
        b = (width + 1) // 2
        shifts = _four_point_shifts(shifted, b)
        if shifts is None:
            even, odd = _even_odd(shifted, b)
            even_coeffs, odd_coeffs = _digits(even, 2 * b), _digits(odd, 2 * b)
        else:
            rows, cols = shifts
            half_degree = (sum(rows) + sum(cols)) // 4
            c = (width + 4) // 4
            reversed_q = [
                [(e + (0,) * (rs + ct + 1 - len(e)))[::-1] for e, ct in zip(row, cols)]
                for row, rs in zip(shifted, rows)
            ]
            (even, odd), (even_rev, odd_rev) = _even_odd(shifted, c), _even_odd(reversed_q, c)
            try:
                even_coeffs = _wide_digits(even, even_rev, 2 * c, half_degree + 1)
                odd_coeffs = _wide_digits(odd, odd_rev, 2 * c, half_degree)
            except ValueError as exc:
                raise MismatchFound(
                    f"the determinant does not read as coefficients in [0, 2^{4 * c - 1}), "
                    f"so it does not count path families: {exc}") from exc
        total = sum(even_coeffs) + sum(odd_coeffs)
        if total != families:
            raise MismatchFound(
                f"determinant coefficients sum to {total}, not to the "
                f"{families} path families of the entries at z = 1")
        # E's digits are the coefficients of q^(4j), O's those of q^(4j + 2);
        # dropping the first 2 (n // 2) divides by z^(n // 2)
        q_coeffs = [0] * (4 * max(len(even_coeffs), len(odd_coeffs)))
        q_coeffs[:4 * len(even_coeffs):4] = even_coeffs
        q_coeffs[2:4 * len(odd_coeffs):4] = odd_coeffs
        return HalfPolynomial._unchecked(q_coeffs[2 * (self.n // 2):])


def _four_point_shifts(shifted: list[list[tuple[int, ...]]], b: int):
    """The row and column shifts r_s and c_t of the four-point route, in
    q-exponents (twice their z-degrees), the first row padded so that N is
    even; None when the two-point result, b N bits, stays below
    FOUR_POINT_BITS.

    N is at most twice n times the largest z-degree, so the length of the
    longest entry settles that for small matrices without the shifts.  The
    columns are shifted down by their lowest degree, then the rows by the
    largest remaining one; an all-zero row or column takes shift 0.  Only
    nonzero entries have a degree: a zero entry's shifted tuple is its
    leading zeros, whose length would give an odd row or column a shift of
    odd q-degree and put odd q-exponents into the reversal.
    """
    if b * len(shifted) * max(map(len, chain.from_iterable(shifted))) < FOUR_POINT_BITS:
        return None
    # entries are canonical, so a nonzero one ends in a nonzero coefficient
    degrees = [[len(c) - 1 if c and c[-1] else None for c in row] for row in shifted]
    cols = [min([d for d in col if d is not None] or [0]) for col in zip(*degrees)]
    rows = [max([d - ct for d, ct in zip(row, cols) if d is not None] or [0])
            for row in degrees]
    rows[0] += (sum(rows) + sum(cols)) % 4
    if b * (sum(rows) + sum(cols)) // 2 < FOUR_POINT_BITS:
        return None
    return rows, cols


def _even_odd(shifted: list[list[tuple[int, ...]]], h: int) -> tuple[int, int]:
    """E(4^h) and O(4^h) for the determinant P(z) = E(z^2) + z O(z^2) of a
    matrix of q-coefficient tuples with even q-exponents only, z = q^2, by
    one elimination at z = 2^h and one at z = -2^h.  Raises MismatchFound
    when either is negative, as no determinant that counts path families
    is."""
    # each entry's even and odd parts in z at 4^h, the odd one times 2^h
    halves = [[(_pack(c[::4], 2 * h), _pack(c[2::4], 2 * h) << h) for c in row]
              for row in shifted]
    at_plus = _bareiss([[even + odd for even, odd in row] for row in halves])
    at_minus = _bareiss([[even - odd for even, odd in row] for row in halves])
    even, odd = (at_plus + at_minus) >> 1, (at_plus - at_minus) >> (h + 1)
    if even < 0 or odd < 0:
        part = "even" if even < 0 else "odd"
        raise MismatchFound(
            f"the {part} part of the determinant is negative at z^2 = 4^{h}, "
            "so it does not count path families")
    return even, odd


def matrix_specs(ladder: LadderFunction, cfg: EndpointConfig) -> list[list[TASpec]]:
    """The array sets of the determinant, row by row: entry (s, t), 1-based,
    has type t - s, offset s - 1, the t-th shifted start and the s-th
    shifted end."""
    return [
        [
            TASpec(t - s, cfg.shifted_starts[t - 1], cfg.shifted_ends[s - 1], s - 1, ladder)
            for t in range(1, cfg.n + 1)
        ]
        for s in range(1, cfg.n + 1)
    ]


def build_gf_matrix(
    ladder: LadderFunction, cfg: EndpointConfig, method: str = "recursive"
) -> GFMatrix:
    """Fill the determinant entries of ``matrix_specs`` row by row with the
    chosen evaluation method.

    The entries of row s share the s-th shifted end and the offset s - 1,
    so the direct method answers each row in one multi-sum sweep
    (``gf_direct_row``), whose entries share its top blocks.  The recursive
    method fills every entry from the ladder's engine, which every earlier
    query on this ladder object filled too, so that entries and queries
    share sub-results.  It is replaced by a new engine when an entry needs a
    wider packing than it has.  The engine's memo lives as long as the
    ladder object that was queried.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    specs = matrix_specs(ladder, cfg)
    if method == "direct":
        return GFMatrix(cfg.n, [gf_direct_row(row) for row in specs])
    gf = _engine_for(ladder, [spec for row in specs for spec in row]).gf
    return GFMatrix(cfg.n, [[gf(spec) for spec in row] for row in specs])


def path_gf(
    ladder: LadderFunction, starts, ends, method: str = "recursive"
) -> HalfPolynomial:
    """Turn generating function for nonintersecting path families.

    Validates the endpoint chains and region membership, builds the matrix,
    and returns its determinant, a polynomial in z = q^2 by construction:
    ``GFMatrix.determinant`` writes its coefficients at even q-exponents only.
    """
    cfg = validate_general_endpoints(ladder, starts, ends)
    return build_gf_matrix(ladder, cfg, method).determinant()


def hilbert_series(
    ladder: LadderFunction, m: Bivector, method: str = "recursive"
) -> HilbertSeries:
    """Hilbert series of the ladder determinantal ring cogenerated by m.

    The recursive method is the default.  Both methods take polynomial
    time; README compares their speed.
    """
    cfg = endpoints_from_bivector(ladder, m)
    matrix = build_gf_matrix(ladder, cfg, method)
    exponent = (ladder.a + ladder.b + 3) * m.n - sum(m.u) - sum(m.v)
    return HilbertSeries(matrix.determinant(), exponent)
