"""The Hilbert series of a ladder determinantal ring, start to finish.

The ring is the quotient of the polynomial ring in the surviving matrix
entries by the ideal of minors prescribed by a bivector
[u_1..u_n | v_1..v_n].  Its Hilbert series equals a turn-counting
generating function for n nonintersecting lattice paths inside the region,
divided by (1 - z)^((a+b+3) n - sum(u_i + v_i)); the path count in turn is
an n x n determinant of two-rowed-array generating functions.
"""

import time

from laddergf import (
    Bivector,
    build_gf_matrix,
    endpoints_from_bivector,
    hilbert_series,
    series_expand,
    validate_ladder,
)

ladder = validate_ladder(
    a=13, b=15,
    values=[7, 7, 7, 7, 10, 11, 12, 13, 16, 16, 16, 16, 16, 16],
)
minor = Bivector(u=(1, 2, 4, 6), v=(1, 2, 3, 6))

# each path i runs from the left edge to the top edge; the determinant uses
# the diagonally shifted copies of the endpoints
config = endpoints_from_bivector(ladder, minor)
print("path endpoints:")
for i, (A, E) in enumerate(zip(config.starts, config.ends), start=1):
    print(f"   path {i}: {tuple(A)} -> {tuple(E)}   "
          f"shifted {tuple(config.shifted_starts[i - 1])} -> "
          f"{tuple(config.shifted_ends[i - 1])}")

matrix = build_gf_matrix(ladder, config)
print("\nmatrix entry degrees in q:")
for row in matrix.entries:
    print("   ", [p.degree for p in row])

t0 = time.perf_counter()
series = hilbert_series(ladder, minor, method="recursive")
t_rec = time.perf_counter() - t0
t0 = time.perf_counter()
series_direct = hilbert_series(ladder, minor, method="direct")
t_dir = time.perf_counter() - t0
assert series == series_direct

coeffs = series.z_coefficients
print(f"\nnumerator degree {len(coeffs) - 1}, denominator (1 - z)^{series.denom_exponent}")
print("numerator coefficients:")
for k, c in enumerate(coeffs):
    print(f"   z^{k:<2} {c}")

print("\nfirst Hilbert function values:", series_expand(series, 6))
print(f"\nborder peeling: {t_rec:.4f}s   multi-sum: {t_dir:.4f}s   "
      f"ratio {t_dir / t_rec:.1f}x")
