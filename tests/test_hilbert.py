"""The determinant pipeline and the Hilbert series assembly."""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from laddergf import (
    Bivector,
    GFMatrix,
    HalfPolynomial,
    MismatchFound,
    OddExponentPresent,
    TASpec,
    ValidationError,
    build_gf_matrix,
    endpoints_from_bivector,
    enumerate_arrays,
    enumerate_path_families,
    hilbert_series,
    path_gf,
    series_expand,
    validate_general_endpoints,
    validate_ladder,
)
from laddergf.genfun import _Engine
from laddergf.hilbert import matrix_specs
from laddergf.polyring import _bareiss
from helpers import (
    FLAGSHIP_NUMERATOR,
    flagship_bivector,
    flagship_ladder,
    hadamard_determinant,
    laplace_det,
    random_bivector,
    random_corollary_ladder,
    random_endpoints,
    random_ladder,
)

P = HalfPolynomial
ROOT = Path(__file__).resolve().parent.parent


def test_matrix_one_by_one():
    lad = validate_ladder(1, 1, [2, 2])
    cfg = endpoints_from_bivector(lad, Bivector((1,), (1,)))
    matrix = build_gf_matrix(lad, cfg)
    assert matrix.n == 1
    assert matrix.entries[0][0] == P([1, 0, 1])


def test_matrix_rejects_bad_shape():
    one = P.one()
    with pytest.raises(ValueError):
        GFMatrix(0, ())
    with pytest.raises(ValueError):
        GFMatrix(2, ((one, P([0, 1])),))
    with pytest.raises(ValueError):
        GFMatrix(2, ((one, P([0, 1])), (P([0, 1]),)))


@pytest.mark.parametrize("n, entries", [
    (1, (((1, 0, 1),),)),  # a tuple, not a HalfPolynomial
    (1.0, ((P([1]),),)),
    (True, ((P([1]),),)),
])
def test_matrix_rejects_bad_types(n, entries):
    """A non-``int`` n, a bool included, or an entry that is no
    HalfPolynomial raises ValidationError, before the shape and parity
    checks: they raised AttributeError and TypeError from inside them."""
    with pytest.raises(ValidationError):
        GFMatrix(n, entries)


def test_matrix_stores_a_tuple_grid():
    """The grid and each row are stored as tuples, so a matrix built from
    lists hashes; a grid or row that is not iterable raises
    ValidationError.  A list grid was kept as given and could not be hashed,
    and the other two raised a bare TypeError."""
    one = P([1])
    matrix = GFMatrix(1, [[one]])
    assert matrix.entries == ((one,),)
    assert hash(matrix) == hash(GFMatrix(1, ((one,),)))
    for grid in ((one,), None):
        with pytest.raises(ValidationError):
            GFMatrix(1, grid)


def test_matrix_rejects_parity_break():
    # entry (1, 2) has type 1 and must hold odd q-exponents only
    with pytest.raises(OddExponentPresent) as err:
        GFMatrix(2, ((P.one(), P([0, 1, 3])), (P([0, 1]), P.one())))
    assert err.value.entry == (1, 2)
    assert err.value.exponent == 2
    with pytest.raises(OddExponentPresent) as err:
        GFMatrix(1, ((P([1, 1]),),))
    assert err.value.entry == (1, 1)
    assert err.value.exponent == 1


def test_matrix_entries_match_oracle():
    rng = random.Random(31)
    done = 0
    while done < 15:
        lad = random_corollary_ladder(rng, 5, 5)
        m = random_bivector(rng, lad, nmax=2)
        if m.n != 2:
            continue
        cfg = endpoints_from_bivector(lad, m)
        matrix = build_gf_matrix(lad, cfg)
        for s in range(1, 3):
            for t in range(1, 3):
                spec = TASpec(
                    t - s, cfg.shifted_starts[t - 1], cfg.shifted_ends[s - 1], s - 1, lad
                )
                assert matrix.entries[s - 1][t - 1] == enumerate_arrays(spec)
        done += 1


def test_determinant_matches_laplace_oracle():
    """GFMatrix.determinant against the Laplace expansion on pipeline
    matrices, n = 1..7, on random ladders whose first column and flat top
    block are both at least 7 points wide."""
    rng = random.Random(37)
    for n in range(1, 8):
        for _ in range(3):
            a, b = rng.randint(9, 14), rng.randint(9, 14)
            tail = rng.randint(7, a - 1)
            values = sorted(rng.randint(7, b + 1) for _ in range(a + 1 - tail))
            lad = validate_ladder(a, b, values + [b + 1] * tail)
            m = Bivector(tuple(sorted(rng.sample(range(1, values[0] + 1), n))),
                         tuple(sorted(rng.sample(range(1, tail + 1), n))))
            matrix = build_gf_matrix(lad, endpoints_from_bivector(lad, m))
            assert matrix.determinant() == laplace_det(matrix.entries), (lad.values, m)


def _wide_ladder_and_minor(rng: random.Random, n: int):
    """A ladder whose boundary reaches b + 1 and whose first column and flat
    top block are both at least n points wide, with an n x n minor."""
    a, b = rng.randint(n + 2, n + 7), rng.randint(n + 2, n + 7)
    tail = rng.randint(n, a)
    values = sorted(rng.randint(n, b + 1) for _ in range(a + 1 - tail))
    lad = validate_ladder(a, b, values + [b + 1] * tail)
    x_top = lad.values.index(b + 1)
    m = Bivector(tuple(sorted(rng.sample(range(1, values[0] + 1), n))),
                 tuple(sorted(rng.sample(range(1, a + 2 - x_top), n))))
    return lad, m


def _pipeline_matrices():
    """48 seeded pipeline matrices: four minors for each n = 1..7, and 20
    endpoint sets of one or two paths on ladders with a, b in 5..10."""
    rng = random.Random(38)
    for n in range(1, 8):
        for _ in range(4):
            lad, m = _wide_ladder_and_minor(rng, n)
            yield build_gf_matrix(lad, endpoints_from_bivector(lad, m))
    done = 0
    while done < 20:
        lad = random_ladder(rng, 10, 10, amin=5, bmin=5)
        drawn = random_endpoints(rng, lad, rng.choice((1, 2)))
        if drawn is not None:
            yield build_gf_matrix(lad, validate_general_endpoints(lad, *drawn))
            done += 1


def test_determinant_counts_families():
    """The premise of the family-count packing: on pipeline matrices every
    coefficient of the determinant is nonnegative and the coefficients sum
    to D, the determinant of the entries at q = 1; and the determinant
    equals the Hadamard-sized generic one."""
    count = 0
    for matrix in _pipeline_matrices():
        det = matrix.determinant()
        assert all(c >= 0 for c in det.coeffs), matrix
        at_one = [[sum(e.coeffs) for e in row] for row in matrix.entries]
        assert sum(det.coeffs) == _bareiss(at_one) > 0, matrix
        assert det == hadamard_determinant(matrix.entries), matrix
        count += 1
    assert count == 48


# Matrices that pass the shape and parity checks but count no path
# families, each with the part of the message that names the check it
# fails.  Each determinant P(z) = E(z^2) + z O(z^2) is read at b = 1:
# (1, q; q, 1) has P = z - z^2 before the division by z, D = 0 and
# E(4) = -4; the 1 x 1 matrix -1 + 3 z has D = 2 and E(4) = -1; the 1 x 1
# matrix 2 - z + z^2 has D = 2 and O(4) = -1; the 1 x 1 matrix -1 + z^2
# has D = 0 and E(4) = 3, O(4) = 0, whose base-4 digits sum to 3.
NOT_FAMILY_COUNTS = {
    "negative": (GFMatrix(2, ((P.one(), P([0, 1])), (P([0, 1]), P.one()))),
                 "even part"),
    "digit_sum": (GFMatrix(1, ((P([-1, 0, 3]),),)), "even part"),
    "odd_negative": (GFMatrix(1, ((P([2, 0, -1, 0, 1]),),)), "odd part"),
    "nonnegative_parts": (GFMatrix(1, ((P([-1, 0, 0, 0, 1]),),)), "sum to 3"),
}


@pytest.mark.parametrize("name", sorted(NOT_FAMILY_COUNTS))
def test_determinant_rejects_matrix_counting_no_families(name):
    matrix, message = NOT_FAMILY_COUNTS[name]
    with pytest.raises(MismatchFound, match=message):
        matrix.determinant()


def test_determinant_guard_survives_optimize():
    """python -O drops asserts; the guard must still raise, not hang on
    reading the digits of a negative value."""
    code = (
        "from laddergf import GFMatrix, HalfPolynomial as P, MismatchFound\n"
        "m = GFMatrix(2, ((P.one(), P([0, 1])), (P([0, 1]), P.one())))\n"
        "try:\n"
        "    m.determinant()\n"
        "except MismatchFound:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_one_by_one_determinant_even_odd_split():
    """An n = 1 determinant is its entry.  Entries with only even powers of
    z (so O = 0), only odd powers (E = 0), and the zero entry (D = 0, K = 1)
    come back unchanged from the split at z = 2^b and z = -2^b, and equal
    the Hadamard-sized determinant."""
    rng = random.Random(41)
    zero = GFMatrix(1, ((P(),),))
    assert zero.determinant() == P() == hadamard_determinant(zero.entries)
    for odd in (0, 1):
        for _ in range(20):
            # z^(2j + odd) is q^(4j + 2 odd)
            entry = P.from_dict({4 * j + 2 * odd: rng.randint(0, 1 << rng.randint(0, 40))
                                 for j in range(rng.randint(1, 8))})
            matrix = GFMatrix(1, ((entry,),))
            assert matrix.determinant() == entry == hadamard_determinant(matrix.entries)


def test_determinant_split_for_both_width_parities():
    """The split at z = +-2^b, b = ceil(K / 2), agrees with the
    Hadamard-sized determinant on pipeline matrices whose family-count
    width K = D.bit_length() is odd and on ones where it is even: seeded
    minors n = 1..8 of the 26 x 26 benchmark ladder."""
    lad = validate_ladder(26, 26, SWEEP_VALUES)
    rng = random.Random(43)
    parities = set()
    for n in range(1, 9):
        for _ in range(2):
            m = Bivector(tuple(sorted(rng.sample(range(1, 12), n))),
                         tuple(sorted(rng.sample(range(1, 12), n))))
            matrix = build_gf_matrix(lad, endpoints_from_bivector(lad, m))
            at_one = [[sum(e.coeffs) for e in row] for row in matrix.entries]
            parities.add(_bareiss(at_one).bit_length() % 2)
            assert matrix.determinant() == hadamard_determinant(matrix.entries), m
    assert parities == {0, 1}


def test_path_gf_single_trivial():
    lad = validate_ladder(1, 1, [2, 2])
    assert path_gf(lad, [(0, 0)], [(1, 1)]) == P([1, 0, 1])


def test_path_gf_single_flagship():
    # the single path of the n = 1 minor [6 | 6]; its shifted pair is
    # (0, 6) -> (7, 15)
    lad = flagship_ladder()
    got = path_gf(lad, [(0, 5)], [(8, 15)])
    truth = enumerate_path_families(lad, [(0, 5)], [(8, 15)])
    assert got == truth


def test_path_gf_pair_on_box():
    lad = validate_ladder(5, 5, [6] * 6)
    starts, ends = [(0, 1), (1, 0)], [(4, 5), (5, 4)]
    for method in ("recursive", "direct"):
        got = path_gf(lad, starts, ends, method)
        assert got == enumerate_path_families(lad, starts, ends)


def test_hilbert_series_hypersurface():
    lad = validate_ladder(1, 1, [2, 2])
    hs = hilbert_series(lad, Bivector((1,), (1,)))
    assert hs.z_coefficients == (1, 1)
    assert hs.denom_exponent == 3
    assert series_expand(hs, 6) == [1, 4, 9, 16, 25, 36]
    assert hs.multiplicity == 2


def test_hilbert_series_flagship_spot_checks():
    hs = hilbert_series(flagship_ladder(), flagship_bivector())
    zc = hs.z_coefficients
    assert zc[:4] == (1, 71, 2556, 61832)
    assert zc[-1] == 532021875
    assert hs.denom_exponent == 99
    # degree-1 component counts the surviving matrix entries
    assert series_expand(hs, 2) == [1, sum(flagship_ladder().values)]
    assert hs.multiplicity == sum(FLAGSHIP_NUMERATOR)


def test_methods_agree_on_random_instances():
    rng = random.Random(33)
    for _ in range(12):
        lad = random_corollary_ladder(rng, 7, 7)
        m = random_bivector(rng, lad)
        hs_r = hilbert_series(lad, m, "recursive")
        hs_d = hilbert_series(lad, m, "direct")
        assert hs_r == hs_d


def test_numerator_constant_term_is_one():
    rng = random.Random(34)
    for _ in range(25):
        lad = random_corollary_ladder(rng, 7, 7)
        m = random_bivector(rng, lad)
        hs = hilbert_series(lad, m)
        assert hs.numerator.coefficient(0) == 1


def test_denominator_exponent_formula():
    rng = random.Random(35)
    for _ in range(25):
        lad = random_corollary_ladder(rng, 7, 7)
        m = random_bivector(rng, lad)
        hs = hilbert_series(lad, m)
        expected = (lad.a + lad.b + 3) * m.n - sum(m.u) - sum(m.v)
        assert hs.denom_exponent == expected


def test_unknown_method_rejected():
    lad = validate_ladder(1, 1, [2, 2])
    with pytest.raises(ValueError):
        hilbert_series(lad, Bivector((1,), (1,)), "fast")


def test_theorem_level_oracle_equivalence_sample():
    rng = random.Random(36)
    done = 0
    while done < 20:
        lad = random_ladder(rng, 5, 5)
        n = rng.choice((1, 2))
        drawn = random_endpoints(rng, lad, n)
        if drawn is None:
            continue
        starts, ends = drawn
        truth = enumerate_path_families(lad, starts, ends)
        assert path_gf(lad, starts, ends, "recursive") == truth
        assert path_gf(lad, starts, ends, "direct") == truth
        done += 1


# The 26 x 26 ladder of the benchmark's minor_sweep workload: f(0) = 11 and a
# flat top block 11 columns wide, so every minor with n <= 9 fits.
SWEEP_VALUES = (11, 12, 13, 14, 14, 15, 16, 18, 19, 20, 21, 22, 22, 22, 23, 25) + (27,) * 11


def test_ladder_engine_shared_across_minors():
    """All queries on one ladder share its engine, which a wider query
    replaces; every entry equals that of a fresh engine per query.  A 1 x 1
    minor goes first, then 99 of random sizes 1..9 in random order, so the
    packing width grows during the sweep."""
    lad = validate_ladder(26, 26, SWEEP_VALUES)
    rng = random.Random(53)
    minors = [Bivector(tuple(sorted(rng.sample(range(1, 12), n))),
                       tuple(sorted(rng.sample(range(1, 12), n))))
              for n in (rng.randint(1, 9) for _ in range(99))]
    widths = []
    for m in [Bivector((11,), (11,))] + minors:
        cfg = endpoints_from_bivector(lad, m)
        shared = build_gf_matrix(lad, cfg).entries
        widths.append(lad._engine.k)
        specs = matrix_specs(lad, cfg)
        fresh = _Engine(lad, [spec for row in specs for spec in row])
        assert shared == tuple(tuple(map(fresh.gf, row)) for row in specs), m
    assert widths == sorted(widths) and widths[0] < widths[-1]


def test_ladder_engine_dies_with_ladder():
    """The engine holds no reference to its ladder, so refcounting frees
    it with the ladder, without waiting for the cycle collector."""
    lad = validate_ladder(26, 26, SWEEP_VALUES)
    hilbert_series(lad, Bivector((1, 2), (1, 2)))
    ladder_ref, engine_ref = weakref.ref(lad), weakref.ref(lad._engine)
    del lad
    assert ladder_ref() is None and engine_ref() is None


def test_engine_registry_under_threads():
    """Threads that query one shared ladder at once, with a short switch
    interval and minors that need ever wider packings, so that the engine
    is replaced while others use it, all get the right series."""
    values = (4, 5, 5, 6, 7, 8) + (10,) * 5
    lad = validate_ladder(10, 9, values)
    minors = [Bivector((4,), (4,)), Bivector((3,), (3,)), Bivector((2, 3), (2, 3)),
              Bivector((1, 2, 3), (1, 2, 3)), Bivector((1, 2, 3, 4), (1, 2, 3, 4))]
    want = [hilbert_series(validate_ladder(10, 9, values), m, "direct") for m in minors]
    failures = []

    def work():
        try:
            for i in range(10):
                for m, series in zip(minors, want):
                    if hilbert_series(lad, m) != series:
                        failures.append((i, m))
        except Exception as exc:  # reported through the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    first = matrix_specs(lad, endpoints_from_bivector(lad, minors[0]))
    assert lad._engine.k > _Engine(lad, [spec for row in first for spec in row]).k


def test_widening_frees_or_empties_the_replaced_engine():
    """A 1 x 1 minor, then a 5 x 5 minor on the same ladder, which needs a
    wider packing: the replaced engine is freed, so the ladder keeps one
    memo."""
    lad = validate_ladder(26, 26, SWEEP_VALUES)
    hilbert_series(lad, Bivector((11,), (11,)))
    narrow = weakref.ref(lad._engine)
    k = narrow().k
    hilbert_series(lad, Bivector((1, 2, 3, 4, 5), (1, 3, 5, 7, 9)))
    assert lad._engine.k > k
    assert narrow() is None


def test_queried_ladder_compares_hashes_and_prints_as_before():
    """Asking for an engine leaves the ladder's value alone: it still equals
    and hashes like a fresh equal ladder, and its repr is unchanged."""
    queried, fresh = (validate_ladder(26, 26, SWEEP_VALUES) for _ in range(2))
    before = repr(queried)
    hilbert_series(queried, Bivector((1, 2), (1, 2)))
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh) == before


def test_queried_ladder_pickles_and_copies_without_its_engine():
    """A ladder's value is (a, b, values): a queried ladder pickles to the
    same bytes as a fresh equal one and round-trips equal, and neither a
    shallow nor a deep copy carries the engine or its memo."""
    queried, fresh = (validate_ladder(26, 26, SWEEP_VALUES) for _ in range(2))
    hilbert_series(queried, Bivector((1, 2, 3), (1, 2, 3)))
    assert queried._engine.memo
    assert pickle.dumps(queried) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(queried)) == queried
    for clone in (copy.copy(queried), copy.deepcopy(queried)):
        assert clone == queried and not hasattr(clone, "_engine")


def test_results_pickle_and_copy():
    """A polynomial, the flagship series and a matrix of entries round-trip
    through pickle, copy.copy and copy.deepcopy equal to the original, so a
    result can cross a process pool or be copied."""
    lad, m = flagship_ladder(), flagship_bivector()
    results = (
        P([1, 0, 4, 0, 1]),
        hilbert_series(lad, m),
        build_gf_matrix(lad, endpoints_from_bivector(lad, m)),
    )
    for result in results:
        for clone in (pickle.loads(pickle.dumps(result)),
                      copy.copy(result), copy.deepcopy(result)):
            assert type(clone) is type(result) and clone == result, result
