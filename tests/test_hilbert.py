"""The determinant pipeline and the Hilbert series assembly."""

import gc
import os
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
from laddergf.genfun import _ENGINES, _Engine
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
# families: (1, q; q, 1) has determinant 1 - q^2, D = 0 and a negative
# value at z = 2; the 1 x 1 matrix -1 + 3 q^2 has D = 2 and a positive
# value at z = 4 whose base-4 digits sum to 8; the 1 x 1 matrix
# 2 - q^2 + q^4 has D = 2, its only negative coefficient at an odd power
# of z, and a positive value at z = 4 whose base-4 digits sum to 5.
NOT_FAMILY_COUNTS = {
    "negative": GFMatrix(2, ((P.one(), P([0, 1])), (P([0, 1]), P.one()))),
    "digit_sum": GFMatrix(1, ((P([-1, 0, 3]),),)),
    "odd_negative": GFMatrix(1, ((P([2, 0, -1, 0, 1]),),)),
}


@pytest.mark.parametrize("name", sorted(NOT_FAMILY_COUNTS))
def test_determinant_rejects_matrix_counting_no_families(name):
    with pytest.raises(MismatchFound):
        NOT_FAMILY_COUNTS[name].determinant()


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
        widths.append(_ENGINES[lad].k)
        specs = matrix_specs(lad, cfg)
        fresh = _Engine(lad, [spec for row in specs for spec in row])
        assert shared == tuple(tuple(map(fresh.gf, row)) for row in specs), m
    assert widths == sorted(widths) and widths[0] < widths[-1]


def test_ladder_engine_dies_with_ladder():
    """The engine holds no reference to its ladder: once the ladder is
    gone, its registry entry and the engine itself are freed."""
    gc.collect()
    before = len(_ENGINES)
    lad = validate_ladder(26, 27, SWEEP_VALUES[:-2] + (28, 28))  # equal to no other ladder
    hilbert_series(lad, Bivector((1, 2), (1, 2)))
    assert len(_ENGINES) == before + 1
    ladder_ref, engine_ref = weakref.ref(lad), weakref.ref(_ENGINES[lad])
    del lad
    gc.collect()
    assert ladder_ref() is None and engine_ref() is None
    assert len(_ENGINES) == before


def test_engine_lives_while_an_equal_ladder_does():
    """When the ladder whose query made the engine dies, an equal ladder
    that also used it keeps it, memo and all; the engine dies with the
    last of them."""
    gc.collect()
    before = len(_ENGINES)
    # equal to each other and to no other ladder
    first, second = (validate_ladder(12, 12, (4, 6, 7, 7, 8, 9, 11) + (13,) * 6)
                     for _ in range(2))
    m = Bivector((1, 3), (2, 5))
    series = hilbert_series(first, m)
    assert hilbert_series(second, m) == series
    engine = _ENGINES[second]
    memo = dict(engine.memo)
    del first
    gc.collect()
    assert _ENGINES[second] is engine and engine.memo == memo
    assert hilbert_series(second, m) == series and engine.memo == memo
    engine_ref = weakref.ref(engine)
    del second, engine
    gc.collect()
    assert engine_ref() is None
    assert len(_ENGINES) == before


def test_engine_registry_under_threads(monkeypatch):
    """Threads that make, query and drop equal ladders at once, with a
    short switch interval, get the right series; no weak-reference callback
    fails; and once every ladder is gone no entry is left."""
    gc.collect()
    before = len(_ENGINES)
    values = (3, 4, 4, 5, 7) + (8,) * 4  # equal to no other ladder
    m = Bivector((1, 2), (1, 3))
    want = hilbert_series(validate_ladder(8, 7, values), m, "direct")
    failures = []
    monkeypatch.setattr(sys, "unraisablehook", failures.append)

    def work():
        try:
            for i in range(40):
                kept = validate_ladder(8, 7, values)
                if hilbert_series(kept, m) != want:
                    failures.append(i)
                if i % 8 == 0:
                    gc.collect()
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
    gc.collect()
    assert not failures, failures
    assert len(_ENGINES) == before


def test_widening_frees_or_empties_the_replaced_engine():
    """Two equal, distinct ladders: a 1 x 1 minor on the first, then a 5 x 5
    minor on the second, which needs a wider packing.  The engine that the
    first ladder used is then freed or keeps an empty memo, so only one
    memo per ladder value is kept."""
    gc.collect()
    first, second = (validate_ladder(26, 26, SWEEP_VALUES) for _ in range(2))
    hilbert_series(first, Bivector((11,), (11,)))
    narrow = weakref.ref(_ENGINES[first])
    k = narrow().k
    hilbert_series(second, Bivector((1, 2, 3, 4, 5), (1, 3, 5, 7, 9)))
    gc.collect()
    assert _ENGINES[second].k > k
    assert narrow() is None or not narrow().memo


def test_queried_ladder_compares_hashes_and_prints_as_before():
    """Asking for an engine leaves the ladder's value alone: it still equals
    and hashes like a fresh equal ladder, and its repr is unchanged."""
    queried, fresh = (validate_ladder(26, 26, SWEEP_VALUES) for _ in range(2))
    before = repr(queried)
    hilbert_series(queried, Bivector((1, 2), (1, 2)))
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh) == before


def test_equal_ladders_share_one_engine():
    """A query on a ladder equal to, but distinct from, one queried before
    reuses that ladder's engine and gives the same series as the direct
    method."""
    first, second = (validate_ladder(12, 12, (5, 6, 7, 7, 8, 9, 11) + (13,) * 6)
                     for _ in range(2))
    assert first is not second
    m = Bivector((1, 3, 4), (2, 3, 5))
    series = hilbert_series(first, m)
    engine = _ENGINES[first]
    assert hilbert_series(second, m) == series == hilbert_series(second, m, "direct")
    assert _ENGINES[second] is engine
