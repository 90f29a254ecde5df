"""The brute-force enumerators, checked against hand listings and each other."""

import random
import time

import pytest

import laddergf.oracle
from laddergf import (
    CapExceeded,
    ChainViolation,
    HalfPolynomial,
    InstanceTooLarge,
    InvalidLatticePath,
    LatticePath,
    LatticePoint,
    MismatchFound,
    TASpec,
    enumerate_arrays,
    enumerate_path_families,
    gf_trivial,
    ne_turns,
    validate_ladder,
)
from laddergf.oracle import array_candidates
from helpers import random_endpoints, random_ladder

P = HalfPolynomial


def test_ne_turns_worked_path():
    path = LatticePath((1, -1), tuple("NNENNEEENENN"))
    assert path.end == LatticePoint(6, 6)
    assert ne_turns(path) == [(1, 1), (2, 3), (5, 4)]


def test_ne_turns_degenerate():
    assert ne_turns(LatticePath((0, 0), ("E", "E", "E"))) == []
    assert ne_turns(LatticePath((0, 0), ("N", "E"))) == [(0, 1)]
    assert ne_turns(LatticePath((2, 5), ())) == []


@pytest.mark.parametrize("steps, index", [(5, None), (("E", "X"), 1)],
                         ids=["not-iterable", "bad-step"])
def test_lattice_path_rejects_bad_steps(steps, index):
    with pytest.raises(InvalidLatticePath) as raised:
        LatticePath((0, 0), steps)
    assert raised.value.index == index


def test_enumerate_arrays_type_zero():
    lad = validate_ladder(1, 2, [3, 3])
    spec = TASpec(0, (0, 0), (1, 1), 0, lad)
    assert enumerate_arrays(spec) == P([1, 0, 4, 0, 1])


def test_enumerate_arrays_negative_type():
    # second row longer by one: two singleton rows, then two of size three
    lad = validate_ladder(1, 2, [3, 3])
    spec = TASpec(-1, (0, 0), (1, 1), 0, lad)
    assert enumerate_arrays(spec) == P([0, 2, 0, 2])


def test_enumerate_arrays_empty_first_row_range():
    lad = validate_ladder(1, 2, [3, 3])
    spec = TASpec(2, (1, 0), (0, 1), 0, lad)
    assert enumerate_arrays(spec) == P.zero()


def test_enumerate_arrays_cap():
    lad = validate_ladder(8, 8, [9] * 9)
    spec = TASpec(0, (0, 0), (8, 8), 0, lad)
    with pytest.raises(CapExceeded):
        enumerate_arrays(spec, size_cap=4)


def test_enumerate_arrays_long_rows_pass_by_default():
    """Only the guard bounds the work by default: one candidate array with a
    second row of 65 entries is enumerated, not refused for its length."""
    spec = TASpec(-65, (0, 0), (-1, 64), 0, validate_ladder(0, 70, [71]))
    assert array_candidates(spec) == 1
    assert enumerate_arrays(spec) == P.monomial(65)


def test_enumerate_arrays_guard_raises_before_enumerating():
    """C(80, 40), about 1.1e23, candidate arrays pass the row-length cap;
    the guard refuses them at once instead of running without end."""
    lad = validate_ladder(40, 40, [41] * 41)
    spec = TASpec(0, (1, 0), (40, 39), 0, lad)
    start = time.perf_counter()
    with pytest.raises(InstanceTooLarge):
        enumerate_arrays(spec)
    assert time.perf_counter() - start < 1.0


def test_array_candidates_is_the_unrestricted_count():
    """The oracle's candidate count is the unrestricted form at q = 1, for
    every type and for empty and inverted ranges."""
    rng = random.Random(21)
    lad = validate_ladder(9, 9, [10] * 10)
    for _ in range(2000):
        a1, a2, e1, e2 = (rng.randint(-2, 9) for _ in range(4))
        l = rng.randint(-5, 5)
        spec = TASpec(l, (a1, a2), (e1, e2), rng.randint(0, 2), lad)
        assert array_candidates(spec) == sum(gf_trivial(l, (a1, a2), (e1, e2)).coeffs), spec


def test_enumerate_arrays_matches_trivial_form():
    # with the boundary out of reach, the oracle must reproduce the closed
    # unrestricted form for every small type and bound
    for l in range(-2, 3):
        for w1 in range(0, 5):
            for w2 in range(0, 5):
                for d in range(0, 3):
                    b = w2 + 2
                    lad = validate_ladder(w1, b, [b + 1] * (w1 + 1))
                    spec = TASpec(l, (0, 0), (w1 - 1, w2 - 1), d, lad)
                    assert enumerate_arrays(spec) == gf_trivial(l, (0, 0), (w1 - 1, w2 - 1), d)


def test_single_path_families():
    lad = validate_ladder(1, 1, [2, 2])
    gf = enumerate_path_families(lad, [(0, 0)], [(1, 1)])
    # EN has no turn, NE has one
    assert gf == P([1, 0, 1])


def test_family_no_path():
    lad = validate_ladder(2, 2, [3, 3, 3])
    assert enumerate_path_families(lad, [(1, 1)], [(0, 0)]) == P.zero()


@pytest.mark.parametrize("starts, ends", [([(0, 0)], []), ([], [])],
                         ids=["unpaired", "empty"])
def test_family_needs_paired_endpoints(starts, ends):
    lad = validate_ladder(2, 2, [3, 3, 3])
    with pytest.raises(ChainViolation):
        enumerate_path_families(lad, starts, ends)


def test_two_path_family_small():
    lad = validate_ladder(2, 2, [3, 3, 3])
    gf = enumerate_path_families(lad, [(0, 1), (1, 0)], [(1, 2), (2, 1)])
    # each path is EN or NE; the only colliding combination shares (1, 1),
    # leaving families with 0, 1, and 2 turns
    assert gf == P([1, 0, 1, 0, 1])


def test_family_guard():
    lad = validate_ladder(8, 8, [9] * 9)
    with pytest.raises(InstanceTooLarge):
        enumerate_path_families(lad, [(0, 0)], [(8, 8)], max_candidates=10)


def test_family_guard_bounds_the_paths_of_each_pair(monkeypatch):
    """The paths of every pair are built and kept even where another pair
    has none and no family exists, so their sum is bounded too: one path
    across a 13 x 13 box (2.7 million candidates) is refused before any
    path is built, by default and behind a pair with no path."""

    def unavailable(A, E):
        raise RuntimeError("paths were enumerated before the guard was checked")

    monkeypatch.setattr(laddergf.oracle, "_paths_between", unavailable)
    lad = validate_ladder(12, 12, [13] * 13)
    for starts, ends in (([(0, 0)], [(12, 12)]), ([(5, 0), (0, 0)], [(4, 12), (12, 12)])):
        with pytest.raises(InstanceTooLarge):
            enumerate_path_families(lad, starts, ends)


class _NotAnUpperLadder:
    """Region without the point (1, 0): the path E, N leaves it, though it
    has no NE-turn."""

    def contains(self, point):
        return tuple(point) != (1, 0)


def test_family_containment_mismatch_raises():
    with pytest.raises(MismatchFound, match="containment mismatch"):
        enumerate_path_families(_NotAnUpperLadder(), [(0, 0)], [(1, 1)])


def test_single_path_equals_array_enumeration():
    # turn lists of single paths are exactly the type-0 arrays with the
    # shifted corner points
    rng = random.Random(42)
    done = 0
    while done < 30:
        lad = random_ladder(rng, 5, 5)
        drawn = random_endpoints(rng, lad, 1)
        if drawn is None:
            continue
        (A,), (E,) = drawn
        fam = enumerate_path_families(lad, [A], [E])
        spec = TASpec(0, (A[0], A[1] + 1), (E[0] - 1, E[1]), 0, lad)
        assert fam == enumerate_arrays(spec)
        done += 1
