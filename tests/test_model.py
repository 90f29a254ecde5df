"""Ladder validation, mask conversion, and endpoint derivation."""

import random

import pytest

from laddergf import (
    Bivector,
    BoundaryNotFlatLeftOfFirstStart,
    ChainViolation,
    EndpointConfig,
    EndpointOutsideLadder,
    InvalidBivector,
    LatticePoint,
    NotAnUpperLadder,
    NotWeaklyIncreasing,
    PointOutsideLadder,
    TASpec,
    ValidationError,
    ValueOutOfRange,
    endpoints_from_bivector,
    gf_trivial,
    ladder_from_mask,
    path_gf,
    validate_general_endpoints,
    validate_ladder,
)
from laddergf.model import as_point
from helpers import (
    flagship_bivector,
    flagship_ladder,
    random_bivector,
    random_corollary_ladder,
    random_ladder,
)


def test_validate_ladder_accepts_flagship():
    lad = flagship_ladder()
    assert lad.value(0) == 7
    assert lad.value(13) == 16
    assert lad.value(7) == 13


def test_validate_ladder_minimal():
    lad = validate_ladder(0, 0, [1])
    assert lad.value(0) == 1
    assert lad.contains((0, 0))
    assert not lad.contains((0, 1))
    assert not lad.contains((1, 0))  # right of a


def test_validate_ladder_rejects_decrease():
    with pytest.raises(NotWeaklyIncreasing) as err:
        validate_ladder(1, 1, [2, 1])
    assert err.value.index == 0


def test_validate_ladder_rejects_out_of_range():
    with pytest.raises(ValueOutOfRange) as err:
        validate_ladder(1, 1, [1, 3])
    assert err.value.index == 1
    with pytest.raises(ValueOutOfRange):
        validate_ladder(1, 1, [0, 1])
    with pytest.raises(ValueOutOfRange):
        validate_ladder(2, 1, [1, 2])  # wrong length
    with pytest.raises(ValueOutOfRange):
        validate_ladder(-1, 1, [])
    with pytest.raises(ValueOutOfRange):
        validate_ladder(1, -1, [1, 1])


def test_flat_extension():
    rng = random.Random(5)
    for _ in range(20):
        lad = random_ladder(rng)
        for x in (-1, -3, -17):
            assert lad.value(x) == lad.value(0)
    with pytest.raises(ValueError):
        flagship_ladder().value(14)


def test_mask_round_trip_flagship():
    lad = flagship_ladder()
    mask = lad.to_mask()
    # matrix orientation: row 0 is the top; column 0 survives in the
    # bottom seven rows only
    assert mask[0][0] is False and mask[8][0] is False
    assert mask[9][0] is True and mask[15][0] is True
    assert mask[0][7] is False and mask[0][8] is True
    assert ladder_from_mask(mask) == lad


def test_mask_round_trip_random():
    rng = random.Random(6)
    for _ in range(50):
        lad = random_ladder(rng)
        assert ladder_from_mask(lad.to_mask()) == lad


def test_mask_all_true():
    assert ladder_from_mask([[True, True], [True, True]]) == validate_ladder(1, 1, [2, 2])


def test_mask_rejects_hole():
    # a false cell below a true cell in the same column
    with pytest.raises(NotAnUpperLadder):
        ladder_from_mask([[True], [False]])
    with pytest.raises(NotAnUpperLadder):
        ladder_from_mask([[True, True], [False, True], [True, True]])


def test_mask_rejects_empty_column_and_decrease():
    with pytest.raises(NotAnUpperLadder):
        ladder_from_mask([[False], [False]])
    for empty in ([], [[]]):
        with pytest.raises(NotAnUpperLadder):
            ladder_from_mask(empty)
    with pytest.raises(NotAnUpperLadder):
        ladder_from_mask([[True, True], [True]])  # ragged
    # column heights 2 then 1: lower-left corner, not an upper ladder
    with pytest.raises(NotAnUpperLadder):
        ladder_from_mask([[True, False], [True, True]])


def test_bivector_validation():
    assert Bivector((1, 3), (2, 5)).n == 2
    with pytest.raises(InvalidBivector):
        Bivector((1, 1), (1, 2))
    with pytest.raises(InvalidBivector):
        Bivector((0, 1), (1, 2))
    with pytest.raises(InvalidBivector):
        Bivector((1,), (1, 2))
    with pytest.raises(InvalidBivector):
        Bivector((), ())


def test_endpoints_flagship():
    cfg = endpoints_from_bivector(flagship_ladder(), flagship_bivector())
    assert cfg.starts == ((0, 5), (0, 3), (0, 1), (0, 0))
    assert cfg.ends == ((8, 15), (11, 15), (12, 15), (13, 15))
    assert cfg.shifted_starts[0] == LatticePoint(0, 6)
    assert cfg.shifted_ends[0] == LatticePoint(7, 15)
    # 1-based i = 4: start + (-3, 4) and end + (-4, 3)
    assert cfg.shifted_starts[3] == LatticePoint(-3, 4)
    assert cfg.shifted_ends[3] == LatticePoint(9, 18)


def test_endpoints_trivial_ladder():
    lad = validate_ladder(1, 1, [2, 2])
    cfg = endpoints_from_bivector(lad, Bivector((1,), (1,)))
    assert cfg.starts == ((0, 0),)
    assert cfg.ends == ((1, 1),)
    assert cfg.shifted_starts == (LatticePoint(0, 1),)
    assert cfg.shifted_ends == (LatticePoint(0, 1),)


def test_endpoints_membership_conditions():
    with pytest.raises(EndpointOutsideLadder) as err:
        endpoints_from_bivector(flagship_ladder(), Bivector((1, 2, 4, 10), (1, 2, 3, 6)))
    assert "u_n" in str(err.value)
    # f(a - v_n + 1) must reach b + 1
    lad = validate_ladder(2, 2, [1, 2, 3])
    with pytest.raises(EndpointOutsideLadder):
        endpoints_from_bivector(lad, Bivector((1,), (2,)))
    # v_n must not exceed a + 1
    with pytest.raises(EndpointOutsideLadder) as err:
        endpoints_from_bivector(lad, Bivector((1,), (4,)))
    assert "v_n" in str(err.value)


def test_general_endpoints_trivial_pair():
    lad = validate_ladder(1, 1, [2, 2])
    cfg = validate_general_endpoints(lad, [(0, 0)], [(1, 1)])
    assert cfg.shifted_starts == (LatticePoint(0, 1),)


def test_general_endpoints_flatness():
    lad = flagship_ladder()
    # f jumps at x = 4 <= 5, so a start in column 5 is rejected
    with pytest.raises(BoundaryNotFlatLeftOfFirstStart) as err:
        validate_general_endpoints(lad, [(5, 9)], [(7, 12)])
    assert err.value.index == 4


def test_general_endpoints_flatness_names_the_last_lower_column():
    """The flatness check names the column a scan from the first start
    leftwards names: the last one left of it whose value differs, where
    the boundary is read at the start's column (f(0) for x < 0)."""
    rng = random.Random(2408)
    seen = {"raised": 0, "flat": 0, "start at x <= 0": 0}
    for _ in range(600):
        lad = random_ladder(rng, amax=9, bmax=6)
        x = rng.randint(-3, lad.a)
        point = (x, rng.randrange(lad.value(x)))
        level = lad.value(x)
        want = next((c for c in range(min(x, lad.a) - 1, -1, -1) if lad.value(c) != level), None)
        seen["start at x <= 0"] += x <= 0
        if want is None:
            seen["flat"] += 1
            validate_general_endpoints(lad, [point], [point])
            continue
        seen["raised"] += 1
        with pytest.raises(BoundaryNotFlatLeftOfFirstStart) as err:
            validate_general_endpoints(lad, [point], [point])
        assert err.value.index == want, (lad, point)
    assert min(seen.values()) >= 50, seen


def test_general_endpoints_chains():
    lad = validate_ladder(4, 4, [5] * 5)
    with pytest.raises(ChainViolation):
        # equal start heights break the strictly-decreasing chain
        validate_general_endpoints(lad, [(0, 2), (1, 2)], [(1, 3), (2, 2)])
    with pytest.raises(ChainViolation):
        # end must dominate start
        validate_general_endpoints(lad, [(2, 2)], [(1, 3)])
    with pytest.raises(PointOutsideLadder):
        validate_general_endpoints(lad, [(0, 5)], [(1, 5)])


@pytest.mark.parametrize("starts, ends, index", [
    ([(0, 2), (0, 1)], [(3, 3)], None),
    ([(1, 2), (0, 1)], [(3, 3), (4, 2)], 0),
    ([(0, 2), (0, 1)], [(3, 3), (3, 2)], 0),
    ([(0, 2), (0, 1)], [(3, 3), (4, 4)], 0),
], ids=["count", "starts-left", "end-x-repeats", "end-y-rises"])
def test_chain_rules(starts, ends, index):
    """Each ordering rule of the endpoint chains raises ChainViolation,
    naming the first offending index where there is one."""
    with pytest.raises(ChainViolation) as err:
        EndpointConfig(starts, ends)
    assert err.value.index == index


def test_bivector_endpoints_always_validate():
    rng = random.Random(7)
    done = 0
    while done < 100:
        lad = random_corollary_ladder(rng)
        m = random_bivector(rng, lad)
        cfg = endpoints_from_bivector(lad, m)
        revalidated = validate_general_endpoints(lad, cfg.starts, cfg.ends)
        assert revalidated.shifted_starts == cfg.shifted_starts
        assert revalidated.shifted_ends == cfg.shifted_ends
        done += 1


_LAD = validate_ladder(2, 2, [2, 3, 3])


@pytest.mark.parametrize("error, call", [
    (ValueOutOfRange, lambda: validate_ladder(2, 2, [2.5, 3, 3])),
    (ValueOutOfRange, lambda: validate_ladder(2, 2, [3, 3, 3.0])),
    (ValueOutOfRange, lambda: validate_ladder(2, 2, [True, 2, 3])),
    (ValueOutOfRange, lambda: validate_ladder(1.0, 2, [2, 3])),
    (ValueOutOfRange, lambda: validate_ladder("x", 2, [2, 3])),
    (InvalidBivector, lambda: Bivector((1.5,), (1,))),
    (InvalidBivector, lambda: Bivector(("1",), (1,))),
    (ValueOutOfRange, lambda: validate_ladder(2, 2, 5)),
    (InvalidBivector, lambda: Bivector(1, 1)),
    (ValidationError, lambda: TASpec(0, (0, 0), (2.7, 2), 0, _LAD)),
    (ValidationError, lambda: path_gf(_LAD, [(0.9, 0)], [(1, 1.6)])),
    (ValidationError, lambda: validate_general_endpoints(
        _LAD, [LatticePoint(0.9, 0)], [(1, 1)])),
    (ValidationError, lambda: gf_trivial(0, (0, 0), (1.5, 1))),
    (ValidationError, lambda: _LAD.contains((0.5, 0))),
    (ValidationError, lambda: as_point((1, 2, 3))),
], ids=[
    "f=2.5", "f=3.0", "f=True", "a=1.0", "a=x", "u=1.5", "u='1'",
    "values=5", "u=1", "TASpec",
    "path_gf", "general_endpoints", "gf_trivial", "contains", "triple",
])
def test_non_integer_input_rejected(error, call):
    """Every number of the model is an int: nothing is truncated, and a bool,
    a float or a string raises the model's error instead of an answer."""
    with pytest.raises(error):
        call()
