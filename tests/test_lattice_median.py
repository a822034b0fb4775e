"""Median construction: both routes, invariants, and the regularity gate."""

import random
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmed import lattice_median
from latmed.errors import EmptyInput, JOutOfRange, NotRegular, ShapeMismatch
from latmed.lattice_median import (
    EXHAUSTIVE_BOUND,
    THEOREM_K_MAX,
    THEOREM_TRIALS,
    check_median_theorem,
    check_regular,
    checked_median,
    generalized_medians,
    median_invariant_failures,
    medians_via_meet_join,
)
from latmed.order_core import join, meet

WORKED_INPUTS = [(1, 0), (0, 1), (0, 2)]
WORKED_MEDIANS = [(0, 0), (0, 1), (1, 2)]


def test_worked_example_order_statistics():
    assert generalized_medians(WORKED_INPUTS) == WORKED_MEDIANS


def test_worked_example_meet_join_route():
    # independent route: comparator network over whole-element meet/join
    assert medians_via_meet_join(WORKED_INPUTS) == WORKED_MEDIANS


def test_worked_example_pairwise_ops():
    assert meet((1, 0), (0, 1)) == (0, 0)
    assert join((1, 0), (0, 2)) == (1, 2)


families = st.integers(1, 8).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(0, 10)] * d), min_size=1, max_size=8
    )
)


@given(families)
@settings(max_examples=300)
def test_routes_agree(family):
    assert generalized_medians(family) == medians_via_meet_join(family)


def test_routes_agree_on_seeded_families():
    # one pass of the insertion network must sort every column
    rng = random.Random(11)
    for _ in range(5000):
        k, dim = rng.randint(1, 9), rng.randint(1, 6)
        family = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(k)]
        assert medians_via_meet_join(family) == generalized_medians(family)


@given(families)
@settings(max_examples=200)
def test_median_invariants_hold(family):
    medians = generalized_medians(family)
    assert median_invariant_failures(family, medians) == []


@given(families)
def test_extreme_medians_are_meet_and_join(family):
    medians = generalized_medians(family)
    assert medians[0] == reduce(meet, family)
    assert medians[-1] == reduce(join, family)


def test_single_vector_family_is_fixed():
    assert generalized_medians([(3, 1, 4)]) == [(3, 1, 4)]


def test_pair_family_gives_meet_and_join():
    a, b = (2, 0, 1), (0, 3, 1)
    assert generalized_medians([a, b]) == [meet(a, b), join(a, b)]


def test_duplicates_are_kept():
    out = generalized_medians([(1, 1), (1, 1), (0, 2)])
    assert out == [(0, 1), (1, 1), (1, 2)]
    assert medians_via_meet_join([(1, 1), (1, 1), (0, 2)]) == out


def test_validation_errors():
    with pytest.raises(EmptyInput):
        generalized_medians([])
    with pytest.raises(ShapeMismatch):
        generalized_medians([(1, 2), (1, 2, 3)])
    with pytest.raises(EmptyInput):
        medians_via_meet_join([])


def test_checked_median_refuses_first_non_member():
    with pytest.raises(KeyError) as e:
        checked_median([(0, 0), (5, 5), (6, 6)], 1, lambda x: x[0] < 5, KeyError)
    assert e.value.args == ((5, 5),)
    with pytest.raises(JOutOfRange):
        checked_median([(0, 0)], 2, lambda x: True, KeyError)


def test_checked_median_checks_its_output():
    family = [(1, 0), (0, 1)]
    assert checked_median(family, 2, lambda x: True, KeyError) == (1, 1)
    # a member set that is not a sublattice: the meet (0,0) is outside it
    with pytest.raises(AssertionError):
        checked_median(family, 1, lambda x: x in family, KeyError)


def test_invariant_checker_can_fail():
    # sanity that the checker is not vacuous
    assert median_invariant_failures([(0, 0), (1, 1)], [(1, 1), (0, 0)])


def test_check_regular_accepts_closed_set():
    cube = list(product((0, 1), repeat=2))
    assert check_regular(cube) is None


def test_check_regular_reports_first_violation():
    assert check_regular([(1, 0), (0, 1)]) == ((1, 0), (0, 1), "meet")
    # same pair, join side
    assert check_regular([(0, 0), (1, 0), (0, 1)]) == ((1, 0), (0, 1), "join")


def test_check_regular_refuses_mixed_lengths():
    # the meet of the first pair leaves the set, but the shape is checked first
    with pytest.raises(ShapeMismatch):
        check_regular([(0, 1), (1, 0), (2,)])
    assert check_regular([]) is None


def test_theorem_check_refuses_mixed_lengths_before_the_gate():
    # not NotRegular: the shape is refused before any pair is scanned
    with pytest.raises(ShapeMismatch):
        check_median_theorem([(0, 1), (1, 0), (2,)])


@pytest.fixture
def seen_families(monkeypatch):
    # every family check_median_theorem hands to the medians kernel
    seen = []
    real = lattice_median._medians

    def record(family):
        seen.append(tuple(family))
        return real(family)

    monkeypatch.setattr(lattice_median, "_medians", record)
    return seen


def test_theorem_check_exhaustive_counts(seen_families):
    square = list(product((0, 1), repeat=2))
    assert check_median_theorem(square) == ()
    # every nonempty subset: C(4,1) + C(4,2) + C(4,3) + C(4,4)
    assert THEOREM_K_MAX >= 4
    assert len(seen_families) == 4 + 6 + 4 + 1
    # 15 distinct nonempty subsets of a 4-element set are all of them
    assert all(f and len(set(f)) == len(f) and set(f) <= set(square) for f in seen_families)
    assert len({frozenset(f) for f in seen_families}) == 15


def test_theorem_check_gate():
    with pytest.raises(NotRegular):
        check_median_theorem([(1, 0), (0, 1)])


def test_theorem_check_empty_set(seen_families):
    assert check_median_theorem([]) == ()
    assert seen_families == []


def test_theorem_check_sampled_path_is_deterministic(seen_families):
    grid = list(product(range(4), range(4)))
    assert len(grid) > EXHAUSTIVE_BOUND
    a = check_median_theorem(grid, rng_seed=7)
    assert len(seen_families) == THEOREM_TRIALS == 20
    assert all(1 <= len(f) <= THEOREM_K_MAX and set(f) <= set(grid) for f in seen_families)
    assert a == check_median_theorem(grid, rng_seed=7) == ()  # a full grid is closed
    assert seen_families[:THEOREM_TRIALS] == seen_families[THEOREM_TRIALS:]


def test_theorem_check_reports_a_median_that_leaves_the_set(monkeypatch):
    # force the lower median of one pair outside the (closed) square
    square = list(product((0, 1), repeat=2))
    real = lattice_median._medians
    bad = ((0, 1), (1, 0))

    def leaky(family):
        got = real(family)
        return [(5, 5)] + got[1:] if tuple(family) == bad else got

    monkeypatch.setattr(lattice_median, "_medians", leaky)
    assert check_median_theorem(square) == ((bad, 1, (5, 5)),)


def test_invariant_failure_messages():
    # a median family that loses a value in coordinate 1
    assert median_invariant_failures(
        [(1, 0, 2), (0, 3, 1)], [(0, 0, 1), (1, 2, 2)]
    ) == ["coordinate 1: multiset [0, 2] != [0, 3]"]
    # the same in the last median only, then in the first median only
    assert median_invariant_failures([(0, 1), (2, 3)], [(0, 1), (2, 4)]) == [
        "coordinate 1: multiset [1, 4] != [1, 3]"
    ]
    assert median_invariant_failures([(0, 1), (2, 3)], [(0, 2), (2, 3)]) == [
        "coordinate 1: multiset [2, 3] != [1, 3]"
    ]
    # one that keeps every multiset but is not a chain
    assert median_invariant_failures([(0, 0), (1, 1)], [(1, 1), (0, 0)]) == [
        "chain broken: (1,1) !<= (0,0)"
    ]
    # both at once: coordinate messages come first
    assert median_invariant_failures(
        [(2, 1), (0, 3), (1, 1)], [(0, 1), (1, 0), (2, 3)]
    ) == ["coordinate 1: multiset [0, 1, 3] != [1, 1, 3]",
          "chain broken: (0,1) !<= (1,0)"]
    # no medians at all: every coordinate lost its values
    assert median_invariant_failures([(0, 1)], []) == [
        "coordinate 0: multiset [] != [0]", "coordinate 1: multiset [] != [1]"
    ]


def test_zero_length_vectors_give_k_empty_medians():
    assert generalized_medians([(), (), ()]) == [(), (), ()]
    assert medians_via_meet_join([(), ()]) == [(), ()]
    assert median_invariant_failures([(), ()], [(), ()]) == []
