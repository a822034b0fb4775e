"""Market clearing: demand graphs, the auction, enumeration, medians."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmed.errors import (
    JOutOfRange,
    MalformedFile,
    NotClearingInput,
    OutOfBounds,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
)
from latmed.market_clearing import (
    clearing_matching,
    enumerate_clearing_vectors,
    is_market_clearing,
    market_instance,
    median_clearing,
    min_clearing_prices,
    parse_market,
    serialize_market,
)
from latmed.order_core import join, meet
from latmed.verify import random_market_instance


def test_instance_validation():
    with pytest.raises(SizeMismatch):
        market_instance([])
    with pytest.raises(SizeMismatch):
        market_instance([[1, 2]])
    with pytest.raises(OutOfBounds):
        market_instance([[-1]])
    with pytest.raises(OutOfBounds):
        market_instance([[1]], price_cap=-2)
    inst = market_instance([[3, 1], [0, 2]])
    assert inst.price_cap == 3  # defaults to the largest valuation


def test_text_round_trip():
    inst = market_instance([[2, 1], [2, 0]], price_cap=4)
    assert parse_market(serialize_market(inst)) == inst


def test_parse_rejects_malformed():
    with pytest.raises(MalformedFile):
        parse_market("hello")
    with pytest.raises(MalformedFile):
        parse_market("market x")
    with pytest.raises(MalformedFile):
        parse_market("market 2\nbuyer 0: 1 2")
    with pytest.raises(MalformedFile):
        parse_market("market 1\nbuyer 1: 1")
    with pytest.raises(SizeMismatch):
        parse_market("market 2\nbuyer 0: 1\nbuyer 1: 1 2")
    with pytest.raises(MalformedFile):
        parse_market("market 1\nbuyer 0: x")


def test_demand_graph_argmax_semantics():
    inst = market_instance([[3, 1], [2, 2]])
    # buyer 1 is indifferent at (0, 0); only with the tie kept can it take
    # item 1 while buyer 0 takes item 0
    assert is_market_clearing(inst, (0, 0))
    assert clearing_matching(inst, (0, 0)) == (0, 1)
    # payoffs may go negative; the argmax is still demanded
    assert is_market_clearing(inst, (3, 3))
    assert clearing_matching(inst, (3, 3)) == (0, 1)
    # only the argmax is demanded: both buyers want item 0 alone
    assert not is_market_clearing(inst, (0, 1))


def test_demand_graph_validates_prices():
    inst = market_instance([[3, 1], [2, 2]])
    for check in (is_market_clearing, clearing_matching):
        with pytest.raises(ShapeMismatch):
            check(inst, (0,))
        with pytest.raises(OutOfBounds):
            check(inst, (-1, 0))
        with pytest.raises(OutOfBounds):
            check(inst, (4, 0))  # above the cap


def test_clearing_by_hand():
    # both buyers want item 0 until its price eats the whole advantage
    inst = market_instance([[4, 0], [4, 0]])
    assert not is_market_clearing(inst, (0, 0))
    assert not is_market_clearing(inst, (3, 0))
    assert is_market_clearing(inst, (4, 0))
    assert min_clearing_prices(inst) == (4, 0)


def test_clearing_matching_output():
    inst = market_instance([[2, 1], [2, 0]])
    prices = min_clearing_prices(inst)
    assert prices == (1, 0)
    assignment = clearing_matching(inst, prices)
    assert sorted(assignment) == [0, 1]
    with pytest.raises(NotClearingInput):
        clearing_matching(inst, (0, 0))


def test_zero_valuations():
    inst = market_instance([[0, 0], [0, 0]])
    assert min_clearing_prices(inst) == (0, 0)
    assert is_market_clearing(inst, (0, 0))


def test_single_buyer():
    inst = market_instance([[5]])
    assert min_clearing_prices(inst) == (0,)
    assert enumerate_clearing_vectors(inst, cap_bound=5) == [
        (p,) for p in range(6)
    ]


def test_auction_matches_enumerated_minimum():
    rng = random.Random(41)
    for _ in range(300):
        inst = random_market_instance(rng, rng.randint(1, 4), 4)
        clearing = enumerate_clearing_vectors(inst)
        assert clearing, serialize_market(inst)
        low = tuple(min(c) for c in zip(*clearing))
        assert low in clearing  # the set has a least element
        assert min_clearing_prices(inst) == low


def test_clearing_set_closed_under_min_max():
    rng = random.Random(43)
    for _ in range(60):
        inst = random_market_instance(rng, rng.randint(1, 3), 3)
        clearing = enumerate_clearing_vectors(inst)
        cset = set(clearing)
        for a in clearing:
            for b in clearing:
                assert meet(a, b) in cset and join(a, b) in cset


def test_median_clearing_membership():
    rng = random.Random(47)
    for _ in range(60):
        inst = random_market_instance(rng, rng.randint(1, 4), 4)
        clearing = enumerate_clearing_vectors(inst)
        cset = set(clearing)
        k = rng.randint(1, 5)
        family = [rng.choice(clearing) for _ in range(k)]
        for j in range(1, k + 1):
            assert median_clearing(inst, family, j) in cset


def test_median_clearing_validation():
    inst = market_instance([[2, 1], [2, 0]])
    with pytest.raises(NotClearingInput):
        median_clearing(inst, [(0, 0)], 1)
    good = min_clearing_prices(inst)
    with pytest.raises(JOutOfRange):
        median_clearing(inst, [good], 2)
    with pytest.raises(OutOfBounds):
        median_clearing(inst, [(9, 9)], 1)


def test_enumeration_bounds():
    with pytest.raises(TooLarge):
        enumerate_clearing_vectors(market_instance([[1] * 5] * 5))
    with pytest.raises(TooLarge):
        enumerate_clearing_vectors(market_instance([[9]]))


def test_enumeration_is_lexicographic():
    inst = market_instance([[2, 1], [2, 0]])
    clearing = enumerate_clearing_vectors(inst)
    assert clearing == sorted(clearing)


def test_cap_below_minimum_is_an_error():
    inst = market_instance([[2, 1], [2, 1]], price_cap=0)
    assert enumerate_clearing_vectors(inst) == []
    with pytest.raises(OutOfBounds):
        min_clearing_prices(inst)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_auction_result_always_clears(seed):
    rng = random.Random(seed)
    inst = random_market_instance(rng, rng.randint(1, 6), 5)
    prices = min_clearing_prices(inst)
    assert is_market_clearing(inst, prices)
    assert min(prices) == 0  # someone pays list-bottom in the minimum vector
