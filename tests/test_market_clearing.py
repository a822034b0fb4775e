"""Market clearing: demand graphs, the auction, enumeration, medians."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmed import bipartite
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
    _check_prices,
    _demands,
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


def argmax_demands(inst, prices):
    demands = []
    for row in inst.valuations:
        best = max(v - p for v, p in zip(row, prices))
        demands.append([j for j, (v, p) in enumerate(zip(row, prices)) if v - p == best])
    return demands


def rebuilding_auction(inst):
    # oracle: the ascending auction that rebuilds every demand set and runs
    # a cold matching each round; returns the prices and each round's demands
    n = inst.n
    p = [0] * n
    rounds = []
    max_rounds = n * (inst.price_cap + max(max(r) for r in inst.valuations) + 2) + 8
    for _ in range(max_rounds):
        demands = argmax_demands(inst, p)
        assert _demands(inst, p) == demands
        rounds.append(demands)
        match_l, match_r = bipartite.max_matching(n, n, demands)
        if -1 not in match_l:
            break
        _, seen_r = bipartite.alternating_reachable(n, demands, match_l, match_r)
        for j in seen_r:
            p[j] += 1
    else:
        raise AssertionError(f"auction failed to terminate on {inst}")
    if min(p) > 0:
        shift = min(p)
        p = [x - shift for x in p]
    result = _check_prices(inst, p, enforce_cap=False)
    if max(result) > inst.price_cap:
        raise OutOfBounds(f"{result} exceeds cap {inst.price_cap}")
    return result, rounds


def auction_rounds(monkeypatch, inst):
    # the incremental auction's prices and the demand lists it hands the
    # matcher, one entry per round
    seen = []
    cold = bipartite.max_matching

    def recording(n_left, n_right, adj, start=None):
        seen.append([list(row) for row in adj])
        return cold(n_left, n_right, adj, start)

    monkeypatch.setattr(bipartite, "max_matching", recording)
    try:
        return min_clearing_prices(inst), seen
    finally:
        monkeypatch.undo()


def test_incremental_auction_matches_rebuilding_oracle(monkeypatch):
    rng = random.Random(53)
    multi_round = 0
    for _ in range(3000):
        inst = random_market_instance(rng, rng.randint(1, 7), 9)
        want, want_rounds = rebuilding_auction(inst)
        got, got_rounds = auction_rounds(monkeypatch, inst)
        assert got == want, serialize_market(inst)
        assert got_rounds == want_rounds, serialize_market(inst)
        multi_round += len(want_rounds) > 2
    assert multi_round > 1000


def test_incremental_auction_matches_oracle_on_large_markets(monkeypatch):
    rng = random.Random(59)
    for n in (50, 75, 100, 125, 150):
        for top in (n, 3 * n, 10 * n):
            inst = random_market_instance(rng, n, top - 1)
            want, want_rounds = rebuilding_auction(inst)
            got, got_rounds = auction_rounds(monkeypatch, inst)
            assert got == want
            assert got_rounds == want_rounds


def test_cap_below_auction_minimum_is_refused_like_the_oracle():
    rng = random.Random(61)
    refused = 0
    for _ in range(300):
        inst = random_market_instance(rng, rng.randint(2, 7), 9)
        low = min_clearing_prices(inst)
        if max(low) == 0:
            continue
        capped = market_instance(inst.valuations, price_cap=max(low) - 1)
        with pytest.raises(OutOfBounds):
            rebuilding_auction(capped)
        with pytest.raises(OutOfBounds):
            min_clearing_prices(capped)
        refused += 1
    assert refused > 100
