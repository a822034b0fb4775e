"""Market clearing: demand graphs, the auction, enumeration, medians."""

import random
import sys
import tracemalloc
from functools import lru_cache
from itertools import permutations, product
from operator import getitem, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmed import bipartite, market_clearing, order_core
from latmed.errors import (
    JOutOfRange,
    LatmedError,
    MalformedFile,
    NotClearingInput,
    OutOfBounds,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
)
from latmed.market_clearing import (
    _demands,
    _max_value_assignment,
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
from latmed.verify import PropertyResult, VerifyConfig, market_battery, random_market_instance
from test_bipartite import alternating_closure
from test_cli import MARKET60, market60_twins


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
    text = serialize_market(inst)
    assert parse_market(text) == (inst, text)


def test_parse_rejects_malformed():
    # every refusal by class and exact message, in the order of
    # test_stable_matching's; the cap and the valuations are checked for
    # sign only once every row has been read
    nope = "expected header 'market <n> [cap]'"
    cases = [
        ("hello", MalformedFile, nope),
        ("market", MalformedFile, nope),  # a bare header
        ("market\t1\nbuyer 0: 1", MalformedFile, nope),
        ("market x", MalformedFile, "bad header 'market x'"),
        ("market 1 x\nbuyer 0: 1", MalformedFile, "bad header 'market 1 x'"),
        ("market 1 5 7\nbuyer 0: 1", MalformedFile, "bad header 'market 1 5 7'"),
        ("market 1 5 x\nbuyer 0: 1", MalformedFile, "bad header 'market 1 5 x'"),
        ("market 0 5 7", MalformedFile, "bad header 'market 0 5 7'"),  # tokens past the cap
        ("market 0", MalformedFile, "instance size must be positive, got 0"),
        ("market 2\nbuyer 0: 1 2", MalformedFile, "expected 3 lines, got 2"),
        ("market 1\nbuyer 1: x\nbuyer 0: 1", MalformedFile, "expected 2 lines, got 3"),
        ("market 1\nseller 0: 1", MalformedFile,
         "expected 'buyer 0: ...', got 'seller 0: 1'"),  # wrong label
        ("market 1\nbuyer 1: 1", MalformedFile,
         "expected 'buyer 0: ...', got 'buyer 1: 1'"),  # wrong index
        ("market 1\nbuyer 1: x", MalformedFile, "expected 'buyer 0: ...', got 'buyer 1: x'"),
        ("market 1\nbuyer 0: x", MalformedFile, "non-integer valuation in 'buyer 0: x'"),
        ("market 2\nbuyer 0: 1\nbuyer 1: 1 2", SizeMismatch,
         "buyer 0: expected 2 valuations, got 1"),  # a short row
        ("market 2\nbuyer 0: 1\nbuyer 1: x", SizeMismatch,
         "buyer 0: expected 2 valuations, got 1"),
        ("market 2 -1\nbuyer 0: -1 2\nbuyer 1: 1 x", MalformedFile,
         "non-integer valuation in 'buyer 1: 1 x'"),
        ("market 1 -1\nbuyer 0: 1", OutOfBounds, "price cap must be nonnegative, got -1"),
        ("market 1\nbuyer 0: -3", OutOfBounds, "buyer 0: negative valuation -3"),
        ("market 1 -1\nbuyer 0: -3", OutOfBounds, "buyer 0: negative valuation -3"),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as caught:
            parse_market(text)
        assert type(caught.value) is error and str(caught.value) == message, text


def read_outcome(read, text):
    """What `read` gives for text: its value, or its error's class and message."""
    try:
        return read(text)
    except LatmedError as e:
        return type(e), str(e)


def assert_routes_agree(parse, write, text):
    """parse reads text, or refuses it, as it reads the text line by line,
    and takes the digest over what the writer prints of the instance."""
    def by_lines(t):
        # blank lines are skipped, and no text ending in one is the writer's
        inst = parse(t + "\n\n")[0]
        return inst, write(inst)

    assert read_outcome(parse, text) == read_outcome(by_lines, text), text[:60]


def assert_reads_like_lines(text):
    assert_routes_agree(parse_market, serialize_market, text)


def test_parse_market_falls_back_late():
    # texts that pass both scans and the line pattern yet are not what
    # serialize_market prints: the JSON decode or the shape checks refuse
    # them, and they read or are refused as line by line
    cases = [
        "market 2 5\nbuyer 0: 1 2\nbuyer 2: 3 4\n",  # a wrong buyer index
        "market 1 5\nbuyer 0: 1\nbuyer 1: 2\n",  # one row too many
        "market 2 5\nbuyer 0: 1 2\n",  # one row too few
        "market 2 5\nbuyer 0: 1\nbuyer 1: 3 4\n",  # a short row
        "market 2 5\nbuyer 0: 1 2 3\nbuyer 1: 3 4\n",  # a long row
        "market 2 5\nbuyer 0: 1 02\nbuyer 1: 3 4\n",  # a leading zero on a value
        "market 1 5\nbuyer 0: " + "7" * 5000 + "\n",  # more digits than int() reads
        "market 1 " + "7" * 5000 + "\nbuyer 0: 1\n",  # the same, in the cap
    ]
    for text in cases:
        assert "  " not in text and " \n" not in text
        assert order_core._written_lines("market", 1, ("buyer",)).fullmatch(text), text[:60]
        assert_reads_like_lines(text)


def respelled(rng, text):
    """text with changes drawn by rng: one integer kept, respelled, dropped
    or followed by another; then perhaps a blank line, a row added or
    dropped, or a market's cap dropped or an smp instance's man row moved
    among its woman rows; and one, two, no or "\\r\\n" line endings."""
    lines = text.split("\n")[:-1]
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    k = rng.randrange(1, len(tokens))
    t = tokens[k].rstrip(":")
    tokens[k] = rng.choice([
        t, "0" + t, "+" + t, t[:1] + "_" + t[1:], t[:-1] + "\u0668", " " + t, t + " ",
        "\t" + t, t + " 1", "",
    ]) + tokens[k][len(t):]
    lines[i] = " ".join(tokens)
    change = rng.randrange(8)
    if change == 0:
        lines.insert(rng.randint(0, len(lines)), "")
    elif change == 1:
        label = lines[-1].split(" ")[0]
        lines.append(f"{label} {len(lines) - 1}: " + lines[-1].partition(": ")[2])
    elif change == 2 and len(lines) > 2:
        del lines[rng.randrange(1, len(lines))]
    elif change == 3 and lines[0].startswith("market"):
        lines[0] = " ".join(lines[0].split(" ")[:2])  # no cap
    elif change == 3:
        n = len(lines) // 2
        lines.insert(rng.randint(n + 1, 2 * n), lines.pop(rng.randint(1, n)))
    end = rng.choice(["\n", "\n", "", "\r\n", "\n\n"])
    return ("\r\n" if end == "\r\n" else "\n").join(lines) + end


def test_parse_market_matches_lines_on_random_spellings():
    # any text: parse_market's instance and digest text are those of its
    # line-by-line read and serialize_market, or its refusal is that read's
    rng = random.Random(23)
    for _ in range(3000):
        n = rng.randint(1, 6)
        top = rng.choice([3, 50, 10**6])
        inst = market_instance([[rng.randint(0, top) for _ in range(n)] for _ in range(n)],
                               rng.choice([None, rng.randint(0, 10**6)]))
        text = serialize_market(inst)
        assert parse_market(text) == (inst, text)
        assert_reads_like_lines(respelled(rng, text))
    text, twins, changed = market60_twins()
    for spelling in [text, *twins, changed]:
        assert_reads_like_lines(spelling)


def test_parse_market_canonical_text_skips_the_checks(monkeypatch):
    # a written text neither reruns market_instance's per-value checks nor
    # is printed again for its digest
    def refuse(*args):
        raise AssertionError("a canonical text checked or printed again")

    texts = [Path(MARKET60).read_text(), "market 1 0\nbuyer 0: 7\n"]
    want = [parse_market(t + "\n")[0] for t in texts]
    monkeypatch.setattr(market_clearing, "market_instance", refuse)
    monkeypatch.setattr(market_clearing, "serialize_market", refuse)
    assert [parse_market(t) for t in texts] == list(zip(want, texts))


def test_parse_rows_flags_only_the_written_market():
    rng = random.Random(25)
    for _ in range(500):
        n = rng.randint(1, 6)
        inst = market_instance([[rng.randint(0, 50) for _ in range(n)] for _ in range(n)],
                               rng.choice([None, rng.randint(0, 60)]))
        text = serialize_market(inst)
        for t in (text, respelled(rng, text)):
            try:
                written = order_core.parse_rows(t, "market", ("cap",), ("buyer",), "v", "vs")[2]
            except LatmedError:
                continue
            assert written is (t == text), t


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal integers of any length")
def test_overlong_valuation_is_named():
    line = "buyer 0: " + "7" * 5000
    with pytest.raises(MalformedFile) as caught:
        parse_market(f"market 1 5\n{line}\n")
    limit = sys.get_int_max_str_digits()
    assert str(caught.value) == f"valuation with more than {limit} digits in {line[:40]!r}..."


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal integers of any length")
def test_overlong_header_integer_is_named():
    # the cause is named and only a prefix quoted, as for a valuation; a
    # non-integer header token still quotes the whole header
    header = "market 1 " + "7" * 5000
    with pytest.raises(MalformedFile) as caught:
        parse_market(f"{header}\nbuyer 0: 1\n")
    limit = sys.get_int_max_str_digits()
    assert str(caught.value) == f"header integer with more than {limit} digits in {header[:40]!r}..."
    with pytest.raises(MalformedFile, match="^bad header 'market x 7+'$"):
        parse_market("market x " + "7" * 5000 + "\nbuyer 0: 1\n")


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
    assert enumerate_clearing_vectors(inst) == [(p,) for p in range(6)]


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


def demand_graph_median(inst, family, j):
    """The j-th median by the route that builds a demand graph and a
    matching for every input, then for the median."""
    ps = [tuple(p) for p in family]
    for p in ps:
        if not is_market_clearing(inst, p):
            raise NotClearingInput(f"{p} does not clear the market")
    if not 1 <= j <= len(ps):
        raise JOutOfRange(f"j={j} outside 1..{len(ps)}")
    median = tuple(sorted(column)[j - 1] for column in zip(*ps))
    assert is_market_clearing(inst, median)
    return median


def outcome(fn, *args):
    try:
        return fn(*args)
    except LatmedError as e:
        return type(e), str(e)


def test_median_clearing_matches_demand_graph_route():
    # members mix clearing vectors with their +-1 single-coordinate
    # neighbours in the box, most of which do not clear
    rng = random.Random(53)
    refused = 0
    for _ in range(1500):
        n, cap = rng.randint(1, 5), rng.randint(0, 6)
        top = rng.randint(0, 6)
        inst = market_instance([[rng.randint(0, top) for _ in range(n)] for _ in range(n)], cap)
        clearing = enumerate_clearing_vectors(inst) or [(0,) * n]
        family = []
        for _ in range(rng.randint(1, 5)):
            p = list(rng.choice(clearing))
            if rng.random() < 0.5:
                k = rng.randrange(n)
                p[k] = min(max(p[k] + rng.choice((-1, 1)), 0), cap)
            family.append(tuple(p))
        j = rng.randint(0, len(family) + 1)
        want = outcome(demand_graph_median, inst, family, j)
        assert outcome(median_clearing, inst, family, j) == want, (serialize_market(inst), family)
        refused += want[0] is NotClearingInput
    assert 300 < refused < 1200  # both routes are exercised


def test_enumeration_bounds():
    # the limit counts clearing vectors, not buyers or price steps
    inst = market_instance([[1] * 5] * 5)
    assert enumerate_clearing_vectors(inst) == box_scan(inst)
    assert enumerate_clearing_vectors(market_instance([[9]])) == [(p,) for p in range(10)]
    with pytest.raises(TooLarge, match="more than 10000 clearing vectors"):
        enumerate_clearing_vectors(market_instance([[0]], 10_000))
    with pytest.raises(TooLarge, match="more than 10000 price-difference constraints"):
        enumerate_clearing_vectors(market_instance([[0] * 100] * 100))


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
        pay = [v - p for v, p in zip(row, prices)]
        best = max(pay)
        demands.append([j for j, x in enumerate(pay) if x == best])
    return demands


def rebuilding_auction(inst):
    # oracle: the ascending auction that rebuilds every demand set and runs
    # a cold matching each round, raising the items the alternating closure
    # reaches by its definition; returns the prices and each round's demands
    n = inst.n
    p = [0] * n
    rounds = []
    max_rounds = n * (inst.price_cap + max(max(r) for r in inst.valuations) + 2) + 8
    for _ in range(max_rounds):
        demands = argmax_demands(inst, p)
        assert _demands(inst, p) == demands
        rounds.append(demands)
        match_l = bipartite.max_matching(n, n, demands)[0]
        if -1 not in match_l:
            break
        _, seen_r = alternating_closure(n, demands, match_l)
        for j in seen_r:
            p[j] += 1
    else:
        raise AssertionError(f"auction failed to terminate on {inst}")
    if max(p) > inst.price_cap:
        raise OutOfBounds(f"{tuple(p)} exceeds cap {inst.price_cap}")
    return tuple(p), rounds


def exact_step_auction(inst):
    # oracle: the auction that raises R by the least gap over the reached
    # buyers, rebuilding every demand set and running a cold matching each
    # round, with each gap taken from full row scans
    n = inst.n
    p = [0] * n
    rounds = []
    for _ in range(n * (n + 1) + 1):
        demands = argmax_demands(inst, p)
        rounds.append(demands)
        match_l = bipartite.max_matching(n, n, demands)[0]
        if -1 not in match_l:
            break
        seen_l, seen_r = alternating_closure(n, demands, match_l)
        pays = [list(map(sub, inst.valuations[u], p)) for u in seen_l]
        step = min(max(pay) - max(x for j, x in enumerate(pay) if j not in seen_r)
                   for pay in pays)
        for j in seen_r:
            p[j] += step
    else:
        raise AssertionError(f"auction failed to terminate on {inst}")
    return tuple(p), rounds


def auction_rounds(monkeypatch, inst):
    # the incremental auction's prices and the demand lists it hands the
    # matcher, one entry per call; the calls must equal the oracle's rounds,
    # so this also pins one graph search per round
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


def check_against_oracles(monkeypatch, inst):
    # prices equal the unit-step auction's; rounds equal the exact-step
    # oracle's, and are the unit-step rounds that end a run of equal raises
    want, unit_rounds = rebuilding_auction(inst)
    got, got_rounds = auction_rounds(monkeypatch, inst)
    assert got == want, serialize_market(inst)
    assert (got, got_rounds) == exact_step_auction(inst), serialize_market(inst)
    unit = iter(unit_rounds)
    assert all(r in unit for r in got_rounds), serialize_market(inst)
    assert got_rounds[-1] == unit_rounds[-1]
    return got_rounds


def test_incremental_auction_matches_rebuilding_oracle(monkeypatch):
    rng = random.Random(53)
    multi_round = 0
    for _ in range(3000):
        inst = random_market_instance(rng, rng.randint(1, 7), 9)
        multi_round += len(check_against_oracles(monkeypatch, inst)) > 2
    assert multi_round > 1000


def test_incremental_auction_matches_oracle_on_large_markets(monkeypatch):
    rng = random.Random(59)
    for n in (50, 75, 100, 125, 150):
        for top in (n, 3 * n, 10 * n):
            check_against_oracles(monkeypatch, random_market_instance(rng, n, top - 1))


def test_auction_rounds_do_not_grow_with_valuations(monkeypatch):
    for v in (10**5, 10**12):
        inst = market_instance([[v, 0], [v, 0]])
        prices, rounds = auction_rounds(monkeypatch, inst)
        assert prices == (v, 0)
        assert len(rounds) <= inst.n * (inst.n + 1) + 1


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


@lru_cache(maxsize=None)
def has_perfect_matching(demand_masks):
    # the item sets that buyers 0..i can take, one demanded item each
    items = range(len(demand_masks))
    taken = {0}
    for mask in demand_masks:
        taken = {s | 1 << j for s in taken for j in items if (mask & ~s) >> j & 1}
    return bool(taken)


def box_scan(inst):
    # oracle: every vector in [0, cap]^n whose demand graph has a perfect
    # matching, with the demand sets recomputed here. The last price varies
    # innermost, so each buyer's best payoff among the other items (and the
    # items reaching it, as a bitmask) is computed once per prefix
    n, cap = inst.n, inst.price_cap
    last = 1 << (n - 1)
    out = []
    for head in product(range(cap + 1), repeat=n - 1):
        rows = []
        for row in inst.valuations:
            pay = list(map(sub, row, head))
            best = max(pay, default=float("-inf"))
            rows.append((row[-1], best, sum(1 << j for j, x in enumerate(pay) if x == best)))
        for q in range(cap + 1):
            masks = tuple(
                last if r - q > best else mask | last if r - q == best else mask
                for r, best, mask in rows
            )
            if has_perfect_matching(masks):
                out.append(head + (q,))
    return out


def test_box_scan_oracle_by_hand():
    assert box_scan(market_instance([[2, 1], [2, 0]])) == [(1, 0), (2, 0), (2, 1)]
    assert box_scan(market_instance([[5]])) == [(p,) for p in range(6)]
    assert box_scan(market_instance([[2, 1], [2, 1]], price_cap=0)) == []


def test_enumeration_matches_box_scan():
    rng = random.Random(67)
    empty = cap_zero = 0
    for _ in range(5000):
        n = rng.randint(1, 4)
        vals = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
        inst = market_instance(vals, rng.choice([None, *range(7)]))
        want = box_scan(inst)
        assert enumerate_clearing_vectors(inst) == want, serialize_market(inst)
        empty += not want
        cap_zero += inst.price_cap == 0
    assert empty > 300 and cap_zero > 500


def test_enumeration_matches_box_scan_beyond_default_bound():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(5, 6)
        vals = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        inst = market_instance(vals, rng.choice([None, 0, 1, 2]))
        assert enumerate_clearing_vectors(inst) == box_scan(inst)


def test_enumeration_refuses_before_the_stack_grows():
    # every price vector in the box clears, and each prefix has 10^4
    # extensions: counting the waiting prefixes refuses at the second one,
    # before 40 levels of 10^4 prefixes pile up on the stack
    n = 40
    inst = market_instance([[10_000 * (i == j) for j in range(n)] for i in range(n)], 9_999)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="clearing vectors"):
            enumerate_clearing_vectors(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_enumeration_limit_is_exact(monkeypatch):
    # the limit is reached at the true count of clearing vectors, or at
    # the (n + 1)^2 price-difference constraints when there are more
    rng = random.Random(79)
    markets = []
    for _ in range(300):
        n = rng.randint(1, 6)
        vals = [[rng.randint(0, 8) for _ in range(n)] for _ in range(n)]
        markets.append(market_instance(vals, rng.choice([None, *range(12)])))
    wants = [enumerate_clearing_vectors(inst) for inst in markets]
    by_output = 0
    for inst, want in zip(markets, wants):
        constraints = (inst.n + 1) ** 2
        need = max(len(want), constraints)
        monkeypatch.setattr(order_core, "ENUM_LIMIT", need)
        assert enumerate_clearing_vectors(inst) == want
        monkeypatch.setattr(order_core, "ENUM_LIMIT", need - 1)
        by_output += len(want) > constraints
        noun = "clearing vectors" if len(want) > constraints else "constraints"
        with pytest.raises(TooLarge, match=noun):
            enumerate_clearing_vectors(inst)
    assert by_output > 100


def test_max_value_assignment_matches_brute_force():
    rng = random.Random(73)
    for _ in range(2000):
        n = rng.randint(1, 7)
        top = rng.choice([1, 3, 9, 100])
        vals = [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]
        mu = _max_value_assignment(vals)
        assert sorted(mu) == list(range(n))
        best = max(sum(map(getitem, vals, perm)) for perm in permutations(range(n)))
        assert sum(map(getitem, vals, mu)) == best, vals


def test_enumeration_does_not_share_the_demand_sets(monkeypatch):
    # a mutant demand rule that keeps only the first best item breaks the
    # clearing check; the enumeration does not read demand sets, so the
    # battery's clearing medians catch the mutant
    real = market_clearing._row_demand

    def first_best_only(row, prices):
        return real(row, prices)[:1]

    monkeypatch.setattr(market_clearing, "_row_demand", first_best_only)
    rows = market_battery(random.Random(3), VerifyConfig(),
                          PropertyResult("median-invariants"))
    medians = next(r for r in rows if r.name == "market-median-clearing")
    assert medians.failures
