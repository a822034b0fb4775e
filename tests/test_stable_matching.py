"""Stable matchings: parsing, deferred acceptance, enumeration, medians."""

import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmed import order_core
from latmed.errors import (
    IndexOutOfRange,
    LatmedError,
    JOutOfRange,
    MalformedFile,
    NotAPermutation,
    NotStableInput,
    RankOutOfRange,
    SizeMismatch,
    TooLarge,
)
from latmed.order_core import join, meet
from latmed.stable_matching import (
    all_stable_matchings,
    conjoin,
    forbids,
    gale_shapley,
    median_stable,
    parse_instance,
    regret_le,
    serialize_instance,
    smp_instance,
    stability_report,
    woman_of,
)
from latmed.market_clearing import parse_market, serialize_market
from latmed.verify import block_swap_instance, random_market_instance, random_smp_instance
from test_market_clearing import assert_routes_agree, respelled


def brute_force_stable_set(inst):
    # oracle: search over perfect matchings, assigning men in index order
    # and abandoning any prefix that already holds a blocking pair
    n = inst.n
    men_rank, women_rank = inst.men_rank, inst.women_rank
    wife = [-1] * n
    husband = [-1] * n
    found = []

    def prefix_blocked(m, w):
        # blocking pair among assigned people involving the new pair (m, w)
        for w2 in inst.men_prefs[m]:
            if w2 == w:
                break
            h = husband[w2]
            if h != -1 and women_rank[w2][m] < women_rank[w2][h]:
                return True
        for m2 in range(m):
            if men_rank[m2][w] < men_rank[m2][wife[m2]] and (
                women_rank[w][m2] < women_rank[w][m]
            ):
                return True
        return False

    def extend(m):
        if m == n:
            found.append(tuple(men_rank[i][wife[i]] for i in range(n)))
            return
        for w in range(n):
            if husband[w] == -1 and not prefix_blocked(m, w):
                wife[m], husband[w] = w, m
                extend(m + 1)
                wife[m], husband[w] = -1, -1

    extend(0)
    return sorted(found)


def relabelled(inst, rng):
    # the same instance with men and women renumbered at random
    pi, sigma = rng.sample(range(inst.n), inst.n), rng.sample(range(inst.n), inst.n)
    men, women = [None] * inst.n, [None] * inst.n
    for m, row in enumerate(inst.men_prefs):
        men[pi[m]] = [sigma[w] for w in row]
    for w, row in enumerate(inst.women_prefs):
        women[sigma[w]] = [pi[m] for m in row]
    return smp_instance(men, women)


def cyclic_instance(n, k):
    # man i ranks women i, i+1, ...; woman w ranks men w+k, w+k+1, ... (mod n)
    return smp_instance(
        [[(i + r) % n for r in range(n)] for i in range(n)],
        [[(w + k + r) % n for r in range(n)] for w in range(n)],
    )


def naive_stable_set(inst):
    # oracle: filter all n! assignments through the stability checker
    out = []
    for perm in permutations(range(inst.n)):
        g = tuple(inst.men_rank[m][w] for m, w in enumerate(perm))
        if stability_report(inst, g).stable:
            out.append(g)
    return sorted(out)


def test_instance_validation():
    # every refusal by class and exact message: the side counts first, then
    # men's rows before women's, each reported with its list(row) text
    good = [[0, 1], [1, 0]]
    cases = [
        ([[0]], [], SizeMismatch, "1 men but 0 women"),
        (good, [[0, 1]], SizeMismatch, "2 men but 1 women"),
        ([[0, 0], [0, 1]], good, NotAPermutation,
         "man 0: [0, 0] is not a permutation of 0..1"),  # a duplicate entry
        ([[0, 1], [0, 2]], good, NotAPermutation,
         "man 1: [0, 2] is not a permutation of 0..1"),  # out of range
        ([[0, 1], [1, -1]], good, NotAPermutation,
         "man 1: [1, -1] is not a permutation of 0..1"),
        ([[0], [0, 1]], good, NotAPermutation,
         "man 0: [0] is not a permutation of 0..1"),  # a short row
        ([[0, 1, 0], [0, 1]], good, NotAPermutation,
         "man 0: [0, 1, 0] is not a permutation of 0..1"),  # a long row
        ([[0, 1, 2], [1, 0]], good, NotAPermutation,
         "man 0: [0, 1, 2] is not a permutation of 0..1"),
        (good, [[0, 1], [1, 1]], NotAPermutation,
         "woman 1: [1, 1] is not a permutation of 0..1"),  # behind good men
        (good, [[0, 1], [1, 0, 1]], NotAPermutation,
         "woman 1: [1, 0, 1] is not a permutation of 0..1"),
        ([[0, 0], [0, 1]], [[0, 1], [0, 2]], NotAPermutation,
         "man 0: [0, 0] is not a permutation of 0..1"),  # men before women
    ]
    for men, women, error, message in cases:
        with pytest.raises(error) as caught:
            smp_instance(men, women)
        assert type(caught.value) is error and str(caught.value) == message, (men, women)


def test_rank_tables():
    inst = smp_instance([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    assert inst.men_rank == ((1, 0), (0, 1))
    assert inst.women_rank == ((0, 1), (1, 0))


def test_text_round_trip():
    inst = smp_instance(
        [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
        [[1, 0, 2], [0, 1, 2], [2, 0, 1]],
    )
    text = serialize_instance(inst)
    assert parse_instance(text) == (inst, text)


def test_parse_rejects_malformed():
    # every refusal by class and exact message; within a line the label and
    # index come first, then the integers, then the count, and each line is
    # checked in full before the next is read
    nope = "expected header 'smp <n>'"
    cases = [
        ("nope", MalformedFile, nope),
        ("smp", MalformedFile, nope),  # a bare header
        ("smp\t1\nman 0: 0\nwoman 0: 0", MalformedFile, nope),
        ("smp x", MalformedFile, "bad header 'smp x'"),
        ("smp 1 2\nman 0: 0\nwoman 0: 0", MalformedFile, "bad header 'smp 1 2'"),
        ("smp 1 junk\nman 0: 0\nwoman 0: 0", MalformedFile, "bad header 'smp 1 junk'"),
        ("smp 0 1", MalformedFile, "bad header 'smp 0 1'"),  # tokens the format lacks
        ("smp 0", MalformedFile, "instance size must be positive, got 0"),
        ("smp -1\nman 0: 0", MalformedFile, "instance size must be positive, got -1"),
        ("smp 1\nman 0: 0", MalformedFile, "expected 3 lines, got 2"),
        ("smp 1\nman 1: x", MalformedFile, "expected 3 lines, got 2"),
        ("smp 1\nwoman 0: 0\nman 0: 0", MalformedFile,
         "expected 'man 0: ...', got 'woman 0: 0'"),  # wrong label
        ("smp 1\nman 0 0\nwoman 0: 0", MalformedFile,
         "expected 'man 0: ...', got 'man 0 0'"),  # no colon
        ("smp 1\nman 1: 0\nwoman 0: 0", MalformedFile,
         "expected 'man 0: ...', got 'man 1: 0'"),  # wrong index
        ("smp 1\nman 1: x\nwoman 0: 0", MalformedFile,
         "expected 'man 0: ...', got 'man 1: x'"),
        ("smp 1\nman 0: 0\nwoman 1: x", MalformedFile,
         "expected 'woman 0: ...', got 'woman 1: x'"),
        ("smp 1\nman 0: x\nwoman 0: 0", MalformedFile, "non-integer preference in 'man 0: x'"),
        ("smp 2\nman 0: x\nman 3: 0\nwoman 0: 0 1\nwoman 1: 0 1", MalformedFile,
         "non-integer preference in 'man 0: x'"),
        ("smp 2\nman 0: 0\nman 1: 0 1\nwoman 0: 0 1\nwoman 1: 0 1", SizeMismatch,
         "man 0: expected 2 entries, got 1"),  # a short row
        ("smp 2\nman 0: 0\nman 1: x\nwoman 0: 0 1\nwoman 1: 0 1", SizeMismatch,
         "man 0: expected 2 entries, got 1"),
        ("smp 1\nman 0: 0\nwoman 0: 0 1", SizeMismatch, "woman 0: expected 1 entries, got 2"),
        ("smp 2\nman 0: 0 0\nman 1: 0 1\nwoman 0: 0 1\nwoman 1: 0 x", MalformedFile,
         "non-integer preference in 'woman 1: 0 x'"),
        ("smp 2\nman 0: 0 0\nman 1: 0 1\nwoman 0: 0 1\nwoman 1: 0 1", NotAPermutation,
         "man 0: [0, 0] is not a permutation of 0..1"),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as caught:
            parse_instance(text)
        assert type(caught.value) is error and str(caught.value) == message, text


def assert_reads_like_lines(text):
    assert_routes_agree(parse_instance, serialize_instance, text)


def written_flag(text):
    """parse_rows' report of whether text is the writer's, None if refused."""
    try:
        return order_core.parse_rows(text, "smp", (), ("man", "woman"), "p", "e")[2]
    except LatmedError:
        return None


def test_parse_instance_routes_agree_on_random_spellings():
    # the writer's text is decoded whole and flagged so; it and any
    # respelling read, or are refused, as line by line
    rng = random.Random(25)
    for _ in range(3000):
        inst = random_smp_instance(rng, rng.randint(1, 6))
        text = serialize_instance(inst)
        assert written_flag(text) is True
        assert parse_instance(text) == parse_instance(text + "\n") == (inst, text)
        spelling = respelled(rng, text)
        assert_reads_like_lines(spelling)
        for t in (spelling, spelling + "\n"):
            assert written_flag(t) in (t == text, None), t


def test_parse_instance_falls_back_late():
    # texts that pass both scans and the line pattern yet are not what
    # serialize_instance prints: the JSON decode or the checks after it
    # refuse them, and they read or are refused as line by line
    rows = "man 0: 0 1\nman 1: 1 0\nwoman 0: 0 1\nwoman 1: 1 0\n"
    cases = [
        "smp 2\n" + rows.replace("man 1:", "man 2:", 1),  # a wrong man index
        "smp 2\nman 0: 0 1\nman 1: 1 0\nman 2: 0 1\nwoman 0: 1 0\n",  # 3 man rows, 1 woman
        "smp 2\n" + rows.replace("man 0: 0 1", "man 0: 0", 1),  # a short row
        "smp 2\n" + rows.replace("man 0: 0 1", "man 0: 0 1 1", 1),  # a long row
        "smp 2\n" + rows.replace("man 0: 0 1", "man 0: 0 01", 1),  # a leading zero
        "smp 1\nman 0: " + "7" * 5000 + "\nwoman 0: 0\n",  # more digits than int() reads
    ]
    pattern = order_core._written_lines("smp", 0, ("man", "woman"))
    for text in cases:
        assert "  " not in text and " \n" not in text
        assert pattern.fullmatch(text), text[:60]
        assert written_flag(text) in (False, None)
        assert_reads_like_lines(text)
    assert parse_instance(cases[4]) == parse_instance("smp 2\n" + rows)


@pytest.mark.parametrize("kind", ["smp", "market"])
def test_digest_text_is_the_input_exactly_when_written(kind):
    # a text parse_rows decodes whole is hashed as read, any other as the
    # writer prints the instance read from it
    parse, write, optional, labels = {
        "smp": (parse_instance, serialize_instance, (), ("man", "woman")),
        "market": (parse_market, serialize_market, ("cap",), ("buyer",)),
    }[kind]
    rng = random.Random(27)
    seen = set()
    for _ in range(1000):
        n = rng.randint(1, 6)
        inst = (random_smp_instance(rng, n) if kind == "smp"
                else random_market_instance(rng, n, rng.choice([3, 50, 10**6])))
        text = write(inst)
        for t in (text, respelled(rng, text)):
            try:
                got, source = parse(t)
            except LatmedError:
                continue
            written = order_core.parse_rows(t, kind, optional, labels, "v", "vs")[2]
            assert (source is t) is written and source == write(got), t
            seen.add(written)
    assert seen == {True, False}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal integers of any length")
def test_overlong_preference_is_named():
    line = "man 0: " + "7" * 5000
    with pytest.raises(MalformedFile) as caught:
        parse_instance(f"smp 1\n{line}\nwoman 0: 0\n")
    limit = sys.get_int_max_str_digits()
    assert str(caught.value) == f"preference with more than {limit} digits in {line[:40]!r}..."


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal integers of any length")
def test_overlong_header_integer_is_named():
    header = "smp " + "7" * 5000
    with pytest.raises(MalformedFile) as caught:
        parse_instance(f"{header}\nman 0: 0\nwoman 0: 0\n")
    limit = sys.get_int_max_str_digits()
    assert str(caught.value) == f"header integer with more than {limit} digits in {header[:40]!r}..."


def test_assignment_round_trip():
    inst = smp_instance([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    g = (0, 0)  # man 0's rank 0 is woman 1, man 1's rank 0 is woman 0
    assert [woman_of(inst, g, i) for i in range(inst.n)] == [1, 0]
    with pytest.raises(RankOutOfRange):
        woman_of(inst, (2, 0), 0)
    with pytest.raises(IndexOutOfRange):
        woman_of(inst, (0, 0), 5)
    with pytest.raises(SizeMismatch):
        stability_report(inst, (0,))


def test_stability_report_refusals():
    # every refusal by class and exact message: the length first, then the
    # first rank out of range in man order, before any not-a-matching verdict
    inst = smp_instance(
        [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
        [[1, 0, 2], [0, 1, 2], [2, 0, 1]],
    )
    cases = [
        ((0, 0), SizeMismatch, "expected 3 ranks, got 2"),  # short
        ((0, 0, 0, 0), SizeMismatch, "expected 3 ranks, got 4"),  # long
        ((0, 0, 9, 9), SizeMismatch, "expected 3 ranks, got 4"),
        ((3, 0, 0), RankOutOfRange, "rank 3 for man 0 outside 0..2"),  # rank n
        ((0, -1, 0), RankOutOfRange, "rank -1 for man 1 outside 0..2"),
        ((0, 3, -1), RankOutOfRange, "rank 3 for man 1 outside 0..2"),
        # men 0 and 1 share woman 0, yet the bad rank at the last man wins
        ((0, 1, 3), RankOutOfRange, "rank 3 for man 2 outside 0..2"),
        ((0, 1, -1), RankOutOfRange, "rank -1 for man 2 outside 0..2"),
    ]
    for g, error, message in cases:
        with pytest.raises(error) as caught:
            stability_report(inst, g)
        assert type(caught.value) is error and str(caught.value) == message, g
    assert not stability_report(inst, (0, 1, 0)).is_matching


def test_stability_report_by_hand():
    # both-swap instance: two stable matchings, everything else blocked
    inst = smp_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert stability_report(inst, (0, 0)).stable
    assert stability_report(inst, (1, 1)).stable
    rep = stability_report(inst, (0, 1))  # both men to woman 0: not a matching
    assert not rep.is_matching and not rep.stable
    # a blocked matching in a 3x3 instance, checked by hand: man 0 and
    # woman 0 rank each other first but are not matched
    inst = smp_instance(
        [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
        [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
    )
    g = (1, 0, 2)  # pairs (0,1), (1,0), (2,2)
    rep = stability_report(inst, g)
    assert rep.is_matching and (0, 0) in rep.blocking


def test_gale_shapley_textbook_case():
    inst = smp_instance(
        [[0, 1, 2], [1, 0, 2], [0, 1, 2]],
        [[1, 0, 2], [0, 1, 2], [0, 1, 2]],
    )
    g = gale_shapley(inst, "men")
    assert stability_report(inst, g).stable
    assert g == (0, 0, 2)  # traced by hand: only man 2 settles for rank 2


def test_gale_shapley_single_pair():
    inst = smp_instance([[0]], [[0]])
    assert gale_shapley(inst, "men") == (0,)
    assert gale_shapley(inst, "women") == (0,)


def test_men_proposing_builds_no_men_rank_table():
    # each man ends with the last woman he proposed to, so his rank is read
    # off his proposal pointer; only the women's table decides proposals
    inst = parse_instance("smp 3\nman 0: 0 1 2\nman 1: 1 0 2\nman 2: 0 1 2\n"
                          "woman 0: 1 0 2\nwoman 1: 0 1 2\nwoman 2: 0 1 2\n")[0]
    assert all(type(row) is tuple for row in inst.men_prefs + inst.women_prefs)
    assert gale_shapley(inst, "men") == (0, 0, 2)
    assert "men_rank" not in vars(inst) and "women_rank" in vars(inst)


def test_gale_shapley_rejects_bad_side():
    inst = smp_instance([[0]], [[0]])
    with pytest.raises(ValueError):
        gale_shapley(inst, "aliens")


def test_enumeration_matches_naive_filter():
    rng = random.Random(17)
    for _ in range(60):
        inst = random_smp_instance(rng, rng.randint(1, 5))
        assert all_stable_matchings(inst) == naive_stable_set(inst)


def test_rotation_walk_matches_brute_force():
    rng = random.Random(19)
    sizes = set()
    for _ in range(2000):
        inst = random_smp_instance(rng, rng.randint(1, 9))
        stable = all_stable_matchings(inst)
        assert stable == brute_force_stable_set(inst), serialize_instance(inst)
        sizes.add(len(stable))
    assert max(sizes) >= 6  # some instances have more than a chain or two


def test_rotation_walk_on_relabelled_gadgets():
    rng = random.Random(37)
    for blocks in (1, 2, 3, 4):
        for _ in range(20):
            inst = relabelled(block_swap_instance(blocks), rng)
            stable = all_stable_matchings(inst)
            assert len(stable) == 2 ** blocks
            assert stable == brute_force_stable_set(inst)


def test_rotation_walk_on_cyclic_families():
    for n in range(1, 10):
        for k in range(n):
            inst = cyclic_instance(n, k)
            assert all_stable_matchings(inst) == brute_force_stable_set(inst)


def test_enumeration_bound():
    # the limit counts stable matchings, not men: 9 men enumerate, and a
    # 14-block gadget's 16384 matchings are refused
    rng = random.Random(1)
    inst = random_smp_instance(rng, 9)
    assert all_stable_matchings(inst) == brute_force_stable_set(inst)
    with pytest.raises(TooLarge, match="more than 10000 stable matchings"):
        all_stable_matchings(block_swap_instance(14))


def test_enumeration_limit_is_exact(monkeypatch):
    # at the true count the walk lists every stable matching; one below
    # it, the walk refuses
    rng = random.Random(41)
    instances = [random_smp_instance(rng, rng.randint(1, 8)) for _ in range(200)]
    instances += [relabelled(block_swap_instance(b), rng) for b in range(1, 8)]
    instances += [cyclic_instance(9, 1), cyclic_instance(9, 4)]
    wants = [all_stable_matchings(inst) for inst in instances]
    for inst, want in zip(instances, wants):
        monkeypatch.setattr(order_core, "ENUM_LIMIT", len(want))
        assert all_stable_matchings(inst) == want
        monkeypatch.setattr(order_core, "ENUM_LIMIT", len(want) - 1)
        with pytest.raises(TooLarge):
            all_stable_matchings(inst)
    assert max(map(len, wants)) == 128


def test_proposal_sides_are_lattice_extremes():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_smp_instance(rng, rng.randint(2, 6))
        stable = all_stable_matchings(inst)
        assert gale_shapley(inst, "men") == tuple(min(c) for c in zip(*stable))
        assert gale_shapley(inst, "women") == tuple(max(c) for c in zip(*stable))


def test_stable_set_closed_under_meet_join():
    rng = random.Random(29)
    for _ in range(40):
        inst = random_smp_instance(rng, rng.randint(2, 6))
        stable = all_stable_matchings(inst)
        sset = set(stable)
        for a in stable:
            for b in stable:
                assert meet(a, b) in sset
                assert join(a, b) in sset


def test_median_stable_membership():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_smp_instance(rng, rng.randint(2, 6))
        stable = all_stable_matchings(inst)
        sset = set(stable)
        k = rng.randint(1, 5)
        family = [rng.choice(stable) for _ in range(k)]
        for j in range(1, k + 1):
            assert median_stable(inst, family, j) in sset


def test_median_stable_validation():
    inst = smp_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(NotStableInput):
        median_stable(inst, [(0, 1)], 1)  # not even a matching
    with pytest.raises(JOutOfRange):
        median_stable(inst, [(0, 0)], 2)
    with pytest.raises(JOutOfRange):
        median_stable(inst, [(0, 0)], 0)


def test_median_of_duplicates():
    inst = smp_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert median_stable(inst, [(0, 0), (0, 0), (1, 1)], 2) == (0, 0)


def test_block_swap_instance_is_a_cube():
    for blocks in (1, 2, 3):
        inst = block_swap_instance(blocks)
        stable = all_stable_matchings(inst)
        assert len(stable) == 2 ** blocks


def test_predicates():
    inst = smp_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert regret_le(0, 1)((0, 0)) and not regret_le(0, 1)((1, 0))
    pred = forbids(inst, 0, 0)
    assert not pred((0, 0))  # man 0's rank 0 lands on the forbidden woman 0
    assert pred((1, 0))
    with pytest.raises(IndexOutOfRange):
        forbids(inst, 0, 7)
    with pytest.raises(IndexOutOfRange):
        regret_le(0, 9)((0, 0))
    both = conjoin(regret_le(0, 1), lambda g: g[0] == 0)
    assert both((0, 1)) and not both((1, 1))


def test_forbids_semantics():
    inst = smp_instance([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    pred = forbids(inst, 0, 1)
    # man 0 at rank 0 takes woman 1, which is exactly what is forbidden
    assert not pred((0, 0))
    assert pred((1, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gs_always_stable(seed):
    rng = random.Random(seed)
    inst = random_smp_instance(rng, rng.randint(1, 7))
    for side in ("men", "women"):
        assert stability_report(inst, gale_shapley(inst, side)).stable


def quadratic_stability(inst, assignment):
    # oracle: every (man, woman) pair, each read from the rank tables
    wife = [inst.men_prefs[m][r] for m, r in enumerate(assignment)]
    if len(set(wife)) != inst.n:
        return False, ()
    husband = {w: m for m, w in enumerate(wife)}
    return True, tuple(
        (m, w)
        for m in range(inst.n)
        for w in range(inst.n)
        if inst.men_rank[m][w] < assignment[m]
        and inst.women_rank[w][m] < inst.women_rank[w][husband[w]]
    )


def test_stability_report_matches_quadratic_scan():
    rng = random.Random(83)
    seen = {"stable": 0, "unstable": 0, "not-a-matching": 0}
    for _ in range(1500):
        n = rng.randint(1, 9)
        inst = random_smp_instance(rng, n)
        perm = rng.sample(range(n), n)
        candidates = [
            gale_shapley(inst, "men"),
            gale_shapley(inst, "women"),
            tuple(inst.men_rank[m][w] for m, w in enumerate(perm)),
            tuple(rng.randrange(n) for _ in range(n)),
        ]
        for g in candidates:
            rep = stability_report(inst, g)
            assert (rep.is_matching, rep.blocking) == quadratic_stability(inst, g)
            kind = "not-a-matching" if not rep.is_matching else (
                "unstable" if rep.blocking else "stable")
            seen[kind] += 1
    assert min(seen.values()) > 500, seen
