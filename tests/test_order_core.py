"""Poset, chain partition, ideal enumeration, and explicit lattice checks."""

import random
import re
import sys
import time
from itertools import combinations, permutations, product
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latmed
from latmed import bipartite, errors, order_core
from latmed.errors import (
    CycleDetected,
    EmptyInput,
    NotALattice,
    OutOfBounds,
    ShapeMismatch,
    TooLarge,
    UnknownLabel,
)
from latmed.order_core import (
    Poset,
    all_ideals,
    birkhoff_round_trip,
    chain_partition,
    explicit_lattice,
    format_vector,
    join,
    join_irreducibles,
    meet,
    parse_vector,
    poset_from_covers,
)
from latmed.market_clearing import enumerate_clearing_vectors, market_instance
from latmed.stable_matching import all_stable_matchings
from latmed.verify import block_swap_instance, chain_product_lattices, fixed_lattices


def is_leq(poset, a, b):
    els = poset.elements
    return bool(poset.down[els.index(b)] >> els.index(a) & 1)


def up_masks(poset):
    # oracle: bit i of up[j] exactly when bit j of down[i], element by element
    n = len(poset.down)
    return [sum(1 << i for i in range(n) if poset.down[i] >> j & 1) for j in range(n)]


def random_poset(rng, n, density=0.3, shuffled=False):
    labels = [f"x{i}" for i in range(n)]
    covers = [
        (labels[i], labels[j])
        for j in range(1, n)
        for i in range(j)
        if rng.random() < density
    ]
    if shuffled:  # element order then need not be a linear extension
        rng.shuffle(labels)
    return poset_from_covers(labels, covers)


def brute_force_max_antichain(poset):
    # oracle: largest pairwise-incomparable subset, checked over all subsets
    best = 0
    elems = poset.elements
    for r in range(len(elems), 0, -1):
        if r <= best:
            break
        for sub in combinations(elems, r):
            if all(
                not is_leq(poset, a, b) and not is_leq(poset, b, a)
                for a, b in combinations(sub, 2)
            ):
                best = r
                break
    return best


def brute_force_ideals(poset):
    # oracle: filter every subset for downward closure under the relation
    elems = poset.elements
    out = []
    for r in range(len(elems) + 1):
        for sub in combinations(elems, r):
            s = set(sub)
            if all(y in s for x in s for y in elems if is_leq(poset, y, x)):
                out.append(s)
    return out


def distributivity_failure(elements, meet_fn, join_fn):
    # oracle: the first triple where meet fails to distribute over join
    for x in elements:
        for y in elements:
            for z in elements:
                if meet_fn(x, join_fn(y, z)) != join_fn(meet_fn(x, y), meet_fn(x, z)):
                    return x, y, z
    return None


def brute_force_lower_covers(lat, elements, x):
    # oracle: maximal members of `elements` strictly below x
    below = [y for y in elements if y != x and is_leq(lat, y, x)]
    return [y for y in below if not any(z != y and is_leq(lat, y, z) for z in below)]


def hasse_by_leq(poset):
    # oracle: the cover pairs (x, y), read off leq alone
    els = poset.elements
    return {
        (x, y) for x, y in permutations(els, 2) if is_leq(poset, x, y)
        and not any(is_leq(poset, x, z) and is_leq(poset, z, y) for z in els if z not in (x, y))
    }


def check_irreducible_order(lat, jp):
    # jp must carry the lattice order, and so the lower covers that the
    # brute-force filter finds among the irreducibles; returns those covers
    irr = jp.elements
    for x in irr:
        for y in irr:
            assert is_leq(jp, x, y) == is_leq(lat, x, y)
    covers = {(x, y) for y in irr for x in brute_force_lower_covers(lat, irr, y)}
    assert hasse_by_leq(jp) == covers
    return covers


def dfs_reach(n, edges):
    # oracle: reach[i] is every vertex reachable from i by one or more edges
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    reach = []
    for start in range(n):
        seen, stack = set(), list(succ[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        reach.append(seen)
    return reach


def greatest_common_bound(family, a, b, leq):
    # oracle: the common lower bound of a and b above every other one, or
    # None where there is none
    common = [z for z in family if leq(z, a) and leq(z, b)]
    best = [z for z in common if all(leq(w, z) for w in common)]
    return best[0] if best else None


def componentwise_leq(a, b):
    return all(map(le, a, b))


def distributive_lattice_failure(vectors):
    # oracle: under the componentwise order, a pair with no greatest common
    # lower bound or no least common upper bound, else the first triple
    # where meet fails to distribute over join, else None
    meets, joins = {}, {}
    for a, b in product(vectors, repeat=2):
        meets[a, b] = greatest_common_bound(vectors, a, b, componentwise_leq)
        joins[a, b] = greatest_common_bound(vectors, a, b, lambda x, y: componentwise_leq(y, x))
        if meets[a, b] is None or joins[a, b] is None:
            return a, b
    return distributivity_failure(
        vectors, lambda x, y: meets[x, y], lambda x, y: joins[x, y])


def subset(a, b):
    return a & ~b == 0


def random_closure_system(rng, m):
    # subsets of range(m) as bitmasks, closed under intersection, with the top
    top = (1 << m) - 1
    family = {top}
    for _ in range(rng.randint(1, 2 * m)):
        g = rng.randrange(1 << m)
        family |= {g & f for f in family} | {g}
    return sorted(family)


def indicator_vectors(masks, m):
    # subsets of range(m) as 0/1 vectors: inclusion is the componentwise order
    return [tuple(x >> k & 1 for k in range(m)) for x in masks]


def check_distributivity_verdict(vectors):
    # the round trip of the vectors' explicit lattice must refuse exactly
    # when the oracle finds a failure, and otherwise return the
    # join-irreducibles; returns whether the vectors form a distributive
    # lattice
    lat = explicit_lattice(vectors)
    if distributive_lattice_failure(vectors) is None:
        assert birkhoff_round_trip(lat) == join_irreducibles(lat)
        return True
    with pytest.raises(NotALattice):
        birkhoff_round_trip(lat)
    return False


def down_set_masks(elements, pairs):
    # each element's down-set as a mask over `elements`, given every pair
    # a < b; a lattice's down-sets form a closure system
    rel = set(pairs)
    return [sum(1 << i for i, a in enumerate(elements) if a == b or (a, b) in rel)
            for b in elements]


def times_two_chain(elements, pairs):
    # product order with the chain 0 < 1
    leq = set(pairs) | {(x, x) for x in elements}
    return (
        [(x, i) for x in elements for i in (0, 1)],
        [((a, i), (b, j)) for a, b in leq for i in (0, 1) for j in (0, 1) if i <= j],
    )


DIAMOND = (  # M3: three incomparable atoms; modular, not distributive
    ["bot", "p", "q", "r", "top"],
    [("bot", x) for x in "pqr"] + [(x, "top") for x in ("bot", "p", "q", "r")],
)
PENTAGON = (  # N5: bot < a < top, bot < b < c < top
    ["bot", "a", "b", "c", "top"],
    [("bot", x) for x in "abc"] + [(x, "top") for x in ("bot", "a", "b", "c")]
    + [("b", "c")],
)


def test_vector_ops_basics():
    assert meet((1, 0), (0, 1)) == (0, 0)
    assert join((1, 0), (0, 2)) == (1, 2)
    with pytest.raises(ShapeMismatch):
        meet((1, 0), (1, 0, 0))
    with pytest.raises(ShapeMismatch):
        explicit_lattice([(0, 0), (1, 0), (1,)])


@given(st.lists(st.integers(0, 30), min_size=0, max_size=6))
def test_vector_text_round_trip(v):
    assert parse_vector(format_vector(v)) == tuple(v)


def test_parse_vector_rejects_garbage():
    for bad in ["1,2", "(1,-2)", "(a,b)", "", "(1 2)"]:
        with pytest.raises(OutOfBounds):
            parse_vector(bad)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal integers of any length")
def test_overlong_component_is_named():
    # the cause is named and only a prefix quoted; a non-integer still
    # quotes the whole text
    text = "(1," + "7" * 5000 + ")"
    with pytest.raises(OutOfBounds) as caught:
        parse_vector(text)
    limit = sys.get_int_max_str_digits()
    assert str(caught.value) == f"component with more than {limit} digits in {text[:40]!r}..."
    with pytest.raises(OutOfBounds, match="^non-integer component in '"):
        parse_vector("(x," + "7" * 5000 + ")")


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
             min_size=3, max_size=3)
)
@settings(max_examples=200)
def test_meet_join_lattice_identities(vs):
    a, b, c = [tuple(v) for v in vs]
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, join(a, b)) == a  # absorption
    assert join(a, meet(a, b)) == a
    # distributivity, the property everything else rests on
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


def test_poset_from_covers_validation():
    with pytest.raises(UnknownLabel):
        poset_from_covers(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        poset_from_covers(["a"], [("a", "b")])
    with pytest.raises(CycleDetected):
        poset_from_covers(["a"], [("a", "a")])
    with pytest.raises(CycleDetected):
        poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_poset_masks_match_dfs_reachability():
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 9)
        # a random DAG on 0..n-1, some redundant transitive pairs, and
        # sometimes a back edge, which closes a cycle when it is reachable
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3]
        reach = dfs_reach(n, edges)
        edges += [(i, k) for i in range(n) for k in reach[i] if rng.random() < 0.2]
        if n > 1 and rng.random() < 0.4:
            i, j = sorted(rng.sample(range(n), 2))
            edges.append((j, i))
        rng.shuffle(edges)
        reach = dfs_reach(n, edges)
        cyclic = any(i in reach[i] for i in range(n))
        verdicts[cyclic] += 1
        labels = rng.sample(range(100), n)  # label order is not the DAG order
        covers = [(labels[i], labels[j]) for i, j in edges]
        if cyclic:
            with pytest.raises(CycleDetected):
                poset_from_covers(labels, covers)
            continue
        p = poset_from_covers(labels, covers)
        for i in range(n):
            for j in range(n):
                assert is_leq(p, labels[i], labels[j]) == (i == j or j in reach[i])
    assert min(verdicts.values()) > 50  # both verdicts are exercised


def test_relation_is_transitive_closure():
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert is_leq(p, "a", "c") and is_leq(p, "a", "a")
    assert not is_leq(p, "c", "a")


def matched_chains(p):
    # reference: Kuhn's matching on the strict successors, each list in label
    # order, and the chains read off its links from each unmatched head
    els, n = p.elements, len(p.elements)
    ref = [[i for i in range(n) if i != j and is_leq(p, els[j], els[i])] for j in range(n)]
    match_l, match_r, _ = bipartite.max_matching(n, n, ref)
    chains = []
    for head in (i for i in range(n) if match_r[i] == -1):
        chain = [head]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(tuple(els[i] for i in chain))
    return tuple(chains)


def test_chain_partition_is_minimum():
    # the chains are also pinned to one matching: repro verify's two ideal
    # lattices are written in the counts over them
    rng = random.Random(5)
    for shuffled in (False, True):
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 9), shuffled=shuffled)
            cp = chain_partition(p)
            seen = [x for chain in cp for x in chain]
            assert sorted(seen) == sorted(p.elements)  # a partition
            for chain in cp:
                for lo, hi in zip(chain, chain[1:]):
                    assert is_leq(p, lo, hi)
            assert len(cp) == brute_force_max_antichain(p)
            assert cp == matched_chains(p)


def test_all_ideals_matches_subset_filter():
    rng = random.Random(9)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 9), shuffled=True)
        cp = chain_partition(p)
        expected = sorted(
            tuple(len(s & set(chain)) for chain in cp)
            for s in brute_force_ideals(p)
        )
        assert all_ideals(p, cp) == expected


def test_all_ideals_of_a_long_chain():
    # one ideal per prefix; the enumeration must not recurse per element
    n = 1200
    labels = list(range(n))
    p = poset_from_covers(labels, list(zip(labels, labels[1:])))
    assert all_ideals(p, (tuple(labels),)) == [(c,) for c in range(n + 1)]


def test_all_ideals_size_guard():
    p = poset_from_covers([f"x{i}" for i in range(25)], [])
    with pytest.raises(TooLarge):
        all_ideals(p, chain_partition(p))


def test_ideal_limit_is_exact(monkeypatch):
    # every list on the way holds down-sets of the whole order, so the
    # limit is reached exactly at the number of ideals
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(1, 9)
        covers = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.25]
        p = poset_from_covers(range(n), covers)
        cp = chain_partition(p)
        want = all_ideals(p, cp)
        monkeypatch.setattr(order_core, "ENUM_LIMIT", len(want))
        assert all_ideals(p, cp) == want
        monkeypatch.setattr(order_core, "ENUM_LIMIT", len(want) - 1)
        with pytest.raises(TooLarge, match=f"more than {len(want) - 1} ideals"):
            all_ideals(p, cp)
        monkeypatch.undo()


def test_over_limit_enumerations_stop_early():
    # each output passes ENUM_LIMIT long before it could be listed
    antichain = poset_from_covers(range(25), [])
    cases = [
        lambda: all_ideals(antichain, chain_partition(antichain)),  # 2^25 ideals
        lambda: all_stable_matchings(block_swap_instance(14)),  # 2^14 matchings
        lambda: enumerate_clearing_vectors(market_instance([[0]], 10_000)),
        lambda: enumerate_clearing_vectors(market_instance([[0] * 100] * 100)),
    ]
    for case in cases:
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            case()
        assert time.perf_counter() - start < 1.0


def test_running_example_encoding():
    p = poset_from_covers(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
    cp = chain_partition(p)
    assert cp == (("a", "b"), ("c", "d"))
    assert (2, 1) in all_ideals(p, cp)  # the ideal {a, b, c}
    assert len(all_ideals(p, cp)) == 8


def test_explicit_lattice_meets_joins_componentwise():
    rng = random.Random(21)
    for _ in range(15):
        dims = rng.randint(1, 3)
        vecs = sorted({
            tuple(rng.randint(0, 2) for _ in range(dims)) for _ in range(6)
        })
        # close the sample so it actually is a lattice
        closed = set(vecs)
        frontier = list(closed)
        while frontier:
            fresh = []
            for a in list(closed):
                for b in frontier:
                    for c in (meet(a, b), join(a, b)):
                        if c not in closed:
                            closed.add(c)
                            fresh.append(c)
            frontier = fresh
        lat = explicit_lattice(sorted(closed))
        idx = {x: i for i, x in enumerate(lat.elements)}
        down, up = lat.down, up_masks(lat)
        for a in lat.elements:
            for b in lat.elements:
                assert down[idx[meet(a, b)]] == down[idx[a]] & down[idx[b]]
                assert up[idx[join(a, b)]] == up[idx[a]] & up[idx[b]]


NO_BIJECTION = "element-to-ideal map is not a bijection onto the ideals"


def refusal(vectors):
    # the message the round trip of the vectors' explicit lattice refuses with
    with pytest.raises(NotALattice) as info:
        birkhoff_round_trip(explicit_lattice(vectors))
    return str(info.value)


def test_round_trip_refuses_vectors_of_no_lattice():
    # two incomparable elements with no common lower bound, then with a
    # common lower bound but no common upper bound: explicit_lattice builds
    # both orders, and the round trip refuses them
    for vectors in ([(1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]):
        assert len(explicit_lattice(vectors).elements) == len(vectors)
        assert not check_distributivity_verdict(vectors)
        assert refusal(vectors) == NO_BIJECTION


def test_explicit_lattice_masks_match_the_pairwise_order():
    # the threshold masks against the definition: bit i of down[j] exactly
    # when u_i <= v_j in every coordinate
    rng = random.Random(47)
    for _ in range(600):
        d = rng.randint(0, 4)
        vectors = list({tuple(rng.randint(0, 3) for _ in range(d))
                        for _ in range(rng.randint(1, 12))})
        rng.shuffle(vectors)
        want = tuple(sum(1 << i for i, u in enumerate(vectors) if all(map(le, u, v)))
                     for v in vectors)
        assert explicit_lattice(vectors).down == want


def test_explicit_lattice_meets_are_read_off_the_masks():
    # a lattice under the componentwise order that is not closed under
    # componentwise min: the meet of (1, 2) and (2, 1) is the bottom
    square = [(0, 0), (1, 2), (2, 1), (2, 2)]
    lat = explicit_lattice(square)
    assert join_irreducibles(lat).elements == ((1, 2), (2, 1))
    assert lat.down[1] & lat.down[2] == lat.down[0]
    assert meet((1, 2), (2, 1)) == (1, 1) and (1, 1) not in lat.elements


def test_explicit_lattice_refuses_empty_and_duplicate_input():
    with pytest.raises(EmptyInput):
        explicit_lattice([])
    with pytest.raises(NotALattice, match="duplicate vectors"):
        explicit_lattice([(0,), (1,), (0,)])


def test_round_trip_refuses_diamond_vectors():
    for elements, pairs in (DIAMOND, times_two_chain(*DIAMOND)):
        vectors = indicator_vectors(down_set_masks(elements, pairs), len(elements))
        assert not check_distributivity_verdict(vectors)
    # the three irreducible atoms of bot, p, q, r, top have 8 ideals
    assert refusal(indicator_vectors(down_set_masks(*DIAMOND), 5)) == NO_BIJECTION


def test_round_trip_refuses_pentagon_vectors():
    for elements, pairs in (PENTAGON, times_two_chain(*PENTAGON)):
        vectors = indicator_vectors(down_set_masks(elements, pairs), len(elements))
        assert not check_distributivity_verdict(vectors)


def test_distributivity_matches_triple_loop_on_closure_systems():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        m = rng.randint(2, 5)
        vectors = indicator_vectors(random_closure_system(rng, m), m)
        outcomes[check_distributivity_verdict(vectors)] += 1
    assert min(outcomes.values()) > 100  # both verdicts are exercised


def test_distributivity_matches_triple_loop_on_random_vectors():
    # most random sets form no lattice; chains and small boxes do
    rng = random.Random(43)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        d = rng.randint(1, 3)
        vectors = sorted({tuple(rng.randint(0, 3) for _ in range(d))
                          for _ in range(rng.randint(1, 8))})
        rng.shuffle(vectors)  # element order then need not be a linear extension
        outcomes[check_distributivity_verdict(vectors)] += 1
    assert min(outcomes.values()) > 200  # both verdicts are exercised


def test_round_trip_stops_listing_ideals_past_the_element_count():
    # M14, a bottom and a top around 14 atoms, and the fan, a bottom under
    # 20 atoms, have 2^14 and 2^20 ideals of irreducibles for 16 and 21
    # elements: both are refused long before ENUM_LIMIT ideals are listed
    atoms = [f"a{i}" for i in range(20)]
    m14 = poset_from_covers(["bot", *atoms[:14], "top"],
                            [("bot", a) for a in atoms[:14]] + [(a, "top") for a in atoms[:14]])
    fan = poset_from_covers(["bot", *atoms], [("bot", a) for a in atoms])
    for poset in (m14, fan):
        with pytest.raises(NotALattice, match=f"^{NO_BIJECTION}$"):
            birkhoff_round_trip(poset)


def test_join_irreducibles_match_lower_cover_filter():
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        m = rng.randint(2, 5)
        family = random_closure_system(rng, m)
        vectors = indicator_vectors(family, m)
        lat = explicit_lattice(vectors)
        try:
            birkhoff_round_trip(lat)
        except NotALattice:
            continue
        checked += 1
        irr = [x for x in vectors if len(brute_force_lower_covers(lat, vectors, x)) == 1]
        jp = join_irreducibles(lat)
        assert jp.elements == tuple(irr)
        check_irreducible_order(lat, jp)
        # family[i] is lattice element i
        down, up = lat.down, up_masks(lat)
        pos = {f: i for i, f in enumerate(family)}
        for i, a in enumerate(family):
            for j in range(i, len(family)):
                b = family[j]
                lo = pos[greatest_common_bound(family, a, b, subset)]
                hi = pos[greatest_common_bound(family, a, b, lambda x, y: subset(y, x))]
                assert down[lo] == down[i] & down[j]
                assert up[hi] == up[i] & up[j]


def test_irreducible_images_match_lower_covers():
    rng = random.Random(41)
    for _ in range(300):
        poset = random_poset(rng, rng.randint(1, 9), rng.random(), shuffled=True)
        els = poset.elements
        members = tuple(i for i, x in enumerate(els)
                        if len(brute_force_lower_covers(poset, els, x)) == 1)
        images = tuple(sum(1 << k for k, i in enumerate(members) if is_leq(poset, els[i], x))
                       for x in els)
        assert poset.irreducible_images == (members, images)


def test_each_poset_is_decomposed_once(monkeypatch):
    vector_sets = [lat.elements for _, lat in chain_product_lattices(50) + fixed_lattices()]
    prop = Poset.__dict__["irreducible_images"]
    real, computed = prop.func, []

    def counted(poset):
        computed.append(poset)
        return real(poset)

    monkeypatch.setattr(prop, "func", counted)
    grid = [(i, j) for i in range(3) for j in range(4)]
    covers = [((i, j), (i + 1, j)) for i, j in grid if i < 2]
    covers += [((i, j), (i, j + 1)) for i, j in grid if j < 3]
    posets = [explicit_lattice(v) for v in vector_sets] + [poset_from_covers(grid, covers)]
    for poset in posets:
        join_irreducibles(poset)
        birkhoff_round_trip(poset)
    assert len(computed) == len(posets) == 88
    assert all(c is p for c, p in zip(computed, posets))


def test_join_irreducibles_of_cube():
    lat = explicit_lattice(product((0, 1), repeat=3))
    jp = join_irreducibles(lat)
    # exactly the three atoms, pairwise incomparable
    assert sorted(jp.elements) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert check_irreducible_order(lat, jp) == set()


def test_join_irreducibles_of_chain():
    lat = explicit_lattice([(i,) for i in range(5)])
    jp = join_irreducibles(lat)
    assert list(jp.elements) == [(1,), (2,), (3,), (4,)]
    assert check_irreducible_order(lat, jp) == {((i,), (i + 1,)) for i in range(1, 4)}


def test_birkhoff_round_trip_small():
    for vecs in [
        list(product(range(3), range(4))),
        list(product((0, 1), repeat=4)),
        [(i,) for i in range(6)],
    ]:
        lat = explicit_lattice(vecs)
        jp = birkhoff_round_trip(lat)
        # ideals of J(L) are in bijection with L
        assert len(all_ideals(jp, chain_partition(jp))) == len(lat.elements)


def test_birkhoff_round_trip_running_example():
    p = poset_from_covers(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])
    cp = chain_partition(p)
    lat = explicit_lattice(all_ideals(p, cp))
    jp = birkhoff_round_trip(lat)
    assert len(jp.elements) == 4  # recovers a four-element generator poset


def test_birkhoff_round_trip_of_a_poset_from_covers():
    # the 2 x 3 grid given by its covers, not by count vectors
    grid = [(i, j) for i in range(2) for j in range(3)]
    covers = [((i, j), (i + 1, j)) for i, j in grid if i < 1]
    covers += [((i, j), (i, j + 1)) for i, j in grid if j < 2]
    lat = poset_from_covers(grid, covers)
    irreducibles = ((0, 1), (0, 2), (1, 0))
    assert join_irreducibles(lat).elements == irreducibles
    assert birkhoff_round_trip(lat).elements == irreducibles


def test_birkhoff_round_trip_refuses_non_distributive_lattices():
    # M3 has three irreducible atoms (8 ideals) for 5 elements, N5 the
    # irreducibles a and b < c (6 ideals); the bowtie, no lattice at all,
    # maps both its maxima to the ideal {a, b}
    bowtie = (
        ["bot", "a", "b", "c", "d"],
        [("bot", x) for x in "abcd"] + [(x, y) for x in "ab" for y in "cd"],
    )
    for elements, covers in (DIAMOND, PENTAGON, bowtie):
        with pytest.raises(NotALattice, match="not a bijection"):
            birkhoff_round_trip(poset_from_covers(elements, covers))


def test_birkhoff_round_trip_checks_the_order_beyond_the_bijection():
    # 0 < a, b, c; x > a, b; u > a, c; v > b, c; y > a, b, c and above none
    # of x, u, v. The images of the 8 elements are the 8 ideals of the
    # antichain {a, b, c}, yet x's image lies below y's while x is not
    # below y
    covers = [("0", z) for z in "abc"] + [
        (lo, hi) for hi, los in (("x", "ab"), ("u", "ac"), ("v", "bc"), ("y", "abc"))
        for lo in los
    ]
    poset = poset_from_covers(["0", "a", "b", "c", "x", "u", "v", "y"], covers)
    assert join_irreducibles(poset).elements == ("a", "b", "c")
    with pytest.raises(NotALattice, match="^order not preserved between x and y$"):
        birkhoff_round_trip(poset)


def test_birkhoff_order_check_names_the_first_pair_in_row_major_order():
    # the 16 subsets of the atoms a, b, c, d, each pair above its two atoms
    # and each triple above some of its pairs: abd is above ab and ad but
    # not bd, and acd and bcd are not above cd. The images are the 16 ideals
    # of the antichain, yet bd and cd lie below no triple holding them. In
    # row-major order (cd, acd) comes first; by columns (bd, abd) would, and
    # the last pair of cd's row is (cd, bcd)
    pairs = ["cd", "ab", "ac", "ad", "bc", "bd"]
    triple_pairs = {"abd": "ab ad", "abc": "ab ac bc", "acd": "ac ad", "bcd": "bc bd"}
    covers = [("0", a) for a in "abcd"] + [(a, p) for p in pairs for a in p]
    covers += [(p, t) for t, ps in triple_pairs.items() for p in ps.split()]
    covers += [(t, "abcd") for t in triple_pairs]
    poset = poset_from_covers(["0", *"abcd", *pairs, *triple_pairs, "abcd"], covers)
    assert join_irreducibles(poset).elements == tuple("abcd")
    with pytest.raises(NotALattice, match="^order not preserved between cd and acd$"):
        birkhoff_round_trip(poset)


def test_public_names_resolve_sorted_and_unique():
    assert all(hasattr(latmed, name) for name in latmed.__all__)
    assert latmed.__all__ == sorted(set(latmed.__all__))


def test_every_error_class_is_named_outside_errors():
    # a class no other module names is raised nowhere
    texts = [p.read_text() for p in Path(errors.__file__).parent.glob("*.py")
             if p.name != "errors.py"]
    names = [name for name, cls in vars(errors).items() if isinstance(cls, type)
             and issubclass(cls, errors.LatmedError) and cls is not errors.LatmedError]
    assert len(names) > 10
    assert [n for n in names if not any(re.search(rf"\b{n}\b", t) for t in texts)] == []
