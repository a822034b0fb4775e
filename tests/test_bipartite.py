"""Bipartite matching: the stack-based search against the recursive one, and
the alternating search against a fixed point of its definition."""

import random

from latmed.bipartite import alternating_reachable, max_matching


def recursive_max_matching(n_left, n_right, adj):
    # oracle: Kuhn's algorithm in its textbook recursive form
    match_l = [-1] * n_left
    match_r = [-1] * n_right

    def try_augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] == -1 or try_augment(match_r[v], seen):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    for u in range(n_left):
        try_augment(u, set())
    return match_l, match_r


def test_matches_recursive_kuhn_on_random_graphs():
    rng = random.Random(17)
    unmatched = 0
    for _ in range(1500):
        n_left, n_right = rng.randint(0, 20), rng.randint(0, 20)
        density = rng.random()
        adj = [
            [v for v in rng.sample(range(n_right), n_right) if rng.random() < density]
            for _ in range(n_left)
        ]
        got = max_matching(n_left, n_right, adj)[:2]
        assert got == recursive_max_matching(n_left, n_right, adj)
        unmatched += -1 in got[0]
    assert unmatched > 100  # deficient graphs are exercised too


def test_long_augmenting_path_does_not_recurse():
    # the path R0-L0-R1-L1-...-R(n-1), plus L(n-1)-R0: every left vertex but
    # the last takes its own right vertex, then matching L(n-1) needs the
    # augmenting path through all 2n vertices
    n = 3000
    adj = [[u, u + 1] for u in range(n - 1)] + [[0]]
    match_l, match_r = max_matching(n, n, adj)[:2]
    assert match_l == list(range(1, n)) + [0]
    assert match_r == [n - 1] + list(range(n - 1))


def greedy_start(rng, n_left, n_right, adj):
    # a random greedy matching on the graph's own edges
    match_l, match_r = [-1] * n_left, [-1] * n_right
    for u in rng.sample(range(n_left), n_left):
        free = [v for v in adj[u] if match_r[v] == -1]
        if free and rng.random() < 0.7:
            v = rng.choice(free)
            match_l[u], match_r[v] = v, u
    return match_l, match_r


def test_extending_a_partial_matching_reaches_maximum_size():
    rng = random.Random(19)
    extended = 0
    for _ in range(1500):
        n_left, n_right = rng.randint(0, 15), rng.randint(0, 15)
        density = rng.random()
        adj = [[v for v in range(n_right) if rng.random() < density] for _ in range(n_left)]
        size = n_left - max_matching(n_left, n_right, adj)[0].count(-1)
        match_l, match_r = greedy_start(rng, n_left, n_right, adj)
        start = (list(match_l), list(match_r))
        got_l, got_r = max_matching(n_left, n_right, adj, start)[:2]
        assert start == (match_l, match_r)  # the start is not modified
        assert n_left - got_l.count(-1) == size
        assert all(v == -1 or (v in adj[u] and got_r[v] == u) for u, v in enumerate(got_l))
        assert all(u == -1 or got_l[u] == v for v, u in enumerate(got_r))
        assert all(got_l[u] != -1 for u in range(n_left) if match_l[u] != -1)
        extended += n_left - match_l.count(-1) < size
    assert extended > 300  # most starts needed augmenting


def alternating_closure(n_left, adj, match_l):
    # oracle: grow both sets to a fixed point, straight from the definition;
    # forward along any edge, backward from a right vertex only to the left
    # vertex matched to it
    left = {u for u in range(n_left) if match_l[u] == -1}
    right = set()
    while True:
        grown_r = right | {v for u in left for v in adj[u]}
        grown_l = left | {u for u in range(n_left) if match_l[u] in grown_r}
        if (grown_l, grown_r) == (left, right):
            return left, right
        left, right = grown_l, grown_r


def test_alternating_reachable_matches_its_definition():
    rng = random.Random(23)
    deficient = 0
    for _ in range(1500):
        n_left, n_right = rng.randint(0, 15), rng.randint(0, 15)
        density = rng.random()
        adj = [[v for v in range(n_right) if rng.random() < density] for _ in range(n_left)]
        match_l, match_r = max_matching(n_left, n_right, adj)[:2]
        got_l, got_r = alternating_reachable(n_left, adj, match_l, match_r)
        assert (got_l, got_r) == alternating_closure(n_left, adj, match_l)
        # Hall deficiency of a maximum matching: N(S) is exactly the right
        # set reached, one short of S for every unmatched left vertex
        unmatched = match_l.count(-1)
        assert {v for u in got_l for v in adj[u]} == got_r
        assert len(got_r) == len(got_l) - unmatched
        deficient += unmatched > 0 and len(got_l) > unmatched
    assert deficient > 300  # reached sets that hold matched left vertices too


def test_failed_searches_give_the_alternating_reach():
    # the auction always hands the matcher a partial matching to extend, so
    # most draws start from a greedy one; the third value must be the right
    # set of the alternating closure of the matching returned
    rng = random.Random(29)
    partial = 0
    for _ in range(1500):
        n_left, n_right = rng.randint(0, 15), rng.randint(0, 15)
        density = rng.random()
        adj = [[v for v in range(n_right) if rng.random() < density] for _ in range(n_left)]
        start = greedy_start(rng, n_left, n_right, adj) if rng.random() < 0.8 else None
        match_l, _, reached = max_matching(n_left, n_right, adj, start)
        assert reached == alternating_closure(n_left, adj, match_l)[1]
        partial += start is not None and match_l.count(-1) > 1 and bool(reached)
    assert partial > 300  # several failed searches after a partial start
