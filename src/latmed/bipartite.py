"""Bipartite maximum matching via augmenting paths (Kuhn's algorithm).

Deterministic: left vertices are processed in index order and adjacency
lists are scanned in the order given, so equal inputs always produce the
same matching. The depth-first search keeps its path on an explicit
stack, so path length is not limited by Python's recursion limit. The
searches that fail also give the Hall violator, with no second search.
"""

from __future__ import annotations

from typing import Sequence


def max_matching(n_left: int, n_right: int, adj: Sequence[Sequence[int]], start=None):
    """Maximum matching of the bipartite graph given as left adjacency lists.

    Returns (match_l, match_r, reached): match_l[u] is the right partner of
    u or -1, match_r[v] the left partner of v or -1. `start`, when given, is
    such a pair for a matching that uses only edges of `adj`, and a missing
    one is the empty matching. It is copied and extended by augmenting paths
    from its unmatched left vertices, in index order. Vertices matched in
    `start` stay matched.

    `reached` is N(S) for the left set S that alternating paths reach from
    unmatched left vertices, empty when all are matched: the union of the
    failed searches' forests, which no later augmenting path enters.
    """
    match_l, match_r = ([-1] * n_left, [-1] * n_right) if start is None else map(list, start)
    reached = set()
    for root in range(n_left):
        if match_l[root] != -1:
            continue  # an augmenting path newly matches only its root
        # depth-first search for an augmenting path from root, visiting
        # vertices in the order of the recursive formulation; lefts is the
        # path so far and edges[d] the unscanned adjacency of lefts[d]
        seen = set()
        lefts = [root]
        edges = [iter(adj[root])]
        while edges:
            for v in edges[-1]:
                if v not in seen:
                    break
            else:
                edges.pop()  # dead end: the previous vertex tries its next edge
                lefts.pop()
                continue
            seen.add(v)
            w = match_r[v]
            if w == -1:
                # augment: each left vertex on the path takes the right
                # vertex it tried, which its successor gives up
                for u in reversed(lefts):
                    prev = match_l[u]
                    match_l[u] = v
                    match_r[v] = u
                    v = prev
                break
            lefts.append(w)
            edges.append(iter(adj[w]))
        else:
            reached |= seen
    return match_l, match_r, reached


def alternating_reachable(n_left, adj, match_l, match_r):
    """Left/right sets alternating paths reach from unmatched left vertices
    in the maximum matching `max_matching` extends the given one to. The
    left set S has |N(S)| = |S| - (unmatched left vertices), so it is a
    Hall violator whenever some left vertex is unmatched."""
    match_l, match_r, seen_r = max_matching(n_left, len(match_r), adj, (match_l, match_r))
    seen_l = {u for u in range(n_left) if match_l[u] == -1 or match_l[u] in seen_r}
    return seen_l, seen_r
