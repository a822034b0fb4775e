"""Bipartite maximum matching via augmenting paths (Kuhn's algorithm).

Deterministic: left vertices are processed in index order and adjacency
lists are scanned in the order given, so equal inputs always produce the
same matching. The depth-first search keeps its path on an explicit
stack, so path length is not limited by Python's recursion limit.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def max_matching(n_left: int, n_right: int, adj: Sequence[Sequence[int]], start=None):
    """Maximum matching of the bipartite graph given as left adjacency lists.

    Returns (match_l, match_r): match_l[u] is the right partner of u or -1,
    match_r[v] the left partner of v or -1. `start`, when given, is such a
    pair for a matching that uses only edges of `adj`, and a missing one is
    the empty matching. It is copied and extended by augmenting paths from
    its unmatched left vertices, in index order. Vertices matched in
    `start` stay matched.
    """
    match_l, match_r = ([-1] * n_left, [-1] * n_right) if start is None else map(list, start)
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
    return match_l, match_r


def alternating_reachable(n_left, adj, match_l, match_r):
    """Left/right vertex sets reachable from unmatched left vertices.

    Alternating search: forward along any edge, backward only along matched
    edges. With a maximum matching, the reachable left set S satisfies
    |N(S)| = |S| - (number of unmatched left vertices), i.e. S is a Hall
    violator whenever some left vertex is unmatched.
    """
    left = [u for u in range(n_left) if match_l[u] == -1]
    seen_l = set(left)
    seen_r = set()
    queue = deque(left)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in seen_r:
                continue
            seen_r.add(v)
            w = match_r[v]
            if w != -1 and w not in seen_l:
                seen_l.add(w)
                queue.append(w)
    return seen_l, seen_r
