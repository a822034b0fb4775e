"""Market clearing prices for unit-demand buyers, and their medians.

n buyers, n items, integer valuations. At prices p, buyer i demands the
items maximizing valuations[i][j] - p[j] (ties kept; payoffs may be
negative, buyers have no outside option). A price vector clears the
market when the demand graph contains a perfect matching. Clearing
vectors are closed under componentwise min and max, so the coordinatewise
median construction applies; the ascending auction below computes the
componentwise minimum directly.

A clearing vector supports every maximum-value assignment mu (Shapley and
Shubik 1971): it clears exactly when p[mu(i)] - p[j] <= v[i][mu(i)] - v[i][j]
for every buyer i and item j. The enumeration reads the clearing set off
these difference constraints, without building a demand graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, sub

from . import bipartite
from .errors import (
    NotClearingInput,
    OutOfBounds,
    ShapeMismatch,
    SizeMismatch,
)
from .lattice_median import checked_median
from .order_core import check_enum_limit, parse_rows


@dataclass(frozen=True)
class MarketInstance:
    n: int
    valuations: tuple  # n x n, valuations[i][j] = buyer i's value for item j
    price_cap: int


def market_instance(valuations, price_cap=None):
    vals = tuple(tuple(row) for row in valuations)
    n = len(vals)
    if n < 1:
        raise SizeMismatch("need at least one buyer")
    for i, row in enumerate(vals):
        if len(row) != n:
            raise SizeMismatch(f"buyer {i}: expected {n} valuations, got {len(row)}")
        for v in row:
            if v < 0:
                raise OutOfBounds(f"buyer {i}: negative valuation {v}")
    if price_cap is None:
        price_cap = max(max(row) for row in vals)
    if price_cap < 0:
        raise OutOfBounds(f"price cap must be nonnegative, got {price_cap}")
    return MarketInstance(n=n, valuations=vals, price_cap=price_cap)


def serialize_market(inst):
    lines = [f"market {inst.n} {inst.price_cap}"]
    for i, row in enumerate(inst.valuations):
        lines.append(f"buyer {i}: " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_market(text):
    """Read the `market <n> [cap]` text format. Returns the market and the
    text its digest is taken over: the text itself when it is byte for byte
    what serialize_market prints, else that serialization."""
    cap, (rows,), written = parse_rows(text, "market", ("cap",), ("buyer",), "valuation",
                                       "valuations")
    # a written text has n >= 1, its shape is checked and the pattern admits
    # no sign, so every check of market_instance holds
    inst = MarketInstance(len(rows), tuple(rows), *cap) if written else market_instance(rows, *cap)
    return inst, text if written else serialize_market(inst)


def _check_prices(inst, prices):
    p = tuple(prices)
    if len(p) != inst.n:
        raise ShapeMismatch(f"expected {inst.n} prices, got {len(p)}")
    for j, x in enumerate(p):
        if x < 0 or x > inst.price_cap:
            raise OutOfBounds(f"price {x} for item {j} outside 0..{inst.price_cap}")
    return p


def _row_demand(row, prices):
    """The items that give one buyer its best payoff, in ascending order."""
    pay = list(map(sub, row, prices))
    best = max(pay)
    return [j for j, x in enumerate(pay) if x == best]


def _demands(inst, prices):
    return [_row_demand(row, prices) for row in inst.valuations]


def is_market_clearing(inst, prices):
    """Does the demand graph at these prices have a perfect matching?"""
    p = _check_prices(inst, prices)
    match_l = bipartite.max_matching(inst.n, inst.n, _demands(inst, p))[0]
    return -1 not in match_l


def clearing_matching(inst, prices):
    """One perfect matching supporting clearing prices, as buyer->item."""
    p = _check_prices(inst, prices)
    match_l = bipartite.max_matching(inst.n, inst.n, _demands(inst, p))[0]
    if -1 in match_l:
        raise NotClearingInput(f"{p} does not clear the market")
    return tuple(match_l)


def min_clearing_prices(inst):
    """Componentwise minimum clearing price vector, by ascending auction.

    While some buyer is unmatched, take the items R the matcher reached by
    alternating paths from unmatched buyers, and the buyers S unmatched or
    matched into R. R is overdemanded: every buyer in S demands only items
    in R. Each price in R rises by the least gap over S, a buyer's gap
    being its best payoff minus its best payoff outside R. This is the
    unit-step ascending auction (Demange, Gale and Sotomayor 1986) with each
    run of rounds that find the same R merged into one, as no demand list
    gains an item below the gap. The running vector never exceeds any
    clearing vector in any coordinate, so the result is the minimum, which
    has a zero price: buyers have no outside option, so lowering every
    price by one keeps every demand set.

    Rounds are incremental. After a raise, a buyer outside S drops the
    items in R, keeping its matched item; a buyer in S whose gap was the
    step adds the items outside R that now tie. The matching is carried
    over and extended, since a matched edge stays demanded. R does not
    depend on which maximum matching the auction holds (it is the
    neighbourhood of the buyers that some maximum matching leaves
    unmatched, by Gallai-Edmonds), so the prices are those of rebuilding
    demands and matching from scratch. Each round lets the matching grow
    or adds a tied item to R, so at most n * (n + 1) + 1 rounds run,
    whatever the valuations.
    """
    n, vals = inst.n, inst.valuations
    p = [0] * n
    demands = _demands(inst, p)
    matching = None
    for _ in range(n * (n + 1) + 1):
        match_l, match_r, raised = bipartite.max_matching(n, n, demands, matching)
        if -1 not in match_l:
            break
        matching = match_l, match_r
        reached = [u for u, j in enumerate(match_l) if j == -1 or j in raised]
        outside = [j not in raised for j in range(n)]
        p_outside = list(compress(p, outside))
        gaps = {}
        for u in reached:
            row, j = vals[u], demands[u][0]
            gaps[u] = row[j] - p[j] - max(map(sub, compress(row, outside), p_outside))
        step = min(gaps.values())
        for j in raised:
            p[j] += step
        for u, items in enumerate(demands):
            if u not in gaps:
                if not raised.isdisjoint(items):
                    demands[u] = [j for j in items if j not in raised]
            elif gaps[u] == step:
                row, j = vals[u], items[0]
                top = row[j] - p[j]
                demands[u] = sorted(items + [k for k in compress(range(n), outside)
                                             if row[k] - p[k] == top])
    else:
        raise AssertionError(f"auction failed to terminate on {inst}")
    if max(p) > inst.price_cap:
        raise OutOfBounds(f"minimum clearing prices {tuple(p)} exceed price cap {inst.price_cap}")
    return tuple(p)


def _max_value_assignment(valuations):
    """A maximum-value assignment as buyer -> item, by the Hungarian method.

    Kuhn-Munkres in its O(n^3) shortest-augmenting-path form, on costs
    -valuations with row and column potentials. Each row is added by
    growing a tree of tight edges from it until it reaches a free column,
    shifting the potentials by the least slack at each step.
    """
    n = len(valuations)
    inf = float("inf")
    u = [0] * (n + 1)  # row potentials; index 0 is a sentinel row
    v = [0] * (n + 1)  # column potentials; column 0 holds the row being added
    owner = [0] * (n + 1)  # row (1-based) assigned to each column, 0 if none
    way = [0] * (n + 1)  # previous column on the shortest path
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row = valuations[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = -row[j - 1] - u[i0] - v[j]
                if cur < slack[j]:
                    slack[j], way[j] = cur, j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    mu = [0] * n
    for j in range(1, n + 1):
        mu[owner[j] - 1] = j - 1
    return tuple(mu)


def enumerate_clearing_vectors(inst):
    """All clearing vectors in the box [0, cap]^n, in lexicographic order.

    Takes a maximum-value assignment mu and writes the clearing set as
    difference constraints d[a][b] >= p[a] - p[b], with a zero-price node
    bounding the box. Floyd-Warshall closes them; a negative cycle means
    the box holds no clearing vector. A closed difference network is
    minimal and backtrack-free (Dechter, Meiri and Pearl 1991), so fixing
    coordinates in index order, each within the range the earlier ones
    allow, never reaches a dead end: the work is O(n) per prefix of an
    output vector. Each prefix on the stack yields an output, so counting
    outputs listed, prefixes waiting and the next step's values refuses
    exactly past ENUM_LIMIT clearing vectors, before a large range or
    stack is built; the O(n^3) set-up is refused past ENUM_LIMIT constraints.
    """
    m, cap, vals = inst.n + 1, inst.price_cap, inst.valuations
    check_enum_limit(m * m, "price-difference constraints")
    # node 0 is a zero price and node j + 1 is item j; d[a][b] bounds
    # p[a] - p[b] from above, starting from the box 0 <= p <= cap
    d = [[0] * m] + [[0 if a == b else cap for b in range(m)] for a in range(1, m)]
    for row, a in zip(vals, _max_value_assignment(vals)):
        da = d[a + 1]
        for j, x in enumerate(row, start=1):
            da[j] = min(da[j], row[a] - x)
    for k in range(m):
        dk = d[k]
        for da in d:
            dak = da[k]
            da[:] = map(min, da, [dak + x for x in dk])
    if any(d[a][a] < 0 for a in range(m)):
        return []
    # with nodes 0..k-1 fixed at p, node k ranges over
    # [max(p[t] - d[t][k]), min(p[t] + d[k][t])], t < k
    below = [[d[t][k] for t in range(k)] for k in range(m)]
    above = [d[k][:k] for k in range(m)]
    out = []
    stack = [(0,)]
    while stack:
        head = stack.pop()
        k = len(head)
        lo = max(map(sub, head, below[k]))
        hi = min(map(add, head, above[k]))
        check_enum_limit(len(out) + len(stack) + hi - lo + 1, "clearing vectors")
        if k == m - 1:
            tail = head[1:]
            out.extend(tail + (x,) for x in range(lo, hi + 1))
        else:
            stack.extend(head + (x,) for x in range(hi, lo - 1, -1))
    return out


def median_clearing(inst, price_vectors, j):
    """j-th (1-indexed) median of clearing price vectors, checked to clear.

    A clearing vector supports every maximum-value assignment (Shapley and
    Shubik 1971), and a perfect matching mu of one clearing vector's demand
    graph is such an assignment: each buyer's payoff under mu is its best,
    and every assignment pays the same total price. So, with mu taken from
    the first vector's demand graph, a later vector or the median clears
    exactly when each buyer's mu-item is among its best payoffs there: one
    max per row, with no demand lists and no matcher.
    """
    ps = [_check_prices(inst, p) for p in price_vectors]
    mu = clearing_matching(inst, ps[0]) if ps else ()  # refuses a first vector that does not clear
    vals = inst.valuations

    def clears(p):
        return all(row[k] - p[k] == max(map(sub, row, p)) for row, k in zip(vals, mu))

    return checked_median(ps, j, clears,
                          lambda p: NotClearingInput(f"{p} does not clear the market"))
