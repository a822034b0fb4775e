"""Market clearing prices for unit-demand buyers, and their medians.

n buyers, n items, integer valuations. At prices p, buyer i demands the
items maximizing valuations[i][j] - p[j] (ties kept; payoffs may be
negative, buyers have no outside option). A price vector clears the
market when the demand graph contains a perfect matching. Clearing
vectors are closed under componentwise min and max, so the coordinatewise
median construction applies; the ascending auction below computes the
componentwise minimum directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import bipartite
from .errors import (
    JOutOfRange,
    MalformedFile,
    NotClearingInput,
    OutOfBounds,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
)
from .lattice_median import generalized_medians

ENUM_N_BOUND = 4
ENUM_CAP_BOUND = 6


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


def parse_market(text):
    """Read the `market <n> [cap]` text format (see serialize_market)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("market "):
        raise MalformedFile("expected header 'market <n> [cap]'")
    head = lines[0].split()
    try:
        n = int(head[1])
        cap = int(head[2]) if len(head) > 2 else None
    except (IndexError, ValueError):
        raise MalformedFile(f"bad header {lines[0]!r}") from None
    if n < 1:
        raise MalformedFile(f"instance size must be positive, got {n}")
    if len(lines) != 1 + n:
        raise MalformedFile(f"expected {1 + n} lines, got {len(lines)}")
    rows = []
    for i in range(n):
        head_i, sep, rest = lines[1 + i].partition(":")
        if not sep or head_i.split() != ["buyer", str(i)]:
            raise MalformedFile(f"expected 'buyer {i}: ...', got {lines[1 + i]!r}")
        try:
            row = [int(tok) for tok in rest.split()]
        except ValueError:
            raise MalformedFile(f"non-integer valuation in {lines[1 + i]!r}") from None
        if len(row) != n:
            raise SizeMismatch(f"buyer {i}: expected {n} valuations, got {len(row)}")
        rows.append(row)
    return market_instance(rows, cap)


def serialize_market(inst):
    lines = [f"market {inst.n} {inst.price_cap}"]
    for i, row in enumerate(inst.valuations):
        lines.append(f"buyer {i}: " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _check_prices(inst, prices, enforce_cap=True):
    p = tuple(prices)
    if len(p) != inst.n:
        raise ShapeMismatch(f"expected {inst.n} prices, got {len(p)}")
    for j, x in enumerate(p):
        if x < 0 or (enforce_cap and x > inst.price_cap):
            raise OutOfBounds(f"price {x} for item {j} outside 0..{inst.price_cap}")
    return p


def _demands(inst, prices):
    demands = []
    for row in inst.valuations:
        best = max(v - p for v, p in zip(row, prices))
        demands.append(tuple(j for j, (v, p) in enumerate(zip(row, prices)) if v - p == best))
    return demands


def is_market_clearing(inst, prices):
    """Does the demand graph at these prices have a perfect matching?"""
    p = _check_prices(inst, prices)
    match_l, _ = bipartite.max_matching(inst.n, inst.n, _demands(inst, p))
    return -1 not in match_l


def clearing_matching(inst, prices):
    """One perfect matching supporting clearing prices, as buyer->item."""
    p = _check_prices(inst, prices)
    match_l, _ = bipartite.max_matching(inst.n, inst.n, _demands(inst, p))
    if -1 in match_l:
        raise NotClearingInput(f"{p} does not clear the market")
    return tuple(match_l)


def min_clearing_prices(inst):
    """Componentwise minimum clearing price vector, by ascending auction.

    While some buyer is unmatched, take the set of buyers reachable from
    unmatched buyers by alternating paths in the demand graph; their
    demanded items are overdemanded, and each such price rises by one.
    The running vector never exceeds any clearing vector in any
    coordinate, so the result is the minimum; a final shift-down step
    guards the all-positive case but never fires for the minimum.
    """
    n = inst.n
    p = [0] * n
    # each round raises at least one price and no price passes the minimum
    # clearing vector, which is capped by the largest valuation
    max_rounds = n * (inst.price_cap + max(max(r) for r in inst.valuations) + 2) + 8
    for _ in range(max_rounds):
        demands = _demands(inst, p)
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
        raise OutOfBounds(
            f"minimum clearing prices {result} exceed price cap {inst.price_cap}"
        )
    return result


def enumerate_clearing_vectors(inst, n_bound=ENUM_N_BOUND, cap_bound=ENUM_CAP_BOUND):
    """All clearing vectors in the box [0, cap]^n, in lexicographic order.

    Brute force over (cap+1)^n candidates; refuses instances beyond the
    given bounds.
    """
    if inst.n > n_bound:
        raise TooLarge(f"n={inst.n} exceeds enumeration bound {n_bound}")
    if inst.price_cap > cap_bound:
        raise TooLarge(f"cap={inst.price_cap} exceeds enumeration bound {cap_bound}")
    out = []
    for cand in product(range(inst.price_cap + 1), repeat=inst.n):
        match_l, _ = bipartite.max_matching(inst.n, inst.n, _demands(inst, cand))
        if -1 not in match_l:
            out.append(cand)
    return out


def median_clearing(inst, price_vectors, j):
    """j-th (1-indexed) generalized median of clearing price vectors.

    Inputs are validated to clear the market and the result is checked to
    clear it too before being returned.
    """
    ps = [_check_prices(inst, p) for p in price_vectors]
    for p in ps:
        if not is_market_clearing(inst, p):
            raise NotClearingInput(f"{p} does not clear the market")
    if not 1 <= j <= len(ps):
        raise JOutOfRange(f"j={j} outside 1..{len(ps)}")
    med = generalized_medians(ps)[j - 1]
    if not is_market_clearing(inst, med):
        raise AssertionError(f"median {med} of clearing vectors does not clear")
    return med
