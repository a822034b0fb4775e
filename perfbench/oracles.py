"""Correctness oracles for the benchmark, written without any latmed code.

Each check raises OracleError with a one-line reason, so a failed check
is counted against the operation that produced the output.
"""

from __future__ import annotations


class OracleError(Exception):
    pass


def expect(condition, reason):
    if not condition:
        raise OracleError(reason)


def parse_vector(text):
    """'(a,b,c)' -> (a, b, c); the benchmark's own reader of CLI output."""
    s = text.strip()
    expect(s.startswith("(") and s.endswith(")"), f"not a vector: {text!r}")
    body = s[1:-1]
    try:
        return tuple(int(x) for x in body.split(",")) if body else ()
    except ValueError:
        raise OracleError(f"not a vector: {text!r}") from None


def format_vector(v):
    return "(" + ",".join(map(str, v)) + ")"


def sorted_medians(vectors):
    """Per-coordinate sort: the j-th output holds each coordinate's j-th smallest."""
    columns = [sorted(column) for column in zip(*vectors)]
    return [tuple(column[j] for column in columns) for j in range(len(vectors))]


# --- stable matching ---------------------------------------------------------


def women_ranks(women_prefs):
    """wrank[w][m] = position of man m in woman w's list."""
    table = []
    for row in women_prefs:
        rank = [0] * len(row)
        for pos, m in enumerate(row):
            rank[m] = pos
        table.append(rank)
    return table


def blocking_pairs(men_prefs, wrank, ranks):
    """All blocking pairs of a rank vector, in lexicographic order.

    Checks first that the vector is a perfect matching. A man can only
    block with a woman he lists before his partner, so each man's scan
    stops at his own rank.
    """
    n = len(men_prefs)
    expect(len(ranks) == n, f"rank vector has {len(ranks)} entries, want {n}")
    expect(all(0 <= r < n for r in ranks), "rank out of range")
    wives = [men_prefs[m][r] for m, r in enumerate(ranks)]
    expect(len(set(wives)) == n, "two men share a partner")
    husband = [0] * n
    for m, w in enumerate(wives):
        husband[w] = m
    pairs = []
    for m, r in enumerate(ranks):
        for w in men_prefs[m][:r]:
            if wrank[w][m] < wrank[w][husband[w]]:
                pairs.append((m, w))
    return sorted(pairs)


def check_stable(men_prefs, wrank, ranks):
    pairs = blocking_pairs(men_prefs, wrank, ranks)
    expect(not pairs, f"{len(pairs)} blocking pairs, first {pairs[:1]}")


# --- markets -----------------------------------------------------------------


def check_clearing_output(valuations, cap, prices, assignment):
    """A printed `market clear` result: prices in range with min 0, and a
    matching that is a permutation giving every buyer an item it demands."""
    n = len(valuations)
    expect(len(prices) == n, f"{len(prices)} prices, want {n}")
    expect(all(0 <= p <= cap for p in prices), "price outside 0..cap")
    expect(min(prices) == 0, f"minimum price {min(prices)} is not 0")
    expect(len(assignment) == n, f"{len(assignment)} buyers matched, want {n}")
    expect(sorted(assignment) == list(range(n)), "matching is not a permutation")
    for i, row in enumerate(valuations):
        best = max(v - p for v, p in zip(row, prices))
        j = assignment[i]
        expect(row[j] - prices[j] == best, f"buyer {i} does not demand item {j}")


def parse_matching(line):
    """'matching: 0-2 1-0 2-1' -> (2, 0, 1), buyers required in order."""
    head, _, body = line.partition(": ")
    expect(head == "matching", f"expected a matching line, got {line!r}")
    items = []
    for i, token in enumerate(body.split()):
        buyer, _, item = token.partition("-")
        expect(buyer == str(i) and item.isdigit(), f"bad matching entry {token!r}")
        items.append(int(item))
    return tuple(items)


# --- vector sets -------------------------------------------------------------


def check_violation(members, x, y, op):
    """The reported pair is in the set and its meet or join is not."""
    expect(x in members and y in members, "violating pair is not from the input")
    expect(op in ("meet", "join"), f"unknown operation {op!r}")
    pick = min if op == "meet" else max
    expect(tuple(map(pick, x, y)) not in members, f"{op} of the pair is in the set")
