"""Stable marriage instances, deferred acceptance, and median matchings.

A matching is carried as a rank vector: entry i is the position of man
i's partner in his preference list, 0 meaning his top choice. Under
componentwise comparison of rank vectors (smaller = every man at least
as well off) the stable matchings form a distributive lattice, so the
coordinatewise median construction applies to them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IndexOutOfRange,
    NotAPermutation,
    NotStableInput,
    RankOutOfRange,
    SizeMismatch,
)
from .lattice_median import checked_median
from .order_core import check_enum_limit, parse_rows


@dataclass(frozen=True)
class SMPInstance:
    """Preference lists for n men and n women, each a permutation of 0..n-1."""

    n: int
    men_prefs: tuple
    women_prefs: tuple

    @cached_property
    def men_rank(self):
        # men_rank[m][w] = position of woman w in man m's list
        return tuple(_rank_row(row) for row in self.men_prefs)

    @cached_property
    def women_rank(self):
        return tuple(_rank_row(row) for row in self.women_prefs)


def _rank_row(row):
    rank = [0] * len(row)
    for pos, other in enumerate(row):
        rank[other] = pos
    return tuple(rank)


def smp_instance(men_prefs, women_prefs):
    men = tuple(tuple(row) for row in men_prefs)
    women = tuple(tuple(row) for row in women_prefs)
    n = len(men)
    if len(women) != n:
        raise SizeMismatch(f"{n} men but {len(women)} women")
    full = set(range(n))
    for side, rows in (("man", men), ("woman", women)):
        for i, row in enumerate(rows):
            if len(row) != n or set(row) != full:
                raise NotAPermutation(
                    f"{side} {i}: {list(row)} is not a permutation of 0..{n - 1}"
                )
    return SMPInstance(n=n, men_prefs=men, women_prefs=women)


def parse_instance(text):
    """Read the `smp <n>` text format. Returns the instance and the text its
    digest is taken over: the text itself when it is byte for byte what
    serialize_instance prints, else that serialization."""
    _, (men, women), written = parse_rows(text, "smp", (), ("man", "woman"), "preference",
                                          "entries")
    inst = smp_instance(men, women)
    return inst, text if written else serialize_instance(inst)


def serialize_instance(inst):
    # every list entry is an index below n, so each is formatted once
    names = [str(i) for i in range(inst.n)]
    lines = [f"smp {inst.n}"]
    for i, row in enumerate(inst.men_prefs):
        lines.append(f"man {i}: " + " ".join(map(names.__getitem__, row)))
    for i, row in enumerate(inst.women_prefs):
        lines.append(f"woman {i}: " + " ".join(map(names.__getitem__, row)))
    return "\n".join(lines) + "\n"


def woman_of(inst, assignment, i):
    """Partner of man i under a rank vector."""
    if i < 0 or i >= inst.n:
        raise IndexOutOfRange(f"man {i} outside 0..{inst.n - 1}")
    r = assignment[i]
    if r < 0 or r >= inst.n:
        raise RankOutOfRange(f"rank {r} for man {i} outside 0..{inst.n - 1}")
    return inst.men_prefs[i][r]


@dataclass(frozen=True)
class StabilityReport:
    is_matching: bool
    blocking: tuple  # (man, woman) pairs in lex order

    @property
    def stable(self):
        return self.is_matching and not self.blocking


def stability_report(inst, assignment):
    """Check a rank vector for matching-ness and blocking pairs.

    A pair (m, w) blocks when m strictly prefers w to his partner and w
    strictly prefers m to hers. Blocking pairs are only meaningful for
    genuine matchings, so they are not computed otherwise. Each man's
    list is read only down to his partner, so the work is n plus the sum
    of the ranks.
    """
    n = inst.n
    if len(assignment) != n:
        raise SizeMismatch(f"expected {n} ranks, got {len(assignment)}")
    husband = [-1] * n
    for m in range(n):
        husband[woman_of(inst, assignment, m)] = m
    if -1 in husband:  # n men filled fewer than n women
        return StabilityReport(is_matching=False, blocking=())
    women_rank = inst.women_rank
    blocking = sorted(
        (m, w)
        for m, prefs in enumerate(inst.men_prefs)
        for w in prefs[:assignment[m]]
        if women_rank[w][m] < women_rank[w][husband[w]]
    )
    return StabilityReport(is_matching=True, blocking=tuple(blocking))


def gale_shapley(inst, proposing_side="men"):
    """Deferred acceptance; returns a rank vector.

    Men proposing yields the matching where every man does as well as in
    any stable matching (the componentwise minimum rank vector); women
    proposing yields the componentwise maximum.
    """
    if proposing_side == "men":
        prefs, rank = inst.men_prefs, inst.women_rank
    elif proposing_side == "women":
        prefs, rank = inst.women_prefs, inst.men_rank
    else:
        raise ValueError(f"proposing_side must be 'men' or 'women', got {proposing_side!r}")
    n = inst.n
    next_choice = [0] * n
    holds = [-1] * n  # responder -> proposer currently held
    free = list(range(n - 1, -1, -1))
    while free:
        p = free.pop()
        r = prefs[p][next_choice[p]]
        next_choice[p] += 1
        held = holds[r]
        if held == -1:
            holds[r] = p
        elif rank[r][p] < rank[r][held]:
            holds[r] = p
            free.append(held)
        else:
            free.append(p)
    if proposing_side == "men":
        # a man is held by the last woman he proposed to
        return tuple(c - 1 for c in next_choice)
    return tuple(inst.men_rank[m][holds[m]] for m in range(n))


def all_stable_matchings(inst):
    """Every stable matching as a rank vector, in lexicographic order.

    Walks up the lattice from the men-optimal matching (Irving and
    Leather 1986). In a stable matching, each man's candidate is the first
    woman below his wife who prefers him to her husband. The cycles of
    "man -> his candidate's husband" are the rotations exposed in the
    matching, and moving every man on one cycle to his candidate gives a
    stable matching that covers it; every stable matching is reached this
    way. Refuses instances with more than ENUM_LIMIT stable matchings.
    """
    n, men_prefs, women_rank = inst.n, inst.men_prefs, inst.women_rank
    start = gale_shapley(inst)
    found = {start}
    stack = [start]
    while stack:
        check_enum_limit(len(found), "stable matchings")
        ranks = stack.pop()
        husband = [0] * n
        for m, r in enumerate(ranks):
            husband[men_prefs[m][r]] = m
        cand = [None] * n  # rank of each man's candidate
        for m, r in enumerate(ranks):
            prefs = men_prefs[m]
            for s in range(r + 1, n):
                w = prefs[s]
                if women_rank[w][m] < women_rank[w][husband[w]]:
                    cand[m] = s
                    break
        # follow the partial function from each man; a walk that comes back
        # to a man it marked has found a cycle through him
        mark = [-1] * n
        for first in range(n):
            m = first
            while mark[m] == -1 and cand[m] is not None:
                mark[m] = first
                m = husband[men_prefs[m][cand[m]]]
            if mark[m] != first:
                continue
            cover = list(ranks)
            while cover[m] == ranks[m]:
                cover[m] = cand[m]
                m = husband[men_prefs[m][cand[m]]]
            cover = tuple(cover)
            if cover not in found:
                found.add(cover)
                stack.append(cover)
    return sorted(found)


def median_stable(inst, matchings, j):
    """j-th (1-indexed) median of stable rank vectors, checked to be stable."""
    return checked_median(
        matchings, j, lambda g: stability_report(inst, g).stable,
        lambda g: NotStableInput(f"{g} is not a stable matching"),
    )


def regret_le(i, j):
    """Predicate: man i's rank is at most man j's."""

    def pred(assignment):
        n = len(assignment)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"indices ({i}, {j}) outside 0..{n - 1}")
        return assignment[i] <= assignment[j]

    return pred


def forbids(inst, m, w):
    """Predicate: man m is not matched to woman w."""
    if not (0 <= m < inst.n and 0 <= w < inst.n):
        raise IndexOutOfRange(f"pair ({m}, {w}) outside 0..{inst.n - 1}")

    def pred(assignment):
        return woman_of(inst, assignment, m) != w

    return pred


def conjoin(*predicates):
    def pred(assignment):
        return all(p(assignment) for p in predicates)

    return pred
