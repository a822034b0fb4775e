"""Coordinatewise order statistics of lattice elements, and regularity checks.

Given k count vectors drawn from a finite distributive lattice, the j-th
median takes in every coordinate the j-th smallest of the k values there.
When the vectors all satisfy a predicate whose satisfying set is closed
under meet and join, every median satisfies it too; `check_median_theorem`
verifies that statement empirically for a concrete satisfying set.
"""

from __future__ import annotations

import random
from itertools import combinations, zip_longest
from operator import le

from .errors import JOutOfRange, NotRegular
from .order_core import format_vector, join, meet, vector_family

EXHAUSTIVE_BOUND = 12
THEOREM_K_MAX = 5
THEOREM_TRIALS = 20


def generalized_medians(vectors):
    """All k medians of a k-element family, ascending in j.

    The j-th output (1-indexed) has in coordinate r the j-th smallest value
    among the inputs' r-th coordinates. Duplicates are kept: the family is
    a multiset. The first output is the meet of all inputs, the last their
    join, and the outputs form a chain.
    """
    return _medians(vector_family(vectors))


def _medians(vs):
    # generalized_medians of a nonempty family of tuples of one length
    if not vs[0]:
        return [()] * len(vs)
    return list(zip(*map(sorted, zip(*vs))))


def medians_via_meet_join(vectors):
    """Same family as generalized_medians, via whole-element meets and joins.

    Runs the insertion sorting network once, each comparator replacing an
    adjacent pair (x, y) by (meet(x, y), join(x, y)). A comparator acts as
    (min, max) in every coordinate and a sorting network sorts any input,
    so the one pass sorts every coordinate at once.
    """
    work = vector_family(vectors)
    for t in range(1, len(work)):
        for i in range(t - 1, -1, -1):
            x, y = work[i], work[i + 1]
            work[i], work[i + 1] = meet(x, y), join(x, y)
    return work


def median_invariant_failures(inputs, medians):
    """Internal consistency of a median family, as failure strings.

    Checks per-coordinate multiset preservation and the ascending chain
    property; empty result means both hold.
    """
    failures = []
    columns = zip_longest(map(sorted, zip(*medians)), map(sorted, zip(*inputs)),
                          fillvalue=[])
    for r, (got, want) in enumerate(columns):
        if got != want:
            failures.append(f"coordinate {r}: multiset {got} != {want}")
    for a, b in zip(medians, medians[1:]):
        if not all(map(le, a, b)):
            failures.append(
                f"chain broken: {format_vector(a)} !<= {format_vector(b)}"
            )
    return failures


def check_regular(elements):
    """The first pair whose meet or join leaves the set, or None if closed.

    A violation is returned as (x, y, "meet" | "join"). When `elements` is
    the complete satisfying set of a predicate, None decides that the
    predicate is regular. Pairs are scanned in input order, meet before join,
    after one shape check: mixed lengths are refused, an empty set is closed.
    """
    vs = [tuple(v) for v in elements]
    members = set(vector_family(vs)) if vs else set()
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if meet(a, b) not in members:
                return a, b, "meet"
            if join(a, b) not in members:
                return a, b, "join"
    return None


def check_median_theorem(satisfying, rng_seed=42):
    """Verify that medians of subsets of a regular set stay in the set.

    Requires `satisfying` to be closed under meet and join (NotRegular
    otherwise, since nothing is guaranteed then). Sets of at most
    EXHAUSTIVE_BOUND elements are checked over every subset of size <=
    THEOREM_K_MAX; larger ones over THEOREM_TRIALS sampled subsets, from a
    generator seeded with rng_seed. Returns the violations, (family, j,
    median) triples, sorted; empty when every median stays in the set.
    """
    vs = [tuple(v) for v in satisfying]
    violation = check_regular(vs)
    if violation is not None:
        x, y, op = violation
        raise NotRegular(
            f"set not closed under {op} of {format_vector(x)} and {format_vector(y)}"
        )
    members = set(vs)
    k_max = min(THEOREM_K_MAX, len(vs))
    if len(vs) <= EXHAUSTIVE_BOUND:
        families = (sub for k in range(1, k_max + 1) for sub in combinations(vs, k))
    else:
        rng = random.Random(rng_seed)
        families = (tuple(rng.sample(vs, rng.randint(1, k_max))) for _ in range(THEOREM_TRIALS))
    return tuple(sorted(
        (family, j, g)
        for family in families
        for j, g in enumerate(_medians(family), start=1)
        if g not in members
    ))


def checked_median(family, j, is_member, refuse):
    """j-th (1-indexed) median of a multiset of members, checked on the way out.

    The first input failing `is_member` raises `refuse(input)`. The median
    must pass `is_member` too, which the median theorem guarantees when the
    members form a sublattice, so a failing median is an AssertionError.
    """
    vs = [tuple(x) for x in family]
    for x in vs:
        if not is_member(x):
            raise refuse(x)
    if not 1 <= j <= len(vs):
        raise JOutOfRange(f"j={j} outside 1..{len(vs)}")
    g = generalized_medians(vs)[j - 1]
    if not is_member(g):
        raise AssertionError(f"median j={j} of {vs} is not a member: {g}")
    return g
