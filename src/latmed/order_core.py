"""Finite posets, chain partitions, order ideals, and explicit lattices.

Elements of a finite distributive lattice are encoded as vectors of
per-chain prefix counts over a chain partition of its poset of
join-irreducibles (Birkhoff representation). Count vectors are plain
tuples of ints throughout; meet and join are componentwise min and max.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import bipartite
from .errors import (
    CycleDetected,
    NotALattice,
    NotAnIdeal,
    NotDistributive,
    OutOfBounds,
    ShapeMismatch,
    TooLarge,
    UnknownLabel,
)

IDEAL_ENUM_BOUND = 20


# ---------------------------------------------------------------------------
# count vectors


def meet(u, v):
    """Componentwise minimum (set intersection of the encoded ideals)."""
    _check_shape(u, v)
    return tuple(min(a, b) for a, b in zip(u, v))


def join(u, v):
    """Componentwise maximum (set union of the encoded ideals)."""
    _check_shape(u, v)
    return tuple(max(a, b) for a, b in zip(u, v))


def vec_leq(u, v):
    """Componentwise order: u <= v in the lattice of count vectors."""
    _check_shape(u, v)
    return all(a <= b for a, b in zip(u, v))


def _check_shape(u, v):
    if len(u) != len(v):
        raise ShapeMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")


def format_vector(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def parse_vector(text: str):
    """Parse '(c1,c2,...)' into a tuple of nonnegative ints."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise OutOfBounds(f"vector must be parenthesized: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    parts = [p.strip() for p in body.split(",")]
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError:
        raise OutOfBounds(f"non-integer component in {text!r}") from None
    if any(c < 0 for c in counts):
        raise OutOfBounds(f"negative component in {text!r}")
    return counts


# ---------------------------------------------------------------------------
# posets


@dataclass(frozen=True)
class Poset:
    """Finite partial order over opaque labels.

    `relation` is the reflexive-transitive closure of `covers`; use the
    factory `poset_from_covers` which computes and validates it.
    """

    elements: tuple
    covers: tuple
    relation: frozenset

    def leq(self, a, b) -> bool:
        return (a, b) in self.relation

    def __len__(self):
        return len(self.elements)

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def lower_covers(self):
        lc = {x: [] for x in self.elements}
        for lo, hi in self.covers:
            lc[hi].append(lo)
        return {x: tuple(v) for x, v in lc.items()}

    @cached_property
    def linear_extension(self):
        """Elements ordered so that smaller elements come first."""
        below = {x: sum(1 for y in self.elements if y != x and self.leq(y, x))
                 for x in self.elements}
        return tuple(sorted(self.elements, key=lambda x: (below[x], self.index[x])))


def poset_from_covers(elements, covers) -> Poset:
    """Build a Poset from cover pairs, computing the transitive closure.

    Rejects duplicate labels, pairs mentioning unknown labels, and cyclic
    cover relations.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise UnknownLabel("duplicate element labels")
    known = set(elements)
    covers = tuple(tuple(p) for p in covers)
    for lo, hi in covers:
        if lo not in known or hi not in known:
            raise UnknownLabel(f"cover ({lo}, {hi}) mentions unknown label")
        if lo == hi:
            raise CycleDetected(f"self-loop on {lo}")

    n = len(elements)
    idx = {x: i for i, x in enumerate(elements)}
    reach = [[False] * n for _ in range(n)]
    for lo, hi in covers:
        reach[idx[lo]][idx[hi]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    for i in range(n):
        if reach[i][i]:
            raise CycleDetected(f"cycle through {elements[i]}")

    relation = frozenset(
        (elements[i], elements[j])
        for i in range(n)
        for j in range(n)
        if reach[i][j] or i == j
    )
    order = sorted(set(covers), key=lambda p: (idx[p[0]], idx[p[1]]))
    return Poset(elements=elements, covers=tuple(order), relation=relation)


# ---------------------------------------------------------------------------
# chain partitions


@dataclass(frozen=True)
class ChainPartition:
    """Partition of a poset into chains, each listed ascending."""

    chains: tuple

    @cached_property
    def chain_of(self):
        return {
            x: (i, d) for i, chain in enumerate(self.chains) for d, x in enumerate(chain)
        }

    def lengths(self):
        return tuple(len(c) for c in self.chains)


def chain_partition(poset: Poset) -> ChainPartition:
    """Minimum chain partition via maximum matching on strict comparability.

    Standard Dilworth construction: split every element into a left and a
    right copy, connect u -> v whenever u < v strictly, take a maximum
    matching and read chains off the matched successor links. The number
    of chains equals n - |matching|, which is the maximum antichain size.
    Deterministic: vertices and adjacency follow the input label order.
    """
    n = len(poset.elements)
    idx = poset.index
    adj = [
        [idx[y] for y in poset.elements if x != y and poset.leq(x, y)]
        for x in poset.elements
    ]
    match_l, match_r = bipartite.max_matching(n, n, adj)

    chains = []
    for i, x in enumerate(poset.elements):
        if match_r[i] != -1:
            continue  # not a chain head: something links down to x
        chain = [x]
        j = match_l[i]
        while j != -1:
            chain.append(poset.elements[j])
            j = match_l[j]
        chains.append(tuple(chain))
    return ChainPartition(chains=tuple(chains))


# ---------------------------------------------------------------------------
# ideals <-> vectors


def ideal_to_vector(poset: Poset, cp: ChainPartition, ideal):
    """Encode a downward-closed element set as per-chain prefix counts."""
    members = set(ideal)
    for x in members:
        if x not in poset.index:
            raise UnknownLabel(f"ideal mentions unknown label {x}")
    for x in members:
        for lo in poset.lower_covers[x]:
            if lo not in members:
                raise NotAnIdeal(f"{x} present without lower cover {lo}")
    counts = [0] * len(cp.chains)
    for x in members:
        counts[cp.chain_of[x][0]] += 1
    return tuple(counts)


def vector_to_ideal(poset: Poset, cp: ChainPartition, v):
    """Decode per-chain prefix counts back to the element set."""
    if len(v) != len(cp.chains):
        raise ShapeMismatch(
            f"vector has {len(v)} components for {len(cp.chains)} chains"
        )
    for c, chain in zip(v, cp.chains):
        if not 0 <= c <= len(chain):
            raise OutOfBounds(f"count {c} outside [0, {len(chain)}]")
    members = set()
    for c, chain in zip(v, cp.chains):
        members.update(chain[:c])
    for x in members:
        for lo in poset.lower_covers[x]:
            if lo not in members:
                raise NotAnIdeal(f"{format_vector(v)} does not encode an ideal")
    return members


def all_ideals(poset: Poset, cp: ChainPartition, bound: int = IDEAL_ENUM_BOUND):
    """All order ideals as count vectors, ascending lexicographically.

    Elements are scanned along a linear extension; an element may be
    included only once all of its lower covers are in, which yields every
    downward-closed set exactly once.
    """
    if len(poset.elements) > bound:
        raise TooLarge(f"{len(poset.elements)} elements exceeds bound {bound}")
    order = poset.linear_extension
    lower = poset.lower_covers
    chain_of = cp.chain_of
    k = len(cp.chains)
    out = []
    included = set()
    counts = [0] * k

    def rec(i):
        if i == len(order):
            out.append(tuple(counts))
            return
        x = order[i]
        rec(i + 1)
        if all(lo in included for lo in lower[x]):
            included.add(x)
            counts[chain_of[x][0]] += 1
            rec(i + 1)
            counts[chain_of[x][0]] -= 1
            included.remove(x)

    rec(0)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# explicit lattices


@dataclass(frozen=True)
class ExplicitLattice:
    """Finite distributive lattice given by its full order relation.

    Construction validates that every pair has a unique meet and join and
    that the lattice is distributive.
    """

    elements: tuple
    relation: frozenset

    def leq(self, a, b) -> bool:
        return (a, b) in self.relation

    def __len__(self):
        return len(self.elements)

    @cached_property
    def _down_masks(self):
        """Per-element bitmask of the elements at or below it."""
        idx = {x: i for i, x in enumerate(self.elements)}
        down = [0] * len(self.elements)
        for a, b in self.relation:
            down[idx[b]] |= 1 << idx[a]
        return down

    @cached_property
    def meet_table(self):
        return _bound_table(self, lower=True)

    @cached_property
    def join_table(self):
        return _bound_table(self, lower=False)

    def meet_of(self, a, b):
        return self.meet_table[(a, b)]

    def join_of(self, a, b):
        return self.join_table[(a, b)]


def _bound_table(lat, lower):
    # In a lattice the down-set of meet(a, b) is exactly down(a) & down(b),
    # so unique bounds can be read off a mask -> element index.
    n = len(lat.elements)
    down = lat._down_masks
    if lower:
        masks = down
    else:
        masks = [0] * n
        for i in range(n):
            for j in range(n):
                if down[j] >> i & 1:
                    masks[i] |= 1 << j
    by_mask = {m: i for i, m in enumerate(masks)}
    table = {}
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            k = by_mask.get(masks[i] & masks[j])
            if k is None:
                kind = "meet" if lower else "join"
                raise NotALattice(f"no unique {kind} for ({a}, {b})")
            table[(a, b)] = lat.elements[k]
    return table


def explicit_lattice(elements, leq_pairs) -> ExplicitLattice:
    """Validate a relation and build an ExplicitLattice from it."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise UnknownLabel("duplicate element labels")
    relation = frozenset(leq_pairs) | frozenset((x, x) for x in elements)
    known = set(elements)
    for a, b in relation:
        if a not in known or b not in known:
            raise UnknownLabel(f"relation mentions unknown label ({a}, {b})")
        if a != b and (b, a) in relation:
            raise CycleDetected(f"{a} and {b} are mutually comparable")
    lat = ExplicitLattice(elements=elements, relation=relation)
    idx = {x: i for i, x in enumerate(elements)}
    down = lat._down_masks
    for a, b in relation:
        if down[idx[a]] & ~down[idx[b]]:
            raise NotALattice(f"relation not transitive below ({a}, {b})")
    lat.meet_table  # forces unique-glb validation
    lat.join_table
    _check_distributive(lat)
    return lat


def lattice_from_vectors(vectors) -> ExplicitLattice:
    """ExplicitLattice over count vectors under the componentwise order."""
    vectors = [tuple(v) for v in vectors]
    pairs = [
        (u, v) for u, v in product(vectors, repeat=2) if vec_leq(u, v)
    ]
    return explicit_lattice(vectors, pairs)


def _irreducible_mask(down):
    """Bitmask of the join-irreducible elements, given every down mask.

    x has exactly one lower cover y precisely when the elements strictly
    below x have a greatest one, i.e. when down(x) without x is down(y).
    The bottom never qualifies: no element's down mask is empty.
    """
    downs = set(down)
    mask = 0
    for i, d in enumerate(down):
        if d ^ (1 << i) in downs:
            mask |= 1 << i
    return mask


def _check_distributive(lat):
    # Birkhoff: a finite lattice is distributive exactly when x -> J(x), the
    # join-irreducibles at or below x, turns every join into a union.
    down = lat._down_masks
    irr = _irreducible_mask(down)
    below = {x: down[i] & irr for i, x in enumerate(lat.elements)}
    for a in lat.elements:
        for b in lat.elements:
            if below[lat.join_of(a, b)] != below[a] | below[b]:
                raise NotDistributive(
                    f"join-irreducibles below {a} v {b} are not those below "
                    f"{a} or {b}"
                )


def join_irreducibles(lat: ExplicitLattice) -> Poset:
    """Sub-poset of elements with exactly one lower cover in the lattice."""
    down = lat._down_masks
    irr = _irreducible_mask(down)
    members = [i for i in range(len(down)) if irr >> i & 1]
    covers = []
    for y in members:
        below = (down[y] & irr) ^ (1 << y)
        # an irreducible below y is a lower cover of y in the sub-poset
        # unless another irreducible below y lies above it
        shadowed = 0
        for x in members:
            if below >> x & 1:
                shadowed |= down[x] ^ (1 << x)
        covers += [
            (lat.elements[x], lat.elements[y])
            for x in members
            if (below & ~shadowed) >> x & 1
        ]
    return poset_from_covers([lat.elements[i] for i in members], covers)


def birkhoff_round_trip(lat: ExplicitLattice):
    """Map every element to the set of join-irreducibles at or below it.

    Verifies the map is an order isomorphism onto the order ideals of the
    join-irreducible sub-poset and returns (sub-poset, mapping).
    """
    jp = join_irreducibles(lat)
    cp = chain_partition(jp)
    mapping = {
        x: frozenset(j for j in jp.elements if lat.leq(j, x)) for x in lat.elements
    }
    images = sorted(ideal_to_vector(jp, cp, s) for s in mapping.values())
    if images != all_ideals(jp, cp, bound=max(IDEAL_ENUM_BOUND, len(jp.elements))):
        raise NotALattice("element-to-ideal map is not a bijection onto the ideals")
    for a in lat.elements:
        for b in lat.elements:
            if lat.leq(a, b) != (mapping[a] <= mapping[b]):
                raise NotALattice(f"order not preserved between {a} and {b}")
    return jp, mapping
