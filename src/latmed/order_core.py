"""Finite posets, chain partitions, order ideals, and explicit lattices.

Elements of a finite distributive lattice are encoded as vectors of
per-chain prefix counts over a chain partition of its poset of
join-irreducibles (Birkhoff representation). `birkhoff_round_trip`
checks that representation, which holds exactly when a poset is a
distributive lattice; nothing else here checks that. Count vectors are plain
tuples of ints throughout. Componentwise min and max are the meet and
join of count vectors, not of every explicit lattice: one given as
indicator vectors, or the square (0,0) < (1,2), (2,1) < (2,2), has its
own meets and joins, read off its masks (there the meet of (1,2) and
(2,1) is (0,0), not the componentwise (1,1), which is no element).

Values are immutable once built, and all operations are pure functions,
so values can be shared freely across threads. A Poset computes `index`,
`up` and its Birkhoff decomposition on first use and caches each; they
are equal whichever thread computes them.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import pairwise
from operator import or_

from . import bipartite
from .errors import (
    CycleDetected,
    EmptyInput,
    MalformedFile,
    NotALattice,
    OutOfBounds,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
    UnknownLabel,
)

ENUM_LIMIT = 10_000  # the most outputs any enumeration lists


def check_enum_limit(count, noun):
    """Refuse an enumeration once `count` (its outputs, or its set-up's
    size) exceeds ENUM_LIMIT."""
    if count > ENUM_LIMIT:
        raise TooLarge(f"more than {ENUM_LIMIT} {noun}")


# ---------------------------------------------------------------------------
# count vectors


def meet(u, v):
    """Componentwise minimum (set intersection of the encoded ideals)."""
    _check_shape(u, v)
    return tuple(map(min, u, v))


def join(u, v):
    """Componentwise maximum (set union of the encoded ideals)."""
    _check_shape(u, v)
    return tuple(map(max, u, v))


def _check_shape(u, v):
    if len(u) != len(v):
        raise ShapeMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")


def vector_family(vectors):
    """The vectors as a list of tuples; refused if empty or of mixed length."""
    vs = [tuple(v) for v in vectors]
    if not vs:
        raise EmptyInput("need at least one vector")
    for v in vs[1:]:
        _check_shape(vs[0], v)
    return vs


def format_vector(v) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _int_refusal(noun, quoted, tokens, other=None):
    """The message for int() refusing one of `tokens`, read from `quoted`.
    The first token it refuses is a decimal integer with more digits than
    int() converts (sys.get_int_max_str_digits()), whose message names that
    cause and quotes only a prefix of `quoted`, or no integer, whose message
    is `other`, by default 'non-integer <noun> in <quoted>'."""
    for t in tokens:
        try:
            int(t)
        except ValueError:
            if re.fullmatch(r"[+-]?\d+(?:_\d+)*", t):
                limit = sys.get_int_max_str_digits()
                return f"{noun} with more than {limit} digits in {quoted[:40]!r}..."
            break
    return other or f"non-integer {noun} in {quoted!r}"


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
        raise OutOfBounds(_int_refusal("component", text, parts)) from None
    if any(c < 0 for c in counts):
        raise OutOfBounds(f"negative component in {text!r}")
    return counts


# The texts the writers print: each integer in its shortest ASCII spelling,
# one space between tokens, every optional header integer present and every
# line ending in "\n". A row's values are matched as one run of digits and
# spaces, so no repeat nests in another: without possessive repeats (Python
# 3.11) the matcher would keep a backtracking frame per value. The run's
# doubled and trailing spaces are ruled out by scans of the whole text, which
# run first and refuse most other spellings before the match. The JSON decode
# refuses leading zeros; the checks after it cover counts, indices and lengths.
_INT = r"(?:0|[1-9][0-9]*)"


def _written_lines(kind, extras, labels):
    return re.compile(rf"{kind} [1-9][0-9]*{f' {_INT}' * extras}\n" + "".join(
        rf"(?:{label} {_INT}: [0-9][0-9 ]*\n)+" for label in labels))


def parse_rows(text, kind, optional, labels, noun, row_noun):
    """Read a line-oriented instance file: the header `<kind> <n>`, then
    up to len(optional) integers named by `optional`, then for each label
    in `labels` the n rows `<label> <i>: <n integers>`, i = 0..n-1.

    A text as its writer prints it is decoded whole. Any other is read line
    by line, blank lines skipped, each row checked for its label and index,
    then for integers (`noun` names one in the message), then for its length
    (`row_noun` names them), before the next row. Returns the header's
    optional integers, one list of tuple rows per label, and whether the
    text was decoded whole.
    """
    if "  " not in text and " \n" not in text and _written_lines(
            kind, len(optional), labels).fullmatch(text):
        start = text.index("\n")
        body = text[start:-1]
        for label in labels:  # the pattern keeps a label's rows together; the first opens them
            body = body.replace(f"\n{label} ", "]],[[", 1).replace(f"\n{label} ", "],[")
        with suppress(ValueError):  # a leading zero, or more digits than int() reads
            n, *extras = map(int, text[:start].split()[1:])
            # "]],[[0: 5 7],[1: 2 9]],[[0: 1 2" becomes [[[0,5,7],[1,2,9]],[[0,1,2]]]
            groups = json.loads("[" + body[3:].replace(":", "").replace(" ", ",") + "]]]")
            if all(len(g) == n and all(len(r) == n + 1 and r[0] == i for i, r in enumerate(g))
                   for g in groups):
                return extras, [[tuple(r[1:]) for r in g] for g in groups], True
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    if not lines or not lines[0].startswith(kind + " "):
        spec = " ".join([kind, "<n>", *(f"[{name}]" for name in optional)])
        raise MalformedFile(f"expected header '{spec}'")
    header, bad = lines[0].split()[1:], f"bad header {lines[0]!r}"
    try:
        n, *extras = map(int, header)
    except ValueError:
        raise MalformedFile(_int_refusal("header integer", lines[0], header, bad)) from None
    if len(extras) > len(optional):
        raise MalformedFile(bad)
    if n < 1:
        raise MalformedFile(f"instance size must be positive, got {n}")
    if len(lines) != 1 + len(labels) * n:
        raise MalformedFile(f"expected {1 + len(labels) * n} lines, got {len(lines)}")
    rows = []
    for x, line in enumerate(lines[1:]):
        label, i = labels[x // n], x % n
        head, sep, rest = line.partition(":")
        if not sep or head.split() != [label, str(i)]:
            raise MalformedFile(f"expected '{label} {i}: ...', got {line!r}")
        try:
            row = tuple(map(int, rest.split()))
        except ValueError:
            raise MalformedFile(_int_refusal(noun, line, rest.split())) from None
        if len(row) != n:
            raise SizeMismatch(f"{label} {i}: expected {n} {row_noun}, got {len(row)}")
        rows.append(row)
    return extras, [rows[k * n:(k + 1) * n] for k in range(len(labels))], False


# ---------------------------------------------------------------------------
# posets


def _bits(mask):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    """Finite partial order over opaque labels, stored as down-set bitmasks.

    Bit j of `down[i]` is set exactly when elements[j] <= elements[i], so
    every mask holds its own bit. It has two builders: `poset_from_covers`
    from cover pairs, and `explicit_lattice` from distinct count vectors.
    Neither checks for a lattice; `birkhoff_round_trip` decides whether the
    order is a distributive one. Everything else is read off the masks.
    """

    elements: tuple
    down: tuple

    @cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def up(self):
        """Per-element bitmask of the elements at or above it."""
        up = [0] * len(self.down)
        for i, d in enumerate(self.down):
            for j in _bits(d):
                up[j] |= 1 << i
        return tuple(up)

    @cached_property
    def irreducible_images(self):
        """The join-irreducibles' indices, ascending, and per element its
        Birkhoff image: the mask of the irreducibles at or below it, with bit
        k standing for the k-th irreducible.

        x is join-irreducible exactly when the elements strictly below x have
        a greatest one y, i.e. when down(x) without x is down(y); a bottom
        never qualifies, as no down mask is empty.
        """
        downs = set(self.down)
        members = [i for i, d in enumerate(self.down) if d ^ (1 << i) in downs]
        images = [0] * len(self.down)
        for k, i in enumerate(members):
            images = [m | (d >> i & 1) << k for m, d in zip(images, self.down)]
        return tuple(members), tuple(images)


def poset_from_covers(elements, covers) -> Poset:
    """Build a Poset from cover pairs; redundant transitive pairs are fine.

    Down masks are accumulated in Kahn topological order, O(n + |covers|)
    mask unions. Rejects duplicate labels, pairs mentioning unknown
    labels, and cyclic cover relations.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise UnknownLabel("duplicate element labels")
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    above = [[] for _ in range(n)]
    pending = [0] * n  # lower covers not yet merged into down[i]
    for lo, hi in covers:
        if lo not in idx or hi not in idx:
            raise UnknownLabel(f"cover ({lo}, {hi}) mentions unknown label")
        if lo == hi:
            raise CycleDetected(f"self-loop on {lo}")
        above[idx[lo]].append(idx[hi])
        pending[idx[hi]] += 1

    down = [1 << i for i in range(n)]
    ready = [i for i in range(n) if not pending[i]]
    while ready:
        i = ready.pop()
        for j in above[i]:
            down[j] |= down[i]
            pending[j] -= 1
            if not pending[j]:
                ready.append(j)
    for i in range(n):
        if pending[i]:
            raise CycleDetected(
                f"cover relation has a cycle at or below {elements[i]}"
            )
    return Poset(elements=elements, down=tuple(down))


# ---------------------------------------------------------------------------
# chain partitions


def chain_partition(poset: Poset):
    """Minimum chain partition, as a tuple of chains each listed ascending.

    Standard Dilworth construction: split every element into a left and a
    right copy, connect u -> v whenever u < v strictly, take a maximum
    matching and read chains off the matched successor links. The number
    of chains equals n - |matching|, which is the maximum antichain size.
    Deterministic: vertices and adjacency follow the input label order.
    """
    n = len(poset.elements)
    adj = [list(_bits(u ^ (1 << i))) for i, u in enumerate(poset.up)]
    match_l, match_r, _ = bipartite.max_matching(n, n, adj)

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
    return tuple(chains)


# ---------------------------------------------------------------------------
# order ideals


def _ideal_masks(down, most=None):
    """Every down-set of the order given by `down` masks, as a mask, or
    None once there are more than `most`.

    Elements are added along a linear extension, each to every down-set
    found so far that holds all the elements strictly below it; a
    down-set arises once, when its last element in that order is added.
    Lists on the way hold down-sets of the whole order: both bounds, `most`
    and then ENUM_LIMIT, are exact.
    """
    ideals = [0]
    for i in sorted(range(len(down)), key=lambda i: (down[i].bit_count(), i)):
        strict = down[i] ^ (1 << i)
        ideals += [m | 1 << i for m in ideals if m & strict == strict]
        if most is not None and len(ideals) > most:
            return None
        check_enum_limit(len(ideals), "ideals")
    return ideals


def all_ideals(poset: Poset, chains):
    """All order ideals as count vectors, ascending lexicographically.

    A count vector holds, per chain of the partition `chains`, how many of
    the ideal's members lie on that chain. Refuses more than ENUM_LIMIT
    ideals.
    """
    idx = poset.index
    masks = [sum(1 << idx[x] for x in chain) for chain in chains]
    return sorted(
        tuple((m & c).bit_count() for c in masks) for m in _ideal_masks(poset.down)
    )


# ---------------------------------------------------------------------------
# explicit lattices


def explicit_lattice(vectors) -> Poset:
    """Distinct count vectors under the componentwise order, as a Poset.

    Any finite lattice can be given as the 0/1 indicator vectors of its
    elements' down-sets. The vectors need not form a lattice, let alone a
    distributive one: `birkhoff_round_trip` decides that. A down mask is the
    AND, over the d coordinates, of the masks of the vectors at most its own
    value there, built in one ascending sweep: O(d·n) mask operations.
    """
    vectors = tuple(vector_family(vectors))
    if len(set(vectors)) != len(vectors):
        raise NotALattice("duplicate vectors in the element list")
    down = [(1 << len(vectors)) - 1] * len(vectors)
    for column in zip(*vectors):
        at_most = dict.fromkeys(sorted(set(column)), 0)
        for i, x in enumerate(column):
            at_most[x] |= 1 << i
        for lo, hi in pairwise(at_most):
            at_most[hi] |= at_most[lo]
        down = [d & at_most[x] for d, x in zip(down, column)]
    return Poset(elements=vectors, down=tuple(down))


def join_irreducibles(poset: Poset) -> Poset:
    """Sub-poset of the elements with exactly one lower cover."""
    members, images = poset.irreducible_images
    return Poset(
        elements=tuple(poset.elements[i] for i in members),
        down=tuple(images[i] for i in members),
    )


def birkhoff_round_trip(poset: Poset):
    """Map every element to the set of join-irreducibles at or below it.

    Verifies the map is an order isomorphism onto the order ideals of the
    join-irreducible sub-poset, which holds exactly when the poset is a
    finite distributive lattice, and returns that sub-poset. Ideals are
    listed only while they are no more than the elements, so M14 (fourteen
    atoms) is refused at once. Each element's down mask must be the elements
    in no `holds[k]` (the elements whose image holds k) for a k outside its
    image; a refusal names the first pair that differs, in row-major order.
    """
    jp = join_irreducibles(poset)
    images = poset.irreducible_images[1]
    ideals = _ideal_masks(jp.down, len(images))
    if ideals is None or sorted(images) != sorted(ideals):
        raise NotALattice("element-to-ideal map is not a bijection onto the ideals")
    holds = [sum((m >> k & 1) << j for j, m in enumerate(images))
             for k in range(len(jp.elements))]
    els = poset.elements
    full, every = (1 << len(els)) - 1, (1 << len(holds)) - 1
    bad = [d ^ full ^ reduce(or_, (holds[k] for k in _bits(every ^ m)), 0)
           for d, m in zip(poset.down, images)]
    if any(bad):
        i = next(_bits(reduce(or_, bad)))
        j = next(j for j, b in enumerate(bad) if b >> i & 1)
        raise NotALattice(f"order not preserved between {els[i]} and {els[j]}")
    return jp
