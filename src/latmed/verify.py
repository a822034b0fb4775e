"""Randomized verification batteries for the median construction.

Every battery draws from a single seeded Mersenne Twister generator, so a
run is reproducible from (seed, config) alone. Each battery returns
PropertyResult rows; a row fails only with a concrete counterexample
string attached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product
from math import prod

from . import market_clearing as mc
from . import stable_matching as sm
from .errors import LatmedError, NotRegular, OutOfBounds
from .lattice_median import (
    check_median_theorem,
    generalized_medians,
    median_invariant_failures,
    medians_via_meet_join,
)
from .order_core import (
    all_ideals,
    birkhoff_round_trip,
    chain_partition,
    explicit_lattice,
    join,
    meet,
    poset_from_covers,
)

RNG_ALGORITHM = "mt19937"  # random.Random; stable across platforms and versions

WORKED_INPUTS = ((1, 0), (0, 1), (0, 2))
WORKED_MEDIANS = ((0, 0), (0, 1), (1, 2))


@dataclass(frozen=True)
class VerifyConfig:
    """Battery sizes of `repro verify`, derived from its four flags.

    `None` keeps the default. `instances` replaces the stable-matching
    instance count and scales the other batteries' counts by the same
    factor (at least 1 each); `trials` is the median subsets drawn per
    stable-matching instance alone, and 0 runs nothing (see verify_suite);
    `max_n` caps instance sizes, and can only lower the defaults. The repr
    (the digest source) and equality read the seed and the sizes only.
    """

    seed: int = 42
    instances: int | None = field(default=None, repr=False, compare=False)
    trials: int | None = field(default=None, repr=False, compare=False)
    max_n: int | None = field(default=None, repr=False, compare=False)
    smp_instances: int = field(default=200, init=False)
    smp_n_min: int = field(default=3, init=False)
    smp_n_max: int = field(default=7, init=False)
    subsets_per_instance: int = field(default=20, init=False)
    k_min: int = field(default=2, init=False)
    k_max: int = field(default=5, init=False)
    closure_pairs: int = field(default=10, init=False)
    median_families: int = field(default=1000, init=False)
    family_k_max: int = field(default=8, init=False)
    family_dim_max: int = field(default=10, init=False)
    family_coord_max: int = field(default=10, init=False)
    market_instances: int = field(default=100, init=False)
    market_n_min: int = field(default=2, init=False)
    market_n_max: int = field(default=4, init=False)
    market_max_valuation: int = field(default=4, init=False)
    market_subsets: int = field(default=10, init=False)
    constrained_instances: int = field(default=50, init=False)
    gate_trials: int = field(default=200, init=False)
    birkhoff_max_elements: int = field(default=50, init=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)  # the class is frozen

        if self.trials is not None:
            if self.trials < 0:
                raise OutOfBounds(f"trials must be nonnegative, got {self.trials}")
            put("subsets_per_instance", self.trials)
        if self.instances is not None:
            if self.instances < 0:
                raise OutOfBounds(f"instances must be nonnegative, got {self.instances}")
            scale = self.instances / self.smp_instances
            put("smp_instances", self.instances)
            for name in ("market_instances", "constrained_instances",
                         "median_families", "gate_trials"):
                put(name, max(1, round(getattr(self, name) * scale)))
        if self.max_n is not None:
            if self.max_n < 1:
                raise OutOfBounds(f"max_n must be positive, got {self.max_n}")
            put("smp_n_max", max(self.smp_n_min, min(self.max_n, self.smp_n_max)))
            put("market_n_max", max(self.market_n_min, min(self.max_n, self.market_n_max)))


@dataclass
class PropertyResult:
    """One verify row; the batteries fill it in as they check."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    gated: int = 0  # predicate sets rejected as not regular (expected path)

    @property
    def passed(self):
        return not self.failures


def random_smp_instance(rng, n):
    men = [rng.sample(range(n), n) for _ in range(n)]
    women = [rng.sample(range(n), n) for _ in range(n)]
    return sm.smp_instance(men, women)


def random_market_instance(rng, n, max_valuation):
    vals = [[rng.randint(0, max_valuation) for _ in range(n)] for _ in range(n)]
    return mc.market_instance(vals)


def _sample_family(rng, pool, k):
    # a true subset when the pool allows it, a multiset otherwise
    if len(pool) >= k:
        return rng.sample(pool, k)
    return [rng.choice(pool) for _ in range(k)]


def _note_medians(inv, inputs, medians):
    inv.checked += 1
    for msg in median_invariant_failures(inputs, medians):
        inv.failures.append(f"inputs {inputs}: {msg}")


def worked_example_battery():
    """The worked 2-coordinate example, via both implementations."""
    res = PropertyResult("paper-example", checked=1)
    direct = tuple(generalized_medians(WORKED_INPUTS))
    via_ops = tuple(medians_via_meet_join(WORKED_INPUTS))
    res.failures.extend(median_invariant_failures(WORKED_INPUTS, direct))
    if direct != WORKED_MEDIANS:
        res.failures.append(f"order-statistic medians gave {direct}")
    if via_ops != WORKED_MEDIANS:
        res.failures.append(f"meet/join medians gave {via_ops}")
    if meet((1, 0), (0, 1)) != (0, 0) or join((1, 0), (0, 2)) != (1, 2):
        res.failures.append("pairwise meet/join disagree with expected values")
    return res


def _lattice_checks(rng, cfg, inv, tag, members, is_member, subsets, rows, noun):
    """Meet/join closure of the members, and membership of their medians.

    `rows` are the closure and median counters. Each median must pass
    `is_member`, an oracle that does not enumerate, and also be one of the
    enumerated `members`. The pure oracle is memoized for this call alone, so
    each distinct median is judged once and each failing median reported.
    """
    closure, medians = rows
    is_member = cache(is_member)
    member_set = set(members)
    for _ in range(cfg.closure_pairs):
        closure.checked += 1
        a, b = rng.choice(members), rng.choice(members)
        if meet(a, b) not in member_set or join(a, b) not in member_set:
            closure.failures.append(f"{tag}: meet/join of {a}, {b} not {noun}")
    for _ in range(subsets):
        k = rng.randint(cfg.k_min, cfg.k_max)
        family = _sample_family(rng, members, k)
        meds = generalized_medians(family)
        _note_medians(inv, tuple(family), tuple(meds))
        for j, g in enumerate(meds, start=1):
            medians.checked += 1
            if not is_member(g) or g not in member_set:
                medians.failures.append(
                    f"{tag}: median j={j} of {family} gave {g}, not {noun}"
                )


def smp_battery(rng, cfg, inv):
    """Median stability, meet/join closure, and proposal-side extremes."""
    stab = PropertyResult("smp-median-stability")
    closure = PropertyResult("smp-meet-join-closure")
    extremes = PropertyResult("smp-proposal-extremes")
    for _ in range(cfg.smp_instances):
        n = rng.randint(cfg.smp_n_min, cfg.smp_n_max)
        inst = random_smp_instance(rng, n)
        stable = sm.all_stable_matchings(inst)
        tag = sm.serialize_instance(inst).replace("\n", "; ")

        extremes.checked += 1
        lo = sm.gale_shapley(inst, "men")
        hi = sm.gale_shapley(inst, "women")
        want_lo = tuple(min(c) for c in zip(*stable))
        want_hi = tuple(max(c) for c in zip(*stable))
        if lo != want_lo or lo not in stable:
            extremes.failures.append(f"{tag}: men-optimal {lo} != minimum {want_lo}")
        if hi != want_hi or hi not in stable:
            extremes.failures.append(f"{tag}: women-optimal {hi} != maximum {want_hi}")
        # the walk starts at the men's proposal result; walking the mirrored
        # instance up from the women's end must find the same set
        mirror = sm.smp_instance(inst.women_prefs, inst.men_prefs)
        mirrored = []
        for g in sm.all_stable_matchings(mirror):
            ranks = [0] * n
            for w in range(n):
                m = sm.woman_of(mirror, g, w)  # woman w's husband
                ranks[m] = inst.men_rank[m][w]
            mirrored.append(tuple(ranks))
        if sorted(mirrored) != stable:
            extremes.failures.append(f"{tag}: walk from the women's side found {mirrored}")

        _lattice_checks(
            rng, cfg, inv, tag, stable, lambda g: sm.stability_report(inst, g).stable,
            cfg.subsets_per_instance, (closure, stab), "stable",
        )
    return [stab, closure, extremes]


def vector_family_battery(rng, cfg, inv):
    """Order-statistic medians agree with the meet/join comparator network."""
    cross = PropertyResult("median-cross-implementation")
    for _ in range(cfg.median_families):
        k = rng.randint(1, cfg.family_k_max)
        dim = rng.randint(1, cfg.family_dim_max)
        family = [
            tuple(rng.randint(0, cfg.family_coord_max) for _ in range(dim))
            for _ in range(k)
        ]
        cross.checked += 1
        direct = generalized_medians(family)
        via_ops = medians_via_meet_join(family)
        if direct != via_ops:
            cross.failures.append(f"{family}: {direct} != {via_ops}")
        _note_medians(inv, tuple(family), tuple(direct))
    return cross


def market_battery(rng, cfg, inv):
    """Clearing-set closure, auction minimality, and clearing medians."""
    closure = PropertyResult("market-closure")
    minimum = PropertyResult("market-auction-minimum")
    medians = PropertyResult("market-median-clearing")
    for _ in range(cfg.market_instances):
        n = rng.randint(cfg.market_n_min, cfg.market_n_max)
        inst = random_market_instance(rng, n, cfg.market_max_valuation)
        tag = mc.serialize_market(inst).replace("\n", "; ")
        clearing = mc.enumerate_clearing_vectors(inst)

        minimum.checked += 1
        if not clearing:
            minimum.failures.append(f"{tag}: no clearing vector in the box")
            continue
        auction = mc.min_clearing_prices(inst)
        want = tuple(min(c) for c in zip(*clearing))
        if auction != want or want not in clearing:
            minimum.failures.append(f"{tag}: auction {auction} != minimum {want}")

        _lattice_checks(
            rng, cfg, inv, tag, clearing, lambda p: mc.is_market_clearing(inst, p),
            cfg.market_subsets, (closure, medians), "clearing",
        )
    return [closure, minimum, medians]


def block_swap_instance(blocks):
    """2x2 swap gadgets side by side: 2^blocks stable matchings, a cube.

    Within block b, the two men rank the block's women first in opposite
    orders and the women rank the men oppositely to that, so each block
    flips independently. Useful for predicates that are not closed under
    meet/join, which need incomparable stable matchings to show it.
    """
    n = 2 * blocks
    men, women = [], []
    for b in range(blocks):
        base = 2 * b
        rest_w = [w for w in range(n) if w not in (base, base + 1)]
        rest_m = [m for m in range(n) if m not in (base, base + 1)]
        men.append([base, base + 1] + rest_w)
        men.append([base + 1, base] + rest_w)
        women.append([base + 1, base] + rest_m)
        women.append([base, base + 1] + rest_m)
    return sm.smp_instance(men, women)


def _gate(res, tag, vectors, rng_seed):
    """Score check_median_theorem (seeded with `rng_seed`) on one set.

    Its gate must refuse exactly the sets not closed under meet and join,
    decided here from coordinatewise min and max rather than by
    check_regular, which is the gate; a set let through keeps its medians.
    """
    res.checked += 1
    members = set(vectors)
    regular = all(
        tuple(map(min, a, b)) in members and tuple(map(max, a, b)) in members
        for a, b in combinations(vectors, 2)
    )
    try:
        violations = check_median_theorem(vectors, rng_seed)
    except NotRegular:
        if regular:
            res.failures.append(f"{tag}: gate fired on a regular set")
        else:
            res.gated += 1
        return
    if not regular:
        res.failures.append(f"{tag}: gate missed an irregular set")
    for family, j, g in violations:
        res.failures.append(f"{tag}: median j={j} of {family} left the set: {g}")


def constrained_battery(rng, cfg):
    """Medians under side constraints, with the regularity gate.

    Regular satisfying sets must pass the median check; sets that are not
    closed under meet/join must be refused by the gate, and count as gated
    rather than failed. Random instances rarely produce irregular sets
    (small stable lattices are chains), so cube-shaped gadget instances
    are mixed in to force the gate path.
    """
    res = PropertyResult("smp-constrained-predicates")
    for blocks in (2, 3):
        inst = block_swap_instance(blocks)
        # the middle layer of the cube is never closed under meet
        satisfying = [g for g in sm.all_stable_matchings(inst) if sum(g) % 4 == 2]
        _gate(res, f"gadget blocks={blocks}", satisfying, cfg.seed)
    for _ in range(cfg.constrained_instances):
        n = rng.randint(cfg.smp_n_min, cfg.smp_n_max)
        inst = random_smp_instance(rng, n)
        a, b = rng.sample(range(n), 2)
        m, w = rng.randrange(n), rng.randrange(n)
        predicates = [
            ("regret-le", sm.regret_le(a, b)),
            ("forbids", sm.forbids(inst, m, w)),
            ("conjoin", sm.conjoin(sm.regret_le(a, b), sm.forbids(inst, m, w))),
            ("odd-parity", lambda g: sum(g) % 2 == 1),
        ]
        tag = sm.serialize_instance(inst).replace("\n", "; ")
        stable = sm.all_stable_matchings(inst)
        for label, pred in predicates:
            _gate(res, f"{tag}: {label}", [g for g in stable if pred(g)],
                  rng.randrange(1 << 30))
    return res


def _close(vectors, op):
    # adding v to a set closed under op keeps it closed once op(x, v) is
    # added for every member x, as (x op v) op (y op v) = (x op y) op v
    out = set()
    for v in vectors:
        out |= {op(x, v) for x in out}
        out.add(v)
    return out


def _close_under_ops(vectors):
    # the meet-closure of the join-closure J is also closed under join, as
    # (∧U) ∨ (∧V) = ∧{u ∨ v : u ∈ U, v ∈ V} and each u ∨ v is in J
    return sorted(_close(_close(vectors, join), meet))


def regularity_gate_battery(rng, trials):
    """check_median_theorem must refuse exactly the irregular sets.

    Random vector sets are usually not closed under meet/join; closing a
    third of them by hand supplies the regular side, so both outcomes of
    the gate are exercised.
    """
    res = PropertyResult("regularity-gate")
    for t in range(trials):
        dim = rng.randint(2, 4)
        raw = {
            tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(2, 6))
        }
        vectors = sorted(raw)
        if t % 3 == 0:
            vectors = _close_under_ops(vectors)
        _gate(res, vectors, vectors, rng.randrange(1 << 30))
    return res


def chain_product_lattices(max_elements):
    """Products of two and three chains, up to the element bound."""
    out = []
    for chains in (2, 3):
        top = max_elements // 2 ** (chains - 1)
        for sizes in product(range(2, top + 1), repeat=chains):
            if list(sizes) == sorted(sizes, reverse=True) and prod(sizes) <= max_elements:
                name = "chain-" + "x".join(map(str, sizes))
                out.append((name, explicit_lattice(product(*map(range, sizes)))))
    return out


def _ideal_lattice(elements, covers):
    poset = poset_from_covers(elements, covers)
    return explicit_lattice(all_ideals(poset, chain_partition(poset)))


def fixed_lattices():
    """Five handcrafted distributive lattices of varied shape."""
    return [
        ("ideals-of-n-poset", _ideal_lattice(
            ["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("c", "d")])),
        ("boolean-cube-3", explicit_lattice(product((0, 1), repeat=3))),
        ("divisors-of-60", explicit_lattice(sorted(  # exponents of 2, 3, 5, by divisor
            product(range(3), range(2), range(2)),
            key=lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2]))),
        ("ideals-of-fence-5", _ideal_lattice(
            ["v", "w", "x", "y", "z"],
            [("v", "w"), ("x", "w"), ("x", "y"), ("z", "y")])),
        ("boolean-cube-4", explicit_lattice(product((0, 1), repeat=4))),
    ]


def birkhoff_battery(max_elements):
    """Round-trip every catalog lattice through its join-irreducibles.

    A finite distributive lattice has as many join-irreducibles as its
    rank, the length of any maximal chain. Every cover in a catalog
    lattice raises one coordinate by one, so its rank is the largest
    coordinate sum minus the smallest, read off the vectors alone.
    """
    res = PropertyResult("birkhoff-round-trip")
    for name, lat in chain_product_lattices(max_elements) + fixed_lattices():
        res.checked += 1
        try:
            jp = birkhoff_round_trip(lat)
        except LatmedError as e:
            res.failures.append(f"{name}: {type(e).__name__}: {e}")
            continue
        sums = list(map(sum, lat.elements))
        rank = max(sums) - min(sums)
        if len(jp.elements) != rank:
            res.failures.append(f"{name}: {len(jp.elements)} join-irreducibles but rank {rank}")
    return res


def verify_suite(cfg=None):
    """Run every battery; an empty config (zero subsets) runs nothing."""
    cfg = cfg or VerifyConfig()
    if cfg.subsets_per_instance == 0:
        return []
    rng = random.Random(cfg.seed)
    # the smp, vector-family and market batteries check their medians here
    inv = PropertyResult("median-invariants")
    results = [worked_example_battery()]
    results.extend(smp_battery(rng, cfg, inv))
    results.append(vector_family_battery(rng, cfg, inv))
    results.extend(market_battery(rng, cfg, inv))
    results.append(constrained_battery(rng, cfg))
    results.append(regularity_gate_battery(rng, cfg.gate_trials))
    results.append(birkhoff_battery(cfg.birkhoff_max_elements))
    results.append(inv)
    return results
