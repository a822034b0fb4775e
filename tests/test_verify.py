"""The verification battery itself: shape, determinism, gating."""

import random
from dataclasses import fields
from itertools import product

import pytest

from latmed import lattice_median, market_clearing, stable_matching, verify
from latmed.order_core import Poset, join, meet
from latmed.verify import (
    PropertyResult,
    VerifyConfig,
    birkhoff_battery,
    block_swap_instance,
    chain_product_lattices,
    fixed_lattices,
    market_battery,
    worked_example_battery,
    regularity_gate_battery,
    smp_battery,
    vector_family_battery,
    verify_suite,
)

SMALL = VerifyConfig(instances=30, trials=3)

DEFAULT_REPR = (
    "VerifyConfig(seed=42, smp_instances=200, smp_n_min=3, smp_n_max=7, "
    "subsets_per_instance=20, k_min=2, k_max=5, closure_pairs=10, "
    "median_families=1000, family_k_max=8, family_dim_max=10, "
    "family_coord_max=10, market_instances=100, market_n_min=2, "
    "market_n_max=4, market_max_valuation=4, market_subsets=10, "
    "constrained_instances=50, gate_trials=200, birkhoff_max_elements=50)"
)


def test_small_suite_passes():
    results = verify_suite(SMALL)
    assert results and all(r.passed for r in results)
    names = [r.name for r in results]
    assert names[0] == "paper-example"
    assert "median-invariants" in names
    assert "birkhoff-round-trip" in names


def test_suite_is_deterministic():
    a = verify_suite(SMALL)
    b = verify_suite(SMALL)
    assert a == b


def test_zero_subsets_is_empty():
    assert verify_suite(VerifyConfig(trials=0)) == []


def test_scaled_config():
    assert VerifyConfig(7) == VerifyConfig(seed=7, instances=200, trials=20)
    cfg = VerifyConfig(7, instances=20, trials=4, max_n=99)
    assert (cfg.smp_instances, cfg.market_instances, cfg.constrained_instances,
            cfg.median_families, cfg.gate_trials) == (20, 10, 5, 100, 20)
    assert cfg.subsets_per_instance == 4
    assert (cfg.smp_n_max, cfg.market_n_max) == (7, 4)  # max_n only lowers sizes
    tiny = VerifyConfig(7, instances=1, max_n=1)
    assert (tiny.market_instances, tiny.smp_n_max, tiny.market_n_max) == (1, 3, 2)


def test_config_sizes_are_not_settable():
    # only the four flags reach the constructor; the repr, which the
    # digest of `repro verify` hashes, lists the seed and the sizes alone
    with pytest.raises(TypeError):
        VerifyConfig(closure_pairs=3)
    assert [f.name for f in fields(VerifyConfig) if f.init] == [
        "seed", "instances", "trials", "max_n"]
    assert repr(VerifyConfig()) == DEFAULT_REPR
    assert repr(VerifyConfig(instances=200, trials=20, max_n=9)) == DEFAULT_REPR


def test_worked_example_battery():
    r = worked_example_battery()
    assert r.passed and r.checked == 1


def test_gate_battery_exercises_both_paths():
    r = regularity_gate_battery(random.Random(3), trials=60)
    assert r.passed
    assert 0 < r.gated < r.checked  # some refused, some checked through


def test_gate_battery_catches_a_gate_that_refuses_everything(monkeypatch):
    def refuse_all(elements):
        return (0,), (0,), "meet"

    monkeypatch.setattr(lattice_median, "check_regular", refuse_all)
    r = regularity_gate_battery(random.Random(3), trials=60)
    assert not r.passed
    assert all("gate fired on a regular set" in f for f in r.failures)


def test_gate_battery_catches_a_gate_that_refuses_nothing(monkeypatch):
    # let through, an irregular set is scored and some median leaves it
    monkeypatch.setattr(lattice_median, "check_regular", lambda elements: None)
    r = regularity_gate_battery(random.Random(3), trials=60)
    assert r.gated == 0
    assert any("gate missed an irregular set" in f for f in r.failures)
    assert any("left the set" in f for f in r.failures)


def reversed_medians(medians):
    return lambda vectors: medians(vectors)[::-1]


@pytest.mark.parametrize("name, mutant, message", [
    ("generalized_medians", reversed_medians(verify.generalized_medians),
     "order-statistic medians gave ((1, 2), (0, 1), (0, 0))"),
    ("medians_via_meet_join", reversed_medians(verify.medians_via_meet_join),
     "meet/join medians gave ((1, 2), (0, 1), (0, 0))"),
    ("meet", join, "pairwise meet/join disagree with expected values"),
])
def test_paper_example_row_catches_each_route(monkeypatch, name, mutant, message):
    monkeypatch.setattr(verify, name, mutant)
    r = worked_example_battery()
    assert r.checked == 1 and message in r.failures


def test_median_rows_catch_a_descending_family(monkeypatch):
    monkeypatch.setattr(verify, "generalized_medians",
                        reversed_medians(verify.generalized_medians))
    inv = PropertyResult("median-invariants")
    cross = vector_family_battery(random.Random(4), VerifyConfig(instances=20), inv)
    assert cross.checked == inv.checked == 100
    assert cross.failures and all(" != " in f for f in cross.failures)
    assert inv.failures and all(": chain broken: " in f for f in inv.failures)


def test_market_rows_catch_a_lost_minimum(monkeypatch):
    # without its least clearing vector, the enumerated set is not closed
    # under meet and no longer holds what the auction finds
    real = market_clearing.enumerate_clearing_vectors
    monkeypatch.setattr(market_clearing, "enumerate_clearing_vectors",
                        lambda inst: real(inst)[1:])
    rows = market_battery(random.Random(6), VerifyConfig(instances=40, trials=2),
                          PropertyResult("median-invariants"))
    closure, minimum, _ = rows
    assert minimum.checked == 20 and len(minimum.failures) == 20
    assert all(": auction (" in f and ") != minimum (" in f for f in minimum.failures)
    assert closure.failures and all(" not clearing" in f for f in closure.failures)


def test_market_row_catches_an_empty_box(monkeypatch):
    monkeypatch.setattr(market_clearing, "enumerate_clearing_vectors", lambda inst: [])
    closure, minimum, medians = market_battery(
        random.Random(6), VerifyConfig(instances=40, trials=2),
        PropertyResult("median-invariants"))
    assert minimum.checked == 20
    assert len(minimum.failures) == 20
    assert all(f.endswith(": no clearing vector in the box") for f in minimum.failures)
    assert closure.checked == medians.checked == 0  # each market is skipped past


def test_birkhoff_row_reports_a_refused_lattice(monkeypatch):
    # a catalog lattice that lost its top has two maximal elements, no lattice
    real = verify.explicit_lattice
    monkeypatch.setattr(verify, "explicit_lattice", lambda vectors: real(sorted(vectors)[:-1]))
    r = birkhoff_battery(20)
    assert r.checked > 0 and len(r.failures) == r.checked
    assert all(": NotALattice: " in f for f in r.failures)


def fixpoint_closure(vectors):
    # oracle: add every meet and join of a member with a new one until
    # nothing new appears, with no appeal to distributivity
    out = set(vectors)
    frontier = list(out)
    while frontier:
        fresh = []
        for a in list(out):
            for b in frontier:
                for c in (meet(a, b), join(a, b)):
                    if c not in out:
                        out.add(c)
                        fresh.append(c)
        frontier = fresh
    return sorted(out)


@pytest.mark.parametrize("seed", [42, 7, 1])
def test_closure_matches_fixpoint_on_gate_battery_sets(monkeypatch, seed):
    real, seen = verify._close_under_ops, []

    def record(vectors):
        closed = real(vectors)
        seen.append((list(vectors), closed))
        return closed

    monkeypatch.setattr(verify, "_close_under_ops", record)
    regularity_gate_battery(random.Random(seed), VerifyConfig(seed=seed).gate_trials)
    assert seen
    for vectors, closed in seen:
        assert closed == fixpoint_closure(vectors), vectors


def test_closure_matches_fixpoint_on_random_sets():
    rng = random.Random(15)
    for _ in range(2000):
        dim = rng.randint(1, 4)
        # 1-8 draws from a small box, so duplicates and singletons occur
        vectors = [tuple(rng.randint(0, 3) for _ in range(dim))
                   for _ in range(rng.randint(1, 8))]
        assert verify._close_under_ops(vectors) == fixpoint_closure(vectors), vectors


def test_catalog_shapes():
    assert len(fixed_lattices()) == 5
    lats = chain_product_lattices(20)
    assert all(len(lat.elements) <= 20 for _, lat in lats)
    assert any(name.count("x") == 2 for name, _ in lats)  # three-chain products


def two_block_catalog(max_elements):
    # oracle: the chain products as two nested loops, the two-chain block
    # first, each listed with its name and its vectors in product order
    out = []
    for a in range(2, max_elements // 2 + 1):
        for b in range(2, a + 1):
            if a * b <= max_elements:
                out.append((f"chain-{a}x{b}", tuple(product(range(a), range(b)))))
    for a in range(2, max_elements // 4 + 1):
        for b in range(2, a + 1):
            for c in range(2, b + 1):
                if a * b * c <= max_elements:
                    vecs = tuple(product(range(a), range(b), range(c)))
                    out.append((f"chain-{a}x{b}x{c}", vecs))
    return out


@pytest.mark.parametrize("max_elements, count", [(50, 82), (20, 20)])
def test_chain_product_catalog_is_pinned(max_elements, count):
    got = [(name, lat.elements) for name, lat in chain_product_lattices(max_elements)]
    assert len(got) == count
    assert got == two_block_catalog(max_elements)


def test_birkhoff_row_catches_a_lost_join_irreducible(monkeypatch):
    real = verify.birkhoff_round_trip

    def drop_one(lat):
        jp = real(lat)
        return Poset(elements=jp.elements[1:], down=jp.down[1:])

    monkeypatch.setattr(verify, "birkhoff_round_trip", drop_one)
    r = birkhoff_battery(20)
    assert r.checked > 0 and len(r.failures) == r.checked
    assert all("join-irreducibles but rank" in f for f in r.failures)


def test_block_swap_instance_sizes():
    inst = block_swap_instance(3)
    assert inst.n == 6


@pytest.mark.parametrize("swapped", [("men",), ("women",), ("men", "women")])
def test_proposal_extremes_catch_a_wrong_proposal_side(monkeypatch, swapped):
    # the enumeration walks up from the men's proposal result, so a wrong
    # men's side can only show against the walk from the women's end
    real = stable_matching.gale_shapley

    def other_side(inst, proposing_side="men"):
        if proposing_side in swapped:
            proposing_side = "women" if proposing_side == "men" else "men"
        return real(inst, proposing_side)

    monkeypatch.setattr(stable_matching, "gale_shapley", other_side)
    rows = smp_battery(random.Random(5), VerifyConfig(instances=40, trials=3),
                       PropertyResult("median-invariants"))
    failures = next(r for r in rows if r.name == "smp-proposal-extremes").failures
    assert any("walk from the women's side" in f for f in failures) == ("men" in swapped)
    assert any("women-optimal" in f for f in failures) == ("women" in swapped)


def test_smp_oracle_judges_each_median_once_per_instance(monkeypatch):
    real, calls = stable_matching.stability_report, []

    def record(inst, g):
        calls.append((inst, g))  # holding inst keeps its id from being reused
        return real(inst, g)

    monkeypatch.setattr(stable_matching, "stability_report", record)
    stab, _, _ = smp_battery(random.Random(5), VerifyConfig(instances=30, trials=3),
                             PropertyResult("median-invariants"))
    keys = [(id(inst), g) for inst, g in calls]
    assert stab.passed and stab.checked == 314
    assert 0 < len(keys) < stab.checked and len(set(keys)) == len(keys)


def test_smp_median_row_reports_every_rejected_median(monkeypatch):
    # an oracle that rejects one median: each time that median comes out
    # it gives one failure line, however often the oracle was asked
    target, real = (0, 0, 1, 1), stable_matching.stability_report
    medians, seen = verify.generalized_medians, []

    def rejecting(inst, g):
        return stable_matching.StabilityReport(False, ()) if g == target else real(inst, g)

    def record(family):
        out = medians(family)
        seen.extend(out)
        return out

    monkeypatch.setattr(stable_matching, "stability_report", rejecting)
    monkeypatch.setattr(verify, "generalized_medians", record)
    stab, _, _ = smp_battery(random.Random(5), VerifyConfig(instances=30, trials=3),
                             PropertyResult("median-invariants"))
    assert len(stab.failures) == seen.count(target) == 14
    assert all(f.endswith(f" gave {target}, not stable") for f in stab.failures)
