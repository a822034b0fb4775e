"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at its tiny size with a fixed seed; the negative tests
feed corrupted CLI output to the checks and expect it counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from oracles import OracleError, blocking_pairs, check_clearing_output, women_ranks  # noqa: E402
from run import Session  # noqa: E402
from tracer import EXACT_SUFFIXES, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, LatticeInstance, MarketInstance, SmpInstance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
# one exact count per workload that its layers must drive above zero
DRIVEN = {
    "verify": "verify.checked",
    "smp-cli": "stable_matching.gale_shapley.proposals",
    "market-cli": "market_clearing.min_clearing_prices.rounds",
    "lattice-cli": "lattice_median.check_regular.meet_join_calls",
}


def bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and out["failed"] == 0 and out["correct"] is True, proc.stderr
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    metrics = result(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert "error_rate = 0/" in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [name for name in first if name.endswith(EXACT_SUFFIXES)]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first[DRIVEN[workload]]["value"] > 0
    assert first["trace.overhead_ratio"]["value"] > 0


def test_spec_lists_the_tracer_metrics_and_workloads():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".outputs", "__pycache__"))
    proc = bench("market-cli", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def fake_cli(*outputs):
    """A stand-in for latmed.cli.main printing the given
    (exit code, results, violations[, digest]) reports in turn."""
    replies = iter(outputs)

    def main(argv):
        code, results, violations, *digest = next(replies)
        print(json.dumps({"command": "", "digest": "".join(digest), "results": results,
                          "violations": violations, "seed": 42}))
        return code

    return main


# man 0 and woman 0 rank each other first but are matched elsewhere
SMP_MEN = [[0, 1], [0, 1]]
SMP_WOMEN = [[0, 1], [0, 1]]


def test_blocking_pair_found_by_oracle():
    wrank = women_ranks(SMP_WOMEN)
    assert blocking_pairs(SMP_MEN, wrank, (1, 0)) == [(0, 0)]
    assert blocking_pairs(SMP_MEN, wrank, (0, 1)) == []


def test_rank_vector_with_blocking_pair_counts_as_failure(tmp_path):
    inst = SmpInstance(tmp_path / "smp.txt", SMP_MEN, SMP_WOMEN, [True], 1, 0)
    session = Session(fake_cli((0, ["(1,0)"], [])))
    session.run_pass(WORKLOADS["smp-cli"], [inst])
    assert (session.attempted, session.failed) == (1, 1)


def test_item_assigned_twice_counts_as_failure(tmp_path):
    vals = [[2, 1], [2, 0]]
    with pytest.raises(OracleError):
        check_clearing_output(vals, 5, (1, 0), (0, 0))
    inst = MarketInstance(tmp_path / "market.txt", vals, 5, [0], 1, 0)
    session = Session(fake_cli((0, ["prices: (1,0)", "matching: 0-0 1-0"], [])))
    session.run_pass(WORKLOADS["market-cli"], [inst])
    assert (session.attempted, session.failed) == (1, 1)


def test_output_differing_between_passes_counts_as_failure(tmp_path):
    inst = LatticeInstance(tmp_path / "family.txt", "medians", [(1, 0), (0, 1)])
    medians = ["(0,0)", "(1,1)"]
    session = Session(fake_cli((0, medians, [], "a1"), (0, medians, [], "b2")))
    for _ in range(2):
        session.run_pass(WORKLOADS["lattice-cli"], [inst])
    assert (session.attempted, session.failed) == (2, 1)
    assert "differs" in session.problems[0]
