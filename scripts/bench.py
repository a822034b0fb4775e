"""Compare a change against its parent checkout and write BENCH_<PR>.json.

    git worktree add ../parent <base-commit>
    python3 scripts/bench.py ../parent --seed 2026 --out BENCH_8.json

Run from the repository root of the change; `<base-commit>` is the commit
the change is based on (for a branch off main, `$(git merge-base HEAD
main)`), not `HEAD~1` when the change spans several commits. For each
workload listed in BENCHMARK.json, runs `perfbench/run.py` of both
checkouts in 10 pairs of alternating order (the parent first in even
pairs, the change first in odd ones), each for the file's `run_seconds`,
one process at a time. The output records
the environment, every run's end-to-end metrics, each side's median and
quartiles, how many pairs each metric improved in, the change's Tier-1
wall time, and fixed-size layer timings of both sides. Each layer's timing
is the median of 5 repeats in one process; the layer script runs in 5
processes per side, alternating which side goes first, and the report
gives per layer the median of the per-process medians with their minimum
and maximum, and whether the two sides' min-max ranges overlap. Host drift
moves whole ranges, so a layer comparison is readable only where they do
not overlap. Standard library only; Tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
PAIRS = 10  # the fewest pairs in which a claimed gain can win 9 of 10
LAYER_PROCESSES = 5  # layer-script runs per side

# timed in a fresh interpreter against one side's src/
LAYERS = r"""
import itertools, json, random, statistics, sys
from time import perf_counter
from latmed import bipartite, lattice_median as lm, market_clearing as mc, order_core as oc
from latmed import stable_matching as sm
from latmed.verify import (PropertyResult, VerifyConfig, birkhoff_battery,
                           block_swap_instance, chain_product_lattices, fixed_lattices,
                           market_battery, random_market_instance, random_smp_instance,
                           regularity_gate_battery, smp_battery)

def timed(size, fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) * 1000)
    return {"size": size, "median_ms": statistics.median(times)}

cfg = VerifyConfig()
seed = int(sys.argv[1])
rng = random.Random(seed)
markets = [random_market_instance(rng, rng.randint(cfg.market_n_min, cfg.market_n_max),
                                  cfg.market_max_valuation)
           for _ in range(cfg.market_instances)]
families = []
for _ in range(cfg.median_families):
    k, d = rng.randint(1, cfg.family_k_max), rng.randint(1, cfg.family_dim_max)
    families.append([tuple(rng.randint(0, cfg.family_coord_max) for _ in range(d))
                     for _ in range(k)])
smp = random_smp_instance(rng, 400)
women_optimal = sm.gale_shapley(smp, "women")
market = random_market_instance(rng, 200, 199)
smps = [random_smp_instance(rng, rng.randint(cfg.smp_n_min, cfg.smp_n_max))
        for _ in range(cfg.smp_instances)] + [block_swap_instance(4)]
proposers = random_smp_instance(rng, 1000)
chain = oc.poset_from_covers(range(1200), [(i, i + 1) for i in range(1199)])
vector_sets = [lat.elements for _, lat in
               chain_product_lattices(cfg.birkhoff_max_elements) + fixed_lattices()]
lattices = [oc.explicit_lattice(v) for v in vector_sets]
vector_pairs = [(v[i], v[j]) for v in vector_sets for i in range(len(v))
                for j in range(i + 1, len(v))]
box = list(itertools.product(range(10), range(6), range(6)))
closed12 = list(itertools.product(range(3), range(4)))
catalog = f"{len(vector_sets)} catalog lattices of up to {cfg.birkhoff_max_elements} elements"
smp_text, market_text = sm.serialize_instance(smp), mc.serialize_market(market)
clearing = mc.min_clearing_prices(market)
below = list(clearing)
below[next(j for j, x in enumerate(clearing) if x > 0)] -= 1
# uniform shifts of a clearing vector keep every demand set, so they clear
room = market.price_cap - max(clearing)
clearing_family = [tuple(p + c for p in clearing) for c in (0, room // 2, room)]
demand_graphs = [mc._demands(market, p) for p in (clearing, below)]
# spellings the writer never prints, refused as late as each check allows: a
# sign on the last value fails the line pattern at its end, and a leading zero
# there passes the pattern and fails at the end of the JSON decode
last = market_text.rindex(" ") + 1
signed_text = market_text[:last] + "+" + market_text[last:]
zero_text = market_text[:last] + "0" + market_text[last:]
last = smp_text.rindex(" ") + 1
signed_smp_text = smp_text[:last] + "+" + smp_text[last:]
print(json.dumps({
    "enumerate_clearing_vectors": timed(
        f"{len(markets)} markets, n {cfg.market_n_min}-{cfg.market_n_max}, "
        f"valuations 0-{cfg.market_max_valuation}",
        lambda: [mc.enumerate_clearing_vectors(m) for m in markets]),
    "generalized_medians": timed(
        f"{len(families)} families, k <= {cfg.family_k_max}, d <= {cfg.family_dim_max}",
        lambda: [lm.generalized_medians(f) for f in families]),
    "stability_report": timed(
        "n = 400, women-optimal matching",
        lambda: sm.stability_report(smp, women_optimal)),
    "min_clearing_prices": timed(
        "n = 200, valuations 0-199",
        lambda: mc.min_clearing_prices(market)),
    "all_stable_matchings": timed(
        f"{cfg.smp_instances} instances, n {cfg.smp_n_min}-{cfg.smp_n_max}, "
        "and a 4-block gadget (16 matchings)",
        lambda: [sm.all_stable_matchings(s) for s in smps]),
    "gale_shapley": timed(
        "n = 1000, men proposing, women's rank table built each call",
        lambda: sm.gale_shapley(sm.SMPInstance(proposers.n, proposers.men_prefs,
                                               proposers.women_prefs))),
    "smp_instance": timed("the n = 1000 proposers' rows",
                          lambda: sm.smp_instance(proposers.men_prefs, proposers.women_prefs)),
    "chain_partition": timed("a 1200-element chain", lambda: oc.chain_partition(chain)),
    "parse_market": timed("the n = 200 market's text as the writer prints it, which "
                          "parse_rows decodes whole in one JSON call",
                          lambda: mc.parse_market(market_text)),
    "is_market_clearing": timed("the n = 200 market at its minimum clearing prices",
                                lambda: mc.is_market_clearing(market, clearing)),
    "is_market_clearing_below": timed(
        "the n = 200 market one unit below its minimum on the first positive price",
        lambda: mc.is_market_clearing(market, below)),
    "max_matching": timed(
        "the n = 200 market's demand graphs at its minimum clearing prices and one "
        "unit below, built before timing",
        lambda: [bipartite.max_matching(market.n, market.n, g) for g in demand_graphs]),
    "median_clearing": timed(
        "the n = 200 market, j = 2 of its minimum clearing prices and two uniform shifts",
        lambda: mc.median_clearing(market, clearing_family, 2)),
    "parse_market_signed": timed(
        "the n = 200 market's text with its last value written +v, refused at the "
        "line pattern's end and read line by line",
        lambda: mc.parse_market(signed_text)),
    "parse_market_zero": timed(
        "the n = 200 market's text with a leading zero on its last value, refused at "
        "the JSON decode's end and read line by line",
        lambda: mc.parse_market(zero_text)),
    "parse_instance": timed("the n = 400 instance's text",
                            lambda: sm.parse_instance(smp_text)),
    "parse_instance_respelled": timed(
        "the n = 400 instance's text with its last value written +v, refused at the "
        "line pattern's end and read line by line",
        lambda: sm.parse_instance(signed_smp_text)),
    "birkhoff_battery": timed(catalog, lambda: birkhoff_battery(cfg.birkhoff_max_elements)),
    "explicit_lattice": timed(f"the vector sets of the {catalog}",
                              lambda: [oc.explicit_lattice(v) for v in vector_sets]),
    "birkhoff_round_trip": timed(
        f"the {catalog} as explicit_lattice returns them; a Poset caches the "
        "Birkhoff decomposition the first repeat makes, so the median times the checks",
        lambda: [oc.birkhoff_round_trip(lat) for lat in lattices]),
    "meet_join": timed(
        f"every pair of each vector set of the {catalog}, {len(vector_pairs)} pairs",
        lambda: [(oc.meet(u, v), oc.join(u, v)) for u, v in vector_pairs]),
    "check_regular": timed("the 10 x 6 x 6 chain product, 360 elements, closed",
                           lambda: lm.check_regular(box)),
    "check_median_theorem": timed(
        "the 3 x 4 chain product, 12 elements, closed: the exhaustive path, 1585 families",
        lambda: lm.check_median_theorem(closed12)),
    "explicit_lattice_box": timed("the 10 x 6 x 6 chain product, 360 elements",
                                  lambda: oc.explicit_lattice(box)),
    "smp_battery": timed(
        f"the default config's {cfg.smp_instances} instances, from a generator of their own",
        lambda: smp_battery(random.Random(seed), cfg, PropertyResult("median-invariants"))),
    "market_battery": timed(
        f"the default config's {cfg.market_instances} markets, from a generator of their own",
        lambda: market_battery(random.Random(seed), cfg, PropertyResult("median-invariants"))),
    "regularity_gate_battery": timed(
        f"{cfg.gate_trials} trials from a generator of their own",
        lambda: regularity_gate_battery(random.Random(seed), cfg.gate_trials)),
}))
"""


def git_state(path):
    def git(*args):
        out = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def perfbench(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs, end_to_end):
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": metric["better"], "bound": metric["bound"],
                     "parent": summary(sides["parent"]), "change": summary(sides["change"]),
                     "change_wins": wins, "pairs": len(sides["parent"])}
    return out


def layer_run(root, seed):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", LAYERS, str(seed)], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def layer_timings(roots, seed):
    """Per side and layer: median, minimum and maximum of the per-process
    medians; per layer under "ranges_overlap": whether the two sides'
    min-max ranges overlap."""
    runs = {side: [] for side in roots}
    for i in range(LAYER_PROCESSES):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(layer_run(roots[side], seed))
    out = {}
    for side, results in runs.items():
        out[side] = {}
        for name, first in results[0].items():
            medians = [r[name]["median_ms"] for r in results]
            out[side][name] = {"size": first["size"], "median_ms": statistics.median(medians),
                               "min_ms": min(medians), "max_ms": max(medians),
                               "processes": len(medians)}
    out["ranges_overlap"] = {
        name: parent["min_ms"] <= out["change"][name]["max_ms"]
        and out["change"][name]["min_ms"] <= parent["max_ms"]
        for name, parent in out["parent"].items()}
    return out


def tier1(root):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = perf_counter()
    out = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"wall_s": perf_counter() - start, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": ROOT}

    report = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "platform": platform.platform(),
                        "parent": git_state(roots["parent"]), "change": git_state(ROOT)},
        "command": f"perfbench/run.py --seed {args.seed} --seconds {seconds} --trace 0",
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} pair {i + 1}/{PAIRS}: {side}", file=sys.stderr)
                runs[side].append(perfbench(roots[side], workload, args.seed, seconds))
        report["workloads"][workload] = {
            "runs": runs, "summary": compare(runs, bench["end_to_end"])}
    print("layer timings and Tier-1", file=sys.stderr)
    report["layers"] = layer_timings(roots, args.seed)
    report["tier1_change"] = tier1(ROOT)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
