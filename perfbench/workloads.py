"""Workload inputs and the CLI commands run on each of them.

A workload's `setup` makes its inputs from the seed alone and writes them
to a work directory; latmed sees only those files and argv. Its `script`
then runs one instance's commands in order, closed loop, checking every
output with an oracle from `oracles`. Every random choice is drawn in
setup, so each pass over the instances repeats the same operations.

Sizes come in ladders rather than random draws, so that the seed changes
the contents of the inputs but not how much work they hold.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from oracles import (
    blocking_pairs,
    check_clearing_output,
    check_stable,
    check_violation,
    expect,
    format_vector,
    parse_matching,
    parse_vector,
    sorted_medians,
    women_ranks,
)


def _results(code, report):
    expect(code == 0 and not report["violations"],
           f"exit code {code}, violations {report['violations'][:2]}")
    return report["results"]


def _only(results):
    expect(len(results) == 1, f"expected one result line, got {len(results)}")
    return results[0]


def _refused(code, report, violations):
    expect(code == 1 and not report["results"] and report["violations"] == violations,
           f"exit code {code}, expected violations {violations[:2]}, "
           f"got {report['violations'][:2]}")


# vectors per `smp median` / `market median` call; the command checks every
# input, so a family size drawn from the seed would move the latency tail
MEDIAN_FAMILY = 3


def _write_vectors(path, vectors):
    path.write_text("".join(format_vector(v) + "\n" for v in vectors))


# --- verify ------------------------------------------------------------------


def verify_setup(workdir, seed, tiny):
    argv = ["repro", "verify", "--seed", str(seed)]
    if tiny:
        argv += ["--instances", "4", "--trials", "2", "--max-n", "4"]
    return [argv]


def verify_script(session, argv):
    session.op(argv, lambda code, report: expect(
        _results(code, report)[-1:] == ["PASS"], "final line is not PASS"))


# --- smp-cli -----------------------------------------------------------------

SMP_SIZES = {False: (100, 175, 250, 325, 400), True: (6, 9)}
SMP_MASTER_NOISE = 0.3  # spread of each man's key around the shared master list


@dataclass
class SmpInstance:
    path: Path
    men: list
    women: list
    picks: list  # True: the men-optimal matching enters the median family
    j: int
    swap_seed: int
    unstable_cache: dict = field(default_factory=dict)

    @cached_property
    def wrank(self):
        return women_ranks(self.women)

    def unstable(self, lo):
        """A perfect matching with blocking pairs: lo with two men's partners swapped."""
        if lo not in self.unstable_cache:
            n = len(lo)
            pairs = list(itertools.combinations(range(n), 2))
            random.Random(self.swap_seed).shuffle(pairs)
            for a, b in pairs:
                wa, wb = self.men[a][lo[a]], self.men[b][lo[b]]
                bad = list(lo)
                bad[a], bad[b] = self.men[a].index(wb), self.men[b].index(wa)
                bad = tuple(bad)
                blocking = blocking_pairs(self.men, self.wrank, bad)
                if blocking:
                    self.unstable_cache[lo] = bad, blocking
                    break
            else:
                raise AssertionError("every swap of the men-optimal matching is stable")
        return self.unstable_cache[lo]


def _smp_text(men, women):
    lines = [f"smp {len(men)}"]
    lines += [f"man {i}: " + " ".join(map(str, row)) for i, row in enumerate(men)]
    lines += [f"woman {i}: " + " ".join(map(str, row)) for i, row in enumerate(women)]
    return "\n".join(lines) + "\n"


def smp_setup(workdir, seed, tiny):
    instances = []
    for i, (n, master) in enumerate(itertools.product(SMP_SIZES[tiny], (False, True))):
        rng = random.Random(f"smp:{seed}:{i}")
        women = [rng.sample(range(n), n) for _ in range(n)]
        if master:
            base = [rng.random() for _ in range(n)]
            men = []
            for _ in range(n):
                keys = [b + SMP_MASTER_NOISE * rng.random() for b in base]
                men.append(sorted(range(n), key=keys.__getitem__))
        else:
            men = [rng.sample(range(n), n) for _ in range(n)]
        path = workdir / f"smp{i}.txt"
        path.write_text(_smp_text(men, women))
        picks = [rng.random() < 0.5 for _ in range(MEDIAN_FAMILY)]
        instances.append(SmpInstance(path, men, women, picks,
                                     rng.randint(1, len(picks)), rng.randrange(1 << 30)))
    return instances


def smp_script(session, inst):
    path = str(inst.path)

    def stable(code, report):
        g = parse_vector(_only(_results(code, report)))
        check_stable(inst.men, inst.wrank, g)
        return g

    lo = session.op(["smp", "solve", path], stable)

    def above_lo(code, report):
        g = stable(code, report)
        expect(all(a <= b for a, b in zip(lo, g)), "men-optimal rank vector not <= women-optimal")
        return g

    hi = session.op(["smp", "solve", path, "--side", "women"], above_lo)
    family = [lo if pick else hi for pick in inst.picks]
    matchings = inst.path.with_suffix(".matchings")
    _write_vectors(matchings, family)
    want = sorted_medians(family)[inst.j - 1]
    session.op(["smp", "median", path, "--matchings", str(matchings), "--j", str(inst.j)],
               lambda code, report: expect(
                   parse_vector(_only(_results(code, report))) == want,
                   "median differs from the per-coordinate sort"))
    session.op(["smp", "verify", path, "--matching", format_vector(lo)],
               lambda code, report: expect(_results(code, report) == ["stable"],
                                           "stable matching not reported stable"))
    bad, blocking = inst.unstable(lo)
    session.op(["smp", "verify", path, "--matching", format_vector(bad)],
               lambda code, report: _refused(
                   code, report, [f"blocking: ({m},{w})" for m, w in blocking]))


# --- market-cli --------------------------------------------------------------

MARKET_SIZES = {False: (50, 75, 100, 125, 150), True: (3, 5)}
# valuation range as a multiple of n; a wider range means more auction rounds
MARKET_RANGES = {False: (1, 3, 10), True: (1, 3)}
MARKET_SHIFT = 20  # uniform shifts of the minimum stay below cap = range + shift
# auction rounds vary from market to market; three per size and range
# smooth the slow tail that op_ms.p90 reads
MARKET_COPIES = 3


@dataclass
class MarketInstance:
    path: Path
    valuations: list
    cap: int
    shifts: list
    j: int
    drop: int


def market_setup(workdir, seed, tiny):
    instances = []
    cells = itertools.product(MARKET_SIZES[tiny], MARKET_RANGES[tiny], range(MARKET_COPIES))
    for i, (n, factor, _) in enumerate(cells):
        rng = random.Random(f"market:{seed}:{i}")
        top = factor * n
        vals = [[rng.randint(0, top - 1) for _ in range(n)] for _ in range(n)]
        # buyers 0 and 1 share a unique favourite, so zero prices never clear
        vals[0][0] = vals[1][0] = top
        cap = top + MARKET_SHIFT
        path = workdir / f"market{i}.txt"
        path.write_text(f"market {n} {cap}\n" + "".join(
            f"buyer {b}: " + " ".join(map(str, row)) + "\n" for b, row in enumerate(vals)))
        shifts = [rng.randint(0, MARKET_SHIFT) for _ in range(MEDIAN_FAMILY)]
        instances.append(MarketInstance(path, vals, cap, shifts,
                                        rng.randint(1, len(shifts)), rng.randrange(n)))
    return instances


def market_script(session, inst):
    path = str(inst.path)

    def cleared(code, report):
        results = _results(code, report)
        expect(len(results) == 2 and results[0].startswith("prices: "),
               "expected a prices line and a matching line")
        prices = parse_vector(results[0][len("prices: "):])
        check_clearing_output(inst.valuations, inst.cap, prices, parse_matching(results[1]))
        expect(max(prices) > 0, "zero prices reported, but they cannot clear this market")
        return prices

    low = session.op(["market", "clear", path], cleared)
    family = [tuple(p + c for p in low) for c in inst.shifts]
    prices = inst.path.with_suffix(".prices")
    _write_vectors(prices, family)
    want = sorted_medians(family)[inst.j - 1]
    session.op(["market", "median", path, "--prices", str(prices), "--j", str(inst.j)],
               lambda code, report: expect(
                   parse_vector(_only(_results(code, report))) == want,
                   "median differs from the per-coordinate sort"))
    session.op(["market", "verify", path, "--prices", format_vector(want)],
               lambda code, report: expect(_results(code, report) == ["clearing"],
                                           "median not reported clearing"))
    positive = [i for i, p in enumerate(low) if p > 0]
    below = list(low)
    below[positive[inst.drop % len(positive)]] -= 1
    session.op(["market", "verify", path, "--prices", format_vector(below)],
               lambda code, report: _refused(code, report, ["not-clearing"]))


# --- lattice-cli -------------------------------------------------------------

# (k vectors, d coordinates) for `lattice medians`; k * d stays near 8000 so
# these operations cost about the same, and there are enough of them that
# the median latency falls among them whatever the open sets cost
LATTICE_FAMILIES = {False: tuple((k, 8000 // k) for k in range(200, 341, 20)),
                    True: ((5, 3), (8, 4))}
# chain products for `lattice check-regular`: 120, 240 and 360 elements
LATTICE_PRODUCTS = {False: ((4, 5, 6), (5, 6, 8), (6, 6, 10)), True: ((2, 2, 3), (2, 3, 3))}
LATTICE_DIM = {False: 12, True: 4}
LATTICE_COORD_MAX = 999


@dataclass
class LatticeInstance:
    path: Path
    kind: str  # "medians", "closed" or "open"
    vectors: list


def _chain_product(rng, dims, d):
    """A chain product mapped into d coordinates by monotone maps of single
    axes, which keeps it closed under componentwise min and max."""
    axes = list(range(len(dims))) + [rng.randrange(len(dims)) for _ in range(d - len(dims))]
    rng.shuffle(axes)
    maps = [(axis, rng.randint(1, 5), rng.randint(0, 9)) for axis in axes]
    points = list(itertools.product(*(range(a) for a in dims)))
    return points, lambda x: tuple(scale * x[axis] + shift for axis, scale, shift in maps)


def lattice_setup(workdir, seed, tiny):
    rng = random.Random(f"lattice:{seed}")
    instances = []
    for k, d in LATTICE_FAMILIES[tiny]:
        vectors = [tuple(rng.randint(0, LATTICE_COORD_MAX) for _ in range(d)) for _ in range(k)]
        instances.append(LatticeInstance(workdir / f"family{len(instances)}.txt",
                                         "medians", vectors))
    for dims in LATTICE_PRODUCTS[tiny]:
        points, embed = _chain_product(rng, dims, LATTICE_DIM[tiny])
        closed = [embed(x) for x in points]
        rng.shuffle(closed)
        # below the top on two axes, so the removed point is a meet of two others
        inner = [x for x in points if sum(c < a - 1 for c, a in zip(x, dims)) >= 2]
        removed = embed(rng.choice(inner))
        opened = [v for v in closed if v != removed]
        rng.shuffle(opened)
        for kind, vectors in (("closed", closed), ("open", opened)):
            instances.append(LatticeInstance(workdir / f"{kind}{len(instances)}.txt",
                                             kind, vectors))
    for inst in instances:
        _write_vectors(inst.path, inst.vectors)
    return instances


def lattice_script(session, inst):
    path = str(inst.path)
    if inst.kind == "medians":
        want = sorted_medians(inst.vectors)
        session.op(["lattice", "medians", "--vectors", path],
                   lambda code, report: expect(
                       [parse_vector(v) for v in _results(code, report)] == want,
                       "medians differ from the per-coordinate sort"))
    elif inst.kind == "closed":
        session.op(["lattice", "check-regular", "--vectors", path],
                   lambda code, report: expect(_results(code, report) == ["regular"],
                                               "closed set not reported regular"))
    else:
        def violation(code, report):
            expect(code == 1 and not report["results"] and len(report["violations"]) == 1,
                   "open set not reported with one violation")
            tag, x, y, op = report["violations"][0].split(" ")
            expect(tag == "violation:", f"unexpected line {report['violations'][0]!r}")
            check_violation(set(inst.vectors), parse_vector(x), parse_vector(y), op)

        session.op(["lattice", "check-regular", "--vectors", path], violation)


@dataclass(frozen=True)
class Workload:
    setup: object
    script: object
    min_ops: int  # untraced runs keep going until this many operations


WORKLOADS = {
    "verify": Workload(verify_setup, verify_script, 3),
    "smp-cli": Workload(smp_setup, smp_script, 100),
    "market-cli": Workload(market_setup, market_script, 100),
    "lattice-cli": Workload(lattice_setup, lattice_script, 100),
}
