"""Command line front end.

Every invocation prints a deterministic report: result lines, then
violation lines. With --json the same report is emitted as one JSON
object {command, digest, results, violations, seed}. The digest is the
first 12 hex chars of sha256 over the canonical serialization of the
inputs, so identical inputs are recognizable across runs. Instance files
are read by stable_matching.parse_instance and market_clearing.parse_market,
which also give the text to hash: the file as read when it is already
canonical. Exit status: 0 clean, 1 for violations, domain errors (reported
by error class name) and file errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import market_clearing as mc
from . import stable_matching as sm
from .errors import EmptyInput, JOutOfRange, LatmedError
from .lattice_median import check_regular, generalized_medians
from .order_core import format_vector, parse_vector
from .verify import (
    RNG_ALGORITHM,
    WORKED_INPUTS,
    VerifyConfig,
    verify_suite,
    worked_example_battery,
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class RunReport:
    command: str
    digest: str
    results: tuple
    violations: tuple
    seed: int
    exit_code: int


def _digest(source):
    return hashlib.sha256(source.encode()).hexdigest()[:12] if source else ""


def _read_vectors(path):
    vs = [parse_vector(ln) for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not vs:
        raise EmptyInput(f"no vectors in {path}")
    return vs


def _vectors_text(vectors):
    return "".join(format_vector(v) + "\n" for v in vectors)


# --- lattice -----------------------------------------------------------

def cmd_lattice_medians(ns):
    vectors = _read_vectors(ns.vectors)
    medians = generalized_medians(vectors)
    if ns.j is not None:
        if not 1 <= ns.j <= len(medians):
            raise JOutOfRange(f"j={ns.j} outside 1..{len(medians)}")
        medians = [medians[ns.j - 1]]
    return _vectors_text(vectors), [format_vector(m) for m in medians], []


def cmd_lattice_check_regular(ns):
    vectors = _read_vectors(ns.vectors)
    violation = check_regular(vectors)
    if violation is None:
        return _vectors_text(vectors), ["regular"], []
    x, y, op = violation
    line = f"violation: {format_vector(x)} {format_vector(y)} {op}"
    return _vectors_text(vectors), [], [line]


def _read(path, parse):
    return parse(Path(path).read_text())


# --- smp ---------------------------------------------------------------

def cmd_smp_solve(ns):
    inst, src = _read(ns.file, sm.parse_instance)
    g = sm.gale_shapley(inst, ns.side)
    return src, [format_vector(g)], []


def cmd_smp_enumerate(ns):
    inst, src = _read(ns.file, sm.parse_instance)
    stable = sm.all_stable_matchings(inst)
    return src, [format_vector(g) for g in stable], []


def cmd_smp_median(ns):
    inst, src = _read(ns.file, sm.parse_instance)
    matchings = _read_vectors(ns.matchings)
    med = sm.median_stable(inst, matchings, ns.j)
    return src + _vectors_text(matchings), [format_vector(med)], []


def cmd_smp_verify(ns):
    inst, src = _read(ns.file, sm.parse_instance)
    g = parse_vector(ns.matching)
    report = sm.stability_report(inst, g)
    src += format_vector(g) + "\n"
    if report.stable:
        return src, ["stable"], []
    if not report.is_matching:
        return src, [], ["not-a-matching"]
    return src, [], [f"blocking: ({m},{w})" for m, w in report.blocking]


# --- market ------------------------------------------------------------

def cmd_market_clear(ns):
    inst, src = _read(ns.file, mc.parse_market)
    prices = mc.min_clearing_prices(inst)
    # the auction's own matching depends on the rounds it took; a cold
    # matching on the final demand sets is the one the report prints
    assignment = mc.clearing_matching(inst, prices)
    lines = [
        f"prices: {format_vector(prices)}",
        "matching: " + " ".join(f"{i}-{j}" for i, j in enumerate(assignment)),
    ]
    return src, lines, []


def cmd_market_enumerate(ns):
    inst, src = _read(ns.file, mc.parse_market)
    clearing = mc.enumerate_clearing_vectors(inst)
    return src, [format_vector(p) for p in clearing], []


def cmd_market_median(ns):
    inst, src = _read(ns.file, mc.parse_market)
    prices = _read_vectors(ns.prices)
    med = mc.median_clearing(inst, prices, ns.j)
    return src + _vectors_text(prices), [format_vector(med)], []


def cmd_market_verify(ns):
    inst, src = _read(ns.file, mc.parse_market)
    p = parse_vector(ns.prices)
    src += format_vector(p) + "\n"
    if mc.is_market_clearing(inst, p):
        return src, ["clearing"], []
    return src, [], ["not-clearing"]


# --- repro -------------------------------------------------------------

def cmd_repro_paper_example(ns):
    check = worked_example_battery()
    results = [
        "inputs: " + " ".join(map(format_vector, WORKED_INPUTS)),
        "medians: " + " ".join(map(format_vector, generalized_medians(WORKED_INPUTS))),
        "PASS" if check.passed else "FAIL",
    ]
    return _vectors_text(WORKED_INPUTS), results, list(check.failures)


def cmd_repro_verify(ns):
    cfg = VerifyConfig(ns.seed, ns.instances, ns.trials, ns.max_n)
    outcomes = verify_suite(cfg)
    if not outcomes:
        return repr(cfg), [], []
    results = [f"rng: {RNG_ALGORITHM}", f"seed: {ns.seed}"]
    violations = []
    for r in outcomes:
        mark = "PASS" if r.passed else "FAIL"
        gated = f" gated={r.gated}" if r.gated else ""
        results.append(f"{r.name}: {mark} checked={r.checked}{gated}")
        violations.extend(f"{r.name}: {f}" for f in r.failures)
    results.append("PASS" if not violations else "FAIL")
    return repr(cfg), results, violations


# --- wiring ------------------------------------------------------------

@cache
def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=False,
                        help="emit the report as a JSON object")

    parser = argparse.ArgumentParser(
        prog="latmed",
        description="Medians on finite distributive lattices: "
                    "stable matchings and market clearing prices.",
    )
    parser.set_defaults(seed=DEFAULT_SEED)  # reported by every command
    groups = parser.add_subparsers(dest="group", required=True)

    lattice = groups.add_parser("lattice", help="raw count-vector families")
    lsub = lattice.add_subparsers(dest="cmd", required=True)
    p = lsub.add_parser("medians", parents=[shared],
                        help="coordinatewise order statistics of a vector file")
    p.add_argument("--vectors", required=True, help="file of count vectors, one per line")
    p.add_argument("--j", type=int, default=None, help="print only the j-th median")
    p = lsub.add_parser("check-regular", parents=[shared],
                        help="is the vector set closed under meet and join")
    p.add_argument("--vectors", required=True, help="file of count vectors, one per line")

    smp = groups.add_parser("smp", help="stable marriage instances")
    ssub = smp.add_subparsers(dest="cmd", required=True)
    p = ssub.add_parser("solve", parents=[shared], help="deferred acceptance")
    p.add_argument("file")
    p.add_argument("--side", choices=("men", "women"), default="men")
    p = ssub.add_parser("enumerate", parents=[shared],
                        help="all stable matchings")
    p.add_argument("file")
    p = ssub.add_parser("median", parents=[shared],
                        help="j-th median of listed stable matchings")
    p.add_argument("file")
    p.add_argument("--matchings", required=True, help="file of rank vectors")
    p.add_argument("--j", type=int, required=True)
    p = ssub.add_parser("verify", parents=[shared], help="stability of one matching")
    p.add_argument("file")
    p.add_argument("--matching", required=True, help="rank vector, e.g. '(0,1,2)'")

    market = groups.add_parser("market", help="unit-demand markets")
    msub = market.add_subparsers(dest="cmd", required=True)
    p = msub.add_parser("clear", parents=[shared], help="minimum clearing prices")
    p.add_argument("file")
    p = msub.add_parser("enumerate", parents=[shared],
                        help="all clearing vectors in the price box")
    p.add_argument("file")
    p = msub.add_parser("median", parents=[shared],
                        help="j-th median of listed clearing vectors")
    p.add_argument("file")
    p.add_argument("--prices", required=True, help="file of price vectors")
    p.add_argument("--j", type=int, required=True)
    p = msub.add_parser("verify", parents=[shared], help="does a vector clear")
    p.add_argument("file")
    p.add_argument("--prices", required=True, help="price vector, e.g. '(1,0)'")

    repro = groups.add_parser("repro", help="reproducibility entry points")
    rsub = repro.add_subparsers(dest="cmd", required=True)
    p = rsub.add_parser("paper-example", parents=[shared],
                        help="the worked 2-coordinate median example")
    p = rsub.add_parser("verify", parents=[shared],
                        help="the full randomized verification battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for randomized checks (default {DEFAULT_SEED})")
    p.add_argument("--instances", type=int, default=None,
                   help="stable-matching instance count; other batteries scale")
    p.add_argument("--trials", type=int, default=None,
                   help="median subsets per stable-matching instance (default 20); "
                        "0 runs nothing")
    p.add_argument("--max-n", type=int, help="cap instance sizes below the defaults")
    return parser


def dispatch(argv):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        violations = () if code == 0 else ("usage error",)
        return RunReport(command=" ".join(argv), digest="", results=(),
                         violations=violations, seed=DEFAULT_SEED, exit_code=code)
    ns.command = f"{ns.group} {ns.cmd}"
    # looked up per call, so a cmd_* replaced later (by a tracer) is the one run
    handler = globals()["cmd_" + ns.command.replace(" ", "_").replace("-", "_")]
    try:
        source, results, violations = handler(ns)
    except LatmedError as e:
        source, results, violations = "", [], [f"{type(e).__name__}: {e}"]
    except (OSError, UnicodeDecodeError) as e:
        source, results, violations = "", [], [f"FileError: {e}"]
    report = RunReport(
        command=ns.command,
        digest=_digest(source),
        results=tuple(results),
        violations=tuple(violations),
        seed=ns.seed,
        exit_code=0 if not violations else 1,
    )
    if ns.json:
        print(json.dumps({
            "command": report.command,
            "digest": report.digest,
            "results": list(report.results),
            "violations": list(report.violations),
            "seed": report.seed,
        }))
    else:
        for line in report.results:
            print(line)
        for line in report.violations:
            print(line)
    return report


def main(argv=None):
    try:
        return dispatch(sys.argv[1:] if argv is None else argv).exit_code
    except BrokenPipeError:
        # stdout's reader is gone: send the flush at exit to devnull, a file error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
