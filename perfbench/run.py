"""latmed benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload smp-cli --seed 1 --seconds 20 --trace 0

Run from the repository root. latmed is imported from ./src, never from
an installed copy. Each operation is one `latmed.cli.main(argv)` call with
stdout captured, timed from outside; the next starts only after the
previous one returns and its output has been checked. Untraced runs
(--trace 0) repeat whole passes over the workload's instances until
--seconds is used up and report the end-to-end metrics; traced runs
(--trace 1) make one untraced and one traced pass over the same
instances and report the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from oracles import OracleError
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
SETUP_REPEATS = 3
HARD_LIMIT_S = 120  # stop starting passes after this long, whatever min_ops says
SHARED_HOST_NOTE = ("shared host: timings follow host speed; measured spreads are in "
                    "perfbench/README.md")


class OpFailed(Exception):
    """An operation's output failed its check; the instance's script stops."""


class Session:
    """Runs operations through `main`, timing and checking each one.

    `seen` maps an operation key to the sha256 of its stdout in earlier
    passes or runs of the same program and seed; a different output
    counts as a failure.
    """

    def __init__(self, main, seen=None):
        self.main = main
        self.seen = dict(seen or {})
        self.timings = {}  # operation key -> its latencies, one per pass
        self.in_main = 0.0  # seconds spent inside main, all operations
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None
        self._key = None

    def run_pass(self, workload, instances):
        """One pass over the instances; returns (wall seconds, seconds in cli.main)."""
        start, in_main = perf_counter(), self.in_main
        for i, inst in enumerate(instances):
            self._key = [i, 0]
            with contextlib.suppress(OpFailed):
                workload.script(self, inst)
        return perf_counter() - start, self.in_main - in_main

    def op(self, argv, check):
        """Run one command with --json; return what `check(code, report)` returns."""
        argv = [*argv, "--json"]
        key = f"{self._key[0]}.{self._key[1]}"
        self._key[1] += 1
        buf = io.StringIO()
        problem = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.main(argv)
        except Exception as e:  # any escape from the CLI is a failed operation
            code, problem = None, f"raised {type(e).__name__}: {e}"
        elapsed = perf_counter() - start
        self.timings.setdefault(key, []).append(elapsed)
        self.in_main += elapsed
        if self.tracer:
            self.tracer.fold()
        out = buf.getvalue()
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if problem is None and self.seen.setdefault(key, digest) != digest:
            problem = "stdout differs from an earlier run of the same operation"
        value = None
        if problem is None:
            try:
                value = check(code, json.loads(out))
            except (OracleError, ValueError, KeyError, TypeError, IndexError) as e:
                problem = f"{type(e).__name__}: {e}"
        if problem:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: {problem}")
            raise OpFailed(problem)
        return value


def import_latmed():
    """Fresh import of latmed from ./src; returns its cli module."""
    if not (SRC / "latmed" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latmed sources under {SRC.name}/; run from a checkout")
    for name in [m for m in sys.modules if m == "latmed" or m.startswith("latmed.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("latmed.cli")
    if Path(cli.__file__).resolve().parent != SRC / "latmed":
        sys.exit(f"perfbench: imported latmed from {cli.__file__}, not from src/")
    return cli


def program_hash():
    h = hashlib.sha256()
    for path in sorted([*(SRC / "latmed").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    sha = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_sha": sha, "host": SHARED_HOST_NOTE}


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the tests")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    store = BENCH / ".outputs" / (f"{args.workload}-{args.seed}-{int(args.tiny)}-"
                                  f"{program_hash()}.json")
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            cli = import_latmed()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            instances = workload.setup(workdir, args.seed, args.tiny)
            setup_s.append(perf_counter() - start)
        seen = json.loads(store.read_text()) if store.is_file() else {}
        session = Session(cli.main, seen)
        lines = [f"env: {json.dumps(environment())}"]
        if args.trace:
            metrics = traced_run(session, workload, instances, lines)
        else:
            metrics = untraced_run(session, workload, instances, args, setup_s, lines)
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(session.seen))
        os.replace(tmp, store)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines.append(f"error_rate = {session.failed}/{session.attempted} = "
                 f"{session.failed / session.attempted:.6g}")
    print("\n".join(lines))
    for problem in session.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))


def untraced_run(session, workload, instances, args, setup_s, lines):
    start = perf_counter()
    passes = 0
    while True:
        last, _ = session.run_pass(workload, instances)
        passes += 1
        elapsed = perf_counter() - start
        enough = args.tiny or session.attempted >= workload.min_ops
        if (enough and elapsed + last > args.seconds) or elapsed + last > HARD_LIMIT_S:
            break
    # Each operation's median time over the passes: the host is shared and
    # its speed drifts by tens of percent over seconds (see README.md), so
    # an operation's typical time is read before taking percentiles.
    typical = [statistics.median(t) for t in session.timings.values()]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms.p50": (statistics.median(typical) * 1000, "ms"),
        "op_ms.p90": (percentile(typical, 90) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines.append(f"workload: {args.workload} seed {args.seed}: {passes} passes over "
                 f"{len(instances)} instances, {session.attempted} operations in "
                 f"{elapsed:.3f} s")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"samples: ops_per_s and op_ms over {len(typical)} distinct operations, "
                 f"each the median of its {passes} runs; setup_s median of {len(setup_s)} "
                 f"set-ups")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced_run(session, workload, instances, lines):
    wall, untraced_s = session.run_pass(workload, instances)
    tracer = Tracer()
    tracer.install()
    session.tracer = tracer
    try:
        _, traced_s = session.run_pass(workload, instances)
    finally:
        tracer.remove()
        session.tracer = None
    metrics = tracer.metrics(untraced_s, traced_s)
    lines.append(f"trace: one untraced pass ({wall:.3f} s wall, {untraced_s:.3f} s in "
                 f"cli.main) and one traced pass ({traced_s:.3f} s in cli.main)")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics


if __name__ == "__main__":
    main()
