"""Per-layer tracing of latmed's public functions, from outside the package.

`Tracer.install()` replaces each traced function in every latmed module
that binds its name with a wrapper, and `remove()` puts the originals
back. Wrappers record spans (name, parent, start, end) in memory; `fold()`
turns the spans of one finished operation into call counts and self
times, where self time is a span's duration minus that of its children.
Hot leaf functions (meet and join) are only counted.

LAYER_METRICS names every per-layer metric and the end-to-end metric it
is expected to move, on which workload.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions wrapped in spans
SPANNED = {
    "cli": ("dispatch", "cmd_lattice_medians", "cmd_lattice_check_regular", "cmd_smp_solve",
            "cmd_smp_median", "cmd_smp_verify", "cmd_market_clear", "cmd_market_median",
            "cmd_market_verify", "cmd_repro_verify"),
    "verify": ("verify_suite", "smp_battery", "vector_family_battery", "market_battery",
               "constrained_battery", "regularity_gate_battery", "birkhoff_battery"),
    "order_core": ("explicit_lattice", "birkhoff_round_trip", "join_irreducibles",
                   "chain_partition", "all_ideals", "poset_from_covers", "parse_vector",
                   "format_vector"),
    "lattice_median": ("generalized_medians", "check_regular", "medians_via_meet_join",
                       "check_median_theorem", "median_invariant_failures"),
    "bipartite": ("max_matching", "alternating_reachable"),
    "stable_matching": ("parse_instance", "serialize_instance", "median_stable",
                        "gale_shapley", "stability_report", "all_stable_matchings"),
    "market_clearing": ("parse_market", "median_clearing", "min_clearing_prices",
                        "is_market_clearing", "enumerate_clearing_vectors"),
}
COUNTED = {"order_core": ("meet", "join")}

# calls of the first function made while the second is running are counted
# under the metric named third
NESTED = {
    "bipartite.max_matching": (
        ("market_clearing.min_clearing_prices", "market_clearing.min_clearing_prices.rounds"),
        ("market_clearing.enumerate_clearing_vectors",
         "market_clearing.enumerate_clearing_vectors.candidates"),
    ),
    "order_core.meet": (("lattice_median.check_regular",
                         "lattice_median.check_regular.meet_join_calls"),),
    "order_core.join": (("lattice_median.check_regular",
                         "lattice_median.check_regular.meet_join_calls"),),
}


def _proposals(args, kwargs, ranks):
    """Deferred-acceptance proposals, read off the returned rank vector:
    each proposer proposes down its list as far as its final partner."""
    inst = args[0]
    side = args[1] if len(args) > 1 else kwargs.get("proposing_side", "men")
    if side == "men":
        return sum(r + 1 for r in ranks)
    return sum(inst.women_prefs[inst.men_prefs[m][r]].index(m) + 1 for m, r in enumerate(ranks))


# exact counts read off a call's arguments and result
AFTER = {
    "order_core.explicit_lattice": ("order_core.explicit_lattice.elements",
                                    lambda a, k, r: len(r.elements)),
    "order_core.all_ideals": ("order_core.all_ideals.ideals", lambda a, k, r: len(r)),
    "bipartite.max_matching": ("bipartite.max_matching.edges",
                               lambda a, k, r: sum(len(row) for row in a[2])),
    "stable_matching.gale_shapley": ("stable_matching.gale_shapley.proposals", _proposals),
    "stable_matching.all_stable_matchings": ("stable_matching.all_stable_matchings.found",
                                             lambda a, k, r: len(r)),
    "verify.verify_suite": ("verify.checked", lambda a, k, r: sum(x.checked for x in r)),
}

CLI_WORKLOADS = "smp-cli, market-cli, lattice-cli"


def _layer(module, func, stats, moves):
    units = {"calls": "count", "self_ms": "ms"}
    return [(f"{module}.{func}.{stat}", units.get(stat, "count"), moves) for stat in stats]


LAYER_METRICS = [
    ("cli.dispatch.self_ms", "ms", f"op_ms.p50 on {CLI_WORKLOADS}"),
    *[(f"cli.{cmd}_ms.p50", "ms", f"op_ms.* on {workload}")
      for cmd, workload in (("lattice_medians", "lattice-cli"),
                            ("lattice_check_regular", "lattice-cli"),
                            ("smp_solve", "smp-cli"), ("smp_median", "smp-cli"),
                            ("smp_verify", "smp-cli"), ("market_clear", "market-cli"),
                            ("market_median", "market-cli"), ("market_verify", "market-cli"),
                            ("repro_verify", "verify"))],
    *[(f"verify.{battery}.self_ms", "ms", "op_ms.* on verify")
      for battery in SPANNED["verify"][1:]],
    ("verify.checked", "count", "op_ms.* on verify"),
    *_layer("order_core", "explicit_lattice", ("calls", "self_ms", "elements"),
            "op_ms.* on verify"),
    *_layer("order_core", "birkhoff_round_trip", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("order_core", "join_irreducibles", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("order_core", "chain_partition", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("order_core", "all_ideals", ("calls", "self_ms", "ideals"), "op_ms.* on verify"),
    *_layer("order_core", "poset_from_covers", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("order_core", "parse_vector", ("calls", "self_ms"),
            "ops_per_s on lattice-cli and market-cli"),
    *_layer("order_core", "format_vector", ("calls", "self_ms"),
            "ops_per_s on lattice-cli and market-cli"),
    ("order_core.meet.calls", "count", "op_ms.* on verify and ops_per_s on lattice-cli"),
    ("order_core.join.calls", "count", "op_ms.* on verify and ops_per_s on lattice-cli"),
    *_layer("lattice_median", "generalized_medians", ("calls", "self_ms"),
            "op_ms.* on verify; ops_per_s, op_ms.p90 on lattice-cli"),
    *_layer("lattice_median", "check_regular", ("calls", "self_ms", "meet_join_calls"),
            "op_ms.* on verify; ops_per_s, op_ms.p90 on lattice-cli"),
    *_layer("lattice_median", "medians_via_meet_join", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("lattice_median", "check_median_theorem", ("calls", "self_ms"), "op_ms.* on verify"),
    *_layer("lattice_median", "median_invariant_failures", ("calls", "self_ms"),
            "op_ms.* on verify"),
    *_layer("bipartite", "max_matching", ("calls", "self_ms", "edges"),
            "ops_per_s on market-cli; op_ms.* on verify through tiny graphs"),
    *_layer("bipartite", "alternating_reachable", ("calls", "self_ms"),
            "ops_per_s on market-cli; op_ms.* on verify through tiny graphs"),
    *_layer("stable_matching", "parse_instance", ("self_ms",), "ops_per_s, op_ms.* on smp-cli"),
    *_layer("stable_matching", "serialize_instance", ("self_ms",),
            "op_ms.* on verify; ops_per_s, op_ms.* on smp-cli"),
    *_layer("stable_matching", "median_stable", ("self_ms",), "ops_per_s, op_ms.* on smp-cli"),
    *_layer("stable_matching", "gale_shapley", ("calls", "self_ms", "proposals"),
            "op_ms.* on verify; ops_per_s, op_ms.* on smp-cli"),
    *_layer("stable_matching", "stability_report", ("calls", "self_ms"),
            "op_ms.* on verify; ops_per_s, op_ms.* on smp-cli"),
    *_layer("stable_matching", "all_stable_matchings", ("calls", "self_ms", "found"),
            "op_ms.* on verify"),
    *_layer("market_clearing", "parse_market", ("self_ms",), "ops_per_s on market-cli"),
    *_layer("market_clearing", "median_clearing", ("self_ms",), "ops_per_s on market-cli"),
    *_layer("market_clearing", "min_clearing_prices", ("calls", "self_ms", "rounds"),
            "ops_per_s on market-cli"),
    *_layer("market_clearing", "is_market_clearing", ("calls", "self_ms"),
            "ops_per_s on market-cli"),
    *_layer("market_clearing", "enumerate_clearing_vectors", ("calls", "self_ms", "candidates"),
            "op_ms.* on verify"),
    ("trace.overhead_ratio", "ratio", "none: traced over untraced time of one pass"),
    ("trace.traced_s", "s", "none: base of trace.overhead_ratio"),
    ("trace.untraced_s", "s", "none: base of trace.overhead_ratio"),
]

# metrics whose value must repeat exactly for a given seed
EXACT_SUFFIXES = (".calls", ".proposals", ".rounds", ".edges", ".elements", ".ideals",
                  ".found", ".candidates", ".meet_join_calls", ".checked")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._active = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = Counter()
        self.durations = defaultdict(list)  # per-command latencies, cli.cmd_* only
        self._patched = []

    def _span(self, name, fn):
        nested = NESTED.get(name, ())
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            for outer, metric in nested:
                if self._active[outer]:
                    self.counts[metric] += 1
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                self._active[name] -= 1
            if after:
                self.counts[after[0]] += after[1](args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        nested = NESTED.get(name, ())

        def wrapper(*args):
            self.calls[name] += 1
            for outer, metric in nested:
                if self._active[outer]:
                    self.counts[metric] += 1
            return fn(*args)

        return wrapper

    def install(self):
        wrappers = {}
        for kinds, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module, funcs in kinds.items():
                mod = importlib.import_module(f"latmed.{module}")
                for func in funcs:
                    original = getattr(mod, func)
                    wrappers[id(original)] = original, make(f"{module}.{func}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "latmed" and not mod_name.startswith("latmed."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._patched.append((mod, attr, value))

    def remove(self):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def fold(self):
        """Turn the spans of a finished operation into self times."""
        for name, parent, start, end in self.spans:
            duration = end - start
            self.self_s[name] += duration
            if name.startswith("cli.cmd_"):
                self.durations[name].append(duration)
            if parent >= 0:
                self.self_s[self.spans[parent][0]] -= duration
        self.spans.clear()

    def metrics(self, untraced_s, traced_s):
        values = {"trace.overhead_ratio": traced_s / untraced_s,
                  "trace.traced_s": traced_s, "trace.untraced_s": untraced_s}
        for name, unit, _ in LAYER_METRICS:
            if name in values:
                continue
            key, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = self.calls[key]
            elif stat == "self_ms":
                values[name] = self.self_s[key] * 1000.0
            elif stat == "p50":  # cli.<cmd>_ms.p50 from the cli.cmd_<cmd> spans
                spans = self.durations[f"cli.cmd_{key[len('cli.'):-len('_ms')]}"]
                values[name] = statistics.median(spans) * 1000 if spans else 0.0
            else:
                values[name] = self.counts[name]
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
