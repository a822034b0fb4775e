"""Every latmed name the layer script of scripts/bench.py calls must exist."""

import ast
import importlib
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def layers_source():
    spec = spec_from_file_location("bench", BENCH)
    bench = module_from_spec(spec)
    spec.loader.exec_module(bench)  # defines constants and functions only
    return bench.LAYERS


def test_layer_names_resolve():
    source = layers_source()
    compile(source, "LAYERS", "exec")
    tree = ast.parse(source)
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("latmed"):
            for alias in node.names:
                if node.module == "latmed":  # a module, bound to the name it is used by
                    aliases[alias.asname or alias.name] = f"latmed.{alias.name}"
                elif not hasattr(importlib.import_module(node.module), alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert set(aliases.values()) == {"latmed.bipartite", "latmed.lattice_median",
                                     "latmed.market_clearing", "latmed.order_core",
                                     "latmed.stable_matching"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            module = aliases[node.value.id]
            if not hasattr(importlib.import_module(module), node.attr):
                missing.append(f"{module}.{node.attr}")
    assert missing == []
