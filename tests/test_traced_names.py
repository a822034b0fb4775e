"""Every latmed function the benchmark tracer wraps must still exist."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.tracer import COUNTED, SPANNED  # noqa: E402


def test_traced_names_resolve():
    missing = [
        f"{module}.{name}"
        for table in (SPANNED, COUNTED)
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"latmed.{module}"), name, None))
    ]
    assert missing == []
