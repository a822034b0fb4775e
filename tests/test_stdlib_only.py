"""The runtime stays pure standard library (pyproject: dependencies = [])."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "latmed"


def test_library_imports_only_the_standard_library():
    # read, not imported: a missing third-party module is named, not raised
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: exempt
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
