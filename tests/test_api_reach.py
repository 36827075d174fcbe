"""Guard on the design aim that no API exists only for tests: every
module-level function and class and every non-dunder method in
``src/swguide`` must be named by code in ``src/``, ``scripts/`` or
``bench/``, or be a tape op that the benchmark's tracer wraps
(``bench/spans.OPS``)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "scripts", "bench")


def _definitions():
    """(qualified name, name) of each definition the guard covers."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((ROOT / "src" / "swguide").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _used_names() -> set[str]:
    """Every identifier that the code under CALLER_DIRS reads or imports."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def _traced_ops() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.OPS


def test_every_definition_is_reached_from_outside_the_tests():
    reached = _used_names() | set(_traced_ops())
    unreached = [qualified for qualified, name in _definitions() if name not in reached]
    assert unreached == []
