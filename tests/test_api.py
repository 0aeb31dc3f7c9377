"""The public API contract: what ``catalocc`` exports, and the functions the
traced benchmark run (``perfbench/tracing.py``) wraps by name."""

import ast
import importlib
from pathlib import Path

import catalocc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
REMOVED = (
    "sample_sorted_simplex",
    "exhaustive_catalyst_oracle",
    "no_standard_catalyst_2xn",
    "mutual_demo_inequalities",
)


def traced_functions() -> dict[str, tuple[str, ...]]:
    """The ``TRACED`` table of the tracer, read from its source."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_exported_name_resolves():
    missing = [name for name in catalocc.__all__ if not hasattr(catalocc, name)]
    assert not missing
    assert len(set(catalocc.__all__)) == len(catalocc.__all__)


def test_removed_names_stay_out_of_the_api():
    assert not set(REMOVED) & set(catalocc.__all__)


def test_traced_functions_exist():
    traced = traced_functions()
    assert traced  # the table itself was found and is nonempty
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"catalocc.{module}"), name, None))
    ]
    assert not missing
