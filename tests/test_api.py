"""The public API contract: what ``catalocc`` exports, the functions the
traced benchmark run (``perfbench/tracing.py``) wraps by name, and the CLI
lines the README documents."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import click

import catalocc
from catalocc.cli import main
from catalocc.core import MAX_PRODUCT_WIDTH, MAX_QUERY_WIDTH

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
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


def readme_cli_lines() -> list[str]:
    """Every ``catalocc ...`` line of the shell block in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("catalocc ")]


def test_readme_cli_lines_parse():
    """Each documented line names a real subcommand and real options, gives
    every required parameter and nothing extra.  Only the parser runs, so
    the files it names need not exist and no command is invoked."""
    lines = readme_cli_lines()
    assert len(lines) >= 9  # the block itself was found
    for line in lines:
        ctx = click.Context(main, info_name="catalocc")
        _, rest, _ = main.make_parser(ctx).parse_args(shlex.split(line)[1:])
        name, command, argv = main.resolve_command(ctx, rest)
        sub = click.Context(command, info_name=name, parent=ctx)
        values, extra, _ = command.make_parser(sub).parse_args(argv)
        # an absent value parses to None or to click's unset marker, never to a string
        missing = [p.name for p in command.params
                   if p.required and not isinstance(values.get(p.name), str)]
        assert not extra and not missing, (line, extra, missing)


def test_readme_memory_rule_states_the_two_bounds():
    """The README's memory rule gives one chunk budget, for sampled chunks,
    region bands and sampler widths alike, and one single-query bound."""
    text = README.read_text(encoding="utf-8")
    rule = " ".join(text.split("One rule bounds memory:", 1)[1].split("\n\n", 1)[0].split())
    bounds = re.findall(r"(\d[\d,]*) (?:product entries|cells)|n·k <= (\d[\d,]*)", rule)
    numbers = [int((a or b).replace(",", "")) for a, b in bounds]
    assert numbers == [MAX_PRODUCT_WIDTH] * 3 + [MAX_QUERY_WIDTH], rule


def test_no_unused_imports_in_the_package():
    """Every name a package module imports is used in it or listed in its ``__all__``."""
    unused = []
    for path in sorted((ROOT / "src" / "catalocc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: f"{path.name}:{alias.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{where} {name}" for name, where in imported.items() if name not in used]
    assert not unused
