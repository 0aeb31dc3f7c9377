"""Command-line front-end.

A thin shell over the library.  States are JSON files
{"name": ..., "coeffs": [...]}; coefficients are read as decimal literals
and converted to binary floats exactly once.  Commands print
machine-readable JSON under the exit-code contract 0 = feasible / success,
1 = infeasible / failure, 2 = error, which the group alone applies: a
command returns ``(answer, feasible)``, and the group prints the answer as
the last stdout line and exits 0 or 1.  A ``ValueError``,
``CataloccError``, ``OSError`` or click usage error anywhere prints one
``error: ...`` line and exits 2; any other exception (an internal fault)
keeps its traceback.  File-writing commands drop a run manifest next to
each output so results can be reproduced from the manifest alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .catalysis import TransformQuery, classify_catalyst, mutual_region_scan
from .core import (
    CatalystClass,
    OscVector,
    Tolerance,
    majorizes_check,
    make_osc,
    partial_sums,
)
from .errors import CataloccError, NotACatalyst
from .experiments import (
    PairGenSpec,
    generate_catalyzable_pairs,
    load_pairs_jsonl,
    reference_suite,
    success_probability_curve,
    write_curve_csv,
    write_pairs_jsonl,
    write_region_csv,
)
from .search import (
    SearchConfig,
    SearchStatus,
    general_catalyst_exists,
    monte_carlo_standard_catalyst,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2

# What a command returns: its JSON answer, and whether it is feasible (exit 0).
Answer = tuple[dict, bool]


@dataclass
class RunSettings:
    tol: Tolerance
    seed: int
    out: Path
    threads: int


class _Main(click.Group):
    """The one exit door: bad input to any command exits 2, and a command's
    ``(answer, feasible)`` prints as one JSON line and exits 0 or 1."""

    def make_context(self, *args, **kwargs) -> click.Context:
        return _exit_on_bad_input(super().make_context, *args, **kwargs)

    def invoke(self, ctx: click.Context) -> NoReturn:
        answer, feasible = _exit_on_bad_input(super().invoke, ctx)
        click.echo(json.dumps(answer))
        sys.exit(EXIT_FEASIBLE if feasible else EXIT_INFEASIBLE)


def _exit_on_bad_input(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (ValueError, CataloccError, OSError, click.UsageError) as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_ERROR)


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _load_state(path: str, tol: Tolerance) -> tuple[str, OscVector]:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or "coeffs" not in raw:
            raise CataloccError('expected a JSON object with a "coeffs" array')
        return str(raw.get("name", p.stem)), make_osc(raw["coeffs"], tol)
    except (OSError, ValueError, TypeError, CataloccError) as exc:
        raise CataloccError(f"{path}: {exc}") from exc


def _write_manifest(settings: RunSettings, command: str, parameters: dict,
                    inputs: dict[str, Path], outputs: list[Path]) -> Path:
    """Reproducibility record written alongside every generated file."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "seed": settings.seed,
        "tolerance": dataclasses.asdict(settings.tol),
        "tool": "catalocc",
        "version": __version__,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = settings.out / f"{command}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _classification_json(cls: CatalystClass | None, tol: Tolerance) -> dict | None:
    if cls is None:
        return None
    return {
        "kind": cls.kind.value,
        "entropy_before": cls.entropy_before,
        "entropy_after": cls.entropy_after,
        "entropy_kind": cls.entropy_label(tol.eps_entropy).value,
    }


@click.group(cls=_Main, no_args_is_help=False)
@click.version_option(version=__version__, prog_name="catalocc")
@click.option("--tol-major", type=float, default=1e-12, show_default=True,
              help="Slack for partial-sum comparisons.")
@click.option("--tol-norm", type=float, default=1e-9, show_default=True,
              help="Slack for coefficient normalization.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for all randomized commands.")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=Path("."),
              help="Directory for generated files.  [default: .]")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Threads per Monte Carlo search (budgets above 4096); curve scans on one "
                   "thread.  Never changes results.")
@click.pass_context
def main(ctx: click.Context, tol_major: float, tol_norm: float, seed: int,
         out: Path, threads: int) -> None:
    """Feasibility of entanglement-assisted LOCC transformations."""
    tol = Tolerance(eps_major=tol_major, eps_norm=tol_norm)
    if threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = RunSettings(tol=tol, seed=seed, out=out, threads=threads)


@main.command()
@click.argument("psi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def check(settings: RunSettings, psi_file: str, phi_file: str) -> Answer:
    """Decide direct LOCC convertibility of PSI_FILE into PHI_FILE."""
    psi_name, psi = _load_state(psi_file, settings.tol)
    phi_name, phi = _load_state(phi_file, settings.tol)
    verdict = majorizes_check(psi, phi, settings.tol)
    return {
        "psi": psi_name,
        "phi": phi_name,
        "relation": verdict.relation.value,
        "first_violation": verdict.first_violation,
        "feasible": verdict.feasible,
        "psi_partial_sums": list(partial_sums(psi)),
        "phi_partial_sums": list(partial_sums(phi)),
    }, verdict.feasible


@main.command()
@click.argument("psi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--chi", "chi_file", type=click.Path(exists=True, dir_okay=False),
              help="Candidate catalyst state file.")
@click.option("--k", type=int, help="Catalyst dimension to search or decide for.")
@click.option("--mode", type=click.Choice(["general", "standard"]), default="general",
              show_default=True, help="Allow any residual, or require chi' = chi.")
@click.option("-M", "--M", "--big-number", "big_number", type=int, default=10000,
              show_default=True, help="Monte Carlo trial budget (standard mode with --k).")
@click.pass_obj
def catalyze(settings: RunSettings, psi_file: str, phi_file: str,
             chi_file: str | None, k: int | None, mode: str, big_number: int) -> Answer:
    """Test a given catalyst, or search/decide for a k x k one."""
    if (chi_file is None) == (k is None):
        raise ValueError("provide exactly one of --chi FILE or --k K")
    _, psi = _load_state(psi_file, settings.tol)
    _, phi = _load_state(phi_file, settings.tol)
    query = TransformQuery(psi, phi)
    tol = settings.tol
    if chi_file is not None:
        _, chi = _load_state(chi_file, tol)
        # A general catalyst may be consumed completely, so general mode
        # tests the separable residual (the complete-consumption reduction).
        residual = chi if mode == "standard" else OscVector.separable(len(chi))
        try:
            cls = classify_catalyst(query, chi, residual, tol)
        except NotACatalyst:
            residual = cls = None
        return {
            "mode": mode,
            "feasible": cls is not None,
            "catalyst": list(chi),
            "residual": list(residual) if residual is not None else None,
            "classification": _classification_json(cls, tol),
        }, cls is not None
    if mode == "general":
        exists = general_catalyst_exists(query, k, tol)
        return {"mode": mode, "k": k, "exists": exists}, exists
    cfg = SearchConfig(k=k, big_number=big_number, seed=settings.seed, tol=tol)
    outcome = monte_carlo_standard_catalyst(query, cfg, workers=settings.threads)
    return {
        "mode": mode,
        "k": k,
        "status": outcome.status.value,
        "catalyst": list(outcome.catalyst) if outcome.catalyst is not None else None,
        "trials_used": outcome.trials_used,
        "big_number": big_number,
        "seed": outcome.seed,
    }, outcome.status is SearchStatus.SUCCESS


@main.command()
@click.argument("psi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("chi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--resolution", type=int, default=1000, show_default=True,
              help="Grid cells per axis.")
@click.pass_obj
def region(settings: RunSettings, psi_file: str, phi_file: str, chi_file: str,
           resolution: int) -> Answer:
    """Scan the residual simplex for mutual-catalysis feasibility."""
    _, psi = _load_state(psi_file, settings.tol)
    _, phi = _load_state(phi_file, settings.tol)
    _, chi = _load_state(chi_file, settings.tol)
    grid = mutual_region_scan(psi, phi, chi, resolution, settings.tol)
    csv_path = write_region_csv(settings.out / "region.csv", grid)
    params = {"resolution": resolution, "psi": list(psi), "phi": list(phi), "chi": list(chi)}
    inputs = {"psi": Path(psi_file), "phi": Path(phi_file), "chi": Path(chi_file)}
    _write_manifest(settings, "region", params, inputs, [csv_path])
    return {
        "resolution": resolution,
        "valid_cells": grid.valid_count,
        "feasible_cells": grid.feasible_count,
        "csv": str(csv_path),
    }, grid.feasible_count > 0


@main.command()
@click.option("--n", type=int, default=8, show_default=True, help="State dimension.")
@click.option("--k", type=int, default=4, show_default=True, help="Catalyst dimension.")
@click.option("--count", type=int, default=5000, show_default=True, help="Pairs to generate.")
@click.option("--max-rejections", type=int, default=None,
              help="Candidate budget for rejection sampling.")
@click.pass_obj
def genpairs(settings: RunSettings, n: int, k: int, count: int,
             max_rejections: int | None) -> Answer:
    """Generate state pairs that certifiably admit a k x k standard catalyst."""
    spec = PairGenSpec(seed=settings.seed, n=n, k=k, count=count, max_rejections=max_rejections)
    pairs = generate_catalyzable_pairs(spec, settings.tol)
    jsonl = write_pairs_jsonl(settings.out / "pairs.jsonl", pairs, settings.seed)
    params = {"n": n, "k": k, "count": count, "max_rejections": spec.rejection_budget}
    _write_manifest(settings, "genpairs", params, {}, [jsonl])
    return {"count": len(pairs), "jsonl": str(jsonl)}, True


@main.command()
@click.option("--pairs", "pairs_file", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Pair archive written by genpairs.")
@click.option("--k", type=int, default=4, show_default=True, help="Catalyst dimension.")
@click.option("--m-values", default="1,5,10,25,50,100", show_default=True,
              help="Comma-separated trial budgets.")
@click.pass_obj
def curve(settings: RunSettings, pairs_file: str, k: int, m_values: str) -> Answer:
    """Success probability of the Monte Carlo search as a function of budget."""
    ms = [int(v) for v in m_values.split(",") if v.strip()]
    pairs = load_pairs_jsonl(pairs_file, settings.tol)
    points = success_probability_curve(
        pairs, k, ms, settings.seed, settings.tol, workers=settings.threads
    )
    csv_path = write_curve_csv(settings.out / "curve.csv", points)
    params = {"k": k, "m_values": ms, "pairs_file": pairs_file}
    _write_manifest(settings, "curve", params, {"pairs": Path(pairs_file)}, [csv_path])
    return {
        "points": [{"M": p.big_number, "success_fraction": p.success_fraction} for p in points],
        "pairs": points[0].pairs if points else 0,
        "csv": str(csv_path),
    }, True


@main.command()
@click.pass_obj
def fixtures(settings: RunSettings) -> Answer:
    """Run the bundled worked-example regression suite."""
    report = reference_suite(settings.tol)
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        click.echo(f"{status} {result.name}: {result.details}")
    json_path = settings.out / "fixtures.json"
    rows = [dataclasses.asdict(r) for r in report.results]
    json_path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    _write_manifest(settings, "fixtures", {}, {}, [json_path])
    return {"passed": report.passed, "total": len(report.results),
            "failures": len(report.failures)}, report.passed


if __name__ == "__main__":
    main()
