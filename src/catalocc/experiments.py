"""Reproduction harnesses: bundled demo instances, the catalyzable-pair
generator, the success-probability curve, and the regression fixture suite.

The demo instances are the classic worked examples of entanglement
catalysis: the Jonathan-Plenio pair with its standard catalyst, the shifted
target that forces consumption, a time-reverse subcatalyst tuple, and the
mutual-catalysis instance behind the region scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalysis import (
    RegionGrid,
    TransformQuery,
    catalyst_bound_3x3,
    classify_catalyst,
    is_general_catalyst,
    is_time_reverse,
    locc_feasible,
    mutual_region_scan,
    subcatalyst_forced,
)
from .core import (
    DEFAULT_TOL,
    CatalystKind,
    OscVector,
    Relation,
    Tolerance,
    _chunk_rows,
    first_violations,
    majorizes_check,
    make_osc,
    partial_sums,
    product_spectra,
    tensor_spectrum,
)
from .errors import CataloccError, DomainError, GenerationExhausted
from .rng import CTX_CURVE, CTX_PAIRS, derive_seed, substream
from .search import (
    SearchConfig,
    SearchStatus,
    _scalar_leq,
    _simplex_points,
    general_catalyst_exists,
    monte_carlo_standard_catalyst,
)

__all__ = [
    "JP_SOURCE",
    "JP_TARGET",
    "JP_TARGET_SHIFTED",
    "JP_CATALYST",
    "JP_CONSUMED_RESIDUAL",
    "TR_SOURCE",
    "TR_TARGET",
    "TR_CATALYST",
    "TR_RESIDUAL",
    "MUTUAL_SOURCE",
    "MUTUAL_TARGET",
    "MUTUAL_CATALYST",
    "MUTUAL_RESIDUAL_POINT",
    "mutual_demo_inequalities",
    "PairGenSpec",
    "CurvePoint",
    "FixtureResult",
    "SuiteReport",
    "generate_catalyzable_pairs",
    "success_probability_curve",
    "reference_suite",
    "write_pairs_jsonl",
    "load_pairs_jsonl",
    "write_curve_csv",
    "write_region_csv",
]

# Jonathan-Plenio: psi cannot reach phi directly, yet (0.6, 0.4) catalyzes it
# as a standard catalyst.  The shifted target resists that catalyst unless
# some of its entanglement is consumed (residual (2/3, 1/3) works).
JP_SOURCE = OscVector((0.4, 0.4, 0.1, 0.1))
JP_TARGET = OscVector((0.5, 0.25, 0.25, 0.0))
JP_TARGET_SHIFTED = OscVector((0.48, 0.27, 0.25, 0.0))
JP_CATALYST = OscVector((0.6, 0.4))
JP_CONSUMED_RESIDUAL = OscVector((2.0 / 3.0, 1.0 / 3.0))

# Time-reverse subcatalyst demo: the two product spectra coincide, so the
# assisted transformation runs in both directions; one bit of catalyst
# entanglement is consumed.
TR_SOURCE = OscVector((1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0))
TR_TARGET = OscVector((1.0 / 6.0,) * 4 + (1.0 / 12.0,) * 4)
TR_CATALYST = OscVector((0.25,) * 4)
TR_RESIDUAL = OscVector((0.5, 0.5))

# Mutual catalysis: two incomparable pairs assisting each other; the region
# scan over (x1', x2') reproduces the feasible residual set, and
# mutual_demo_inequalities is its closed-form cross-check.
MUTUAL_SOURCE = OscVector((0.5, 0.26, 0.24))
MUTUAL_TARGET = OscVector((0.49, 0.48, 0.03))
MUTUAL_CATALYST = OscVector((0.62, 0.3, 0.08))
MUTUAL_RESIDUAL_POINT = (0.81, 0.10, 0.09)


def mutual_demo_inequalities(x1p: float, x2p: float) -> bool:
    """Hard-coded inequality system for the bundled mutual-catalysis demo.

    Specialization of the residual feasibility system to the demo instance
    psi = (0.5, 0.26, 0.24), phi = (0.49, 0.48, 0.03), chi = (0.62, 0.3, 0.08):
    three binding prefix inequalities, three ordering assumptions on the
    residual products, and a strict cap x1' + x2' < 0.92 that keeps the
    (chi, chi') pair incomparable.  Evaluated exactly, with no tolerance.
    """
    return (
        x1p >= 31.0 / 49.0
        and 0.97 * x1p + 0.49 * x2p >= 0.6212
        and 0.97 * (x1p + x2p) >= 0.77
        and 0.48 * x1p >= 0.49 * x2p
        and 0.49 * x1p + 0.97 * x2p >= 0.49
        and 17.0 * x1p + 16.0 * x2p <= 16.0
        and x1p + x2p < 0.92
    )


_GEN_BATCH = 8192
# Abort thresholds for rejection sampling: measured acceptance below
# _MIN_RATE after _RATE_CHECK_MIN candidates means the instance family has
# (almost) no catalyzable pairs and looping further is pointless.
_MIN_RATE = 1e-4
_RATE_CHECK_MIN = 200_000


@dataclass(frozen=True)
class PairGenSpec:
    """Parameters for generating certifiably catalyzable state pairs."""

    seed: int
    n: int = 8
    k: int = 4
    count: int = 5000
    max_rejections: int | None = None  # default: max(200_000, 2_000 * count)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k >= self.n:
            raise ValueError("catalyst dimension k must be smaller than n")
        _chunk_rows(self.n, self.k)  # refuses n·k > MAX_PRODUCT_WIDTH

    @property
    def rejection_budget(self) -> int:
        if self.max_rejections is not None:
            return self.max_rejections
        return max(_RATE_CHECK_MIN, 2_000 * self.count)


@dataclass(frozen=True)
class CurvePoint:
    """Success fraction of the Monte Carlo search at one trial budget."""

    big_number: int
    success_fraction: float
    pairs: int
    seed: int


def generate_catalyzable_pairs(
    spec: PairGenSpec, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[TransformQuery, OscVector]]:
    """Rejection-sample `count` pairs (psi, phi) with a catalyst certificate.

    psi, phi are drawn from the sorted flat-Dirichlet distribution on the
    (n-1)-simplex and chi on the (k-1)-simplex; a triple is accepted iff
    psi does not convert to phi directly but psi ⊗ chi ≺ phi ⊗ chi.  Each
    batch of candidates has its own substream, drawn and tested by the
    spectrum kernel one chunk at a time; every accepted pair is re-checked
    by a scalar prefix loop before it is returned with its witness chi.

    Raises :class:`GenerationExhausted` when the rejection budget runs out
    or the measured acceptance rate falls below 1e-4 (e.g. for two-level
    sources, which admit no standard catalyst at all).
    """
    n, k = spec.n, spec.k
    eps = tol.eps_major
    out: list[tuple[TransformQuery, OscVector]] = []
    tried = 0
    batch_index = 0
    cols = 2 * n + k
    chunk = _chunk_rows(n, k)
    while len(out) < spec.count:
        if tried >= spec.rejection_budget:
            raise GenerationExhausted(
                f"budget of {spec.rejection_budget} candidates exhausted: "
                f"{len(out)}/{spec.count} pairs after {tried} draws"
            )
        if tried >= _RATE_CHECK_MIN and len(out) < _MIN_RATE * tried:
            raise GenerationExhausted(
                f"acceptance rate {len(out)/tried:.2e} below {_MIN_RATE:.0e} "
                f"after {tried} draws ({len(out)} accepted); giving up"
            )
        rng = substream(spec.seed, CTX_PAIRS, batch_index)
        batch_index += 1
        for off in range(0, _GEN_BATCH, chunk):
            if len(out) == spec.count:
                break
            e = -np.log1p(-rng.random((min(chunk, _GEN_BATCH - off), cols)))
            psi_rows = _simplex_points(e[:, :n])
            phi_rows = _simplex_points(e[:, n : 2 * n])
            chi_rows = _simplex_points(e[:, 2 * n :])

            blocked = first_violations(psi_rows, phi_rows, eps) > 0
            # held until the next chunk's rows exist, so their pages are not refaulted
            lhs, rhs = product_spectra(psi_rows, chi_rows), product_spectra(phi_rows, chi_rows)
            assisted = first_violations(lhs, rhs, eps) == 0
            for idx in np.flatnonzero(blocked & assisted)[: spec.count - len(out)]:
                psi = OscVector(tuple(float(v) for v in psi_rows[idx]))
                phi = OscVector(tuple(float(v) for v in phi_rows[idx]))
                chi = OscVector(tuple(float(v) for v in chi_rows[idx]))
                query = TransformQuery(psi, phi)
                _certify_pair(query, chi, tol)
                out.append((query, chi))
        tried += _GEN_BATCH
    return out


def _certify_pair(query: TransformQuery, chi: OscVector, tol: Tolerance) -> None:
    """Scalar certificate: psi must not reach phi, psi ⊗ chi must reach phi ⊗ chi."""
    if _scalar_leq(query.psi, query.phi, (1.0,), tol.eps_major):
        raise DomainError("pair certificate failed: direct transformation feasible")
    if not _scalar_leq(query.psi, query.phi, chi, tol.eps_major):
        raise DomainError("pair certificate failed: witness is not a standard catalyst")


def success_probability_curve(
    pairs: Sequence[tuple[TransformQuery, OscVector]] | Sequence[TransformQuery],
    k: int,
    m_values: Sequence[int],
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
    workers: int = 1,
) -> list[CurvePoint]:
    """Fraction of pairs the Monte Carlo search solves within each budget.

    Each pair gets its own derived trial stream and is searched once with
    the largest budget; smaller budgets reuse the prefix of the same stream,
    so the curve is nondecreasing in M by construction.  Pairs are searched
    one after another; ``workers`` is passed to each search, so it splits
    the trial blocks of budgets above TRIAL_BLOCK and never changes the
    points.
    """
    queries = [p[0] if isinstance(p, tuple) else p for p in pairs]
    ms = [int(m) for m in m_values]
    if not queries or not ms or min(ms) < 1:
        raise ValueError("need at least one pair and positive trial budgets")
    m_max = max(ms)

    results = []
    for i, query in enumerate(queries):
        cfg = SearchConfig(k=k, big_number=m_max, seed=derive_seed(seed, CTX_CURVE, i), tol=tol)
        outcome = monte_carlo_standard_catalyst(query, cfg, workers)
        results.append(outcome.trials_used if outcome.status is SearchStatus.SUCCESS else None)

    points = []
    for m in ms:
        hits = sum(1 for r in results if r is not None and r <= m)
        points.append(
            CurvePoint(big_number=m, success_fraction=hits / len(queries), pairs=len(queries), seed=seed)
        )
    return points


# ---------------------------------------------------------------------------
# Regression fixture suite


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[FixtureResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[FixtureResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _sums(v: OscVector) -> str:
    return "(" + ", ".join(f"{s:.6g}" for s in partial_sums(v)) + ")"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def reference_suite(tol: Tolerance = DEFAULT_TOL) -> SuiteReport:
    """Run the bundled worked-example regressions; all are expected to pass."""
    jp_query = TransformQuery(JP_SOURCE, JP_TARGET)
    shifted_query = TransformQuery(JP_SOURCE, JP_TARGET_SHIFTED)
    tr_query = TransformQuery(TR_SOURCE, TR_TARGET)
    mutual_query = TransformQuery(MUTUAL_SOURCE, MUTUAL_TARGET)

    def fx_constructor() -> str:
        rebuilt = make_osc((0.25, 0.5, 0.25), tol)
        _expect(rebuilt.coeffs == (0.5, 0.25, 0.25), "sorting failed")
        kept = make_osc(JP_TARGET.coeffs, tol)
        _expect(kept.coeffs == JP_TARGET.coeffs, "trailing zero not preserved")
        return f"make_osc keeps order and trailing zeros: {kept.coeffs}"

    def fx_direct_blocked() -> str:
        verdict = majorizes_check(JP_SOURCE, JP_TARGET, tol)
        _expect(verdict.relation is Relation.INCOMPARABLE, f"got {verdict.relation}")
        _expect(verdict.first_violation == 2, f"violation at {verdict.first_violation}")
        _expect(not locc_feasible(jp_query, tol), "direct transformation must be blocked")
        return f"psi {_sums(JP_SOURCE)} vs phi {_sums(JP_TARGET)}: blocked at l=2"

    def fx_standard_catalyst() -> str:
        lhs = tensor_spectrum(JP_SOURCE, JP_CATALYST)
        rhs = tensor_spectrum(JP_TARGET, JP_CATALYST)
        verdict = majorizes_check(lhs, rhs, tol)
        _expect(verdict.feasible, "not feasible")
        cls = classify_catalyst(jp_query, JP_CATALYST, JP_CATALYST, tol)
        _expect(cls.kind is CatalystKind.STANDARD, f"got {cls.kind}")
        return f"psi⊗chi {_sums(lhs)} ≺ phi⊗chi {_sums(rhs)}; standard"

    def fx_product_spectrum() -> str:
        spectrum = tensor_spectrum(JP_SOURCE, JP_CATALYST)
        expected = (0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04)
        _expect(
            np.allclose(spectrum.coeffs, expected, rtol=0.0, atol=1e-15),
            f"spectrum {spectrum.coeffs}",
        )
        return f"product spectrum sums {_sums(spectrum)}"

    def fx_target_partial_sums() -> str:
        sums = partial_sums(JP_TARGET)
        _expect(
            np.allclose(sums, (0.5, 0.75, 1.0, 1.0), rtol=0.0, atol=1e-15),
            f"sums {sums}",
        )
        return f"partial sums {_sums(JP_TARGET)}"

    def fx_shifted_needs_consumption() -> str:
        rhs_same = tensor_spectrum(JP_TARGET_SHIFTED, JP_CATALYST)
        lhs = tensor_spectrum(JP_SOURCE, JP_CATALYST)
        _expect(
            majorizes_check(lhs, rhs_same, tol).relation is Relation.INCOMPARABLE,
            "chi should fail as a standard catalyst for the shifted target",
        )
        rhs = tensor_spectrum(JP_TARGET_SHIFTED, JP_CONSUMED_RESIDUAL)
        verdict = majorizes_check(lhs, rhs, tol)
        _expect(verdict.relation is Relation.MAJORIZED_BY, f"got {verdict.relation}")
        cls = classify_catalyst(shifted_query, JP_CATALYST, JP_CONSUMED_RESIDUAL, tol)
        _expect(cls.kind is CatalystKind.SUB, f"got {cls.kind}")
        report = is_general_catalyst(shifted_query, JP_CATALYST, tol)
        _expect(report.feasible, "general-catalyst reduction should accept chi")
        return f"consumed residual works: {_sums(lhs)} ≺ {_sums(rhs)}; sub"

    def fx_separable_ancilla_useless() -> str:
        report = is_general_catalyst(jp_query, OscVector.separable(1), tol)
        _expect(not report.feasible, "separable ancilla cannot catalyze")
        return "psi ⊗ (1) is psi itself: infeasible"

    def fx_time_reverse() -> str:
        lhs = tensor_spectrum(TR_SOURCE, TR_CATALYST)
        rhs = tensor_spectrum(TR_TARGET, TR_RESIDUAL)
        _expect(lhs.coeffs == rhs.coeffs, "spectra must coincide exactly")
        _expect(is_time_reverse(tr_query, TR_CATALYST, TR_RESIDUAL, tol), "not time-reverse")
        cls = classify_catalyst(tr_query, TR_CATALYST, TR_RESIDUAL, tol)
        _expect(cls.kind is CatalystKind.TIME_REVERSE, f"got {cls.kind}")
        _expect(cls.entropy_label(tol.eps_entropy) is CatalystKind.SUB, "entropy label")
        drop = cls.entropy_before - cls.entropy_after
        _expect(abs(drop - 1.0) <= 1e-12, f"entropy drop {drop}")
        return f"identical spectra {_sums(lhs)}; one bit consumed"

    def fx_mutual_bound() -> str:
        bound = catalyst_bound_3x3(mutual_query, tol)
        _expect(abs(bound - 0.98) <= 1e-12, f"bound {bound}")
        return f"universal top-coefficient bound {bound:.6g}"

    def fx_mutual_forced_hypothesis_silent() -> str:
        forced = subcatalyst_forced(
            mutual_query, MUTUAL_CATALYST, OscVector(MUTUAL_RESIDUAL_POINT), tol
        )
        _expect(forced is False, "alpha3 > beta3 here, criterion must be silent")
        return "forced-subcatalyst criterion silent (alpha_n > beta_n)"

    def fx_mutual_point() -> str:
        residual = OscVector(MUTUAL_RESIDUAL_POINT)
        lhs = tensor_spectrum(MUTUAL_SOURCE, MUTUAL_CATALYST)
        rhs = tensor_spectrum(MUTUAL_TARGET, residual)
        verdict = majorizes_check(lhs, rhs, tol)
        _expect(verdict.relation is Relation.MAJORIZED_BY, f"got {verdict.relation}")
        _expect(mutual_demo_inequalities(0.81, 0.10), "system must accept (0.81, 0.10)")
        _expect(not mutual_demo_inequalities(0.60, 0.10), "system must reject (0.60, 0.10)")
        return f"residual (0.81, 0.1, 0.09): {_sums(lhs)} ≺ {_sums(rhs)}"

    def fx_mutual_region() -> str:
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 400, tol)
        _expect(grid.feasible_count > 0, "region must be nonempty")
        _expect(grid.feasible_at(0.81, 0.10), "cell containing (0.81, 0.10) must be feasible")
        ii, _ = np.nonzero(grid.cells)
        min_x1 = (ii.min() + 0.5) / grid.resolution
        _expect(min_x1 >= 31.0 / 49.0 - 1e-3, f"min feasible x1' {min_x1}")
        return f"{grid.feasible_count} feasible cells of {grid.valid_count} valid"

    def fx_maximally_entangled_ancilla() -> str:
        _expect(general_catalyst_exists(jp_query, 4, tol), "k >= n must always succeed")
        _expect(general_catalyst_exists(shifted_query, 2, tol), "k=2 reduction should accept")
        return "maximally entangled ancilla decision procedure agrees"

    fixtures: list[tuple[str, Callable[[], str]]] = [
        ("ordered-constructor", fx_constructor),
        ("jp-direct-transform-blocked", fx_direct_blocked),
        ("jp-standard-catalyst", fx_standard_catalyst),
        ("jp-product-spectrum", fx_product_spectrum),
        ("jp-target-partial-sums", fx_target_partial_sums),
        ("jp-shifted-target-needs-consumption", fx_shifted_needs_consumption),
        ("separable-ancilla-useless", fx_separable_ancilla_useless),
        ("time-reverse-subcatalyst", fx_time_reverse),
        ("mutual-demo-universal-bound", fx_mutual_bound),
        ("mutual-demo-forced-criterion-silent", fx_mutual_forced_hypothesis_silent),
        ("mutual-demo-chosen-point", fx_mutual_point),
        ("mutual-demo-region-scan", fx_mutual_region),
        ("maximally-entangled-ancilla-reduction", fx_maximally_entangled_ancilla),
    ]

    results = []
    for name, fn in fixtures:
        try:
            details = fn()
            results.append(FixtureResult(name, True, details))
        except AssertionError as exc:
            results.append(FixtureResult(name, False, str(exc)))
    return SuiteReport(tuple(results))


# ---------------------------------------------------------------------------
# File formats


def write_pairs_jsonl(path: str | Path, pairs, seed: int) -> Path:
    """One JSON object per line: psi, phi, witness, seed, index."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for index, (query, witness) in enumerate(pairs):
            fh.write(
                json.dumps(
                    {
                        "index": index,
                        "seed": seed,
                        "psi": list(query.psi),
                        "phi": list(query.phi),
                        "witness": list(witness),
                    }
                )
                + "\n"
            )
    return path


def load_pairs_jsonl(
    path: str | Path, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[TransformQuery, OscVector]]:
    """Read a pair archive and re-verify every certificate."""
    pairs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                query = TransformQuery(make_osc(row["psi"], tol), make_osc(row["phi"], tol))
                witness = make_osc(row["witness"], tol)
                _certify_pair(query, witness, tol)
            except (KeyError, TypeError, ValueError, CataloccError) as exc:
                raise DomainError(f"{path}:{line_no}: invalid pair record: {exc}") from exc
            pairs.append((query, witness))
    return pairs


def write_curve_csv(path: str | Path, points: Iterable[CurvePoint]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("M,success_fraction,pairs,seed\n")
        for p in points:
            fh.write(f"{p.big_number},{p.success_fraction!r},{p.pairs},{p.seed}\n")
    return path


def write_region_csv(path: str | Path, grid: RegionGrid) -> Path:
    """One row per cell: centre coordinates, then the valid and feasible flags.

    Both axes share the ``resolution`` cell-centre strings, and each cell's
    flags are looked up from 2 * valid + feasible, so no float is formatted
    per cell.
    """
    path = Path(path)
    res = grid.resolution
    centres = [repr((i + 0.5) / res) for i in range(res)]
    flags = (",0,0\n", ",0,1\n", ",1,0\n", ",1,1\n")
    codes = 2 * grid.constraint_mask.astype(np.int8) + grid.cells
    with path.open("w", encoding="utf-8") as fh:
        fh.write("x1p,x2p,valid,feasible\n")
        for x1, row in zip(centres, codes):
            prefix = x1 + ","
            fh.write("".join([prefix + x2 + flags[c] for x2, c in zip(centres, row.tolist())]))
    return path
