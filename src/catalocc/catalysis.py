"""Catalyst-assisted LOCC transformations.

A transformation psi -> phi that Nielsen's criterion forbids can become
feasible with an ancilla: psi ⊗ chi ≺ phi ⊗ chi' for some residual chi'.
``chi`` is a *general* catalyst when any residual is allowed, *standard*
when chi' = chi, a *supercatalyst* when the residual gained entanglement
and a *subcatalyst* when some catalyst entanglement was consumed.  This
module implements the feasibility predicates, the closed-form conditions
known for small dimensions, catalyst classification, time-reverse
detection, and the mutual-catalysis region scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    MAX_PRODUCT_WIDTH,
    CatalystClass,
    CatalystKind,
    OscVector,
    Relation,
    Tolerance,
    entropy_bits,
    first_violations,
    majorizes_check,
    padded_array,
    product_spectra,
)
from .errors import DegenerateTarget, DomainError, NotACatalyst

__all__ = [
    "TransformQuery",
    "CatalystReport",
    "RegionGrid",
    "locc_feasible",
    "is_general_catalyst",
    "general_catalyst_2x2",
    "min_residual_2x2",
    "catalyst_bound_3x3",
    "subcatalyst_forced",
    "general_catalyst_2to3",
    "classify_catalyst",
    "is_time_reverse",
    "mutual_region_scan",
]

# Largest grid accepted by mutual_region_scan; its two boolean masks grow
# with resolution**2 (about 11 MB traced at resolution 2000).
MAX_RESOLUTION = 4000


@dataclass(frozen=True)
class TransformQuery:
    """A source/target pair of state spectra."""

    psi: OscVector
    phi: OscVector

    @property
    def dim(self) -> int:
        """Common padded length of the two spectra."""
        return max(len(self.psi), len(self.phi))


@dataclass(frozen=True)
class CatalystReport:
    """Outcome of asking whether a given ancilla catalyzes a transformation.

    ``residual`` is the witness chi' actually used; ``classification`` is
    computed against that witness.  Both are present exactly when feasible.
    """

    feasible: bool
    classification: CatalystClass | None = None
    residual: OscVector | None = None


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Rasterized feasibility region over residual parameters (x1', x2').

    ``cells[i, j]`` covers the half-open square
    [i/res, (i+1)/res) x [j/res, (j+1)/res) and is evaluated at its center.
    ``constraint_mask`` marks cells whose center is a valid ordered simplex
    point (x1' >= x2' >= x3' >= 0 with x3' = 1 - x1' - x2'); feasible cells
    are always a subset of valid ones.
    """

    resolution: int
    cells: np.ndarray
    constraint_mask: np.ndarray

    def cell_index(self, x1p: float, x2p: float) -> tuple[int, int]:
        """Cell holding (x1', x2'), each in [0, 1] (else DomainError); 1 is in the last cell."""
        if not (0.0 <= x1p <= 1.0 and 0.0 <= x2p <= 1.0):
            raise DomainError(f"residual coordinates must lie in [0, 1], got ({x1p!r}, {x2p!r})")
        last = self.resolution - 1
        return min(int(x1p * self.resolution), last), min(int(x2p * self.resolution), last)

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (i + 0.5) / self.resolution, (j + 0.5) / self.resolution

    def feasible_at(self, x1p: float, x2p: float) -> bool:
        return bool(self.cells[self.cell_index(x1p, x2p)])

    @property
    def feasible_count(self) -> int:
        return int(self.cells.sum())

    @property
    def valid_count(self) -> int:
        return int(self.constraint_mask.sum())


def locc_feasible(q: TransformQuery, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Deterministic LOCC convertibility psi -> phi (Nielsen's criterion)."""
    return majorizes_check(q.psi, q.phi, tol).feasible


def _assisted_spectra(
    q: TransformQuery, chi: OscVector, chi_prime: OscVector
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of psi ⊗ chi and phi ⊗ chi' of one width: the factors are
    zero-padded to common lengths, which only appends zero products."""
    n, k = q.dim, max(len(chi), len(chi_prime))
    lhs = product_spectra(padded_array(q.psi, n), padded_array(chi, k))[0]
    rhs = product_spectra(padded_array(q.phi, n), padded_array(chi_prime, k))[0]
    return lhs, rhs


def is_general_catalyst(
    q: TransformQuery, chi: OscVector, tol: Tolerance = DEFAULT_TOL
) -> CatalystReport:
    """Does ``chi`` enable psi -> phi for *some* residual chi'?

    Complete consumption is without loss of generality: any residual chi'
    is majorized by the separable spectrum, so psi ⊗ chi ≺ phi ⊗ chi'
    for some chi' iff psi ⊗ chi ≺ phi padded with zeros.  The report
    therefore carries the separable witness; tighter residuals come from
    :func:`min_residual_2x2` or :func:`mutual_region_scan`.
    """
    witness = OscVector.separable(len(chi))
    try:
        classification = classify_catalyst(q, chi, witness, tol)
    except NotACatalyst:
        return CatalystReport(feasible=False)
    return CatalystReport(feasible=True, classification=classification, residual=witness)


def _require_2x2_blocked(q: TransformQuery, tol: Tolerance) -> None:
    if len(q.psi) != 2 or len(q.phi) != 2:
        raise DomainError("both spectra must have length 2")
    if locc_feasible(q, tol):
        raise DomainError("transformation is already feasible without a catalyst")


def _check_x_range(x: float) -> None:
    if not 0.5 <= x <= 1.0:
        raise DomainError(f"top coefficient x must lie in [0.5, 1], got {x!r}")


def general_catalyst_2x2(q: TransformQuery, x: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact condition for (x, 1-x) to be a general catalyst of a 2x2 pair.

    For blocked 2x2 transformations (alpha1 > beta1) the single decisive
    majorization inequality is alpha1 * x <= beta1, tested in these partial-sum
    units as :func:`is_general_catalyst` tests it, so the two agree by construction.
    """
    _require_2x2_blocked(q, tol)
    _check_x_range(x)
    return q.psi[0] * x <= q.phi[0] + tol.eps_major


def min_residual_2x2(q: TransformQuery, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest feasible residual top coefficient x' for a 2x2 catalyst (x, 1-x).

    With psi = (a1, a2), phi = (b1, b2) and a feasible x, the residual
    constraints reduce to
        x' >= (a1/b1) x,   x' >= 1 - (a2/b2)(1-x),
    plus x' >= a1 when x < a1 (the product spectrum changes order there).
    The returned x' always exceeds x: consuming entanglement is unavoidable
    for blocked 2x2 pairs, so the minimal residual is a subcatalyst residual.
    """
    if len(q.psi) != 2 or len(q.phi) != 2:
        raise DomainError("both spectra must have length 2")
    if q.phi[1] <= 0.0:
        raise DegenerateTarget("target (1, 0) admits every source; no residual bound")
    if not general_catalyst_2x2(q, x, tol):
        raise DomainError(f"(x, 1-x) with x={x!r} is not a catalyst for this pair")
    a1, a2 = q.psi[0], q.psi[1]
    b1, b2 = q.phi[0], q.phi[1]
    bound = max(a1 / b1 * x, 1.0 - a2 / b2 * (1.0 - x))
    if x < a1:
        bound = max(bound, a1)
    return bound


def catalyst_bound_3x3(q: TransformQuery, tol: Tolerance = DEFAULT_TOL) -> float:
    """Top-coefficient threshold below which *every* ancilla catalyzes a 3x3 pair.

    For incomparable 3x3 spectra, any chi (of any dimension) with
    chi[0] <= min(beta1/alpha1, (beta1+beta2)/(alpha1+alpha2)) is a general
    catalyst: with complete consumption only the first two prefix
    inequalities of the product spectrum bind, and incomparability makes
    beta1 + beta2 > alpha1 so the remaining constraint is automatic.
    """
    if len(q.psi) != 3 or len(q.phi) != 3:
        raise DomainError("both spectra must have length 3")
    if majorizes_check(q.psi, q.phi, tol).relation is not Relation.INCOMPARABLE:
        raise DomainError("spectra must be incomparable")
    a1, a2 = q.psi[0], q.psi[1]
    b1, b2 = q.phi[0], q.phi[1]
    return min(b1 / a1, (b1 + b2) / (a1 + a2))


def subcatalyst_forced(
    q: TransformQuery,
    chi: OscVector,
    chi_prime: OscVector,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Must every 2- or 3-dim catalyst of this pair consume entanglement?

    True when alpha1 > beta1 and alpha_n < beta_n (n the common padded
    length, entries compared literally, trailing zeros included) and chi is
    strictly below chi' in the majorization order, so E(chi) > E(chi').
    Beyond the ``eps_major`` band the top product inequality forces the
    latter; inside it (alpha1 - beta1 of order eps_major) chi' = chi can
    itself be feasible, and the answer is False.  False means only that
    this criterion is silent, not that a standard catalyst exists.
    """
    if len(chi) != len(chi_prime) or len(chi) not in (2, 3):
        raise DomainError("chi and chi' must both have length 2 or both length 3")
    if first_violations(*_assisted_spectra(q, chi, chi_prime), tol.eps_major):
        raise NotACatalyst("psi ⊗ chi does not convert to phi ⊗ chi'")
    n = q.dim
    a = padded_array(q.psi, n)
    b = padded_array(q.phi, n)
    if not (a[0] > b[0] and a[n - 1] < b[n - 1]):
        return False
    return majorizes_check(chi, chi_prime, tol).relation is Relation.MAJORIZED_BY


def general_catalyst_2to3(q: TransformQuery, x: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact condition for (x, 1-x) to catalyze a 2-dim -> 3-dim transformation.

    No standard catalyst can exist across unequal dimensions, so the ancilla
    is consumed completely and feasibility reduces to
        alpha1 <= beta1 + beta2   and   x <= min(beta1/alpha1, beta1 + beta2).
    """
    if len(q.psi) != 2 or len(q.phi) != 3:
        raise DomainError("expected a 2-dim source and a 3-dim target")
    if locc_feasible(q, tol):
        raise DomainError("transformation is already feasible without a catalyst")
    _check_x_range(x)
    a1 = q.psi[0]
    b1, b2 = q.phi[0], q.phi[1]
    eps = tol.eps_major
    return a1 <= b1 + b2 + eps and a1 * x <= b1 + eps and x <= b1 + b2 + eps


def is_time_reverse(
    q: TransformQuery,
    chi: OscVector,
    chi_prime: OscVector,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True iff the spectra of psi ⊗ chi and phi ⊗ chi' coincide elementwise.

    Coinciding product spectra make the assisted transformation reversible:
    each side converts to the other under LOCC.  Here ``eps_major`` bounds
    each entry's difference, not a partial sum's as in the majorization
    tests, so matching spectra of width m may differ by up to m times it in
    their partial sums.
    """
    lhs, rhs = _assisted_spectra(q, chi, chi_prime)
    return bool(np.all(np.abs(lhs - rhs) <= tol.eps_major))


def classify_catalyst(
    q: TransformQuery,
    chi: OscVector,
    chi_prime: OscVector,
    tol: Tolerance = DEFAULT_TOL,
) -> CatalystClass:
    """Classify a feasible (chi, chi') pair by the residual's entropy change.

    Equal entropies (within ``tol.eps_entropy``) give STANDARD, a drop gives
    SUB, a rise gives SUPER.  Identical product spectra are reported as
    TIME_REVERSE, which subsumes the entropy label; the label stays
    recoverable from the stored entropies via ``entropy_label``.
    """
    lhs, rhs = _assisted_spectra(q, chi, chi_prime)
    if first_violations(lhs, rhs, tol.eps_major):
        raise NotACatalyst("psi ⊗ chi does not convert to phi ⊗ chi'")
    cls = CatalystClass(CatalystKind.TIME_REVERSE, entropy_bits(chi), entropy_bits(chi_prime))
    if np.all(np.abs(lhs - rhs) <= tol.eps_major):
        return cls
    return CatalystClass(cls.entropy_label(tol.eps_entropy), cls.entropy_before, cls.entropy_after)


def mutual_region_scan(
    psi: OscVector,
    phi: OscVector,
    chi: OscVector,
    resolution: int = 1000,
    tol: Tolerance = DEFAULT_TOL,
) -> RegionGrid:
    """Scan the residual simplex for feasibility of psi ⊗ chi -> phi ⊗ chi'.

    For each grid cell (x1', x2') with x3' = 1 - x1' - x2', the cell is
    valid iff x1' >= x2' >= x3' >= 0 and feasible iff additionally
    psi ⊗ chi ≺ phi ⊗ (x1', x2', x3').  Direct majorization of the product
    spectra is the ground truth; closed-form inequality systems such as
    :func:`catalocc.experiments.mutual_demo_inequalities` are cross-checks
    for specific inputs.

    The grid is built and tested in bands of at most MAX_PRODUCT_WIDTH cells
    (or one row), so no full-grid float array is formed, and each verdict is
    bitwise the one :func:`majorizes_check` gives for that cell.
    ``resolution`` may not exceed :data:`MAX_RESOLUTION`.
    """
    if len(psi) != 3 or len(phi) != 3 or len(chi) != 3:
        raise DomainError("psi, phi and chi must all have length 3")
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise DomainError(f"resolution must lie in [1, {MAX_RESOLUTION}], got {resolution}")
    lhs = product_spectra(psi.as_array(), chi.as_array())

    centers = (np.arange(resolution, dtype=np.float64) + 0.5) / resolution
    cells = np.zeros((resolution, resolution), dtype=bool)
    valid = np.zeros((resolution, resolution), dtype=bool)
    band = max(1, MAX_PRODUCT_WIDTH // resolution)  # grid rows of at most one chunk of cells
    for top in range(0, resolution, band):
        x1 = centers[top:top + band, None]
        x3 = 1.0 - x1 - centers
        valid[top:top + band] = (x1 >= centers) & (centers >= x3) & (x3 >= 0.0)
        i, j = np.nonzero(valid[top:top + band])
        residuals = np.stack([x1[i, 0], centers[j], x3[i, j]], axis=1)
        rhs = product_spectra(phi.as_array(), residuals)
        cells[top + i, j] = first_violations(lhs, rhs, tol.eps_major) == 0
    return RegionGrid(resolution=resolution, cells=cells, constraint_mask=valid)

