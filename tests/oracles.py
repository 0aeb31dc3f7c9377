"""Independent oracles for the test suite.

Everything here deliberately avoids the library's batched spectrum kernel:
spectra come from naive full sorts of the outer product, majorization from
a plain Python prefix-sum loop, minimal residuals from bisection on the
direct predicate, and small feasibility questions from grid enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from catalocc import OscVector, TransformQuery


def naive_tensor_spectrum(a, b) -> list[float]:
    """All pairwise products, fully sorted; the kernel's ground truth."""
    prods = [x * y for x in a for y in b]
    prods.sort(reverse=True)
    return prods


def direct_leq(lhs, rhs, eps: float = 1e-12) -> bool:
    """Plain prefix-sum majorization test (lhs ≺ rhs), python arithmetic."""
    la, lb = list(lhs), list(rhs)
    n = max(len(la), len(lb))
    la += [0.0] * (n - len(la))
    lb += [0.0] * (n - len(lb))
    sa = sb = 0.0
    for x, y in zip(la, lb):
        sa += x
        sb += y
        if sa > sb + eps:
            return False
    return True


def assisted_feasible(psi, phi, chi, chi_prime, eps: float = 1e-12) -> bool:
    """Direct check of psi ⊗ chi ≺ phi ⊗ chi' via naive spectra."""
    return direct_leq(naive_tensor_spectrum(psi, chi), naive_tensor_spectrum(phi, chi_prime), eps)


def brute_general_2x2(psi, phi, x: float, step: float = 1e-4) -> bool:
    """Grid search over residuals (x', 1-x'): is (x, 1-x) a general catalyst?"""
    chi = (x, 1.0 - x)
    m = int(round(0.5 / step))
    for i in range(m + 1):
        xp = 0.5 + i * step
        if assisted_feasible(psi, phi, chi, (xp, 1.0 - xp)):
            return True
    return False


def bisect_min_residual(psi, phi, x: float, iters: int = 60) -> float:
    """Smallest feasible x' located by bisection on the direct predicate.

    The predicate keeps the standard 1e-12 slack: with zero slack the
    exact-tie prefixes (e.g. the final total) flip on ulp noise and the
    feasible set stops being an interval in float arithmetic.
    """
    chi = (x, 1.0 - x)

    def ok(xp: float) -> bool:
        return assisted_feasible(psi, phi, chi, (xp, 1.0 - xp))

    if not ok(1.0):
        raise AssertionError("expected complete consumption to be feasible")
    lo, hi = 0.5, 1.0
    if ok(lo):
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def feasible_x1_interval(psi, phi, step: float = 1e-4) -> tuple[float, float] | None:
    """Sweep of x1 for which (x1, 1-x1) is a *standard* catalyst."""
    hits = []
    m = int(round(0.5 / step))
    for i in range(m + 1):
        x1 = 0.5 + i * step
        if assisted_feasible(psi, phi, (x1, 1.0 - x1), (x1, 1.0 - x1)):
            hits.append(x1)
    if not hits:
        return None
    return min(hits), max(hits)


def standard_region_measure_2x2(psi, phi, step: float = 1e-3) -> float:
    """Lebesgue-measure estimate (in x1) of the standard-catalyst set."""
    m = int(round(0.5 / step))
    count = 0
    for i in range(m + 1):
        x1 = 0.5 + i * step
        if assisted_feasible(psi, phi, (x1, 1.0 - x1), (x1, 1.0 - x1)):
            count += 1
    return count * step


def random_osc(rng: np.random.Generator, n: int) -> OscVector:
    """Sorted flat-Dirichlet draw, built independently of the library sampler."""
    g = rng.standard_gamma(1.0, n)
    while g.sum() <= 0:
        g = rng.standard_gamma(1.0, n)
    x = np.sort(g / g.sum())[::-1]
    return OscVector(tuple(float(v) for v in x))


def random_blocked_2x2(rng: np.random.Generator) -> TransformQuery:
    """Random 2x2 pair with alpha1 > beta1 (source not directly convertible)."""
    while True:
        a1 = 0.5 + 0.5 * rng.random()
        b1 = 0.5 + 0.5 * rng.random()
        if a1 > b1 + 1e-9:
            return TransformQuery(OscVector((a1, 1.0 - a1)), OscVector((b1, 1.0 - b1)))


def majorized_mix(rng: np.random.Generator, v: OscVector, moves: int = 3) -> OscVector:
    """A vector majorized by ``v``: repeated Robin Hood transfers, re-sorted."""
    x = list(v.coeffs)
    n = len(x)
    if n == 1:
        return v
    for _ in range(moves):
        i, j = rng.integers(0, n, size=2)
        if x[i] == x[j]:
            continue
        if x[i] < x[j]:
            i, j = j, i
        delta = float(rng.random()) * 0.5 * (x[i] - x[j])
        x[i] -= delta
        x[j] += delta
    x.sort(reverse=True)
    return OscVector(tuple(x))


def entropy_base2(v) -> float:
    """Plain-python entropy, independent of the numpy implementation."""
    return -math.fsum(p * math.log2(p) for p in v if p > 0.0)


def naive_region_csv(grid) -> str:
    """The ``region.csv`` text of a RegionGrid, formatted cell by cell."""
    res = grid.resolution
    lines = ["x1p,x2p,valid,feasible\n"]
    for i in range(res):
        for j in range(res):
            x1, x2 = (i + 0.5) / res, (j + 0.5) / res
            valid, feasible = int(grid.constraint_mask[i, j]), int(grid.cells[i, j])
            lines.append(f"{x1!r},{x2!r},{valid},{feasible}\n")
    return "".join(lines)
