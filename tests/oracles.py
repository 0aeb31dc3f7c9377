"""Independent oracles for the test suite.

Everything here deliberately avoids the library's batched spectrum kernel:
spectra come from naive full sorts of the outer product, majorization from
a plain Python prefix-sum loop, minimal residuals from bisection on the
direct predicate, small feasibility questions from grid enumeration,
including the grid oracle for standard catalysts of dimension 2 and 3, and
the Monte Carlo search's first hit from whole-block candidate draws.
"""

from __future__ import annotations

import math

import numpy as np

from catalocc import DomainError, OscVector, TransformQuery
from catalocc.rng import CTX_TRIALS, substream
from catalocc.search import TRIAL_BLOCK, _sorted_simplex_rows


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


def first_hit_whole_blocks(q: TransformQuery, k: int, big_m: int, seed: int):
    """(index, chi) of the lowest trial below ``big_m`` that is a standard
    catalyst, or None: the Monte Carlo search's candidates, each block drawn
    whole from its substream and every row tested by the plain prefix loop."""
    for block in range(math.ceil(big_m / TRIAL_BLOCK)):
        start = block * TRIAL_BLOCK
        rows = min(TRIAL_BLOCK, big_m - start)
        [(_, (chis,))] = _sorted_simplex_rows(substream(seed, CTX_TRIALS, block), rows, rows, k)
        for i, chi in enumerate(chis.tolist()):
            if assisted_feasible(q.psi, q.phi, chi, chi):
                return start + i, tuple(chi)
    return None


def two_level_points(step: float):
    """The lattice points (x, 1-x), x = 0.5 + i*step <= 1, x ascending."""
    for i in range(math.floor(0.5 / step + 1e-9) + 1):
        x = 0.5 + i * step
        if x > 1.0 + 1e-12:
            return
        yield (x, 1.0 - x)


def brute_general_2x2(psi, phi, x: float, step: float = 1e-4) -> bool:
    """Grid search over residuals (x', 1-x'): is (x, 1-x) a general catalyst?"""
    chi = (x, 1.0 - x)
    return any(assisted_feasible(psi, phi, chi, res) for res in two_level_points(step))


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
    hits = [chi[0] for chi in two_level_points(step) if assisted_feasible(psi, phi, chi, chi)]
    if not hits:
        return None
    return min(hits), max(hits)


def standard_region_measure_2x2(psi, phi, step: float = 1e-3) -> float:
    """Lebesgue-measure estimate (in x1) of the standard-catalyst set."""
    count = sum(assisted_feasible(psi, phi, chi, chi) for chi in two_level_points(step))
    return count * step


def three_level_points(step: float):
    """The sorted lattice points (x1, x2, x3) with x1, x2 multiples of step,
    in lexicographic order (x1 ascending, then x2 ascending)."""
    i_lo = math.ceil(1.0 / (3.0 * step) - 1e-9)
    i_hi = math.floor(1.0 / step + 1e-9)
    for i in range(i_lo, i_hi + 1):
        x1 = i * step
        j_lo = math.ceil((1.0 - x1) / (2.0 * step) - 1e-9)
        j_hi = min(i, math.floor((1.0 - x1) / step + 1e-9))
        for j in range(j_lo, j_hi + 1):
            x2 = j * step
            yield (x1, x2, max(1.0 - x1 - x2, 0.0))


def exhaustive_catalyst_oracle(q: TransformQuery, k: int, step: float) -> OscVector | None:
    """First lattice point chi (k = 2 or 3, at the given step) with
    psi ⊗ chi ≺ phi ⊗ chi, or None when the whole grid fails.

    A plain walk over :func:`assisted_feasible`; ground truth for the
    Monte Carlo search on small instances.
    """
    if k not in (2, 3):
        raise DomainError("oracle supports k = 2 or k = 3 only")
    if not 1e-5 <= step <= 0.1:
        raise DomainError(f"step must lie in [1e-5, 0.1], got {step!r}")
    if direct_leq(q.psi, q.phi):
        raise DomainError("transformation needs no catalyst; it is already feasible")
    points = two_level_points(step) if k == 2 else three_level_points(step)
    for chi in points:
        if assisted_feasible(q.psi, q.phi, chi, chi):
            return OscVector(chi)
    return None


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
