"""Randomized and exhaustive catalyst search.

The standard-catalyst question (does some chi satisfy
psi ⊗ chi ≺ phi ⊗ chi?) has no known closed form, so it is attacked by
Monte Carlo: draw chi uniformly from the ordered probability simplex,
form the product spectra, test the prefix inequalities, repeat up to a
trial budget.  Candidates are evaluated in batches by the spectrum kernel
in :mod:`catalocc.core`.  Success is certified (the catalyst is re-checked
by a plain-Python prefix loop that shares no code with that kernel);
failure is one-sided evidence only.  The general-catalyst question, by
contrast, is decided exactly with a maximally entangled ancilla.

Determinism contract: a search outcome depends only on
(seed, k, big_number, query).  Trials are indexed 0..M-1; candidate i
lives in block i // TRIAL_BLOCK, drawn from substream (seed, block), and
a success always reports the lowest feasible index, so the result is
identical for any worker count and any evaluation batch size, and success
at budget M implies success at every larger budget.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import islice, zip_longest
from typing import Optional

import numpy as np

from .catalysis import TransformQuery, locc_feasible
from .core import (
    DEFAULT_TOL,
    OscVector,
    Tolerance,
    first_violations,
    padded_array,
    product_spectra,
)
from .errors import DomainError
from .rng import CTX_TRIALS, substream

__all__ = [
    "TRIAL_BLOCK",
    "SearchStatus",
    "SearchConfig",
    "SearchOutcome",
    "sample_sorted_simplex",
    "general_catalyst_exists",
    "monte_carlo_standard_catalyst",
    "exhaustive_catalyst_oracle",
]

# Trials per RNG substream.  Fixed: changing it would change the candidate
# sequence and hence search outcomes.
TRIAL_BLOCK = 4096

# Rows per evaluation batch are capped so the working set stays cache-sized;
# this affects speed only, never verdicts.
_EVAL_CHUNK_ELEMS = 1 << 16


class SearchStatus(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one Monte Carlo run: catalyst dimension k, trial budget
    (the algorithm's "big number"), RNG seed, and comparison tolerances."""

    k: int
    big_number: int
    seed: int
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("catalyst dimension k must be >= 1")
        if self.big_number < 1:
            raise ValueError("trial budget must be >= 1")
        object.__setattr__(self, "seed", int(self.seed) & ((1 << 64) - 1))


@dataclass(frozen=True)
class SearchOutcome:
    """Search result.  SUCCESS carries the verified catalyst and the number
    of trials consumed (success index + 1); FAILURE used the full budget."""

    status: SearchStatus
    catalyst: Optional[OscVector]
    trials_used: int
    seed: int


def sample_sorted_simplex(k: int, rng: np.random.Generator) -> OscVector:
    """One draw from the uniform (flat Dirichlet) distribution on the
    (k-1)-simplex, sorted nonincreasing.

    Uses the exponential trick: k unit exponentials normalized by their sum.
    Consumes exactly k uniforms from ``rng``, so batched draws reproduce
    repeated calls on the same stream.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return OscVector(tuple(float(v) for v in _sorted_simplex_rows(rng, 1, k)[0]))


def _sorted_simplex_rows(rng: np.random.Generator, rows: int, k: int) -> np.ndarray:
    return _simplex_points(-np.log1p(-rng.random((rows, k))))


def _simplex_points(e: np.ndarray) -> np.ndarray:
    """Rows of unit exponentials, normalized and sorted nonincreasing.

    Rows summing to zero (every uniform hit 0.0) become the flat point.
    """
    s = e.sum(axis=1)
    zero = s <= 0.0
    if zero.any():
        e[zero] = 1.0
        s = e.sum(axis=1)
    x = e / s[:, None]
    x.sort(axis=1)
    return x[:, ::-1]


def _first_feasible_row(
    psi: np.ndarray, phi: np.ndarray, chis: np.ndarray, eps: float
) -> Optional[int]:
    """Index of the first row of ``chis`` that is a standard catalyst."""
    n = psi.shape[0]
    chunk = max(64, _EVAL_CHUNK_ELEMS // (n * chis.shape[1]))
    for off in range(0, chis.shape[0], chunk):
        part = chis[off : off + chunk]
        first = first_violations(product_spectra(psi, part), product_spectra(phi, part), eps)
        hits = np.flatnonzero(first == 0)
        if hits.size:
            return off + int(hits[0])
    return None


def _scalar_leq(psi, phi, chi, eps: float) -> bool:
    """psi ⊗ chi ≺ phi ⊗ chi by full sorts and a plain-Python prefix loop.

    The one runtime re-check of emitted certificates.  It shares no code
    with the array kernel in :mod:`catalocc.core`, so a fault there cannot
    certify itself; with identical products, sort order and summation order
    it reproduces the kernel's verdict bit for bit.  ``chi = (1.0,)`` gives
    the direct test psi ≺ phi; unequal lengths are zero-padded.
    """
    lhs = sorted((x * c for x in psi for c in chi), reverse=True)
    rhs = sorted((y * c for y in phi for c in chi), reverse=True)
    sa = sb = 0.0
    for x, y in zip_longest(lhs, rhs, fillvalue=0.0):
        sa += x
        sb += y
        if sa > sb + eps:
            return False
    return True


def _certified(q: TransformQuery, row: np.ndarray, eps: float) -> OscVector:
    """The kernel's accepted candidate, after the scalar re-check."""
    catalyst = OscVector(tuple(float(v) for v in row))
    if not _scalar_leq(q.psi, q.phi, catalyst, eps):
        raise RuntimeError("internal: kernel verdict fails the scalar re-check")
    return catalyst


def general_catalyst_exists(q: TransformQuery, k: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Decide whether *any* k x k general catalyst exists for psi -> phi.

    It suffices to test a maximally entangled ancilla with complete
    consumption: psi ⊗ (1/k, ..., 1/k) ≺ phi (zero-padded to n·k), which
    is the spectrum kernel's batch-of-one case.  For k >= n the answer is
    always yes (a maximally entangled state converts to everything of its
    dimension), so no n·k product is formed there.
    """
    if k < 1:
        raise DomainError("catalyst dimension k must be >= 1")
    n = q.dim
    if k >= n:
        return True
    lhs = product_spectra(padded_array(q.psi, n), np.full(k, 1.0 / k))
    return not first_violations(lhs, padded_array(q.phi, n * k), tol.eps_major)[0]


def monte_carlo_standard_catalyst(
    q: TransformQuery, cfg: SearchConfig, workers: int = 1
) -> SearchOutcome:
    """Randomized search for a k x k standard catalyst.

    Draws up to ``cfg.big_number`` candidates from the sorted flat-Dirichlet
    distribution and returns the first chi with
    psi ⊗ chi ≺ phi ⊗ chi, re-checked by a scalar prefix loop.  FAILURE
    after the full budget is evidence, not proof: the algorithm has a
    one-sided false-negative probability that shrinks as the budget grows.

    ``workers`` > 1 evaluates the TRIAL_BLOCK-sized blocks of one search on
    a thread pool of at most min(workers, CPU count, blocks) threads, so it
    only helps a search that scans more than one block.  At most twice that
    many blocks are in flight at once; results are read in block order and
    the rest are cancelled on a hit, so the outcome is identical to the
    sequential run by the lowest-index rule.
    """
    tol = cfg.tol
    if locc_feasible(q, tol):
        raise DomainError("transformation needs no catalyst; it is already feasible")
    n = q.dim
    psi = padded_array(q.psi, n)
    phi = padded_array(q.phi, n)
    big_m = cfg.big_number
    nblocks = math.ceil(big_m / TRIAL_BLOCK)

    def scan_block(block: int) -> Optional[tuple[int, np.ndarray]]:
        start = block * TRIAL_BLOCK
        rows = min(TRIAL_BLOCK, big_m - start)
        chis = _sorted_simplex_rows(substream(cfg.seed, CTX_TRIALS, block), rows, cfg.k)
        hit = _first_feasible_row(psi, phi, chis, tol.eps_major)
        if hit is None:
            return None
        return start + hit, chis[hit].copy()

    found: Optional[tuple[int, np.ndarray]] = None
    workers = min(workers, os.cpu_count() or 1, nblocks)
    if workers <= 1:
        for block in range(nblocks):
            found = scan_block(block)
            if found is not None:
                break
    else:
        executor = ThreadPoolExecutor(max_workers=workers)
        try:
            # A sliding window keeps every thread busy without queueing one
            # future per block up front (that costs memory and time for huge
            # budgets before any work runs).
            blocks = iter(range(nblocks))
            window = deque(executor.submit(scan_block, b) for b in islice(blocks, 2 * workers))
            while window:
                found = window.popleft().result()  # window order == block order
                if found is not None:
                    break
                block = next(blocks, None)
                if block is not None:
                    window.append(executor.submit(scan_block, block))
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    if found is None:
        return SearchOutcome(SearchStatus.FAILURE, None, big_m, cfg.seed)
    index, row = found
    catalyst = _certified(q, row, tol.eps_major)
    return SearchOutcome(SearchStatus.SUCCESS, catalyst, index + 1, cfg.seed)


def exhaustive_catalyst_oracle(
    q: TransformQuery, k: int, step: float, tol: Tolerance = DEFAULT_TOL
) -> Optional[OscVector]:
    """Grid enumeration of the sorted simplex; ground truth for small runs.

    Scans lattice points at the given step in lexicographic order (top
    coefficient ascending) and returns the first standard catalyst found,
    or None when the whole grid fails.  Only k = 2 and k = 3 are supported;
    this is a test oracle, not a production search.
    """
    if k not in (2, 3):
        raise DomainError("oracle supports k = 2 or k = 3 only")
    if not 1e-5 <= step <= 0.1:
        raise DomainError(f"step must lie in [1e-5, 0.1], got {step!r}")
    if locc_feasible(q, tol):
        raise DomainError("transformation needs no catalyst; it is already feasible")

    if k == 2:

        def batches():
            count = int(math.floor(0.5 / step + 1e-9)) + 1
            x1 = 0.5 + np.arange(count, dtype=np.float64) * step
            x1 = x1[x1 <= 1.0 + 1e-12]
            yield np.stack([x1, 1.0 - x1], axis=1)

    else:

        def batches():
            i_lo = int(math.ceil(1.0 / (3.0 * step) - 1e-9))
            i_hi = int(math.floor(1.0 / step + 1e-9))
            for i in range(i_lo, i_hi + 1):
                x1 = i * step
                j_lo = int(math.ceil((1.0 - x1) / (2.0 * step) - 1e-9))
                j_hi = min(i, int(math.floor((1.0 - x1) / step + 1e-9)))
                if j_hi < j_lo:
                    continue
                x2 = np.arange(j_lo, j_hi + 1, dtype=np.float64) * step
                x3 = np.maximum(1.0 - x1 - x2, 0.0)
                yield np.stack([np.full_like(x2, x1), x2, x3], axis=1)

    psi = padded_array(q.psi, q.dim)
    phi = padded_array(q.phi, q.dim)
    for batch in batches():
        hit = _first_feasible_row(psi, phi, batch, tol.eps_major)
        if hit is not None:
            return _certified(q, batch[hit], tol.eps_major)
    return None
