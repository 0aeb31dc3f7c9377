"""Randomized catalyst search and the exact general-catalyst decision.

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
    MAX_PRODUCT_WIDTH,
    OscVector,
    Tolerance,
    _chunk_rows,
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
    "general_catalyst_exists",
    "monte_carlo_standard_catalyst",
]

# Trials per RNG substream, drawn and tested one chunk at a time.  Fixed:
# changing it would change the candidate sequence and hence search outcomes.
TRIAL_BLOCK = 4096


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


def _sorted_simplex_rows(rng: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """``rows`` draws from the uniform (flat Dirichlet) distribution on the
    (k-1)-simplex, each sorted nonincreasing.

    Uses the exponential trick: k unit exponentials normalized by their sum.
    Consumes exactly rows·k uniforms from ``rng``, row by row, so one large
    draw reproduces several smaller ones on the same stream.
    """
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


def general_catalyst_exists(q: TransformQuery, k: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Decide whether *any* k x k general catalyst exists for psi -> phi.

    It suffices to test a maximally entangled ancilla with complete
    consumption: psi ⊗ (1/k, ..., 1/k) ≺ phi (zero-padded to n·k).  That
    product spectrum is each psi_i/k repeated k times, already sorted, so
    one O(n·k) pass forms it, bit for bit what the sorting kernel gives.
    For k >= n the answer is always yes (a maximally entangled state
    converts to everything of its dimension), so no n·k product is formed.
    """
    if k < 1:
        raise DomainError("catalyst dimension k must be >= 1")
    n = q.dim
    if k >= n:
        return True
    lhs = np.repeat(padded_array(q.psi, n) * (1.0 / k), k)
    return not first_violations(lhs, padded_array(q.phi, n * k), tol.eps_major)


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

    A block is drawn one chunk at a time, just before that chunk is tested;
    n·k > :data:`MAX_PRODUCT_WIDTH` raises :class:`DomainError` before any draw.
    """
    n = q.dim
    chunk = _chunk_rows(n, cfg.k)
    tol = cfg.tol
    if locc_feasible(q, tol):
        raise DomainError("transformation needs no catalyst; it is already feasible")
    psi = padded_array(q.psi, n)
    phi = padded_array(q.phi, n)
    big_m = cfg.big_number
    nblocks = math.ceil(big_m / TRIAL_BLOCK)

    def scan_block(block: int) -> Optional[tuple[int, tuple[float, ...]]]:
        """Lowest feasible trial index in ``block`` and its candidate."""
        start = block * TRIAL_BLOCK
        rows = min(TRIAL_BLOCK, big_m - start)
        rng = substream(cfg.seed, CTX_TRIALS, block)
        for off in range(0, rows, chunk):
            part = _sorted_simplex_rows(rng, min(chunk, rows - off), cfg.k)
            # held until the next chunk's rows exist, so their pages are not refaulted
            lhs, rhs = product_spectra(psi, part), product_spectra(phi, part)
            first = first_violations(lhs, rhs, tol.eps_major)
            hits = np.flatnonzero(first == 0)
            if hits.size:
                return start + off + int(hits[0]), tuple(part[hits[0]].tolist())
        return None

    found: Optional[tuple[int, tuple[float, ...]]] = None
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
    index, coeffs = found
    catalyst = OscVector(coeffs)
    if not _scalar_leq(q.psi, q.phi, catalyst, tol.eps_major):
        raise RuntimeError("internal: kernel verdict fails the scalar re-check")
    return SearchOutcome(SearchStatus.SUCCESS, catalyst, index + 1, cfg.seed)

