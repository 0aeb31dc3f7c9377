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
at budget M implies success at every larger budget.  The success curve's
scan of many queries at once draws each query's candidates from that
query's own substreams, so it reports the same first hits.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, zip_longest
from typing import Optional, Sequence

import numpy as np

from .catalysis import TransformQuery, locc_feasible
from .core import (
    DEFAULT_TOL,
    MAX_QUERY_WIDTH,
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


def _sorted_simplex_rows(rng: np.random.Generator, rows: int, chunk: int, *widths: int):
    """Yield ``(off, parts)`` for ``rows`` draws, at most ``chunk`` rows a step:
    row i of ``parts[j]`` is draw off + i from the flat Dirichlet distribution
    on the (widths[j]-1)-simplex, sorted nonincreasing.

    Exponential trick: a step draws its rows of sum(widths) unit exponentials
    and slices each row at ``widths``.  Each step takes the uniforms of its
    rows in order, so every ``chunk`` yields the same points.
    """
    cuts = list(accumulate((0,) + widths))
    for off in range(0, rows, chunk):
        yield off, _simplex_parts(rng.random((min(chunk, rows - off), cuts[-1])), cuts)


def _simplex_parts(u: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    """Rows of uniforms ``u`` as sorted simplex points, one part per span
    ``cuts[j]:cuts[j + 1]`` of columns; row i of a part depends only on row i.

    The exponentials overwrite ``u``, so a chunk allocates no array beyond
    its draw; holding ``u`` beside them made searches refault more pages.
    """
    e = np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
    return [_simplex_points(e[:, a:b]) for a, b in zip(cuts, cuts[1:])]


def _simplex_points(e: np.ndarray) -> np.ndarray:
    """Rows of unit exponentials, normalized and sorted in place; returns
    the reversed view of ``e``, whose rows are nonincreasing.

    Rows summing to zero (every uniform hit 0.0) become the flat point.
    """
    s = e.sum(axis=1)
    zero = s <= 0.0
    if zero.any():
        e[zero] = 1.0
        s = e.sum(axis=1)
    e /= s[:, None]
    e.sort(axis=1)
    return e[:, ::-1]


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
    consumption: psi ⊗ (1/k, ..., 1/k) ≺ phi (zero-padded to n·k), whose
    left side is each psi_i/k repeated k times: one O(n·k) pass, bit for
    bit what the sorting kernel gives.  For k >= n the answer is always yes
    (a maximally entangled state converts to everything of its dimension);
    otherwise n·k > :data:`MAX_QUERY_WIDTH` raises :class:`DomainError`.
    """
    if k < 1:
        raise DomainError("catalyst dimension k must be >= 1")
    n = q.dim
    if k >= n:
        return True
    if n * k > MAX_QUERY_WIDTH:
        raise DomainError(f"query too large: n*k = {n * k} > {MAX_QUERY_WIDTH}")
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

    ``workers`` > 1 scans the TRIAL_BLOCK-sized blocks on min(workers, CPU
    count, blocks) pool threads, which helps only a search of several blocks.
    Threads take blocks in order and take none once a block has hit or
    raised; each scans the block it took unless a lower block has ended
    (it then stops within one chunk).  The lowest such block decides (its
    hit is returned, its exception raised), as in a sequential run.

    Blocks are drawn and tested in chunks of at most MAX_PRODUCT_WIDTH
    products; a wider n·k row raises :class:`DomainError` before any draw.
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

    def scan_block(block: int) -> Optional[tuple[int, list[float]]]:
        """Lowest feasible trial index in ``block`` and its candidate."""
        start = block * TRIAL_BLOCK
        rows = min(TRIAL_BLOCK, big_m - start)
        rng = substream(cfg.seed, CTX_TRIALS, block)
        for off, (part,) in _sorted_simplex_rows(rng, rows, chunk, cfg.k):
            # held until the next chunk's rows exist, so their pages are not refaulted
            lhs, rhs = product_spectra(psi, part), product_spectra(phi, part)
            first = first_violations(lhs, rhs, tol.eps_major)
            hits = np.flatnonzero(first == 0)
            if hits.size:
                return start + off + int(hits[0]), part[hits[0]].tolist()
            if ends and min(ends)[0] < block:  # a lower block has ended: this one cannot decide
                return None
        return None

    blocks = iter(range(nblocks))
    taking = threading.Lock()  # next() on a shared iterator is atomic only under a GIL
    ends: list[tuple[int, object]] = []  # (block, hit or exception); ends the search

    def worker() -> None:
        """Scan blocks in turn until none is left or some block has hit or raised."""
        while not ends:
            with taking:
                block = next(blocks, None)
            if block is None:
                return
            try:
                end = scan_block(block)
            except BaseException as exc:  # ranked by its block, like a hit
                end = exc
            if end is not None:
                ends.append((block, end))

    workers = min(workers, os.cpu_count() or 1, nblocks)
    if workers <= 1:
        worker()
    else:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            try:
                for future in [executor.submit(worker) for _ in range(workers)]:
                    future.result()
            finally:  # stops the workers however the wait ends; ranks above every block
                ends.append((nblocks, None))

    _, found = min(ends, default=(None, None))  # blocks are distinct: the lowest decides
    if isinstance(found, BaseException):
        raise found
    if found is None:
        return SearchOutcome(SearchStatus.FAILURE, None, big_m, cfg.seed)
    catalyst = OscVector(found[1])
    if not _scalar_leq(q.psi, q.phi, catalyst, tol.eps_major):
        raise RuntimeError("internal: kernel verdict fails the scalar re-check")
    return SearchOutcome(SearchStatus.SUCCESS, catalyst, found[0] + 1, cfg.seed)


def _first_hits(
    queries: Sequence[TransformQuery], k: int, big_m: int, seeds: Sequence[int], tol: Tolerance
) -> list[Optional[int]]:
    """``trials_used`` of the search of query i with seed ``seeds[i]`` and
    budget ``big_m``, or None where it fails, from one scan of all queries.

    Queries are zero-padded to the widest (no verdict moves) and taken in
    groups of at most one chunk's queries.  Each stage draws
    max(1, chunk // unresolved) rows of its block for every unresolved
    query of a group and tests them in one kernel pass of at most one
    chunk; a query leaves at its first hit, which the scalar loop re-checks
    (a disagreement raises RuntimeError).  k < 1 raises ValueError, and
    n·k > MAX_PRODUCT_WIDTH or an already feasible query DomainError, all
    before any draw.
    """
    if k < 1:
        raise ValueError("catalyst dimension k must be >= 1")
    n = max(q.dim for q in queries)
    chunk = _chunk_rows(n, k)
    psi = np.stack([padded_array(q.psi, n) for q in queries])
    phi = np.stack([padded_array(q.phi, n) for q in queries])
    if not first_violations(psi, phi, tol.eps_major).all():  # locc_feasible of every query
        raise DomainError("transformation needs no catalyst; it is already feasible")
    found: list[Optional[int]] = [None] * len(queries)
    for group in range(0, len(queries), chunk):
        active = np.arange(group, min(group + chunk, len(queries)))
        pos = 0  # the next trial index of every query still in the group
        while active.size and pos < big_m:
            if pos % TRIAL_BLOCK == 0:
                rngs = [substream(seeds[i], CTX_TRIALS, pos // TRIAL_BLOCK) for i in active]
            rows = min(max(1, chunk // active.size), TRIAL_BLOCK - pos % TRIAL_BLOCK, big_m - pos)
            uniforms = np.concatenate([rng.random((rows, k)) for rng in rngs])
            (part,) = _simplex_parts(uniforms, [0, k])
            lhs = product_spectra(np.repeat(psi[active], rows, axis=0), part)
            rhs = product_spectra(np.repeat(phi[active], rows, axis=0), part)
            hits = (first_violations(lhs, rhs, tol.eps_major) == 0).reshape(active.size, rows)
            done = hits.any(axis=1)
            for j in np.flatnonzero(done):
                q, row = queries[active[j]], int(hits[j].argmax())
                if not _scalar_leq(q.psi, q.phi, part[j * rows + row].tolist(), tol.eps_major):
                    raise RuntimeError("internal: kernel verdict fails the scalar re-check")
                found[active[j]] = pos + row + 1
            rngs = [rng for rng, d in zip(rngs, done) if not d]
            active = active[~done]
            pos += rows
    return found
