"""Ordered Schmidt-coefficient vectors and the majorization calculus on them.

A bipartite pure state is represented throughout by its ordered Schmidt
coefficients (the squared Schmidt amplitudes, a nonincreasing probability
vector), held as an :class:`OscVector`: a tuple of floats that
:func:`make_osc`, the one validating constructor, checks and sorts.
Nielsen's criterion then reduces every deterministic LOCC convertibility
question to partial-sum comparisons, which is what this module provides:
construction/validation, padding, majorization verdicts, tensor-product
spectra, and entanglement entropy.

Every such question runs through one batched kernel:
:func:`product_spectra` sorts product spectra and :func:`first_violations`
compares partial sums, so ``eps_major`` means the same on every path.  The
scalar predicates are its batch-of-one case; the plain-Python re-check of
emitted certificates in :mod:`catalocc.search` stays apart on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DomainError, NegativeEntry, NotNormalized, TargetTooSmall

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Relation",
    "MajorizationVerdict",
    "OscVector",
    "CatalystKind",
    "CatalystClass",
    "make_osc",
    "pad",
    "partial_sums",
    "majorizes_check",
    "tensor_spectrum",
    "entropy_bits",
]


@dataclass(frozen=True)
class Tolerance:
    """Floating-point slack used by all comparisons.

    eps_major   slack allowed on the "<=" side of partial-sum comparisons
    eps_norm    allowed deviation of a coefficient sum from 1
    eps_entropy slack (in bits) when comparing entanglement entropies
    """

    eps_major: float = 1e-12
    eps_norm: float = 1e-9
    eps_entropy: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eps_major", "eps_norm", "eps_entropy"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3), got {value!r}")


DEFAULT_TOL = Tolerance()


class Relation(Enum):
    """Outcome of comparing two vectors in the majorization preorder."""

    MAJORIZED_BY = "majorized_by"  # a ≺ b and not b ≺ a
    MAJORIZES = "majorizes"  # b ≺ a and not a ≺ b
    EQUIVALENT = "equivalent"  # both directions hold
    INCOMPARABLE = "incomparable"  # neither direction holds


class CatalystKind(Enum):
    STANDARD = "standard"  # residual entropy unchanged
    SUPER = "super"  # residual gained entanglement
    SUB = "sub"  # some catalyst entanglement was consumed
    TIME_REVERSE = "time_reverse"  # product spectra coincide; reversible


class OscVector(tuple):
    """Ordered Schmidt-coefficient vector: nonincreasing, nonnegative, sums to 1.

    A tuple of floats: it equals, hashes and prints as the plain tuple of
    its coefficients, and ``+`` and ``*`` return plain tuples.
    :func:`make_osc` is the one validating constructor; the raw constructor
    trusts its argument and keeps it as given (ints stay ints, though
    :meth:`as_array` is float64 either way).  Immutable and thread-safe.
    """

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self

    def as_array(self) -> np.ndarray:
        return np.asarray(self, dtype=np.float64)

    @classmethod
    def maximally_entangled(cls, n: int) -> "OscVector":
        """Uniform spectrum (1/n, ..., 1/n)."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls((1.0 / n,) * n)

    @classmethod
    def separable(cls, n: int = 1) -> "OscVector":
        """Product-state spectrum (1, 0, ..., 0) of length n."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls((1.0,) + (0.0,) * (n - 1))


@dataclass(frozen=True)
class MajorizationVerdict:
    """Result of testing a ≺ b.

    ``first_violation`` is the smallest 1-based prefix length l at which
    sum(a[:l]) exceeds sum(b[:l]) beyond tolerance; present exactly when the
    tested direction fails (relation MAJORIZES or INCOMPARABLE).
    """

    relation: Relation
    first_violation: int | None = None

    @property
    def feasible(self) -> bool:
        """a ≺ b holds: the state with spectrum a converts to the one with b."""
        return self.first_violation is None


@dataclass(frozen=True)
class CatalystClass:
    """Classification of an assisted transformation's catalyst/residual pair.

    Entropies are entanglement entropies in bits of the catalyst before and
    of the residual after the transformation.  When ``kind`` is TIME_REVERSE
    the entropy relation is still recoverable via :meth:`entropy_label`.
    """

    kind: CatalystKind
    entropy_before: float
    entropy_after: float

    def entropy_label(self, eps_entropy: float = DEFAULT_TOL.eps_entropy) -> CatalystKind:
        """Classification by entropy change alone (never TIME_REVERSE)."""
        delta = self.entropy_before - self.entropy_after
        if abs(delta) <= eps_entropy:
            return CatalystKind.STANDARD
        return CatalystKind.SUB if delta > 0 else CatalystKind.SUPER


def make_osc(raw: Iterable[float], tol: Tolerance = DEFAULT_TOL) -> OscVector:
    """Validate and sort a coefficient sequence into an :class:`OscVector`.

    Entries within ``-tol.eps_norm`` of zero are clamped to zero so that
    user-supplied decimals survive round-trips; anything more negative
    raises :class:`NegativeEntry`.  The sum must be 1 within ``tol.eps_norm``
    or :class:`NotNormalized` is raised; NaN and infinite entries fail this
    test.  Non-numbers (booleans, strings, None, containers, complex) raise
    ``ValueError``.  Trailing zeros are kept: length is part of the
    representation (see :func:`pad`).
    """
    items = list(raw)
    for kind in set(map(type, items)):
        if issubclass(kind, (str, bytes, bool, np.bool_)):
            raise ValueError(f"coefficients must be numbers, not {kind.__name__}")
    try:
        values = [float(v) for v in items]
    except TypeError as exc:  # None, containers, complex: not real numbers either
        raise ValueError(f"coefficients must be numbers: {exc}") from None
    if not values:
        raise ValueError("coefficient sequence must be nonempty")
    for i, v in enumerate(values):
        if v < -tol.eps_norm:
            raise NegativeEntry(f"coefficient {i} is {v!r}, below -{tol.eps_norm}")
    clamped = [0.0 if v < 0.0 else v for v in values]
    try:
        total = math.fsum(clamped)
    except OverflowError:  # finite entries whose sum leaves the float range
        total = math.inf
    if not abs(total - 1.0) <= tol.eps_norm:  # also true for a NaN sum
        raise NotNormalized(f"coefficients sum to {total!r}, not 1 within {tol.eps_norm}")
    clamped.sort(reverse=True)
    return OscVector(clamped)


def pad(v: OscVector, target_len: int) -> OscVector:
    """Extend ``v`` with trailing zeros to ``target_len``."""
    if target_len < len(v):
        raise TargetTooSmall(f"target length {target_len} < vector length {len(v)}")
    if target_len == len(v):
        return v
    return OscVector(v + (0.0,) * (target_len - len(v)))


def partial_sums(v: OscVector) -> tuple[float, ...]:
    """Cumulative sums of the coefficients (the majorization coordinates)."""
    return tuple(np.cumsum(v.as_array()).tolist())


def padded_array(v: OscVector, n: int) -> np.ndarray:
    """Coefficients as a float64 array zero-padded to length ``n``."""
    arr = np.zeros(n, dtype=np.float64)
    arr[: len(v)] = v
    return arr


# The one chunk budget: a sampled chunk or a region band holds at most this
# many product entries (or grid cells), so its working set stays cache-sized.
MAX_PRODUCT_WIDTH = 1 << 16
MAX_QUERY_WIDTH = 1 << 22  # widest product row one single query forms: 64 chunks


def _chunk_rows(n: int, k: int) -> int:
    """Rows of n·k products in one chunk (>= 1); refuses n·k > MAX_PRODUCT_WIDTH."""
    if n * k > MAX_PRODUCT_WIDTH:
        raise DomainError(f"search too large: n*k = {n * k} > {MAX_PRODUCT_WIDTH}")
    return MAX_PRODUCT_WIDTH // (n * k)


def product_spectra(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise tensor-product spectra of two batches of states.

    ``a`` is (B, n) and ``b`` is (B, k); either may be a single 1-D state,
    broadcast over the batch, and B may be 0.  Returns the (B, n*k) array
    whose row i holds every product a[i, p] * b[i, q], sorted nonincreasing.
    Rows wider than :data:`MAX_QUERY_WIDTH` raise :class:`DomainError`.
    """
    if a.shape[-1] * b.shape[-1] > MAX_QUERY_WIDTH:
        raise DomainError(f"query too large: n*k = {a.shape[-1] * b.shape[-1]} > {MAX_QUERY_WIDTH}")
    a = a.reshape(-1, a.shape[-1])
    b = b.reshape(-1, b.shape[-1])
    # Negated products sort ascending into contiguous descending rows, which
    # keeps the later cumulative sums off a reversed view.  Negation is exact.
    prods = np.multiply(-a[:, :, None], b[:, None, :])
    prods = prods.reshape(prods.shape[0], a.shape[1] * b.shape[1])
    prods.sort(axis=1)
    np.negative(prods, out=prods)
    return prods


def first_violations(lhs: np.ndarray, rhs: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise Nielsen comparison of nonincreasing spectra of equal width.

    ``lhs`` and ``rhs`` are (B, m) batches; either may be a single 1-D row,
    broadcast over the batch.  Returns an int array with, per row, the
    smallest 1-based prefix length l with sum(lhs[:l]) > sum(rhs[:l]) + eps,
    or 0 where lhs ≺ rhs holds.
    """
    # The ufunc methods are np.cumsum and np.any without their per-call
    # wrapper cost, which dominates single-query calls.
    bad = np.add.accumulate(lhs, axis=-1) > np.add.accumulate(rhs, axis=-1) + eps
    first = bad.argmax(axis=-1) + 1
    first *= np.logical_or.reduce(bad, axis=-1)
    return first


def majorizes_check(a: OscVector, b: OscVector, tol: Tolerance = DEFAULT_TOL) -> MajorizationVerdict:
    """Compare two spectra in the majorization preorder.

    Unequal lengths are zero-padded to the longer one, so a 2-dim source can
    be compared against a 3-dim target directly.  ``a ≺ b`` (relation
    MAJORIZED_BY or EQUIVALENT) means the state with spectrum ``a`` converts
    deterministically to the one with spectrum ``b`` under LOCC.
    """
    pair = np.zeros((2, max(len(a), len(b))), dtype=np.float64)
    pair[0, : len(a)] = a
    pair[1, : len(b)] = b
    fwd, rev = first_violations(pair, pair[::-1], tol.eps_major).tolist()
    if not fwd:
        relation = Relation.EQUIVALENT if not rev else Relation.MAJORIZED_BY
    else:
        relation = Relation.INCOMPARABLE if rev else Relation.MAJORIZES
    return MajorizationVerdict(relation, fwd or None)


def tensor_spectrum(a: OscVector, b: OscVector) -> OscVector:
    """Spectrum of the tensor product: all pairwise products, sorted nonincreasing."""
    return OscVector(product_spectra(a.as_array(), b.as_array())[0].tolist())


def entropy_bits(v: OscVector) -> float:
    """Entanglement entropy -sum(p * log2 p) in bits, with 0*log(0) = 0."""
    arr = v.as_array()
    pos = arr[arr > 0.0]
    return float(-(pos * np.log2(pos)).sum())
