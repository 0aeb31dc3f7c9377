"""Seeded input generators for the three benchmark workloads.

Every input is a plain Python value (lists of floats, ints, strings) made
from the benchmark seed with numpy's PCG64 generator.  The program under
test sees only these values; it never receives the seed.  The same seed
always gives the same inputs, independent of how long a run lasts.

Why each workload exists, and its mix, is recorded next to its generator.
"""

from __future__ import annotations

import math

import numpy as np

EPS_MAJOR = 1e-12  # the program's default partial-sum slack

# ---------------------------------------------------------------------------
# queries: the interactive use of `check` / `catalyze`, as single in-process
# calls with one client in a closed loop.  Per-call overhead, make_osc
# validation and the heapq merge in tensor_spectrum do almost all the work;
# the batched Monte Carlo kernel does little.  A certificate that
# short-circuits hopeless searches would also show here (the "mc" share
# holds random blocked pairs, most of which a Renyi bound refutes).
#
# The mix below is assumed, not measured: no record of how catalocc is used
# exists.  The weights follow what the repository does document, and a run
# prints each kind's and each n's measured share of the pass time, so a reader
# can see what the end-to-end metrics weigh.  Counts are exact per block of
# QUERY_BLOCK queries, so the seed changes the random vectors but never the
# mix or the sizes:
QUERY_MIX = (
    # `check` is the first command of the README session and the cheapest
    # question: the largest share.
    ("check", 350),      # make_osc x2 + majorizes_check
    # The README shows `catalyze --chi` in both modes, one example each.
    ("general", 200),    # is_general_catalyst with a given chi
    ("standard", 200),   # standard-mode check, then classify_catalyst if feasible
    # The README's exact decision with --k: one example, a smaller share.
    ("exists", 150),     # general_catalyst_exists with a given k
    # A "small share" each: a search is far dearer than any other query, and
    # malformed input is the exception in interactive use.
    ("mc", 50),          # monte_carlo_standard_catalyst, budget MC_QUERY_BUDGET
    ("malformed", 50),   # negative / unnormalised / +-inf input: must be rejected
)
QUERY_BLOCK = sum(count for _, count in QUERY_MIX)
QUERY_BLOCKS_PER_PASS = 2
# State and catalyst dimensions: value -> weight.  Every documented example
# is small (the README's states have n = 3 or 4 and its catalysts k = 2 or 3;
# the ROADMAP's timings use n = 4), so n = 2-4 get half of the queries and
# chi = 2-3 half; the other half spreads evenly over the larger sizes up to
# the n = 64 and chi = 16 the workload must cover.
QUERY_N = {2: 2, 3: 3, 4: 3, 6: 1, 8: 1, 12: 1, 16: 1, 24: 1, 32: 1, 48: 1, 64: 1}
QUERY_CHI = {2: 3, 3: 2, 4: 1, 6: 1, 8: 1, 12: 1, 16: 1}
MC_QUERY_N = (3, 4, 5, 6, 8)
MC_QUERY_K = (2, 3, 4)
MC_QUERY_BUDGET = 256
# Half of the check / general / standard queries use a planted comparable
# pair (phi = (1-t) psi + t e1, so psi converts to phi): that makes the
# feasible branches (classify_catalyst) run as often as the blocked ones.
PLANTED_SHARE = 0.5
# NaN is left out of the malformed share: make_osc accepts it today (a known
# defect), and every operation in a workload must have a correct answer.
# The traced run counts it instead (core.make_osc.nan_accepted).
MALFORMED_KINDS = ("negative", "unnormalised", "pos_inf", "neg_inf")


def _simplex(rng: np.random.Generator, n: int) -> list[float]:
    """Flat-Dirichlet point in random (unsorted) order, as raw floats."""
    e = rng.exponential(size=n)
    return [float(v) for v in e / e.sum()]


def _planted_target(rng: np.random.Generator, psi: list[float]) -> list[float]:
    """A target that psi converts to: mix psi (sorted) towards (1, 0, ...)."""
    t = float(rng.uniform(0.05, 0.5))
    ordered = sorted(psi, reverse=True)
    phi = [(1.0 - t) * v for v in ordered]
    phi[0] += t
    perm = rng.permutation(len(phi))
    return [phi[i] for i in perm]


def _malformed(rng: np.random.Generator, n: int, kind: str) -> list[float]:
    raw = _simplex(rng, n)
    i = int(rng.integers(n))
    if kind == "negative":
        raw[i] = -0.05
    elif kind == "unnormalised":
        raw = [v * 1.05 for v in raw]
    elif kind == "pos_inf":
        raw[i] = math.inf
    else:
        raw[i] = -math.inf
    return raw


def _stratified(rng: np.random.Generator, weights: dict, count: int) -> list:
    """``count`` values cycling through ``weights`` (each value repeated by
    its weight), in shuffled order."""
    values = [v for v, w in weights.items() for _ in range(w)]
    seq = [values[i % len(values)] for i in range(count)]
    return [seq[i] for i in rng.permutation(count)]


def _blocked_pair(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """Random pair with psi not convertible to phi (checked by scalar loop)."""
    while True:
        psi, phi = _simplex(rng, n), _simplex(rng, n)
        if not leq(sorted(psi, reverse=True), sorted(phi, reverse=True)):
            return psi, phi


def query_stream(seed: int) -> list[tuple]:
    """One pass of the `queries` workload: a list of (kind, *args) tuples."""
    rng = np.random.default_rng([seed, 1])
    out: list[tuple] = []
    for _ in range(QUERY_BLOCKS_PER_PASS):
        block: list[tuple] = []
        for kind, count in QUERY_MIX:
            ns = _stratified(rng, QUERY_N, count)
            ks = _stratified(rng, QUERY_CHI, count)
            for j in range(count):
                n, k = ns[j], ks[j]
                planted = j < count * PLANTED_SHARE
                if kind in ("check", "general", "standard", "exists"):
                    psi = _simplex(rng, n)
                    phi = _planted_target(rng, psi) if planted else _simplex(rng, n)
                    if kind == "check":
                        block.append((kind, psi, phi))
                    elif kind == "exists":
                        block.append((kind, psi, phi, k))
                    else:
                        block.append((kind, psi, phi, _simplex(rng, k)))
                elif kind == "mc":
                    n_mc = MC_QUERY_N[j % len(MC_QUERY_N)]
                    k_mc = MC_QUERY_K[j % len(MC_QUERY_K)]
                    psi, phi = _blocked_pair(rng, n_mc)
                    block.append((kind, psi, phi, k_mc, MC_QUERY_BUDGET, int(rng.integers(1 << 32))))
                else:
                    bad = _malformed(rng, n, MALFORMED_KINDS[j % len(MALFORMED_KINDS)])
                    block.append((kind, bad, _simplex(rng, n)))
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out


# ---------------------------------------------------------------------------
# mc-search: long monte_carlo_standard_catalyst runs with workers=2.  The
# kernel (rng, products, sort, cumsum, compare) dominates, and no certificate
# can skip these inputs: every pair is blocked yet passes psi1 <= phi1 and
# the Renyi alpha-grid below, the necessary conditions for a standard
# catalyst of any dimension.  This is the kernel's workload and the one where
# a --threads change shows.
#
# A pass runs each size's stream of pairs in order until the searches have
# used exactly MC_QUOTA_SEARCHES * M trials at that size; the last search's
# budget is cut to what is left.  So every pass does the same kernel work
# whatever the seed, although about a quarter of the pairs succeed within a
# few trials.  Budgets are set so that a search that exhausts its budget
# costs about the same time at every size; most searches exhaust it, so the
# median search is one of those and does not jump between sizes.
MC_SIZES = ((8, 4, 81920), (16, 8, 28672), (32, 16, 8192))  # (n, k, budget M)
MC_QUOTA_SEARCHES = 9
MC_STREAM = 40  # pairs generated per size; a pass needs far fewer
MC_WORKERS = 2
RENYI_ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, math.inf)


def renyi_consistent(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row-wise H_alpha(psi) >= H_alpha(phi) for every alpha in RENYI_ALPHAS.

    Rows are sorted nonincreasing and strictly positive.  alpha = 0 compares
    ranks, alpha = 1 Shannon entropies, alpha = inf the top coefficients;
    otherwise the power sums, whose order flips at alpha = 1.
    """
    ok = np.ones(psi.shape[0], dtype=bool)
    for a in RENYI_ALPHAS:
        if a == 0.0:
            ok &= (psi > 0).sum(axis=1) >= (phi > 0).sum(axis=1)
        elif a == 1.0:
            ok &= -(psi * np.log(psi)).sum(axis=1) >= -(phi * np.log(phi)).sum(axis=1)
        elif math.isinf(a):
            ok &= psi[:, 0] <= phi[:, 0]
        elif a < 1.0:
            ok &= (psi**a).sum(axis=1) >= (phi**a).sum(axis=1)
        else:
            ok &= (psi**a).sum(axis=1) <= (phi**a).sum(axis=1)
    return ok


def mc_pairs(seed: int) -> dict[tuple[int, int], list[tuple[list[float], list[float], int]]]:
    """Per (n, k): a stream of (psi, phi, search seed), blocked and Renyi-consistent."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for n, k, _ in MC_SIZES:
        found: list[tuple[np.ndarray, np.ndarray]] = []
        while len(found) < MC_STREAM:
            e = rng.exponential(size=(2048, 2, n))
            x = e / e.sum(axis=2, keepdims=True)
            x = -np.sort(-x, axis=2)
            psi, phi = x[:, 0], x[:, 1]
            blocked = (np.cumsum(psi, axis=1) > np.cumsum(phi, axis=1) + EPS_MAJOR).any(axis=1)
            for i in np.flatnonzero(blocked & renyi_consistent(psi, phi)):
                found.append((psi[i], phi[i]))
        out[(n, k)] = [([float(v) for v in psi], [float(v) for v in phi],
                        int(rng.integers(1 << 32))) for psi, phi in found[:MC_STREAM]]
    return out


# ---------------------------------------------------------------------------
# reproduce: the README's reproduction session, as sequential `catalocc`
# subprocesses with the README's parameters.  It stresses cli start-up,
# manifests and sha256, the experiments rejection sampler, JSONL write and
# re-certifying read, the CSV writers and the region scan; it touches the MC
# kernel only through 5,000 tiny (M <= 100) searches, where per-call and rng
# overhead dominate.  `curve` runs with --threads 2, which is slower than one
# thread today.
PAIR_COUNT = 5000
STATES = {
    "psi": [0.4, 0.4, 0.1, 0.1],
    "phi": [0.5, 0.25, 0.25, 0.0],
    "chi": [0.6, 0.4],
    "mpsi": [0.5, 0.26, 0.24],
    "mphi": [0.49, 0.48, 0.03],
    "mchi": [0.62, 0.3, 0.08],
}


def session_commands(seed: int) -> list[tuple[str, list[str], int]]:
    """(name, argv after the program name, expected exit code) per command.

    ``{in}`` and ``{out}`` stand for the input and output directories.  The
    seed drives genpairs and curve, the only randomized file outputs.
    """
    s = str(seed)
    return [
        ("fixtures", ["--out", "{out}", "fixtures"], 0),
        ("check", ["check", "{in}/psi.json", "{in}/phi.json"], 1),
        ("catalyze", ["catalyze", "{in}/psi.json", "{in}/phi.json", "--chi", "{in}/chi.json",
                      "--mode", "standard"], 0),
        ("catalyze", ["catalyze", "{in}/psi.json", "{in}/phi.json", "--chi", "{in}/chi.json",
                      "--mode", "general"], 0),
        ("catalyze", ["catalyze", "{in}/psi.json", "{in}/phi.json", "--k", "2", "--mode",
                      "general"], 0),
        ("catalyze", ["--seed", "7", "catalyze", "{in}/psi.json", "{in}/phi.json", "--k", "2",
                      "--mode", "standard", "-M", "1000"], 0),
        ("region", ["--out", "{out}", "region", "{in}/mpsi.json", "{in}/mphi.json",
                    "{in}/mchi.json", "--resolution", "1000"], 0),
        ("genpairs", ["--seed", s, "--out", "{out}", "genpairs", "--n", "8", "--k", "4",
                      "--count", str(PAIR_COUNT)], 0),
        ("curve", ["--seed", s, "--out", "{out}", "--threads", "2", "curve", "--pairs",
                   "{out}/pairs.jsonl", "--k", "4"], 0),
    ]


# ---------------------------------------------------------------------------
# Independent scalar checks: plain Python prefix loops over naive sorts,
# sharing no code with the program.


def product(a, b) -> list[float]:
    """All pairwise products a_i * b_j, sorted nonincreasing."""
    prods = [x * y for x in a for y in b]
    prods.sort(reverse=True)
    return prods


def first_violation(lhs, rhs, eps: float = EPS_MAJOR) -> int | None:
    """Smallest 1-based prefix l with sum(lhs[:l]) > sum(rhs[:l]) + eps."""
    la, lb = list(lhs), list(rhs)
    n = max(len(la), len(lb))
    la += [0.0] * (n - len(la))
    lb += [0.0] * (n - len(lb))
    sa = sb = 0.0
    for l, (x, y) in enumerate(zip(la, lb), start=1):
        sa += x
        sb += y
        if sa > sb + eps:
            return l
    return None


def leq(lhs, rhs, eps: float = EPS_MAJOR) -> bool:
    """lhs ≺ rhs by the scalar prefix loop (inputs sorted nonincreasing)."""
    return first_violation(lhs, rhs, eps) is None
