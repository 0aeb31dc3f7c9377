"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines live.  Budgets and tolerances are pinned here; nothing is deferred to
later calibration.
"""

import time

import numpy as np
import pytest

from catalocc import (
    CatalystKind,
    OscVector,
    Relation,
    SearchConfig,
    SearchStatus,
    TransformQuery,
    classify_catalyst,
    entropy_bits,
    general_catalyst_2x2,
    is_general_catalyst,
    is_time_reverse,
    majorizes_check,
    make_osc,
    min_residual_2x2,
    monte_carlo_standard_catalyst,
    mutual_region_scan,
    pad,
    partial_sums,
    tensor_spectrum,
)
from catalocc.experiments import (
    JP_CATALYST,
    JP_CONSUMED_RESIDUAL,
    JP_SOURCE,
    JP_TARGET,
    JP_TARGET_SHIFTED,
    MUTUAL_CATALYST,
    MUTUAL_SOURCE,
    MUTUAL_TARGET,
    TR_CATALYST,
    TR_RESIDUAL,
    TR_SOURCE,
    TR_TARGET,
    PairGenSpec,
    generate_catalyzable_pairs,
    mutual_demo_inequalities,
    success_probability_curve,
)
from oracles import bisect_min_residual, naive_tensor_spectrum, random_osc

FEASIBLE = (Relation.MAJORIZED_BY, Relation.EQUIVALENT)


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: PASS - {detail}")


def test_criterion_1_jp_regression():
    psi, phi, chi = JP_SOURCE, JP_TARGET, JP_CATALYST

    def run_once():
        verdict = majorizes_check(psi, phi)
        assisted = majorizes_check(tensor_spectrum(psi, chi), tensor_spectrum(phi, chi))
        return verdict, assisted

    run_once()  # warm-up
    start = time.perf_counter()
    verdict, assisted = run_once()
    elapsed = time.perf_counter() - start

    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.first_violation == 2
    assert assisted.relation in FEASIBLE
    lhs_sums = partial_sums(tensor_spectrum(psi, chi))
    rhs_sums = partial_sums(tensor_spectrum(phi, chi))
    assert np.allclose(
        lhs_sums, (0.24, 0.48, 0.64, 0.80, 0.86, 0.92, 0.96, 1.0), rtol=0, atol=1e-12
    )
    assert np.allclose(
        rhs_sums, (0.3, 0.5, 0.65, 0.8, 0.9, 1.0, 1.0, 1.0), rtol=0, atol=1e-12
    )
    assert elapsed < 1e-3, f"JP regression took {elapsed*1e3:.3f} ms"
    report(1, "jp-regression", f"blocked at l=2, catalyzed; {elapsed*1e6:.0f} us")


def test_criterion_2_subcatalyst_regression():
    lhs = tensor_spectrum(JP_SOURCE, JP_CATALYST)
    consumed = majorizes_check(lhs, tensor_spectrum(JP_TARGET_SHIFTED, JP_CONSUMED_RESIDUAL))
    assert consumed.relation in FEASIBLE
    unchanged = majorizes_check(lhs, tensor_spectrum(JP_TARGET_SHIFTED, JP_CATALYST))
    assert unchanged.relation not in FEASIBLE
    cls = classify_catalyst(
        TransformQuery(JP_SOURCE, JP_TARGET_SHIFTED), JP_CATALYST, JP_CONSUMED_RESIDUAL
    )
    assert cls.kind is CatalystKind.SUB
    report(2, "subcatalyst-regression", "residual (2/3, 1/3) works and is sub")


def test_criterion_3_time_reverse_demo():
    lhs = tensor_spectrum(TR_SOURCE, TR_CATALYST)
    rhs = tensor_spectrum(TR_TARGET, TR_RESIDUAL)
    assert lhs.coeffs == rhs.coeffs
    assert np.allclose(lhs.coeffs[:8], 1 / 12, rtol=0, atol=1e-15)
    assert np.allclose(lhs.coeffs[8:], 1 / 24, rtol=0, atol=1e-15)
    q = TransformQuery(TR_SOURCE, TR_TARGET)
    assert is_time_reverse(q, TR_CATALYST, TR_RESIDUAL)
    drop = entropy_bits(TR_CATALYST) - entropy_bits(TR_RESIDUAL)
    assert abs(drop - 1.0) <= 1e-12
    report(3, "time-reverse-demo", f"identical spectra, entropy drop {drop!r} bits")


def test_criterion_4_mutual_region():
    start = time.perf_counter()
    grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 1000)
    scan_time = time.perf_counter() - start
    assert scan_time < 5.0, f"scan took {scan_time:.2f} s"
    assert grid.feasible_count > 0
    assert grid.feasible_at(0.81, 0.10)

    ii, _ = np.nonzero(grid.cells)
    min_x1 = (ii.min() + 0.5) / grid.resolution
    assert min_x1 >= 31.0 / 49.0 - 1e-3

    # Cell-for-cell agreement with the closed-form system on the sub-grid
    # where its residual ordering assumptions and its incomparability
    # premise (x1' + x2' < 0.92, a chi ↛ chi' requirement rather than a
    # majorization consequence) hold.
    res = grid.resolution
    centers = (np.arange(res) + 0.5) / res
    x1 = centers[:, None]
    x2 = centers[None, :]
    orderings = (
        (0.48 * x1 >= 0.49 * x2)
        & (0.49 * x1 + 0.97 * x2 >= 0.49)
        & (17.0 * x1 + 16.0 * x2 <= 16.0)
        & (x1 + x2 < 0.92)
    )
    system = (
        (x1 >= 31.0 / 49.0)
        & (0.97 * x1 + 0.49 * x2 >= 0.6212)
        & (0.97 * (x1 + x2) >= 0.77)
        & orderings
    )
    mask = grid.constraint_mask & orderings
    disagreements = int(np.count_nonzero(system[mask] != grid.cells[mask]))
    assert disagreements == 0, f"{disagreements} disagreeing cells"

    # tie the scalar predicate to the vectorized system on sampled cells
    rng = np.random.default_rng(67)
    for _ in range(2000):
        i, j = int(rng.integers(res)), int(rng.integers(res))
        assert mutual_demo_inequalities(centers[i], centers[j]) == bool(system[i, j])

    report(
        4,
        "mutual-region",
        f"{grid.feasible_count} feasible cells, scan {scan_time:.2f} s, "
        f"0 disagreements on {int(mask.sum())} comparable cells",
    )


def _blocked_2x2(rng) -> TransformQuery:
    b1 = 0.5 + 0.49 * rng.random()  # keep beta2 away from the degenerate 0
    a1 = b1 + (1.0 - b1) * (1e-4 + (1 - 1e-4) * rng.random())
    return TransformQuery(OscVector((a1, 1.0 - a1)), OscVector((b1, 1.0 - b1)))


def test_criterion_5_two_level_oracle_equivalence():
    rng = np.random.default_rng(71)
    xs = np.linspace(0.5, 1.0, 9)
    disagreements = 0
    worst_residual_gap = 0.0
    for _ in range(10_000):
        q = _blocked_2x2(rng)
        for x in xs:
            closed = general_catalyst_2x2(q, float(x))
            direct = is_general_catalyst(q, OscVector((float(x), 1.0 - float(x)))).feasible
            if closed != direct:
                disagreements += 1
        # minimal residual against the bisection oracle
        b_over_a = q.phi[0] / q.psi[0]
        hi = min(1.0, b_over_a) - 1e-3
        if hi > 0.5:
            x = 0.5 + (hi - 0.5) * float(rng.random())
            got = min_residual_2x2(q, x)
            want = bisect_min_residual(q.psi.coeffs, q.phi.coeffs, x)
            gap = abs(got - want)
            worst_residual_gap = max(worst_residual_gap, gap)
            assert gap <= 1e-9, f"residual gap {gap} on {q} at x={x}"
    assert disagreements == 0
    report(
        5,
        "two-level-oracle-equivalence",
        f"0 disagreements on 10^4 pairs x 9-point grid; "
        f"worst residual gap {worst_residual_gap:.2e}",
    )


def test_criterion_6_two_level_no_go():
    rng = np.random.default_rng(73)
    queries = []
    while len(queries) < 1000:
        n = int(rng.integers(2, 7))
        a1 = 0.5 + 0.5 * rng.random()
        psi = OscVector((a1, 1.0 - a1))
        if n == 2:
            b1 = 0.5 + (a1 - 0.5 - 1e-9) * rng.random()
            phi = OscVector((b1, 1.0 - b1))
        else:
            phi = random_osc(rng, n)
            if phi[0] >= a1 - 1e-9:
                continue
        queries.append(TransformQuery(psi, phi))

    for i, q in enumerate(queries):
        assert majorizes_check(q.psi, q.phi).relation not in FEASIBLE
        assert entropy_bits(q.psi) < entropy_bits(q.phi)
        # proof that no chi of any dimension works: the top entry of
        # psi ⊗ chi is psi_1·chi_1 > phi_1·chi_1, the top entry of phi ⊗ chi
        assert q.psi[0] > q.phi[0]
        outcome = monte_carlo_standard_catalyst(
            q, SearchConfig(k=4, big_number=10_000, seed=10_000 + i)
        )
        assert outcome.status is SearchStatus.FAILURE
        assert outcome.trials_used == 10_000
    report(6, "two-level-no-go", "1000 queries: entropy check holds, 10^4-trial searches all fail")


@pytest.fixture(scope="module")
def default_pairs():
    spec = PairGenSpec(seed=20_250_808, n=8, k=4, count=5000)
    start = time.perf_counter()
    pairs = generate_catalyzable_pairs(spec)
    return pairs, time.perf_counter() - start


def test_criterion_7_success_curve(default_pairs):
    pairs, gen_time = default_pairs
    assert len(pairs) == 5000
    start = time.perf_counter()
    points = success_probability_curve(pairs, 4, (1, 5, 10, 25, 50, 100), seed=20_250_808)
    curve_time = time.perf_counter() - start
    fractions = [p.success_fraction for p in points]
    assert fractions == sorted(fractions), "curve must be nondecreasing"
    at_100 = fractions[-1]
    assert at_100 >= 0.95, f"success fraction at M=100 is {at_100}"
    assert curve_time < 60.0, f"curve evaluation took {curve_time:.1f} s"
    report(
        7,
        "success-curve",
        f"fractions {fractions}; at M=100: {at_100:.4f} "
        f"(reported headline value: 0.9992, not binding; generator differs); "
        f"generation {gen_time:.1f} s + curve {curve_time:.1f} s",
    )


def _benchmark_per_trial(n: int, k: int, trials: int = 8192) -> float:
    rng = np.random.default_rng(79)
    psi = random_osc(rng, n)
    mixed = 0.9 * psi.as_array() + 0.1 / n
    phi = OscVector(tuple(float(v) for v in mixed))  # phi ≺ psi strictly: no catalyst
    q = TransformQuery(psi, phi)
    best = float("inf")
    for rep in range(2):
        cfg = SearchConfig(k=k, big_number=trials, seed=rep)
        start = time.perf_counter()
        outcome = monte_carlo_standard_catalyst(q, cfg)
        best = min(best, time.perf_counter() - start)
        assert outcome.status is SearchStatus.FAILURE
    return best / trials


def test_criterion_8_scaling_and_merge_oracle():
    sizes = [(8, 4), (16, 8), (32, 16)]
    per_trial = {s: _benchmark_per_trial(*s) for s in sizes}
    for (sa, sb) in zip(sizes, sizes[1:]):
        growth = per_trial[sb] / per_trial[sa]
        linear = (sb[0] * sb[1]) / (sa[0] * sa[1])
        assert growth <= 2.0 * linear, (
            f"per-trial time grew {growth:.2f}x from {sa} to {sb}, "
            f"beyond 2x of linear ({linear}x)"
        )
    total_growth = per_trial[sizes[-1]] / per_trial[sizes[0]]
    assert total_growth <= 2.0 * 16

    # linear scaling in the trial budget M
    t_small = _benchmark_per_trial(8, 4, trials=2048) * 2048
    t_large = _benchmark_per_trial(8, 4, trials=16384) * 16384
    m_growth = t_large / t_small
    assert m_growth <= 2.0 * 8.0, f"time grew {m_growth:.1f}x for an 8x budget"

    rng = np.random.default_rng(83)
    for _ in range(1000):
        na, nb = rng.integers(1, 65, size=2)
        a = random_osc(rng, int(na))
        b = random_osc(rng, int(nb))
        assert list(tensor_spectrum(a, b).coeffs) == naive_tensor_spectrum(a, b)

    times = ", ".join(f"{s}: {per_trial[s]*1e6:.2f} us" for s in sizes)
    report(8, "scaling-and-merge-oracle", f"per-trial {times}; 1000 merge==sort instances")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(89)

    # preorder: reflexivity and transitivity on 10^4 sampled chains
    from oracles import majorized_mix

    for _ in range(10_000):
        c = random_osc(rng, int(rng.integers(2, 7)))
        b = majorized_mix(rng, c)
        a = majorized_mix(rng, b)
        assert majorizes_check(c, c).relation is Relation.EQUIVALENT
        assert majorizes_check(a, b).relation in FEASIBLE
        assert majorizes_check(b, c).relation in FEASIBLE
        assert majorizes_check(a, c).relation in FEASIBLE

    # extremes: uniform ≺ v ≺ separable for 10^4 random vectors
    for _ in range(10_000):
        v = random_osc(rng, int(rng.integers(1, 9)))
        n = len(v)
        assert majorizes_check(OscVector.maximally_entangled(n), v).relation in FEASIBLE
        assert majorizes_check(v, OscVector.separable(n)).relation in FEASIBLE

    # tensor monotonicity on 10^4 sampled quadruples
    for _ in range(10_000):
        b = random_osc(rng, int(rng.integers(2, 6)))
        a = majorized_mix(rng, b)
        d = random_osc(rng, int(rng.integers(2, 6)))
        c = majorized_mix(rng, d)
        assert majorizes_check(tensor_spectrum(a, c), tensor_spectrum(b, d)).relation in FEASIBLE

    # padding neutrality on 10^4 samples
    for _ in range(10_000):
        b = random_osc(rng, int(rng.integers(1, 7)))
        a = majorized_mix(rng, b)
        m = max(len(a), len(b)) + int(rng.integers(0, 4))
        assert (
            majorizes_check(a, b).relation
            is majorizes_check(pad(a, m), pad(b, m)).relation
        )

    # determinism: repeated searches give identical outcomes
    jp = TransformQuery(JP_SOURCE, JP_TARGET)
    for seed in range(50):
        cfg = SearchConfig(k=2, big_number=512, seed=seed)
        assert monte_carlo_standard_catalyst(jp, cfg) == monte_carlo_standard_catalyst(jp, cfg)

    # sequential equivalence: worker count never changes the outcome
    no_go = TransformQuery(make_osc((0.8, 0.2)), make_osc((0.75, 0.25)))
    for q, k, m in [(jp, 2, 5000), (no_go, 4, 9000)]:
        for seed in (1, 2, 3):
            cfg = SearchConfig(k=k, big_number=m, seed=seed)
            assert monte_carlo_standard_catalyst(q, cfg, workers=1) == (
                monte_carlo_standard_catalyst(q, cfg, workers=4)
            )

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"property suites took {elapsed:.1f} s"
    report(9, "property-suites", f"all invariant bundles passed in {elapsed:.1f} s")
