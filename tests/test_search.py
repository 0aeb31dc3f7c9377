"""Tests for the decision procedure, simplex sampler, and Monte Carlo search."""

import numpy as np
import pytest

from catalocc import (
    DomainError,
    OscVector,
    Relation,
    SearchConfig,
    SearchStatus,
    TransformQuery,
    general_catalyst_exists,
    majorizes_check,
    make_osc,
    monte_carlo_standard_catalyst,
    tensor_spectrum,
)
from catalocc import search
from catalocc.experiments import JP_SOURCE, JP_TARGET, JP_TARGET_SHIFTED
from catalocc.rng import CTX_TRIALS, substream
from catalocc.search import TRIAL_BLOCK, _sorted_simplex_rows
from oracles import (
    exhaustive_catalyst_oracle,
    first_hit_whole_blocks,
    random_osc,
    standard_region_measure_2x2,
)

JP = TransformQuery(JP_SOURCE, JP_TARGET)
JP_SHIFTED = TransformQuery(JP_SOURCE, JP_TARGET_SHIFTED)
NO_GO_2X2 = TransformQuery(make_osc((0.8, 0.2)), make_osc((0.75, 0.25)))


class TestGeneralCatalystExists:
    def test_shifted_target_k2(self):
        # decisive prefix sums 0.2, 0.4, 0.6 against 0.48, 0.75, 1.0
        assert general_catalyst_exists(JP_SHIFTED, 2)

    def test_k_at_least_n_always(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            psi = random_osc(rng, n)
            phi = random_osc(rng, n)
            q = TransformQuery(psi, phi)
            for k in (n, n + 1, n + 3, 10**9):
                assert general_catalyst_exists(q, k)

    def test_single_decisive_inequality_2x2(self):
        # k=2: feasible iff alpha1/2 <= beta1
        assert general_catalyst_exists(NO_GO_2X2, 2)

    def test_agrees_with_uniform_ancilla_reduction(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            q = TransformQuery(random_osc(rng, n), random_osc(rng, n))
            k = int(rng.integers(1, n + 2))
            expected = majorizes_check(
                tensor_spectrum(q.psi, OscVector.maximally_entangled(k)), q.phi
            ).relation in (Relation.MAJORIZED_BY, Relation.EQUIVALENT)
            got = general_catalyst_exists(q, k)
            # the reduction is exact except for already-feasible pairs,
            # where the answer is trivially True
            from catalocc import locc_feasible

            assert got == (expected or locc_feasible(q))

    def test_ties_and_trailing_zeros(self):
        # integer weights give tied entries and zero tails on both sides
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            psi, phi = (
                make_osc((w / w.sum()).tolist())
                for w in (rng.integers(0, 3, n) + np.eye(n)[0] for _ in range(2))
            )
            q = TransformQuery(psi, phi)
            for k in range(1, n):
                expected = majorizes_check(
                    tensor_spectrum(psi, OscVector.maximally_entangled(k)), phi
                ).feasible
                assert general_catalyst_exists(q, k) == expected


class TestSampleSortedSimplex:
    def test_degenerate_k1(self):
        rng = substream(1, CTX_TRIALS, 0)
        assert _sorted_simplex_rows(rng, 1, 1).tolist() == [[1.0]]

    def test_valid_sorted_output(self):
        rng = substream(2, CTX_TRIALS, 0)
        for k in (2, 3, 5, 8):
            v = _sorted_simplex_rows(rng, 1, k)[0].tolist()
            assert len(v) == k
            assert all(a >= b for a, b in zip(v, list(v)[1:]))
            assert sum(v) == pytest.approx(1.0, abs=1e-12)

    def test_top_coefficient_mean_k2(self):
        # E[max] = 3/4 for the flat (1-)simplex
        rng = substream(3, CTX_TRIALS, 0)
        rows = _sorted_simplex_rows(rng, 100_000, 2)
        assert rows[:, 0].mean() == pytest.approx(0.75, abs=0.005)

    def test_deterministic_across_runs(self):
        a = _sorted_simplex_rows(substream(7, CTX_TRIALS, 5), 1, 4).tolist()
        b = _sorted_simplex_rows(substream(7, CTX_TRIALS, 5), 1, 4).tolist()
        assert a == b

    def test_batch_equals_sequential(self):
        batched = _sorted_simplex_rows(substream(11, CTX_TRIALS, 2), 16, 3)
        rng = substream(11, CTX_TRIALS, 2)
        single = np.concatenate([_sorted_simplex_rows(rng, 1, 3) for _ in range(16)])
        assert np.array_equal(batched, single)


class TestMonteCarlo:
    def test_jp_pair_succeeds(self):
        cfg = SearchConfig(k=2, big_number=1000, seed=12345)
        outcome = monte_carlo_standard_catalyst(JP, cfg)
        assert outcome.status is SearchStatus.SUCCESS
        # feasible standard catalysts have x1 in [0.6, 0.625]
        assert 0.6 - 1e-9 <= outcome.catalyst[0] <= 0.625 + 1e-9

    def test_jp_pair_succeeds_for_any_seed(self):
        # the feasible set has measure ~0.05 under the sampler, so a
        # 1000-trial budget succeeds for every seed in practice
        for seed in range(30):
            cfg = SearchConfig(k=2, big_number=1000, seed=seed)
            assert monte_carlo_standard_catalyst(JP, cfg).status is SearchStatus.SUCCESS

    def test_success_catalyst_reverifies(self):
        cfg = SearchConfig(k=2, big_number=1000, seed=99)
        outcome = monte_carlo_standard_catalyst(JP, cfg)
        assert outcome.status is SearchStatus.SUCCESS
        verdict = majorizes_check(
            tensor_spectrum(JP.psi, outcome.catalyst),
            tensor_spectrum(JP.phi, outcome.catalyst),
        )
        assert verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUIVALENT)

    def test_two_level_no_go_always_fails(self):
        cfg = SearchConfig(k=4, big_number=10_000, seed=7)
        outcome = monte_carlo_standard_catalyst(NO_GO_2X2, cfg)
        assert outcome.status is SearchStatus.FAILURE
        assert outcome.catalyst is None
        assert outcome.trials_used == 10_000

    def test_feasible_pair_rejected(self):
        for q in (
            TransformQuery(OscVector.maximally_entangled(4), JP_TARGET),
            TransformQuery(OscVector((0.5, 0.5)), make_osc((0.7, 0.3))),
        ):
            with pytest.raises(DomainError):
                monte_carlo_standard_catalyst(q, SearchConfig(k=2, big_number=10, seed=1))

    def test_deterministic(self):
        cfg = SearchConfig(k=2, big_number=500, seed=321)
        a = monte_carlo_standard_catalyst(JP, cfg)
        b = monte_carlo_standard_catalyst(JP, cfg)
        assert a == b

    def test_monotone_success_in_budget(self):
        seed = 4242
        small = monte_carlo_standard_catalyst(JP, SearchConfig(k=2, big_number=40, seed=seed))
        large = monte_carlo_standard_catalyst(JP, SearchConfig(k=2, big_number=4000, seed=seed))
        if small.status is SearchStatus.SUCCESS:
            assert large.status is SearchStatus.SUCCESS
            assert large.trials_used == small.trials_used
            assert large.catalyst == small.catalyst

    def test_budget_spanning_blocks(self):
        seed = 5
        m = TRIAL_BLOCK + 17
        outcome = monte_carlo_standard_catalyst(
            NO_GO_2X2, SearchConfig(k=3, big_number=m, seed=seed)
        )
        assert outcome.status is SearchStatus.FAILURE
        assert outcome.trials_used == m

    def test_workers_do_not_change_outcome(self):
        for q, k, m, seed in [
            (JP, 2, 2000, 17),
            (NO_GO_2X2, 4, 2 * TRIAL_BLOCK + 100, 17),
            (JP_SHIFTED, 2, 6000, 23),
        ]:
            cfg = SearchConfig(k=k, big_number=m, seed=seed)
            sequential = monte_carlo_standard_catalyst(q, cfg, workers=1)
            threaded = monte_carlo_standard_catalyst(q, cfg, workers=4)
            assert sequential == threaded

    def test_trials_used_is_success_index_plus_one(self):
        cfg = SearchConfig(k=2, big_number=1000, seed=2)
        outcome = monte_carlo_standard_catalyst(JP, cfg)
        assert outcome.status is SearchStatus.SUCCESS
        assert 1 <= outcome.trials_used <= 1000
        # re-running with a budget one below the success index must fail
        if outcome.trials_used > 1:
            shorter = monte_carlo_standard_catalyst(
                JP, SearchConfig(k=2, big_number=outcome.trials_used - 1, seed=2)
            )
            assert shorter.status is SearchStatus.FAILURE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(k=0, big_number=10, seed=1)
        with pytest.raises(ValueError):
            SearchConfig(k=2, big_number=0, seed=1)

    def test_search_size_is_capped_before_any_draw(self, monkeypatch):
        class Drawn(Exception):
            pass

        def substream(*args):
            raise Drawn

        monkeypatch.setattr(search, "substream", substream)

        def padded(n):  # the JP pair, zero-padded to length n
            return TransformQuery(make_osc(JP_SOURCE.coeffs + (0.0,) * (n - 4)), JP_TARGET)

        with pytest.raises(DomainError, match="search too large"):
            monte_carlo_standard_catalyst(padded(65), SearchConfig(k=1024, big_number=10, seed=1))
        # n·k = MAX_PRODUCT_WIDTH is allowed, and so is any k within it:
        # both reach their first draw
        assert 64 * 1024 == search.MAX_PRODUCT_WIDTH
        for query, k in ((padded(64), 1024), (JP, 2048)):
            with pytest.raises(Drawn):
                monte_carlo_standard_catalyst(query, SearchConfig(k=k, big_number=10, seed=1))

    def test_chunked_draws_match_whole_block_draws(self):
        # n·k = 512 gives 128-row chunks, so each block is drawn in 32 pieces;
        # the seeds put the first hit in chunk 0, in chunk 1, later in block 0,
        # and in block 1 (index 4911)
        chunk = 128
        assert search._chunk_rows(128, 4) == search._chunk_rows(64, 8) == chunk
        budgets = (1, chunk, chunk + 1, TRIAL_BLOCK, TRIAL_BLOCK + 1)
        for n, k, seed in ((128, 4, 7), (64, 8, 6), (64, 8, 2), (128, 4, 5)):
            query = TransformQuery(
                make_osc(JP_SOURCE.coeffs + (0.0,) * (n - 4)), JP_TARGET_SHIFTED
            )
            for m in budgets:
                outcome = monte_carlo_standard_catalyst(
                    query, SearchConfig(k=k, big_number=m, seed=seed)
                )
                hit = first_hit_whole_blocks(query, k, m, seed)
                if hit is None:
                    assert outcome.status is SearchStatus.FAILURE
                    assert outcome.trials_used == m
                else:
                    assert outcome.status is SearchStatus.SUCCESS
                    assert (outcome.trials_used, outcome.catalyst.coeffs) == (hit[0] + 1, hit[1])

    def test_thread_pool_is_clamped(self, pool_sizes):
        seen = pool_sizes(search, cpus=3)
        for blocks in (5, 2):
            cfg = SearchConfig(k=2, big_number=blocks * TRIAL_BLOCK, seed=7)
            outcome = monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=1000)
            assert outcome.status is SearchStatus.FAILURE
        assert seen == [3, 2]  # min(workers, CPUs, blocks)

    def test_blocks_in_flight_are_bounded(self, pool_sizes):
        seen = pool_sizes(search, cpus=2)
        cfg = SearchConfig(k=2, big_number=64 * TRIAL_BLOCK, seed=7)
        outcome = monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=2)
        assert outcome.status is SearchStatus.FAILURE
        assert seen == [2]
        assert seen.peak_unfinished <= 4  # 2 x workers, not one per block

    def test_unknown_cpu_count_runs_sequentially(self, pool_sizes):
        seen = pool_sizes(search, cpus=None)
        cfg = SearchConfig(k=2, big_number=3 * TRIAL_BLOCK, seed=7)
        monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=8)
        assert seen == []

    def test_scalar_recheck_catches_a_bad_kernel_verdict(self, monkeypatch):
        # a kernel that accepts every row must not yield a certificate
        monkeypatch.setattr(
            search, "first_violations", lambda lhs, rhs, eps: np.zeros(len(rhs), dtype=int)
        )
        with pytest.raises(RuntimeError):
            monte_carlo_standard_catalyst(NO_GO_2X2, SearchConfig(k=2, big_number=10, seed=1))


class TestExhaustiveOracle:
    def test_jp_pair_finds_catalyst(self):
        chi = exhaustive_catalyst_oracle(JP, 2, 1e-3)
        assert chi is not None
        assert 0.6 - 1e-9 <= chi[0] <= 0.625 + 1e-9

    def test_no_go_pair_finds_nothing(self):
        assert exhaustive_catalyst_oracle(NO_GO_2X2, 2, 1e-3) is None

    def test_two_by_three_no_go(self):
        q = TransformQuery(make_osc((0.9, 0.1)), make_osc((0.6, 0.2, 0.2)))
        assert exhaustive_catalyst_oracle(q, 2, 1e-3) is None

    def test_feasible_pair_rejected(self):
        q = TransformQuery(OscVector.maximally_entangled(4), JP_TARGET)
        with pytest.raises(DomainError):
            exhaustive_catalyst_oracle(q, 2, 1e-3)

    def test_k3_runs(self):
        chi = exhaustive_catalyst_oracle(JP, 3, 0.02)
        if chi is not None:
            verdict = majorizes_check(
                tensor_spectrum(JP.psi, chi), tensor_spectrum(JP.phi, chi)
            )
            assert verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUIVALENT)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            exhaustive_catalyst_oracle(JP, 4, 1e-3)
        with pytest.raises(DomainError):
            exhaustive_catalyst_oracle(JP, 2, 0.5)


class TestOracleAgreement:
    def test_two_level_no_go_grid_sweep(self):
        # exhaustive 2x2 grid finds nothing for 10^3 blocked two-level sources
        rng = np.random.default_rng(67)
        built = 0
        while built < 1000:
            n = int(rng.integers(2, 7))
            a1 = 0.5 + 0.5 * rng.random()
            psi = OscVector((a1, 1.0 - a1))
            phi = random_osc(rng, n)
            q = TransformQuery(psi, phi)
            if majorizes_check(psi, phi).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            ):
                continue
            assert exhaustive_catalyst_oracle(q, 2, 1e-3) is None
            built += 1

    def test_monte_carlo_vs_grid_on_random_queries(self):
        rng = np.random.default_rng(61)
        tested = 0
        recorded_misses = []
        while tested < 200:
            psi = random_osc(rng, 4)
            phi = random_osc(rng, 4)
            q = TransformQuery(psi, phi)
            if majorizes_check(psi, phi).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            ):
                continue
            tested += 1
            grid = exhaustive_catalyst_oracle(q, 2, 1e-3)
            mc = monte_carlo_standard_catalyst(
                q, SearchConfig(k=2, big_number=10_000, seed=1000 + tested)
            )
            if mc.status is SearchStatus.SUCCESS and grid is None:
                # MC found a verified catalyst between grid points; fine
                continue
            if mc.status is SearchStatus.FAILURE and grid is not None:
                measure = standard_region_measure_2x2(psi.coeffs, phi.coeffs)
                assert measure < 1e-3, (
                    f"MC missed a region of measure {measure} on {psi} -> {phi}"
                )
                recorded_misses.append((psi.coeffs, phi.coeffs, measure))
        if recorded_misses:
            print(f"note: {len(recorded_misses)} thin-region Monte Carlo misses recorded")
