"""Tests for the decision procedure, simplex sampler, and Monte Carlo search."""

import os
import sys
import threading
import time
import tracemalloc

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
from catalocc import core, search
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


class Boom(Exception):
    pass


def recorded_draws(monkeypatch, raise_at=None, pause=0.0):
    """Wrap ``search.substream`` to log (block, thread) for each block drawn.

    A draw of block ``raise_at`` logs "raised" in place of the block and
    raises :class:`Boom`; every other draw sleeps ``pause`` seconds after
    it is logged.
    """
    draws = []
    real = search.substream

    def wrapped(seed, ctx, block):
        if block == raise_at:
            draws.append(("raised", threading.current_thread()))
            raise Boom
        draws.append((block, threading.current_thread()))
        time.sleep(pause)
        return real(seed, ctx, block)

    monkeypatch.setattr(search, "substream", wrapped)
    return draws


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

    def test_wide_queries_are_refused_before_any_product(self):
        # n·k = 4,096 · 1,025 is just above MAX_QUERY_WIDTH; k >= n forms nothing
        wide = TransformQuery(OscVector.maximally_entangled(4096), OscVector.separable())
        assert 4096 * 1024 == search.MAX_QUERY_WIDTH
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="query too large: n\\*k = 4198400"):
                general_catalyst_exists(wide, 1025)
            assert general_catalyst_exists(wide, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_k_below_one_is_refused(self):
        for k in (0, -2):
            with pytest.raises(DomainError, match="k must be >= 1"):
                general_catalyst_exists(JP_SHIFTED, k)

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


def simplex_rows(rng, rows, k):
    """``rows`` sorted points on the (k-1)-simplex, drawn in one step."""
    [(_, (part,))] = _sorted_simplex_rows(rng, rows, rows, k)
    return part


class TestSampleSortedSimplex:
    def test_degenerate_k1(self):
        rng = substream(1, CTX_TRIALS, 0)
        assert simplex_rows(rng, 1, 1).tolist() == [[1.0]]

    def test_valid_sorted_output(self):
        rng = substream(2, CTX_TRIALS, 0)
        for k in (2, 3, 5, 8):
            v = simplex_rows(rng, 1, k)[0].tolist()
            assert len(v) == k
            assert all(a >= b for a, b in zip(v, list(v)[1:]))
            assert sum(v) == pytest.approx(1.0, abs=1e-12)

    def test_top_coefficient_mean_k2(self):
        # E[max] = 3/4 for the flat (1-)simplex
        rng = substream(3, CTX_TRIALS, 0)
        rows = simplex_rows(rng, 100_000, 2)
        assert rows[:, 0].mean() == pytest.approx(0.75, abs=0.005)

    def test_deterministic_across_runs(self):
        a = simplex_rows(substream(7, CTX_TRIALS, 5), 1, 4).tolist()
        b = simplex_rows(substream(7, CTX_TRIALS, 5), 1, 4).tolist()
        assert a == b

    def test_batch_equals_sequential(self):
        batched = simplex_rows(substream(11, CTX_TRIALS, 2), 16, 3)
        steps = list(_sorted_simplex_rows(substream(11, CTX_TRIALS, 2), 16, 1, 3))
        assert [off for off, _ in steps] == list(range(16))
        assert np.array_equal(batched, np.concatenate([part for _, (part,) in steps]))

    def test_parts_are_normalised_in_place(self):
        # a row of zeros (every uniform 0.0) becomes the flat point, and a
        # part touches only its own columns of the shared rows
        e = np.array([[0.0, 0.0, 0.0, 3.0, 1.0], [1.0, 3.0, 0.0, 0.0, 0.0]])
        left, right = search._simplex_points(e[:, :3]), search._simplex_points(e[:, 3:])
        assert left.tolist() == [[1 / 3] * 3, [0.75, 0.25, 0.0]]
        assert right.tolist() == [[0.75, 0.25], [0.5, 0.5]]
        assert np.shares_memory(left, e) and np.shares_memory(right, e)

    def test_substream_keys_are_range_checked(self):
        assert substream(1, CTX_TRIALS, (1 << 48) - 1).random() < 1.0
        for context, index in ((CTX_TRIALS, -1), (CTX_TRIALS, 1 << 48), (0, 0), (1 << 15, 0)):
            with pytest.raises(ValueError, match="out of range"):
                substream(1, context, index)


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

    def test_success_catalyst_holds_python_floats(self):
        outcome = monte_carlo_standard_catalyst(JP, SearchConfig(k=3, big_number=1000, seed=7))
        assert outcome.status is SearchStatus.SUCCESS
        assert type(outcome.catalyst) is OscVector
        assert all(type(c) is float for c in outcome.catalyst)

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
        assert 64 * 1024 == core.MAX_PRODUCT_WIDTH
        for query, k in ((padded(64), 1024), (JP, 2048)):
            with pytest.raises(Drawn):
                monte_carlo_standard_catalyst(query, SearchConfig(k=k, big_number=10, seed=1))

    def test_chunked_draws_match_whole_block_draws(self):
        # n·k = 512 gives 128-row chunks, so each block is drawn in 32 pieces;
        # the seeds put the first hit in chunk 0, in chunk 1, later in block 0,
        # and in block 1 (index 4911).  n·k = 4,096 gives 16-row chunks, and
        # its hits are at rows 0, 18, 19 and 62
        runs = {
            128: ((128, 4, 7), (64, 8, 6), (64, 8, 2), (128, 4, 5)),
            16: ((256, 16, 53), (512, 8, 5), (256, 16, 27), (256, 16, 6)),
        }
        for chunk, n, k, seed in ((c, *run) for c, group in runs.items() for run in group):
            assert search._chunk_rows(n, k) == chunk
            query = TransformQuery(
                make_osc(JP_SOURCE.coeffs + (0.0,) * (n - 4)), JP_TARGET_SHIFTED
            )
            for m in (1, chunk, chunk + 1, TRIAL_BLOCK, TRIAL_BLOCK + 1):
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

    def test_memory_is_one_chunk_at_the_widest_rows(self):
        # n·k = MAX_PRODUCT_WIDTH: each chunk is one row of 65,536 products
        query = TransformQuery(make_osc(NO_GO_2X2.psi.coeffs + (0.0,) * 62), NO_GO_2X2.phi)
        tracemalloc.start()
        try:
            cfg = SearchConfig(k=1024, big_number=64, seed=1)
            outcome = monte_carlo_standard_catalyst(query, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status is SearchStatus.FAILURE
        assert peak < 8 * 2**20

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
        assert seen.submitted == 2  # one future per worker, not one per block
        assert seen.peak_unfinished <= 2

    def test_unknown_cpu_count_runs_sequentially(self, pool_sizes):
        seen = pool_sizes(search, cpus=None)
        cfg = SearchConfig(k=2, big_number=3 * TRIAL_BLOCK, seed=7)
        monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=8)
        assert seen == []

    def test_workers_below_one_run_on_the_calling_thread(self, pool_sizes, monkeypatch):
        seen = pool_sizes(search, cpus=4)
        cfg = SearchConfig(k=2, big_number=3 * TRIAL_BLOCK, seed=7)
        sequential = monte_carlo_standard_catalyst(NO_GO_2X2, cfg)
        draws = recorded_draws(monkeypatch)
        for workers in (0, -3):
            assert monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=workers) == sequential
        assert seen == []
        assert [block for block, _ in draws] == [0, 1, 2] * 2
        assert {thread for _, thread in draws} == {threading.current_thread()}

    @pytest.mark.parametrize("workers", [2, 4])
    def test_real_pool_draws_each_block_once(self, monkeypatch, workers):
        # lowest hits in blocks 5 and 6, then a failure over 13 blocks; a
        # short switch interval interleaves the workers' draws often
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        cases = ((JP_SHIFTED, 4, 94), (JP_SHIFTED, 4, 287), (NO_GO_2X2, 2, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for query, k, seed in cases:
                cfg = SearchConfig(k=k, big_number=12 * TRIAL_BLOCK + 5, seed=seed)
                sequential = monte_carlo_standard_catalyst(query, cfg)
                draws = recorded_draws(monkeypatch)
                assert monte_carlo_standard_catalyst(query, cfg, workers=workers) == sequential
                blocks = [block for block, _ in draws]
                assert len(blocks) == len(set(blocks))
                if sequential.status is SearchStatus.SUCCESS:
                    lowest = (sequential.trials_used - 1) // TRIAL_BLOCK
                    assert lowest >= 5
                    assert set(range(lowest + 1)) <= set(blocks)
                else:
                    assert sorted(blocks) == list(range(13))
                assert threading.current_thread() not in {thread for _, thread in draws}
        finally:
            sys.setswitchinterval(interval)

    def test_a_raise_stops_the_other_worker_within_one_block(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        draws = recorded_draws(monkeypatch, raise_at=1, pause=0.01)
        cfg = SearchConfig(k=2, big_number=64 * TRIAL_BLOCK, seed=7)
        with pytest.raises(Boom):
            monte_carlo_standard_catalyst(NO_GO_2X2, cfg, workers=2)
        blocks = [block for block, _ in draws]
        # the other worker may have taken one block as block 1 raised, and no more
        assert len(blocks[blocks.index("raised") + 1:]) <= 1

    @pytest.mark.parametrize("raise_at", [None, 0, 1])
    def test_the_lowest_block_decides_when_a_higher_one_ends_first(self, monkeypatch, raise_at):
        # one worker holds block 0 until the other has hit (or raised) in
        # block 1; block 0's hit (or raise) still decides, as with one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SearchConfig(k=2, big_number=4 * TRIAL_BLOCK, seed=5)
        sequential = monte_carlo_standard_catalyst(JP, cfg)
        assert sequential.trials_used == 34  # block 1 hits too, at its trial 19
        higher_ended = threading.Event()
        drew_block_1 = []
        draws = recorded_draws(monkeypatch, raise_at=raise_at)
        recorded, real_test = search.substream, search.first_violations

        def draw(seed, ctx, block):
            if block == 0:
                assert higher_ended.wait(10)
            elif block == 1:
                drew_block_1.append(threading.current_thread())
                if raise_at == 1:
                    higher_ended.set()
            return recorded(seed, ctx, block)

        def tested(lhs, rhs, eps):
            first = real_test(lhs, rhs, eps)
            if threading.current_thread() in drew_block_1 and (first == 0).any():
                higher_ended.set()
            return first

        monkeypatch.setattr(search, "substream", draw)
        monkeypatch.setattr(search, "first_violations", tested)
        if raise_at == 0:
            with pytest.raises(Boom):
                monte_carlo_standard_catalyst(JP, cfg, workers=2)
        else:
            assert monte_carlo_standard_catalyst(JP, cfg, workers=2) == sequential
        assert higher_ended.is_set()
        assert len(draws) == 2  # blocks 0 and 1, each once

    def test_a_block_above_a_hit_stops_within_one_chunk(self, monkeypatch):
        # n·k = 512 gives 128-row chunks, and block 0 hits in its first chunk;
        # the worker that took block 1 draws it only once the other worker has
        # returned with that hit, then stops after one chunk of its 32
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        query = TransformQuery(make_osc(JP_SOURCE.coeffs + (0.0,) * 124), JP_TARGET_SHIFTED)
        cfg = SearchConfig(k=4, big_number=2 * TRIAL_BLOCK, seed=7)
        sequential = monte_carlo_standard_catalyst(query, cfg)
        assert sequential.trials_used <= 128
        took_block_1, returned = threading.Event(), threading.Event()
        drawn = []  # rows of each draw from block 1's stream

        class Pool(search.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                def run():
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        returned.set()

                return super().submit(run)

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                drawn.append(shape[0])
                return self.rng.random(shape)

        real = search.substream

        def draw(seed, ctx, block):
            if block == 0:
                assert took_block_1.wait(10)
                return real(seed, ctx, block)
            took_block_1.set()
            assert returned.wait(10)
            return Counted(real(seed, ctx, block))

        monkeypatch.setattr(search, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(search, "substream", draw)
        assert monte_carlo_standard_catalyst(query, cfg, workers=2) == sequential
        assert drawn == [128]

    def test_running_out_of_blocks_stops_no_other_worker(self, monkeypatch):
        # the worker holding the last block, 5, which holds the lowest hit,
        # scans it after the other worker has found no block left and returned
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SearchConfig(k=4, big_number=6 * TRIAL_BLOCK, seed=94)
        sequential = monte_carlo_standard_catalyst(JP_SHIFTED, cfg)
        assert (sequential.trials_used - 1) // TRIAL_BLOCK == 5
        returned = threading.Event()

        class Pool(search.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                def run():
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        returned.set()

                return super().submit(run)

        draws = recorded_draws(monkeypatch)
        recorded = search.substream

        def draw(seed, ctx, block):
            if block == 5:
                assert returned.wait(10)
            return recorded(seed, ctx, block)

        monkeypatch.setattr(search, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(search, "substream", draw)
        assert monte_carlo_standard_catalyst(JP_SHIFTED, cfg, workers=2) == sequential
        assert sorted(block for block, _ in draws) == list(range(6))

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
