"""Tests for pair generation, the success curve, IO formats, and the fixture suite."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from catalocc import (
    DomainError,
    GenerationExhausted,
    OscVector,
    Relation,
    TransformQuery,
    majorizes_check,
    make_osc,
    tensor_spectrum,
)
from catalocc import core, experiments, search
from catalocc.catalysis import locc_feasible, mutual_region_scan
from catalocc.experiments import (
    JP_SOURCE,
    JP_TARGET,
    MUTUAL_CATALYST,
    MUTUAL_SOURCE,
    MUTUAL_TARGET,
    CurvePoint,
    PairGenSpec,
    generate_catalyzable_pairs,
    load_pairs_jsonl,
    reference_suite,
    success_probability_curve,
    write_curve_csv,
    write_pairs_jsonl,
    write_region_csv,
)
from catalocc.rng import CTX_CURVE, derive_seed
from catalocc.search import TRIAL_BLOCK
from oracles import first_hit_whole_blocks, naive_region_csv, unscreened_catalyzable_pairs


def small_spec(seed=101, count=40):
    return PairGenSpec(seed=seed, n=6, k=3, count=count)


class TestPairGenSpec:
    def test_rejects_k_not_below_n(self):
        with pytest.raises(ValueError):
            PairGenSpec(seed=1, n=4, k=4)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            PairGenSpec(seed=1, k=0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            PairGenSpec(seed=1, count=0)

    def test_default_budget_scales_with_count(self):
        assert PairGenSpec(seed=1, count=5000).rejection_budget == 10_000_000
        assert PairGenSpec(seed=1, count=10, max_rejections=77).rejection_budget == 77

    def test_width_is_capped_before_any_draw(self, monkeypatch):
        class Drawn(Exception):
            pass

        def substream(*args):
            raise Drawn

        monkeypatch.setattr(experiments, "substream", substream)
        with pytest.raises(DomainError, match="search too large"):
            generate_catalyzable_pairs(PairGenSpec(seed=1, n=512, k=129, count=1))
        # n·k = MAX_PRODUCT_WIDTH is allowed: it reaches its first draw
        assert 512 * 128 == core.MAX_PRODUCT_WIDTH
        with pytest.raises(Drawn):
            generate_catalyzable_pairs(PairGenSpec(seed=1, n=512, k=128, count=1))


class TestGeneratePairs:
    def test_certificates_hold(self):
        pairs = generate_catalyzable_pairs(small_spec())
        assert len(pairs) == 40
        for query, witness in pairs:
            assert len(witness) == 3
            assert not locc_feasible(query)
            verdict = majorizes_check(
                tensor_spectrum(query.psi, witness),
                tensor_spectrum(query.phi, witness),
            )
            assert verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUIVALENT)

    def test_deterministic(self):
        a = generate_catalyzable_pairs(small_spec())
        b = generate_catalyzable_pairs(small_spec())
        assert a == b

    @pytest.mark.parametrize(
        "seed, n, k, count, sha256",
        [
            (1, 8, 4, 200, "718040088df471cf2f0493c7c8f2331f1166a261447979d59b5e3c4281279310"),
            (2, 32, 16, 20, "3309fb1f234c3b80dc068b8c90d9e29387855e52db84f492c42f6b868661e867"),
            (3, 64, 32, 20, "2a403faae5a071ec8b89e48c6a98892ae6d9cb17da19739e7dcc212e9543ee03"),
        ],
    )
    def test_pinned_archives(self, tmp_path, seed, n, k, count, sha256):
        # each batch is drawn and tested in chunks smaller than the batch
        # (2,048, 128 and 32 rows); the first two archives were pinned when a
        # batch was drawn whole, and the third when a 64-row floor drew it in
        # 64-row chunks, so chunking must not move a single byte
        pairs = generate_catalyzable_pairs(PairGenSpec(seed=seed, n=n, k=k, count=count))
        path = write_pairs_jsonl(tmp_path / "pairs.jsonl", pairs, seed=seed)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("n, k, count", [(6, 3, 200), (8, 4, 200), (16, 8, 50), (32, 16, 20)])
    def test_prefix_1_screen_drops_no_pair(self, n, k, count):
        # only blocked rows that pass prefix 1 reach the kernel, whose own
        # prefix-1 comparison would reject every other one
        for seed in range(1, 6):
            spec = PairGenSpec(seed=seed, n=n, k=k, count=count)
            assert generate_catalyzable_pairs(spec) == unscreened_catalyzable_pairs(spec)

    def test_memory_is_one_chunk_not_one_batch(self):
        # 8,192 rows of 512-wide products took 147 MB when a batch was drawn whole
        tracemalloc.start()
        try:
            spec = PairGenSpec(seed=1, n=32, k=16, count=1, max_rejections=8192)
            generate_catalyzable_pairs(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_two_level_source_exhausts(self):
        # no standard catalyst exists for 2-dim sources; the rate guardrail
        # must abort instead of spinning
        spec = PairGenSpec(seed=3, n=2, k=1, count=5, max_rejections=300_000)
        with pytest.raises(GenerationExhausted):
            generate_catalyzable_pairs(spec)

    def test_budget_cap_raises(self):
        spec = PairGenSpec(seed=5, n=6, k=3, count=10_000, max_rejections=10_000)
        with pytest.raises(GenerationExhausted):
            generate_catalyzable_pairs(spec)

    def test_scalar_recheck_catches_a_bad_kernel_verdict(self, monkeypatch):
        # accept every assisted row (width n*k = 18) while the direct test
        # (width n = 6) stays real, then block every direct row while the
        # assisted test stays real: no wrong pair may be emitted, and the
        # disagreement is a bug, not bad input
        real = experiments.first_violations
        for width, verdict in ((18, 0), (6, 1)):

            def wrong_at_width(lhs, rhs, eps):
                first = real(lhs, rhs, eps)
                return np.full_like(first, verdict) if lhs.shape[1] == width else first

            monkeypatch.setattr(experiments, "first_violations", wrong_at_width)
            with pytest.raises(RuntimeError, match="internal: kernel verdict"):
                generate_catalyzable_pairs(small_spec())


class TestSuccessCurve:
    def test_monotone_and_reasonable(self):
        pairs = generate_catalyzable_pairs(small_spec(seed=7, count=60))
        points = success_probability_curve(pairs, 3, (1, 5, 10, 25, 50, 100), seed=7)
        fractions = [p.success_fraction for p in points]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert points[-1].success_fraction >= 0.9
        assert all(p.pairs == 60 and p.seed == 7 for p in points)

    def test_nested_budgets_match_separate_runs(self):
        pairs = generate_catalyzable_pairs(small_spec(seed=11, count=20))
        combined = success_probability_curve(pairs, 3, (5, 50), seed=11)
        alone = success_probability_curve(pairs, 3, (5,), seed=11)
        assert combined[0].success_fraction == alone[0].success_fraction

    def test_accepts_bare_queries(self):
        pairs = generate_catalyzable_pairs(small_spec(seed=13, count=10))
        queries = [q for q, _ in pairs]
        points = success_probability_curve(queries, 3, (10,), seed=13)
        assert len(points) == 1

    def test_workers_do_not_change_results(self):
        pairs = generate_catalyzable_pairs(small_spec(seed=17, count=30))
        for budgets in [(1, 10, 100), (1, 10, TRIAL_BLOCK + 100)]:
            seq = success_probability_curve(pairs, 3, budgets, seed=17, workers=1)
            par = success_probability_curve(pairs, 3, budgets, seed=17, workers=4)
            assert seq == par

    def test_single_pair_minimal_budget(self):
        pairs = generate_catalyzable_pairs(small_spec(seed=19, count=1))
        points = success_probability_curve(pairs, 3, (1,), seed=19)
        assert points[0].success_fraction in (0.0, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            success_probability_curve([], 3, (1,), seed=1)

    def test_thread_pool_is_clamped(self, pool_sizes):
        # the curve scans every pair on the calling thread, whatever workers asks
        pairs = generate_catalyzable_pairs(small_spec(seed=37, count=3))
        seen = pool_sizes(search, cpus=64)
        success_probability_curve(pairs, 3, (10, TRIAL_BLOCK), seed=37, workers=1000)
        success_probability_curve(pairs, 3, (TRIAL_BLOCK + 1,), seed=37, workers=1000)
        assert seen == []

    def test_matches_per_search_ground_truth(self):
        # the 4,096-dim JP pair makes n·k = 16,384, so a group holds 4 pairs
        # and a stage draws 1, 2 or 4 rows a pair; the two-level and the
        # 5-dim pair are blocked and fail within every budget
        k = 4
        queries = [q for q, _ in generate_catalyzable_pairs(PairGenSpec(seed=3, count=24))]
        queries += [
            TransformQuery(make_osc(JP_SOURCE.coeffs + (0.0,) * 4092), JP_TARGET),
            TransformQuery(make_osc((0.8, 0.2)), make_osc((0.75, 0.25))),
            TransformQuery(make_osc((0.4, 0.3, 0.2, 0.1, 0.0)), make_osc((0.45, 0.2, 0.2, 0.15))),
        ]
        queries = [queries[i] for i in np.random.default_rng(3).permutation(len(queries))]
        assert core._chunk_rows(max(q.dim for q in queries), k) == 4
        budgets = (1, 4, 5, 100)
        seeds = [derive_seed(3, CTX_CURVE, i) for i in range(len(queries))]
        first = [first_hit_whole_blocks(q, k, budgets[-1], s) for q, s in zip(queries, seeds)]
        assert sum(h is None for h in first) == 2
        points = success_probability_curve(queries, k, budgets, seed=3)
        for m, point in zip(budgets, points):
            hits = sum(h is not None and h[0] < m for h in first)
            assert point.success_fraction == hits / len(queries)

    def test_queries_are_refused_before_any_draw(self, monkeypatch):
        class Drawn(Exception):
            pass

        def substream(*args):
            raise Drawn

        monkeypatch.setattr(search, "substream", substream)
        queries = [q for q, _ in generate_catalyzable_pairs(small_spec(seed=41, count=3))]
        feasible = TransformQuery(make_osc((0.75, 0.25)), make_osc((0.8, 0.2)))
        wide = TransformQuery(make_osc(JP_SOURCE.coeffs + (0.0,) * 16380), JP_TARGET)
        with pytest.raises(DomainError, match="already feasible"):
            success_probability_curve(queries + [feasible], 3, (10,), seed=41)
        with pytest.raises(DomainError, match="search too large"):
            success_probability_curve(queries + [feasible, wide], 5, (10,), seed=41)
        with pytest.raises(ValueError, match="k must be >= 1"):
            success_probability_curve(queries, 0, (10,), seed=41)
        with pytest.raises(Drawn):  # n·k = MAX_PRODUCT_WIDTH is allowed: it reaches a draw
            success_probability_curve(queries + [wide], 4, (10,), seed=41)

    def test_scalar_recheck_catches_a_bad_kernel_verdict(self, monkeypatch):
        # a kernel that accepts every assisted row (width n*k = 6) must not
        # count a pair that has no catalyst
        real = search.first_violations

        def accepting(lhs, rhs, eps):
            first = real(lhs, rhs, eps)
            return np.zeros_like(first) if lhs.shape[-1] == 6 else first

        monkeypatch.setattr(search, "first_violations", accepting)
        no_go = TransformQuery(make_osc((0.8, 0.2)), make_osc((0.75, 0.25)))
        with pytest.raises(RuntimeError, match="internal: kernel verdict"):
            success_probability_curve([no_go], 3, (10,), seed=1)

    def test_pairs_share_kernel_passes_and_stop_at_their_first_hit(self, monkeypatch):
        # per pair, the searches drew 100 rows at budget 100; the scan forms
        # each row only until its pair hits, at most one chunk a pass
        rows = []
        real = search.product_spectra

        def recorded(a, b):
            rows.append(len(b))
            return real(a, b)

        pairs = generate_catalyzable_pairs(PairGenSpec(seed=5, n=8, k=4, count=2000))
        monkeypatch.setattr(search, "product_spectra", recorded)
        points = success_probability_curve(pairs, 4, range(1, 101), seed=5)
        assert points[-1].success_fraction >= 0.99
        assert max(rows) <= core._chunk_rows(8, 4)
        assert sum(rows) / 2 < 10 * len(pairs)  # each row has two sides


class TestReferenceSuite:
    def test_all_fixtures_pass(self):
        report = reference_suite()
        for result in report.results:
            assert result.passed, f"{result.name}: {result.details}"
        assert report.passed
        assert len(report.results) >= 12
        assert report.failures == ()


class TestPairArchive:
    def test_round_trip_exact(self, tmp_path):
        pairs = generate_catalyzable_pairs(small_spec(seed=23, count=15))
        path = write_pairs_jsonl(tmp_path / "pairs.jsonl", pairs, seed=23)
        loaded = load_pairs_jsonl(path)
        assert len(loaded) == 15
        for (q1, w1), (q2, w2) in zip(pairs, loaded):
            assert q1.psi.coeffs == q2.psi.coeffs  # repr round-trip is exact
            assert q1.phi.coeffs == q2.phi.coeffs
            assert w1.coeffs == w2.coeffs
        # blank and whitespace-only lines are skipped
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("\n" + "".join(lines[:7]) + "  \n\n" + "".join(lines[7:]) + "\t\n")
        assert load_pairs_jsonl(path) == loaded

    def test_generated_and_loaded_vectors_hold_python_floats(self, tmp_path):
        pairs = generate_catalyzable_pairs(small_spec(seed=23, count=5))
        loaded = load_pairs_jsonl(write_pairs_jsonl(tmp_path / "pairs.jsonl", pairs, seed=23))
        for query, witness in pairs + loaded:
            for v in (query.psi, query.phi, witness):
                assert type(v) is OscVector and all(type(c) is float for c in v)

    def test_byte_identical_for_same_seed(self, tmp_path):
        pairs = generate_catalyzable_pairs(small_spec(seed=29, count=10))
        p1 = write_pairs_jsonl(tmp_path / "a.jsonl", pairs, seed=29)
        p2 = write_pairs_jsonl(tmp_path / "b.jsonl", pairs, seed=29)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_tampered_pair(self, tmp_path):
        pairs = generate_catalyzable_pairs(small_spec(seed=31, count=3))
        good = write_pairs_jsonl(tmp_path / "good.jsonl", pairs, seed=31)
        good_lines = good.read_text().splitlines()
        record = json.loads(good_lines[1])
        # swap psi and phi: the direct transformation becomes feasible or the
        # witness stops certifying; either way the certificate must fail
        swapped = dict(record, psi=record["phi"], phi=record["psi"])
        cases = {
            "swapped": json.dumps(swapped),
            "already-feasible": json.dumps(dict(record, phi=record["psi"])),
            "json": good_lines[1][:-1],
            "unnormalized": json.dumps(dict(record, psi=[0.5, 0.6])),
            "negative": json.dumps(dict(record, witness=[1.2, -0.2])),
            "non-numeric": json.dumps(dict(record, phi=["a", 1.0])),
            "nan": json.dumps(dict(record, psi=[float("nan"), 1.0])),
            "wrong-type": json.dumps(dict(record, witness=None)),
            "missing-key": json.dumps({"psi": record["psi"]}),
            "not-an-object": "[1, 2]",
        }
        for name, bad in cases.items():
            text = "\n".join([good_lines[0], bad, good_lines[2]]) + "\n"
            path = tmp_path / f"{name}.jsonl"
            path.write_text(text)
            with pytest.raises(DomainError, match=f"{name}.jsonl:2: invalid pair record"):
                load_pairs_jsonl(path)


class TestCurveCsv:
    def test_format(self, tmp_path):
        points = [
            CurvePoint(big_number=1, success_fraction=0.25, pairs=4, seed=9),
            CurvePoint(big_number=10, success_fraction=1.0, pairs=4, seed=9),
        ]
        path = write_curve_csv(tmp_path / "curve.csv", points)
        lines = path.read_text().splitlines()
        assert lines[0] == "M,success_fraction,pairs,seed"
        assert lines[1] == "1,0.25,4,9"
        assert lines[2] == "10,1.0,4,9"


class TestRegionCsv:
    def test_matches_naive_writer(self, tmp_path):
        for res in (1, 2, 7, 100):
            grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, res)
            path = write_region_csv(tmp_path / f"region{res}.csv", grid)
            assert path.read_bytes() == naive_region_csv(grid).encode("utf-8")
