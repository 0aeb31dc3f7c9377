"""Tests for catalyst predicates, closed-form conditions, and the region scan."""

import tracemalloc

import numpy as np
import pytest

from catalocc import catalysis
from catalocc import (
    CatalystKind,
    DegenerateTarget,
    DomainError,
    NotACatalyst,
    OscVector,
    Relation,
    TransformQuery,
    catalyst_bound_3x3,
    classify_catalyst,
    general_catalyst_2to3,
    general_catalyst_2x2,
    is_general_catalyst,
    is_time_reverse,
    locc_feasible,
    majorizes_check,
    make_osc,
    min_residual_2x2,
    mutual_region_scan,
    subcatalyst_forced,
    tensor_spectrum,
)
from catalocc.catalysis import MAX_RESOLUTION
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
    mutual_demo_inequalities,
)
from oracles import (
    assisted_feasible,
    bisect_min_residual,
    brute_general_2x2,
    random_blocked_2x2,
    random_osc,
)

JP = TransformQuery(JP_SOURCE, JP_TARGET)
JP_SHIFTED = TransformQuery(JP_SOURCE, JP_TARGET_SHIFTED)
TR = TransformQuery(TR_SOURCE, TR_TARGET)
MUTUAL = TransformQuery(MUTUAL_SOURCE, MUTUAL_TARGET)
PAIR_2X2 = TransformQuery(make_osc((0.8, 0.2)), make_osc((0.75, 0.25)))


class TestLoccFeasible:
    def test_jp_blocked(self):
        assert not locc_feasible(JP)

    def test_reflexive(self):
        v = make_osc((0.5, 0.3, 0.2))
        assert locc_feasible(TransformQuery(v, v))

    def test_maximally_entangled_source(self):
        assert locc_feasible(TransformQuery(OscVector.maximally_entangled(4), JP_TARGET))


class TestIsGeneralCatalyst:
    def test_consumed_residual_demo(self):
        report = is_general_catalyst(JP_SHIFTED, JP_CATALYST)
        assert report.feasible
        assert report.residual == OscVector.separable(2)
        assert report.classification.kind is CatalystKind.SUB
        # the specific residual (2/3, 1/3) is also a valid witness
        lhs = tensor_spectrum(JP_SOURCE, JP_CATALYST)
        rhs = tensor_spectrum(JP_TARGET_SHIFTED, JP_CONSUMED_RESIDUAL)
        assert majorizes_check(lhs, rhs).relation is Relation.MAJORIZED_BY

    def test_separable_ancilla_useless(self):
        assert not is_general_catalyst(JP, OscVector.separable(1)).feasible

    def test_toplevel_bound_violated(self):
        # x = 0.95 > beta1/alpha1 = 0.9375; grid oracle agrees
        chi = make_osc((0.95, 0.05))
        assert not is_general_catalyst(PAIR_2X2, chi).feasible
        assert not brute_general_2x2((0.8, 0.2), (0.75, 0.25), 0.95)

    def test_infeasible_report_has_no_witness(self):
        report = is_general_catalyst(JP, OscVector.separable(1))
        assert report.classification is None and report.residual is None


class TestGeneralCatalyst2x2:
    def test_within_bound(self):
        assert general_catalyst_2x2(PAIR_2X2, 0.9)
        assert brute_general_2x2((0.8, 0.2), (0.75, 0.25), 0.9)

    def test_beyond_bound(self):
        assert not general_catalyst_2x2(PAIR_2X2, 0.94)
        assert not brute_general_2x2((0.8, 0.2), (0.75, 0.25), 0.94)

    def test_maximally_entangled_chi(self):
        # x = 0.5 works whenever beta1/alpha1 >= 0.5
        assert general_catalyst_2x2(PAIR_2X2, 0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            general_catalyst_2x2(TransformQuery(make_osc((0.7, 0.3)), make_osc((0.8, 0.2))), 0.6)
        with pytest.raises(DomainError):
            general_catalyst_2x2(PAIR_2X2, 0.4)
        with pytest.raises(DomainError):
            general_catalyst_2x2(JP, 0.6)

    def test_agrees_with_general_reduction(self):
        rng = np.random.default_rng(23)
        xs = np.linspace(0.5, 1.0, 9)
        for _ in range(500):
            q = random_blocked_2x2(rng)
            for x in xs:
                closed = general_catalyst_2x2(q, float(x))
                direct = is_general_catalyst(q, OscVector((float(x), float(1 - x)))).feasible
                assert closed == direct

    def test_agrees_with_kernel_in_tolerance_band(self):
        # within eps_major above beta1/alpha1 the verdict turns on whether
        # alpha1 * x is compared with beta1 (partial-sum units, as the
        # kernel does) or x with beta1/alpha1
        rng = np.random.default_rng(67)
        for _ in range(1000):
            q = random_blocked_2x2(rng)
            for delta in (1.2e-12, 1.5e-12, 1.8e-12):
                x = q.phi[0] / q.psi[0] + delta
                direct = is_general_catalyst(q, OscVector((x, 1 - x))).feasible
                assert general_catalyst_2x2(q, x) == direct


class TestMinResidual2x2:
    def test_case_two_value(self):
        # x < alpha1: max{0.64, 0.8, 0.68} = 0.8
        assert min_residual_2x2(PAIR_2X2, 0.6) == pytest.approx(0.8, abs=1e-15)

    def test_case_one_value(self):
        # x >= alpha1: max{0.96, 0.92} = 0.96
        assert min_residual_2x2(PAIR_2X2, 0.9) == pytest.approx(0.96, abs=1e-15)

    def test_boundary_case_coincidence(self):
        # x = alpha1 exactly: the alpha1 term is redundant
        x = 0.8
        casey = max(0.8 / 0.75 * x, 1 - (0.2 / 0.25) * (1 - x))
        assert min_residual_2x2(PAIR_2X2, x) == pytest.approx(casey, abs=1e-15)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 40:
            q = random_blocked_2x2(rng)
            x = float(0.5 + 0.5 * rng.random())
            if not general_catalyst_2x2(q, x):
                continue
            got = min_residual_2x2(q, x)
            want = bisect_min_residual(q.psi.coeffs, q.phi.coeffs, x)
            assert got == pytest.approx(want, abs=1e-9)
            checked += 1

    def test_minimality_and_subcatalyst(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 60:
            q = random_blocked_2x2(rng)
            x = float(0.5 + 0.5 * rng.random())
            if not general_catalyst_2x2(q, x):
                continue
            xp = min_residual_2x2(q, x)
            assert xp > x  # consuming entanglement is unavoidable
            assert assisted_feasible(q.psi, q.phi, (x, 1 - x), (xp, 1 - xp))
            if xp - 1e-6 >= 0.5:
                assert not assisted_feasible(
                    q.psi, q.phi, (x, 1 - x), (xp - 1e-6, 1 - (xp - 1e-6))
                )
            checked += 1

    def test_rejects_non_catalyst(self):
        with pytest.raises(DomainError):
            min_residual_2x2(PAIR_2X2, 0.95)

    def test_degenerate_target(self):
        q = TransformQuery(make_osc((0.8, 0.2)), make_osc((1.0, 0.0)))
        with pytest.raises(DegenerateTarget):
            min_residual_2x2(q, 0.6)
        # error order: length, degenerate target, already feasible, x range
        for query, x, error, match in (
            (TransformQuery(make_osc((0.8, 0.2)), make_osc((1.0, 0.0, 0.0))), 0.4,
             DomainError, "length 2"),
            (q, 0.4, DegenerateTarget, "admits every source"),
            (TransformQuery(make_osc((0.7, 0.3)), make_osc((0.8, 0.2))), 0.4,
             DomainError, "already feasible"),
            (PAIR_2X2, 0.4, DomainError, r"\[0.5, 1\]"),
        ):
            with pytest.raises(error, match=match):
                min_residual_2x2(query, x)


class TestCatalystBound3x3:
    def test_mutual_demo_value(self):
        assert catalyst_bound_3x3(MUTUAL) == pytest.approx(0.98, abs=1e-15)

    def test_comparable_pair_rejected(self):
        v = make_osc((0.5, 0.3, 0.2))
        with pytest.raises(DomainError):
            catalyst_bound_3x3(TransformQuery(v, v))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            catalyst_bound_3x3(JP)

    def test_soundness_sampled(self):
        rng = np.random.default_rng(37)
        tested = 0
        while tested < 10_000:
            psi = random_osc(rng, 3)
            phi = random_osc(rng, 3)
            q = TransformQuery(psi, phi)
            if majorizes_check(psi, phi).relation is not Relation.INCOMPARABLE:
                continue
            bound = catalyst_bound_3x3(q)
            k = int(rng.integers(2, 7))
            # uniform ancilla qualifies whenever 1/k is under the bound
            if 1.0 / k <= bound:
                assert is_general_catalyst(q, OscVector.maximally_entangled(k)).feasible
            # rejection-sample a chi with top coefficient under the bound
            for _ in range(20):
                chi = random_osc(rng, k)
                if chi[0] <= bound:
                    assert is_general_catalyst(q, chi).feasible
                    break
            tested += 1


class TestSubcatalystForced:
    def test_hypothesis_not_met_jp(self):
        assert subcatalyst_forced(JP, JP_CATALYST, JP_CATALYST) is False

    def test_hypothesis_not_met_mutual_demo(self):
        residual = OscVector((0.81, 0.10, 0.09))
        assert subcatalyst_forced(MUTUAL, MUTUAL_CATALYST, residual) is False

    def test_forced_instances(self):
        rng = np.random.default_rng(41)
        found = 0
        attempts = 0
        while found < 25 and attempts < 200000:
            attempts += 1
            psi = random_osc(rng, 3)
            phi = random_osc(rng, 3)
            if not (psi[0] > phi[0] and psi[2] < phi[2]):
                continue
            chi = random_osc(rng, 2)
            xp = float(0.5 + 0.5 * rng.random())
            chi_prime = OscVector((xp, 1.0 - xp))
            if not assisted_feasible(psi, phi, chi, chi_prime):
                continue
            q = TransformQuery(psi, phi)
            assert subcatalyst_forced(q, chi, chi_prime) is True
            # and indeed chi sits strictly below chi' in the Schur order
            assert majorizes_check(chi, chi_prime).relation is Relation.MAJORIZED_BY
            found += 1
        assert found == 25

    def test_tolerance_band_is_silent(self):
        # alpha1 > beta1 and alpha2 < beta2 hold literally, but only by 1e-13,
        # inside eps_major, where chi' = chi is itself a feasible residual
        q = TransformQuery(OscVector((0.5 + 1e-13, 0.5 - 1e-13)), OscVector((0.5, 0.5)))
        chi = OscVector((0.6, 0.4))
        assert assisted_feasible(q.psi, q.phi, chi, chi)
        assert subcatalyst_forced(q, chi, chi) is False

    def test_wrong_dimensions(self):
        with pytest.raises(DomainError):
            subcatalyst_forced(JP, JP_CATALYST, OscVector((0.5, 0.3, 0.2)))

    def test_not_a_catalyst(self):
        with pytest.raises(NotACatalyst):
            subcatalyst_forced(JP, OscVector.separable(2), OscVector.separable(2))


class TestNoStandardCatalyst2xn:
    # For a two-level source with psi_1 > phi_1, the top entry of psi ⊗ chi
    # is psi_1·chi_1 > phi_1·chi_1, the top entry of phi ⊗ chi, so no chi
    # of any dimension is a standard catalyst: psi_1 > phi_1 is the proof.
    def test_blocked_2x2(self):
        assert len(PAIR_2X2.psi) == 2 and not locc_feasible(PAIR_2X2)
        assert PAIR_2X2.psi[0] > PAIR_2X2.phi[0]

    def test_entropy_mechanism(self):
        from catalocc import entropy_bits

        assert entropy_bits(PAIR_2X2.psi) == pytest.approx(0.7219280948873623, abs=1e-15)
        assert entropy_bits(PAIR_2X2.phi) == pytest.approx(0.8112781244591328, abs=1e-15)
        assert entropy_bits(PAIR_2X2.psi) < entropy_bits(PAIR_2X2.phi)

    def test_two_by_three(self):
        q = TransformQuery(make_osc((0.9, 0.1)), make_osc((0.6, 0.2, 0.2)))
        assert len(q.psi) == 2 and not locc_feasible(q)
        assert q.psi[0] > q.phi[0]


class TestGeneralCatalyst2to3:
    Q = TransformQuery(make_osc((0.9, 0.1)), make_osc((0.6, 0.3, 0.1)))

    def test_within_condition(self):
        # 0.65 <= min(2/3, 0.9); direct majorization oracle agrees
        assert general_catalyst_2to3(self.Q, 0.65)
        assert assisted_feasible((0.9, 0.1), (0.6, 0.3, 0.1), (0.65, 0.35), (1.0,))

    def test_beyond_condition(self):
        assert not general_catalyst_2to3(self.Q, 0.7)
        assert not assisted_feasible((0.9, 0.1), (0.6, 0.3, 0.1), (0.7, 0.3), (1.0,))

    def test_top_sum_obstruction(self):
        q = TransformQuery(make_osc((0.9, 0.1)), make_osc((0.5, 0.3, 0.2)))
        for x in np.linspace(0.5, 1.0, 501):
            assert not general_catalyst_2to3(q, float(x))

    def test_agrees_with_general_reduction(self):
        rng = np.random.default_rng(43)
        tested = 0
        while tested < 300:
            a1 = float(0.5 + 0.5 * rng.random())
            psi = OscVector((a1, 1.0 - a1))
            phi = random_osc(rng, 3)
            q = TransformQuery(psi, phi)
            if locc_feasible(q):
                continue
            x = float(0.5 + 0.5 * rng.random())
            closed = general_catalyst_2to3(q, x)
            direct = is_general_catalyst(q, OscVector((x, 1.0 - x))).feasible
            assert closed == direct
            tested += 1

    def test_agrees_with_kernel_in_tolerance_band(self):
        # the alpha1 * x <= beta1 term, probed just above beta1/alpha1
        rng = np.random.default_rng(71)
        tested = 0
        while tested < 1000:
            a1 = float(0.5 + 0.5 * rng.random())
            q = TransformQuery(OscVector((a1, 1.0 - a1)), random_osc(rng, 3))
            x = q.phi[0] / a1 + (1.2e-12, 1.5e-12, 1.8e-12)[tested % 3]
            if locc_feasible(q) or not 0.5 <= x <= 1.0:
                continue
            direct = is_general_catalyst(q, OscVector((x, 1.0 - x))).feasible
            assert general_catalyst_2to3(q, x) == direct
            tested += 1

    def test_shape_errors(self):
        with pytest.raises(DomainError):
            general_catalyst_2to3(JP, 0.6)


class TestClassifyCatalyst:
    def test_jp_standard(self):
        cls = classify_catalyst(JP, JP_CATALYST, JP_CATALYST)
        assert cls.kind is CatalystKind.STANDARD
        assert cls.entropy_before == pytest.approx(cls.entropy_after, abs=1e-12)

    def test_time_reverse_sub_one_bit(self):
        cls = classify_catalyst(TR, TR_CATALYST, TR_RESIDUAL)
        assert cls.kind is CatalystKind.TIME_REVERSE
        assert cls.entropy_label() is CatalystKind.SUB
        assert cls.entropy_before - cls.entropy_after == pytest.approx(1.0, abs=1e-12)

    def test_consumed_residual_is_sub(self):
        cls = classify_catalyst(JP_SHIFTED, JP_CATALYST, JP_CONSUMED_RESIDUAL)
        assert cls.kind is CatalystKind.SUB

    def test_super_detected(self):
        # reverse of the time-reverse demo: residual gains one bit
        q = TransformQuery(TR_TARGET, TR_SOURCE)
        cls = classify_catalyst(q, TR_RESIDUAL, TR_CATALYST)
        assert cls.kind is CatalystKind.TIME_REVERSE
        assert cls.entropy_label() is CatalystKind.SUPER

    def test_rejects_non_catalyst(self):
        with pytest.raises(NotACatalyst):
            classify_catalyst(JP_SHIFTED, JP_CATALYST, JP_CATALYST)


class TestIsTimeReverse:
    def test_demo_tuple(self):
        assert is_time_reverse(TR, TR_CATALYST, TR_RESIDUAL)

    def test_jp_standard_is_not(self):
        assert not is_time_reverse(JP, JP_CATALYST, JP_CATALYST)

    def test_identity(self):
        q = TransformQuery(JP_SOURCE, JP_SOURCE)
        assert is_time_reverse(q, JP_CATALYST, JP_CATALYST)

    def test_implies_bidirectional(self):
        lhs = tensor_spectrum(TR_SOURCE, TR_CATALYST)
        rhs = tensor_spectrum(TR_TARGET, TR_RESIDUAL)
        assert majorizes_check(lhs, rhs).relation is Relation.EQUIVALENT
        assert majorizes_check(rhs, lhs).relation is Relation.EQUIVALENT


class TestMutualRegionScan:
    def test_demo_region(self):
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 250)
        assert grid.feasible_count > 0
        assert grid.feasible_at(0.81, 0.10)
        # The separable corner is feasible under plain majorization (the
        # catalyst's top coefficient 0.62 is under the universal 3x3 bound
        # 0.98, so complete consumption works); the closed-form demo system
        # excludes it only through its incomparability premise.
        assert grid.feasible_at(1.0 - 1e-9, 0.0)
        assert not mutual_demo_inequalities(0.9995, 0.0005)
        # feasible cells sit inside valid ones
        assert not np.any(grid.cells & ~grid.constraint_mask)

    def test_low_top_coefficient_infeasible(self):
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 250)
        ii, _ = np.nonzero(grid.cells)
        assert (ii.min() + 0.5) / grid.resolution >= 31.0 / 49.0 - 1e-3

    def test_matches_per_cell_merge_path(self):
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 60)
        lhs = tensor_spectrum(MUTUAL_SOURCE, MUTUAL_CATALYST)
        for i in range(60):
            for j in range(60):
                if not grid.constraint_mask[i, j]:
                    assert not grid.cells[i, j]
                    continue
                x1, x2 = grid.cell_center(i, j)
                residual = OscVector((x1, x2, 1.0 - x1 - x2))
                direct = majorizes_check(lhs, tensor_spectrum(MUTUAL_TARGET, residual))
                assert grid.cells[i, j] == (
                    direct.relation in (Relation.MAJORIZED_BY, Relation.EQUIVALENT)
                )

    @pytest.mark.parametrize("chunk", [1, 1000, 7281])
    def test_chunks_match_one_batch(self, monkeypatch, chunk):
        # resolution 400 has 13,333 valid cells: several chunks, a short last one
        one_batch = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 400)
        monkeypatch.setattr(catalysis, "_chunk_rows", lambda n, k: chunk)
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 400)
        assert np.array_equal(grid.cells, one_batch.cells)
        assert np.array_equal(grid.constraint_mask, one_batch.constraint_mask)

    def test_memory_is_chunked(self):
        # all 333,333 valid cells in one kernel batch traced 99.6 MB
        tracemalloc.start()
        try:
            mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_wrong_shapes(self):
        with pytest.raises(DomainError):
            mutual_region_scan(JP_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 10)

    def test_resolution_cap(self):
        # rejected before any grid is allocated
        with pytest.raises(DomainError, match="resolution"):
            mutual_region_scan(
                MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, MAX_RESOLUTION + 1
            )


class TestMutualDemoInequalities:
    def test_chosen_point(self):
        assert mutual_demo_inequalities(0.81, 0.10)

    def test_first_line_violated(self):
        assert not mutual_demo_inequalities(0.60, 0.10)

    def test_cap_line_violated(self):
        # 17*0.7 + 16*0.3 = 16.7 > 16
        assert not mutual_demo_inequalities(0.70, 0.30)

    def test_agrees_with_scan_under_ordering_assumptions(self):
        grid = mutual_region_scan(MUTUAL_SOURCE, MUTUAL_TARGET, MUTUAL_CATALYST, 300)
        res = grid.resolution
        disagreements = []
        for i, j in zip(*np.nonzero(grid.constraint_mask)):
            x1, x2 = grid.cell_center(i, j)
            # residual-side ordering assumptions plus the incomparability cap
            if not (
                0.48 * x1 >= 0.49 * x2
                and 0.49 * x1 + 0.97 * x2 >= 0.49
                and 17.0 * x1 + 16.0 * x2 <= 16.0
                and x1 + x2 < 0.92
            ):
                continue
            if mutual_demo_inequalities(x1, x2) != bool(grid.cells[i, j]):
                disagreements.append((x1, x2))
        assert not disagreements


class TestMaximallyEntangledTargetNoGo:
    def test_composed_transformation_blocked(self):
        # if chi does not reach chi', then psi ⊗ chi cannot reach
        # (maximally entangled) ⊗ chi' no matter the source psi
        rng = np.random.default_rng(47)
        tested = 0
        while tested < 200:
            k = int(rng.integers(2, 5))
            chi = random_osc(rng, k)
            chi_prime = random_osc(rng, k)
            if majorizes_check(chi, chi_prime).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            ):
                continue
            n = int(rng.integers(2, 5))
            psi = random_osc(rng, n)
            phi_max = OscVector.maximally_entangled(n)
            lhs = tensor_spectrum(psi, chi)
            rhs = tensor_spectrum(phi_max, chi_prime)
            assert majorizes_check(lhs, rhs).relation not in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )
            tested += 1
