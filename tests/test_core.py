"""Unit and property tests for the vector/majorization core."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalocc import (
    DEFAULT_TOL,
    CataloccError,
    DomainError,
    NegativeEntry,
    NotNormalized,
    OscVector,
    Relation,
    TargetTooSmall,
    Tolerance,
    entropy_bits,
    majorizes_check,
    make_osc,
    pad,
    partial_sums,
    tensor_spectrum,
)
from catalocc.core import (
    MAX_PRODUCT_WIDTH,
    MAX_QUERY_WIDTH,
    _chunk_rows,
    first_violations,
    product_spectra,
)
from catalocc.experiments import TR_CATALYST, TR_RESIDUAL, TR_SOURCE, TR_TARGET
from oracles import (
    assisted_feasible,
    entropy_base2,
    majorized_mix,
    naive_tensor_spectrum,
    random_osc,
)


@st.composite
def osc_vectors(draw, min_len=1, max_len=6):
    n = draw(st.integers(min_len, max_len))
    raw = draw(
        st.lists(
            st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    total = math.fsum(raw)
    return make_osc([v / total for v in raw])


class TestMakeOsc:
    def test_sorts_a_permutation(self):
        assert make_osc((0.25, 0.5, 0.25)).coeffs == (0.5, 0.25, 0.25)

    def test_named_states_need_a_dimension(self):
        assert OscVector.separable(3).coeffs == (1.0, 0.0, 0.0)
        assert OscVector.maximally_entangled(2).coeffs == (0.5, 0.5)
        for named in (OscVector.separable, OscVector.maximally_entangled):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                named(0)

    def test_preserves_trailing_zero(self):
        v = make_osc((0.5, 0.25, 0.25, 0.0))
        assert v.coeffs == (0.5, 0.25, 0.25, 0.0)
        assert len(v) == 4

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            make_osc((0.5, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            make_osc((1.1, -0.1))

    def test_clamps_tiny_negative(self):
        v = make_osc((1.0, -1e-12))
        assert v.coeffs == (1.0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_osc(())

    @pytest.mark.parametrize(
        "raw",
        [
            [math.nan, 1.0],
            [0.6, 0.4, math.nan],
            [math.inf, 0.0],
            [-math.inf, 1.0],
            [1e308, 1e308],
            "1",
            [True],
            [np.bool_(True), 0.0],
            [0.5, "0.5"],
        ],
    )
    def test_rejects_non_finite_and_non_numeric(self, raw):
        with pytest.raises((ValueError, CataloccError)):
            make_osc(raw)

    def test_custom_norm_tolerance(self):
        loose = Tolerance(eps_norm=1e-4)
        assert make_osc((0.5, 0.49995), loose).coeffs == (0.5, 0.49995)
        with pytest.raises(NotNormalized):
            make_osc((0.5, 0.49995))


class TestPad:
    def test_zero_padding(self):
        assert pad(make_osc((0.7, 0.3)), 4).coeffs == (0.7, 0.3, 0.0, 0.0)

    def test_separable_padding(self):
        assert pad(make_osc((1.0,)), 3).coeffs == (1.0, 0.0, 0.0)

    def test_identity_when_equal_length(self):
        v = make_osc((0.5, 0.25, 0.25))
        assert pad(v, 3) is v

    def test_too_small(self):
        with pytest.raises(TargetTooSmall):
            pad(make_osc((0.5, 0.5)), 1)


class TestMajorizesCheck:
    def test_jp_pair_incomparable_at_two(self):
        a = make_osc((0.4, 0.4, 0.1, 0.1))
        b = make_osc((0.5, 0.25, 0.25, 0.0))
        verdict = majorizes_check(a, b)
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.first_violation == 2  # 0.8 > 0.75

    def test_reflexive(self):
        v = make_osc((0.5, 0.3, 0.2))
        verdict = majorizes_check(v, v)
        assert verdict.relation is Relation.EQUIVALENT
        assert verdict.first_violation is None

    def test_uniform_majorized_by_everything(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8):
            u = OscVector.maximally_entangled(n)
            v = random_osc(rng, n)
            assert majorizes_check(u, v).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )

    def test_majorizes_direction_reports_violation(self):
        a = make_osc((0.7, 0.3))
        b = make_osc((0.6, 0.4))
        verdict = majorizes_check(a, b)
        assert verdict.relation is Relation.MAJORIZES
        assert verdict.first_violation == 1

    def test_unequal_lengths_are_padded(self):
        a = make_osc((0.9, 0.1))
        b = make_osc((0.6, 0.3, 0.1))
        verdict = majorizes_check(a, b)
        # 2-dim source can never fill a genuinely 3-dim target, but the
        # reverse direction holds here, so the pair is one-way comparable
        assert verdict.relation is Relation.MAJORIZES
        assert verdict.first_violation == 1

    @given(osc_vectors(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_padding_neutrality(self, v, extra):
        rng = np.random.default_rng(11)
        w = majorized_mix(rng, v)
        m = max(len(v), len(w)) + extra
        direct = majorizes_check(w, v)
        padded = majorizes_check(pad(w, m), pad(v, m))
        assert direct.relation is padded.relation


class TestTensorSpectrum:
    def test_jp_products(self):
        a = make_osc((0.4, 0.4, 0.1, 0.1))
        b = make_osc((0.6, 0.4))
        got = tensor_spectrum(a, b)
        expected = (0.24, 0.24, 0.16, 0.16, 0.06, 0.06, 0.04, 0.04)
        assert np.allclose(got.coeffs, expected, rtol=0, atol=1e-15)

    def test_separable_ancilla_is_identity(self):
        v = make_osc((0.5, 0.3, 0.2))
        assert tensor_spectrum(make_osc((1.0,)), v).coeffs == v.coeffs

    def test_time_reverse_demo_products(self):
        a = make_osc((1 / 3, 1 / 3, 1 / 6, 1 / 6))
        b = make_osc((0.25, 0.25, 0.25, 0.25))
        got = tensor_spectrum(a, b).coeffs
        assert got == tuple(sorted(got, reverse=True))
        assert np.allclose(got[:8], 1 / 12, rtol=0, atol=1e-15)
        assert np.allclose(got[8:], 1 / 24, rtol=0, atol=1e-15)

    def test_matches_naive_sort_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            na, nb = rng.integers(1, 65, size=2)
            a = random_osc(rng, int(na))
            b = random_osc(rng, int(nb))
            got = tensor_spectrum(a, b).coeffs
            assert list(got) == naive_tensor_spectrum(a, b)

    @given(osc_vectors(max_len=5), osc_vectors(max_len=5))
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_sort_property(self, a, b):
        assert list(tensor_spectrum(a, b).coeffs) == naive_tensor_spectrum(a, b)


def osc_rows(rng, rows, n, width=None):
    """A (rows, width) batch of random spectra of length n, zero-padded."""
    out = np.zeros((rows, width or n))
    for i in range(rows):
        out[i, :n] = random_osc(rng, n).coeffs
    return out


def kernel_leq(psi, phi, chi, chi_prime):
    """Row verdicts of psi ⊗ chi ≺ phi ⊗ chi' from the batched kernel."""
    lhs = product_spectra(psi, chi)
    rhs = product_spectra(phi, chi_prime)
    return (first_violations(lhs, rhs, DEFAULT_TOL.eps_major) == 0).tolist()


class TestSpectrumKernel:
    def test_random_batches_match_oracle(self):
        rng = np.random.default_rng(211)
        for n, k in ((2, 2), (3, 2), (4, 3), (6, 4)):
            psi, phi = osc_rows(rng, 300, n), osc_rows(rng, 300, n)
            chi, chi_prime = osc_rows(rng, 300, k), osc_rows(rng, 300, k)
            for residual in (chi, chi_prime):
                got = kernel_leq(psi, phi, chi, residual)
                want = [assisted_feasible(*rows) for rows in zip(psi, phi, chi, residual)]
                assert got == want
                assert True in want and False in want
            spectra = product_spectra(psi, chi)
            for i in range(0, 300, 37):
                assert spectra[i].tolist() == naive_tensor_spectrum(psi[i], chi[i])

    def test_broadcast_single_state(self):
        rng = np.random.default_rng(223)
        psi = np.array((0.4, 0.4, 0.1, 0.1))
        phi = np.array((0.5, 0.25, 0.25, 0.0))
        chis = osc_rows(rng, 2000, 2)
        got = kernel_leq(psi, phi, chis, chis)
        assert got == [assisted_feasible(psi, phi, c, c) for c in chis]
        assert True in got and False in got

    def test_zero_padding(self):
        # 3-dim states padded to 5 against genuinely 5-dim targets; the
        # oracle pads nothing, so padding must not change any verdict
        rng = np.random.default_rng(227)
        psi, phi, chi = osc_rows(rng, 400, 3, width=5), osc_rows(rng, 400, 5), osc_rows(rng, 400, 2)
        seen = []
        for src, dst in ((psi, phi), (phi, psi)):
            want = [
                assisted_feasible(s[s > 0], d[d > 0], c, c) for s, d, c in zip(src, dst, chi)
            ]
            assert kernel_leq(src, dst, chi, chi) == want
            seen += want
        assert True in seen and False in seen

    def test_time_reverse_exact_ties(self):
        spectra = [
            product_spectra(TR_SOURCE.as_array(), TR_CATALYST.as_array()),
            product_spectra(TR_TARGET.as_array(), TR_RESIDUAL.as_array()),
        ]
        assert spectra[0].tolist() == spectra[1].tolist()
        for lhs, rhs in (spectra, spectra[::-1]):
            assert first_violations(lhs, rhs, DEFAULT_TOL.eps_major).tolist() == [0]
        assert assisted_feasible(TR_SOURCE, TR_TARGET, TR_CATALYST, TR_RESIDUAL)
        assert assisted_feasible(TR_TARGET, TR_SOURCE, TR_RESIDUAL, TR_CATALYST)

    def test_first_violation_index(self):
        jp = np.array([[0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0]])
        assert first_violations(jp, jp[::-1], 1e-12).tolist() == [2, 1]

    def test_empty_batches(self):
        psi, chi = np.array((0.5, 0.3, 0.2)), np.array((0.6, 0.4))
        for a, b in ((psi, np.zeros((0, 2))), (np.zeros((0, 3)), chi), (np.zeros((0, 3)), np.zeros((0, 2)))):
            spectra = product_spectra(a, b)
            assert spectra.shape == (0, 6)
            assert first_violations(spectra, spectra, 1e-12).shape == (0,)
            assert first_violations(product_spectra(psi, chi), spectra, 1e-12).shape == (0,)

    def test_rows_wider_than_a_query_are_refused_before_any_product(self):
        # 2,048 · 2,049 products is just above MAX_QUERY_WIDTH = 2,048 · 2,048
        assert 2048 * 2048 == MAX_QUERY_WIDTH
        psi, chi = OscVector.maximally_entangled(2048), OscVector.maximally_entangled(2049)
        a, b = psi.as_array(), chi.as_array()
        tracemalloc.start()
        try:
            for call in (lambda: product_spectra(a, b), lambda: tensor_spectrum(psi, chi)):
                with pytest.raises(DomainError, match="query too large: n\\*k = 4196352"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestChunkRows:
    def test_one_budget_at_every_width(self):
        # a chunk is the most rows of n·k products that fit MAX_PRODUCT_WIDTH,
        # and at least one; up to n·k = 1,024 these are the rows the retired
        # rule max(64, 65,536 // (n·k)) gave, so those widths draw as before
        for width in range(1, MAX_PRODUCT_WIDTH + 1):
            rows = _chunk_rows(width, 1)
            assert rows >= 1 and rows * width <= MAX_PRODUCT_WIDTH < (rows + 1) * width
            if width <= 1024:
                assert rows == max(64, 65_536 // width)
        assert _chunk_rows(64, 1024) == _chunk_rows(1, MAX_PRODUCT_WIDTH) == 1
        with pytest.raises(DomainError, match="search too large"):
            _chunk_rows(MAX_PRODUCT_WIDTH + 1, 1)


class TestEntropyBits:
    def test_separable_state(self):
        assert entropy_bits(make_osc((1.0, 0.0))) == 0.0

    def test_maximally_entangled_four(self):
        assert entropy_bits(make_osc((0.25,) * 4)) == 2.0

    def test_binary_value(self):
        assert entropy_bits(make_osc((0.6, 0.4))) == pytest.approx(
            0.9709505944546686, abs=1e-15
        )

    @given(osc_vectors())
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_oracle(self, v):
        e = entropy_bits(v)
        assert -1e-12 <= e <= math.log2(len(v)) + 1e-9
        assert e == pytest.approx(entropy_base2(v), abs=1e-10)

    @given(osc_vectors(max_len=5), osc_vectors(max_len=5))
    @settings(max_examples=150, deadline=None)
    def test_additive_under_tensor(self, a, b):
        assert entropy_bits(tensor_spectrum(a, b)) == pytest.approx(
            entropy_bits(a) + entropy_bits(b), abs=1e-9
        )

    def test_schur_concavity_spot_checks(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = random_osc(rng, int(rng.integers(2, 7)))
            a = majorized_mix(rng, b)
            if majorizes_check(a, b).relation is Relation.MAJORIZED_BY:
                assert entropy_bits(a) >= entropy_bits(b) - 1e-12


class TestPartialSums:
    def test_jp_target(self):
        sums = partial_sums(make_osc((0.5, 0.25, 0.25, 0.0)))
        assert np.allclose(sums, (0.5, 0.75, 1.0, 1.0), rtol=0, atol=1e-15)

    def test_singleton(self):
        assert partial_sums(make_osc((1.0,))) == (1.0,)

    def test_tensor_example_cumulative(self):
        spectrum = tensor_spectrum(make_osc((0.4, 0.4, 0.1, 0.1)), make_osc((0.6, 0.4)))
        sums = partial_sums(spectrum)
        assert np.allclose(
            sums, (0.24, 0.48, 0.64, 0.80, 0.86, 0.92, 0.96, 1.0), rtol=0, atol=1e-12
        )

    @given(osc_vectors())
    @settings(max_examples=150, deadline=None)
    def test_shape_properties(self, v):
        sums = partial_sums(v)
        assert abs(sums[-1] - 1.0) <= DEFAULT_TOL.eps_norm
        diffs = np.diff((0.0,) + sums)
        assert np.all(diffs >= -1e-15)  # nondecreasing sums
        assert np.all(np.diff(diffs) <= 1e-12)  # concave increments


class TestPreorder:
    def test_transitive_on_sampled_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            c = random_osc(rng, int(rng.integers(2, 7)))
            b = majorized_mix(rng, c)
            a = majorized_mix(rng, b)
            assert majorizes_check(a, b).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )
            assert majorizes_check(b, c).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )
            assert majorizes_check(a, c).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )

    @given(osc_vectors())
    @settings(max_examples=150, deadline=None)
    def test_extremes(self, v):
        n = len(v)
        uniform = OscVector.maximally_entangled(n)
        peak = OscVector.separable(n)
        assert majorizes_check(uniform, v).relation in (
            Relation.MAJORIZED_BY,
            Relation.EQUIVALENT,
        )
        assert majorizes_check(v, peak).relation in (
            Relation.MAJORIZED_BY,
            Relation.EQUIVALENT,
        )

    def test_tensor_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            b = random_osc(rng, int(rng.integers(2, 6)))
            a = majorized_mix(rng, b)
            d = random_osc(rng, int(rng.integers(2, 6)))
            c = majorized_mix(rng, d)
            left = tensor_spectrum(a, c)
            right = tensor_spectrum(b, d)
            assert majorizes_check(left, right).relation in (
                Relation.MAJORIZED_BY,
                Relation.EQUIVALENT,
            )


class TestTolerance:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(eps_major=0.0)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            Tolerance(eps_norm=1e-2)
