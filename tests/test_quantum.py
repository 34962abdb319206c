import numpy as np
import pytest
from scipy.integrate import quad

from zapsim import (
    HeraldedState,
    QuadratureSample,
    estimate_eta,
    is_nonclassical,
    quadrature_pdf,
    sample_quadratures,
    wigner,
    wigner_grid,
)

SQRT_PI = np.sqrt(np.pi)


class TestHeraldedState:
    @pytest.mark.parametrize("eta", [-0.1, 1.1, np.nan])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            HeraldedState(eta)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_accepts_boundaries(self, eta):
        assert HeraldedState(eta).eta == eta


class TestQuadraturePdf:
    def test_vacuum_at_origin(self):
        assert quadrature_pdf(HeraldedState(0.0), 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    def test_fock_node_at_origin(self):
        assert quadrature_pdf(HeraldedState(1.0), 0.0) == 0.0

    def test_mixture_closed_form(self):
        # eta=0.62 at x=1: (0.62 * 2 + 0.38) * exp(-1)/sqrt(pi)
        expected = (0.62 * 2.0 + 0.38) * np.exp(-1.0) / SQRT_PI
        assert quadrature_pdf(HeraldedState(0.62), 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.62, 1.0])
    def test_normalization_by_quadrature(self, eta):
        total, _ = quad(lambda x: quadrature_pdf(HeraldedState(eta), x), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        vals = quadrature_pdf(HeraldedState(0.4), xs)
        assert vals.shape == xs.shape
        assert np.all(vals >= 0.0)


class TestSampling:
    def test_deterministic_for_seed(self):
        s = HeraldedState(0.62)
        a = sample_quadratures(s, 1000, seed=42)
        b = sample_quadratures(s, 1000, seed=42)
        assert np.array_equal(a.values, b.values)
        c = sample_quadratures(s, 1000, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_vacuum_variance(self):
        q = sample_quadratures(HeraldedState(0.0), 10**6, seed=7)
        assert np.var(q.values) == pytest.approx(0.5, abs=0.002)

    def test_fock_variance(self):
        q = sample_quadratures(HeraldedState(1.0), 10**6, seed=8)
        assert np.var(q.values) == pytest.approx(1.5, abs=0.004)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_quadratures(HeraldedState(0.5), 0, seed=1)

    def test_sample_of_no_values_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            QuadratureSample(np.array([]))

    def test_sample_with_a_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            QuadratureSample(np.array([0.1, np.nan, -0.2]))

    @pytest.mark.parametrize("eta", [0.0, 0.62, 1.0])
    def test_table_tail_truncation_negligible(self, eta):
        # probability mass beyond the tabulated [-6, 6] range
        tail, _ = quad(lambda x: quadrature_pdf(HeraldedState(eta), x), 6.0, np.inf)
        assert 2.0 * tail < 1e-8


class TestEstimator:
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.62, 1.0])
    def test_recovers_eta_within_three_sigma(self, eta):
        q = sample_quadratures(HeraldedState(eta), 10**5, seed=int(eta * 100) + 11)
        est = estimate_eta(q)
        assert abs(est.eta_hat - eta) < 3.0 * est.stderr

    def test_synthetic_example_030(self):
        q = sample_quadratures(HeraldedState(0.3), 10**5, seed=5)
        est = estimate_eta(q)
        assert est.eta_hat == pytest.approx(0.3, abs=3.0 * est.stderr)

    def test_clamping_flagged(self):
        # slightly sub-vacuum data pushes the raw moment below zero
        values = np.full(100, 0.1)
        values[::2] *= -1.0
        est = estimate_eta(QuadratureSample(values))
        assert est.eta_hat == 0.0
        assert est.clamped

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_eta(QuadratureSample(np.ones(50)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_eta(QuadratureSample(np.array([0.3])))


class TestWigner:
    def test_vacuum_peak(self):
        assert wigner(HeraldedState(0.0), 0.0, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_threshold_zero_at_origin(self):
        assert wigner(HeraldedState(0.5), 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.62, 1.0])
    def test_origin_closed_form(self, eta):
        expected = (1.0 - 2.0 * eta) / np.pi
        got = wigner(HeraldedState(eta), 0.0, 0.0)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_negative_value_example(self):
        assert wigner(HeraldedState(0.62), 0.0, 0.0) == pytest.approx(-0.0763944, abs=1e-7)

    @pytest.mark.parametrize("eta", [0.0, 0.62, 1.0])
    def test_plane_normalization(self, eta):
        xs = np.linspace(-6.0, 6.0, 601)
        w = wigner(HeraldedState(eta), xs[:, None], xs[None, :])
        total = np.trapezoid(np.trapezoid(w, xs, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.62])
    def test_marginal_matches_quadrature_pdf(self, eta):
        state = HeraldedState(eta)
        for x in (-1.3, 0.0, 0.4, 2.1):
            marg, _ = quad(lambda p: wigner(state, x, p), -np.inf, np.inf)
            assert marg == pytest.approx(quadrature_pdf(state, x), abs=1e-6)


class TestWignerGrid:
    def test_rotational_symmetry(self):
        w = wigner_grid(HeraldedState(0.7), half_width=3.0, n_side=61)
        assert np.max(np.abs(w - w.T)) < 1e-12
        center = 30
        assert w[center, 40] == pytest.approx(w[40, center], abs=1e-15)

    def test_negative_minimum_at_origin(self):
        w = wigner_grid(HeraldedState(0.62), half_width=4.0, n_side=101)
        k = np.unravel_index(np.argmin(w), w.shape)
        assert k == (50, 50)
        assert w[k] < 0.0

    def test_vacuum_maximum_at_origin(self):
        w = wigner_grid(HeraldedState(0.0), half_width=4.0, n_side=101)
        k = np.unravel_index(np.argmax(w), w.shape)
        assert k == (50, 50)
        assert w[k] == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            wigner_grid(HeraldedState(0.5), half_width=0.0, n_side=11)
        with pytest.raises(ValueError):
            wigner_grid(HeraldedState(0.5), half_width=1.0, n_side=1)


class TestNonclassical:
    def test_boundary_is_classical(self):
        assert not is_nonclassical(HeraldedState(0.5))

    def test_above_threshold(self):
        assert is_nonclassical(HeraldedState(0.62))

    def test_below_threshold(self):
        assert not is_nonclassical(HeraldedState(0.49))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.51, 0.62, 1.0])
    def test_agrees_with_origin_sign(self, eta):
        state = HeraldedState(eta)
        assert is_nonclassical(state) == (wigner(state, 0.0, 0.0) < 0.0)
