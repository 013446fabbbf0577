"""Fractional-norm toolkit: padded DFT norms, Hilbert transform, phase
rotation, the coercivity pairing, and the interface trace norm."""

import numpy as np
import pytest

from rrlab.assembly import (assemble_interface_mass,
                            assemble_interface_stiffness,
                            build_subdomain_operators)
from rrlab.fracnorm import (FractionalNormConfig,
                            TimeSignal, _fractional_sq, _phase_rotate_window,
                            angular_frequencies, apply_phase_rotation,
                            derivative_multiplier, fractional_norm,
                            hilbert_transform, padded_extension,
                            parabolic_coercivity, random_smooth_field,
                            trace_space_norm)
from rrlab.mesh import ProblemSpec, build_mesh, decompose
from rrlab.subsolve import InterfaceSignal, SpaceTimeField


def bump(n_steps, tau, center=0.5, width=0.15):
    """Smooth bump supported well inside (0, T)."""
    t = np.arange(n_steps + 1) * tau
    T = n_steps * tau
    x = (t - center * T) / (width * T)
    out = np.exp(-1.0 / np.maximum(1e-300, 1.0 - x * x))
    out[np.abs(x) >= 1.0] = 0.0
    return out


def direct_dft_norm_sq(window, tau, sigma, symbol):
    """O(N^2) direct-summation oracle for the multiplier norm."""
    n = window.shape[0]
    j = np.arange(n)
    total = 0.0
    omega = angular_frequencies(n, tau)
    for m in range(n):
        u_hat = np.sum(window * np.exp(-2j * np.pi * j * m / n))
        w = omega[m]
        sym = (1 + w * w) ** sigma if symbol == "full" \
            else 1 + abs(w) ** (2 * sigma)
        total += sym * abs(u_hat) ** 2
    return tau / n * total


class TestWindowing:
    def test_plancherel(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(64)
        sq = _fractional_sq(u, 0.1, 0.0, "full")
        assert sq == pytest.approx(0.1 * np.sum(u * u), rel=1e-13)

    def test_zero_extension_layout(self):
        u = np.array([0.0, 1.0, 2.0])
        w = padded_extension(u, 4, "zero")
        assert w.size == 16
        np.testing.assert_array_equal(w[:3], u)
        assert not w[3:].any()

    def test_even_extension_layout(self):
        u = np.array([0.5, 1.0, 2.0])
        w = padded_extension(u, 4, "even")
        np.testing.assert_array_equal(w[:3], u)
        np.testing.assert_array_equal(w[-2:], [2.0, 1.0])
        assert not w[3:-2].any()


class TestFractionalNorm:
    @pytest.mark.parametrize("mode", ["zero", "even"])
    def test_sigma_zero_is_l2(self, mode):
        n, tau = 64, 1.0 / 64
        u = bump(n, tau)
        sig = TimeSignal(u, tau, mode=mode)
        val = fractional_norm(sig, FractionalNormConfig(0.0, mode=mode))
        trapz = np.sqrt(np.trapezoid(u * u, dx=tau))
        assert val == pytest.approx(trapz, rel=1e-3)

    def test_sigma_zero_error_improves_under_refinement(self):
        # against the analytic L2 norm: int of t^2 (1-t)^2 = 1/30
        exact = np.sqrt(1.0 / 30.0)

        def rel_err(n):
            t = np.arange(n + 1) / n
            sig = TimeSignal(t * (1 - t), 1.0 / n, mode="zero")
            val = fractional_norm(sig, FractionalNormConfig(0.0, mode="zero"))
            return abs(val - exact) / exact

        assert 0 < rel_err(32) < 1e-3
        assert rel_err(32) < rel_err(8)

    def test_pure_window_mode_closed_form(self):
        # complex mode on the window: norm = a (1+w^2)^{s/2} sqrt(L)
        n, tau, a, m = 128, 0.05, 0.7, 5
        j = np.arange(n)
        mode = a * np.exp(2j * np.pi * m * j / n)
        omega = angular_frequencies(n, tau)[m]
        for sigma in (0.25, 0.5):
            sq = _fractional_sq(mode, tau, sigma, "full")
            closed = a * (1 + omega ** 2) ** (sigma / 2) * np.sqrt(n * tau)
            assert np.sqrt(sq) == pytest.approx(closed, rel=1e-12)
            oracle = direct_dft_norm_sq(mode, tau, sigma, "full")
            assert sq == pytest.approx(oracle, rel=1e-10)

    def test_cos_window_mode_against_direct_summation(self):
        n, tau = 64, 0.125
        j = np.arange(n)
        w = 0.3 * np.cos(2 * np.pi * 3 * j / n)
        for symbol in ("full", "homogeneous"):
            sq = _fractional_sq(w, tau, 0.5, symbol)
            assert sq == pytest.approx(
                direct_dft_norm_sq(w, tau, 0.5, symbol), rel=1e-10)

    def test_homogeneity(self):
        n, tau = 32, 1.0 / 32
        u = bump(n, tau)
        cfg = FractionalNormConfig(0.5)
        one = fractional_norm(TimeSignal(u, tau), cfg)
        two = fractional_norm(TimeSignal(2 * u, tau), cfg)
        assert two == pytest.approx(2 * one, rel=1e-13)

    def test_zero_mode_requires_vanishing_start(self):
        with pytest.raises(ValueError, match="t=0"):
            TimeSignal(np.ones(5), 0.1, mode="zero")

    def test_truncation_warning(self):
        u = np.linspace(0.0, 1.0, 9)
        sig = TimeSignal(u, 0.125, mode="zero")
        with pytest.warns(UserWarning, match="truncation"):
            fractional_norm(sig, FractionalNormConfig(0.5, mode="zero"))

    def test_exchange_of_norms_for_interior_bumps(self):
        # zero- and even-extension norms agree within 5% at order 1/2
        n, tau = 128, 1.0 / 128
        u = bump(n, tau)
        znorm = fractional_norm(TimeSignal(u, tau, mode="zero"),
                                FractionalNormConfig(0.5, mode="zero"))
        enorm = fractional_norm(TimeSignal(u, tau, mode="even"),
                                FractionalNormConfig(0.5, mode="even"))
        assert abs(znorm - enorm) / znorm < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FractionalNormConfig(1.5)
        with pytest.raises(ValueError):
            FractionalNormConfig(0.5, pad=2)
        with pytest.raises(ValueError):
            FractionalNormConfig(0.5, symbol="windowed")


class TestHilbertTransform:
    def test_constant_maps_to_zero(self):
        out = hilbert_transform(np.full(32, 3.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_cos_to_sin(self):
        # oracle: apply the multiplier by direct summation
        n = 64
        j = np.arange(n)
        for m in (1, 5, 11):
            c = np.cos(2 * np.pi * m * j / n)
            s = np.sin(2 * np.pi * m * j / n)
            np.testing.assert_allclose(hilbert_transform(c), s, atol=1e-12)
            np.testing.assert_allclose(hilbert_transform(s), -c, atol=1e-12)

    def _mean_zero_bandlimited(self, n=256, seed=1):
        # mean-zero and Nyquist-free, where |multiplier| = 1 exactly
        rng = np.random.default_rng(seed)
        j = np.arange(n)
        w = np.zeros(n)
        for m in range(1, 20):
            w += (rng.standard_normal() * np.cos(2 * np.pi * m * j / n)
                  + rng.standard_normal() * np.sin(2 * np.pi * m * j / n))
        return w

    def test_isometry_on_mean_zero(self):
        w = self._mean_zero_bandlimited()
        hu = hilbert_transform(w)
        assert np.linalg.norm(hu) == pytest.approx(np.linalg.norm(w), rel=1e-12)

    def test_involution_is_minus_identity(self):
        w = self._mean_zero_bandlimited(seed=2)
        np.testing.assert_allclose(hilbert_transform(hilbert_transform(w)),
                                   -w, atol=1e-12 * np.abs(w).max())


class TestPhaseRotation:
    def test_identity_limit(self):
        vals = np.outer(np.sin(np.linspace(0, np.pi, 17)), [1.0, 2.0])
        vals[0] = 0.0
        phi = 1e-9
        out = apply_phase_rotation(vals, phi)
        assert np.abs(out - vals).max() <= 10 * phi * np.abs(vals).max()

    def test_zero_field(self):
        out = apply_phase_rotation(np.zeros((9, 3)), 0.3)
        assert not out.any()

    def test_single_window_mode_closed_form(self):
        # rotation advances the phase: B cos(wt) = cos(wt + phi)
        n = 128
        j = np.arange(n)
        for m in (2, 7):
            arg = 2 * np.pi * m * j / n
            out = _phase_rotate_window(np.cos(arg), 0.4)
            np.testing.assert_allclose(out, np.cos(arg + 0.4), atol=1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            apply_phase_rotation(np.zeros((5, 1)), 0.0)
        with pytest.raises(ValueError):
            apply_phase_rotation(np.zeros((5, 1)), np.pi)


def subdomain_ops(nx=8, n_steps=16, dimension=1):
    spec = ProblemSpec(dimension=dimension, nx=nx,
                       ny=nx if dimension == 2 else 0,
                       interface_x=0.5, n_steps=n_steps)
    mesh = build_mesh(spec)
    dec = decompose(mesh, spec)
    return mesh, dec, build_subdomain_operators(spec, mesh, dec, 1)


class TestParabolicCoercivity:
    def test_temporal_multiplier_identity(self):
        # <d_t Eu, B Eu>_M = sin(phi) * weighted order-1/2 seminorm sum,
        # exactly, for arbitrary (even rough) fields
        mesh, dec, ops = subdomain_ops()
        rng = np.random.default_rng(2)
        phi = 0.1
        tau = ops.grid.tau
        for _ in range(10):
            vals = rng.standard_normal((ops.grid.n_steps + 1, ops.n_dofs))
            vals[0] = 0.0
            u = SpaceTimeField(vals)
            rep = parabolic_coercivity(ops, u, phi)
            window = padded_extension(vals, 8, "zero")
            U = np.fft.fft(window, axis=0)
            nw = window.shape[0]
            absw = np.abs(derivative_multiplier(nw, tau))
            energy = np.real(np.einsum("mi,ij,mj->m", np.conj(U),
                                       ops.M.toarray(), U))
            oracle = np.sin(phi) * tau / nw * np.sum(absw * energy)
            assert rep.temporal_pairing == pytest.approx(oracle, rel=1e-12)

    def test_zero_field_skipped(self):
        mesh, dec, ops = subdomain_ops()
        u = SpaceTimeField(np.zeros((ops.grid.n_steps + 1, ops.n_dofs)))
        rep = parabolic_coercivity(ops, u, 0.1)
        assert rep.skipped and np.isnan(rep.ratio_full)

    def test_smooth_fields_give_positive_ratios(self):
        mesh, dec, ops = subdomain_ops()
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_smooth_field(mesh, dec, ops, rng)
            rep = parabolic_coercivity(ops, u, 0.1)
            assert rep.pairing > 0
            assert rep.ratio_full > 0
            assert rep.ratio_homogeneous > 0
            # sqrt(1 + w^2) <= 1 + |w| pointwise
            assert 0 < rep.w_norm_sq_full <= rep.w_norm_sq_homogeneous

    def test_angle_validation(self):
        mesh, dec, ops = subdomain_ops()
        u = SpaceTimeField(np.zeros((ops.grid.n_steps + 1, ops.n_dofs)))
        with pytest.raises(ValueError):
            parabolic_coercivity(ops, u, 2.0)


class TestTraceSpaceNorm:
    def setup_2d(self, nx=8, n_steps=8):
        spec = ProblemSpec(dimension=2, nx=nx, ny=nx, interface_x=0.5,
                           n_steps=n_steps)
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        Mg = assemble_interface_mass(mesh, dec)
        Kg = assemble_interface_stiffness(mesh, dec)
        return spec, Mg, Kg

    def test_zero_signal(self):
        spec, Mg, Kg = self.setup_2d()
        eta = InterfaceSignal(np.zeros((8, Mg.shape[0])))
        assert trace_space_norm(eta, Mg, Kg, tau=spec.tau) == 0.0

    def test_constant_eigenvector_spatial_factor(self):
        # a time-constant eigenvector contributes T * sqrt(lambda_j) to
        # the squared norm through the spatial term
        import scipy.linalg
        spec, Mg, Kg = self.setup_2d()
        lam, Q = scipy.linalg.eigh(Kg.toarray(), Mg.toarray())
        j = 2
        qj = Q[:, j]
        # eigenpair sanity: K q = lambda M q
        np.testing.assert_allclose(Kg @ qj, lam[j] * (Mg @ qj), atol=1e-10)
        eta = InterfaceSignal(np.tile(qj, (8, 1)))
        full = trace_space_norm(eta, Mg, Kg, tau=spec.tau)
        temporal = trace_space_norm(eta, Mg, None, tau=spec.tau)
        spatial_sq = full ** 2 - temporal ** 2
        assert spatial_sq == pytest.approx(
            spec.horizon * np.sqrt(lam[j]), rel=1e-10)

    def test_pythagoras_in_eigencoordinates(self):
        import scipy.linalg
        spec, Mg, Kg = self.setup_2d()
        lam, Q = scipy.linalg.eigh(Kg.toarray(), Mg.toarray())
        t = np.arange(1, 9) / 8.0
        a = InterfaceSignal(np.outer(np.sin(np.pi * t), Q[:, 0]))
        b = InterfaceSignal(np.outer(np.sin(2 * np.pi * t), Q[:, 3]))
        na = trace_space_norm(a, Mg, Kg, tau=spec.tau)
        nb = trace_space_norm(b, Mg, Kg, tau=spec.tau)
        nab = trace_space_norm(a + b, Mg, Kg, tau=spec.tau)
        assert nab ** 2 == pytest.approx(na ** 2 + nb ** 2, rel=1e-9)
        assert nab >= max(na, nb)

    def test_1d_reduces_to_temporal_norm(self):
        eta = InterfaceSignal(np.sin(np.arange(1, 9) / 8.0 * np.pi)[:, None])
        Mg = np.array([[1.0]])
        val = trace_space_norm(eta, Mg, None, tau=1.0 / 8)
        sig = TimeSignal(np.concatenate([[0.0], eta.values[:, 0]]), 1.0 / 8,
                         mode="even")
        expected = fractional_norm(sig, FractionalNormConfig(0.25, mode="even"))
        assert val == pytest.approx(expected, rel=1e-12)


class TestRandomSmoothField:
    def test_valid_field(self):
        mesh, dec, ops = subdomain_ops(dimension=2, nx=6, n_steps=6)
        rng = np.random.default_rng(4)
        u = random_smooth_field(mesh, dec, ops, rng)
        assert u.values.shape == (7, ops.n_dofs)
        assert not u.values[0].any()
        assert np.abs(u.values[1:, ops.n_interior:]).max() > 0
