"""Assembly oracles: exact element matrices, interface mass, loads,
step operators, subassembly, and the discrete temporal identity."""

import numpy as np
import pytest

from rrlab.assembly import (TimeGrid, assemble_interface_mass,
                            assemble_interface_stiffness,
                            assemble_mass_stiffness, build_global_operators,
                            build_step_operators, build_subdomain_operators,
                            element_diffusion, lumped_interface_mass,
                            robin_coefficient)
from rrlab.mesh import ProblemSpec, build_mesh, decompose


def setup(spec):
    mesh = build_mesh(spec)
    dec = decompose(mesh, spec)
    return mesh, dec


def spec_2d(nx=4, ny=4, **kw):
    kw.setdefault("source", lambda x, y, t: np.sin(x + y) + t)
    return ProblemSpec(dimension=2, nx=nx, ny=ny, interface_x=0.5, **kw)


class TestElementMatrices:
    def test_1d_single_element_exact(self):
        # exact integration of linear basis products on one element
        spec = ProblemSpec(dimension=1, nx=2, interface_x=0.5)
        mesh = build_mesh(spec)
        h = 0.5
        M, K = assemble_mass_stiffness(
            mesh, np.ones(2), np.array([0]), np.array([0, 1]))
        np.testing.assert_allclose(
            K.toarray(), (1 / h) * np.array([[1, -1], [-1, 1]]), atol=1e-15)
        np.testing.assert_allclose(
            M.toarray(), (h / 6) * np.array([[2, 1], [1, 2]]), atol=1e-15)

    def test_alpha_scaling(self):
        spec = spec_2d()
        mesh, dec = setup(spec)
        dofs = np.arange(mesh.n_nodes)
        els = np.arange(mesh.n_elements)
        M1, K1 = assemble_mass_stiffness(mesh, np.ones(mesh.n_elements), els, dofs)
        M2, K2 = assemble_mass_stiffness(mesh, 2 * np.ones(mesh.n_elements), els, dofs)
        np.testing.assert_allclose(K2.toarray(), 2 * K1.toarray(), atol=1e-15)
        np.testing.assert_allclose(M2.toarray(), M1.toarray(), atol=1e-15)

    def test_stiffness_kills_constants(self):
        # pre-elimination: gradient of a constant vanishes
        spec = spec_2d(nx=6, ny=3)
        mesh, _ = setup(spec)
        dofs = np.arange(mesh.n_nodes)
        _, K = assemble_mass_stiffness(
            mesh, np.ones(mesh.n_elements), np.arange(mesh.n_elements), dofs)
        np.testing.assert_allclose(K @ np.ones(mesh.n_nodes), 0.0, atol=1e-13)

    def test_rejects_nonpositive_alpha(self):
        spec = spec_2d()
        mesh, _ = setup(spec)
        alpha = np.ones(mesh.n_elements)
        alpha[3] = 0.0
        with pytest.raises(ValueError):
            assemble_mass_stiffness(mesh, alpha, np.arange(mesh.n_elements),
                                    np.arange(mesh.n_nodes))

    def test_symmetry_and_sorted_indices(self):
        spec = spec_2d(nx=6, ny=4)
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        for A in (ops.M, ops.K, ops.M_gamma):
            assert A.has_sorted_indices
            assert abs(A - A.T).max() == 0.0


class TestInterfaceMass:
    def test_1d_point_convention(self):
        spec = ProblemSpec(dimension=1, nx=4, interface_x=0.5)
        mesh, dec = setup(spec)
        np.testing.assert_array_equal(
            assemble_interface_mass(mesh, dec).toarray(), [[1.0]])

    def test_full_matrix_measures_interface(self):
        # oracle: segment-wise exact integration of hats along the full
        # line; the assembled matrix is its block on the free nodes
        spec = spec_2d(nx=4, ny=6, length_y=2.0)
        mesh, dec = setup(spec)
        h = 2.0 / 6
        Mg_full = np.zeros((7, 7))
        for e in range(6):
            Mg_full[e:e + 2, e:e + 2] += h * np.array([[2, 1], [1, 2]]) / 6.0
        ones = np.ones(7)
        assert ones @ Mg_full @ ones == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(assemble_interface_mass(mesh, dec).toarray(),
                                   Mg_full[1:-1, 1:-1], rtol=1e-14)

    def test_reduced_matrix_endpoint_correction(self):
        spec = spec_2d(nx=4, ny=4)
        mesh, dec = setup(spec)
        Mg = assemble_interface_mass(mesh, dec)
        ones = np.ones(dec.n_interface)
        h = 0.25
        # dropping each endpoint removes its row sum (h/2) and column
        # sum (h/2) and restores the doubly-counted diagonal (h/3)
        expected = 1.0 - 2 * (0.5 * h + 0.5 * h - h / 3.0)
        assert ones @ (Mg @ ones) == pytest.approx(expected, rel=1e-13)

    def test_persymmetric_on_uniform_grid(self):
        spec = spec_2d(nx=4, ny=8)
        mesh, dec = setup(spec)
        Mg = assemble_interface_mass(mesh, dec).toarray()
        np.testing.assert_allclose(Mg, Mg[::-1, ::-1], atol=1e-15)

    def test_lumped_rowsums(self):
        spec = spec_2d(nx=4, ny=4)
        mesh, dec = setup(spec)
        Mg = assemble_interface_mass(mesh, dec)
        ML = lumped_interface_mass(Mg).toarray()
        np.testing.assert_allclose(np.diag(ML), np.asarray(Mg.sum(axis=1)).ravel())
        np.testing.assert_allclose(ML, np.diag(np.diag(ML)))

    def test_interface_stiffness_matches_segment_loop(self):
        spec = spec_2d(nx=4, ny=6, length_y=2.0)
        mesh, dec = setup(spec)
        h = 2.0 / 6
        Kg_full = np.zeros((7, 7))
        for e in range(6):
            Kg_full[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        np.testing.assert_allclose(
            assemble_interface_stiffness(mesh, dec).toarray(),
            Kg_full[1:-1, 1:-1], rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("length", [4e-9, 1e-12, 1e6])
    def test_interface_found_at_any_domain_size(self, length):
        # the interface tolerances scale with the mesh spacing: on the
        # square of side L the interface carries the same 7 dofs, and its
        # mass scales as L and its stiffness as 1 / L
        def line(L):
            spec = ProblemSpec(dimension=2, nx=8, ny=8, length_x=L,
                               length_y=L, interface_x=L / 2)
            mesh, dec = setup(spec)
            assert dec.n_interface == 7
            return (assemble_interface_mass(mesh, dec).toarray() / L,
                    assemble_interface_stiffness(mesh, dec).toarray() * L)

        for got, ref in zip(line(length), line(1.0)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_interface_stiffness_positive_definite(self):
        spec = spec_2d(nx=4, ny=6)
        mesh, dec = setup(spec)
        Kg = assemble_interface_stiffness(mesh, dec).toarray()
        assert np.all(np.linalg.eigvalsh(Kg) > 0)


class TestLoads:
    def test_zero_source(self):
        spec = spec_2d(source=None)
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        assert not ops.loads.any()

    def test_unit_source_1d_entries(self):
        # interior rows get h; the interface row gets h/2 from each side
        spec = ProblemSpec(dimension=1, nx=4, interface_x=0.5,
                           source=lambda x, t: np.ones_like(x), n_steps=2)
        mesh, dec = setup(spec)
        h = 0.25
        ops1 = build_subdomain_operators(spec, mesh, dec, 1)
        ops2 = build_subdomain_operators(spec, mesh, dec, 2)
        np.testing.assert_allclose(ops1.loads[0], [h, h / 2], atol=1e-15)
        total = ops1.loads[0][-1] + ops2.loads[0][-1]
        assert total == pytest.approx(h, rel=1e-14)

    def test_splitting_identity_exact(self):
        # f_glob = sum_i P_i^T f_i holds to roundoff by subassembly
        rng = np.random.default_rng(11)
        table = rng.standard_normal(256)

        def bumpy(x, y, t):
            idx = (np.asarray(97 * x + 31 * y + 7 * t) % 1 * 255).astype(int)
            return table[idx]

        spec = spec_2d(nx=6, ny=4, source=bumpy, n_steps=3)
        mesh, dec = setup(spec)
        ops = [build_subdomain_operators(spec, mesh, dec, i) for i in (1, 2)]
        glob = build_global_operators(spec, mesh, dec)
        for k in range(spec.n_steps):
            recon = sum(dec.restriction_matrix(i + 1).T @ ops[i].loads[k]
                        for i in range(2))
            np.testing.assert_allclose(recon, glob.loads[k], rtol=0, atol=1e-13)

    def test_nonfinite_source_rejected(self):
        spec = spec_2d(source=lambda x, y, t: np.full_like(x, np.nan))
        mesh, dec = setup(spec)
        with pytest.raises(ValueError, match="non-finite"):
            build_subdomain_operators(spec, mesh, dec, 1)


class TestStepOperators:
    def test_hand_assembled_interface_scalar(self):
        # one element per subdomain, tau=1, alpha=1, h=1/2, theta=1:
        # (Gamma,Gamma) entry = m/tau + k = 1/6 + 2
        spec = ProblemSpec(dimension=1, nx=2, interface_x=0.5,
                           horizon=2.0, n_steps=2)
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        A, C = build_step_operators(ops)
        assert ops.n_interior == 0
        assert A.toarray()[0, 0] == pytest.approx(1 / 6 + 2, rel=1e-14)
        assert C.toarray()[0, 0] == pytest.approx(1 / 6, rel=1e-14)

    def test_robin_zero_s_adds_nothing(self):
        spec = spec_2d()
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        A0, _ = build_step_operators(ops)
        A_rob, _ = build_step_operators(ops, s=0.0)
        assert abs(A_rob - A0).max() == 0.0

    def test_robin_adds_weighted_lumped_mass(self):
        spec = spec_2d()
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        A0, _ = build_step_operators(ops)
        s = 2.5
        A_rob, _ = build_step_operators(ops, s=s)
        added = (A_rob - A0).toarray()
        expected = (s / ops.grid.tau) * ops.embed_interface(
            lumped_interface_mass(ops.M_gamma)).toarray()
        np.testing.assert_allclose(added, expected, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_robin_refuses_negative_or_non_finite_s(self, bad):
        # nan fails "s > 0" and would silently drop the Robin term
        spec = spec_2d()
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            build_step_operators(ops, s=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            robin_coefficient(bad, ops.grid.tau)
        assert robin_coefficient(0.0, ops.grid.tau) == 0.0

    def test_crank_nicolson_halves_stiffness(self):
        spec_be = spec_2d(theta=1.0)
        spec_cn = spec_2d(theta=0.5)
        mesh, dec = setup(spec_be)
        ops_be = build_subdomain_operators(spec_be, mesh, dec, 1)
        ops_cn = build_subdomain_operators(spec_cn, mesh, dec, 1)
        A1, _ = build_step_operators(ops_be)
        A2, _ = build_step_operators(ops_cn)
        diff = (A1 - A2).toarray()
        np.testing.assert_allclose(diff, 0.5 * ops_be.K.toarray(), atol=1e-13)


class TestTimeGrid:
    def test_consistency(self):
        grid = TimeGrid(0.25, 8, 1.0)
        assert grid.horizon == pytest.approx(2.0)

    def test_load_times_theta_scheme(self):
        np.testing.assert_allclose(TimeGrid(0.5, 4, 1.0).load_times(),
                                   [0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(TimeGrid(0.5, 4, 0.5).load_times(),
                                   [0.25, 0.75, 1.25, 1.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.5, 4, 0.3)


class TestFormIdentities:
    def test_subassembly_exact(self):
        # glued subdomain matrices reproduce the global ones entrywise
        spec = spec_2d(nx=6, ny=4, diffusion=lambda x, y: 1.0 + x + y)
        mesh, dec = setup(spec)
        glob = build_global_operators(spec, mesh, dec)
        Ksum = sum(dec.restriction_matrix(i).T
                   @ build_subdomain_operators(spec, mesh, dec, i).K
                   @ dec.restriction_matrix(i) for i in (1, 2))
        Msum = sum(dec.restriction_matrix(i).T
                   @ build_subdomain_operators(spec, mesh, dec, i).M
                   @ dec.restriction_matrix(i) for i in (1, 2))
        assert abs(Ksum - glob.K).max() < 1e-13
        assert abs(Msum - glob.M).max() < 1e-13

    def test_discrete_temporal_identity(self):
        # sum_k (u^k - u^{k-1})^T M u^k
        #   = 1/2 u^N M u^N + 1/2 sum_k du^T M du, exactly
        spec = spec_2d(nx=4, ny=4)
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((ops.grid.n_steps + 1, ops.n_dofs))
        u[0] = 0.0
        M = ops.M.toarray()
        lhs = sum((u[k] - u[k - 1]) @ M @ u[k]
                  for k in range(1, ops.grid.n_steps + 1))
        rhs = 0.5 * u[-1] @ M @ u[-1] + 0.5 * sum(
            (u[k] - u[k - 1]) @ M @ (u[k] - u[k - 1])
            for k in range(1, ops.grid.n_steps + 1))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs >= 0

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_space_time_form_positive(self, theta):
        # u^T (A-form) u > 0 on random nonzero histories with u^0 = 0
        spec = spec_2d(nx=4, ny=4, theta=theta)
        mesh, dec = setup(spec)
        ops = build_subdomain_operators(spec, mesh, dec, 1)
        A, C = build_step_operators(ops)
        rng = np.random.default_rng(17)
        tau = ops.grid.tau
        for _ in range(20):
            u = rng.standard_normal((ops.grid.n_steps + 1, ops.n_dofs))
            u[0] = 0.0
            form = sum(tau * u[k] @ (A @ u[k] - C @ u[k - 1])
                       for k in range(1, ops.grid.n_steps + 1))
            assert form > 0


class TestElementDiffusion:
    def test_piecewise_constant_sampling(self):
        spec = spec_2d(diffusion=lambda x, y: np.where(x < 0.5, 1.0, 3.0))
        mesh, dec = setup(spec)
        alpha = element_diffusion(spec, mesh)
        np.testing.assert_array_equal(alpha[dec.elements_1], 1.0)
        np.testing.assert_array_equal(alpha[dec.elements_2], 3.0)
