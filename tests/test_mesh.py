"""Mesh construction and decomposition invariants."""

import dataclasses

import numpy as np
import pytest

from rrlab.mesh import ProblemSpec, _check_partition, build_mesh, decompose


def spec_1d(nx=2, gamma=0.5, **kw):
    return ProblemSpec(dimension=1, nx=nx, interface_x=gamma, **kw)


def spec_2d(nx=4, ny=4, gamma=0.5, **kw):
    return ProblemSpec(dimension=2, nx=nx, ny=ny, interface_x=gamma, **kw)


class TestBuildMesh:
    def test_1d_smallest(self):
        mesh = build_mesh(spec_1d(nx=2))
        assert mesh.n_nodes == 3
        assert mesh.n_elements == 2
        np.testing.assert_allclose(mesh.nodes[:, 0], [0.0, 0.5, 1.0])

    def test_2d_counts(self):
        mesh = build_mesh(spec_2d(nx=2, ny=2))
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 8

    def test_2d_total_area(self):
        # oracle: sum of triangle areas must reproduce the rectangle area
        spec = spec_2d(nx=4, ny=4, length_x=1.0, length_y=1.0)
        mesh = build_mesh(spec)
        assert mesh.n_nodes == 25
        assert mesh.element_measures().sum() == pytest.approx(1.0, rel=1e-14)

    def test_2d_total_area_anisotropic(self):
        spec = ProblemSpec(dimension=2, nx=4, ny=6, length_x=2.0,
                           length_y=3.0, interface_x=1.0)
        mesh = build_mesh(spec)
        assert mesh.element_measures().sum() == pytest.approx(6.0, rel=1e-14)

    def test_node_ordering_y_major(self):
        mesh = build_mesh(spec_2d(nx=2, ny=2))
        keys = [tuple(p) for p in mesh.nodes[:, ::-1]]   # (y, x)
        assert keys == sorted(keys)

    def test_boundary_flags(self):
        mesh = build_mesh(spec_2d(nx=3, ny=3, gamma=1.0 / 3.0))
        on_edge = ((mesh.nodes[:, 0] == 0) | (mesh.nodes[:, 0] == 1)
                   | (mesh.nodes[:, 1] == 0) | (mesh.nodes[:, 1] == 1))
        np.testing.assert_array_equal(mesh.boundary, on_edge)

    def test_positive_measures(self):
        mesh = build_mesh(spec_2d(nx=5, ny=3, gamma=0.2))
        assert np.all(mesh.element_measures() > 0)


class TestSpecValidation:
    def test_interface_off_grid_rejected(self):
        with pytest.raises(ValueError, match="mesh line"):
            spec_1d(nx=4, gamma=0.3)

    def test_interface_on_boundary_rejected(self):
        with pytest.raises(ValueError):
            spec_1d(nx=4, gamma=0.0)
        with pytest.raises(ValueError):
            spec_1d(nx=4, gamma=1.0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(dimension=1, nx=4, length_x=-1.0, interface_x=-0.5)

    def test_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(dimension=1, nx=1, interface_x=0.5)
        with pytest.raises(ValueError):
            ProblemSpec(dimension=2, nx=4, ny=1, interface_x=0.5)

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            spec_1d(theta=0.75)


class TestDecompose:
    def test_1d_smallest_decomposition(self):
        spec = spec_1d(nx=2, gamma=0.5)
        dec = decompose(build_mesh(spec), spec)
        assert dec.interior_1.size == 0
        assert dec.interior_2.size == 0
        assert dec.n_interface == spec.n_interface == 1
        assert dec.interface[0] == 1   # the middle node

    def test_2d_interface_count(self):
        spec = spec_2d(nx=4, ny=6, gamma=0.5)
        dec = decompose(build_mesh(spec), spec)
        # endpoints on the exterior boundary are eliminated
        assert dec.n_interface == spec.n_interface == 5

    def test_partition_covers_free_dofs(self):
        for spec in (spec_1d(nx=8, gamma=0.25), spec_2d(nx=6, ny=4, gamma=0.5)):
            mesh = build_mesh(spec)
            dec = decompose(mesh, spec)
            total = dec.interior_1.size + dec.interior_2.size + dec.n_interface
            assert total == (~mesh.boundary).sum()
            assert dec.elements_1.size + dec.elements_2.size == mesh.n_elements
            joined = np.concatenate([dec.interior_1, dec.interior_2, dec.interface])
            assert np.unique(joined).size == joined.size

    def test_mirror_symmetry(self):
        # reflecting x -> Lx - x maps (I1, G) onto (I2, G)
        spec = spec_2d(nx=6, ny=4, gamma=0.5)
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        assert dec.interior_1.size == dec.interior_2.size
        refl_1 = {(round(1.0 - x, 12), round(y, 12))
                  for x, y in mesh.nodes[dec.interior_1]}
        set_2 = {(round(x, 12), round(y, 12))
                 for x, y in mesh.nodes[dec.interior_2]}
        assert refl_1 == set_2

    def test_restriction_matrix_matches_restrict(self):
        spec = spec_2d(nx=4, ny=6, gamma=0.75)
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(dec.free.size)
        for i in (1, 2):
            np.testing.assert_array_equal(
                dec.restriction_matrix(i) @ v, dec.restrict(i, v))

    @pytest.mark.parametrize("i", [0, 3])
    def test_subdomain_index_is_one_or_two(self, i):
        spec = spec_2d(nx=4, ny=4, gamma=0.5)
        dec = decompose(build_mesh(spec), spec)
        for lookup in (dec.elements_of, dec.interiors):
            with pytest.raises(ValueError, match="subdomain index"):
                lookup(i)

    def test_interface_dofs_touch_both_sides(self):
        spec = spec_2d(nx=4, ny=4, gamma=0.5)
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        nodes_1 = set(mesh.elements[dec.elements_1].ravel().tolist())
        nodes_2 = set(mesh.elements[dec.elements_2].ravel().tolist())
        for g in dec.interface:
            assert g in nodes_1 and g in nodes_2

    @pytest.mark.parametrize("spec", [spec_1d(nx=4), spec_2d(nx=4, ny=6)],
                             ids=["1d", "2d"])
    def test_interface_dof_on_one_side_refused(self, spec):
        # every element around one interface dof moved to side 1: both
        # partitions still cover, and the check names that dof
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        g = dec.interface[dec.n_interface // 2]
        around = np.flatnonzero((mesh.elements == g).any(axis=1))
        moved = dataclasses.replace(
            dec, elements_1=np.union1d(dec.elements_1, around),
            elements_2=np.setdiff1d(dec.elements_2, around))
        assert moved.elements_1.size + moved.elements_2.size == mesh.n_elements
        with pytest.raises(ValueError,
                           match=f"^interface dof {g} does not touch both sides$"):
            _check_partition(mesh, moved)
