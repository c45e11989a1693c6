"""Tests for mesh construction and the reference element."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotpress import mesh as hm
from hotpress.errors import MeshError


class TestGradedSpacing:
    def test_uniform(self):
        x = hm.graded_spacing(1.0, 4, 1.0)
        assert np.allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_element(self):
        assert np.allclose(hm.graded_spacing(2.0, 1, 4.0), [0.0, 2.0])

    def test_ratio_between_first_and_last_cell(self):
        x = hm.graded_spacing(0.2828, 20, 4.0)
        w = np.diff(x)
        assert w[0] / w[-1] == pytest.approx(4.0, rel=1e-12)
        assert x[-1] == pytest.approx(0.2828, abs=1e-15)

    def test_successive_widths_geometric(self):
        x = hm.graded_spacing(1.0, 10, 4.0)
        w = np.diff(x)
        q = w[1:] / w[:-1]
        assert np.allclose(q, q[0]), "cell widths must form a geometric series"
        assert q[0] == pytest.approx(4.0 ** (-1.0 / 9.0))

    def test_invalid_args(self):
        with pytest.raises(MeshError):
            hm.graded_spacing(1.0, 0, 4.0)
        with pytest.raises(MeshError):
            hm.graded_spacing(1.0, 5, -1.0)


class TestBuildMesh:
    def test_counts(self):
        m = hm.build_graded_mesh(0.2828, 0.0075, 20, 20, 4.0)
        assert m.n_nodes == 21 * 21
        assert len(m.elements) == 400

    def test_extents_exact(self):
        m = hm.build_graded_mesh(0.2828, 0.0075, 20, 20, 4.0)
        assert m.nodes[:, 0].min() == 0.0
        assert m.nodes[:, 0].max() == 0.2828
        assert m.nodes[:, 1].min() == 0.0
        assert m.nodes[:, 1].max() == 0.0075

    def test_smallest_cells_sit_at_platen_and_rim(self):
        m = hm.build_graded_mesh(0.2828, 0.0075, 20, 20, 4.0)
        r = np.unique(m.nodes[:, 0])
        z = np.unique(m.nodes[:, 1])
        assert np.diff(r)[-1] == pytest.approx(np.diff(r)[0] / 4.0)
        assert np.diff(z)[-1] == pytest.approx(np.diff(z)[0] / 4.0)

    def test_connectivity_ccw(self):
        m = hm.build_graded_mesh(1.0, 1.0, 3, 2, 1.0)
        # first element corners: (0,0), (1,0), (1,1), (0,1) in grid indices
        assert list(m.elements[0]) == [0, 1, 5, 4]
        coords = m.nodes[m.elements]
        # shoelace area positive for CCW ordering
        x, y = coords[..., 0], coords[..., 1]
        area = 0.5 * np.sum(
            x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1
        )
        assert np.all(area > 0)

    def test_node_tags(self):
        m = hm.build_graded_mesh(1.0, 0.5, 4, 3, 1.0)
        assert len(m.node_tags[hm.PLATEN]) == 5
        assert np.all(m.nodes[m.node_tags[hm.PLATEN], 1] == 0.5)
        assert np.all(m.nodes[m.node_tags[hm.CENTERLINE], 0] == 0.0)
        assert np.all(m.nodes[m.node_tags[hm.MIDPLANE], 1] == 0.0)
        assert np.all(m.nodes[m.node_tags[hm.EXTERNAL], 0] == 1.0)

    def test_invalid_extent(self):
        with pytest.raises(MeshError):
            hm.build_graded_mesh(-1.0, 0.5, 4, 4)


class TestNodeGrid:
    """The node grid, the element corners and the boundary lines of a
    graded 7 x 4 mesh."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return hm.build_graded_mesh(0.2828, 0.0075, 7, 4, 4.0)

    def test_grid_numbers_rows_of_constant_z(self, mesh):
        iz, ir = np.indices((mesh.n_z + 1, mesh.n_r + 1))
        assert mesh.grid.shape == (5, 8)
        assert np.array_equal(mesh.grid, iz * (mesh.n_r + 1) + ir)

    @pytest.mark.parametrize("tag, fixed, value", [
        (hm.CENTERLINE, 0, 0.0), (hm.EXTERNAL, 0, 0.2828),
        (hm.MIDPLANE, 1, 0.0), (hm.PLATEN, 1, 0.0075)])
    def test_each_line_holds_one_coordinate(self, mesh, tag, fixed, value):
        coords = mesh.nodes[mesh.node_tags[tag]]
        assert np.all(coords[:, fixed] == value)
        assert np.all(np.diff(coords[:, 1 - fixed]) > 0.0)

    def test_elements_match_corner_loop(self, mesh):
        n_r = mesh.n_r
        oracle = []
        for iz in range(mesh.n_z):
            for ir in range(n_r):
                n0 = iz * (n_r + 1) + ir
                oracle.append([n0, n0 + 1, n0 + n_r + 2, n0 + n_r + 1])
        assert mesh.elements.dtype == np.int64
        assert np.array_equal(mesh.elements, oracle)


class TestDissectionOrder:
    @settings(deadline=None)
    @given(n_r=st.integers(1, 40), n_z=st.integers(1, 40))
    def test_permutation_with_a_mesh_line_last(self, n_r, n_z):
        m = hm.build_graded_mesh(1.0, 1.0, n_r, n_z, 1.0)
        order = m.dissection_order()
        assert np.array_equal(np.sort(order), np.arange(m.n_nodes))
        if n_r >= n_z:
            last = order[-(n_z + 1):]
            ir = last[0] % (n_r + 1)
            assert np.array_equal(last, m.grid[:, ir])
            # the line separates the nodes ordered before it into the two
            # sides, left side first
            ir_before = order[:-(n_z + 1)] % (n_r + 1)
            n_left = ir * (n_z + 1)
            assert np.all(ir_before[:n_left] < ir)
            assert np.all(ir_before[n_left:] > ir)


class TestReferenceElement:
    def test_nodal_values(self):
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        for a, (xi, eta) in enumerate(corners):
            n, _ = hm.shape_eval(xi, eta)
            expect = np.zeros(4)
            expect[a] = 1.0
            assert np.allclose(n, expect)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        xi, eta = rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
        n, dn = hm.shape_eval(xi, eta)
        assert np.allclose(n.sum(axis=-1), 1.0)
        assert np.allclose(dn.sum(axis=-2), 0.0, atol=1e-14)

    def test_centroid(self):
        n, _ = hm.shape_eval(0.0, 0.0)
        assert np.allclose(n, 0.25)

    def test_linear_completeness(self):
        # interpolating f = 2 + 3x - y on any quad is exact
        coords = np.array([[0.0, 0.0], [2.0, 0.1], [2.2, 1.3], [-0.1, 1.0]])
        f = 2.0 + 3.0 * coords[:, 0] - coords[:, 1]
        n, grad, _, gp = hm.element_geometry(coords[None])
        interp = n @ f
        exact = 2.0 + 3.0 * gp[0, :, 0] - gp[0, :, 1]
        assert np.allclose(interp, exact)
        g = np.einsum("gad,a->gd", grad[0], f)
        assert np.allclose(g, [[3.0, -1.0]] * len(hm.GAUSS_WEIGHTS))


def gauss_rule(order):
    """order x order tensor-product Gauss-Legendre points and weights,
    built independently of the mesh module's constants."""
    x, w = np.polynomial.legendre.leggauss(order)
    xi, eta = np.meshgrid(x, x)
    return (np.column_stack([xi.ravel(), eta.ravel()]),
            np.outer(w, w).ravel())


class TestQuadrature:
    def test_weights_sum_to_reference_area(self):
        assert hm.GAUSS_WEIGHTS.sum() == pytest.approx(4.0)

    def test_rule_is_2x2_gauss_legendre(self):
        # points at +-1/sqrt(3) in the corner order, xi varying fastest
        pts, wts = gauss_rule(2)
        assert np.allclose(hm.GAUSS_POINTS, pts, rtol=0.0, atol=1e-15)
        assert np.allclose(np.abs(hm.GAUSS_POINTS), 1.0 / np.sqrt(3.0))
        assert np.allclose(hm.GAUSS_WEIGHTS, wts)

    def test_unit_square_jacobian(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        _, _, detj, _ = hm.element_geometry(coords[None])
        assert np.allclose(detj, 0.25)

    def test_rectangle_area(self):
        a, b = 0.3, 0.07
        coords = np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])
        _, _, detj, _ = hm.element_geometry(coords[None])
        assert (detj * hm.GAUSS_WEIGHTS).sum() == pytest.approx(a * b, rel=1e-14)

    def test_total_mesh_area(self):
        m = hm.build_graded_mesh(0.2828, 0.0075, 13, 9, 4.0)
        coords = m.nodes[m.elements]
        _, _, detj, _ = hm.element_geometry(coords)
        assert (detj * hm.GAUSS_WEIGHTS).sum() == pytest.approx(
            0.2828 * 0.0075, rel=1e-13)

    def test_inverted_element_rejected(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])  # CW
        with pytest.raises(MeshError):
            hm.element_geometry(coords[None])

    def test_third_order_rule_agrees_on_polynomials(self):
        # the 2x2 rule integrates the bilinear mass integrand exactly, as
        # a 3x3 rule evaluated from the shape functions does
        coords = np.array([[0.0, 0.0], [0.8, 0.0], [0.8, 0.4], [0.0, 0.4]])
        n, _, detj, _ = hm.element_geometry(coords[None])
        mass = np.einsum("g,ga,gb->ab", hm.GAUSS_WEIGHTS * detj[0], n, n)
        pts, wts = gauss_rule(3)
        n3, dn3 = hm.shape_eval(pts[:, 0], pts[:, 1])
        jac = np.einsum("ai,gaj->gij", coords, dn3)
        detj3 = np.linalg.det(jac)
        oracle = np.einsum("g,ga,gb->ab", wts * detj3, n3, n3)
        assert np.allclose(mass, oracle, rtol=1e-13)
