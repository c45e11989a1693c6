"""Structured quadrilateral mesh of the axisymmetric board cross-section.

The computational domain is the (r, z) rectangle [0, r_ext] x
[0, half_thickness]: r = 0 is the board axis, z = 0 the mid-thickness
symmetry plane, z = half_thickness the heated platen face and r = r_ext the
open rim.  Element sizes shrink geometrically toward the platen and the rim,
where the steep fronts live.

Nodes are numbered row-major over z-rows: ``Mesh.grid[iz, ir]`` is
iz * (n_r + 1) + ir, the node at the ir-th radius of the iz-th height.
Element corner connectivity is counter-clockwise starting at the low-r,
low-z corner.  The four boundary lines are the ``Mesh.node_tags``, each
in increasing order of its free coordinate.

Every element is a bilinear quadrilateral integrated by the one 2x2
Gauss-Legendre rule ``GAUSS_POINTS``, ``GAUSS_WEIGHTS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError

# boundary tags
PLATEN = "platen"
CENTERLINE = "centerline"
MIDPLANE = "midplane"
EXTERNAL = "external_radius"

def graded_spacing(length, n, ratio):
    """Coordinates of ``n + 1`` points on [0, length], geometrically graded.

    Successive cell widths shrink by ``ratio**(1/(n-1))`` so the last cell is
    ``ratio`` times narrower than the first.  ``ratio = 1`` gives a uniform
    spacing; ``ratio > 1`` concentrates points near ``length``.
    """
    if n < 1:
        raise MeshError("need at least one element per direction")
    if ratio <= 0.0:
        raise MeshError("grading ratio must be positive")
    if n == 1 or ratio == 1.0:
        return np.linspace(0.0, length, n + 1)
    q = ratio ** (-1.0 / (n - 1))
    widths = q ** np.arange(n)
    widths *= length / widths.sum()
    return np.concatenate(([0.0], np.cumsum(widths)))


@dataclass
class Mesh:
    """Structured axisymmetric quad mesh with boundary tagging.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        (r, z) coordinates.
    elements : (n_el, 4) int array
        CCW corner node indices.
    n_r, n_z : int
        Element counts in r and in z.
    node_tags : dict tag -> int array
        Node indices on each boundary line, in increasing order of the
        line's free coordinate (corner nodes appear under both tags).
    """

    nodes: np.ndarray
    elements: np.ndarray
    n_r: int
    n_z: int
    node_tags: dict

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def grid(self):
        """Node indices laid out as the mesh, shape (n_z + 1, n_r + 1):
        ``grid[iz, ir]`` is the node at the ir-th radius of the iz-th
        height."""
        return np.arange(self.n_nodes).reshape(self.n_z + 1, self.n_r + 1)

    def dissection_order(self):
        """Nested-dissection order of the nodes (George 1973).

        The node grid is cut in two by its middle mesh line across the
        longer side, each half is ordered the same way, and the separating
        line comes last.  Eliminated in this order, a matrix that couples
        the nodes of each element fills in only among the nodes of one
        part and the separators around it.
        """
        def dissect(grid):
            if grid.size <= 1:
                return [grid.ravel()]
            rows, cols = grid.shape
            if cols >= rows:
                mid = cols // 2
                return (dissect(grid[:, :mid]) + dissect(grid[:, mid + 1:])
                        + [grid[:, mid]])
            mid = rows // 2
            return dissect(grid[:mid]) + dissect(grid[mid + 1:]) + [grid[mid]]

        return np.concatenate(dissect(self.grid))


def build_graded_mesh(r_ext, half_thickness, n_r, n_z, grading_ratio=4.0):
    """Build the press cross-section mesh.

    Parameters
    ----------
    r_ext : float
        Outer board radius [m], > 0.
    half_thickness : float
        Half the board thickness [m], > 0; the platen sits at z = this value.
    n_r, n_z : int
        Element counts; >= 1 each.
    grading_ratio : float
        First-to-last cell width ratio per direction (grading toward the
        rim in r and toward the platen in z).

    Returns
    -------
    Mesh
    """
    if r_ext <= 0.0 or half_thickness <= 0.0:
        raise MeshError("domain extents must be positive")
    r = graded_spacing(r_ext, n_r, grading_ratio)
    z = graded_spacing(half_thickness, n_z, grading_ratio)
    # exact extents regardless of accumulated rounding
    r[0], r[-1] = 0.0, r_ext
    z[0], z[-1] = 0.0, half_thickness

    rr, zz = np.meshgrid(r, z)  # zz varies along axis 0 (rows)
    nodes = np.column_stack([rr.ravel(), zz.ravel()])
    grid = np.arange(rr.size).reshape(rr.shape)  # as ``Mesh.grid``

    elements = np.stack([grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:],
                         grid[1:, :-1]], axis=-1).reshape(-1, 4)
    node_tags = {CENTERLINE: grid[:, 0], EXTERNAL: grid[:, -1],
                 MIDPLANE: grid[0], PLATEN: grid[-1]}
    return Mesh(nodes, elements, n_r, n_z, node_tags)


# ---------------------------------------------------------------------------
# reference element
# ---------------------------------------------------------------------------

def shape_eval(xi, eta):
    """Bilinear shape functions and reference gradients at (xi, eta).

    Returns
    -------
    n : (..., 4) array
        Shape function values, corner order (-1,-1), (1,-1), (1,1), (-1,1).
    dn : (..., 4, 2) array
        d n_a / d(xi, eta).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    one = np.ones_like(xi)
    n = 0.25 * np.stack(
        [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
         (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)], axis=-1
    )
    dn_dxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=-1)
    dn_deta = 0.25 * np.stack([-(1 - xi) * one, -(1 + xi) * one,
                               (1 + xi) * one, (1 - xi) * one], axis=-1)
    return n, np.stack([dn_dxi, dn_deta], axis=-1)


# the tensor-product 2x2 Gauss-Legendre rule on the reference square:
# points (4, 2), xi varying fastest, and weights (4,)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(2)
GAUSS_POINTS = np.array([[xi, eta] for eta in _GL_X for xi in _GL_X])
GAUSS_WEIGHTS = np.array([wi * wj for wj in _GL_W for wi in _GL_W])


def element_geometry(coords):
    """Isoparametric geometry of a batch of elements at the Gauss points.

    Parameters
    ----------
    coords : (n_el, 4, 2) array
        Corner coordinates of each element.

    Returns
    -------
    n : (n_gp, 4) shape values
    grad : (n_el, n_gp, 4, 2) physical shape gradients
    detj : (n_el, n_gp) Jacobian determinants (must be positive)
    gp_xy : (n_el, n_gp, 2) physical quadrature point coordinates
    """
    n, dn = shape_eval(GAUSS_POINTS[:, 0], GAUSS_POINTS[:, 1])  # (g,4), (g,4,2)
    # jacobian J[e,g,i,j] = d x_i / d xi_j
    jac = np.einsum("eai,gaj->egij", coords, dn)
    detj = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(detj <= 0.0):
        raise MeshError("non-positive Jacobian: inverted or degenerate element")
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1]
    inv[..., 0, 1] = -jac[..., 0, 1]
    inv[..., 1, 0] = -jac[..., 1, 0]
    inv[..., 1, 1] = jac[..., 0, 0]
    inv /= detj[..., None, None]
    # physical gradient: dN/dx_i = dN/dxi_j * dxi_j/dx_i  (inv is J^-1)
    grad = np.einsum("gaj,egji->egai", dn, inv)
    gp_xy = np.einsum("ga,eai->egi", n, coords)
    return n, grad, detj, gp_xy
