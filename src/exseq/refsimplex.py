"""Cells and their geometry: affine maps, boundaries, orientation data,
and quadrature.

This is the one module that knows cell geometry. A `Cell` maps its points
to the reference simplex, where `orthopoly` tabulates, and applies its own
affine map to the tables; `cell_edges`, `tet_faces` and `triangle_edges`
find a cell's oriented boundary, and every edge comes from `cell_edges`.
The rest of the package takes `Cell`s only.

The reference cells are `make_reference_cell(dim).cell`: the unit
tetrahedron, whose four faces have all interior angles below 2*pi/3, the
unit right triangle (maximal angle pi/2, regularity index 2) and (-1, 1).
`ReferenceCell` adds only the angle data that the reports read.

Faces carry congruence charts into the plane so that surface differential
operators computed on the planar copy coincide with the traced 3D ones.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from . import cache, orthopoly

MAX_QUAD_DEGREE = 40


class Cell:
    """A d-simplex given by its vertices in d-dimensional coordinates.

    Immutable after construction. `key` identifies the cell for caching.
    """

    def __init__(self, vertices, key):
        self.vertices = np.asarray(vertices, dtype=float)
        self.dim = self.vertices.shape[1]
        if self.vertices.shape[0] != self.dim + 1:
            raise ValueError("simplex needs dim+1 vertices")
        self.key = key
        if self.dim == 1:
            self._v0 = 0.5 * (self.vertices[0, 0] + self.vertices[1, 0])
            self._A = np.array([[0.5 * (self.vertices[1, 0] - self.vertices[0, 0])]])
        else:
            self._v0 = self.vertices[0]
            self._A = (self.vertices[1:] - self.vertices[0]).T
        self._Ainv = np.linalg.inv(self._A)
        self._detA = abs(np.linalg.det(self._A))

    @property
    def measure(self):
        ref = {1: 2.0, 2: 0.5, 3: 1.0 / 6.0}[self.dim]
        return ref * self._detA

    @property
    def centroid(self):
        return self.vertices.mean(axis=0)

    @property
    def inradius(self):
        # measure = (1/d) * inradius * sum of facet measures
        if self.dim == 1:
            return 0.5 * self.measure
        facets = []
        for i in range(self.dim + 1):
            vs = np.delete(self.vertices, i, axis=0)
            if self.dim == 2:
                facets.append(np.linalg.norm(vs[1] - vs[0]))
            else:
                facets.append(
                    0.5 * np.linalg.norm(np.cross(vs[1] - vs[0], vs[2] - vs[0]))
                )
        return self.dim * self.measure / sum(facets)

    def to_reference(self, pts):
        pts = np.asarray(pts)
        if pts.ndim == 1:
            pts = pts[:, None]
        return (pts - self._v0) @ self._Ainv.T

    def from_reference(self, ref_pts):
        ref_pts = np.asarray(ref_pts)
        if ref_pts.ndim == 1:
            ref_pts = ref_pts[:, None]
        return ref_pts @ self._A.T + (
            self._v0 if self.dim > 1 else np.array([self._v0])
        )

    def n_modes(self, degree):
        return orthopoly.n_modes(self.dim, degree)

    def tabulate(self, degree, pts):
        """Orthonormal modal basis values at cell points, (n_modes, n_pts):
        the reference table over sqrt(|det A|)."""
        vals = orthopoly.tabulate(self.dim, degree, self.to_reference(pts))
        if self._detA != 1.0:  # dividing by 1 is exact: reference cells skip it
            vals /= np.sqrt(self._detA)
        return vals

    def tabulate_grad(self, degree, pts, direction):
        """d/dx_direction of the modal basis at cell points, (n_modes, n_pts).

        The chain rule sums Ainv[k, direction] d/dxi_k from zero in k order,
        differentiating only along the reference directions k whose entry is
        nonzero, since the terms it skips would add zeros.
        """
        ref = self.to_reference(pts)
        out = None  # Ainv is invertible: every column has a nonzero entry
        for k in np.flatnonzero(self._Ainv[:, direction]):
            g = orthopoly.tabulate_grad(self.dim, degree, ref, k)
            if self._detA != 1.0:  # as in `tabulate`; so is a unit weight
                g /= np.sqrt(self._detA)
            if self._Ainv[k, direction] != 1.0:
                g *= self._Ainv[k, direction]
            if out is None:  # the sum starts at 0 + g, which clears signed zeros
                out = np.add(0.0, g, out=g)
            else:
                out += g
        return out

    def __repr__(self):
        return f"Cell({self.key}, dim={self.dim})"


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray


@cache.memo
def _reference_rule(dim, degree):
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if degree > MAX_QUAD_DEGREE:
        raise ValueError(
            f"unsupported degree {degree}: quadrature tables cap at {MAX_QUAD_DEGREE}"
        )
    n = degree // 2 + 1
    xg, wg = leggauss(n)
    if dim == 1:
        return xg[:, None], wg
    u = 0.5 * (xg + 1.0)
    wu = 0.5 * wg
    y1, o1 = roots_jacobi(n, 1, 0)
    v = 0.5 * (y1 + 1.0)
    wv = 0.25 * o1
    if dim == 2:
        U, V = np.meshgrid(u, v, indexing="ij")
        WU, WV = np.meshgrid(wu, wv, indexing="ij")
        pts = np.stack([(U * (1 - V)).ravel(), V.ravel()], axis=1)
        wts = (WU * WV).ravel()
        return pts, wts
    y2, o2 = roots_jacobi(n, 2, 0)
    w_ = 0.5 * (y2 + 1.0)
    ww = 0.125 * o2
    U, V, W = np.meshgrid(u, v, w_, indexing="ij")
    WU, WV, WW = np.meshgrid(wu, wv, ww, indexing="ij")
    pts = np.stack(
        [
            (U * (1 - V) * (1 - W)).ravel(),
            (V * (1 - W)).ravel(),
            W.ravel(),
        ],
        axis=1,
    )
    wts = (WU * WV * WW).ravel()
    return pts, wts


def quadrature(cell, degree):
    """Quadrature rule on `cell` exact for polynomials of total degree `degree`."""
    ref_pts, ref_wts = _reference_rule(cell.dim, degree)
    pts = cell.from_reference(ref_pts)
    scale = cell.measure / {1: 2.0, 2: 0.5, 3: 1.0 / 6.0}[cell.dim]
    return QuadratureRule(pts, ref_wts * scale)


def graded_interval_rule():
    """Composite Gauss rule on (-1,1), geometrically graded into both ends:
    16 nodes per panel, 18 levels, each panel 0.22 times the one before.

    Exact for polynomials up to degree 31 and accurate for endpoint-singular
    integrands of |1 -+ x|^gamma type.
    """
    xg, wg = leggauss(16)
    breaks = [0.0]
    h = 1.0
    for _ in range(18):
        h *= 0.22
        breaks.append(1.0 - h)
    breaks.append(1.0)
    pts, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        for lo, hi in ((a, b), (-b, -a)):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            pts.append(mid + half * xg)
            wts.append(half * wg)
    pts = np.concatenate(pts)
    wts = np.concatenate(wts)
    order = np.argsort(pts)
    return pts[order], wts[order]


@dataclass(frozen=True)
class Edge:
    index: int
    vertex_ids: tuple
    tangent: np.ndarray
    midpoint: np.ndarray
    cell: Cell = field(repr=False)

    def embed(self, s):
        """Map 1D edge coordinates (arc length, centered) to ambient points."""
        s = np.asarray(s, dtype=float).reshape(-1)
        return self.midpoint[None, :] + s[:, None] * self.tangent[None, :]


@dataclass(frozen=True)
class Face:
    index: int
    vertex_ids: tuple
    normal: np.ndarray
    origin: np.ndarray
    frame: np.ndarray  # (3, 2), orthonormal columns, frame[:,0] x frame[:,1] = normal
    cell: Cell = field(repr=False)

    def embed(self, xi):
        """Map planar face coordinates to ambient points."""
        xi = np.asarray(xi, dtype=float)
        return self.origin[None, :] + xi @ self.frame.T


def cell_edges(cell):
    """The edges of a triangle or tetrahedron cell, one per vertex pair in
    lexicographic order, each with its tangent from the lower to the higher
    vertex. Edge k's interval cell, centered and of the edge's length, is
    named `{cell.key}.edge{k}`; tables keyed by an edge see only its content,
    so cells with equal vertices still share them."""
    return _cell_edges(cell, cell.key)


@cache.memo
def _cell_edges(cell, key):
    # keyed by the display name too, so the edge cells carry the right one
    edges = []
    for k, ids in enumerate(itertools.combinations(range(cell.dim + 1), 2)):
        a, b = cell.vertices[list(ids)]
        length = float(np.linalg.norm(b - a))
        edges.append(Edge(index=k, vertex_ids=ids, tangent=(b - a) / length,
                          midpoint=0.5 * (a + b),
                          cell=Cell([[-0.5 * length], [0.5 * length]],
                                    f"{key}.edge{k}")))
    return tuple(edges)


def triangle_edges(cell):
    """The sides of a triangle cell in counterclockwise order, as
    (Edge, ccw_sign): the edges are `cell_edges(cell)`'s, and ccw_sign is +1
    where the edge's tangent runs counterclockwise."""
    v = cell.vertices
    d1, d2 = v[1] - v[0], v[2] - v[0]
    ccw = (0, 1), (1, 2), (2, 0)
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        ccw = (0, 2), (2, 1), (1, 0)
    edges = {e.vertex_ids: e for e in cell_edges(cell)}
    return tuple((edges[min(a, b), max(a, b)], 1 if a < b else -1)
                 for a, b in ccw)


def tet_faces(cell):
    """The four outward-oriented faces of a tetrahedron cell, face k opposite
    vertex k, each with its congruence chart into the plane. The face cells
    are named after `cell`, as `cell_edges` names its edge cells."""
    return _tet_faces(cell, cell.key)


@cache.memo
def _tet_faces(cell, key):
    vertices = cell.vertices
    centroid = vertices.mean(axis=0)
    faces = []
    for k in range(4):
        ids = tuple(i for i in range(4) if i != k)
        v = vertices[list(ids)]
        n = np.cross(v[1] - v[0], v[2] - v[0])
        n /= np.linalg.norm(n)
        if np.dot(n, v[0] - centroid) < 0:
            ids = (ids[0], ids[2], ids[1])
            v = vertices[list(ids)]
            n = -n
        e1 = v[1] - v[0]
        e1 /= np.linalg.norm(e1)
        e2 = v[2] - v[0] - np.dot(v[2] - v[0], e1) * e1
        e2 /= np.linalg.norm(e2)
        frame = np.stack([e1, e2], axis=1)
        planar = (v - v[0]) @ frame
        faces.append(Face(index=k, vertex_ids=ids, normal=n,
                          origin=v[0].copy(), frame=frame,
                          cell=Cell(planar, f"{key}.face{k}")))
    return tuple(faces)


_REFERENCE_CELLS = {
    1: ([[-1.0], [1.0]], "edge"),
    2: ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "tri"),
    3: ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "tet"),
}


class ReferenceCell:
    """The reference simplex `cell` of one dimension, with its angle data.

    dim 3: unit tetrahedron; dim 2: unit right triangle; dim 1: (-1, 1).
    """

    def __init__(self, dim):
        if dim not in _REFERENCE_CELLS:
            raise ValueError(f"unsupported dimension {dim}")
        self.cell = Cell(*_REFERENCE_CELLS[dim])

    @property
    def max_angle(self):
        """The largest interior angle of the triangle or of the
        tetrahedron's faces, in radians; 0 on the interval."""
        angles = [0.0]
        for v in itertools.combinations(self.cell.vertices, 3):
            for i in range(3):
                a, b = v[(i + 1) % 3] - v[i], v[(i + 2) % 3] - v[i]
                cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                angles.append(float(np.arccos(np.clip(cos, -1, 1))))
        return max(angles)

    @property
    def regularity_index(self):
        """pi / (maximal interior angle); the 2D study range for dual orders."""
        return np.pi / self.max_angle


@cache.memo
def make_reference_cell(dim):
    return ReferenceCell(dim)
