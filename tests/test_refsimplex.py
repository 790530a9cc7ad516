import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from exseq import refsimplex as rs


def test_reference_measures(rc3, rc2, rc1):
    assert rc3.measure == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert rc2.measure == pytest.approx(0.5, rel=1e-14)
    assert rc1.measure == pytest.approx(2.0, rel=1e-14)


def test_default_vertices(rc3, rc2, rc1):
    assert np.allclose(
        rc3.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert np.allclose(rc2.vertices, [[0, 0], [1, 0], [0, 1]])
    assert np.allclose(rc1.vertices, [[-1], [1]])


def test_triangle_regularity_index():
    assert rs.make_reference_cell(2).max_angle == pytest.approx(np.pi / 2)
    assert rs.make_reference_cell(2).regularity_index == pytest.approx(2.0)


def test_face_angle_hypothesis():
    # every interior angle of every face below 2*pi/3
    assert rs.make_reference_cell(3).max_angle < 2 * np.pi / 3


def test_face_normals_outward_unit(rc3):
    centroid = rc3.vertices.mean(axis=0)
    for face in rs.tet_faces(rc3):
        assert np.linalg.norm(face.normal) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(face.normal, face.origin - centroid) > 0


def test_face_chart_is_congruence(rc3):
    for face in rs.tet_faces(rc3):
        J = face.frame
        assert np.allclose(J.T @ J, np.eye(2), atol=1e-14)
        # chart normal equals the face normal (right-hand rule)
        assert np.allclose(np.cross(J[:, 0], J[:, 1]), face.normal, atol=1e-14)
        # planar vertices reproduce the ambient ones
        verts = rc3.vertices[list(face.vertex_ids)]
        assert np.allclose(face.embed(face.cell.vertices), verts, atol=1e-14)


def test_bottom_face_chart_matches_reference_triangle(rc3):
    # the z=0 face is congruent to the unit right triangle
    for face in rs.tet_faces(rc3):
        if 3 not in face.vertex_ids:
            area = face.cell.measure
            assert area == pytest.approx(0.5, rel=1e-14)


def test_pulled_back_edge_tangents_match(rc3):
    # 2D tangents induced by the chart equal the 3D ones mapped through it
    for face in rs.tet_faces(rc3):
        for ledge, _ in rs.triangle_edges(face.cell):
            t3 = face.frame @ ledge.tangent
            found = False
            for edge in rs.cell_edges(rc3):
                if np.allclose(t3, edge.tangent, atol=1e-13) or np.allclose(
                    t3, -edge.tangent, atol=1e-13
                ):
                    found = True
            assert found


def test_cell_edges_follow_the_vertex_pairs(rc3, rc2):
    for cell, n in ((rc2, 3), (rc3, 4)):
        edges = rs.cell_edges(cell)
        assert [e.vertex_ids for e in edges] == [
            (a, b) for a in range(n) for b in range(a + 1, n)]
        assert [e.index for e in edges] == list(range(len(edges)))
        assert [e.cell.key for e in edges] == [
            f"{cell.key}.edge{k}" for k in range(len(edges))]


def test_triangle_edges_are_the_cell_edges(rc3, rc2):
    # one edge list per triangle: its sides are cell_edges' own objects
    for cell in [rc2] + [f.cell for f in rs.tet_faces(rc3)]:
        edges = rs.cell_edges(cell)
        sides = [side for side, _ in rs.triangle_edges(cell)]
        assert len(sides) == len(edges) == 3
        assert all(any(side is e for e in edges) for side in sides)
        assert len({id(side) for side in sides}) == 3


def test_triangle_sides_have_outward_unit_normals(rc3, rc2):
    # each side's normal has unit length, is orthogonal to the side and
    # points away from the triangle's centroid
    for cell in [rc2] + [f.cell for f in rs.tet_faces(rc3)]:
        for side, n in rs.triangle_edges(cell):
            assert np.linalg.norm(n) == pytest.approx(1.0, rel=1e-14)
            assert abs(n @ side.tangent) <= 1e-14
            assert n @ (side.midpoint - cell.centroid) > 0


def test_quadrature_basic_oracles(rc3, rc2):
    q = rs.quadrature(rc3, 1)
    assert q.weights.sum() == pytest.approx(1 / 6, rel=1e-14)
    assert (q.weights * q.points[:, 0]).sum() == pytest.approx(1 / 24, rel=1e-13)
    q2 = rs.quadrature(rc2, 2)
    assert (q2.weights * q2.points[:, 0] ** 2).sum() == pytest.approx(
        1 / 12, rel=1e-13
    )


@pytest.mark.parametrize("name,dim,degree", [("tet", 3, 10), ("tri", 2, 14),
                                             ("edge", 1, 19)])
def test_quadrature_exactness_exhaustive(name, dim, degree):
    from itertools import product

    rc = rs.make_reference_cell(dim).cell
    q = rs.quadrature(rc, degree)
    for alpha in product(range(degree + 1), repeat=dim):
        if sum(alpha) > degree:
            continue
        val = (q.weights * np.prod(q.points ** np.array(alpha, float), axis=1)).sum()
        exact = float(oracles.monomial_integral(name, alpha))
        if exact == 0.0:
            assert abs(val) < 1e-15
        else:
            assert abs(val - exact) <= 1e-12 * abs(exact)


@settings(max_examples=25, deadline=None)
@given(
    alpha=hst.tuples(
        hst.integers(0, 13), hst.integers(0, 13), hst.integers(0, 13)
    )
)
def test_quadrature_exactness_high_degree(alpha):
    rc = rs.make_reference_cell(3).cell
    degree = min(sum(alpha), 39)
    q = rs.quadrature(rc, max(degree, 0))
    if sum(alpha) > degree:
        return
    val = (q.weights * np.prod(q.points ** np.array(alpha, float), axis=1)).sum()
    exact = float(oracles.monomial_integral("tet", alpha))
    assert abs(val - exact) <= 1e-12 * abs(exact)


def test_quadrature_rejects_beyond_cap(rc3):
    with pytest.raises(ValueError, match="unsupported degree"):
        rs.quadrature(rc3, rs.MAX_QUAD_DEGREE + 1)


def test_edge_orientation_lowest_vertex_first(rc3):
    for edge in rs.cell_edges(rc3):
        a, b = edge.vertex_ids
        assert a < b
        expect = rc3.vertices[b] - rc3.vertices[a]
        assert np.allclose(edge.tangent, expect / np.linalg.norm(expect))


def test_tabulated_rows_do_not_depend_on_degree(rc3, rc2, rc1):
    # modes nest by degree: a degree-P table is the leading rows of the
    # degree-(P+2) table, bit for bit, for the values and the gradient in
    # every direction
    rng = np.random.default_rng(7)
    for cell in (rc3, rc2, rs.tet_faces(rc3)[2].cell, rs.tet_faces(rc3)[0].cell,
                 rc1):
        pts = rs.quadrature(cell, 9).points
        pts = np.vstack([pts, cell.vertices, cell.centroid[None, :]])
        pts = np.vstack([pts, pts[rng.permutation(len(pts))[:5]] * 0.9])
        for P in (0, 3, 8):
            small = cell.tabulate(P, pts)
            assert np.array_equal(small, cell.tabulate(P + 2, pts)[: len(small)])
            for l in range(cell.dim):
                small = cell.tabulate_grad(P, pts, l)
                big = cell.tabulate_grad(P + 2, pts, l)
                assert np.array_equal(small, big[: len(small)])
