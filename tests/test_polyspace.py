import tracemalloc

import numpy as np
import pytest

import oracles
from exseq import cache
from exseq import calculus as ca
from exseq import orthopoly
from exseq import polyspace as ps
from exseq import sobolev as sb
from exseq.refsimplex import (Cell, cell_edges, make_reference_cell,
                              quadrature, tet_faces, triangle_edges)


def test_closed_form_dimensions(rc3):
    # the H1 space at complex degree 2 has polynomial degree 3 and dim 20
    assert ps.build_space(rc3, "h1", 2).dim == 20
    assert ps.build_space(rc3, "hdiv", 1).dim == 15
    assert ps.build_space(rc3, "hcurl", 0).dim == 6
    for p in range(0, 9):
        assert ps.build_space(rc3, "h1", p).dim == ps.h1_dimension(p, 3)
        assert ps.build_space(rc3, "hdiv", p).dim == ps.hdiv_dimension(p)


def test_2d_nedelec_dimension(rc2):
    assert ps.build_space(rc2, "hcurl", 0).dim == 3
    for p in range(0, 7):
        assert ps.build_space(rc2, "hcurl", p).dim == (p + 1) * (p + 3)


def test_condition_count_identity():
    for p in range(0, 11):
        assert ps.h1_condition_count(p) == ps.h1_dimension(p, 3)
        bubbles = p * (p - 1) * (p - 2) // 6
        face = 4 * p * (p - 1) // 2
        assert ps.h1_condition_count(p) == bubbles + face + 6 * p + 4


def test_hdiv_condition_count(rc3):
    for p in range(0, 7):
        interior = ps.build_space(rc3, "hdiv_bubble", p).dim
        faces = 4 * (p + 1) * (p + 2) // 2
        assert interior + faces == ps.hdiv_dimension(p)


def test_basis_orthonormal_and_full_rank(rc3, rc2):
    for rc, kinds in ((rc3, ("h1", "hcurl", "hdiv", "hcurl_bubble")),
                      (rc2, ("hcurl", "h1_bubble"))):
        for kind in kinds:
            sp = ps.build_space(rc, kind, 3)
            if sp.dim:
                G = sp.basis @ sp.basis.T
                assert np.abs(G - np.eye(sp.dim)).max() < 1e-11


def test_bubble_spaces_annihilate_traces(rc3, rng):
    p = 3
    deg = p + 1
    cases = [
        ("h1_bubble", "restrict", 1),
        ("hcurl_bubble", "Pi_tau", 3),
        ("hdiv_bubble", "normal", 3),
    ]
    for kind, trace, vd in cases:
        sp = ps.build_space(rc3, kind, p)
        for face in tet_faces(rc3):
            q = quadrature(face.cell, 2 * deg)
            amb = face.embed(q.points)
            vals = sp.evaluate(sp.basis, amb)
            if trace == "restrict":
                assert np.abs(vals).max() < 1e-10
            elif trace == "Pi_tau":
                tang = vals @ face.frame
                assert np.abs(tang).max() < 1e-10
            else:
                nr = vals @ face.normal
                assert np.abs(nr).max() < 1e-10


def test_zero_mean_spaces(rc3, rc2):
    # the top slot's zero-mean scalars, one dimension below P_p
    for rc in (rc3, rc2):
        zm = ps.build_space(rc, "l2_zero_mean", 2)
        assert zm.dim == rc.n_modes(2) - 1
        means = zm.basis @ ps.mean_row(rc, 1, 2).T
        assert np.abs(means).max() < 1e-12


def test_triangle_bubble_dims(rc2):
    assert ps.build_space(rc2, "h1_bubble", 1).dim == 0
    assert ps.build_space(rc2, "h1_bubble", 2).dim == 1
    for p in range(0, 7):
        assert ps.build_space(rc2, "hcurl_bubble", p).dim == p * (p + 1)


def test_3d_bubble_dims(rc3):
    assert ps.build_space(rc3, "hdiv_bubble", 0).dim == 0
    for p in range(0, 7):
        assert ps.build_space(rc3, "h1_bubble", p).dim == max(
            p * (p - 1) * (p - 2) // 6, 0
        )
        assert ps.build_space(rc3, "hcurl_bubble", p).dim == p * (p + 1) * (p - 1) // 2
        assert ps.build_space(rc3, "hdiv_bubble", p).dim == p * (p + 1) * (p + 2) // 2


def test_trace_space_dimensions(rc3):
    W3 = ps.build_space(rc3, "h1", 2)  # polynomial degree 3
    tr = oracles.trace_space(W3, tet_faces(rc3)[0], "h1")
    assert tr.dim == 10
    V1 = ps.build_space(rc3, "hdiv", 1)
    trn = oracles.trace_space(V1, tet_faces(rc3)[1], "hdiv")
    assert trn.dim == 3
    Q0 = ps.build_space(rc3, "hcurl", 0)
    tre = oracles.trace_space(Q0, cell_edges(rc3)[0], "hcurl")
    assert tre.dim == 1


def test_face_tangential_trace_is_2d_nedelec(rc3, rc2):
    p = 2
    Q = ps.build_space(rc3, "hcurl", p)
    tr = oracles.trace_space(Q, tet_faces(rc3)[0], "hcurl")
    assert tr.dim == (p + 1) * (p + 3)
    # same span as the intrinsically-built edge elements on the planar face
    Q2 = ps.nedelec_space(tet_faces(rc3)[0].cell, p)
    assert Q2.dim == tr.dim
    assert ca.subspace_distance(tr.basis, Q2.basis) < 1e-10


def test_grad_orthogonal_subspace(rc3):
    # p = 4: the H1 bubbles of degree 5 are the first with more than one
    # element (none at p = 2). The edge bubbles orthogonal to the bubbles'
    # gradients are as many as the bubbles' curls, and their curls span
    # those of all edge bubbles
    p = 4
    full = ps.build_space(rc3, "hcurl_bubble", p)
    scalar = ps.build_space(rc3, "h1_bubble", p)
    grads = ca.bubble_images(rc3, 0, p)
    assert scalar.dim > 1 and len(grads) == scalar.dim
    perp = ps.subspace_from_constraints(full, grads)
    assert perp.dim == full.dim - scalar.dim
    assert np.abs(grads @ perp.basis.T).max() < 1e-10
    curls = ca.bubble_images(rc3, 1, p)
    assert len(curls) == perp.dim
    assert ca.subspace_distance(ca.diff_rows("curl3d", perp), curls) < 1e-10


def test_invalid_inputs(rc3):
    with pytest.raises(ValueError):
        ps.build_space(rc3, "h1", -1)
    with pytest.raises(ValueError):
        ps.build_space(rc3, "nope", 2)


def test_no_edge_family_on_intervals_nor_face_family_on_triangles(rc1, rc2):
    # on those cells the families would be the L2 slot, which "l2" builds
    for cell, kind in ((rc1, "hcurl"), (rc1, "hcurl_bubble"), (rc2, "hdiv"),
                       (rc2, "hdiv_bubble")):
        with pytest.raises(ValueError):
            ps.build_space(cell, kind, 2)


def test_random_elements_deterministic(rc3):
    sp = ps.build_space(rc3, "h1", 2)
    a = sp.random_elements(3, np.random.default_rng(5))
    b = sp.random_elements(3, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_cells_named_alike_get_distinct_matrices():
    a = Cell([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "T")
    b = Cell([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], "T")
    fresh = Cell([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], "T-fresh")
    for op in (ps.deriv_matrix, ps.coord_matrix):
        A, B = op(a, 3, 0), op(b, 3, 0)
        assert not np.allclose(A, B)
        assert np.array_equal(B, op(fresh, 3, 0))


def test_memoised_tables_are_read_only(rc3):
    D = ps.deriv_matrix(rc3, 2, 0)
    with pytest.raises(ValueError):
        D[0, 0] = 1.0
    sp = ps.build_space(rc3, "hcurl", 1)
    with pytest.raises(ValueError):
        sp.basis[0, 0] = 1.0
    # the Gram's lazily built tables are shared with every later caller too
    g = sb.gram(rc3, 2)
    g.half_inverse(np.ones((g.n, 1)), 1.0)  # builds the Cholesky factor of A1
    tables = [g.A1, g.A2, *g._first_data(), *g._second_data(), g._cho]
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 1.0


def test_memoised_bases_own_their_data(rc3, rc2):
    # the SVD helpers return owned copies of the rows they keep, so a
    # memoised basis does not pin the whole of the SVD's vt
    cache.clear()
    bases = [ps.build_space(cell, kind, p).basis
             for cell, kinds in ((rc3, ("hcurl", "hdiv", "hcurl_bubble",
                                        "hdiv_bubble")), (rc2, ("hcurl",)))
             for kind in kinds for p in (1, 3)]
    bases += [ca.bubble_images(rc3, slot, 3) for slot in (0, 1, 2)]
    assert all(b.base is None for b in bases)


def test_memo_rejects_arguments_without_content_key():
    with pytest.raises(TypeError):
        ps.deriv_matrix(object(), 1, 0)
    # package code takes a Cell: the wrapper around one has no content key
    with pytest.raises(TypeError):
        ps.build_space(make_reference_cell(3), "h1", 1)


def test_spaces_and_edges_bound_to_requested_cell(rc2, rc3):
    # face 1 of the tetrahedron and the triangle have equal vertices, so they
    # share the memoised basis, but each space and edge names its own cell
    face = tet_faces(rc3)[1].cell
    assert np.array_equal(face.vertices, rc2.vertices)
    cache.clear()
    tri_space = ps.build_space(rc2, "h1", 2)
    sp = ps.build_space(face, "h1", 2)
    assert sp.cell is face and sp.cell.key == "tet.face1"
    assert tri_space.cell.key == "tri"
    assert sp.basis is tri_space.basis
    triangle_edges(rc2)
    for ledge, _ in triangle_edges(face):
        assert ledge.cell.key.startswith("tet.face1.edge")


@pytest.mark.parametrize("block", [30, 300, ps._POINT_BLOCK])
def test_streamed_deriv_matrices_equal_one_shot_bitwise(block, rc3, rc2, rc1,
                                                        monkeypatch):
    # the gradient planes are built a direction and a block of points at a
    # time, differentiating only along the reference directions the chain
    # rule reads; the one-shot side differentiates along every reference
    # direction and applies the full chain rule. At degree 9 the tet has
    # 1,000 points and the triangles 100; face 0's chain rule is full, face
    # 1's and the reference triangle's the identity, the edges' a scale
    monkeypatch.setattr(ps, "_POINT_BLOCK", block)
    cells = (rc3, tet_faces(rc3)[0].cell, tet_faces(rc3)[1].cell, rc2,
             cell_edges(rc3)[3].cell, rc1)
    for cell in cells:
        q = quadrature(cell, 18)
        ref = cell.to_reference(q.points)
        g = np.stack([orthopoly.tabulate_grad(cell.dim, 9, ref, k)
                      for k in range(cell.dim)], axis=-1)
        g /= np.sqrt(cell._detA)
        G = np.einsum("mpk,kl->mpl", g, cell._Ainv)
        assert np.array_equal(cell.tabulate_grad(9, q.points), G)
        Vw = cell.tabulate(9, q.points) * q.weights
        one_shot = [Vw @ np.ascontiguousarray(G[:, :, i]).T
                    for i in range(cell.dim)]
        streamed = ps._deriv_matrices.__wrapped__(cell, 9)
        assert len(streamed) == cell.dim
        for a, b in zip(streamed, one_shot):
            assert np.array_equal(a, b)


def test_deriv_matrices_hold_one_gradient_plane(rc3):
    # the build holds the weighted values and one gradient plane, not the
    # three planes of a full gradient table
    cell, degree = rc3, 15
    table = cell.n_modes(degree) * len(quadrature(cell, 2 * degree).weights) * 8
    tracemalloc.start()
    try:
        ps._deriv_matrices.__wrapped__(cell, degree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * table


def test_coord_matrices_slice_the_higher_degree_table(rc3, rc2, rc1,
                                                     monkeypatch):
    # one tabulation per (cell, degree): the degree table is the leading rows
    # of the degree+1 table, bit for bit, because the modes are hierarchical
    degrees = []
    tabulate = Cell.tabulate
    monkeypatch.setattr(Cell, "tabulate", lambda self, degree, pts: (
        degrees.append(degree) or tabulate(self, degree, pts)))
    cache.clear()
    for i in range(3):
        ps.coord_matrix(rc3, 4, i)
    assert degrees == [5]
    monkeypatch.undo()
    for cell in (rc3, tet_faces(rc3)[0].cell, rc2, cell_edges(rc3)[3].cell,
                 rc1):
        for degree in (0, 3, 8):
            q = quadrature(cell, 2 * degree + 2)
            V1 = cell.tabulate(degree, q.points)
            V2 = cell.tabulate(degree + 1, q.points)
            assert np.array_equal(V2[: len(V1)], V1)
            for i in range(cell.dim):
                assert np.array_equal(
                    ps.coord_matrix(cell, degree, i),
                    (V2 * (q.weights * q.points[:, i])) @ V1.T)


def _frame_blocks(T, frame):
    # block (l, m) is frame[m, l] * T, assembled block by block
    n_in, n_out = frame.shape
    out = np.zeros((n_out * T.shape[0], n_in * T.shape[1]))
    for l in range(n_out):
        for m in range(n_in):
            out[l * T.shape[0]:(l + 1) * T.shape[0],
                m * T.shape[1]:(m + 1) * T.shape[1]] = frame[m, l] * T
    return out


def _triangles(rc2, rc3):
    # the triangle and the four face cells, each with its sides
    return [(cell, [side for side, _ in triangle_edges(cell)])
            for cell in [rc2] + [f.cell for f in tet_faces(rc3)]]


def test_trace_matrix_parts_are_frame_blocks_of_the_scalar_trace(rc2, rc3):
    deg = 3
    cases = [(rc3, f, "tangential", f.frame) for f in tet_faces(rc3)]
    cases += [(rc3, f, "normal", f.normal[:, None]) for f in tet_faces(rc3)]
    cases += [(rc3, e, "tangential", e.tangent[:, None]) for e in cell_edges(rc3)]
    cases += [(cell, e, "tangential", e.tangent[:, None])
              for cell, sides in _triangles(rc2, rc3) for e in sides]
    for cell, sub, part, frame in cases:
        T = ps.trace_matrix(cell, deg, sub, None)
        assert T.shape == (sub.cell.n_modes(deg), cell.n_modes(deg))
        assert np.array_equal(ps.trace_matrix(cell, deg, sub, part),
                              _frame_blocks(T, frame))


def test_boundary_traces_keep_leading_modes(rc2, rc3):
    deg = 4
    cases = [(rc3, tet_faces(rc3), part)
             for part in (None, "tangential", "normal")]
    cases += [(cell, sides, part) for cell, sides in _triangles(rc2, rc3)
              for part in (None, "tangential")]
    for cell, subs, part in cases:
        full = [ps.trace_matrix(cell, deg, sub, part) for sub in subs]
        assert np.array_equal(ps.boundary_traces(cell, deg, part),
                              np.vstack(full))
        for keep in range(deg + 1):
            assert np.array_equal(
                ps.boundary_traces(cell, deg, part, keep=keep),
                np.vstack([T[: sub.cell.n_modes(keep)]
                           for sub, T in zip(subs, full)]))


def test_triangle_and_interval_bubbles_are_trace_free(rc1, rc2, rc3):
    p = 4
    for cell, sides in _triangles(rc2, rc3):
        w = ps.build_space(cell, "h1_bubble", p)
        q = ps.build_space(cell, "hcurl_bubble", p)
        assert w.dim and q.dim
        for side in sides:
            amb = side.embed(quadrature(side.cell, 2 * (p + 2)).points)
            assert np.abs(w.evaluate(w.basis, amb)).max() < 1e-10
            assert np.abs(q.evaluate(q.basis, amb) @ side.tangent).max() < 1e-10
    w = ps.build_space(rc1, "h1_bubble", p)
    assert np.abs(w.evaluate(w.basis, rc1.vertices)).max() < 1e-12
    q = ps.build_space(rc1, "l2_zero_mean", p)
    rule = quadrature(rc1, 2 * p)
    means = q.evaluate(q.basis, rule.points) @ rule.weights
    assert q.dim == p and np.abs(means).max() < 1e-12


def test_tetrahedron_trace_free_kinds_from_the_cell_alone(rc3):
    # a tetrahedron finds its own faces: a fresh cell of the reference
    # vertices gives the reference cell's bases, each built afresh
    fresh = Cell(rc3.vertices.copy(), "fresh")
    for p in (1, 2, 3):
        for slot, kind in enumerate(("h1_bubble", "hcurl_bubble",
                                     "hdiv_bubble")):
            cache.clear()
            from_cell = ps.build_space(rc3, kind, p)
            images = ca.bubble_images(rc3, slot, p)
            cache.clear()
            from_fresh = ps.build_space(fresh, kind, p)
            assert from_cell.cell is rc3 and from_fresh.cell is fresh
            assert np.array_equal(from_cell.basis, from_fresh.basis)
            assert np.array_equal(images, ca.bubble_images(fresh, slot, p))
