from itertools import pairwise

import numpy as np
import pytest
import sympy as sp

import oracles
from exseq import calculus as ca
from exseq import fields as fl
from exseq import poincare as pc
from exseq import polyspace as ps
from exseq import projectors as pj
from exseq import sobolev as sb
from exseq import studies as st
from exseq.refsimplex import make_reference_cell, quadrature, tet_faces


def _project_scalar(cell, degree, fn, quad_degree=None):
    q = quadrature(cell, quad_degree or 2 * degree + 2)
    V = cell.tabulate(degree, q.points)
    return (V * q.weights) @ fn(q.points), q


def _residual(name, source, target):
    """diff_op's relative residual of the image of `source` expanded in
    `target`."""
    vd = ca.DERIVATIVES[name].value_dim(source.cell.dim)
    return ca._expand_in(target, ca.diff_rows(name, source), source.cell, vd,
                         source.degree)[1]


def test_grad_of_xyz(rc3):
    W = ps.build_space(rc3, "h1", 2)
    Q = ps.build_space(rc3, "hcurl", 2)
    g = ca.diff_op("grad", W, Q)
    slots, q = _project_scalar(rc3, 3, lambda x: x[:, 0] * x[:, 1] * x[:, 2])
    coords = slots @ W.basis.T
    vals = Q.evaluate((coords @ g) @ Q.basis, q.points)
    exact = np.stack(
        [q.points[:, 1] * q.points[:, 2], q.points[:, 0] * q.points[:, 2],
         q.points[:, 0] * q.points[:, 1]],
        axis=1,
    )
    assert np.abs(vals - exact).max() < 1e-13
    assert _residual("grad", W, Q) < 1e-11


def test_curl_and_div_hand_examples(rc3):
    Q0 = ps.build_space(rc3, "hcurl", 0)
    V0 = ps.build_space(rc3, "hdiv", 0)
    c = ca.diff_op("curl3d", Q0, V0)
    q = quadrature(rc3, 6)
    V1 = rc3.tabulate(1, q.points)
    slots = np.concatenate(
        [(V1 * q.weights) @ (-q.points[:, 1]), (V1 * q.weights) @ q.points[:, 0],
         np.zeros(V1.shape[0])]
    )
    coords = slots @ Q0.basis.T
    vals = V0.evaluate((coords @ c) @ V0.basis, q.points)
    assert np.abs(vals - np.array([0.0, 0.0, 2.0])).max() < 1e-13

    V1s = ps.build_space(rc3, "hdiv", 1)
    L1 = ps.build_space(rc3, "l2", 1)
    d = ca.diff_op("div", V1s, L1)
    V2 = rc3.tabulate(2, q.points)
    slots = np.concatenate([(V2 * q.weights) @ q.points[:, i] for i in range(3)])
    coords = slots @ V1s.basis.T
    vals = L1.evaluate((coords @ d) @ L1.basis, q.points)
    assert np.abs(vals - 3.0).max() < 1e-13


def test_image_embedding_guard(rc3):
    W = ps.build_space(rc3, "h1", 3)
    Qsmall = ps.build_space(rc3, "hcurl", 1)
    with pytest.raises(ValueError, match="does not lie in target"):
        ca.diff_op("grad", W, Qsmall)


def test_complex_property(rc3, rc2):
    for p in range(0, 11):
        assert ca.complex_property_residual(rc3, rc2, p) <= 1e-12


def test_integration_by_parts(rc3, rng):
    for p in (1, 3, 5):
        assert ca.integration_by_parts_residual(rc3, p, rng) < 1e-10


def test_stokes_2d(rc2, rng):
    for p in (1, 3, 5):
        assert ca.stokes_2d_residual(rc2, p, rng) < 1e-10


def test_surf_curl_identity(rc3, rng):
    # n_f . curl u = curl_f Pi_tau u for edge-element fields
    p = 3
    Q = ps.build_space(rc3, "hcurl", p)
    V = ps.build_space(rc3, "hdiv", p)
    cmat = ca.diff_op("curl3d", Q, V)
    for face in tet_faces(rc3):
        fcell = face.cell
        scal = ps.scalar_space(fcell, p + 1)
        sc = oracles.trace_op("surf_curl", Q, face, scal)
        slots = Q.random_elements(1, rng)[0]
        coords = Q.basis @ slots
        q = quadrature(fcell, 2 * p + 4)
        lhs = scal.evaluate((coords @ sc) @ scal.basis, q.points)
        curl_slots = (coords @ cmat) @ V.basis
        rhs = V.evaluate(curl_slots, face.embed(q.points)) @ face.normal
        assert np.abs(lhs - rhs).max() < 1e-10


def test_surf_curl_of_gradient_vanishes(rc3, rng):
    p = 3
    W = ps.build_space(rc3, "h1", p)
    Q = ps.build_space(rc3, "hcurl", p)
    g = ca.diff_op("grad", W, Q)
    slots = W.random_elements(1, rng)[0]
    grad_slots = ((W.basis @ slots) @ g) @ Q.basis
    for face in tet_faces(rc3):
        scal = ps.scalar_space(face.cell, p + 1)
        sc = oracles.trace_op("surf_curl", Q, face, scal)
        out = (Q.basis @ grad_slots) @ sc
        assert np.abs(out).max() < 1e-10


def test_trace_target_cell_matched_by_content(rc2, rc3):
    # faces 1-3 and the 2D reference cell have equal vertices, so a space
    # built on "tri" lives on face 1 too: the cell's name must not matter
    W = ps.build_space(rc3, "h1", 2)
    face = tet_faces(rc3)[1]
    target = ps.build_space(rc2, "h1", 2)
    assert target.cell.key != face.cell.key
    assert oracles.trace_op("restrict", W, face, target).shape[0] == W.dim
    with pytest.raises(ValueError):
        oracles.trace_op("restrict", W, tet_faces(rc3)[0], target)


def test_gamma_tau_is_rotated_tangential_trace(rc3, rng):
    p = 2
    Q = ps.build_space(rc3, "hcurl", p)
    slots = Q.random_elements(1, rng)[0]
    for face in tet_faces(rc3):
        q = quadrature(face.cell, 2 * p + 4)
        amb = face.embed(q.points)
        vals = Q.evaluate(slots, amb)
        tang = vals @ face.frame
        vec2 = ps.vector_space(face.cell, p + 1, 2)
        gt = oracles.trace_op("gamma_tau", Q, face, vec2)
        gvals = vec2.evaluate((Q.basis @ slots) @ gt @ vec2.basis, q.points)
        expect = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
        assert np.abs(gvals - expect).max() < 1e-11
        # gamma_tau u = n x u in ambient coordinates
        amb_gt = gvals @ face.frame.T
        nxu = np.cross(np.broadcast_to(face.normal, vals.shape), vals)
        assert np.abs(amb_gt - nxu).max() < 1e-11


def test_tangential_trace_of_constant_field(rc3):
    # Pi_tau of a constant field is its in-plane part
    p = 0
    Q = ps.build_space(rc3, "hcurl", p)
    const = np.array([0.3, -0.2, 0.5])
    q = quadrature(rc3, 4)
    V = rc3.tabulate(1, q.points)
    slots = np.concatenate([(V * q.weights) @ np.full(len(q.weights), c)
                            for c in const])
    for face in tet_faces(rc3):
        q2 = quadrature(face.cell, 4)
        vals = ps.vector_space(rc3, 1, 3).evaluate(slots, face.embed(q2.points))
        tang_amb = (vals @ face.frame) @ face.frame.T
        expect = const - np.dot(const, face.normal) * face.normal
        assert np.abs(tang_amb - expect).max() < 1e-12


def test_exact_sequences_all_p(rc3, rc2, rc1):
    for p in range(0, 9):
        rep = ca.check_exact_sequence(p, rc3, rc2, rc1)
        assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


def test_kernel_of_grad_is_constants(rc3, rc2, rc1):
    rep = ca.check_exact_sequence(2, rc3, rc2, rc1)
    kc = [c for c in rep["checks"] if c["label"] == "3d.grad.kernel"][0]
    assert kc["kernel"] == 1


def test_bubble_sequence_dimension_identity(rc3, rc2, rc1):
    for p in (3, 5):
        rep = ca.check_exact_sequence(p, rc3, rc2, rc1)
        split = [c for c in rep["checks"] if c["label"] == "3d.bubble.dim_split"][0]
        assert split["dim_bubble_hcurl"] == split["dim_grad"] + split["dim_curl"]
        s2 = [c for c in rep["checks"] if c["label"] == "2d.bubble.curl_eq_zero_mean"][0]
        assert s2["dim_curl"] == s2["dim_zero_mean"]


@pytest.mark.parametrize("dim", [3, 2])
def test_bubble_images_split_the_edge_bubbles(dim):
    # orthonormal rows; the curls drop exactly the bubbles' gradients, which
    # are as many as the H1 bubbles
    cell = make_reference_cell(dim).cell
    for p in range(7):
        grads, curls = ca.bubble_images(cell, 0, p), ca.bubble_images(cell, 1, p)
        for rows in (grads, curls):
            assert np.allclose(rows @ rows.T, np.eye(len(rows)), rtol=0, atol=1e-12)
        h1 = ps.build_space(cell, "h1_bubble", p).dim
        assert len(grads) == h1
        assert len(curls) == ps.build_space(cell, "hcurl_bubble", p).dim - h1
    assert ca.bubble_images(cell, 1, 3) is ca.bubble_images(cell, 1, 3)
    assert not curls.flags.writeable


def test_bubble_images_span_the_divergences(rc3):
    # div maps the face bubbles onto the zero-mean scalars
    for p in range(7):
        rows = ca.bubble_images(rc3, 2, p)
        divs = ca.diff_rows("div", ps.build_space(rc3, "hdiv_bubble", p))
        assert np.allclose(rows @ rows.T, np.eye(len(rows)), rtol=0, atol=1e-12)
        assert len(rows) == np.linalg.matrix_rank(divs) == rc3.n_modes(p) - 1
        assert ca.subspace_distance(divs, rows) < 1e-10


@pytest.mark.parametrize("dim,family,name", [
    (3, "grad", "grad"), (3, "curl", "curl3d"), (3, "div", "div"),
    (2, "grad", "grad"), (2, "curl", "curl2d_vector"), (2, "div", "div"),
    (1, "grad", "grad"), (2, "curl2d_scalar", "curl2d_scalar"),
])
def test_derivative_table_pairs_field_and_slots(dim, family, name, rng):
    # the field side of each entry, applied to a polynomial field, equals the
    # slot side evaluated at the same points
    assert ca.derivative_name(family, dim) == name
    cell = make_reference_cell(dim).cell
    entry = ca.DERIVATIVES[name]
    space = ps.vector_space(cell, 4, entry.C[dim].shape[2])
    slots = space.random_elements(1, rng)[0]
    q = quadrature(cell, 8)
    fv = entry.field(fl.polynomial_fields()("u", space, slots))(q.points)
    image = ps.vector_space(cell, 4, entry.value_dim(dim))
    pv = image.evaluate(ca.diff_slots(name, space, slots), q.points)
    if dim == 1:
        # grad on an interval is a 1-vector field: (n, 1), never (n,)
        assert fv.shape == (len(q.weights), 1)
    assert np.abs(fv - pv.reshape(fv.shape)).max() <= 1e-10 * np.abs(pv).max()


@pytest.mark.parametrize("dim,first,then", [
    (dim, first, then) for dim, names in ca.COMPLEX.items()
    for first, then in pairwise(names)] + [(2, "curl2d_scalar", "div")])
def test_derivative_tensors_square_to_zero(dim, first, then):
    # then(first(u))_m = sum A[m, j, i, n] d_j d_i u_n vanishes for every u
    # exactly when A is antisymmetric in (i, j); the same A, read as the
    # Koszul contractions kappa_w kappa_w, vanishes then too
    A = np.einsum("mjc,cin->mjin", ca.DERIVATIVES[then].C[dim],
                  ca.DERIVATIVES[first].C[dim])
    assert np.abs(A + A.transpose(0, 2, 1, 3)).max() == 0.0


# the (cell dimension, value dimension) of each derivative's sources
_SOURCES = {"grad": {(1, 1), (2, 1), (3, 1)}, "curl3d": {(3, 3)},
            "curl2d_scalar": {(2, 1)}, "curl2d_vector": {(2, 2)},
            "div": {(2, 2), (3, 3)}}


@pytest.mark.parametrize("name", ca.DERIVATIVES)
def test_diff_op_rejects_a_wrong_source(name):
    for dim in (1, 2, 3):
        cell = make_reference_cell(dim).cell
        for vd in (1, 2, 3):
            source = ps.vector_space(cell, 1, vd)
            if (dim, vd) in _SOURCES[name]:
                image = ps.vector_space(cell, 1, ca.DERIVATIVES[name].value_dim(dim))
                ca.diff_op(name, source, image)
                assert _residual(name, source, image) < 1e-12
            else:
                with pytest.raises(ValueError, match="needs a source"):
                    ca.diff_op(name, source, source)


@pytest.mark.parametrize("name", ca.DERIVATIVES)
def test_derivative_rows_and_field_reject_a_wrong_source(name, rng):
    # a source the tensor does not read is refused, not differentiated in
    # its leading components
    entry = ca.DERIVATIVES[name]
    for dim in (1, 2, 3):
        cell = make_reference_cell(dim).cell
        for vd in (1, 2, 3):
            if (dim, vd) in _SOURCES[name]:
                continue
            source = ps.vector_space(cell, 2, vd)
            u = fl.polynomial_fields()("u", source, source.random_elements(1, rng)[0])
            with pytest.raises(ValueError, match="needs a source"):
                ca.diff_rows(name, source)
            with pytest.raises(ValueError, match="needs a source"):
                entry.field(u)


def test_deriv_alpha_second_order_jet(rc3):
    x, y, z = sp.symbols("x y z")
    f = oracles.from_sympy("quartic", x**2 * y * z + y**3 - x * z**2, 3)
    cell, alpha = rc3, (1, 0, 1)
    q = quadrature(cell, 10)
    # a member of the degree-4 space: its L2 pairings are its coefficients
    slots = sb.mode_pairings(cell.tabulate(4, q.points), q.weights,
                             f(q.points))[0]
    vals = ps.scalar_space(cell, 4).evaluate(
        slots @ ps.deriv_alpha(cell, 4, alpha).T, q.points)
    exact = f.jet(q.points, alpha)
    assert np.abs(vals - exact).max() <= 1e-10 * np.abs(exact).max()


# the complex table against the spaces, inverses and chains it describes


@pytest.mark.parametrize("operator", ca.OPERATORS)
def test_operator_slot_value_dims(operator):
    dim, slot = ca.OPERATORS[operator]
    vd = ca.slot_value_dim(dim, slot)
    kind = ("h1", "hcurl", "hdiv")[slot] if slot < dim else "l2"
    assert pj.ProjectorPlan(operator, 1).target.value_dim == vd
    assert ps.build_space(make_reference_cell(dim).cell, kind, 1).value_dim == vd


def test_right_inverse_shapes_follow_the_table():
    kinds = [op for op, (dim, slot) in ca.OPERATORS.items()
             if dim > 1 and slot < dim]
    assert kinds == ["grad3d", "curl3d", "div3d", "grad2d", "curl2d"]
    for kind in kinds:
        dim, slot = ca.OPERATORS[kind]
        rc = make_reference_cell(dim).cell
        vd_in, vd_out = (ca.slot_value_dim(dim, k) for k in (slot + 1, slot))
        R = pc.regularized_inverse(rc, kind).matrix(2)
        assert R.shape == (vd_in * rc.n_modes(2),
                           vd_out * rc.n_modes(3))
    for op in ("l2_3d", "l2_2d", "grad1d"):
        with pytest.raises(ValueError, match="unknown kind"):
            pc.RegularizedInverse(make_reference_cell(ca.OPERATORS[op][0]).cell, op)


def test_commuting_chains_follow_the_table():
    fields = {op: st.fields_for(op, "entire")[:1] for op in ca.OPERATORS}
    plans = [pj.ProjectorPlan(op, 1) for op in ca.OPERATORS]
    rows = pj.check_commuting(1, fields, plans)
    assert [r["identity"] for r in rows] == [
        "grad_chain_3d", "curl_chain_3d", "div_chain_3d", "grad_chain_2d",
        "curl_chain_2d"]
    assert max(r["rel_residual"] for r in rows) <= 1e-9
