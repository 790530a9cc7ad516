"""Regularized right inverses of grad, curl and div, and Helmholtz-type
splittings built only from them.

The operators average path integrals over a ball B interior to the cell with
a polynomial bump weight. For polynomial inputs everything is evaluated
exactly: the path parameter is integrated by Gauss quadrature of sufficient
order, the ball average reduces to closed-form bump moments via a finite
Taylor expansion, and compositions with the contraction x -> t x + (1-t) c
are exact modal projections. The bump is radial, so the expansion collapses
to powers of the modal Laplacian: each Taylor level costs a few products of
modal matrices, not one per multi-index. The bump is polynomial rather than
C-infinity: every identity checked here is algebraic and needs only
supp(theta) in B with unit mass; smoothness only enters the continuous
mapping bounds, which are out of numerical reach anyway.

The integrand is the Koszul contraction of the input v with w = x - a
(Costabel and McIntosh, Math. Z. 2010), read off the coefficient tensor C of
the inverted derivative in `calculus.DERIVATIVES`:
(kappa_w v)_c = sum_{k,i} C[k, i, c] v_k w_i.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import cache
from . import polyspace as ps
from .calculus import (COMPLEX, DERIVATIVES, OPERATORS, diff_slots, operator_at,
                       slot_value_dim)
from .refsimplex import quadrature


BUMP_POWER = 6  # m of the bump (1 - |x-c|^2/r^2)^m
RADIUS_FACTOR = 0.9  # the bump's radius over the cell's inradius


class RegularizedInverse:
    """Averaged path-integral right inverse on a cell.

    kind names the slot (OPERATORS) whose outgoing derivative is inverted,
    on a 2D or 3D cell: the inverse maps the next slot into it. The bump is
    (1 - |x-c|^2/r^2)^BUMP_POWER on the ball of radius
    `RADIUS_FACTOR * inradius` about the centroid, normalized to unit mass in
    closed form.
    """

    def __init__(self, cell, kind):
        dim, slot = OPERATORS.get(kind, (0, 0))
        if dim < 2 or slot == dim:  # neither on the interval nor from L2
            raise ValueError(f"unknown kind {kind!r}")
        if cell.dim != dim:
            raise ValueError(f"{kind} needs a {dim}D cell")
        self.cell = cell
        self.kind = kind
        self.derivative = COMPLEX[dim][slot]
        self.in_vdim = slot_value_dim(dim, slot + 1)
        self.out_vdim = slot_value_dim(dim, slot)
        self.center = self.cell.centroid
        self.radius = RADIUS_FACTOR * self.cell.inradius

    def matrix(self, degree):
        """Slot matrix (vd_in*nm_deg) -> (vd_out*nm_{deg+1}); rows act as
        out_slots = in_slots @ matrix."""
        return _build_matrix(self.cell, self.kind, degree, self.center, self.radius)

    def apply(self, space, slots):
        """Apply to an element given by slot coefficients of `space`.

        Returns (out_space, out_slots) with out_space a full polynomial space
        of the output value dimension at degree+1.
        """
        if space.value_dim != self.in_vdim:
            raise ValueError(f"{self.kind} expects value dimension "
                             f"{self.in_vdim}, got {space.value_dim}")
        out = np.asarray(slots) @ self.matrix(space.degree)
        return ps.vector_space(self.cell, space.degree + 1, self.out_vdim), out


def _laplacian_moment(dim, n, radius):
    """c_n, with sum_{|alpha|=2n} mu_alpha d^alpha / alpha! = c_n Laplacian^n
    for the centered moments mu_alpha of the unit-mass bump on the radius-r
    ball: c_n = r^2n / (4^n n! (dim/2 + BUMP_POWER + 1)_n)."""
    c = 1.0
    for k in range(n):
        c *= radius**2 / (4 * (k + 1) * (dim / 2 + BUMP_POWER + 1 + k))
    return c


@cache.memo
def _contractions(cell, degree, center):
    """Gauss nodes t_j on [0,1] and modal matrices of P -> P(t x + (1-t)c)."""
    n = degree + 2
    xt, wt = leggauss(n)
    t_nodes = 0.5 * (xt + 1.0)
    t_weights = 0.5 * wt
    q = quadrature(cell, 2 * degree)
    V = cell.tabulate(degree, q.points)
    mats = []
    for t in t_nodes:
        pts = t * q.points + (1.0 - t) * center[None, :]
        Vt = cell.tabulate(degree, pts)
        mats.append((V * q.weights) @ Vt.T)  # C[k, j] = <phi_j(contract), phi_k>
    return t_nodes, t_weights, mats


@cache.memo
def _build_matrix(cell, kind, degree, center, radius):
    dim, slot = OPERATORS[kind]
    C = DERIVATIVES[COMPLEX[dim][slot]].C[dim]
    nm = cell.n_modes(degree)
    nm1 = cell.n_modes(degree + 1)
    t_nodes, t_weights, C_t = _contractions(cell, degree, center)
    # shifted coordinate multiplication (x_i - c_i): degree -> degree+1
    pad = np.eye(nm, nm1)
    W = [ps.coord_matrix(cell, degree, i) - center[i] * pad.T for i in range(dim)]
    D = [ps.deriv_matrix(cell, degree, i) for i in range(dim)]
    lap = sum(Di @ Di for Di in D)

    # The ball average's Taylor levels L = |alpha|, by the radial collapse
    #   sum_{|alpha|=2n} mu_alpha d^alpha / alpha! = c_n Lap^n,
    #   sum_{|alpha|=2n+1} mu_{alpha+e_i} d^alpha / alpha!
    #       = 2(n+1) c_{n+1} Lap^n d_i,
    # each weighted by its level-summed contraction
    # C_hat[L] = sum_t w_t t^k (1-t)^L C_t on slot k.
    even = np.zeros((nm, nm))
    odd = np.zeros((nm, nm))
    lap_n = np.eye(nm)  # Lap^n
    for L in range(degree + 1):
        n = L // 2
        C_hat = sum(wt * t**slot * (1.0 - t) ** L * Ct
                    for t, wt, Ct in zip(t_nodes, t_weights, C_t))
        term = C_hat @ lap_n
        if L % 2 == 0:
            even += _laplacian_moment(dim, n, radius) * term
        else:
            odd += 2 * (n + 1) * _laplacian_moment(dim, n + 1, radius) * term
            lap_n = lap @ lap_n
    # the moments of even levels multiply x_i - c_i, those of odd levels e_i;
    # transposed to act on slots
    KW = [(W[i] @ even - pad.T @ (odd @ D[i])).T for i in range(dim)]

    # the Koszul contraction with w: block (k, c) of R is C[k, i, c] KW[i],
    # from the one nonzero C[k, i, c] of the block, if any
    return sum(np.kron(C[:, i], KW[i]) for i in range(dim))


# ---------------------------------------------------------------------------
# Helmholtz-type splittings


@cache.memo
def regularized_inverse(cell, kind):
    return RegularizedInverse(cell, kind)


def _helmholtz(cell, slot, space, slots):
    """Split u in a slot of the cell's complex as u = D psi + z: z from the
    right inverse of the derivative leaving the slot, psi from that of the
    derivative D entering it. Returns (psi_space, psi, z_space, z, residual)."""
    dim, deg = cell.dim, space.degree
    vd = slot_value_dim(dim, slot)
    out = regularized_inverse(cell, operator_at(dim, slot))
    z_space, z = out.apply(
        ps.vector_space(cell, deg, out.in_vdim),
        diff_slots(out.derivative, space, slots))
    deg1 = z_space.degree
    u_pad = ps.pad_slots(slots, cell, vd, deg, deg1)
    into = regularized_inverse(cell, operator_at(dim, slot - 1))
    psi_space, psi = into.apply(ps.vector_space(cell, deg1, vd), u_pad - z)
    lhs = ps.pad_slots(u_pad - z, cell, vd, deg1, psi_space.degree)
    resid_vec = lhs - diff_slots(into.derivative, psi_space, psi)
    scale = np.linalg.norm(slots) or 1.0
    resid = float(np.linalg.norm(resid_vec) / scale)
    return psi_space, psi, z_space, z, resid


def helmholtz_curl(cell, space, slots):
    """Split u = grad(phi) + z with z built from the curl right inverse.

    u is a 3-vector (or 2-vector) polynomial given by slot coefficients.
    Returns (phi_space, phi, z_space, z, residual)."""
    return _helmholtz(cell, 1, space, slots)


def helmholtz_div(cell, space, slots):
    """Split u = curl(psi) + z with z from the div right inverse (3D)."""
    return _helmholtz(cell, 2, space, slots)
