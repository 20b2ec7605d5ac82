"""Riemannian and (alpha,beta) structural machinery.

This module computes Christoffel symbols, the curvature tensor of the
Riemannian part, the covariant-derivative tensor family of the 1-form
(r_ij, s_ij, q_ij, t_ij and their contractions), the structural spray of an
(alpha,beta)-metric, and the closed-form Randers Ricci curvature.  It is an
independent computation path: everything is assembled from explicit index
formulas over coordinate jets of a_ij(x) and b_i(x), never from the generic
engine, so agreement between the two paths is a real cross-check.

Curvature conventions.  With

    R^i_jkl = d_k Gamma^i_jl - d_l Gamma^i_jk
              + Gamma^i_km Gamma^m_jl - Gamma^i_lm Gamma^m_jk

a metric of constant sectional curvature K satisfies
R_ijkl = K (a_ik a_jl - a_il a_jk), and Ric_ij = R^k_ikj is positive on the
round sphere.  The sign with which the lowered curvature tensor enters the
covariant-derivative identities is not fixed by these choices alone; it is
calibrated once per process on a reference instance (see
:func:`curvature_term_sign`) and surfaced in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateValue, DomainError, NotPositiveDefinite
from .exprlang import parse, shared_tape
from .jets import Jet, get_context
from .linalg import invert, is_positive_definite

SPRAY_FLOOR = 1e-12


def _as_ast(expr):
    return parse(expr) if isinstance(expr, str) else expr


def matrix_jets(exprs, x, order=3):
    """Evaluate a symmetric expression matrix as jets at x.

    Only the upper triangle is evaluated; the matrix is mirrored, so the
    result is symmetric by construction.  The entries are replayed from
    one shared tape (``exprlang.shared_tape``), with the bits and errors
    of ``eval_jet``.
    """
    n = len(exprs)
    ctx = get_context(n, order)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    tape = shared_tape([_as_ast(exprs[i][j]) for i, j in pairs])
    jets = [[None] * n for _ in range(n)]
    for (i, j), coeffs in zip(pairs, tape.jets(ctx, x)):
        jets[i][j] = jets[j][i] = Jet(ctx, coeffs)
    return jets


def covector_jets(exprs, x, order=3):
    """Evaluate a covector of expressions as jets at x, from one shared
    tape."""
    ctx = get_context(len(exprs), order)
    tape = shared_tape([_as_ast(e) for e in exprs])
    return [Jet(ctx, coeffs) for coeffs in tape.jets(ctx, x)]


@dataclass
class RiemannData:
    """Levi-Civita data of a_ij at one point."""

    x: tuple
    a: np.ndarray           # a_ij
    a_inv: np.ndarray       # a^ij
    da: np.ndarray          # da[k,i,j] = d_k a_ij
    dda: np.ndarray         # dda[l,k,i,j] = d_l d_k a_ij
    gamma: np.ndarray       # gamma[i,j,k] = Gamma^i_jk
    dgamma: np.ndarray      # dgamma[m,i,j,k] = d_m Gamma^i_jk
    riemann4: np.ndarray    # R^i_jkl
    riemann_low: np.ndarray # R_ijkl = a_im R^m_jkl
    ricci_alpha: np.ndarray # Ric_ij = R^k_ikj

    @property
    def dim(self):
        return self.a.shape[0]

    def spray(self, y):
        """Geodesic coefficients of the Riemannian part: (1/2) Gamma^i_jk y^j y^k."""
        y = np.asarray(y, dtype=float)
        return 0.5 * np.einsum("ijk,j,k->i", self.gamma, y, y)

    def ricci_scalar(self, y):
        """Ric_ij y^i y^j."""
        y = np.asarray(y, dtype=float)
        return float(y @ self.ricci_alpha @ y)

    def sectional_curvature(self):
        """Sectional curvature for dim 2 (where Ric_ij = lambda a_ij)."""
        if self.dim != 2:
            raise ValueError("sectional_curvature is a 2-dimensional shortcut")
        return float(np.einsum("ij,ij->", self.a_inv, self.ricci_alpha)) / 2.0

    def alpha(self, y):
        y = np.asarray(y, dtype=float)
        return math.sqrt(float(y @ self.a @ y))


def riemann_data(alpha_spec, x, order=3):
    """Levi-Civita machinery from an expression matrix for a_ij."""
    return riemann_data_from_jets(matrix_jets(alpha_spec, x, order), x)


def riemann_data_from_jets(a_jets, x):
    n = len(a_jets)

    def unit(v):
        e = [0] * n
        e[v] = 1
        return tuple(e)

    def pair(v, w):
        e = [0] * n
        e[v] += 1
        e[w] += 1
        return tuple(e)

    a = np.array([[a_jets[i][j].value for j in range(n)] for i in range(n)])
    if not is_positive_definite(a.tolist()):
        raise NotPositiveDefinite(f"a_ij not positive definite at x={list(x)!r}")
    da = np.array([[[a_jets[i][j].partial(unit(k)) for j in range(n)]
                    for i in range(n)] for k in range(n)])
    dda = np.array([[[[a_jets[i][j].partial(pair(l, k)) for j in range(n)]
                      for i in range(n)] for k in range(n)] for l in range(n)])
    a_inv = np.array(invert(a.tolist()))

    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for l in range(n):
                    acc += a_inv[i, l] * (da[j, l, k] + da[k, j, l] - da[l, j, k])
                gamma[i, j, k] = 0.5 * acc

    da_inv = -np.einsum("ip,mpq,ql->mil", a_inv, da, a_inv)
    dgamma = np.zeros((n, n, n, n))
    for m in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = 0.0
                    for l in range(n):
                        acc += da_inv[m, i, l] * (
                            da[j, l, k] + da[k, j, l] - da[l, j, k])
                        acc += a_inv[i, l] * (
                            dda[m, j, l, k] + dda[m, k, j, l] - dda[m, l, j, k])
                    dgamma[m, i, j, k] = 0.5 * acc

    riemann4 = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = dgamma[k, i, j, l] - dgamma[l, i, j, k]
                    for m in range(n):
                        acc += gamma[i, k, m] * gamma[m, j, l]
                        acc -= gamma[i, l, m] * gamma[m, j, k]
                    riemann4[i, j, k, l] = acc
    riemann_low = np.einsum("im,mjkl->ijkl", a, riemann4)
    ricci_alpha = np.einsum("kikj->ij", riemann4)
    return RiemannData(tuple(float(v) for v in x), a, a_inv, da, dda,
                       gamma, dgamma, riemann4, riemann_low, ricci_alpha)


@dataclass
class AbTensors:
    """The (alpha,beta) tensor bundle of one point.

    Index conventions: cov_b[i,j] = b_{i|j}; cov_r[i,j,k] = r_{ij|k};
    cov_svec[j,k] = s_{j|k}.  Indices are raised and lowered with a_ij.
    """

    rd: RiemannData
    b: np.ndarray
    db: np.ndarray        # db[j,i] = d_j b_i
    ddb: np.ndarray       # ddb[k,j,i] = d_k d_j b_i
    b_up: np.ndarray
    b2: float
    cov_b: np.ndarray     # b_{i|j}
    r: np.ndarray
    s: np.ndarray
    r_up: np.ndarray      # r^i_j
    s_up: np.ndarray      # s^i_j
    q: np.ndarray         # q_ij = r_im s^m_j
    t: np.ndarray         # t_ij = s_im s^m_j
    rvec: np.ndarray      # r_j = b^i r_ij
    svec: np.ndarray      # s_j = b^i s_ij
    qvec: np.ndarray      # q_j = b^i q_ij
    tvec: np.ndarray      # t_j = b^i t_ij
    tr_r: float           # r^k_k
    tr_t: float           # t^k_k
    cov_r: np.ndarray     # r_{ij|k}
    cov_s: np.ndarray     # s_{ij|k}
    cov_rvec: np.ndarray  # r_{j|k}
    cov_svec: np.ndarray  # s_{j|k}

    @property
    def dim(self):
        return self.rd.dim

    def beta(self, y):
        return float(np.dot(self.b, y))

    def r00(self, y):
        y = np.asarray(y, dtype=float)
        return float(y @ self.r @ y)

    def s0(self, y):
        return float(np.dot(self.svec, y))

    def s_i0(self, y):
        return self.s_up @ np.asarray(y, dtype=float)

    def q00(self, y):
        y = np.asarray(y, dtype=float)
        return float(y @ self.q @ y)

    def t00(self, y):
        y = np.asarray(y, dtype=float)
        return float(y @ self.t @ y)

    def t0(self, y):
        return float(np.dot(self.tvec, y))

    def sk_0k(self, y):
        """s^k_{0|k}: divergence-type contraction of the covariant derivative."""
        return float(np.dot(self.sk_form(), y))

    def sk_form(self):
        """1-form j -> s^k_{j|k}."""
        return np.einsum("ki,ijk->j", self.rd.a_inv, self.cov_s)

    def rkk_grad(self):
        """1-form j -> r^k_{k|j} (gradient of the scalar trace)."""
        return np.einsum("ik,ikj->j", self.rd.a_inv, self.cov_r)

    def rk_form(self):
        """1-form j -> r^k_{j|k}."""
        return np.einsum("ki,ijk->j", self.rd.a_inv, self.cov_r)

    def s00_cov(self, y):
        """s_{0|0} = s_{j|k} y^j y^k."""
        y = np.asarray(y, dtype=float)
        return float(y @ self.cov_svec @ y)

    def r000_cov(self, y):
        """r_{00|0} = r_{ij|k} y^i y^j y^k."""
        y = np.asarray(y, dtype=float)
        return float(np.einsum("ijk,i,j,k->", self.cov_r, y, y, y))

    def bk_s0k(self, y):
        """b^k s_{0|k}."""
        y = np.asarray(y, dtype=float)
        return float(np.einsum("jk,j,k->", self.cov_svec, y, self.b_up))

    def s_m_s_up_m(self):
        """s_m s^m = a^{jk} s_j s_k."""
        return float(self.svec @ self.rd.a_inv @ self.svec)

    def db2(self):
        """Gradient of b^2: 2 b^i b_{i|j} = 2 (r_j + s_j)."""
        return 2.0 * (self.rvec + self.svec)


def ab_tensors(alpha_spec, beta_spec, x, order=3):
    rd = riemann_data(alpha_spec, x, order)
    return ab_tensors_from_jets(rd, covector_jets(beta_spec, x, order))


def ab_tensors_from_jets(rd, b_jets):
    n = rd.dim

    def unit(v):
        e = [0] * n
        e[v] = 1
        return tuple(e)

    def pair(v, w):
        e = [0] * n
        e[v] += 1
        e[w] += 1
        return tuple(e)

    b = np.array([bj.value for bj in b_jets])
    db = np.array([[b_jets[i].partial(unit(j)) for i in range(n)]
                   for j in range(n)])
    ddb = np.array([[[b_jets[i].partial(pair(k, j)) for i in range(n)]
                     for j in range(n)] for k in range(n)])
    b_up = rd.a_inv @ b
    b2 = float(b_up @ b)

    cov_b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cov_b[i, j] = db[j, i] - float(rd.gamma[:, i, j] @ b)
    r = 0.5 * (cov_b + cov_b.T)
    s = 0.5 * (cov_b - cov_b.T)
    r_up = rd.a_inv @ r
    s_up = rd.a_inv @ s
    q = r @ s_up
    t = s @ s_up
    rvec = b_up @ r
    svec = b_up @ s
    qvec = b_up @ q
    tvec = b_up @ t
    tr_r = float(np.trace(r_up))
    tr_t = float(np.einsum("ki,ik->", rd.a_inv, t))

    # partial derivatives of r_ij and s_ij
    ds = np.zeros((n, n, n))   # ds[k,i,j] = d_k s_ij
    dr = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                ds[k, i, j] = 0.5 * (ddb[k, j, i] - ddb[k, i, j])
                dr[k, i, j] = (0.5 * (ddb[k, j, i] + ddb[k, i, j])
                               - float(rd.dgamma[k, :, i, j] @ b)
                               - float(rd.gamma[:, i, j] @ db[k]))

    cov_s = np.zeros((n, n, n))  # s_{ij|k}
    cov_r = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corr_s = corr_r = 0.0
                for m in range(n):
                    corr_s += rd.gamma[m, i, k] * s[m, j] + rd.gamma[m, j, k] * s[i, m]
                    corr_r += rd.gamma[m, i, k] * r[m, j] + rd.gamma[m, j, k] * r[i, m]
                cov_s[i, j, k] = ds[k, i, j] - corr_s
                cov_r[i, j, k] = dr[k, i, j] - corr_r

    # s_{j|k} and r_{j|k} via the product rule with (b^i)_{|k} = a^{im} b_{m|k}
    bup_cov = rd.a_inv @ cov_b  # (b^i)_{|k}
    cov_svec = np.zeros((n, n))
    cov_rvec = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            cov_svec[j, k] = (float(bup_cov[:, k] @ s[:, j])
                              + float(b_up @ cov_s[:, j, k]))
            cov_rvec[j, k] = (float(bup_cov[:, k] @ r[:, j])
                              + float(b_up @ cov_r[:, j, k]))

    return AbTensors(rd, b, db, ddb, b_up, b2, cov_b, r, s, r_up, s_up, q, t,
                     rvec, svec, qvec, tvec, tr_r, tr_t, cov_r, cov_s,
                     cov_rvec, cov_svec)


def structural_spray(rd, ab, p, y):
    """Spray of F = alpha (1 + beta/alpha)^p from the structural formula.

    G^i = G^i_alpha + alpha Q s^i_0
          + Theta (-2 alpha Q s_0 + r_00) y^i / alpha
          + Psi (-2 alpha Q s_0 + r_00) b^i

    with Q = phi'/(phi - s phi'), Theta = (Q - s Q')/(2 Delta),
    Psi = Q'/(2 Delta), Delta = 1 + s Q + (b^2 - s^2) Q'.  For the power
    function phi(s) = (1+s)^p these reduce to Q = p / (1 + (1-p) s) and
    Q' = -p(1-p) / (1 + (1-p) s)^2.
    """
    y = np.asarray(y, dtype=float)
    alpha = rd.alpha(y)
    if alpha < SPRAY_FLOOR:
        raise DegenerateValue("alpha vanishes at this direction")
    beta = ab.beta(y)
    sv = beta / alpha
    if 1.0 + sv <= 0.0:
        raise DomainError("1 + beta/alpha must stay positive")
    denom = 1.0 + (1.0 - p) * sv
    if abs(denom) < SPRAY_FLOOR:
        raise DegenerateValue("phi - s phi' vanishes at this direction")
    q_val = p / denom
    q_prime = -p * (1.0 - p) / denom**2
    delta = 1.0 + sv * q_val + (ab.b2 - sv * sv) * q_prime
    if abs(delta) < SPRAY_FLOOR:
        raise DegenerateValue("spray denominator Delta vanishes")
    theta = (q_val - sv * q_prime) / (2.0 * delta)
    psi = q_prime / (2.0 * delta)
    core = -2.0 * alpha * q_val * ab.s0(y) + ab.r00(y)
    return (rd.spray(y)
            + alpha * q_val * ab.s_i0(y)
            + (theta / alpha) * core * y
            + psi * core * ab.b_up)


def randers_ricci(rd, ab, y):
    """Closed-form Ricci curvature of the Randers metric F = alpha + beta."""
    y = np.asarray(y, dtype=float)
    alpha = rd.alpha(y)
    beta = ab.beta(y)
    f = alpha + beta
    if f <= 0.0:
        raise DomainError("F = alpha + beta must be positive")
    n = rd.dim
    r00 = ab.r00(y)
    s0 = ab.s0(y)
    ric = (rd.ricci_scalar(y)
           + 2.0 * alpha * ab.sk_0k(y)
           - 2.0 * ab.t00(y)
           - alpha * alpha * ab.tr_t
           + (n - 1) * (
               3.0 * (r00 - 2.0 * alpha * s0) ** 2 / (4.0 * f * f)
               + (4.0 * alpha * (ab.q00(y) - alpha * ab.t0(y))
                  - ab.r000_cov(y) + 2.0 * alpha * ab.s00_cov(y))
               / (2.0 * f)))
    return float(ric)


_SIGN_CACHE: dict[str, int] = {}

_CALIBRATION_ALPHA = [
    ["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
    ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"],
]
_CALIBRATION_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]
_CALIBRATION_POINT = (0.3, -0.4)


def curvature_term_sign():
    """Sign with which the lowered curvature tensor enters the identities.

    Calibrated once per process: both candidate signs are tried on a fixed
    curved reference instance and the one that makes the first identity
    vanish is adopted.  The choice is deterministic and surfaced in report
    metadata.
    """
    cached = _SIGN_CACHE.get("sign")
    if cached is not None:
        return cached
    rd = riemann_data(_CALIBRATION_ALPHA, _CALIBRATION_POINT)
    ab = ab_tensors_from_jets(
        rd, covector_jets(_CALIBRATION_BETA, _CALIBRATION_POINT))
    res_plus = _identity_residuals(rd, ab, +1)[0]
    res_minus = _identity_residuals(rd, ab, -1)[0]
    if res_plus < 1e-9 <= res_minus:
        sign = +1
    elif res_minus < 1e-9 <= res_plus:
        sign = -1
    else:
        raise RuntimeError(
            f"curvature sign calibration inconclusive: {res_plus}, {res_minus}")
    _SIGN_CACHE["sign"] = sign
    return sign


def _identity_residuals(rd, ab, sign):
    n = rd.dim
    bl_r = np.einsum("l,klij->kij", ab.b_up, rd.riemann_low)  # b^l R_klij
    t1 = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1[i, j, k] = (ab.cov_s[i, j, k]
                               - ab.cov_r[i, k, j] + ab.cov_r[j, k, i]
                               + sign * bl_r[k, i, j])
    scale1 = max(1.0, np.abs(ab.cov_s).max(), np.abs(ab.cov_r).max(),
                 np.abs(bl_r).max())
    res1 = float(np.abs(t1).max() / scale1)

    b_ric = ab.b_up @ rd.ricci_alpha  # l -> b^l Ric_lj
    t2 = ab.sk_form() - ab.rkk_grad() + ab.rk_form() + sign * b_ric
    scale2 = max(1.0, np.abs(ab.sk_form()).max(), np.abs(ab.rkk_grad()).max(),
                 np.abs(b_ric).max())
    res2 = float(np.abs(t2).max() / scale2)

    bb_cov_r_first = np.einsum("k,l,klj->j", ab.b_up, ab.b_up, ab.cov_r)
    bb_cov_r_last = np.einsum("k,l,kjl->j", ab.b_up, ab.b_up, ab.cov_r)
    rs0 = ab.rvec @ ab.s_up  # j -> r_k s^k_j
    t3 = np.einsum("jk,k->j", ab.cov_svec, ab.b_up)
    t3 = t3 - (rs0 - ab.tvec + bb_cov_r_first - bb_cov_r_last)
    scale3 = max(1.0, np.abs(rs0).max(), np.abs(ab.tvec).max(),
                 np.abs(bb_cov_r_first).max(), np.abs(bb_cov_r_last).max())
    res3 = float(np.abs(t3).max() / scale3)

    s_div = float(np.einsum("jk,jk->", rd.a_inv, ab.cov_svec))
    r_div = float(np.einsum("jk,jk->", rd.a_inv, ab.cov_rvec))
    rr = float(np.einsum("ij,ji->", ab.r_up, ab.r_up))
    b_grad_tr = float(ab.b_up @ ab.rkk_grad())
    bb_ric = float(ab.b_up @ rd.ricci_alpha @ ab.b_up)
    t4 = s_div - r_div + ab.tr_t + rr + b_grad_tr - sign * bb_ric
    scale4 = max(1.0, abs(r_div), abs(ab.tr_t), abs(rr),
                 abs(b_grad_tr), abs(bb_ric))
    res4 = abs(t4) / scale4
    return res1, res2, res3, res4


def ricci_identity_residuals(rd, ab, sign=None):
    """Residual norms of the four covariant-derivative identities.

    Returns (residuals, sign).  With the calibrated sign the four residuals
    vanish to roundoff on any instance; they are the implementation's own
    consistency certificate.
    """
    if sign is None:
        sign = curvature_term_sign()
    return _identity_residuals(rd, ab, sign), sign
