"""Riemannian and (alpha,beta) structural machinery.

This module computes Christoffel symbols, the curvature tensor of the
Riemannian part, the covariant-derivative tensor family of the 1-form
(r_ij, s_ij, q_ij, t_ij and their contractions), the structural spray of an
(alpha,beta)-metric, and the closed-form Randers Ricci curvature.  It is an
independent computation path: everything is assembled from explicit index
formulas over coordinate jets of a_ij(x) and b_i(x), never from the generic
engine, so agreement between the two paths is a real cross-check.

The tensor data of many points is built in one batched pass
(:func:`ab_tensor_rows`, and :func:`ab_tensor_rows_from_jets` for jets of
points with specs of their own).  The one-point entries
(:func:`ab_tensors`, :func:`riemann_data_from_jets`,
:func:`ab_tensors_from_jets`) are its batches of one.  Every field of a
row has the bits of evaluating its point alone: a sum over an index is
taken term by term in index order, with only the free indices and the
batch as whole arrays; a matrix product is a stacked ``@`` and a
contraction an einsum with a batch index, since BLAS and einsum may sum
in another order than a loop; and a point that fails holds the error its
one-point call raises.

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

from .errors import (
    BatchFailed,
    DegenerateValue,
    DomainError,
    FinslerError,
    NotPositiveDefinite,
    _raised,
    coords,
)
from .exprlang import parse, shared_tape
from .jets import Jet, get_context, partial_table, read_partials
from .linalg import invert, is_positive_definite

SPRAY_FLOOR = 1e-12


def _as_ast(expr):
    return parse(expr) if isinstance(expr, str) else expr


def _matrix_entries(exprs, ctx, point, entry=None):
    """``entry`` of the jet coefficients in ``ctx`` of each entry of a
    symmetric expression matrix at ``point``, one point or a
    coordinate-major batch (as for ``Tape.jets``), as an n x n list of
    lists; without ``entry``, the coefficients themselves.

    Only the upper triangle is evaluated; the matrix is mirrored, so the
    result is symmetric by construction, entry [j][i] the object of
    [i][j].  The upper triangle, row by row, is one shared tape
    (``exprlang.shared_tape``), so an entry shared by several places is
    evaluated once, and the first entry that raises raises first.
    """
    n = len(exprs)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    tape = shared_tape([_as_ast(exprs[i][j]) for i, j in pairs])
    entries = [[None] * n for _ in range(n)]
    for (i, j), c in zip(pairs, tape.jets(ctx, point)):
        entries[i][j] = entries[j][i] = c if entry is None else entry(c)
    return entries


def _covector_coeffs(exprs, ctx, point):
    """The jet coefficients in ``ctx`` of a covector of expressions at
    ``point`` (one point or a coordinate-major batch), from one shared
    tape."""
    return shared_tape([_as_ast(e) for e in exprs]).jets(ctx, point)


def matrix_jets(exprs, x, order=3):
    """Evaluate a symmetric expression matrix as jets at x (see
    ``_matrix_entries``)."""
    ctx = get_context(len(exprs), order)
    return _matrix_entries(exprs, ctx, x, lambda c: Jet(ctx, c))


def covector_jets(exprs, x, order=3):
    """Evaluate a covector of expressions as jets at x, from one shared
    tape."""
    ctx = get_context(len(exprs), order)
    return [Jet(ctx, c) for c in _covector_coeffs(exprs, ctx, x)]


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


def _partials(coeffs, ctx):
    """Values, first and second raw partials of a batch of jets whose
    coefficient vectors are the last axis of ``coeffs``, the first axis
    the batch: ``value[b, ...]``, ``d[b, v, ...]`` = d_v and
    ``dd[b, v, w, ...]`` = d_v d_w, the trailing axes those of the jets.
    Each is one gather through the context's ``jets.partial_table``, with
    the bits of ``Jet.partial``, and laid out in memory as an array built
    entry by entry."""
    table = partial_table(ctx)
    d = np.moveaxis(read_partials(coeffs, table.unit, ctx), -1, 1)
    dd = np.moveaxis(read_partials(coeffs, table.pair, ctx), (-2, -1), (1, 2))
    return tuple(np.ascontiguousarray(t) for t in (coeffs[..., 0], d, dd))


def _dots(u, v):
    """``u @ v`` of the vectors along the last axes of u and v, at every
    index of the other axes (broadcast), as one stacked ``@`` of a row by
    a column.  Each has the bits of the 1-D ``@`` of the same two views:
    BLAS sums a strided vector in another order than a contiguous one, so
    the callers pass each vector with the strides of the one-point
    formula's slice."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _inverse_rows(a, points):
    """a^ij of each matrix of the (B, n, n) array ``a``, and the
    FinslerError of each row, by row, where a_ij is not positive definite
    at its point or cannot be inverted.

    The Sylvester test and the inverse run one matrix at a time
    (``linalg.is_positive_definite``, ``linalg.invert``).  Their batched
    forms (``linalg.positive_definite_rows``, ``linalg.solve_rows``) give
    the same verdicts and bits, but cost about 0.27 ms a call at any size
    in 2-D, and overtake this loop only from about 10 matrices: 0.20 ms
    against 0.28 at 8, 1.2 against 0.36 at 50, 3.0 against 0.52 at 100
    (2 vCPUs, numpy 2.4.6).  Over a verify-paper pass (batches of 1 to
    100 points) they saved about 11 ms of 0.59 s, within the spread of
    the passes; a batch of one matrix they take through the one-point
    form themselves.
    """
    a_inv = np.zeros_like(a)
    errors = {}
    for b, (m, x) in enumerate(zip(a.tolist(), points)):
        if not is_positive_definite(m):
            errors[b] = NotPositiveDefinite(
                f"a_ij not positive definite at x={coords(x)!r}")
            continue
        try:
            a_inv[b] = invert(m)
        except FinslerError as exc:
            errors[b] = exc
    return a_inv, errors


def _levi_civita(a, a_inv, da, dda):
    """Christoffel symbols, their partials and the curvature of a batch of
    metrics, from a_ij, a^ij and the partials of a_ij, each with a leading
    batch axis: ``(gamma, dgamma, riemann4, riemann_low, ricci_alpha)``.

    A sum over an index is taken term by term in index order, with the
    free indices and the batch as whole arrays, so every entry has the
    bits of adding its terms one at a time.
    """
    n = a.shape[1]
    # c[b, l, j, k] = d_j a_lk + d_k a_jl - d_l a_jk
    c = da.transpose(0, 2, 1, 3) + da.transpose(0, 3, 2, 1) - da
    acc = 0.0
    for l in range(n):
        acc = acc + a_inv[:, :, l, None, None] * c[:, None, l]
    gamma = 0.5 * acc  # gamma[b, i, j, k] = Gamma^i_jk

    da_inv = -np.einsum("bip,bmpq,bql->bmil", a_inv, da, a_inv)
    # dc[b, m, l, j, k] = d_m c[b, l, j, k]
    dc = dda.transpose(0, 1, 3, 2, 4) + dda.transpose(0, 1, 4, 3, 2) - dda
    acc = 0.0
    for l in range(n):
        acc = acc + da_inv[:, :, :, l, None, None] * c[:, None, None, l]
        acc = acc + a_inv[:, None, :, l, None, None] * dc[:, :, None, l]
    dgamma = 0.5 * acc  # dgamma[b, m, i, j, k] = d_m Gamma^i_jk

    # riemann4[b, i, j, k, l] = d_k Gamma^i_jl - d_l Gamma^i_jk
    #     + sum_m (Gamma^i_km Gamma^m_jl - Gamma^i_lm Gamma^m_jk)
    acc = dgamma.transpose(0, 2, 3, 1, 4) - dgamma.transpose(0, 2, 3, 4, 1)
    for m in range(n):
        acc = acc + gamma[:, :, None, :, None, m] * gamma[:, None, m, :, None]
        acc = acc - gamma[:, :, None, None, :, m] * gamma[:, None, m, :, :, None]
    riemann4 = acc
    riemann_low = np.einsum("bim,bmjkl->bijkl", a, riemann4)
    ricci_alpha = np.einsum("bkikj->bij", riemann4)
    return gamma, dgamma, riemann4, riemann_low, ricci_alpha


def _riemann_rows(coeffs, ctx, points):
    """The RiemannData at each point of ``points`` from the (B, n, n,
    ncoef) coefficients of the jets of a_ij in ``ctx``, one row per
    point, in one batched pass; a row where a_ij is not positive definite
    or cannot be inverted holds the FinslerError saying so."""
    if not len(points):
        return []
    a, da, dda = _partials(coeffs, ctx)
    a_inv, errors = _inverse_rows(a, points)
    with np.errstate(all="ignore"):
        fields = _levi_civita(a, a_inv, da, dda)
    return [errors[b] if b in errors else
            RiemannData(tuple(coords(x)), a[b], a_inv[b], da[b], dda[b],
                        *(f[b] for f in fields))
            for b, x in enumerate(points)]


def riemann_data_from_jets(a_jets, x):
    """The RiemannData of a_ij at x from its jets: a batch of one of the
    tensor builder (``ab_tensor_rows``)."""
    coeffs = np.array([[j.c for j in row] for row in a_jets])
    return _raised(_riemann_rows(coeffs[None], a_jets[0][0].ctx, [x])[0])


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
    """The tensor data ``(rd, ab)`` of (alpha, beta) at x, from jets of
    ``order`` (``ab.rd`` is ``rd``): a batch of one of the tensor builder
    (``ab_tensor_rows``)."""
    rd = riemann_data(alpha_spec, x, order)
    return rd, ab_tensors_from_jets(rd, covector_jets(beta_spec, x, order))


def ab_tensors_from_jets(rd, b_jets):
    """The AbTensors of b_i's jets over the Levi-Civita data ``rd``: a
    batch of one of the tensor builder (``ab_tensor_rows``)."""
    coeffs = np.array([j.c for j in b_jets])
    return _ab_rows([rd], coeffs[None], b_jets[0].ctx)[0]


def _ab_rows(rds, coeffs, ctx):
    """The AbTensors over each RiemannData of ``rds``, from the (B, n,
    ncoef) coefficients of the jets of b_i in ``ctx``, in one batched
    pass.

    A sum over an index is taken term by term in index order, a matrix
    product is a stacked ``@`` and a contraction a batched einsum, each
    as the formula of one point names it, so every field has the bits of
    evaluating that point alone.
    """
    if not rds:
        return []
    a_inv, gamma, dgamma = (np.stack([getattr(rd, name) for rd in rds])
                            for name in ("a_inv", "gamma", "dgamma"))
    b, db, ddb = _partials(coeffs, ctx)
    n = b.shape[1]
    with np.errstate(all="ignore"):
        b_up = (a_inv @ b[..., None])[..., 0]
        b2 = _dots(b_up, b)
        # gamma_ij[p, i, j, :] = Gamma^._ij at point p, the one-point
        # slice gamma[:, i, j]
        gamma_ij = gamma.transpose(0, 2, 3, 1)
        # cov_b[p, i, j] = b_{i|j} = d_j b_i - Gamma^m_ij b_m
        cov_b = np.ascontiguousarray(
            db.transpose(0, 2, 1) - _dots(gamma_ij, b[:, None, None]))
        r = 0.5 * (cov_b + cov_b.transpose(0, 2, 1))
        s = 0.5 * (cov_b - cov_b.transpose(0, 2, 1))
        r_up = a_inv @ r
        s_up = a_inv @ s
        q = r @ s_up
        t = s @ s_up
        rvec, svec, qvec, tvec = ((b_up[:, None] @ m)[:, 0]
                                  for m in (r, s, q, t))
        tr_r = np.trace(r_up, axis1=1, axis2=2)
        tr_t = np.einsum("bki,bik->b", a_inv, t)

        # partial derivatives ds[p, k, i, j] = d_k s_ij and d_k r_ij
        ddb_t = ddb.transpose(0, 1, 3, 2)
        ds = 0.5 * (ddb_t - ddb)
        dr = (0.5 * (ddb_t + ddb)
              - _dots(dgamma.transpose(0, 1, 3, 4, 2), b[:, None, None, None])
              - _dots(gamma_ij[:, None], db[:, :, None, None]))

        # cov_s[p, i, j, k] = s_{ij|k} = d_k s_ij
        #     - sum_m (Gamma^m_ik s_mj + Gamma^m_jk s_im), likewise r
        corr_s = corr_r = 0.0
        for m in range(n):
            g_ik = gamma[:, m, :, None, :]
            g_jk = gamma[:, m, None, :, :]
            corr_s = corr_s + (g_ik * s[:, m, None, :, None]
                               + g_jk * s[:, :, m, None, None])
            corr_r = corr_r + (g_ik * r[:, m, None, :, None]
                               + g_jk * r[:, :, m, None, None])
        cov_s = np.ascontiguousarray(ds.transpose(0, 2, 3, 1) - corr_s)
        cov_r = np.ascontiguousarray(dr.transpose(0, 2, 3, 1) - corr_r)

        # s_{j|k} and r_{j|k} via the product rule with (b^i)_{|k} =
        # a^{im} b_{m|k}: bup_cov[:, k] . s[:, j] + b^i s_{ij|k}
        bup_cov_k = (a_inv @ cov_b).transpose(0, 2, 1)[:, None]
        b_up_ = b_up[:, None, None]
        cov_svec = (_dots(bup_cov_k, s.transpose(0, 2, 1)[:, :, None])
                    + _dots(b_up_, cov_s.transpose(0, 2, 3, 1)))
        cov_rvec = (_dots(bup_cov_k, r.transpose(0, 2, 1)[:, :, None])
                    + _dots(b_up_, cov_r.transpose(0, 2, 3, 1)))

    return [AbTensors(rd, b[k], db[k], ddb[k], b_up[k], float(b2[k]),
                      cov_b[k], r[k], s[k], r_up[k], s_up[k], q[k], t[k],
                      rvec[k], svec[k], qvec[k], tvec[k], float(tr_r[k]),
                      float(tr_t[k]), cov_r[k], cov_s[k], cov_rvec[k],
                      cov_svec[k])
            for k, rd in enumerate(rds)]


def _tensor_rows(a, b, ctx, points, a_errors=None, b_errors=None):
    """(rd, ab) at each point from the (B, n, n, ncoef) and (B, n, ncoef)
    coefficients of the jets of a_ij and b_i, one row per point.

    ``a_errors`` and ``b_errors`` map a row to the FinslerError that its
    jets of a_ij or of b_i raised.  A row that fails holds the first error
    ``ab_tensors`` meets there: a_ij's jets, its Levi-Civita data, then
    b_i's jets.
    """
    rows = _riemann_rows(a, ctx, points)
    rows = [(a_errors or {}).get(k, row) for k, row in enumerate(rows)]
    for k, exc in (b_errors or {}).items():
        if isinstance(rows[k], RiemannData):
            rows[k] = exc
    good = [k for k, rd in enumerate(rows) if isinstance(rd, RiemannData)]
    for k, ab in zip(good, _ab_rows([rows[k] for k in good], b[good], ctx)):
        rows[k] = (rows[k], ab)
    return rows


def ab_tensor_rows(alpha_spec, beta_spec, points):
    """The tensor data ``(rd, ab)`` of (alpha, beta) at each of
    ``points``, in one batched pass: row k has the bits of
    ``ab_tensors(alpha_spec, beta_spec, points[k])`` in every field, or,
    where that call raises a FinslerError, holds the error it raises.

    The jets of a_ij and b_i come from one batched replay of their tapes
    (point by point where the batch fails), and the Levi-Civita data and
    the tensor bundle are computed for all points at once.
    """
    points = [coords(x) for x in points]
    if not points:
        return []
    n = len(alpha_spec)
    ctx = get_context(n, 3)
    a, a_errors = _jet_rows(lambda p: _matrix_entries(alpha_spec, ctx, p),
                            points, (n, n, ctx.ncoef))
    b, b_errors = _jet_rows(lambda p: _covector_coeffs(beta_spec, ctx, p),
                            points, (n, ctx.ncoef))
    return _tensor_rows(a, b, ctx, points, a_errors, b_errors)


def ab_tensor_rows_from_jets(a_jets, b_jets, points):
    """``ab_tensors_from_jets(riemann_data_from_jets(a_jets[k],
    points[k]), b_jets[k])`` for each k, as ``(rd, ab)`` or the
    FinslerError it raises, in one batched pass; the jets of each row may
    come from their own specs, in one context."""
    if not len(points):
        return []
    ctx = a_jets[0][0][0].ctx
    a = np.array([[[j.c for j in row] for row in m] for m in a_jets])
    b = np.array([[j.c for j in v] for v in b_jets])
    return _tensor_rows(a, b, ctx, [coords(x) for x in points])


def _jet_rows(coeffs_at, points, shape):
    """``coeffs_at(point)``, jet coefficients of the given ``shape`` at
    one point or a coordinate-major batch, at each of ``points`` as one
    array with the batch first: from one call on the whole batch, point
    by point where the batch fails.  Returns the array and the
    FinslerError of each point whose call raises, by row."""
    try:
        batch = np.array(coeffs_at(np.array(points).T))
        return np.ascontiguousarray(np.moveaxis(batch, -2, 0)), {}
    except BatchFailed:
        pass
    out = np.zeros((len(points),) + shape)
    errors = {}
    for k, x in enumerate(points):
        try:
            out[k] = coeffs_at(x)
        except FinslerError as exc:
            errors[k] = exc
    return out, errors


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
    rd, ab = ab_tensors(_CALIBRATION_ALPHA, _CALIBRATION_BETA,
                        _CALIBRATION_POINT)
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
