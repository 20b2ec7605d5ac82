"""The batched tensor builder against the entry-by-entry formulas.

``_reference_riemann_data`` and ``_reference_ab_tensors`` are the scalar
loops that built one point's tensor data before the builder evaluated
every point of a batch at once (``alphabeta.ab_tensor_rows``); the
one-point entries are now batches of one of that builder.  Every field of
every row must have the bits of the reference and be C-contiguous.
"""

import dataclasses
import struct

import numpy as np
from fdtools import funk_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import alphabeta
from finslerlab.alphabeta import (
    AbTensors,
    RiemannData,
    ab_tensor_rows,
    ab_tensor_rows_from_jets,
    ab_tensors,
    covector_jets,
    matrix_jets,
)
from finslerlab.errors import (
    DomainError,
    FinslerError,
    NotPositiveDefinite,
    coords,
)
from finslerlab.linalg import invert, is_positive_definite


def _reference_riemann_data(a_jets, x):
    """One point's Levi-Civita data, one entry at a time."""
    n = len(a_jets)
    a, da, dda = (t[0] for t in alphabeta._partials(
        np.array([[[j.c for j in row] for row in a_jets]]), a_jets[0][0].ctx))
    if not is_positive_definite(a.tolist()):
        raise NotPositiveDefinite(
            f"a_ij not positive definite at x={coords(x)!r}")
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


def _reference_ab_tensors(rd, b_jets):
    """One point's (alpha, beta) tensor bundle, one entry at a time."""
    n = rd.dim
    b, db, ddb = (t[0] for t in alphabeta._partials(
        np.array([[j.c for j in b_jets]]), b_jets[0].ctx))
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

    ds = np.zeros((n, n, n))
    dr = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                ds[k, i, j] = 0.5 * (ddb[k, j, i] - ddb[k, i, j])
                dr[k, i, j] = (0.5 * (ddb[k, j, i] + ddb[k, i, j])
                               - float(rd.dgamma[k, :, i, j] @ b)
                               - float(rd.gamma[:, i, j] @ db[k]))

    cov_s = np.zeros((n, n, n))
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

    bup_cov = rd.a_inv @ cov_b
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


def _reference(alpha, beta, x):
    """(rd, ab) at x from the reference formulas, or the FinslerError
    raised on the way."""
    try:
        rd = _reference_riemann_data(matrix_jets(alpha, x), x)
        return rd, _reference_ab_tensors(rd, covector_jets(beta, x))
    except FinslerError as exc:
        return exc


def _assert_same_field(name, got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), name
        assert got.shape == want.shape, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, float):
        assert type(got) is float, name
        assert struct.pack("d", got) == struct.pack("d", want), name
    else:
        assert got == want, name


def assert_same_row(got, want):
    """A batched row and a reference row: the same error, or every field
    of rd and ab with the same bits."""
    if isinstance(want, FinslerError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    for got_part, want_part in zip(got, want):
        for field in dataclasses.fields(want_part):
            if field.name != "rd":
                _assert_same_field(field.name, getattr(got_part, field.name),
                                   getattr(want_part, field.name))
    assert got[1].rd is got[0]


def _polynomial_spec(n, rng):
    """A random a_ij and b_i with polynomial coefficients in n
    coordinates, positive definite near the origin and not always away
    from it."""
    xs = [f"x{i + 1}" for i in range(n)]

    def term(i, j):
        c = rng.uniform(-0.4, 0.4, size=3)
        return (f"{c[0]:.5f}*{xs[i]}*{xs[j]} + {c[1]:.5f}*{xs[(i + j) % n]}"
                f" + {c[2]:.5f}*{xs[j]}^2*{xs[i]}")

    alpha = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            alpha[i][j] = alpha[j][i] = (f"1 + {term(i, j)}" if i == j
                                         else term(i, j))
    beta = [term(i, (i + 1) % n) for i in range(n)]
    return alpha, beta


def _spec(kind, n, seed):
    if kind == "funk":
        spec = funk_spec(n)
        return spec.alpha, spec.beta
    if kind == "calibration":
        return alphabeta._CALIBRATION_ALPHA, alphabeta._CALIBRATION_BETA
    return _polynomial_spec(n, np.random.default_rng(seed))


@st.composite
def instances(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(
        ["funk", "polynomial"] + (["calibration"] if n == 2 else [])))
    coordinate = st.floats(-0.7, 0.7, allow_nan=False)
    points = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                           min_size=1, max_size=5))
    if kind == "calibration" and draw(st.booleans()):
        points.append(list(alphabeta._CALIBRATION_POINT))
    return (*_spec(kind, n, draw(st.integers(0, 2**16))), points)


@settings(max_examples=40, deadline=None)
@given(instance=instances())
def test_batched_rows_equal_the_entry_by_entry_formulas(instance):
    alpha, beta, points = instance
    rows = ab_tensor_rows(alpha, beta, points)
    assert len(rows) == len(points)
    from_jets = ab_tensor_rows_from_jets(
        [matrix_jets(alpha, x) for x in points],
        [covector_jets(beta, x) for x in points], points)
    for x, row, jet_row in zip(points, rows, from_jets):
        want = _reference(alpha, beta, x)
        assert_same_row(row, want)
        assert_same_row(jet_row, want)
        try:
            one = ab_tensors(alpha, beta, x)
        except FinslerError as exc:
            one = exc
        assert_same_row(one, want)


def test_a_failing_point_holds_its_own_one_point_error():
    """A point where a_ij is not positive definite, or where a tape leaves
    the domain of sqrt, holds the error that the one-point call raises
    there -- a_ij's before b_i's -- and the other points keep their
    bits."""
    alpha = [["1 + sqrt(x1)", "0.9 + x2"], ["0.9 + x2", "1"]]
    beta = ["0.1*x2", "sqrt(x2 + 1)"]
    points = [[0.25, 0.0], [0.25, 0.5], [-0.5, 0.0], [0.36, -2.0],
              [0.04, -0.4], [0.25, -3.0]]
    # jets point by point, and in one replay
    for batch in (points, points[:2], points[1:2]):
        rows = ab_tensor_rows(alpha, beta, batch)
        for x, row in zip(batch, rows):
            want = _reference(alpha, beta, x)
            assert_same_row(row, want)
            try:
                one = ab_tensors(alpha, beta, x)
            except FinslerError as exc:
                one = exc
            assert_same_row(one, want)
        kinds = [tuple, NotPositiveDefinite, DomainError, DomainError, tuple,
                 NotPositiveDefinite]
        assert [type(row) for row in rows] == [
            kinds[points.index(x)] for x in batch]


def test_empty_batches_are_empty():
    assert ab_tensor_rows([["1", "0"], ["0", "1"]], ["0", "0"], []) == []
    assert ab_tensor_rows_from_jets([], [], []) == []
