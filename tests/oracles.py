"""Independent reference implementations backing the test assertions.

Everything here is deliberately dumb: explicit Python loops over tensor
indices, numpy only for pointwise grid arithmetic and linear algebra
(np.linalg.inv / det), and sympy for closed-form geometry on manufactured
metrics.  Nothing imports the package's tensor algebra, so agreement
between the two paths is evidence rather than tautology.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import sympy as sp

# -- storage convention, pinned locally -------------------------------------
# Symmetric rank-2 fields pack components as (xx, xy, xz, yy, yz, zz) in the
# trailing axis.  Kept independent from the package so the layout itself is
# under test.
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# alternating symbol eps[a,b,c] in {+1,-1,0}
ALT = np.zeros((3, 3, 3))
ALT[0, 1, 2] = ALT[1, 2, 0] = ALT[2, 0, 1] = 1.0
ALT[0, 2, 1] = ALT[2, 1, 0] = ALT[1, 0, 2] = -1.0


def sym_to_mat(vals):
    """(..., 6) packed symmetric components -> (..., 3, 3) full matrices."""
    out = np.zeros(vals.shape[:-1] + (3, 3))
    for idx, (a, b) in enumerate(SYM_PAIRS):
        out[..., a, b] = vals[..., idx]
        out[..., b, a] = vals[..., idx]
    return out


def gamma_to_full(planes):
    """(3, 6, ...) Gamma^a on each packed lower pair (b, c) -> (..., 3, 3, 3) indexed [a, b, c]."""
    out = np.zeros(planes.shape[2:] + (3, 3, 3))
    for a in range(3):
        for idx, (b, c) in enumerate(SYM_PAIRS):
            out[..., a, b, c] = planes[a, idx]
            out[..., a, c, b] = planes[a, idx]
    return out


def diff4(values, axis, spacing):
    """Fourth-order centered periodic difference; independent of the package."""
    p1 = np.roll(values, -1, axis=axis)
    m1 = np.roll(values, 1, axis=axis)
    p2 = np.roll(values, -2, axis=axis)
    m2 = np.roll(values, 2, axis=axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * spacing)


def gamma_n(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff of float64."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def diff4_rounding_bound(values, axis, spacing):
    """Pointwise bound on |P - diff4(values)|, P any product of the difference matrix with values.

    Let E = sum_k w_k f_k be the exact stencil, with weights w = +-8/12h
    at offsets +-1 and -+1/12h at +-2, and A = sum_k |w_k| |f_k|.

    diff4 rounds each difference, their combination, 12h and the
    division once, so every term carries at most 4 roundings:
    |diff4 - E| <= gamma_4 A (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, Lemma 3.1).

    P first subtracts a constant c taken from the array (so |c| <= M =
    max |values|) from every sample, one rounding each, and then forms
    the dot product of a row of D with them.  D's entries are 8/12h and
    1/12h rounded twice (12h, then the division), and its row sums to 0
    exactly, so the shift leaves the exact sum at E.  Products with D's
    zero entries, and sums with them, are exact, so the four nonzero
    terms carry at most 4 roundings in any summation order (Higham
    section 3.1): 1 + 2 + 4 = 7 in all, |P - E| <= gamma_7 sum_k |w_k|
    (|f_k| + M) = gamma_7 (A + 1.5 M / h).

    Forming this bound in floating point takes at most 8 roundings on
    any path, so it is divided by 1 - gamma_8 to stay an upper bound.
    """
    mags = [np.abs(np.roll(values, shift, axis=axis)) for shift in (-1, 1, -2, 2)]
    weighted = (8.0 * (mags[0] + mags[1]) + (mags[2] + mags[3])) / (12.0 * spacing)
    spread = 1.5 * np.max(np.abs(values)) / spacing
    return ((gamma_n(4) + gamma_n(7)) * weighted + gamma_n(7) * spread) / (1.0 - gamma_n(8))


# -- brute-force algebra -----------------------------------------------------


def brute_inverse(gmat):
    return np.linalg.inv(gmat)


def brute_det(gmat):
    return np.linalg.det(gmat)


def brute_trace(amat, inv):
    out = np.zeros(amat.shape[:-2])
    for a in range(3):
        for b in range(3):
            out = out + inv[..., a, b] * amat[..., a, b]
    return out


def brute_inner(amat, bmat, inv):
    out = np.zeros(amat.shape[:-2])
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    out = out + (inv[..., a, c] * inv[..., b, d]
                                 * amat[..., a, b] * bmat[..., c, d])
    return out


def brute_eps_lower(det):
    """eps_{abc} = sqrt(det g) [abc] as an (..., 3, 3, 3) array."""
    return np.sqrt(det)[..., None, None, None] * ALT


def brute_eps_mixed(det, inv):
    """eps_a^{st}: first index down, last two raised with g^{-1}."""
    low = brute_eps_lower(det)
    out = np.zeros(det.shape + (3, 3, 3))
    for a in range(3):
        for s in range(3):
            for t in range(3):
                acc = np.zeros(det.shape)
                for m in range(3):
                    for n in range(3):
                        acc = acc + low[..., a, m, n] * inv[..., m, s] * inv[..., n, t]
                out[..., a, s, t] = acc
    return out


class BruteMetric(NamedTuple):
    """A metric (..., 3, 3) with its det g, g^{-1} and eps_a^{bc}."""

    mat: np.ndarray
    det: np.ndarray
    inv: np.ndarray
    eps: np.ndarray


def brute_metric(g):
    """g, a (..., 3, 3) metric, with det g, g^{-1} and eps_a^{bc} from the routines above.

    A BruteMetric is returned as it is.  The product oracles below take
    either form, so a caller checking many pairs on one metric derives
    these once rather than once per call.
    """
    if isinstance(g, BruteMetric):
        return g
    det = brute_det(g)
    inv = brute_inverse(g)
    return BruteMetric(g, det, inv, brute_eps_mixed(det, inv))


def brute_mixed(amat, inv):
    """A^a_b = g^{ac} A_cb as (..., a, b)."""
    out = np.zeros(amat.shape)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out[..., a, b] = out[..., a, b] + inv[..., a, c] * amat[..., c, b]
    return out


def brute_squared(amat, inv):
    """(A g^-1 A)_ab = A_ac g^{cd} A_db as (..., a, b)."""
    out = np.zeros(amat.shape)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    out[..., a, b] = (out[..., a, b]
                                      + amat[..., a, c] * inv[..., c, d] * amat[..., d, b])
    return out


def brute_vector_dot(v, w, inv):
    """g^{ab} v_a w_b for covector arrays (..., 3)."""
    out = np.zeros(v.shape[:-1])
    for a in range(3):
        for b in range(3):
            out = out + inv[..., a, b] * v[..., a] * w[..., b]
    return out


def brute_wedge(amat, bmat, g):
    """(A wedge B)_a = eps_a^{bc} A_b^d B_{dc}, one lowered output index."""
    gmat, det, inv, eps = brute_metric(g)
    out = np.zeros(gmat.shape[:-2] + (3,))
    for a in range(3):
        acc = np.zeros(det.shape)
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for e in range(3):
                        acc = acc + (eps[..., a, b, c] * amat[..., b, e]
                                     * inv[..., e, d] * bmat[..., d, c])
        out[..., a] = acc
    return out


def brute_cross(amat, bmat, g):
    """(A x B)_ab = eps_a^{cd} eps_b^{ef} A_ce B_df
                    + (A.B - tr A tr B)/3 g_ab, symmetric traceless output."""
    gmat, det, inv, eps = brute_metric(g)
    dot = brute_inner(amat, bmat, inv)
    tra = brute_trace(amat, inv)
    trb = brute_trace(bmat, inv)
    out = np.zeros(gmat.shape)
    for a in range(3):
        for b in range(3):
            acc = np.zeros(det.shape)
            for c in range(3):
                for d in range(3):
                    for e in range(3):
                        for f in range(3):
                            acc = acc + (eps[..., a, c, d] * eps[..., b, e, f]
                                         * amat[..., c, e] * bmat[..., d, f])
            out[..., a, b] = acc + (dot - tra * trb) / 3.0 * gmat[..., a, b]
    return out


def brute_q_tttt(emat, bmat, g):
    inv = brute_metric(g).inv
    return brute_inner(emat, emat, inv) + brute_inner(bmat, bmat, inv)


def brute_q_attt(emat, bmat, g):
    return 2.0 * brute_wedge(emat, bmat, g)


def brute_q_abtt(emat, bmat, g):
    m = brute_metric(g)
    dens = brute_inner(emat, emat, m.inv) + brute_inner(bmat, bmat, m.inv)
    return (-brute_cross(emat, emat, m) - brute_cross(bmat, bmat, m)
            + dens[..., None, None] / 3.0 * m.mat)


# -- brute-force differential operators --------------------------------------


def brute_christoffels(gmat, spacings):
    """Gamma^a_{bc} by explicit loops; derivatives via the local stencil."""
    inv = brute_inverse(gmat)
    dg = np.zeros(gmat.shape[:-2] + (3, 3, 3))  # [d, a, b] = d_d g_ab
    for d in range(3):
        for a in range(3):
            for b in range(3):
                dg[..., d, a, b] = diff4(gmat[..., a, b], d, spacings[d])
    gam = np.zeros(gmat.shape[:-2] + (3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                acc = np.zeros(gmat.shape[:-2])
                for d in range(3):
                    acc = acc + 0.5 * inv[..., a, d] * (
                        dg[..., b, d, c] + dg[..., c, b, d] - dg[..., d, b, c])
                gam[..., a, b, c] = acc
    return gam


def brute_cov_deriv(amat, gam, spacings):
    """nabla_t A_{sb} as (..., t, s, b)."""
    out = np.zeros(amat.shape[:-2] + (3, 3, 3))
    for t in range(3):
        for s in range(3):
            for b in range(3):
                acc = diff4(amat[..., s, b], t, spacings[t])
                for u in range(3):
                    acc = acc - gam[..., u, t, s] * amat[..., u, b]
                    acc = acc - gam[..., u, t, b] * amat[..., s, u]
                out[..., t, s, b] = acc
    return out


def brute_hessian(f, gam, spacings):
    """nabla_a nabla_b f = d_a d_b f - Gam^c_ab d_c f as (..., a, b)."""
    df = [diff4(f, c, spacings[c]) for c in range(3)]
    out = np.zeros(f.shape + (3, 3))
    for a in range(3):
        for b in range(3):
            acc = diff4(df[b], a, spacings[a])
            for c in range(3):
                acc = acc - gam[..., c, a, b] * df[c]
            out[..., a, b] = acc
    return out


def brute_curl(amat, gmat, spacings):
    """(curl A)_ab = (eps_a^{st} nabla_t A_sb + eps_b^{st} nabla_t A_sa)/2."""
    det = brute_det(gmat)
    inv = brute_inverse(gmat)
    eps = brute_eps_mixed(det, inv)
    gam = brute_christoffels(gmat, spacings)
    cov = brute_cov_deriv(amat, gam, spacings)
    out = np.zeros(gmat.shape)
    for a in range(3):
        for b in range(3):
            acc = np.zeros(det.shape)
            for s in range(3):
                for t in range(3):
                    acc = acc + 0.5 * (eps[..., a, s, t] * cov[..., t, s, b]
                                       + eps[..., b, s, t] * cov[..., t, s, a])
            out[..., a, b] = acc
    return out


def brute_divergence(amat, gmat, spacings):
    """(div A)_b = g^{st} nabla_t A_sb."""
    inv = brute_inverse(gmat)
    gam = brute_christoffels(gmat, spacings)
    cov = brute_cov_deriv(amat, gam, spacings)
    out = np.zeros(gmat.shape[:-2] + (3,))
    for b in range(3):
        acc = np.zeros(gmat.shape[:-2])
        for s in range(3):
            for t in range(3):
                acc = acc + inv[..., s, t] * cov[..., t, s, b]
        out[..., b] = acc
    return out


def brute_ricci(gmat, spacings):
    """Ric_ab = d_c Gam^c_ab - d_a Gam^c_cb + Gam^c_cd Gam^d_ab
                - Gam^c_ad Gam^d_cb, all terms spelled out.

    The continuum tensor is symmetric but the d_a Gam^c_cb term is not at
    the stencil level, so the output is symmetrized."""
    gam = brute_christoffels(gmat, spacings)
    dgam = np.zeros(gmat.shape[:-2] + (3, 3, 3, 3))  # [d, a, b, c] = d_d Gam^a_bc
    for d in range(3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    dgam[..., d, a, b, c] = diff4(gam[..., a, b, c], d, spacings[d])
    out = np.zeros(gmat.shape)
    for a in range(3):
        for b in range(3):
            acc = np.zeros(gmat.shape[:-2])
            for c in range(3):
                acc = acc + dgam[..., c, c, a, b] - dgam[..., a, c, c, b]
                for d in range(3):
                    acc = acc + gam[..., c, c, d] * gam[..., d, a, b]
                    acc = acc - gam[..., c, a, d] * gam[..., d, c, b]
            out[..., a, b] = acc
    return 0.5 * (out + np.swapaxes(out, -1, -2))


# -- sympy manufactured geometry ---------------------------------------------

X, Y, Z = sp.symbols("x y z", real=True)
COORDS = (X, Y, Z)


def _wave(k, coord):
    return 2 * sp.pi * k * coord


def manufactured_metric():
    """Smooth periodic positive-definite metric on the unit 3-torus.

    One off-diagonal coupling keeps every Christoffel index route active
    while the symbolic inverse stays small enough to differentiate."""
    r = sp.Rational
    g = sp.Matrix([
        [1 + r(1, 5) * sp.sin(_wave(1, X)) * sp.cos(_wave(1, Y)),
         r(1, 10) * sp.sin(_wave(1, Z)),
         0],
        [0,
         r(6, 5) + r(3, 20) * sp.cos(_wave(1, Y)) * sp.sin(_wave(1, Z)),
         0],
        [0, 0,
         r(9, 10) + r(1, 10) * sp.sin(_wave(1, X)) * sp.sin(_wave(1, Z))],
    ])
    g[1, 0] = g[0, 1]
    return g


def manufactured_sym_field():
    """Smooth periodic symmetric tensor used as curl/divergence input."""
    r = sp.Rational
    a = sp.Matrix([
        [sp.sin(_wave(1, X)) + r(1, 2) * sp.cos(_wave(1, Y)),
         r(1, 3) * sp.sin(_wave(1, Y)) * sp.cos(_wave(1, Z)),
         r(1, 4) * sp.cos(_wave(1, X)) * sp.sin(_wave(1, Z))],
        [0,
         sp.cos(_wave(1, Z)) - r(1, 5) * sp.sin(_wave(1, X)),
         r(1, 6) * sp.sin(_wave(1, X)) * sp.sin(_wave(1, Y))],
        [0, 0,
         r(1, 2) * sp.sin(_wave(1, Y)) + r(1, 3) * sp.cos(_wave(1, X))],
    ])
    a[1, 0] = a[0, 1]
    a[2, 0] = a[0, 2]
    a[2, 1] = a[1, 2]
    return a


def manufactured_lapse():
    """Positive periodic scalar used as an exact elliptic solution."""
    r = sp.Rational
    return (1 + r(1, 5) * sp.sin(_wave(1, X)) * sp.cos(_wave(1, Y))
            + r(1, 10) * sp.cos(_wave(1, Z)))


def sympy_christoffels(g):
    inv = g.inv()
    gam = [[[sp.S.Zero] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                acc = sp.S.Zero
                for d in range(3):
                    acc += inv[a, d] * (sp.diff(g[d, c], COORDS[b])
                                        + sp.diff(g[b, d], COORDS[c])
                                        - sp.diff(g[b, c], COORDS[d])) / 2
                gam[a][b][c] = acc
    return gam


def sympy_ricci(g):
    gam = sympy_christoffels(g)
    ric = sp.zeros(3, 3)
    for a in range(3):
        for b in range(3):
            acc = sp.S.Zero
            for c in range(3):
                acc += sp.diff(gam[c][a][b], COORDS[c])
                acc -= sp.diff(gam[c][c][b], COORDS[a])
                for d in range(3):
                    acc += gam[c][c][d] * gam[d][a][b]
                    acc -= gam[c][a][d] * gam[d][c][b]
            ric[a, b] = acc
    return ric


def sympy_eps_mixed(g):
    inv = g.inv()
    root = sp.sqrt(g.det())
    eps = [[[sp.S.Zero] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for s in range(3):
            for t in range(3):
                acc = sp.S.Zero
                for m in range(3):
                    for n in range(3):
                        perm = ALT[a, m, n]
                        if perm != 0.0:
                            acc += sp.Integer(int(perm)) * root * inv[m, s] * inv[n, t]
                eps[a][s][t] = acc
    return eps


def sympy_cov_deriv(a, g):
    gam = sympy_christoffels(g)
    cov = [[[sp.S.Zero] * 3 for _ in range(3)] for _ in range(3)]
    for t in range(3):
        for s in range(3):
            for b in range(3):
                acc = sp.diff(a[s, b], COORDS[t])
                for u in range(3):
                    acc -= gam[u][t][s] * a[u, b]
                    acc -= gam[u][t][b] * a[s, u]
                cov[t][s][b] = acc
    return cov


def sympy_curl(a, g):
    eps = sympy_eps_mixed(g)
    cov = sympy_cov_deriv(a, g)
    out = sp.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            acc = sp.S.Zero
            for s in range(3):
                for t in range(3):
                    acc += (eps[i][s][t] * cov[t][s][j]
                            + eps[j][s][t] * cov[t][s][i]) / 2
            out[i, j] = acc
    return out


def sympy_divergence(a, g):
    inv = g.inv()
    cov = sympy_cov_deriv(a, g)
    out = [sp.S.Zero] * 3
    for b in range(3):
        acc = sp.S.Zero
        for s in range(3):
            for t in range(3):
                acc += inv[s, t] * cov[t][s][b]
        out[b] = acc
    return out


def sympy_hessian(scalar, g):
    gam = sympy_christoffels(g)
    out = sp.zeros(3, 3)
    for a in range(3):
        for b in range(3):
            acc = sp.diff(scalar, COORDS[a], COORDS[b])
            for c in range(3):
                acc -= gam[c][a][b] * sp.diff(scalar, COORDS[c])
            out[a, b] = acc
    return out


def sympy_laplacian(scalar, g):
    inv = g.inv()
    hess = sympy_hessian(scalar, g)
    acc = sp.S.Zero
    for a in range(3):
        for b in range(3):
            acc += inv[a, b] * hess[a, b]
    return acc


def eval_on_grid(expr, grid):
    """Lambdify a sympy scalar and evaluate it on the grid's meshes."""
    fn = sp.lambdify(COORDS, expr, "numpy", cse=True)
    xs, ys, zs = grid.meshes()
    vals = fn(xs, ys, zs)
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy()


def eval_matrix_on_grid(mat, grid):
    """Symmetric sympy matrix -> packed (..., 6) grid samples."""
    out = np.zeros(grid.shape + (6,))
    for idx, (a, b) in enumerate(SYM_PAIRS):
        out[..., idx] = eval_on_grid(mat[a, b], grid)
    return out


def eval_vector_on_grid(vec, grid):
    out = np.zeros(grid.shape + (3,))
    for a in range(3):
        out[..., a] = eval_on_grid(vec[a], grid)
    return out


# cached builders: each symbolic pipeline is assembled once per session


@lru_cache(maxsize=None)
def manufactured_geometry():
    """(g, Ric, R) for the manufactured metric."""
    g = manufactured_metric()
    ric = sympy_ricci(g)
    scalar = sp.S.Zero
    inv = g.inv()
    for a in range(3):
        for b in range(3):
            scalar += inv[a, b] * ric[a, b]
    return g, ric, scalar


@lru_cache(maxsize=None)
def manufactured_calculus():
    """(g, A, curl A, div A) for the manufactured tensor field."""
    g = manufactured_metric()
    a = manufactured_sym_field()
    return g, a, sympy_curl(a, g), sympy_divergence(a, g)


@lru_cache(maxsize=None)
def manufactured_scalar_calculus():
    """(g, N, Hess N, Lap N) for the manufactured lapse function."""
    g = manufactured_metric()
    n = manufactured_lapse()
    return g, n, sympy_hessian(n, g), sympy_laplacian(n, g)


# -- Kasner spacetime curvature, straight from the 4-metric ------------------


def riemann_lowered(g4, coords4):
    """R_{abcd} of a 4-metric by the textbook formula, fully symbolic."""
    n = 4
    inv = g4.inv()
    gam = [[[sp.S.Zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = sp.S.Zero
                for d in range(n):
                    acc += inv[a, d] * (sp.diff(g4[d, c], coords4[b])
                                        + sp.diff(g4[b, d], coords4[c])
                                        - sp.diff(g4[b, c], coords4[d])) / 2
                gam[a][b][c] = sp.simplify(acc)
    riem_up = [[[[sp.S.Zero] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    acc = (sp.diff(gam[a][b][d], coords4[c])
                           - sp.diff(gam[a][b][c], coords4[d]))
                    for e in range(n):
                        acc += gam[a][c][e] * gam[e][b][d]
                        acc -= gam[a][d][e] * gam[e][b][c]
                    riem_up[a][b][c][d] = acc
    riem = [[[[sp.S.Zero] * n for _ in range(n)] for _ in range(n)]
            for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    acc = sp.S.Zero
                    for e in range(n):
                        acc += g4[a, e] * riem_up[e][b][c][d]
                    riem[a][b][c][d] = sp.simplify(acc)
    return riem


def kasner_curvature_components(p1, p2, p3):
    """Symbolic E_ii = R_{i tau i tau} and the full set of mixed
    R_{ijk tau} components for the proper-time Kasner 4-metric.

    Returns (tau_symbol, electric_diag, mixed_components)."""
    tau = sp.symbols("tau", positive=True)
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    coords4 = (tau, x1, x2, x3)
    exps = (sp.nsimplify(p1), sp.nsimplify(p2), sp.nsimplify(p3))
    g4 = sp.diag(-1, tau ** (2 * exps[0]), tau ** (2 * exps[1]),
                 tau ** (2 * exps[2]))
    riem = riemann_lowered(g4, coords4)
    electric = [sp.simplify(riem[i][0][i][0]) for i in (1, 2, 3)]
    mixed = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                mixed.append(sp.simplify(riem[i][j][k][0]))
    return tau, electric, mixed


# -- manufactured elliptic problem -------------------------------------------


@lru_cache(maxsize=None)
def _lapse_problem_exprs():
    g, n_exact, _, lap = manufactured_scalar_calculus()
    phi = 1 + sp.Rational(3, 10) * sp.sin(_wave(1, Y)) * sp.cos(_wave(1, X))
    f = -lap + 3 * phi ** 2 * n_exact
    return g, n_exact, phi, f


def manufactured_lapse_problem(grid):
    """Exact data for  -lap N + |K|^2 N = f  on the manufactured metric.

    K = phi g gives the zero-order coefficient |K|^2 = 3 phi^2 pointwise.
    Returns packed grid arrays (g6, k6, f, n_exact)."""
    g, n_exact, phi, f = _lapse_problem_exprs()
    g6 = eval_matrix_on_grid(g, grid)
    k6 = eval_on_grid(phi, grid)[..., None] * g6
    return g6, k6, eval_on_grid(f, grid), eval_on_grid(n_exact, grid)
