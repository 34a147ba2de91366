"""Magnetic curvature operators, scalar curvature functions, and scans.

For a unit vector v the magnetic curvature operator at energy k is the
linear map w -> M_k(v, w), which splits into three k-free parts:

    M_k(v, .) = 2k R_v - sqrt(2k) D_v + A_v,

    R_v w = R(w, v)v,
    D_v w = (D_w Om)(v) - 1/2 (D_v Om)(w) + 1/2 <(D_v Om)(w), v> v,
    A_v w = 3/4 <w, Om v> Om v - 1/4 Om^2 w - 1/4 <Om w, Om v> v.

The k-magnetic sectional curvature of a unit orthogonal pair (v, w) is
the quadratic form <M_k(v, w), w>_g; the k-magnetic Ricci curvature is
the trace of M_k(v, .) on the orthogonal complement of v, which is
tr M_k - <M_k(v, v), v>_g.  The parts are built once per point and
direction, so a scan over a k grid is scalar arithmetic per sample.
Functions that take a point ``x`` also take a ``geom.PointGeometry`` of it;
``a_omega`` to ``ric_omega_k`` and the surface helpers also take a stack of
points (with one v, w per point) and return one value per point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom
from .errors import FrameError
from .io import dump_csv, dump_json

POSITIVITY_GUARD = 1e-12
_UNIT_TOL = 1e-8


def _inner(g, u, v):
    """<u, v>_g at each point."""
    return np.einsum("...i,...ij,...j->...", u, g, v)


def _apply(a, v):
    """The matrix a applied to v at each point."""
    return np.einsum("...ij,...j->...i", a, v)


def _norm(g, v):
    return np.sqrt(np.maximum(_inner(g, v, v), 0.0))


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _point(sys, x, v, w=None, unit_w=False):
    """The geometry at the point or stack x, with v (and w) checked to be a
    unit (orthonormal) frame at every point."""
    pg = geom.PointGeometry.of(sys, x)
    v = np.asarray(v, float)
    w = None if w is None else np.asarray(w, float)
    if np.any(np.abs(_norm(pg.g, v) - 1.0) > _UNIT_TOL):
        raise FrameError("frame violation: |v|_g != 1")
    if w is not None:
        norm_w = _norm(pg.g, w)
        if np.any(np.abs(_inner(pg.g, v, w)) > _UNIT_TOL * np.maximum(1.0, norm_w)):
            raise FrameError("frame violation: <v,w>_g != 0")
        if unit_w and np.any(np.abs(norm_w - 1.0) > _UNIT_TOL):
            raise FrameError("frame violation: |w|_g != 1")
    return pg, v, w


def _check_energy(k):
    if k <= 0:
        raise ValueError("energy k must be positive")


def _parts(pg, v):
    """The k-free matrices (R_v, D_v, A_v) of M_k(v, .) at unit v, at each point."""
    g, om, dom = pg.g, pg.omega, pg.nabla_omega
    d_w = np.einsum("...kji,...j->...ki", dom, v)   # w -> (D_w Om)(v)
    d_v = np.einsum("...kji,...i->...kj", dom, v)   # w -> (D_v Om)(w)
    ov = _apply(om, v)
    gov = _apply(g, ov)
    return (np.einsum("...lkij,...j,...k->...li", pg.riemann, v, v),
            d_w - 0.5 * d_v + 0.5 * _outer(v, np.einsum("...j,...jk->...k", _apply(g, v), d_v)),
            0.75 * _outer(ov, gov) - 0.25 * (om @ om)
            - 0.25 * _outer(v, np.einsum("...j,...jk->...k", gov, om)))


def _at_energy(k, parts):
    """2k R - sqrt(2k) D + A, for the matrices or for scalar forms of them."""
    r, d, a = parts
    return 2.0 * k * r - math.sqrt(2.0 * k) * d + a


def _sec_forms(g, parts, w):
    """<P w, w>_g for each part P, at each point."""
    return [_inner(g, w, _apply(p, w)) for p in parts]


def _ric_forms(g, parts, v):
    """tr P - <P v, v>_g for each part P: its trace on the complement of v."""
    return [np.trace(p, axis1=-2, axis2=-1) - _inner(g, v, _apply(p, v)) for p in parts]


def a_omega(sys, x, v, w):
    """Zeroth-order magnetic operator
    A(v, w) = 3/4 <w, Om v> Om v - 1/4 Om^2 w - 1/4 <Om w, Om v> v."""
    pg, v, w = _point(sys, x, v, w)
    return _apply(_parts(pg, v)[2], w)


def r_omega_k(sys, x, v, w, k):
    """First-order magnetic operator
    R_k(v, w) = 2k R(w,v)v - sqrt(2k) [ (D_w Om)(v) - 1/2 (D_v Om)(w)
                + 1/2 <(D_v Om)(w), v> v ]."""
    pg, v, w = _point(sys, x, v, w)
    _check_energy(k)
    r, d, _ = _parts(pg, v)
    return _apply(_at_energy(k, (r, d, 0.0)), w)


def m_omega_k(sys, x, v, w, k):
    """Magnetic curvature operator M_k = R_k + A applied to (v, w)."""
    pg, v, w = _point(sys, x, v, w)
    _check_energy(k)
    return _apply(_at_energy(k, _parts(pg, v)), w)


def sec_omega_k(sys, x, v, w, k):
    """k-magnetic sectional curvature <M_k(v, w), w>_g of the unit orthogonal
    pair (v, w):

        2k Sec(v,w) - sqrt(2k) <(D_w Om)(v), w> + 3/4 <w, Om v>^2 + 1/4 |Om w|^2
    """
    pg, v, w = _point(sys, x, v, w, unit_w=True)
    _check_energy(k)
    return _at_energy(k, _sec_forms(pg.g, _parts(pg, v), w))


def ric_omega_k(sys, x, v, k):
    """k-magnetic Ricci curvature: trace of w -> <M_k(v, w), w> over the
    orthogonal complement of unit v, tr M_k - <M_k(v, v), v>_g."""
    pg, v, _ = _point(sys, x, v)
    _check_energy(k)
    return _at_energy(k, _ric_forms(pg.g, _parts(pg, v), v))


def ric_omega_k_trace(sys, x, v, k):
    """Trace-formula route: 2k Ric(v) - sqrt(2k) trace((D Om)(v)) + trace A(v, .).

    Independent of ``ric_omega_k``'s operator matrices; the two must agree.
    """
    _, v, _ = _point(sys, x, v)
    dom = geom.nabla_omega_tensor(sys, x)
    tr_dom = float(np.einsum("iji,j->", dom, v))
    return (2.0 * k * geom.ricci(sys, x, v)
            - np.sqrt(2.0 * k) * tr_dom
            + trace_a_omega(sys, x, v))


def trace_a_omega(sys, x, v):
    """trace A(v, .) = sum_i <e_i, Om v>^2 + 1/4 sum_ij <Om e_i, e_j>^2
    over an orthonormal completion {v, e_2, ..., e_n}; always >= 0, and
    zero exactly when Om vanishes at x."""
    pg, v, _ = _point(sys, x, v)
    f = geom.orthonormal_completion(sys, pg, v)[:, 1:]   # columns e_2, ..., e_n
    gom = pg.g @ pg.omega
    return float(np.sum((f.T @ gom @ v) ** 2) + 0.25 * np.sum((f.T @ gom @ f) ** 2))


# ---------------------------------------------------------------------------
# surface specialization


def rotation_operator(metric):
    """J = g^{-1} mu for an oriented surface chart, mu_ij = sqrt(det g) eps_ij.

    J is g-orthogonal with J^2 = -I; the Lorentz operator of sigma = b mu
    is Om = b J.
    """
    g = np.asarray(metric, dtype=float)
    mu = np.sqrt(np.linalg.det(g)) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.linalg.solve(g, mu)


def field_strength(sys, x):
    """b(x) with sigma = b * volume form (surface charts only), at the point
    or at each point of the stack x."""
    if sys.dim != 2:
        raise ValueError("field_strength requires a surface system")
    pg = geom.PointGeometry.of(sys, x)
    return pg.sigma[..., 0, 1] / np.sqrt(np.linalg.det(pg.g))


def field_strength_gradient(sys, x):
    """Coordinate gradient db_i = d_i b via the system's derivative scheme."""
    if sys.dim != 2:
        raise ValueError("field_strength_gradient requires a surface system")
    pg = geom.PointGeometry.of(sys, x)
    det = np.linalg.det(pg.g)[..., None]
    s12 = pg.sigma[..., 0, 1, None]
    ddet = det * np.einsum("...jl,...lji->...i", pg.ginv, pg.dg)   # d_i det g
    return pg.dsigma[..., 0, 1, :] / np.sqrt(det) - 0.5 * s12 * ddet / det ** 1.5


def gauss_curvature(sys, x):
    """Gaussian curvature of a surface chart, <R(e1, e2)e2, e1>_g / det g."""
    if sys.dim != 2:
        raise ValueError("gauss_curvature requires a surface system")
    pg = geom.PointGeometry.of(sys, x)
    return (np.einsum("...l,...l->...", pg.g[..., 0, :], pg.riemann[..., :, 1, 0, 1])
            / np.linalg.det(pg.g))


def surface_sec_b(K, b, db, v, k, metric=None):
    """Surface formula 2k K - sqrt(2k) db(J v) + b^2 for a unit vector v.

    ``db`` is the coordinate gradient covector of the field strength and
    ``metric`` the 2x2 metric at the point (identity when omitted, i.e.
    components in an oriented orthonormal frame).
    """
    if k <= 0:
        raise ValueError("energy k must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError("surface formula requires a 2-dimensional vector")
    g = np.eye(2) if metric is None else np.asarray(metric, dtype=float)
    jv = rotation_operator(g) @ v
    return 2.0 * k * float(K) - np.sqrt(2.0 * k) * float(np.asarray(db, float) @ jv) + float(b) ** 2


def surface_sec(sys, x, v, k):
    """Evaluate the surface formula from a charted surface system."""
    pg = geom.PointGeometry(sys, x)
    return surface_sec_b(gauss_curvature(sys, pg), field_strength(sys, pg),
                         field_strength_gradient(sys, pg), v, k, metric=pg.g)


# ---------------------------------------------------------------------------
# sampling and scans


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature values at one unit-sphere-bundle point."""

    x: np.ndarray
    v: np.ndarray
    k: float
    ric: float
    traceA: float
    w: Optional[np.ndarray] = None
    sec: Optional[float] = None


def curvature_sample(sys, x, v, k, w=None):
    pg, v, w = _point(sys, x, v, w, unit_w=w is not None)
    _check_energy(k)
    parts = _parts(pg, v)
    sec = None if w is None else _at_energy(k, _sec_forms(pg.g, parts, w))
    return CurvatureSample(x=pg.x, v=v, k=float(k),
                           ric=_at_energy(k, _ric_forms(pg.g, parts, v)),
                           traceA=trace_a_omega(sys, pg, v), w=w, sec=sec)


def _sample_box(sys, box):
    if box is not None:
        return [(float(lo), float(hi)) for lo, hi in box]
    if sys.lattice is not None:
        return [(0.0, float(p)) if p else (-1.0, 1.0) for p in sys.lattice]
    return [(-1.0, 1.0)] * sys.dim


def _sample_geometry(sys, n_samples, seed, box, pairs):
    """``sample_points_directions`` as arrays: the geometry of the points, one
    stack, and the directions v (and w, else None) as (n_samples, n) arrays."""
    from scipy.stats import qmc   # deferred: scipy.stats is slow to import

    lo, hi = np.array(_sample_box(sys, box)).T
    halton = qmc.Halton(d=sys.dim, seed=seed)
    points = geom.PointGeometry(sys, lo + (hi - lo) * halton.random(n_samples))
    g = points.g
    rng = np.random.default_rng(seed + 1)
    vs = np.empty((n_samples, sys.dim))
    ws = np.empty((n_samples, sys.dim)) if pairs else None
    for i in range(n_samples):
        frame = geom.coordinate_frame(sys, points[i])
        z = rng.standard_normal(sys.dim)
        v = vs[i] = frame @ (z / np.linalg.norm(z))
        if not pairs:
            continue
        for _ in range(50):
            z2 = rng.standard_normal(sys.dim)
            w = frame @ z2
            w = w - float(w @ g[i] @ v) * v
            nw = float(np.sqrt(max(w @ g[i] @ w, 0.0)))
            if nw > 1e-8:
                ws[i] = w / nw
                break
        else:
            raise FrameError("degenerate frame")
    return points, vs, ws


def sample_points_directions(sys, n_samples, seed, box=None, pairs=False):
    """Seeded Halton points in the chart box with g-uniform unit directions.

    Returns a list of (x, v) or (x, v, w) tuples with v (and w) unit and
    mutually g-orthogonal.
    """
    points, vs, ws = _sample_geometry(sys, n_samples, seed, box, pairs)
    return list(zip(points.x, vs, ws) if pairs else zip(points.x, vs))


@dataclass
class ScanReport:
    """Sampled minima of Sec_k and Ric_k over a k-grid."""

    k_grid: list
    min_sec: list
    min_ric: list
    argmin_sec: list
    argmin_ric: list
    k0_sec: float
    k0_ric: float
    n_samples: int
    seed: int
    system: str = ""

    def to_json(self, path=None):
        payload = {
            "schema_version": 1,
            "kind": "scan_report",
            "system": self.system,
            "k_grid": [float(k) for k in self.k_grid],
            "min_sec": [float(v) for v in self.min_sec],
            "min_ric": [float(v) for v in self.min_ric],
            "argmin_sec": [[float(c) for c in x] for x in self.argmin_sec],
            "argmin_ric": [[float(c) for c in x] for x in self.argmin_ric],
            "k0_sec": float(self.k0_sec),
            "k0_ric": float(self.k0_ric),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        if path:
            dump_json(path, payload)
        return json.dumps(payload, sort_keys=True)

    def to_csv(self, path):
        header = ["k", "min_sec", "min_ric", "argmin_sec", "argmin_ric"]
        rows = []
        for i, k in enumerate(self.k_grid):
            rows.append([k, self.min_sec[i], self.min_ric[i],
                         " ".join(repr(float(c)) for c in self.argmin_sec[i]),
                         " ".join(repr(float(c)) for c in self.argmin_ric[i])])
        dump_csv(path, header, rows)


def _positivity_prefix(k_grid, minima):
    k0 = 0.0
    for k, m in zip(k_grid, minima):
        if m > POSITIVITY_GUARD:
            k0 = float(k)
        else:
            break
    return k0


def positivity_scan(sys, k_grid, sample_budget, seed, box=None):
    """Estimate min Sec_k over sampled unit orthogonal pairs and min Ric_k
    over sampled unit directions, for each k in the grid.

    Reports the largest grid prefix on which each sampled minimum stays
    strictly positive (guarded against roundoff).  The sampled minimum is
    an under-approximation of the true infimum: a positive report is
    evidence, not proof.
    """
    k_grid = [float(k) for k in k_grid]
    if not k_grid:
        raise ValueError("empty k grid")
    if any(b <= a for a, b in zip(k_grid, k_grid[1:])) or k_grid[0] <= 0:
        raise ValueError("k grid must be strictly increasing and positive")
    if sample_budget <= 0:
        raise ValueError("sample budget must be positive")

    # the k-free forms of every sample, from one stack each, then arithmetic per k
    at_pairs, v, w = _sample_geometry(sys, sample_budget, seed, box, pairs=True)
    sec_forms = _sec_forms(at_pairs.g, _parts(at_pairs, v), w)
    at_dirs, u, _ = _sample_geometry(sys, sample_budget, seed + 10007, box, pairs=False)
    ric_forms = _ric_forms(at_dirs.g, _parts(at_dirs, u), u)

    min_sec, min_ric, arg_sec, arg_ric = [], [], [], []
    for k in k_grid:
        secs, rics = _at_energy(k, sec_forms), _at_energy(k, ric_forms)
        i, j = int(np.argmin(secs)), int(np.argmin(rics))
        min_sec.append(float(secs[i]))
        min_ric.append(float(rics[j]))
        arg_sec.append(at_pairs.x[i])
        arg_ric.append(at_dirs.x[j])

    return ScanReport(k_grid=k_grid, min_sec=min_sec, min_ric=min_ric,
                      argmin_sec=arg_sec, argmin_ric=arg_ric,
                      k0_sec=_positivity_prefix(k_grid, min_sec),
                      k0_ric=_positivity_prefix(k_grid, min_ric),
                      n_samples=sample_budget, seed=seed, system=sys.name)


@dataclass
class TheoremBReport:
    """Low-energy surface positivity scan against the field zero set."""

    k_grid: list
    min_sec: list
    positive: list
    zero_set: list
    b_has_zero: bool
    b_has_nonzero: bool
    dichotomy_warning: bool
    grid_shape: tuple
    system: str = ""

    def to_json(self, path=None):
        payload = {
            "schema_version": 1,
            "kind": "theorem_b_report",
            "system": self.system,
            "k_grid": [float(k) for k in self.k_grid],
            "min_sec": [float(v) for v in self.min_sec],
            "positive": [bool(p) for p in self.positive],
            "zero_set": [[float(c) for c in x] for x in self.zero_set],
            "b_has_zero": self.b_has_zero,
            "b_has_nonzero": self.b_has_nonzero,
            "dichotomy_warning": self.dichotomy_warning,
            "grid_shape": list(self.grid_shape),
        }
        if path:
            dump_json(path, payload)
        return json.dumps(payload, sort_keys=True)


def theorem_b_scan(sys, k0, k_steps=8, grid_shape=(24, 24), zero_tol=1e-9, box=None):
    """Scan min over directions of the surface curvature on k in (0, k0).

    For each grid point the direction minimum is analytic:
    min_v [2kK - sqrt(2k) db(Jv) + b^2] = 2kK - sqrt(2k) |db|_g + b^2.
    Reports empirical positivity per k and the zero set of b.  A positive
    scan while b has both zeros and nonzeros is flagged as a resolution
    warning, never as a violation of the underlying dichotomy.
    """
    if sys.dim != 2:
        raise ValueError("theorem_b_scan requires a surface system")
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    bounds = _sample_box(sys, box)
    xs = [np.linspace(lo, hi, m, endpoint=False) for (lo, hi), m in zip(bounds, grid_shape)]
    pg = geom.PointGeometry(sys, np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1).reshape(-1, 2))
    b = field_strength(sys, pg)
    db = field_strength_gradient(sys, pg)
    db_norm = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", db, pg.ginv, db), 0.0))
    kg = gauss_curvature(sys, pg)

    k_grid = [k0 * (i + 1) / (k_steps + 1) for i in range(k_steps)]
    min_sec, positive = [], []
    for k in k_grid:
        m = float(np.min(2.0 * k * kg - np.sqrt(2.0 * k) * db_norm + b ** 2))
        min_sec.append(m)
        positive.append(m > POSITIVITY_GUARD)

    zero = np.abs(b) <= zero_tol
    zero_set = list(pg.x[zero])
    has_zero = bool(np.any(zero))
    has_nonzero = not bool(np.all(zero))
    warning = bool(all(positive) and has_zero and has_nonzero)

    return TheoremBReport(k_grid=k_grid, min_sec=min_sec, positive=positive,
                          zero_set=zero_set, b_has_zero=has_zero,
                          b_has_nonzero=has_nonzero, dichotomy_warning=warning,
                          grid_shape=tuple(grid_shape), system=sys.name)
