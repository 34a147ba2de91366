"""Chart-level Riemannian and magnetic tensor calculus.

A magnetic system on a coordinate chart is a metric ``g`` together with a
closed antisymmetric two-form ``sigma``; the Lorentz operator is the
(1,1)-tensor ``Omega = g^{-1} sigma``, so that ``<v, Omega(w)>_g =
sigma(v, w)`` for all vectors ``v, w``.

Index conventions (all arrays are plain float64 ndarrays):

================  =====================================================
metric            ``g[i, j]``
metric derivative ``dg[i, j, k]   = d g_ij / d x^k``
second derivative ``d2g[i, j, k, l] = d^2 g_ij / d x^k d x^l``
two-form          ``sigma[i, j]`` (antisymmetric)
christoffel       ``Gamma[k, i, j] = Gamma^k_ij``
riemann           ``R[l, k, i, j]``: ``(R(u,v)w)^l = R[l,k,i,j] u^i v^j w^k``
lorentz           ``Om[k, j]``: ``(Omega w)^k = Om[k, j] w^j``
nabla_omega       ``dOm[k, j, i] = (nabla_{e_i} Omega)^k_j``
================  =====================================================

Sign convention: the sectional curvature of the round unit sphere is +1,
i.e. ``<R(u,v)v, u>_g = 1`` for orthonormal ``u, v``.

Every field callback of a ``ChartedSystem`` maps a point ``x`` of shape
``(n,)`` or a stack of points of shape ``(..., n)`` to an array with the
same leading axes, so a set of points is evaluated in one call.
``PointGeometry(sys, x)`` is the geometry at such a point or stack, whose
arrays carry the same leading axes.  Each field (g, sigma and their
derivatives) is evaluated and checked once per stack, on first use, through
``ChartedSystem.*_at``; one batched Cholesky factorisation gives g^{-1} and
is the positive-definiteness check of every point.  The tensors built from the
fields are cached the same way, each computed once for the whole stack, and
``pg[i]`` is point ``i`` with everything computed so far sliced.  The tensor
functions below take a point or a ``PointGeometry`` as ``x``, the functions
of vectors one point.  ``ChartedSystem`` values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateMetricError, DerivativeStepError, FrameError

DEFAULT_FD_STEP = 1e-5

# Tolerances for cheap input validation.
_SYM_TOL = 1e-10
_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class ChartedSystem:
    """A magnetic system (g, sigma) on a single coordinate chart.

    Every callback takes a point ``x`` of shape ``(n,)`` or a stack of
    points of shape ``(..., n)`` and returns its value at each point, with
    the leading axes of ``x``; ``*_at`` reject a value of any other shape.

    Parameters
    ----------
    dim : int
        Chart dimension, n >= 2.
    metric : callable
        x -> symmetric positive-definite (..., n, n) array.
    two_form : callable
        x -> antisymmetric (..., n, n) array.
    primitive : callable, optional
        x -> (..., n) covector theta with d theta = sigma on the chart
        (or on the universal-cover chart for lattice systems).
    lattice : sequence, optional
        n period lengths; ``None`` entries mark non-periodic coordinates.
    scheme : str
        "analytic" (dmetric/d2metric/dtwo_form callbacks supplied, with
        the derivative indices last) or
        "fd" (central differences with step ``fd_step``).
    fd_step : float
        Base finite-difference step, scaled per coordinate by
        ``max(1, |x_i|)``.
    transition : callable, optional
        (x, v) -> (x', v') chart-swap rule applied when ``|x|`` exceeds
        ``safe_radius`` (used by the built-in two-chart sphere).  The rule
        must be an isometry that preserves the two-form.
    safe_radius : float, optional
        Euclidean chart radius beyond which ``transition`` is applied.
    oriented : bool
        Whether the chart carries the standard orientation (surfaces).
    """

    dim: int
    metric: Callable
    two_form: Callable
    primitive: Optional[Callable] = None
    lattice: Optional[Sequence] = None
    scheme: str = "fd"
    fd_step: float = DEFAULT_FD_STEP
    dmetric: Optional[Callable] = None
    d2metric: Optional[Callable] = None
    dtwo_form: Optional[Callable] = None
    transition: Optional[Callable] = None
    safe_radius: Optional[float] = None
    oriented: bool = True
    name: str = ""
    extras: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if self.scheme not in ("analytic", "fd"):
            raise ValueError(f"unknown derivative scheme {self.scheme!r}")
        if self.scheme == "analytic":
            missing = [n for n, f in (("dmetric", self.dmetric),
                                      ("d2metric", self.d2metric),
                                      ("dtwo_form", self.dtwo_form)) if f is None]
            if missing:
                raise ValueError(f"analytic scheme requires callbacks: {missing}")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.lattice is not None and len(self.lattice) != self.dim:
            raise ValueError("lattice must have one entry per coordinate")

    # -- field evaluation with validation ---------------------------------

    def _evaluate(self, name, x, rank):
        """Callback ``name`` at the point or stack x, checked to return one
        (n,) * rank array per point."""
        value = np.asarray(getattr(self, name)(x), dtype=float)
        expected = x.shape[:-1] + (self.dim,) * rank
        if value.shape != expected:
            raise ValueError(f"{name} callback returned shape {value.shape} for points "
                             f"of shape {x.shape}; expected {expected}")
        return value

    def metric_at(self, x):
        x = np.asarray(x, dtype=float)
        g = self._evaluate("metric", x, 2)
        _check_symmetry(g, x, 1.0, DegenerateMetricError, "metric not symmetric")
        return g

    def two_form_at(self, x):
        x = np.asarray(x, dtype=float)
        s = self._evaluate("two_form", x, 2)
        _check_symmetry(s, x, -1.0, ValueError, "two_form not antisymmetric")
        return s

    def primitive_at(self, x):
        if self.primitive is None:
            return None
        return self._evaluate("primitive", np.asarray(x, dtype=float), 1)

    # -- helpers -----------------------------------------------------------

    def inner(self, x, u, v):
        return float(np.asarray(u) @ self.metric_at(x) @ np.asarray(v))

    def norm(self, x, v):
        return float(np.sqrt(max(self.inner(x, v, v), 0.0)))

    def wrap(self, x):
        """Reduce coordinates (of a point or stack) to the fundamental lattice cell [0, L)."""
        x = np.array(x, dtype=float)
        if self.lattice is None:
            return x
        for i, period in enumerate(self.lattice):
            if period:
                x[..., i] %= period
        return x

    def wrap_diff(self, dx):
        """Reduce a coordinate difference to the minimal lattice image."""
        dx = np.array(dx, dtype=float)
        if self.lattice is None:
            return dx
        for i, period in enumerate(self.lattice):
            if period:
                dx[..., i] -= period * np.round(dx[..., i] / period)
        return dx

    # -- derivative schemes -------------------------------------------------

    def _steps(self, x):
        h = self.fd_step * np.maximum(1.0, np.abs(x))
        bad = np.any((x + h == x) | (x - h == x), axis=-1)
        if np.any(bad):
            first = x.reshape(-1, self.dim)[np.argmax(bad.reshape(-1))]
            raise DerivativeStepError(f"derivative step too small at x={first!r}")
        return h

    def _derivative(self, name, base, x, rank):
        """Callback ``name`` (analytic scheme) or central differences of the
        callback ``base`` (rank 2) in every coordinate, ``rank`` times."""
        x = np.asarray(x, dtype=float)
        if self.scheme == "analytic":
            return self._evaluate(name, x, 2 + rank)
        fd = _fd_jacobian if rank == 1 else _fd_hessian
        return fd(lambda z: self._evaluate(base, z, 2), x, self._steps(x))

    def dmetric_at(self, x):
        return self._derivative("dmetric", "metric", x, 1)

    def d2metric_at(self, x):
        return self._derivative("d2metric", "metric", x, 2)

    def dtwo_form_at(self, x):
        return self._derivative("dtwo_form", "two_form", x, 1)


def _check_symmetry(a, x, sign, error, what):
    """Raise ``error`` at the first point of the stack x where the matrix a
    differs from sign * its transpose by more than _SYM_TOL max(1, |a|)."""
    diff = a - a.swapaxes(-1, -2) if sign > 0 else a + a.swapaxes(-1, -2)
    if not diff.any():   # exactly (anti)symmetric: the common case
        return
    scale = np.maximum(1.0, np.abs(a).max(axis=(-1, -2)))
    bad = np.abs(diff).max(axis=(-1, -2)) > _SYM_TOL * scale
    if np.any(bad):
        first = x.reshape(-1, x.shape[-1])[np.argmax(bad.reshape(-1))]
        raise error(f"{what} at x={first!r}")


# ---------------------------------------------------------------------------
# everything at one point


def _field(method):
    """A field of the system, evaluated and checked by ``sys.<method>`` in one
    call for the point or stack."""
    return cached_property(lambda pg: getattr(pg.sys, method)(pg.x))


class PointGeometry:
    """The fields of ``sys`` at the point or stack of points ``x`` (``g``,
    ``ginv``, ``dg``, ``d2g``, ``sigma``, ``dsigma``, and the primitive
    ``theta`` of systems that have one) and the tensors built from them
    (``gamma``, ``dgamma``, ``riemann``, ``omega``, ``domega``,
    ``nabla_omega``), each computed at most once, on first use; indices as
    in the module docstring, after the leading axes of ``x``."""

    def __init__(self, sys, x):
        self.sys = sys
        self.x = np.asarray(x, dtype=float)

    @classmethod
    def of(cls, sys, x):
        """``x`` if it already is a PointGeometry, else the geometry of sys at x."""
        return x if isinstance(x, cls) else cls(sys, x)

    def __getitem__(self, i):
        """The geometry of point (or sub-stack) ``i``, sharing what is computed."""
        part = PointGeometry(self.sys, self.x[i])
        part.__dict__.update({k: v[i] for k, v in vars(self).items() if k != "sys"})
        return part

    g = _field("metric_at")
    dg = _field("dmetric_at")
    d2g = _field("d2metric_at")
    sigma = _field("two_form_at")
    dsigma = _field("dtwo_form_at")
    theta = _field("primitive_at")
    gamma = cached_property(lambda pg: christoffel(pg.sys, pg))
    riemann = cached_property(lambda pg: riemann_tensor(pg.sys, pg))
    omega = cached_property(lambda pg: lorentz_matrix(pg.sys, pg))
    nabla_omega = cached_property(lambda pg: nabla_omega_tensor(pg.sys, pg))

    @cached_property
    def ginv(self):
        try:
            cho = np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            lowest = np.linalg.eigvalsh(self.g).reshape(-1, self.sys.dim)[:, 0]
            bad = self.x.reshape(-1, self.sys.dim)[np.argmax(~(lowest > 0.0))]  # first failure
            raise DegenerateMetricError(f"degenerate metric at x={bad!r}") from None
        inv_l = np.linalg.inv(cho)
        return np.swapaxes(inv_l, -1, -2) @ inv_l

    @cached_property
    def dgamma(self):
        """dgamma[k, i, j, m] = d_m Gamma^k_ij."""
        d2g = self.d2g
        dterm = (np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
                 - np.einsum("...ijlm->...lijm", d2g))
        # Gamma = (1/2) g^{-1} T with T built from dg as in christoffel, and
        # d_m g^{-1} = -g^{-1} (d_m g) g^{-1}, so
        # d_m Gamma = g^{-1} ((1/2) d_m T - (d_m g) Gamma)
        return np.einsum("...kl,...lijm->...kijm", self.ginv,
                         0.5 * dterm - np.einsum("...lbm,...bij->...lijm", self.dg, self.gamma))

    @cached_property
    def domega(self):
        """domega[k, j, i] = d_i Om[k, j], the coordinate derivative of Om."""
        # d_i Om = g^{-1} (d_i sigma - (d_i g) Om), from d_i (g Om) = d_i sigma
        return np.einsum("...ka,...aji->...kji", self.ginv,
                         self.dsigma - np.einsum("...abi,...bj->...aji", self.dg, self.omega))


# ---------------------------------------------------------------------------
# finite differences


def _per_point(a, value):
    """a, with one entry per point of the stack, aligned to broadcast
    against ``value``, which has the stack's leading axes."""
    return a.reshape(a.shape + (1,) * (value.ndim - a.ndim))


def _fd_jacobian(fn, x, h):
    """Central-difference coordinate derivatives of fn at the point or stack
    x, shape fn(x).shape + (n,); 2n calls of ``fn``, each on the whole stack."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., k] = h[..., k]
        diff = fn(x + e) - fn(x - e)
        cols.append(diff / _per_point(2.0 * h[..., k], diff))
    return np.stack(cols, axis=-1)


def _fd_hessian(fn, x, h):
    """Central-difference second derivatives, shape fn(x).shape + (n, n);
    2n^2 + 1 calls of ``fn``, each on the whole stack."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    base = fn(x)
    out = np.empty(base.shape + (n, n))
    e = np.zeros((n,) + x.shape)
    for k in range(n):
        e[k][..., k] = h[..., k]
    hs = [_per_point(h[..., k], base) for k in range(n)]
    for k in range(n):
        out[..., k, k] = (fn(x + e[k]) - 2.0 * base + fn(x - e[k])) / hs[k] ** 2
        for l in range(k + 1, n):
            mixed = (fn(x + e[k] + e[l]) - fn(x + e[k] - e[l])
                     - fn(x - e[k] + e[l]) + fn(x - e[k] - e[l]))
            mixed /= 4.0 * hs[k] * hs[l]
            out[..., k, l] = mixed
            out[..., l, k] = mixed
    return out


# ---------------------------------------------------------------------------
# connection and curvature


def christoffel(sys, x):
    """Christoffel symbols Gamma[k, i, j] = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    pg = PointGeometry.of(sys, x)
    ginv, dg = pg.ginv, pg.dg
    # dg[j, l, i] = d_i g_jl
    term = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
            - np.einsum("...ijl->...lij", dg))
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def riemann_tensor(sys, x):
    """Curvature R[l, k, i, j] with (R(u,v)w)^l = R[l,k,i,j] u^i v^j w^k."""
    pg = PointGeometry.of(sys, x)
    gam, dgam = pg.gamma, pg.dgamma
    return (np.einsum("...ljki->...lkij", dgam) - np.einsum("...likj->...lkij", dgam)
            + np.einsum("...lim,...mjk->...lkij", gam, gam)
            - np.einsum("...ljm,...mik->...lkij", gam, gam))


def riemann(sys, x, u, v, w):
    """The curvature vector R(u,v)w; trilinear in (u, v, w)."""
    return np.einsum("lkij,i,j,k->l", PointGeometry.of(sys, x).riemann, np.asarray(u, float),
                     np.asarray(v, float), np.asarray(w, float))


def sectional(sys, x, u, v):
    """Sectional curvature of the plane spanned by u, v."""
    pg = PointGeometry.of(sys, x)
    g = pg.g
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    area2 = uu * vv - uv * uv
    if area2 <= 0:
        raise FrameError("degenerate frame: u, v do not span a plane")
    return float(riemann(sys, pg, u, v, v) @ g @ u) / area2


def ricci(sys, x, v):
    """Ricci curvature Ric(v, v) = trace of u -> R(u, v)v (basis independent)."""
    v = np.asarray(v, dtype=float)
    return float(np.einsum("ikij,j,k->", PointGeometry.of(sys, x).riemann, v, v))


# ---------------------------------------------------------------------------
# Lorentz operator


def lorentz_matrix(sys, x):
    """Matrix of the Lorentz operator, Om = g^{-1} sigma."""
    pg = PointGeometry.of(sys, x)
    return pg.ginv @ pg.sigma


def lorentz(sys, x, w):
    """Omega(w): the unique g-antisymmetric operator with <v, Omega(w)> = sigma(v, w)."""
    return PointGeometry.of(sys, x).omega @ np.asarray(w, dtype=float)


def nabla_omega_tensor(sys, x):
    """Covariant derivative of Omega: dOm[k, j, i] = (nabla_{e_i} Omega)^k_j."""
    pg = PointGeometry.of(sys, x)
    om, gam = pg.omega, pg.gamma
    return (pg.domega + np.einsum("...kil,...lj->...kji", gam, om)
            - np.einsum("...lij,...kl->...kji", gam, om))


def nabla_omega(sys, x, w, v):
    """(nabla_w Omega)(v); bilinear in (w, v)."""
    return np.einsum("kji,i,j->k", PointGeometry.of(sys, x).nabla_omega,
                     np.asarray(w, float), np.asarray(v, float))


# ---------------------------------------------------------------------------
# frames


def orthonormal_completion(sys, x, v):
    """Complete unit v to a g-orthonormal frame, columns[0] = v.

    Gram-Schmidt over the coordinate basis, pivoting at each stage on the
    candidate with the largest residual norm (deterministic and stable).
    """
    g = PointGeometry.of(sys, x).g
    n = g.shape[0]
    v = np.asarray(v, dtype=float)
    nv = float(np.sqrt(v @ g @ v))
    if abs(nv - 1.0) > _UNIT_TOL:
        raise FrameError("frame violation: |v|_g != 1")
    frame = [v / nv]
    candidates = list(np.eye(n))
    for _ in range(n - 1):
        best, best_norm = None, -1.0
        for c in candidates:
            r = c.copy()
            for e in frame:
                r -= (r @ g @ e) * e
            rn = float(np.sqrt(max(r @ g @ r, 0.0)))
            if rn > best_norm:
                best, best_norm = r, rn
        if best_norm < 1e-9:
            raise FrameError("degenerate frame")
        e_new = best / best_norm
        frame.append(e_new)
        # drop the coordinate vector most aligned with the accepted direction
        overlaps = [abs(c @ g @ e_new) for c in candidates]
        candidates.pop(int(np.argmax(overlaps)))
    return np.column_stack(frame)


def coordinate_frame(sys, x, order=None):
    """g-orthonormalize the coordinate basis at x (pivoted, deterministic).

    Returns an (n, n) matrix whose columns form a g-orthonormal frame.
    ``order`` overrides the pivot order (used to probe frame invariance).
    """
    g = PointGeometry.of(sys, x).g
    n = g.shape[0]
    if order is None:
        order = range(n)
    frame = []
    for idx in order:
        r = np.eye(n)[idx].astype(float)
        for e in frame:
            r -= (r @ g @ e) * e
        rn = float(np.sqrt(max(r @ g @ r, 0.0)))
        if rn < 1e-12:
            raise FrameError("degenerate frame")
        frame.append(r / rn)
    return np.column_stack(frame)


def exterior_derivative_residual(sys, x):
    """Max norm of (d theta - sigma)_ij at the point or stack x, by central differences.

    Only available when a primitive is present; used to validate user input.
    """
    if sys.primitive is None:
        raise ValueError("system has no primitive")
    x = np.asarray(x, dtype=float)
    dtheta = _fd_jacobian(sys.primitive_at, x, sys._steps(x))  # dtheta[j, i] = d_i theta_j
    ext = np.swapaxes(dtheta, -1, -2) - dtheta  # (d theta)_ij = d_i theta_j - d_j theta_i
    return float(np.max(np.abs(ext - sys.two_form_at(x))))
