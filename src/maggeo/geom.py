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
of vectors one point, and those of the magnetic geodesic equation a
``PointGeometry`` ``pg`` and vectors ``v``, ``V`` with its leading axes.
The equation reads only the fields and solves with g, forming no g^{-1} of
the ``PointGeometry``: at a single point by one LAPACK Cholesky solve, which
rejects a g that is not positive-definite; on a stack by LU, which rejects
only a singular g.  ``PointGeometry`` is the stack API.  A flow or transport
step evaluates its single point in one checked pass instead,
``ChartedSystem.point_fields``: one call of each callback, each value's
shape, exact (anti)symmetry or finite sum tested directly, and the checked
``*_at`` method called only for a value that fails, to raise its named
error; the step's acceleration (``_point_acceleration``) equals
``acceleration`` of the point's ``PointGeometry`` bit for bit, and a
transport step reads a ``PointGeometry`` whose fields come from that pass
(``_point_geometry``).  The flow factorises a stack once per integration,
its sampled points (``flow.integrate``).  ``PointGeometry.frame`` is the
g-orthonormal frame L^{-T} of the stack's Cholesky factor g = L L^T, and
``orthonormal_completion`` completes unit vectors at every point of a stack.
``ChartedSystem`` values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dposv

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
        _check_symmetry(g, x, 1.0, DegenerateMetricError, "metric")
        return g

    def two_form_at(self, x):
        x = np.asarray(x, dtype=float)
        s = self._evaluate("two_form", x, 2)
        _check_symmetry(s, x, -1.0, ValueError, "two_form")
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
        callback ``base`` (rank 2) in every coordinate, ``rank`` times.  A
        non-finite value raises the error of ``base``, naming its first point."""
        x = np.asarray(x, dtype=float)
        if self.scheme == "analytic":
            value = self._evaluate(name, x, 2 + rank)
        else:
            fd = _fd_jacobian if rank == 1 else _fd_hessian
            with np.errstate(invalid="ignore"):   # inf - inf: reported below
                value = fd(lambda z: self._evaluate(base, z, 2), x, self._steps(x))
        if math.isfinite(value.sum()):   # no NaN or inf entry: the common case
            return value
        finite = np.isfinite(value).reshape(x.shape[:-1] + (-1,)).all(axis=-1)
        if not finite.all():
            error = DegenerateMetricError if base == "metric" else ValueError
            raise error(f"{name} not finite at x={x.reshape(-1, self.dim)[np.argmin(finite)]!r}")
        return value

    def dmetric_at(self, x):
        return self._derivative("dmetric", "metric", x, 1)

    def d2metric_at(self, x):
        return self._derivative("d2metric", "metric", x, 2)

    def dtwo_form_at(self, x):
        return self._derivative("dtwo_form", "two_form", x, 1)

    # -- one point in one pass: the fields of a flow step ---------------------

    def point_fields(self, x):
        """(g, dg, sigma) at the single point x of shape (n,), from one call
        of each callback, with every check of ``metric_at``, ``dmetric_at``
        and ``two_form_at``.  Each value is tested exactly: its shape, and
        exact (anti)symmetry or a finite sum, which a NaN or inf entry also
        fails (inf - inf is NaN).  Only a value that fails goes through the
        checked method, which raises its named error or returns a matrix
        (anti)symmetric within tolerance.  Under the fd scheme dg is
        ``dmetric_at``, by central differences of the metric."""
        n = self.dim
        g = np.asarray(self.metric(x), dtype=float)
        if g.shape != (n, n) or np.count_nonzero(g - g.T):
            g = self.metric_at(x)
        if self.scheme == "fd":
            dg = self.dmetric_at(x)
        else:
            dg = np.asarray(self.dmetric(x), dtype=float)
            if dg.shape != (n, n, n) or not math.isfinite(dg.sum()):
                dg = self.dmetric_at(x)
        sigma = np.asarray(self.two_form(x), dtype=float)
        if sigma.shape != (n, n) or np.count_nonzero(sigma + sigma.T):
            sigma = self.two_form_at(x)
        return g, dg, sigma


def _check_symmetry(a, x, sign, error, name):
    """Raise ``error`` at the first point of the stack x where the matrix a
    has a non-finite entry or differs from sign * its transpose by more than
    _SYM_TOL max(1, |a|)."""
    diff = a - a.swapaxes(-1, -2) if sign > 0 else a + a.swapaxes(-1, -2)
    if not np.count_nonzero(diff):   # exactly (anti)symmetric, hence finite: the common case
        return
    finite = np.isfinite(a).all(axis=(-1, -2)).reshape(-1)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-1, -2)))
    bad = ~finite | (np.abs(diff).max(axis=(-1, -2)) > _SYM_TOL * scale).reshape(-1)
    if np.any(bad):
        i = np.argmax(bad)
        why = ("symmetric" if sign > 0 else "antisymmetric") if finite[i] else "finite"
        raise error(f"{name} not {why} at x={x.reshape(-1, x.shape[-1])[i]!r}")


# ---------------------------------------------------------------------------
# everything at one point


class _lazy:
    """An attribute computed by ``fn(instance)`` on first read and then kept
    in the instance's ``__dict__``, which later reads find first.  Unlike
    ``functools.cached_property`` it takes no lock: a PointGeometry belongs
    to the one caller that made it."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _field(method):
    """A field of the system, evaluated and checked by ``sys.<method>`` in one
    call for the point or stack."""
    return _lazy(lambda pg: getattr(pg.sys, method)(pg.x))


class PointGeometry:
    """The fields of ``sys`` at the point or stack of points ``x`` (``g``,
    ``ginv``, ``dg``, ``d2g``, ``sigma``, ``dsigma``, and the primitive
    ``theta`` of systems that have one) and the tensors built from them
    (``gamma``, ``dgamma``, ``riemann``, ``omega``, ``domega``,
    ``nabla_omega``, and the g-orthonormal ``frame``), each computed at most
    once, on first use; indices as in the module docstring, after the
    leading axes of ``x``."""

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
    gamma = _lazy(lambda pg: christoffel(pg.sys, pg))
    riemann = _lazy(lambda pg: riemann_tensor(pg.sys, pg))
    omega = _lazy(lambda pg: lorentz_matrix(pg.sys, pg))
    nabla_omega = _lazy(lambda pg: nabla_omega_tensor(pg.sys, pg))

    @_lazy
    def frame(self):
        """L^{-T} for the Cholesky factor g = L L^T: the g-orthonormal frame
        that ``coordinate_frame`` builds, upper triangular with a positive
        diagonal; one factorisation of the whole stack, which also checks
        every point's g positive-definite."""
        try:
            cho = np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise _degenerate(self, ~(np.linalg.eigvalsh(self.g)[..., 0] > 0.0)) from None
        return np.swapaxes(np.linalg.inv(cho), -1, -2)

    @_lazy
    def ginv(self):
        return self.frame @ np.swapaxes(self.frame, -1, -2)

    @_lazy
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

    @_lazy
    def domega(self):
        """domega[k, j, i] = d_i Om[k, j], the coordinate derivative of Om."""
        # d_i Om = g^{-1} (d_i sigma - (d_i g) Om), from d_i (g Om) = d_i sigma
        return np.einsum("...ka,...aji->...kji", self.ginv,
                         self.dsigma - np.einsum("...abi,...bj->...aji", self.dg, self.omega))


def _degenerate(pg, bad):
    """The ``DegenerateMetricError`` of the first point of pg where ``bad``
    (one flag per point) holds."""
    first = pg.x.reshape(-1, pg.sys.dim)[np.argmax(bad.reshape(-1))]
    return DegenerateMetricError(f"degenerate metric at x={first!r}")


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
# the magnetic geodesic equation and magnetic transport
#
# These read g, dg and sigma (d2g and dsigma for the Jacobian) and solve with
# g once, forming no Christoffel tensor: with the lowered connection
# Gamma_flat(v, w) = g Gamma(v, w), the acceleration is
# a = g^{-1} (sigma v - Gamma_flat(v, v)).  At a single point the solve is
# one LAPACK Cholesky solve, which also rejects a g that is not
# positive-definite; a stack is solved by LU and checked only for
# singularity.


def _along_first(w, t):
    """w^j t[j, ...]: the vectors w against the first axis of the tensors t
    of the stack."""
    k = w.ndim - 1   # the leading axes
    return (w[..., None, :] @ t.reshape(t.shape[:k] + (w.shape[-1], -1))).reshape(
        t.shape[:k] + t.shape[k + 1:])


def _lowered_connection(dg, v):
    """Gamma_flat(v, .)[l, m] = (1/2)(d_v g_ml + v^i d_m g_il - v^i d_l g_im),
    as one (n, n) matrix per point, from dg alone."""
    p = _along_first(v, dg)   # p[l, m] = v^i d_m g_il
    return 0.5 * (((dg @ v[..., None, :, None])[..., 0] - p).swapaxes(-1, -2) + p)


def _point_solve(g, rhs, x):
    """g^{-1} rhs at the single point x by one LAPACK Cholesky solve; a g
    that is not positive-definite raises ``DegenerateMetricError`` naming x."""
    _, out, info = dposv(g, rhs)
    if info > 0:
        raise DegenerateMetricError(f"degenerate metric at x={x!r}")
    return out


def _metric_solve(pg, rhs=None):
    """g^{-1} rhs for a stack of (n, k) right-hand sides, or g^{-1}.  At a
    single point this is ``_point_solve``; on a stack a singular g raises
    ``DegenerateMetricError``, naming its first point."""
    g = pg.g
    if g.ndim == 2:
        return _point_solve(g, np.eye(len(g)) if rhs is None else rhs, pg.x)
    try:
        return np.linalg.inv(g) if rhs is None else np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        raise _degenerate(pg, ~(np.abs(np.linalg.det(g)) > 0.0)) from None


def _force(dg, sigma, v):
    """sigma v - Gamma_flat(v, v) = sigma v - (d_v g) v + (1/2) v^i v^j d g_ij,
    one (n,) vector per point, for a single point or a stack."""
    dvg = (dg @ v[..., None, :, None])[..., 0]      # d_v g
    vdg = (v[..., None, None, :] @ dg)[..., 0, :]   # vdg[i, l] = v^j d_l g_ij
    return ((sigma - dvg) @ v[..., None]
            + 0.5 * (v[..., None, :] @ vdg).swapaxes(-1, -2))[..., 0]


def acceleration(pg, v):
    """dv/dt = Om v - Gamma(v, v) of the flow: g^{-1} ``_force``."""
    return _metric_solve(pg, _force(pg.dg, pg.sigma, v)[..., None])[..., 0]


def acceleration_and_jacobian(pg, v):
    """(a, J_x, J_v): ``acceleration(pg, v)`` and its derivatives by the point
    and by v, from one inversion of g:
    J_x[:, m] = g^{-1}(d_m sigma v - d_m Gamma_flat(v, v) - d_m g a),
    J_v = g^{-1}(sigma - 2 Gamma_flat(v, .)).  d_m Gamma_flat(v, v) is d2g
    against v twice; the derivative index of d2g stays last."""
    ginv, dg, sigma, d2g = _metric_solve(pg), pg.dg, pg.sigma, pg.d2g
    conn = _lowered_connection(dg, v)
    a = (ginv @ ((sigma - conn) @ v[..., None]))[..., 0]
    w = _along_first(v, d2g)   # w[l, i, m] = v^j d_i d_m g_jl
    dconn = (v[..., None, None, :] @ w)[..., 0, :] - 0.5 * _along_first(v, w)
    dforce = (v[..., None, None, :] @ pg.dsigma - a[..., None, None, :] @ dg)[..., 0, :]
    return a, ginv @ (dforce - dconn), ginv @ (sigma - 2.0 * conn)


def _point_geometry(sys, x):
    """The ``PointGeometry`` of the single point x with g, dg and sigma from
    one checked pass of ``sys.point_fields``: a transport step."""
    pg = PointGeometry(sys, x)
    pg.g, pg.dg, pg.sigma = sys.point_fields(x)
    return pg


def _point_acceleration(sys, x, v):
    """``acceleration(PointGeometry(sys, x), v)`` at the single point x, bit
    for bit, from one checked pass of ``sys.point_fields``: the flow step."""
    g, dg, sigma = sys.point_fields(x)
    return _point_solve(g, _force(dg, sigma, v), x)


def transport_rate(pg, v, V):
    """dV/dt = Omega_tilde(V) - Gamma(v, V) of magnetic transport along v."""
    return _omega_tilde(pg, v, V, (_lowered_connection(pg.dg, v) @ V[..., None])[..., 0])


def _omega_tilde(pg, v, V, lowered=0.0):
    """``flow.omega_tilde`` minus g^{-1} lowered, split along v (only its
    direction counts), from one solve with g on the right-hand sides
    [sigma V_1 - lowered | sigma V | sigma V_2]."""
    V = np.asarray(V, dtype=float)
    gv = (pg.g @ v[..., None])[..., 0]
    v2 = np.sum(v * gv, axis=-1)
    if np.any(v2 <= 0.0):
        # v g v <= 0 for a nonzero v only where g is not positive-definite
        not_spd = (v2 <= 0.0) & ~(np.linalg.eigvalsh(pg.g)[..., 0] > 0.0)
        if np.any(not_spd):
            raise _degenerate(pg, not_spd)
        raise ValueError("zero velocity: projections undefined")

    def par(w):
        return (np.sum(w * gv, axis=-1) / v2)[..., None] * v

    v1 = par(V)
    rhs = pg.sigma @ np.stack([v1, V, V - v1], axis=-1)
    rhs[..., 0] -= lowered
    om = _metric_solve(pg, rhs)
    return om[..., 0] + par(om[..., 1]) + 0.5 * (om[..., 2] - par(om[..., 2]))


# ---------------------------------------------------------------------------
# frames


def orthonormal_completion(sys, x, v):
    """Complete unit v to a g-orthonormal frame, columns[0] = v, at a point
    or at each point of a stack (v with the stack's leading axes).

    Gram-Schmidt over the coordinate basis, pivoting at each stage on the
    candidate with the largest residual norm (the first of equal ones), then
    dropping the candidate most aligned with the accepted direction
    (deterministic and stable).  The stages run for the whole stack at once.
    """
    g = PointGeometry.of(sys, x).g
    n = g.shape[-1]
    v = np.asarray(v, dtype=float)
    nv = np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))
    if np.any(np.abs(nv - 1.0) > _UNIT_TOL):
        raise FrameError("frame violation: |v|_g != 1")
    frame = [v / nv[..., None]]
    alive = np.ones(v.shape, dtype=bool)   # the coordinate vectors still candidates
    for _ in range(n - 1):
        r = np.broadcast_to(np.eye(n), g.shape).copy()   # row c: the residual of e_c
        for e in frame:
            r -= ((r @ g) @ e[..., None]) * e[..., None, :]
        rn = np.sqrt(np.maximum(np.einsum("...ci,...ij,...cj->...c", r, g, r), 0.0))
        best = np.argmax(np.where(alive, rn, -1.0), axis=-1)[..., None]
        best_norm = np.take_along_axis(rn, best, axis=-1)
        if np.any(best_norm < 1e-9):
            raise FrameError("degenerate frame")
        e_new = np.take_along_axis(r, best[..., None], axis=-2)[..., 0, :] / best_norm
        frame.append(e_new)
        overlaps = np.where(alive, np.abs((g @ e_new[..., None])[..., 0]), -1.0)
        np.put_along_axis(alive, np.argmax(overlaps, axis=-1)[..., None], False, axis=-1)
    return np.stack(frame, axis=-1)


def coordinate_frame(sys, x):
    """g-orthonormalize the coordinate basis at x by Gram-Schmidt in
    coordinate order (no pivoting).

    Returns an (n, n) matrix whose columns form a g-orthonormal frame; it is
    upper triangular with a positive diagonal, so it equals L^{-T} for the
    Cholesky factor g = L L^T.
    """
    g = PointGeometry.of(sys, x).g
    n = g.shape[0]
    frame = []
    for idx in range(n):
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
