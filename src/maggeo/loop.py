"""Discretized free-period loop space.

A loop is stored as N nodes over the unit-circle parameter s = i/N plus a
free period T; a vector field along the loop lives at the same nodes.
Loop derivatives are Fourier collocation derivatives on the periodic
s-grid (exact on trigonometric polynomials below the Nyquist mode, and
summation by parts holds exactly because the derivative matrix is
antisymmetric).  A variation may carry explicit nodal s-derivatives; when
absent they are obtained spectrally from the nodal values.

Quadrature is the rectangle rule on the periodic grid, which integrates
trigonometric polynomials below the Nyquist mode exactly and is O(N^-2)
in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from . import geom
from .errors import ActionUndefinedError, FrameError, NotCriticalError
from .io import SCHEMA_VERSION, dump_csv

MIN_NODES = 8
# Scale-aware gate for "loop is a numerical zero of the action form".
ETA_GATE_SCALE = 1e-5
# Relative spectral threshold separating negative from near-zero modes.
INDEX_EPSILON_SCALE = 1e-7
# Gauss-Legendre nodes of the radial quadrature of the capping-disk integral.
DISK_RADIAL_NODES = 24


def spectral_derivative(arr, axis=0):
    """d/ds on the periodic unit-s grid via FFT collocation."""
    arr = np.asarray(arr, dtype=float)
    n = arr.shape[axis]
    coef = np.fft.rfft(arr, axis=axis)
    freqs = 2j * np.pi * np.arange(coef.shape[axis])
    if n % 2 == 0:
        freqs[-1] = 0.0  # keep the derivative operator antisymmetric
    shape = [1] * arr.ndim
    shape[axis] = -1
    return np.fft.irfft(coef * freqs.reshape(shape), n=n, axis=axis)


def spectral_antiderivative(arr):
    """Antiderivative (in s) of a zero-mean periodic sequence, pinned to 0 at s=0."""
    arr = np.asarray(arr, dtype=float)
    n = arr.shape[0]
    coef = np.fft.rfft(arr, axis=0)
    freqs = 2j * np.pi * np.arange(len(coef))
    out = np.zeros_like(coef)
    out[1:] = coef[1:] / freqs[1:]
    prim = np.fft.irfft(out, n=n, axis=0)
    return prim - prim[0]


@dataclass(eq=False)
class DiscreteLoop:
    """Closed polyline with free period.

    ``nodes`` holds the unwrapped lift; for lattice charts ``winding``
    records the total lattice displacement over one turn, so the
    continuation of the loop satisfies x(s+1) = x(s) + winding * L.
    """

    nodes: np.ndarray      # (N, n), unwrapped
    period: float
    winding: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[0] < MIN_NODES:
            raise ValueError(f"loop needs at least {MIN_NODES} nodes")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.winding is None:
            self.winding = np.zeros(self.nodes.shape[1], dtype=int)
        self.winding = np.asarray(self.winding, dtype=int)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]

    @property
    def s(self):
        return np.arange(self.n_nodes) / self.n_nodes

    def drift(self, sys):
        d = np.zeros(self.dim)
        if sys.lattice is not None:
            for i, period in enumerate(sys.lattice):
                if period:
                    d[i] = self.winding[i] * period
        return d

    def validate_steps(self, sys):
        if sys.lattice is None:
            return
        periods = [p for p in sys.lattice if p]
        if not periods:
            return
        bound = 0.5 * min(periods)
        gaps = np.diff(np.vstack([self.nodes, self.nodes[0] + self.drift(sys)]), axis=0)
        if np.max(np.abs(gaps)) >= bound:
            raise ValueError("consecutive nodes exceed the chart step bound")


@dataclass
class Variation:
    """Loop-space tangent vector: nodal field plus period coefficient tau.

    ``dvectors`` optionally carries exact nodal s-derivatives (used for
    fields that are not smooth enough for spectral differentiation, e.g.
    windowed profiles).
    """

    vectors: np.ndarray
    tau: float = 0.0
    dvectors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("variation has non-finite entries")
        if self.dvectors is not None:
            self.dvectors = np.asarray(self.dvectors, dtype=float)

    def d(self):
        if self.dvectors is not None:
            return self.dvectors
        return spectral_derivative(self.vectors)


# ---------------------------------------------------------------------------
# cached pointwise geometry along a loop


class _LoopGeometry:
    def __init__(self, sys, loop):
        loop.validate_steps(sys)
        drift = loop.drift(sys)
        xper = loop.nodes - np.outer(loop.s, drift)
        self.xdot = spectral_derivative(xper) + drift
        self.xddot = spectral_derivative(self.xdot)
        pg = self.geometry = geom.PointGeometry(sys, loop.nodes)
        self.g, self.gamma, self.omega = pg.g, pg.gamma, pg.omega
        self.speed = np.sqrt(np.einsum("ni,nij,nj->n", self.xdot, self.g, self.xdot))
        with np.errstate(invalid="ignore", divide="ignore"):
            self.unit = np.where(self.speed[:, None] > 0.0,
                                 self.xdot / np.where(self.speed == 0.0, 1.0,
                                                      self.speed)[:, None], 0.0)

    def require_immersed(self):
        """Reject loops with zero-speed nodes (constant loops included)."""
        if float(np.min(self.speed)) <= 1e-12 * max(1.0, float(np.max(self.speed))):
            raise ValueError("singular parametrization: zero-speed node")
        return self

    @cached_property
    def gamma_xdot(self):
        """Gamma(xdot, .) at each node: V -> V' - dV/ds is gamma_xdot @ V."""
        return np.einsum("nkab,na->nkb", self.gamma, self.xdot)

    @cached_property
    def curvature_blocks(self):
        """Per-node matrices M1[a,b] = <R(e_a, xdot)xdot, e_b>_g and
        M2[a,b] = <(D_{e_a} Om)(xdot), e_b>_g."""
        pg = self.geometry
        rv = np.einsum("nlkij,nj,nk->nli", pg.riemann, self.xdot, self.xdot)   # rv[n, l, a]
        dv = np.einsum("nkji,nj->nki", pg.nabla_omega, self.xdot)             # dv[n, k, a]
        return (np.einsum("nla,nlb->nab", rv, self.g),
                np.einsum("nka,nkb->nab", dv, self.g))


def _loop_geometry(sys, loop):
    key = id(sys)
    cache = loop._cache
    if key not in cache:
        cache[key] = _LoopGeometry(sys, loop)
    return cache[key]


def loop_from_orbit(orbit, n_nodes=256):
    """Resample a closed orbit onto a uniform loop grid."""
    from .flow import dense_states

    if orbit.meta.get("chart_swaps_total", 0) != 0:
        raise ValueError("loop resampling across chart transitions is unsupported")
    states, _ = dense_states(orbit.segments, orbit.period * np.arange(n_nodes) / n_nodes)
    return DiscreteLoop(nodes=states[:, :orbit.dim], period=orbit.period,
                        winding=orbit.winding.copy())


# ---------------------------------------------------------------------------
# action and action form


def _magnetic_term(sys, loop):
    lg = _loop_geometry(sys, loop)
    if sys.primitive is not None:
        return float(np.einsum("ni,ni->", lg.geometry.theta, lg.xdot)) / loop.n_nodes
    if np.any(loop.winding):
        raise ActionUndefinedError("no global primitive; action undefined")
    # capping-disk integral over the cone from the loop centroid
    center = loop.nodes.mean(axis=0)
    rel = loop.nodes - center
    nodes_r, weights_r = np.polynomial.legendre.leggauss(DISK_RADIAL_NODES)
    nodes_r = 0.5 * (nodes_r + 1.0)
    weights_r = 0.5 * weights_r
    sig = geom.PointGeometry(sys, center + nodes_r[:, None, None] * rel).sigma
    flux = np.einsum("ni,rnij,nj->r", rel, sig, lg.xdot)
    return float(np.sum(weights_r * nodes_r * flux)) / loop.n_nodes


def action(sys, loop, k):
    """Free-period action S_k = int (|gamma'|^2/2 + k) dt + magnetic term.

    The magnetic term is the line integral of the primitive along the
    unwrapped lift when a primitive is available, otherwise the capping
    disk integral of the two-form (contractible loops only).
    """
    if k <= 0:
        raise ValueError("energy k must be positive")
    lg = _loop_geometry(sys, loop)
    kinetic = 0.5 * float(np.mean(lg.speed ** 2)) / loop.period
    return kinetic + k * loop.period + _magnetic_term(sys, loop)


def _closing_terms(pg, xdot, xddot, T, k):
    """Closing conditions at nodes with geometry ``pg``, s-derivatives ``xdot``,
    ``xddot`` and period T: the force T^2 (D(gamma')/dt - Om(gamma')) in loop
    units, and the period component c_tau = mean(k - |gamma'|^2/2) of eta."""
    force = xddot - T ** 2 * geom.acceleration(pg, xdot / T)
    speed2 = np.einsum("ni,nij,nj->n", xdot, pg.g, xdot)
    return force, k - float(np.mean(speed2)) / (2.0 * T ** 2)


def _force_residual(sys, loop, k):
    """Nodal data of eta: F = D(gamma')/dt - Om(gamma') in t-units, plus
    the period component c_tau with eta(0, tau) = tau * c_tau."""
    lg = _loop_geometry(sys, loop)
    force, c_tau = _closing_terms(lg.geometry, lg.xdot, lg.xddot, loop.period, k)
    return force / loop.period ** 2, c_tau, lg


def eta_k(sys, loop, k, variation):
    """The action form: eta(V, tau) = -int <D(gamma')/dt - Om(gamma'), V> dt
    + (tau/T) int (k - |gamma'|^2/2) dt; linear in (V, tau)."""
    force, c_tau, lg = _force_residual(sys, loop, k)
    top = float(np.max(lg.speed))
    if top > 0.0 and float(np.min(lg.speed)) <= 1e-12 * top:
        raise ValueError("singular parametrization: zero-speed node")
    v = np.asarray(variation.vectors, dtype=float)
    pairing = float(np.einsum("nk,nkl,nl->", force, lg.g, v)) / loop.n_nodes
    return -loop.period * pairing + variation.tau * c_tau


def eta_norm(sys, loop, k):
    """Upper estimate of the dual norm of eta at the loop (L2-dual of the
    nodal representative; an upper bound for the H1 dual norm), computed
    once per loop, system and k."""
    key = ("eta", id(sys), k)
    cache = loop._cache
    if key not in cache:
        force, c_tau, lg = _force_residual(sys, loop, k)
        sq = float(np.einsum("nk,nkl,nl->", force, lg.g, force)) / loop.n_nodes
        cache[key] = float(np.sqrt(loop.period * sq + c_tau ** 2))
    return cache[key]


def eta_gate(loop):
    return ETA_GATE_SCALE * (1.0 + loop.period)


def _require_critical(sys, loop, k):
    g = eta_gate(loop)
    res = eta_norm(sys, loop, k)
    if res > g:
        raise NotCriticalError(f"not at a critical loop: |eta| = {res:.3e} > gate {g:.3e}")
    return res


# ---------------------------------------------------------------------------
# Hessian of the action form
#
# The index forms pair m variations at once.  A stack holds them along its
# last axis: values and covariant s-derivatives as (N, n, m) arrays, period
# coefficients as (m,).  A per-node n x n matrix then acts on all m of them
# by one matmul over the node axis, and a pairing is one matmul over the
# flattened (N n) axis.


class _Stack(NamedTuple):
    vs: np.ndarray     # values
    vcov: np.ndarray   # covariant s-derivatives dV/ds + Gamma(xdot, V)
    taus: np.ndarray


def _stack(lg, vs, dvs, taus):
    """The stack of the variations with values vs and s-derivatives dvs,
    each (N, n, m), and period coefficients taus."""
    return _Stack(vs, dvs + lg.gamma_xdot @ vs, taus)


def _as_stack(lg, variations):
    """A list of ``Variation`` as a stack; a stack is returned as it is."""
    if isinstance(variations, _Stack):
        return variations
    return _stack(lg, np.stack([v.vectors for v in variations], axis=-1),
                  np.stack([v.d() for v in variations], axis=-1),
                  np.array([v.tau for v in variations], dtype=float))


def _pair(a, b):
    """Matrix of the nodal pairings sum_n <a_c(n), b_d(n)> of two stacks:
    one matmul over the flattened (N n) axis."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _hessian_blocks(sys, loop, k, variations):
    """Symmetric matrix of the second-variation quadratic form over the
    given variations (a list of ``Variation`` or a stack; standard
    three-integral expression).

    Each term applies n x n matrices per node to the whole stack and then
    pairs the variations with one matmul over the flattened (N n) axis.
    """
    lg = _loop_geometry(sys, loop)
    T = loop.period
    vs, vcov, taus = _as_stack(lg, variations)
    g_vcov = lg.g @ vcov
    p = (lg.xdot[:, None, :] @ g_vcov)[:, 0, :]   # p[n, d] = <V_d', xdot>_g

    # kinetic + magnetic first-order term (symmetrized below)
    b1 = _pair(vcov, g_vcov) / T - _pair(lg.omega @ vs, g_vcov)

    # curvature term, folded into one symmetric matrix per node
    m1, m2 = lg.curvature_blocks
    ms = 0.5 * (m1 + np.swapaxes(m1, 1, 2)) / T - 0.5 * (m2 + np.swapaxes(m2, 1, 2))
    b2 = -_pair(vs, ms @ vs)

    b3 = -(p / lg.speed[:, None] ** 2).T @ p / T

    q = p / lg.speed[:, None] - taus * lg.speed[:, None] / T
    b4 = q.T @ q / T

    b = (b1 + b2 + b3 + b4) / loop.n_nodes
    return 0.5 * (b + b.T)


def hessian_form(sys, loop, k, variation):
    """Q(V, tau): quadrature of the second variation at a numerical zero:

        int [<V' - Om V, V'> - <R(V, u)u - (D_V Om)(u), V>] dt
        - int <V', u>^2/|u|^2 dt + int (<V', u>/|u| - (tau/T)|u|)^2 dt

    with u = gamma' and V' the covariant derivative of V along the loop.
    """
    _require_critical(sys, loop, k)
    _loop_geometry(sys, loop).require_immersed()
    b = _hessian_blocks(sys, loop, k, [variation])
    return float(b[0, 0])


def hessian_form_curvature(sys, loop, k, variation):
    """Q(V, tau) through the curvature expression:

        int |(V')_2 - (1/2)(Om(V_1) + Om(V))_2|^2 dt
        - int <M_k(u/|u|, V_2), V_2> dt
        + int (<V', u>/|u| - (tau/T)|u|)^2 dt

    The curvature integrand is evaluated in its removable (unnormalized)
    quadratic form, with the energy read pointwise from the loop speed
    (identical to the nominal k on the zero set).
    """
    _require_critical(sys, loop, k)
    lg = _loop_geometry(sys, loop).require_immersed()
    T = loop.period
    v = np.asarray(variation.vectors, dtype=float)
    dv = variation.d()
    tau = variation.tau

    vcov = dv + np.einsum("nkb,nb->nk", lg.gamma_xdot, v)
    p = np.einsum("nk,nkl,nl->n", vcov, lg.g, lg.xdot)

    def perp(w):
        coeff = np.einsum("nk,nkl,nl->n", w, lg.g, lg.xdot) / lg.speed ** 2
        return w - coeff[:, None] * lg.xdot

    v2 = perp(v)
    v1 = v - v2
    vcov2 = perp(vcov)
    om_mix = np.einsum("nkj,nj->nk", lg.omega, v1 + v)
    w2 = vcov2 / T - 0.5 * perp(om_mix)
    c1 = T * float(np.mean(np.einsum("nk,nkl,nl->n", w2, lg.g, w2)))

    m1, m2 = lg.curvature_blocks
    om_u = np.einsum("nkj,nj->nk", lg.omega, lg.unit)
    om_v2 = np.einsum("nkj,nj->nk", lg.omega, v2)
    curv = (np.einsum("na,nab,nb->n", v2, m1, v2) / T
            - np.einsum("na,nab,nb->n", v2, m2, v2)
            + T * (0.75 * np.einsum("nk,nkl,nl->n", v2, lg.g, om_u) ** 2
                   + 0.25 * np.einsum("nk,nkl,nl->n", om_v2, lg.g, om_v2)))
    c2 = float(np.mean(curv))

    q = p / lg.speed - tau * lg.speed / T
    c3 = float(np.mean(q ** 2)) / T
    return c1 - c2 + c3


# ---------------------------------------------------------------------------
# test variations


def make_test_variation(sys, loop, v_field, dv_field=None, tol=1e-8):
    """Cancel the tangential square term of the Hessian for a normal field.

    Given V with <V, gamma'> = 0 everywhere, build tau and a periodic
    reparametrization profile p with p(0) = p(T) = 0 solving

        p' + <V', gamma'>/|gamma'|^2 - tau/T = 0,

    and return W = V + p * gamma' (with tau), for which the last square of
    the second variation vanishes pointwise.
    """
    lg = _loop_geometry(sys, loop).require_immersed()
    T = loop.period
    v = np.asarray(v_field, dtype=float)
    tang = np.einsum("nk,nkl,nl->n", v, lg.g, lg.xdot)
    if np.max(np.abs(tang)) > tol * max(1.0, float(np.max(np.abs(v)))) * float(np.max(lg.speed)):
        raise FrameError("frame violation: field not normal to the loop")
    dv = np.asarray(dv_field, dtype=float) if dv_field is not None else spectral_derivative(v)
    vcov = dv + np.einsum("nkb,nb->nk", lg.gamma_xdot, v)
    phi = np.einsum("nk,nkl,nl->n", vcov, lg.g, lg.xdot) / lg.speed ** 2
    mean = float(np.mean(phi))
    tau = T * mean
    prof = -T * spectral_antiderivative(phi - mean)
    dprof = -T * (phi - mean)
    w = v + prof[:, None] * lg.xdot / T
    dw = dv + (dprof[:, None] * lg.xdot + prof[:, None] * lg.xddot) / T
    return Variation(vectors=w, tau=tau, dvectors=dw)


def transport_derivative(sys, loop, v_field):
    """Nodal s-derivative of a solution of the transport equation
    DV/dt = Omega_tilde(V), read off the equation itself."""
    lg = _loop_geometry(sys, loop)
    return loop.period * geom.transport_rate(lg.geometry, lg.xdot / loop.period, v_field)


def sine_mode_variation(sys, loop, v_field, window, mode_count, dv_field=None):
    """Windowed sine profile on top of a unit normal transported field.

    Multiplies V by f(s) = sin((m+1) pi s) restricted to the window
    [j/(m+1), (j+1)/(m+1)] and routes the product through
    ``make_test_variation``; the resulting Hessian value approximates
    int (f'^2 - f^2 Sec_k) dt over the window.
    """
    m = mode_count
    if not 0 <= window <= m:
        raise ValueError("window index out of range")
    s = loop.s
    v = np.asarray(v_field, dtype=float)
    if dv_field is None:
        dv_field = transport_derivative(sys, loop, v)
    lo, hi = window / (m + 1), (window + 1) / (m + 1)
    inside = (s >= lo - 1e-12) & (s <= hi + 1e-12)
    f = np.where(inside, np.sin((m + 1) * np.pi * s), 0.0)
    # half-open slope convention: the left edge node carries the interior
    # slope, the right edge node belongs to the next window.  The edge
    # errors of the two ends cancel to O(N^-2) and distinct windows never
    # share a nonzero slope node (exact block structure).
    inside_df = (s >= lo - 1e-12) & (s < hi - 1e-12)
    df_full = (m + 1) * np.pi * np.cos((m + 1) * np.pi * s)
    df = np.where(inside_df, df_full, 0.0)
    vf = f[:, None] * v
    dvf = df[:, None] * v + f[:, None] * np.asarray(dv_field, dtype=float)
    return make_test_variation(sys, loop, vf, dvf)


# ---------------------------------------------------------------------------
# Morse index


@dataclass
class IndexReport:
    """Eigenvalue-based Morse index estimate."""

    mode_count: int
    dim_variation: int
    eigenvalues: np.ndarray
    negative: int
    near_zero: int
    positive: int
    epsilon: float

    @property
    def index(self):
        return self.negative

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "index_report",
            "mode_count": self.mode_count,
            "dim_variation": self.dim_variation,
            "negative": self.negative,
            "near_zero": self.near_zero,
            "positive": self.positive,
            "epsilon": float(self.epsilon),
            "eigenvalues": [float(e) for e in self.eigenvalues],
        }

    def spectra_to_csv(self, path):
        dump_csv(path, ["i", "eigenvalue"],
                 [[i, float(e)] for i, e in enumerate(self.eigenvalues)])


def loop_frame(sys, loop):
    """Periodic g-orthonormal frame along the loop (Gram-Schmidt of the
    coordinate basis with a fixed pivot order, ``PointGeometry.frame`` of the
    node stack), plus its s-derivative."""
    frames = _loop_geometry(sys, loop).geometry.frame
    return frames, spectral_derivative(frames)


def _basis_arrays(sys, loop, mode_count):
    """Values and s-derivatives, each (N, n, m), and period coefficients of
    the index basis: each leg of ``loop_frame`` times the Fourier modes
    cos 0, cos 1, sin 1, ..., sin mode_count, leg after leg, then the pure
    period direction."""
    frames, dframes = loop_frame(sys, loop)
    j = np.arange(mode_count + 1)[:, None]
    arg = 2.0 * np.pi * j * loop.s
    cos, sin = np.cos(arg), np.sin(arg)

    def modes(c, sn):   # the rows c_0, c_1, sn_1, c_2, sn_2, ... as (N, 1, 1, 2J + 1)
        rows = np.delete(np.stack([c, sn], axis=1).reshape(-1, loop.n_nodes), 1, axis=0)
        return rows.T[:, None, None, :]

    f, df = modes(cos, sin), modes(-2.0 * np.pi * j * sin, 2.0 * np.pi * j * cos)
    shape = (loop.n_nodes, loop.dim, loop.dim * (2 * mode_count + 1) + 1)
    vs, dvs, taus = np.zeros(shape), np.zeros(shape), np.zeros(shape[-1])
    vs[..., :-1] = (frames[..., None] * f).reshape(shape[:2] + (-1,))
    dvs[..., :-1] = (frames[..., None] * df + dframes[..., None] * f).reshape(shape[:2] + (-1,))
    taus[-1] = 1.0
    return vs, dvs, taus


def variation_basis(sys, loop, mode_count):
    """Fourier modes times frame fields, plus the pure period direction, as
    ``Variation`` views of the stack ``morse_index`` assembles."""
    vs, dvs, taus = _basis_arrays(sys, loop, mode_count)
    return [Variation(vs[..., i], tau=taus[i], dvectors=dvs[..., i])
            for i in range(len(taus))]


def gram_matrix(sys, loop, variations):
    """H1-type Gram matrix: int (<V_c, V_d> + <V_c', V_d'>) ds + tau_c tau_d,
    over a list of ``Variation`` or a stack."""
    lg = _loop_geometry(sys, loop)
    vs, vcov, taus = _as_stack(lg, variations)
    g = (_pair(vs, lg.g @ vs) + _pair(vcov, lg.g @ vcov)) / loop.n_nodes
    g += np.outer(taus, taus)
    return 0.5 * (g + g.T)


def morse_index(sys, loop, k, mode_count=32):
    """Morse index of a numerical zero of the action form.

    Projects the Hessian onto Fourier modes of a periodic orthonormal
    frame (plus the period direction), solves the generalized symmetric
    eigenproblem against the H1 Gram matrix, and counts eigenvalues below
    -epsilon with epsilon = 1e-7 * max |eigenvalue|.  Near-zero modes (the
    reparametrization direction always contributes one) are reported
    separately and never counted as negative.
    """
    _require_critical(sys, loop, k)
    lg = _loop_geometry(sys, loop).require_immersed()
    basis = _stack(lg, *_basis_arrays(sys, loop, mode_count))
    b = _hessian_blocks(sys, loop, k, basis)
    g = gram_matrix(sys, loop, basis)
    eigvals = scipy.linalg.eigh(b, g, eigvals_only=True)
    eps = INDEX_EPSILON_SCALE * float(np.max(np.abs(eigvals)))
    negative = int(np.sum(eigvals < -eps))
    near = int(np.sum(np.abs(eigvals) <= eps))
    return IndexReport(mode_count=mode_count, dim_variation=len(eigvals),
                       eigenvalues=np.sort(eigvals), negative=negative,
                       near_zero=near, positive=len(eigvals) - negative - near,
                       epsilon=eps)


# ---------------------------------------------------------------------------
# critical-value bound


@dataclass
class ManeReport:
    """Sampled certified upper bound for the critical value."""

    bound: float
    sup_theta: list
    regions: list
    unbounded_evidence: bool
    n_samples: int
    seed: int

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "mane_report",
            "bound": float(self.bound),
            "sup_theta": [float(v) for v in self.sup_theta],
            "regions": [[[float(a), float(b)] for a, b in box] for box in self.regions],
            "unbounded_evidence": self.unbounded_evidence,
            "note": ("sup |theta| grows across nested regions; "
                     "unbounded primitive evidence; critical value +inf plausible")
                    if self.unbounded_evidence else "",
            "n_samples": self.n_samples,
            "seed": self.seed,
        }

    def to_csv(self, path):
        dump_csv(path, ["region", "sup_theta"], [[i, s] for i, s in enumerate(self.sup_theta)])


def mane_upper_bound(sys, region, n_samples=4096, seed=0):
    """Bound the critical value by (1/2) (sup_x |theta_x|_g)^2 over samples.

    The pointwise estimate |v|^2/2 + k + theta(v) >= k - |theta|^2/2 makes
    the action nonnegative for k above the bound.  ``region`` is one box
    [(lo, hi), ...] or a nested list of boxes; for several regions the
    growth of the sampled sup is reported as evidence of an unbounded
    primitive (critical value +inf).
    """
    if sys.primitive is None:
        raise ActionUndefinedError("no primitive")
    regions = region
    if regions and isinstance(regions[0], (tuple, list)) and np.isscalar(regions[0][0]):
        regions = [region]
    regions = [[(float(lo), float(hi)) for lo, hi in box] for box in regions]
    from scipy.stats import qmc

    sups = []
    for box in regions:
        lo, hi = np.array(box).T
        pts = qmc.Halton(d=sys.dim, seed=seed).random(n_samples)
        pg = geom.PointGeometry(sys, lo + (hi - lo) * pts)
        theta_sq = np.einsum("ni,nij,nj->n", pg.theta, pg.ginv, pg.theta)
        sups.append(float(np.sqrt(max(float(np.max(theta_sq)), 0.0))))
    growing = len(sups) >= 2 and all(b > a * (1.0 + 1e-9) + 1e-12 for a, b in zip(sups, sups[1:]))
    return ManeReport(bound=0.5 * sups[-1] ** 2, sup_theta=sups, regions=regions,
                      unbounded_evidence=bool(growing), n_samples=n_samples, seed=seed)
