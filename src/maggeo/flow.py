"""Magnetic geodesic flow and magnetic parallel transport.

The flow integrates the second-order equation  D(gamma')/dt = Omega(gamma')
as a first-order system in phase space; the kinetic energy |v|_g^2 / 2 is
a conserved quantity and its sampled drift is reported as an integrator
diagnostic rather than being projected away.

Transport solves  DV/dt = Omega_tilde(V)  along a stored orbit, where
Omega_tilde mixes the Lorentz operator through the g-orthogonal splitting
along the velocity; the induced end map is g-orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.integrate import solve_ivp

from . import geom
from .errors import ChartExitError, StiffTrajectoryError
from .io import dump_csv, dump_json

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SAMPLES = 257


@dataclass(frozen=True)
class PhaseState:
    """Point plus contravariant velocity."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def energy(sys, state):
    """Kinetic energy E = |v|_g^2 / 2 at the state's point."""
    return 0.5 * sys.inner(state.x, state.v, state.v)


def magnetic_ode_rhs(sys, state):
    """(dx/dt, dv/dt) with (dv/dt)^k = -Gamma^k_ij v^i v^j + Om^k_j v^j."""
    return state.v.copy(), _acceleration(geom.PointGeometry(sys, state.x), state.v)


def _acceleration(pg, v):
    return -np.einsum("kij,i,j->k", pg.gamma, v, v) + pg.omega @ v


@dataclass
class _Segment:
    t0: float
    t1: float
    sol: object  # scipy OdeSolution
    swaps: int   # chart swaps applied before this segment


@dataclass
class Orbit:
    """A time-sampled trajectory of the magnetic flow.

    Positions in ``states`` are unwrapped (continuous lift); ``wrapped_x``
    carries the lattice-reduced copy.  ``chart_swaps`` counts transitions
    applied before each sample for two-chart systems; ``energies`` holds the
    kinetic energy of each sample.
    """

    t: np.ndarray
    states: np.ndarray          # (m, 2n) unwrapped [x, v]
    wrapped_x: np.ndarray       # (m, n)
    period: float
    k: float
    closure_residual: float
    energy_drift: float
    winding: np.ndarray
    chart_swaps: np.ndarray
    energies: np.ndarray
    meta: dict = field(default_factory=dict)
    segments: list = field(default_factory=list, repr=False)

    @property
    def dim(self):
        return self.states.shape[1] // 2

    def state(self, i):
        n = self.dim
        return PhaseState(self.states[i, :n], self.states[i, n:])

    def eval(self, t):
        """Dense evaluation; returns (PhaseState, chart swap count)."""
        t = float(t)
        for seg in self.segments:
            if seg.t0 - 1e-12 <= t <= seg.t1 + 1e-12:
                y = seg.sol(np.clip(t, seg.t0, seg.t1))
                n = self.dim
                return PhaseState(y[:n], y[n:]), seg.swaps
        raise ValueError(f"time {t} outside orbit range [0, {self.period}]")

    def to_csv(self, path):
        n = self.dim
        header = (["t"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["E"])
        rows = [[float(ti)] + [float(c) for c in st] + [float(e)]
                for ti, st, e in zip(self.t, self.states, self.energies)]
        dump_csv(path, header, rows)

    def to_json(self, path=None):
        payload = {
            "schema_version": 1,
            "kind": "orbit",
            "period": float(self.period),
            "k": float(self.k),
            "closure_residual": float(self.closure_residual),
            "energy_drift": float(self.energy_drift),
            "winding": [int(w) for w in self.winding],
            "n_samples": int(len(self.t)),
            "meta": dict(self.meta),
        }
        if path:
            dump_json(path, payload)
        return payload


def _chart_exit_event(sys):
    radius = sys.safe_radius
    n = sys.dim

    def event(t, y):
        return float(y[:n] @ y[:n]) - radius ** 2

    event.terminal = True
    event.direction = 1.0
    return event


def integrate(sys, state0, t_end, tolerance=DEFAULT_TOLERANCE, samples=DEFAULT_SAMPLES):
    """Integrate the magnetic flow with an adaptive high-order scheme.

    Uses an embedded Runge-Kutta pair of order 8(5,3); lattice wrapping
    is applied to stored positions while the unwrapped copy is kept for
    winding numbers.  Chart transitions are applied when the system
    defines them; leaving a bounded chart without a transition raises.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = sys.dim
    state0 = state0 if isinstance(state0, PhaseState) else PhaseState(*state0)
    e0 = energy(sys, state0)

    def rhs(t, y):
        st = PhaseState(y[:n], y[n:])
        dx, dv = magnetic_ode_rhs(sys, st)
        return np.concatenate([dx, dv])

    events = None
    if sys.safe_radius is not None:
        events = [_chart_exit_event(sys)]

    segments = []
    swaps = 0
    t_cur = 0.0
    y_cur = np.concatenate([state0.x, state0.v])
    nfev = 0
    while True:
        sol = solve_ivp(rhs, (t_cur, t_end), y_cur, method="DOP853",
                        rtol=tolerance, atol=tolerance, dense_output=True,
                        events=events)
        nfev += sol.nfev
        if sol.status == -1:
            raise StiffTrajectoryError(f"stiff or singular trajectory: {sol.message}")
        if sol.t[-1] > sol.t[0]:
            segments.append(_Segment(sol.t[0], sol.t[-1], sol.sol, swaps))
        t_cur = float(sol.t[-1])
        y_cur = sol.y[:, -1].copy()
        if sol.status != 1:  # no chart exit: t_end reached
            break
        if sys.transition is None:
            raise ChartExitError(f"left chart domain at t={t_cur}")
        xn, vn = sys.transition(y_cur[:n], y_cur[n:])
        y_cur = np.concatenate([xn, vn])
        swaps += 1

    ts = np.linspace(0.0, t_end, samples)
    states = np.empty((samples, 2 * n))
    swap_counts = np.empty(samples, dtype=int)
    seg_idx = 0
    for i, ti in enumerate(ts):
        while seg_idx + 1 < len(segments) and ti > segments[seg_idx].t1 + 1e-12:
            seg_idx += 1
        seg = segments[seg_idx]
        states[i] = seg.sol(np.clip(ti, seg.t0, seg.t1))
        swap_counts[i] = seg.swaps

    wrapped = sys.wrap(states[:, :n])

    g = geom.PointGeometry(sys, states[:, :n]).g
    energies = 0.5 * np.einsum("mi,mij,mj->m", states[:, n:], g, states[:, n:])
    drift = float(np.max(np.abs(energies - e0)))

    # closure against t = 0, after lattice reduction / chart canonicalization
    xe, ve = states[-1, :n].copy(), states[-1, n:].copy()
    if swap_counts[-1] % 2 == 1 and sys.transition is not None:
        xe, ve = sys.transition(xe, ve)
    dx = sys.wrap_diff(xe - state0.x)
    closure = float(np.linalg.norm(dx) + np.linalg.norm(ve - state0.v))

    winding = np.zeros(n, dtype=int)
    if sys.lattice is not None:
        for i, period in enumerate(sys.lattice):
            if period:
                winding[i] = int(np.round((states[-1, i] - state0.x[i]) / period))

    return Orbit(t=ts, states=states, wrapped_x=wrapped, period=float(t_end),
                 k=float(e0), closure_residual=closure, energy_drift=drift,
                 winding=winding, chart_swaps=swap_counts, energies=energies,
                 meta={"tolerance": tolerance, "nfev": nfev,
                       "n_segments": len(segments), "chart_swaps_total": swaps,
                       "scheme": "DOP853"},
                 segments=segments)


@dataclass(frozen=True)
class Monodromy:
    """End of a flow integration together with its linearization."""

    y: np.ndarray       # end state (x, v), in the chart of the start state
    phi: np.ndarray     # (2n, 2n) derivative of the end state by the start state
    rhs: np.ndarray     # the vector field (dx/dt, dv/dt) at the end state
    nfev: int
    chart_swaps: int


def integrate_variational(sys, state0, t_end, tolerance=DEFAULT_TOLERANCE):
    """Integrate the flow together with its monodromy matrix Phi.

    Solves y' = f(y), Phi' = A Phi, Phi(0) = I for y = (x, v) with the
    scheme of ``integrate`` and no dense output, where A = [[0, I],
    [J_x, J_v]] is the derivative of f:
    J_x[k, m] = -d_m Gamma^k_ij v^i v^j + d_m Om^k_j v^j and
    J_v[k, j] = -2 Gamma^k_ij v^i + Om^k_j.
    At a chart swap the state goes through the transition and Phi through
    its tangent map plus the saltation term of the moving swap time, which
    vanishes when the transition carries the flow of one chart onto the
    flow of the other.  After an odd number of swaps the end state, Phi and
    the vector field are mapped back into the start chart.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = sys.dim
    m = 2 * n
    state0 = state0 if isinstance(state0, PhaseState) else PhaseState(*state0)

    def rhs(t, y):
        v = y[n:m]
        phi = y[m:].reshape(m, m)
        pg = geom.PointGeometry(sys, y[:n])
        gam_v = pg.gamma @ v
        jx = (pg.domega.transpose(0, 2, 1) @ v
              - np.einsum("kijm,i,j->km", pg.dgamma, v, v))
        jv = pg.omega - 2.0 * gam_v
        dphi = np.concatenate([phi[n:], jx @ phi[:n] + jv @ phi[n:]])
        return np.concatenate([v, _acceleration(pg, v), dphi.ravel()])

    events = None
    if sys.safe_radius is not None:
        events = [_chart_exit_event(sys)]

    t_cur = 0.0
    y_cur = np.concatenate([state0.x, state0.v, np.eye(m).ravel()])
    nfev = 0
    swaps = 0
    while True:
        sol = solve_ivp(rhs, (t_cur, t_end), y_cur, method="DOP853",
                        rtol=tolerance, atol=tolerance, events=events)
        nfev += sol.nfev
        if sol.status == -1:
            raise StiffTrajectoryError(f"stiff or singular trajectory: {sol.message}")
        t_cur = float(sol.t[-1])
        y_cur = sol.y[:, -1].copy()
        if sol.status != 1:
            break
        if sys.transition is None:
            raise ChartExitError(f"left chart domain at t={t_cur}")
        y_old, phi = y_cur[:m], y_cur[m:].reshape(m, m)
        y_new, tangent = _transition_tangent(sys, y_old)
        # the swap time moves with the start state; this saltation term is
        # zero when the transition carries one chart's flow onto the other's
        f_old, f_new = _vector_field(sys, y_old), _vector_field(sys, y_new)
        grad = np.concatenate([2.0 * y_old[:n], np.zeros(n)])  # of the exit event
        jump = np.outer(f_new - tangent @ f_old, grad) / float(grad @ f_old)
        y_cur = np.concatenate([y_new, ((tangent + jump) @ phi).ravel()])
        swaps += 1
    y_end = y_cur[:m]
    # Phi and f(y_end) as the columns of one matrix, for the map back below
    cols = np.column_stack([y_cur[m:].reshape(m, m), _vector_field(sys, y_end)])
    if swaps % 2 == 1:
        y_end, tangent = _transition_tangent(sys, y_end)
        cols = tangent @ cols
    return Monodromy(y=y_end, phi=cols[:, :m], rhs=cols[:, m], nfev=nfev,
                     chart_swaps=swaps)


def _vector_field(sys, y):
    n = sys.dim
    return np.concatenate(magnetic_ode_rhs(sys, PhaseState(y[:n], y[n:])))


def _transition_tangent(sys, y):
    """The chart transition of the state y = (x, v), and its tangent map
    by central differences."""
    n = sys.dim

    def transition(z):
        return np.concatenate(sys.transition(z[:n], z[n:]))

    return transition(y), geom._fd_jacobian(transition, y, 1e-6 * np.maximum(1.0, np.abs(y)))


# ---------------------------------------------------------------------------
# magnetic parallel transport


def omega_tilde(sys, state, V):
    """Omega_tilde(V) = Om(V_1) + (Om V)_1 + (1/2)(Om V_2)_2 with the
    g-orthogonal splitting along the state's velocity."""
    return _omega_tilde(geom.PointGeometry(sys, state.x), state.v, V)


def _omega_tilde(pg, v, V):
    """Omega_tilde(V) at the point or stack of ``pg``; v and V of shape (..., n)."""
    v2 = np.einsum("...i,...ij,...j->...", v, pg.g, v)
    if np.any(v2 <= 0.0):
        raise ValueError("zero velocity: projections undefined")
    V = np.asarray(V, dtype=float)

    def par(w):
        return (np.einsum("...i,...ij,...j->...", w, pg.g, v) / v2)[..., None] * v

    def om_of(w):
        return np.einsum("...kj,...j->...k", pg.omega, w)

    v1 = par(V)
    ov2 = om_of(V - v1)
    return om_of(v1) + par(om_of(V)) + 0.5 * (ov2 - par(ov2))


@dataclass
class TransportedField:
    """Solution of the transport equation sampled along the orbit."""

    t: np.ndarray
    values: np.ndarray   # (m, n)
    end_value: np.ndarray

    def to_csv(self, path):
        n = self.values.shape[1]
        header = ["t"] + [f"V{i+1}" for i in range(n)]
        rows = [[float(t)] + [float(c) for c in row]
                for t, row in zip(self.t, self.values)]
        dump_csv(path, header, rows)


def magnetic_transport(sys, orbit, V0, tolerance=None):
    """Transport V0 along the orbit by solving DV/dt = Omega_tilde(V).

    Coordinate form: dV^k/dt = -Gamma^k_ij gamma'^i V^j + Omega_tilde(V)^k.
    The base curve is read from the orbit's dense output, so transport
    accuracy is decoupled from re-integration.  At chart swaps the
    transition's tangent map is applied to V.
    """
    n = sys.dim
    tol = tolerance if tolerance is not None else orbit.meta.get("tolerance", DEFAULT_TOLERANCE)

    def rhs_for(seg):
        def rhs(t, V):
            y = seg.sol(np.clip(t, seg.t0, seg.t1))
            pg = geom.PointGeometry(sys, y[:n])
            corr = -np.einsum("kij,i,j->k", pg.gamma, y[n:], V)
            return corr + _omega_tilde(pg, y[n:], V)
        return rhs

    values = np.empty((len(orbit.t), n))
    v_cur = np.asarray(V0, dtype=float).copy()
    sample_i = 0
    for si, seg in enumerate(orbit.segments):
        if si > 0 and seg.swaps != orbit.segments[si - 1].swaps:
            x_prev = orbit.segments[si - 1].sol(orbit.segments[si - 1].t1)[:n]
            _, v_cur = sys.transition(x_prev, v_cur)
        t_eval = [t for t in orbit.t[sample_i:] if t <= seg.t1 + 1e-12]
        sol = solve_ivp(rhs_for(seg), (seg.t0, seg.t1), v_cur, method="DOP853",
                        rtol=tol, atol=tol, dense_output=True)
        if sol.status != 0:
            raise StiffTrajectoryError(f"transport failed: {sol.message}")
        for t in t_eval:
            values[sample_i] = sol.sol(np.clip(t, seg.t0, seg.t1))
            sample_i += 1
        v_cur = sol.y[:, -1].copy()
    while sample_i < len(orbit.t):  # trailing samples on the final segment edge
        values[sample_i] = v_cur
        sample_i += 1
    return TransportedField(t=orbit.t.copy(), values=values, end_value=v_cur)


def transport_frame(sys, orbit, vectors=None, tolerance=None):
    """Transport several initial vectors; defaults to a g-orthonormal frame
    with first leg along the initial velocity."""
    st0 = orbit.state(0)
    if vectors is None:
        speed = np.sqrt(2.0 * orbit.k)
        frame0 = geom.orthonormal_completion(sys, st0.x, st0.v / speed)
        vectors = [frame0[:, i] for i in range(sys.dim)]
    return [magnetic_transport(sys, orbit, v, tolerance=tolerance) for v in vectors]
