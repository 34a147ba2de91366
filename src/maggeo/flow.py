"""Magnetic geodesic flow and magnetic parallel transport.

The flow integrates the second-order equation  D(gamma')/dt = Omega(gamma')
as a first-order system in phase space; the kinetic energy |v|_g^2 / 2 is
a conserved quantity and its sampled drift is reported as an integrator
diagnostic rather than being projected away.

Transport solves  DV/dt = Omega_tilde(V)  along a stored orbit, where
Omega_tilde mixes the Lorentz operator through the g-orthogonal splitting
along the velocity; the induced end map is g-orthogonal.

Every integration goes through one DOP853 call, ``_solve``.  The flow runs
through one chart-exit loop, ``_drive``, which applies the chart transition
to the state at each exit; transport follows the orbit's stored segments
instead, at the orbit's tolerance.  A flow step evaluates its point in one
checked pass (``geom._point_acceleration``) and builds no
``PointGeometry``; each integration builds one, for the stack of its
samples.  A transport step reads the fields of its point from the same
pass (``geom._point_geometry``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
import numpy as np
from scipy.integrate import solve_ivp

from . import geom
from .errors import ChartExitError, StiffTrajectoryError
from .io import SCHEMA_VERSION, dump_csv

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
    """(dx/dt, dv/dt) with (dv/dt)^k = -Gamma^k_ij v^i v^j + Om^k_j v^j, at
    the state's single point."""
    return state.v.copy(), geom._point_acceleration(sys, state.x, state.v)


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

    def to_csv(self, path):
        n = self.dim
        header = (["t"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["E"])
        rows = [[float(ti)] + [float(c) for c in st] + [float(e)]
                for ti, st, e in zip(self.t, self.states, self.energies)]
        dump_csv(path, header, rows)

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "orbit",
            "period": float(self.period),
            "k": float(self.k),
            "closure_residual": float(self.closure_residual),
            "energy_drift": float(self.energy_drift),
            "winding": [int(w) for w in self.winding],
            "n_samples": int(len(self.t)),
            "meta": dict(self.meta),
        }


def dense_states(segments, ts):
    """States (m, 2n) and chart swap counts (m,) of the dense output at the
    increasing times ts.  A time belongs to the first segment that has not
    ended more than 1e-12 before it (the last one past the end), and each
    segment's solution is evaluated once on all of its times."""
    ts = np.asarray(ts, dtype=float)
    ends = np.array([seg.t1 for seg in segments]) + 1e-12
    owner = np.minimum(np.searchsorted(ends, ts), len(segments) - 1)
    blocks = [(seg, ts[owner == i]) for i, seg in enumerate(segments)]
    states = np.concatenate([seg.sol(np.clip(t, seg.t0, seg.t1)).T
                             for seg, t in blocks if len(t)])
    swaps = np.concatenate([np.full(len(t), seg.swaps) for seg, t in blocks])
    return states, swaps


def _solve(rhs, t_span, y0, tolerance, events=None):
    """The embedded Runge-Kutta pair of order 8(5,3) at rtol = atol = tolerance,
    with dense output."""
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tolerance, atol=tolerance,
                    dense_output=True, events=events)
    if sol.status == -1:
        raise StiffTrajectoryError(f"stiff or singular trajectory: {sol.message}")
    return sol


def _drive(sys, y0, t_end, tolerance):
    """Integrate the flow from the state y0 = (x, v) to t_end, replacing the
    state by its chart transition each time the point leaves the chart's
    safe radius; a system without a chart transition raises
    ``ChartExitError`` there instead.

    Returns the dense ``_Segment``s, the number of swaps and the number of
    RHS evaluations.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    events = None
    if sys.safe_radius is not None:
        n = sys.dim
        radius = sys.safe_radius

        def chart_exit(t, y):
            return float(y[:n] @ y[:n]) - radius ** 2

        chart_exit.terminal = True
        chart_exit.direction = 1.0
        events = [chart_exit]

    segments = []
    swaps = 0
    nfev = 0
    t_cur = 0.0
    y_cur = y0
    while True:
        sol = _solve(lambda t, y: _vector_field(sys, y), (t_cur, t_end), y_cur, tolerance,
                     events)
        nfev += sol.nfev
        if sol.t[-1] > sol.t[0]:
            segments.append(_Segment(sol.t[0], sol.t[-1], sol.sol, swaps))
        t_cur = float(sol.t[-1])
        if sol.status != 1:  # no chart exit: t_end reached
            return segments, swaps, nfev
        if sys.transition is None:
            raise ChartExitError(f"left chart domain at t={t_cur}")
        y_cur = _transition(sys, sol.y[:, -1])
        swaps += 1


def integrate(sys, state0, t_end, tolerance=DEFAULT_TOLERANCE, samples=DEFAULT_SAMPLES):
    """Integrate the magnetic flow with an adaptive high-order scheme.

    Uses an embedded Runge-Kutta pair of order 8(5,3); lattice wrapping
    is applied to stored positions while the unwrapped copy is kept for
    winding numbers.  Chart transitions are applied when the system
    defines them; leaving a bounded chart without a transition raises.
    """
    n = sys.dim
    state0 = _start_state(sys, state0)
    segments, swaps, nfev = _drive(sys, np.concatenate([state0.x, state0.v]), t_end, tolerance)
    e0 = energy(sys, state0)

    ts = np.linspace(0.0, t_end, samples)
    states, swap_counts = dense_states(segments, ts)

    wrapped = sys.wrap(states[:, :n])

    pg = geom.PointGeometry(sys, states[:, :n])
    pg.ginv   # the orbit's one SPD check of g: a Cholesky factorisation of its samples
    energies = 0.5 * np.einsum("mi,mij,mj->m", states[:, n:], pg.g, states[:, n:])
    drift = float(np.max(np.abs(energies - e0)))

    # closure against t = 0, after lattice reduction / chart canonicalization
    xe, ve = states[-1, :n].copy(), states[-1, n:].copy()
    if swap_counts[-1] % 2 == 1:
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


def _start_state(sys, state0):
    """state0 as a PhaseState, whose x and v must each have shape (n,): the
    RHS of a flow step reads the state by slicing it at n."""
    state0 = state0 if isinstance(state0, PhaseState) else PhaseState(*state0)
    expected = (sys.dim,)
    if state0.x.shape != expected or state0.v.shape != expected:
        raise ValueError(f"start state needs x and v of shape {expected}, got "
                         f"{state0.x.shape} and {state0.v.shape}")
    return state0


def _vector_field(sys, y):
    n = sys.dim
    v = y[n:]
    return np.concatenate([v, geom._point_acceleration(sys, y[:n], v)])


def _transition(sys, y):
    """The chart transition of the state y = (x, v)."""
    n = sys.dim
    return np.concatenate(sys.transition(y[:n], y[n:]))


# ---------------------------------------------------------------------------
# magnetic parallel transport


def omega_tilde(sys, state, V):
    """Omega_tilde(V) = Om(V_1) + (Om V)_1 + (1/2)(Om V_2)_2 with the
    g-orthogonal splitting along the state's velocity."""
    return geom._omega_tilde(geom.PointGeometry(sys, state.x), state.v, V)


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


def magnetic_transport(sys, orbit, V0):
    """Transport V0 along the orbit by solving DV/dt = Omega_tilde(V).

    Coordinate form (``geom.transport_rate``): dV/dt = Omega_tilde(V) - Gamma(gamma', V).
    The base curve is read from the orbit's dense output: V is integrated
    over each of the orbit's segments at the orbit's tolerance, so it lives
    on ``orbit.states`` rather than on a re-integrated curve, and sampled
    at ``orbit.t`` by ``dense_states``.  At chart swaps the transition's
    tangent map is applied to V.
    """
    n = sys.dim
    tol = orbit.meta["tolerance"]

    def rhs(t, V, seg):
        y = seg.sol(np.clip(t, seg.t0, seg.t1))
        return geom.transport_rate(geom._point_geometry(sys, y[:n]), y[n:], V)

    segments = []
    v_cur = np.asarray(V0, dtype=float).copy()
    for prev, seg in zip([None] + orbit.segments, orbit.segments):
        if prev is not None and seg.swaps != prev.swaps:
            _, v_cur = sys.transition(prev.sol(prev.t1)[:n], v_cur)
        sol = _solve(partial(rhs, seg=seg), (seg.t0, seg.t1), v_cur, tol)
        segments.append(_Segment(seg.t0, seg.t1, sol.sol, seg.swaps))
        v_cur = sol.y[:, -1].copy()
    values, _ = dense_states(segments, orbit.t)
    return TransportedField(t=orbit.t.copy(), values=values, end_value=v_cur)


def transport_frame(sys, orbit):
    """Transport the g-orthonormal frame whose first leg is along the
    orbit's initial velocity, each leg as ``magnetic_transport`` does."""
    st0 = orbit.state(0)
    frame0 = geom.orthonormal_completion(sys, st0.x, st0.v / np.sqrt(2.0 * orbit.k))
    return [magnetic_transport(sys, orbit, frame0[:, i]) for i in range(sys.dim)]
