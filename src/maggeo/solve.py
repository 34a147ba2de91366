"""Closed-orbit search at fixed energy, continuation in energy, and
certification of the curvature-based period and index bounds.

One corrector finds closed orbits: Fourier collocation (``_solve_closing``).
It starts from a loop, resamples it to a fixed number of nodes and solves
its discretized closing conditions (eta = 0) with a damped least-squares
Newton step (``_damped_newton``) on their exact Jacobian: the Fourier
differentiation matrix (Trefethen, Spectral Methods in MATLAB, ch. 3) plus
pointwise blocks from the acceleration's derivatives at the nodes.  A loop
that winds around the lattice is solved by its lift: the nodes x of
x(s + 1) = x(s) + drift, with drift = winding * L, whose s-derivative is
that of the periodic x - s drift plus drift.  The solve stops at roundoff,
when the residual falls below a floor scaled by the seed's
s-acceleration, and integrates nothing; the eta gate on the solved loop
decides whether it is solved.

Every search ends in ``_collocation_record``.  It solves at
``COLLOCATION_NODES`` nodes, integrates the solved loop's orbit once from
its start state and certifies it (``_build_record``: closure and eta are
gated before the index).  Where the solved loop or its record misses a
gate, or the Newton solve stopped above roundoff, it solves again at twice
the nodes, from the loop it just solved, up to ``MAX_COLLOCATION_NODES``.
The loops come from three places: a point seed (``find_orbit``) integrates
the seed once and cuts its orbit at the seed's return time, with the
closure gap spread over the lift, the standard predictor for periodic
orbits (Doedel, Keller & Kernevez, Numerical analysis and control of
bifurcation problems II, 1991); the descent search (``gradient_search``)
starts from a seed loop; continuation (``continue_in_k``) from the
previous orbit's loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geom, loop as loop_mod, magcurv
from .errors import ChartExitError, DegenerateMetricError, StiffTrajectoryError
from .flow import PhaseState, dense_states, integrate
from .io import SCHEMA_VERSION, dump_csv

# certification gates
ENERGY_GATE = 1e-8
CLOSURE_GATE = 1e-7
BONNET_MYERS_SLACK = 1e-3
T_FLOOR = 1e-3
# random unit normals per node, beyond the completion of v, over which
# ``orbit_curvature_extrema`` takes the sectional minimum when dim > 2
SEC_DIRECTIONS = 16

# nodes of the first Fourier collocation solve, and the most a refinement
# doubles them to (each Newton step is a dense least-squares solve of size
# N n + 1, whose cost grows as N^3)
COLLOCATION_NODES = 32
MAX_COLLOCATION_NODES = 128
# Newton iteration caps of a collocation solve: a descent seed may start far
# from an orbit, a continuation predictor or a refinement next to one
DESCENT_MAX_ITER = 400
PREDICTOR_MAX_ITER = 30
# a collocation solve stops at roundoff: once its residual norm falls below
# ROUNDOFF_SCALE eps (N n + 1) max(1, max |xddot|), with xddot the second
# s-derivative of the resampled seed nodes (the size of the residual's
# terms), where a further step would only move noise (Deuflhard, Newton
# Methods for Nonlinear Problems, 2004: stop at the attainable accuracy)
ROUNDOFF_SCALE = 1e3
# the loop predicted from a point seed: its orbit is integrated over
# SEED_SPAN times the period guess at a tolerance that only has to beat the
# collocation's own correction, sampled RETURN_STEPS times per period guess
# for the return-time search, and cut into SEED_NODES nodes
SEED_SPAN = 1.5
RETURN_STEPS = 128
SEED_NODES = 64
SEED_TOLERANCE = 1e-10

_NEWTON_DETAIL = {
    "stalled": "Newton stalled; orbit not found from this seed",
    "max_iterations": "Newton iteration cap reached above the eta gate",
    "singular": "non-finite Newton step; perturb the seed",
    "eta_gate": "the solved loop misses the eta gate",
}


@dataclass
class OrbitRecord:
    """A certified (or candidate) closed magnetic geodesic."""

    orbit: object
    loop: object
    k: float
    period: float
    closure_residual: float
    energy_residual: float
    eta_residual: float
    winding: np.ndarray
    index_report: Optional[object] = None
    min_ric: Optional[float] = None
    min_sec: Optional[float] = None
    certified: bool = False
    checks: dict = field(default_factory=dict)
    method: str = "collocation"

    @property
    def index(self):
        return None if self.index_report is None else self.index_report.index

    @property
    def contractible(self):
        return bool(np.all(self.winding == 0))

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "orbit_record",
            "k": float(self.k),
            "period": float(self.period),
            "closure_residual": float(self.closure_residual),
            "energy_residual": float(self.energy_residual),
            "eta_residual": float(self.eta_residual),
            "winding": [int(w) for w in self.winding],
            "contractible": self.contractible,
            "index": self.index,
            "min_ric": None if self.min_ric is None else float(self.min_ric),
            "min_sec": None if self.min_sec is None else float(self.min_sec),
            "certified": self.certified,
            "checks": self.checks,
            "method": self.method,
        }


@dataclass
class SearchFailure:
    """Non-convergence report; never evidence of nonexistence.  A search that
    computed no residual (its seed's orbit never became a loop) reports an
    infinite one, written as null."""

    reason: str
    residual: float
    iterations: int
    period_trace: list = field(default_factory=list)
    detail: str = ""

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "search_failure",
            "reason": self.reason,
            "residual": float(self.residual) if np.isfinite(self.residual) else None,
            "iterations": self.iterations,
            "period_trace": [float(t) for t in self.period_trace],
            "detail": self.detail,
            "note": "not found; nonexistence is never concluded from a failed search",
        }


def _seed(sys, k, seed_state):
    """The seed state with its point in the fundamental cell; raises
    ``ValueError`` when its velocity is not on the energy level."""
    seed_state = seed_state if isinstance(seed_state, PhaseState) else PhaseState(*seed_state)
    # anchor in the fundamental cell: keeps finite-difference steps scaled
    # sanely and stops drift along lattice translation symmetries
    x = sys.wrap(seed_state.x)
    speed = sys.norm(x, seed_state.v)
    if abs(speed - np.sqrt(2.0 * k)) > 1e-9 * max(1.0, np.sqrt(2.0 * k)):
        raise ValueError("seed velocity is not on the energy level |v| = sqrt(2k)")
    return PhaseState(x, seed_state.v.copy())


def _periods(sys):
    """The lattice period of each coordinate, 0 where it has none."""
    return np.array([p or 0.0 for p in (sys.lattice or [None] * sys.dim)], dtype=float)


def _damped_newton(residual, jacobian, u, r, residual_target, max_iter):
    """Damped least-squares Newton iteration on residual(u) = 0 from u, where
    the residual is r.

    Each step solves jacobian(u) step = -r by least squares, caps its length
    at 2 max(1, |u|) and backtracks from the full step down to 1/16 until the
    residual norm drops.  ``jacobian`` is only asked at the current iterate,
    which is always the point ``residual`` evaluated last.  Returns (u, |r|,
    iterations, path, stop): path holds u[-1] at the start and after each
    iteration; stop is None once |r| < residual_target, else "stalled",
    "max_iterations" or "singular" (a non-finite step).
    """
    path = [float(u[-1])]
    res_norm = float(np.linalg.norm(r))
    for it in range(max_iter):
        if res_norm < residual_target:
            return u, res_norm, it, path, None
        # a generous rcond keeps noise-level singular directions (orbit
        # families, lattice symmetries) out of the step
        step, *_ = np.linalg.lstsq(jacobian(u), -r, rcond=1e-6)
        if not np.all(np.isfinite(step)):
            return u, res_norm, it, path, "singular"
        cap = 2.0 * max(1.0, float(np.linalg.norm(u)))
        if np.linalg.norm(step) > cap:
            step *= cap / np.linalg.norm(step)
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            u_try = u + damp * step
            r_try = residual(u_try)
            if np.linalg.norm(r_try) < res_norm:
                u, r, res_norm = u_try, r_try, float(np.linalg.norm(r_try))
                improved = True
                break
        path.append(float(u[-1]))
        if not improved:
            return u, res_norm, it + 1, path, "stalled"
    return u, res_norm, max_iter, path, None if res_norm < residual_target else "max_iterations"


def find_orbit(sys, k, seed_state, T_guess, tol=1e-12, n_nodes=512, mode_count=32,
               winding_target=None):
    """Closed orbit with energy k from a point seed.

    The seed is integrated once over ``SEED_SPAN`` T_guess and cut at its
    return time (``_seed_loop``); the loop's closure gap is spread linearly
    over the lift, and ``_collocation_record`` corrects it.  The loop winds
    by ``winding_target`` around the lattice, or, without a target, as the
    seed's orbit does at its return.  Returns a certified ``OrbitRecord``
    (method "collocation") or a ``SearchFailure``: "seed_flow" where the
    seed's orbit fails in the flow (the error named in ``detail``),
    "chart_swap" where it swaps charts from both ends of the transition,
    else the failure of the last collocation solve.
    """
    if not T_guess > 0:
        raise ValueError("T_guess must be positive")
    seed = _seed(sys, k, seed_state)
    try:
        predicted = _seed_loop(sys, seed, T_guess, winding_target)
    except (ChartExitError, StiffTrajectoryError, DegenerateMetricError) as err:
        return SearchFailure(reason="seed_flow", residual=float("inf"), iterations=0,
                             period_trace=[float(T_guess)],
                             detail=f"the seed's orbit fails in the flow: "
                                    f"{type(err).__name__}: {err}")
    if predicted is None:
        return SearchFailure(reason="chart_swap", residual=float("inf"), iterations=0,
                             period_trace=[float(T_guess)],
                             detail="the seed's orbit leaves both charts; "
                                    "its loop cannot be cut in one chart")
    return _collocation_record(sys, k, predicted, tol, n_nodes, mode_count)


def _seed_loop(sys, state, T_guess, winding_target):
    """The loop predicted from the orbit of state: ``SEED_NODES`` samples of
    its lift up to its return time, less the closure gap in proportion to
    time.

    The return time is the local minimum of the phase-space gap
    |x(t) - x(0) - drift| + |v(t) - v(0)| in [T_guess / 2, ``SEED_SPAN``
    T_guess] nearest T_guess, among the minima within one sample step's
    phase-space motion of the smallest (the sampling cannot tell them
    apart); T_guess where the gap has no minimum there.  drift is
    ``winding_target`` times the lattice; without a target the gap is
    lattice-reduced, and the loop winds as the orbit does at its return.
    The orbit is integrated again from the transition image of state where
    it swaps charts; None where it swaps charts from both.
    """
    orbit = _one_chart_orbit(sys, state.x, state.v, SEED_SPAN * T_guess, SEED_TOLERANCE,
                             int(round(SEED_SPAN * RETURN_STEPS)) + 1)
    if orbit.meta["chart_swaps_total"]:
        return None
    n = sys.dim
    periods = _periods(sys)
    x, v = orbit.states[:, :n], orbit.states[:, n:]
    if winding_target is None:
        dx = sys.wrap_diff(x - x[0])
    else:
        dx = x - x[0] - np.asarray(winding_target) * periods
    gap = np.linalg.norm(dx, axis=1) + np.linalg.norm(v - v[0], axis=1)
    step = float(np.max(np.linalg.norm(np.diff(x, axis=0), axis=1)
                        + np.linalg.norm(np.diff(v, axis=0), axis=1)))
    inner = gap[1:-1]
    minima = 1 + np.flatnonzero((inner <= gap[:-2]) & (inner < gap[2:])
                                & (orbit.t[1:-1] >= 0.5 * T_guess))
    T = T_guess
    if minima.size:
        near = minima[gap[minima] <= gap[minima].min() + step]
        T = float(orbit.t[near[np.argmin(np.abs(orbit.t[near] - T_guess))]])
    s = np.arange(SEED_NODES + 1) / SEED_NODES
    lift = dense_states(orbit.segments, T * s)[0][:, :n]
    if winding_target is None:
        winding_target = np.round((lift[-1] - lift[0]) / np.where(periods, periods, np.inf))
    winding = np.asarray(winding_target).astype(int)
    closing = lift[-1] - lift[0] - winding * periods
    return loop_mod.DiscreteLoop((lift - s[:, None] * closing)[:-1], T, winding)


def _one_chart_orbit(sys, x0, v0, T, tolerance, samples):
    """The orbit of (x0, v0) over T, integrated again from the transition
    image of (x0, v0) where it swaps charts, since from the other chart it
    may stay in one; its ``chart_swaps_total`` is nonzero where it swaps
    charts from both."""
    orbit = integrate(sys, PhaseState(x0, v0), T, tolerance=tolerance, samples=samples)
    if orbit.meta["chart_swaps_total"]:
        orbit = integrate(sys, PhaseState(*sys.transition(x0, v0)), T, tolerance=tolerance,
                          samples=samples)
    return orbit


def _build_record(sys, k, x0, v0, T, tol, n_nodes, mode_count):
    """The certified record of the closed orbit with start state (x0, v0) and
    period T, or a ``SearchFailure`` (zero iterations) when the orbit swaps
    charts from both ends of the transition ("chart_swap") or misses the
    closure or eta gate ("closure_gate", "eta_gate"; the index needs a
    critical loop, so these gates come first)."""
    orbit = _one_chart_orbit(sys, x0, v0, T, min(tol, 1e-12), n_nodes + 1)
    if orbit.meta["chart_swaps_total"]:
        return SearchFailure(reason="chart_swap", residual=orbit.closure_residual,
                             iterations=0,
                             detail="the closed orbit leaves both charts; "
                                    "its loop cannot be resampled in one chart")
    lp = loop_mod.loop_from_orbit(orbit, n_nodes)
    eta_res = loop_mod.eta_norm(sys, lp, k)
    energy_res = orbit.energy_drift
    for reason, value, gate in (("closure_gate", orbit.closure_residual, CLOSURE_GATE),
                                ("eta_gate", eta_res, loop_mod.eta_gate(lp))):
        if not value < gate:
            return SearchFailure(reason=reason, residual=value, iterations=0,
                                 detail=f"{reason}: residual {value:.3e} exceeds the "
                                        f"gate {gate:.3e} by {value - gate:.3e}")
    index_report = loop_mod.morse_index(sys, lp, k, mode_count=mode_count)
    record = OrbitRecord(orbit=orbit, loop=lp, k=k, period=T,
                         closure_residual=orbit.closure_residual,
                         energy_residual=energy_res, eta_residual=eta_res,
                         winding=orbit.winding.copy(), index_report=index_report)
    certify(sys, record)
    return record


def orbit_curvature_extrema(sys, record):
    """Min of Ric_k and Sec_k along the orbit (direction = unit velocity;
    the sectional minimum additionally scans unit normals for dim > 2)."""
    lp = record.loop
    lg = loop_mod._loop_geometry(sys, lp)
    k = record.k
    step = max(1, lp.n_nodes // 128)
    pg, v = lg.geometry[::step], lg.unit[::step]   # shares what the loop has computed
    min_ric = np.min(magcurv.ric_omega_k(sys, pg, v, k))
    # unit normals at each node: the completion of v, and for dim > 2
    # random combinations of it, drawn node after node
    normals = geom.orthonormal_completion(sys, pg, v)[..., 1:]
    if sys.dim > 2:
        z = np.random.default_rng(0).standard_normal((len(v), SEC_DIRECTIONS, sys.dim - 1))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        normals = np.concatenate([normals, normals @ z.swapaxes(-1, -2)], axis=-1)
    min_sec = min(np.min(magcurv.sec_omega_k(sys, pg, v, normals[..., j], k))
                  for j in range(normals.shape[-1]))
    return float(min_ric), float(min_sec)


def certify(sys, record):
    """Evaluate residual gates and the curvature-based consequences.

    Checks: (a) the period bound T <= r pi (index + 1) with 1/r^2 the
    orbit minimum of Ric_k (when positive); (b) index >= 1 on oriented
    even-dimensional systems with positive Sec_k along the orbit; (c) the
    winding/contractibility bookkeeping.  Results carry margins.
    """
    checks = {}
    checks["energy_residual_ok"] = bool(record.energy_residual < ENERGY_GATE)
    checks["closure_residual_ok"] = bool(record.closure_residual < CLOSURE_GATE)
    gate = loop_mod.eta_gate(record.loop)
    checks["eta_gate_ok"] = bool(record.eta_residual < gate)

    min_ric, min_sec = orbit_curvature_extrema(sys, record)
    record.min_ric, record.min_sec = min_ric, min_sec

    if record.index_report is not None and min_ric > 0:
        r = 1.0 / np.sqrt(min_ric)
        bound = r * np.pi * (record.index + 1) * (1.0 + BONNET_MYERS_SLACK)
        checks["bonnet_myers_ok"] = bool(record.period <= bound)
        checks["bonnet_myers_margin"] = float(bound - record.period)
        checks["bonnet_myers_bound"] = float(r * np.pi * (record.index + 1))
    if (record.index_report is not None and sys.oriented
            and sys.dim % 2 == 0 and min_sec > 0):
        checks["synge_ok"] = bool(record.index >= 1)
        checks["synge_min_sec"] = float(min_sec)
    checks["contractible"] = record.contractible

    record.checks.update(checks)
    record.certified = all(v for key, v in checks.items()
                           if key.endswith("_ok"))
    return checks


def continue_in_k(sys, record, k_grid, tol=1e-12, n_nodes=512, mode_count=32):
    """Predictor-corrector continuation of a certified record over a k grid.

    The predictor is the previous orbit's loop, with its winding, and a
    secant period; the corrector is ``_collocation_record``, which
    integrates nothing until the record is built.  Where it fails, it is
    retried from the same loop with the kinetic period rescaling
    T sqrt(k_prev / k).  The record from which the family starts comes
    from a point seed (``find_orbit``).  A fold (both corrections fail)
    truncates the family.
    """
    family = []
    prev = record
    prev_prev = None
    for k in k_grid:
        # secant predictor in log T vs log k: exact for power-law families
        # (constant periods and the kinetic scaling T ~ 1/sqrt(k) alike)
        T_pred = prev.period
        if prev_prev is not None and abs(prev_prev.k - prev.k) > 1e-12:
            slope = (np.log(prev.period) - np.log(prev_prev.period)) \
                / (np.log(prev.k) - np.log(prev_prev.k))
            T_pred = prev.period * (k / prev.k) ** slope
        for T in (T_pred, prev.period * np.sqrt(prev.k / k)):
            result = _collocation_record(
                sys, k, loop_mod.DiscreteLoop(prev.loop.nodes, T, prev.loop.winding),
                tol, n_nodes, mode_count)
            if isinstance(result, OrbitRecord):
                break
        if isinstance(result, SearchFailure):
            result.detail = f"continuation fold at k={k}: {result.detail}"
            family.append(result)
            break
        family.append(result)
        prev_prev, prev = prev, result
    return family


def family_to_csv(path, family):
    header = ["k", "T", "index", "min_ric", "min_sec", "closure_residual",
              "certified", "bonnet_myers_ok", "synge_ok"]
    rows = []
    for rec in family:
        if isinstance(rec, SearchFailure):
            continue
        rows.append([rec.k, rec.period, rec.index, rec.min_ric, rec.min_sec,
                     rec.closure_residual, rec.certified,
                     rec.checks.get("bonnet_myers_ok", ""),
                     rec.checks.get("synge_ok", "")])
    dump_csv(path, header, rows)


# ---------------------------------------------------------------------------
# descent search


def gradient_search(sys, k, initial_loop, schedule=None):
    """Search for a zero of the action form starting from a contractible loop.

    ``_collocation_record`` from the seed loop, whose first solve may take
    ``DESCENT_MAX_ITER`` Newton iterations: its closing conditions (nodal
    force balance in loop units plus the energy constraint, with the period
    log-parametrized) are solved by a damped least-squares Newton iteration
    on their exact Jacobian, which stops once the residual is at its
    roundoff floor (``ROUNDOFF_SCALE``), or where no step lowers it; being a
    root finder it reaches zeros of any Morse index.  The eta gate on the
    solved loop, not the Newton stop, decides success, and a loop that
    misses a gate is solved again at twice the nodes.  Degenerations are
    classified honestly (period collapse or loop shrinking toward a
    constant, a stalled vanishing sequence) and carry a period trace.
    Returns an ``OrbitRecord`` (method "gradient_search") or a
    ``SearchFailure``.

    ``schedule`` overrides ``n_nodes`` and ``mode_count`` of the record
    (defaults 512 and 32); any other key raises ``ValueError``.
    """
    cfg = {"n_nodes": 512, "mode_count": 32}
    schedule = schedule or {}
    unknown = sorted(set(schedule) - set(cfg))
    if unknown:
        raise ValueError(f"unknown gradient_search schedule keys: {unknown}")
    cfg.update(schedule)
    if np.any(initial_loop.winding):
        raise ValueError("descent search supports contractible seed loops only")
    rec = _collocation_record(sys, k, initial_loop, 1e-12, cfg["n_nodes"], cfg["mode_count"],
                              max_iter=DESCENT_MAX_ITER)
    if isinstance(rec, OrbitRecord):
        rec.method = "gradient_search"
    return rec


def _lifted_derivative(x, drift):
    """s-derivative of the lift x of a loop with x(s + 1) = x(s) + drift:
    the spectral derivative of the periodic x - s drift, plus drift."""
    s = np.arange(len(x))[:, None] / len(x)
    return loop_mod.spectral_derivative(x - s * drift) + drift


def _closing_state(sys, u, drift):
    """Geometry at the nodes, their s-derivatives and the period of the
    closing unknowns u = (nodes.ravel(), log T) of a loop with drift."""
    x = u[:-1].reshape(-1, sys.dim)
    T = float(np.exp(np.clip(u[-1], -30.0, 30.0)))
    return geom.PointGeometry(sys, x), _lifted_derivative(x, drift), T


def _closing_system(sys, k, drift=0.0):
    """Lean evaluator of the closing conditions of loops with the given
    drift; skips loop validation so the solver may probe freely.  Unknowns
    u = (nodes.ravel(), log T)."""

    def fvec(u):
        pg, xdot, T = _closing_state(sys, u, drift)
        xddot = loop_mod.spectral_derivative(xdot)
        force, c_tau = loop_mod._closing_terms(pg, xdot, xddot, T, k)
        return np.concatenate([force.ravel(), [c_tau * len(xdot)]])

    return fvec


def _closing_jacobian(sys, u, drift=0.0):
    """Exact Jacobian at u of the closing conditions ``_closing_system(sys, k,
    drift)``, which depends neither on k nor on the drift.

    With D the s-derivative matrix the residual applies (Nyquist mode
    zeroed) and (J_x, J_v)_i = da/d(x, v) at the velocity xdot_i/T, the force
    rows xddot - T^2 a(xdot/T) are  D^2 (x) I - T [J_v_i] D - T^2 blockdiag(J_x_i),
    with -T Om_i xdot_i = T (J_v_i xdot_i - 2 T a_i), a_i = a(xdot_i/T), in the
    log T column; the energy row differentiates
    N k - sum_i |xdot_i|_g^2 / (2 T^2).  The drift only shifts xdot, so
    d(xdot)/d(nodes) is D for winding loops too.
    """
    pg, xdot, T = _closing_state(sys, u, drift)
    n_nodes, n = xdot.shape
    d = loop_mod.spectral_derivative(np.eye(n_nodes))
    dlog = 1.0 if abs(u[-1]) < 30.0 else 0.0   # d log T / du[-1] under the clip
    a, jx, jv = geom.acceleration_and_jacobian(pg, xdot / T)
    blocks = np.einsum("ij,ikm->ikjm", d, -T * jv)
    nodes = np.arange(n_nodes)
    blocks[nodes, :, nodes, :] -= T ** 2 * jx
    gxdot = np.einsum("iab,ib->ia", pg.g, xdot)
    dspeed2 = np.einsum("iabm,ia,ib->im", pg.dg, xdot, xdot)
    jac = np.empty((n_nodes * n + 1, n_nodes * n + 1))
    jac[:-1, :-1] = np.kron(d @ d, np.eye(n)) + blocks.reshape(n_nodes * n, n_nodes * n)
    jac[:-1, -1] = dlog * T * (np.einsum("ikj,ij->ik", jv, xdot) - 2.0 * T * a).ravel()
    jac[-1, :-1] = -(d.T @ gxdot + 0.5 * dspeed2).ravel() / T ** 2
    jac[-1, -1] = dlog * float(np.sum(gxdot * xdot)) / T ** 2
    return jac


def _resample(nodes, n_nodes, drift):
    """The trigonometric interpolant of the loop lift nodes with the given
    drift at n_nodes equispaced nodes: FFT truncation or zero padding of the
    periodic nodes - s drift, without the Nyquist mode of the coarser grid,
    with the drift added back."""
    s_in = np.arange(len(nodes))[:, None] / len(nodes)
    s_out = np.arange(n_nodes)[:, None] / n_nodes
    coef = np.fft.rfft(nodes - s_in * drift, axis=0)
    out = np.zeros((n_nodes // 2 + 1, nodes.shape[1]), dtype=complex)
    keep = (min(len(nodes), n_nodes) + 1) // 2
    out[:keep] = coef[:keep]
    return np.fft.irfft(out, n=n_nodes, axis=0) * (n_nodes / len(nodes)) + s_out * drift


def _solve_closing(sys, k, seed, n_nodes, max_iter):
    """One Fourier collocation solve from the seed ``DiscreteLoop``: its
    nodes resampled to n_nodes and a damped Newton iteration on their
    closing conditions, which stops at roundoff (the residual below the
    ``ROUNDOFF_SCALE`` floor of the seed), or where no step lowers the
    residual any more.  The stop does not certify the loop; the eta gate on
    the solved loop does.

    Returns (loop, eta, nodes, T, (|r|, iterations, path, stop)): the
    solved ``DiscreteLoop``, with the seed's winding (None where the
    solution is no valid loop or misses the eta gate), and its eta norm
    (inf for no valid loop), the solved nodes and period, and the Newton
    report, whose stop reason is "roundoff", "stalled", "max_iterations" or
    "singular".  A loop the nodes do not resolve may still pass the eta
    gate; the closure and eta gates of its integrated record catch it.
    """
    drift = seed.drift(sys)
    fvec = _closing_system(sys, k, drift)
    nodes = _resample(seed.nodes, n_nodes, drift)
    u0 = np.concatenate([nodes.ravel(), [np.log(seed.period)]])
    xddot = loop_mod.spectral_derivative(_lifted_derivative(nodes, drift))
    floor = (ROUNDOFF_SCALE * np.finfo(float).eps * u0.size
             * max(1.0, float(np.max(np.abs(xddot)))))
    u, res_norm, iterations, path, stop = _damped_newton(
        fvec, lambda uu: _closing_jacobian(sys, uu, drift), u0, fvec(u0), floor, max_iter)
    nodes, T = u[:-1].reshape(nodes.shape), float(np.exp(u[-1]))
    try:
        solved = loop_mod.DiscreteLoop(nodes, T, seed.winding)
        eta = loop_mod.eta_norm(sys, solved, k)
    except ValueError:
        solved, eta = None, float("inf")
    if solved is not None and eta >= loop_mod.eta_gate(solved):
        solved = None
    return solved, eta, nodes, T, (res_norm, iterations, path, stop or "roundoff")


def _loop_start(sys, k, loop):
    """Start state (x0, v0) of the loop, with the velocity rescaled onto the
    energy level |v| = sqrt(2k)."""
    v0 = _lifted_derivative(loop.nodes, loop.drift(sys))[0] / loop.period
    return loop.nodes[0], v0 * (np.sqrt(2.0 * k) / sys.norm(loop.nodes[0], v0))


def _spread(nodes):
    return float(np.max(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1)))


def _collocation_record(sys, k, seed, tol, n_nodes, mode_count, max_iter=PREDICTOR_MAX_ITER):
    """The certified record, with method "collocation", of the orbit that
    Fourier collocation finds from the seed ``DiscreteLoop``.

    The first solve takes ``COLLOCATION_NODES`` nodes and up to max_iter
    Newton iterations.  Where its solved loop misses the eta gate, or the
    orbit integrated from the loop's start misses a gate of its record, the
    loop just solved is solved again at twice the nodes (``PREDICTOR_MAX_ITER``
    iterations), up to ``MAX_COLLOCATION_NODES``.  So is a loop whose Newton
    solve stopped above its roundoff floor, even where it passes the eta
    gate: the nodes did not resolve its closing conditions, and a record
    integrated from it carries that error in its period.  A solution whose
    period falls below ``T_FLOOR`` or whose nodes shrink toward a constant
    ends the search ("period_collapse").  Otherwise a failed search returns
    the ``SearchFailure`` of its last solve: the Newton stop ("stalled",
    "max_iterations", "singular"), "eta_gate" for a loop solved to roundoff
    that misses the gate, or the gate its record misses, with that solve's
    residual, iterations and period trace.
    """
    spread0 = _spread(seed.nodes)
    size = COLLOCATION_NODES
    while True:
        solved, _, nodes, T, (res_norm, iterations, path, stop) = _solve_closing(
            sys, k, seed, size, max_iter)
        period_trace = np.exp(path).tolist()
        if T < T_FLOOR or _spread(nodes) <= 1e-3 * spread0:
            return SearchFailure(reason="period_collapse", residual=res_norm,
                                 iterations=iterations, period_trace=period_trace,
                                 detail="loop shrinking toward constant")
        last = 2 * size > MAX_COLLOCATION_NODES
        if solved is None or not (stop == "roundoff" or last):
            reason = "eta_gate" if stop == "roundoff" else stop
            result = SearchFailure(reason=reason, residual=res_norm, iterations=iterations,
                                   period_trace=period_trace, detail=_NEWTON_DETAIL[reason])
        else:
            result = _build_record(sys, k, *_loop_start(sys, k, solved), solved.period, tol,
                                   n_nodes, mode_count)
            if isinstance(result, OrbitRecord):
                return result
            result.iterations, result.period_trace = iterations, period_trace
        if last:
            return result
        seed = loop_mod.DiscreteLoop(nodes, T, seed.winding)
        size, max_iter = 2 * size, PREDICTOR_MAX_ITER


def circle_loop(center, radius, n_nodes=128, period=2.0 * np.pi, phase=0.0,
                orientation=1):
    """Convenience seed loop for searches on planar charts.

    ``orientation`` +1 is counterclockwise; magnetic orbits rotate with
    the sign of the field strength (clockwise for b > 0 under the
    convention Om = g^{-1} sigma), so match it when seeding a search.
    """
    s = np.arange(n_nodes) / n_nodes
    ang = orientation * 2.0 * np.pi * s + phase
    nodes = np.stack([center[0] + radius * np.cos(ang),
                      center[1] + radius * np.sin(ang)], axis=1)
    return loop_mod.DiscreteLoop(nodes, period)


def orbit_seed_loop(sys, k, center, n_nodes=96, radius_scale=1.0):
    """Field-aware seed circle: radius sqrt(2k)/|b| at the center, rotation
    sense matching the field sign (surface charts)."""
    b = magcurv.field_strength(sys, np.asarray(center, dtype=float))
    if abs(b) < 1e-12:
        raise ValueError("field strength vanishes at the seed center")
    radius = radius_scale * np.sqrt(2.0 * k) / abs(b)
    # period chosen so the seed moves at the target speed sqrt(2k); a seed
    # with period exactly 2 pi / b would satisfy the nodal force equation
    # at every radius and strand the line search on that degenerate slice
    period = 2.0 * np.pi * radius / np.sqrt(2.0 * k)
    return circle_loop(center, radius, n_nodes=n_nodes, period=period,
                       orientation=-int(np.sign(b)))
