"""Closed-orbit search at fixed energy, continuation in energy, and
certification of the curvature-based period and index bounds.

Two correctors find closed orbits.  Fourier collocation (``_solve_closing``)
starts from a loop.  It resamples the loop to ``COLLOCATION_NODES`` nodes
and solves its discretized closing conditions (eta = 0) with a damped
least-squares Newton step (``_damped_newton``) on their exact Jacobian: the
Fourier differentiation matrix (Trefethen, Spectral Methods in MATLAB) plus
pointwise blocks from the acceleration's derivatives at the nodes.  It
stops at roundoff, when the residual falls below a floor scaled by the
seed's s-acceleration, and integrates nothing; the eta gate on the solved
loop decides whether it is solved.

Shooting (``shoot``) starts from a point seed.  Its system removes the
time-translation degeneracy with a phase condition <x0 - x_ref, v_ref>_g = 0
and measures the end velocity's part normal to v0; steps are solved by
least squares, which also copes with the orbit-cylinder rank deficiency of
families.  The Newton Jacobian is exact: each residual evaluation
integrates the flow together with its monodromy matrix (the variational
equations; Hairer, Norsett & Wanner, Solving ODEs I), so one Newton step
costs one integration when its full step is accepted.

A point seed collocates first (``find_orbit``): the seed's orbit,
integrated once over the period guess with its closure gap spread over
the lift, is the loop of one collocation solve, the standard predictor for
periodic orbits (Doedel, Keller & Kernevez, Numerical analysis and control
of bifurcation problems II, 1991).  The descent search (``gradient_search``)
runs the solve once from a seed loop, and continuation (``continue_in_k``)
once from the previous orbit's loop.  ``shoot`` corrects winding targets
and whatever collocation leaves unsolved.  Every corrector ends in
``_build_record``, which integrates the orbit once from its start state,
gates its closure and eta before the index, and certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geom, loop as loop_mod, magcurv
from .errors import ChartExitError, DegenerateMetricError, StiffTrajectoryError
from .flow import PhaseState, integrate, integrate_variational
from .io import SCHEMA_VERSION, dump_csv

# certification gates
ENERGY_GATE = 1e-8
CLOSURE_GATE = 1e-7
BONNET_MYERS_SLACK = 1e-3
T_FLOOR = 1e-3
# random unit normals per node, beyond the completion of v, over which
# ``orbit_curvature_extrema`` takes the sectional minimum when dim > 2
SEC_DIRECTIONS = 16

# nodes of a Fourier collocation solve (each Newton step is a dense
# least-squares solve of size N n + 1, whose cost grows as N^3)
COLLOCATION_NODES = 32
# Newton iteration caps of a collocation solve: a descent seed may start far
# from an orbit, a continuation predictor starts next to one
DESCENT_MAX_ITER = 400
PREDICTOR_MAX_ITER = 30
# a collocation solve stops at roundoff: once its residual norm falls below
# ROUNDOFF_SCALE eps (N n + 1) max(1, max |xddot|), with xddot the second
# s-derivative of the resampled seed nodes (the size of the residual's
# terms), where a further step would only move noise (Deuflhard, Newton
# Methods for Nonlinear Problems, 2004: stop at the attainable accuracy)
ROUNDOFF_SCALE = 1e3
# the loop predicted from a point seed: samples of its integrated orbit, at a
# tolerance that only has to beat the collocation's own correction
SEED_NODES = 64
SEED_TOLERANCE = 1e-10


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
    method: str = "shoot"

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
    """Non-convergence report; never evidence of nonexistence."""

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
            "residual": float(self.residual),
            "iterations": self.iterations,
            "period_trace": [float(t) for t in self.period_trace],
            "detail": self.detail,
            "note": "not found; nonexistence is never concluded from a failed search",
        }


def _unit_velocity(g, v):
    v = np.asarray(v, float)
    return v / float(np.sqrt(max(float(v @ g @ v), 0.0)))


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


def _start(sys, k, v_ref, n, u):
    """Start state (x0, v0) of the shooting unknowns u = (x0, d, T), with
    the metric g at x0 and the linear map of a velocity to the coordinates
    of its part g-normal to v0 in the g-orthonormal frame at x0 whose first
    leg is along the seed direction (d moves v0 along the other legs)."""
    x0 = u[:n]
    pg = geom.PointGeometry(sys, x0)
    g = pg.g
    vdir = _unit_velocity(g, v_ref)
    frame = geom.orthonormal_completion(sys, pg, vdir)
    v0 = np.sqrt(2.0 * k) * _unit_velocity(g, vdir + frame[:, 1:] @ u[n:2 * n - 1])
    normal = frame.T @ g @ (np.eye(n) - np.outer(v0, g @ v0) / (2.0 * k))
    return x0, v0, g, normal


def _residual(sys, k, x_ref, v_ref, n, u, tol, winding_target=None):
    """Periodicity residual F of the shooting unknowns u = (x0, d, T) and
    its Jacobian, from one integration of the flow with its monodromy
    matrix Phi.

    F stacks the position gap, the end velocity's part g-normal to v0 (in
    the orthonormal frame at x0) and the phase condition: 2n + 1 rows for
    2n unknowns.  The velocity part along v0 is left out: energy
    conservation fixes it once the position gap closes, and away from
    closure it only compares coordinate velocities at distant points.  The
    normal part vanishes only where the end velocity is parallel to v0;
    the reversed one, -v0, is a root too, which the closure gate of the
    record rejects.
    With S(u) = (x0, v0) the start state, y_e = phi_T(S(u)) the end state
    and f the vector field, dF/du = F_u + F_y (Phi S_u + f(y_e) e_T^T).
    Neither S nor the closing map F(u, y_e) integrates anything, so S_u and
    F_u are central differences; F_y is exact.
    """
    T = u[-1]
    if T <= 0:
        return None, None
    shift = np.zeros(n)
    if winding_target is not None and sys.lattice is not None:
        for i, period in enumerate(sys.lattice):
            if period:
                shift[i] = winding_target[i] * period

    def start_and_close(uu, ye):
        """(S(uu), F(uu, ye)) stacked into one vector."""
        x0, v0, g, normal = _start(sys, k, v_ref, n, uu)
        dx = ye[:n] - x0
        dx = sys.wrap_diff(dx) if winding_target is None else dx - shift
        phase = float((x0 - x_ref) @ g @ v_ref)
        return np.concatenate([x0, v0, dx, normal @ ye[n:], [phase]])

    x0, v0, _, normal = _start(sys, k, v_ref, n, u)
    mono = integrate_variational(sys, PhaseState(x0, v0), T, tolerance=tol)
    ye = mono.y
    r = start_and_close(u, ye)[2 * n:]
    d_u = geom._fd_jacobian(lambda uu: start_and_close(uu, ye), u,
                            1e-6 * np.maximum(1.0, np.abs(u)))
    dye = mono.phi @ d_u[:2 * n]
    dye[:, -1] += mono.rhs
    f_y = np.zeros((2 * n + 1, 2 * n))
    f_y[:n, :n] = np.eye(n)
    f_y[n:2 * n, n:] = normal
    return r, d_u[2 * n:] + f_y @ dye


def _damped_newton(residual, jacobian, u, r, residual_target, max_iter, floor=-np.inf):
    """Damped least-squares Newton iteration on residual(u) = 0 from u, where
    the residual is r.

    Each step solves jacobian(u) step = -r by least squares, caps its length
    at 2 max(1, |u|) and backtracks from the full step down to 1/16 until the
    residual norm drops.  Trials with u[-1] <= floor are skipped, and
    ``residual`` returns None where a trial is outside its domain.
    ``jacobian`` is only asked at the current iterate, which is always the
    point ``residual`` evaluated last.  Returns (u, |r|, iterations, path,
    stop): path holds u[-1] at the start and after each iteration; stop is
    None once |r| < residual_target, else "stalled", "max_iterations" or
    "singular" (a non-finite step).
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
            if u_try[-1] <= floor:
                continue
            r_try = residual(u_try)
            if r_try is not None and np.linalg.norm(r_try) < res_norm:
                u, r, res_norm = u_try, r_try, float(np.linalg.norm(r_try))
                improved = True
                break
        path.append(float(u[-1]))
        if not improved:
            return u, res_norm, it + 1, path, "stalled"
    return u, res_norm, max_iter, path, None if res_norm < residual_target else "max_iterations"


def shoot(sys, k, seed_state, T_guess, tol=1e-12, max_iter=30, residual_target=1e-10,
          n_nodes=512, mode_count=32, compute_index=True, winding_target=None):
    """Newton shooting for a closed orbit with energy k.

    Each residual evaluation integrates the flow with its monodromy matrix
    once and returns the exact Newton Jacobian with the residual, so a
    Newton step whose full step is accepted costs one integration.  Steps
    are least-squares solves, with backtracking on the residual norm.
    Returns a certified ``OrbitRecord`` or a ``SearchFailure`` report whose
    reason is the Newton stop ("stalled", "max_iterations", "singular") or
    the gate the found orbit misses (see ``_build_record``).  Point seeds of
    the CLI reach it only through ``find_orbit``, where collocation comes
    first.
    """
    n = sys.dim
    seed = _seed(sys, k, seed_state)
    x_ref, v_ref = seed.x, seed.v
    u = np.concatenate([x_ref, np.zeros(n - 1), [float(T_guess)]])
    shoot_tol = max(tol, 1e-12)
    jac = None

    def residual(uu):
        nonlocal jac
        r, jac = _residual(sys, k, x_ref, v_ref, n, uu, shoot_tol,
                           winding_target=winding_target)
        return r

    r = residual(u)
    if r is None:
        raise ValueError("T_guess must be positive")
    u, res_norm, iterations, history, stop = _damped_newton(
        residual, lambda _: jac, u, r, residual_target, max_iter, floor=T_FLOOR)
    if stop is not None:
        detail = {"singular": "non-finite Newton step; perturb the seed",
                  "stalled": "Newton stalled; orbit not found from this seed"}
        return SearchFailure(reason=stop, residual=res_norm, iterations=iterations,
                             period_trace=history, detail=detail.get(stop, ""))

    x0, v0, _, _ = _start(sys, k, v_ref, n, u)
    record = _build_record(sys, k, x0, v0, float(u[-1]), tol, n_nodes, mode_count,
                           compute_index)
    if isinstance(record, SearchFailure):
        record.iterations, record.period_trace = iterations, history
    return record


def find_orbit(sys, k, seed_state, T_guess, tol=1e-12, n_nodes=512, mode_count=32,
               winding_target=None):
    """Closed orbit with energy k from a point seed.

    Where the target is contractible (``winding_target`` None or all
    zeros), the seed is integrated once over ``T_guess``, its closure gap is
    spread linearly over the lift, and one collocation solve corrects that
    loop (``_collocation_record``); the record, with method "collocation",
    is kept when it does not wind.  Otherwise, and where the seed's orbit
    fails in the flow or swaps charts from both ends of the transition, or
    the collocation misses a gate, ``shoot`` runs from the same seed.
    Returns a certified ``OrbitRecord`` or a ``SearchFailure``.
    """
    if T_guess > 0 and (winding_target is None or not np.any(winding_target)):
        nodes = _seed_nodes(sys, _seed(sys, k, seed_state), T_guess)
        record = None if nodes is None else _collocation_record(
            sys, k, nodes, T_guess, tol, n_nodes, mode_count)
        if record is not None and not np.any(record.winding):
            return record
    return shoot(sys, k, seed_state, T_guess, tol=tol, n_nodes=n_nodes,
                 mode_count=mode_count, winding_target=winding_target)


def _seed_nodes(sys, state, T):
    """Loop nodes predicted from the orbit of state over T: ``SEED_NODES``
    samples of its lift, less the closure gap x(T) - x(0) in proportion
    to time.  The orbit is integrated again from the transition image of
    state where it swaps charts; None where it swaps charts from both, or
    the flow fails."""
    try:
        orbit = integrate(sys, state, T, tolerance=SEED_TOLERANCE, samples=SEED_NODES + 1)
        if orbit.meta["chart_swaps_total"]:
            orbit = integrate(sys, PhaseState(*sys.transition(state.x, state.v)), T,
                              tolerance=SEED_TOLERANCE, samples=SEED_NODES + 1)
    except (ChartExitError, StiffTrajectoryError, DegenerateMetricError):
        return None
    if orbit.meta["chart_swaps_total"]:
        return None
    x = orbit.states[:, :sys.dim]
    s = np.arange(SEED_NODES + 1)[:, None] / SEED_NODES
    return (x - s * (x[-1] - x[0]))[:-1]


def _build_record(sys, k, x0, v0, T, tol, n_nodes, mode_count, compute_index):
    """The certified record of the closed orbit with start state (x0, v0) and
    period T, or a ``SearchFailure`` (zero iterations) when the orbit swaps
    charts from both ends of the transition ("chart_swap") or misses the
    closure or eta gate ("closure_gate", "eta_gate"; the index needs a
    critical loop, so these gates come first)."""
    orbit = integrate(sys, PhaseState(x0, v0), T, tolerance=min(tol, 1e-12),
                      samples=n_nodes + 1)
    if orbit.meta["chart_swaps_total"]:
        # the same orbit from the other chart, where it may stay in one chart
        orbit = integrate(sys, PhaseState(*sys.transition(x0, v0)), T,
                          tolerance=min(tol, 1e-12), samples=n_nodes + 1)
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
    index_report = None
    if compute_index:
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

    The predictor is the previous orbit's loop with a secant period; the
    corrector is one Fourier collocation solve (``_collocation_record``),
    which integrates nothing until the record is built.  The record from
    which the family starts comes from a point seed (``find_orbit``, which
    collocates first too).  A loop that winds, or a collocation whose loop
    or integrated orbit misses a gate, is corrected by ``shoot`` from the
    previous initial condition with the velocity rescaled onto the new
    energy level, retried with the kinetic period rescaling.  A fold (both
    shooting correctors fail) truncates the family.
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
        result = None
        if not np.any(prev.loop.winding):
            result = _collocation_record(sys, k, prev.loop.nodes, T_pred, tol,
                                         n_nodes, mode_count)
        if result is None:
            st0 = prev.orbit.state(0)
            v_new = st0.v * (np.sqrt(2.0 * k) / sys.norm(st0.x, st0.v))
            result = shoot(sys, k, PhaseState(st0.x, v_new), T_pred, tol=tol,
                           n_nodes=n_nodes, mode_count=mode_count)
            if isinstance(result, SearchFailure):
                # fall back to the kinetic rescaling predictor
                T_retry = prev.period * np.sqrt(prev.k / k)
                result = shoot(sys, k, PhaseState(st0.x, v_new), T_retry, tol=tol,
                               n_nodes=n_nodes, mode_count=mode_count)
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

    One Fourier collocation solve (``_solve_closing``): the seed is
    resampled to ``COLLOCATION_NODES`` nodes and its closing conditions
    (nodal force balance in loop units plus the energy constraint, with the
    period log-parametrized) are solved by a damped least-squares Newton
    iteration on their exact Jacobian, the same step as ``shoot``'s, which
    stops once the residual is at its roundoff floor (``ROUNDOFF_SCALE``),
    or where no step lowers it; being a root finder it reaches zeros of any
    Morse index.  The eta gate on the solved loop, not the Newton stop,
    decides success.  The solved loop's orbit is integrated and certified,
    or corrected by ``shoot`` when it misses the closure or eta gate.
    Degenerations are classified honestly (period collapse or loop
    shrinking toward a constant, a stalled vanishing sequence) and carry a
    period trace.  Returns an ``OrbitRecord`` or a ``SearchFailure``.

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

    solved, eta, nodes, T, (res_norm, iterations, path, _) = _solve_closing(
        sys, k, initial_loop.nodes, initial_loop.period, DESCENT_MAX_ITER)
    period_trace = np.exp(path).tolist()
    seed = initial_loop.nodes
    spread = float(np.max(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1)))
    spread0 = float(np.max(np.linalg.norm(seed - seed.mean(axis=0), axis=1)))
    if T < T_FLOOR or spread <= 1e-3 * spread0:
        return SearchFailure(reason="period_collapse", residual=res_norm,
                             iterations=iterations, period_trace=period_trace,
                             detail="loop shrinking toward constant")
    if solved is None:
        return SearchFailure(reason="stalled", residual=float(eta),
                             iterations=iterations, period_trace=period_trace,
                             detail="vanishing sequence: residual stalled above the gate")
    rec = _loop_record(sys, k, solved, 1e-12, cfg["n_nodes"], cfg["mode_count"])
    if rec is None:
        rec = shoot(sys, k, PhaseState(*_loop_start(sys, k, nodes, T)), T,
                    n_nodes=cfg["n_nodes"], mode_count=cfg["mode_count"])
    if isinstance(rec, OrbitRecord):
        rec.method = "gradient_search"
    return rec


def _closing_state(sys, u):
    """Geometry at the nodes, their s-derivatives and the period of the
    closing unknowns u = (nodes.ravel(), log T)."""
    x = u[:-1].reshape(-1, sys.dim)
    T = float(np.exp(np.clip(u[-1], -30.0, 30.0)))
    return geom.PointGeometry(sys, x), loop_mod.spectral_derivative(x), T


def _closing_system(sys, k):
    """Lean evaluator of the closing conditions; skips loop validation so
    the solver may probe freely.  Unknowns u = (nodes.ravel(), log T)."""

    def fvec(u):
        pg, xdot, T = _closing_state(sys, u)
        xddot = loop_mod.spectral_derivative(xdot)
        force, c_tau = loop_mod._closing_terms(pg, xdot, xddot, T, k)
        return np.concatenate([force.ravel(), [c_tau * len(xdot)]])

    return fvec


def _closing_jacobian(sys, u):
    """Exact Jacobian at u of the closing conditions ``_closing_system(sys, k)``,
    which does not depend on k.

    With D the s-derivative matrix the residual applies (Nyquist mode
    zeroed) and (J_x, J_v)_i = da/d(x, v) at the velocity xdot_i/T, the force
    rows xddot - T^2 a(xdot/T) are  D^2 (x) I - T [J_v_i] D - T^2 blockdiag(J_x_i),
    with -T Om_i xdot_i = T (J_v_i xdot_i - 2 T a_i), a_i = a(xdot_i/T), in the
    log T column; the energy row differentiates
    N k - sum_i |xdot_i|_g^2 / (2 T^2).
    """
    pg, xdot, T = _closing_state(sys, u)
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


def _resample(nodes, n_nodes):
    """The trigonometric interpolant of periodic nodes at n_nodes equispaced
    nodes: FFT truncation or zero padding, without the Nyquist mode of the
    coarser grid."""
    coef = np.fft.rfft(nodes, axis=0)
    out = np.zeros((n_nodes // 2 + 1, nodes.shape[1]), dtype=complex)
    keep = (min(len(nodes), n_nodes) + 1) // 2
    out[:keep] = coef[:keep]
    return np.fft.irfft(out, n=n_nodes, axis=0) * (n_nodes / len(nodes))


def _solve_closing(sys, k, nodes, T, max_iter):
    """One Fourier collocation solve from the periodic loop (nodes, T): the
    nodes resampled to ``COLLOCATION_NODES`` and a damped Newton iteration
    on their closing conditions, which stops at roundoff (the residual
    below the ``ROUNDOFF_SCALE`` floor of the seed), or where no step lowers
    the residual any more.  The stop does not certify the loop; the eta
    gate on the solved loop does.

    Returns (loop, eta, nodes, T, (|r|, iterations, path, stop)): the
    solved ``DiscreteLoop`` (None where the solution is no valid loop or
    misses the eta gate) and its eta norm (inf for no valid loop), the
    solved nodes and period, and the Newton report, whose stop reason is
    "roundoff", "stalled", "max_iterations" or "singular".  A loop the
    nodes do not resolve fails later, at the closure or eta gate of its
    integrated record.
    """
    fvec = _closing_system(sys, k)
    nodes = _resample(nodes, COLLOCATION_NODES)
    u0 = np.concatenate([nodes.ravel(), [np.log(T)]])
    xddot = loop_mod.spectral_derivative(loop_mod.spectral_derivative(nodes))
    floor = (ROUNDOFF_SCALE * np.finfo(float).eps * u0.size
             * max(1.0, float(np.max(np.abs(xddot)))))
    u, res_norm, iterations, path, stop = _damped_newton(
        fvec, lambda uu: _closing_jacobian(sys, uu), u0, fvec(u0), floor, max_iter)
    nodes, T = u[:-1].reshape(nodes.shape), float(np.exp(u[-1]))
    try:
        solved = loop_mod.DiscreteLoop(nodes, T)
        eta = loop_mod.eta_norm(sys, solved, k)
    except ValueError:
        solved, eta = None, float("inf")
    if solved is not None and eta >= loop_mod.eta_gate(solved):
        solved = None
    return solved, eta, nodes, T, (res_norm, iterations, path, stop or "roundoff")


def _loop_start(sys, k, nodes, T):
    """Start state (x0, v0) of the periodic loop (nodes, T), with the
    velocity rescaled onto the energy level |v| = sqrt(2k)."""
    v0 = loop_mod.spectral_derivative(nodes)[0] / T
    return nodes[0], v0 * (np.sqrt(2.0 * k) / sys.norm(nodes[0], v0))


def _loop_record(sys, k, loop, tol, n_nodes, mode_count):
    """The certified record of the orbit integrated from the start of the
    solved loop; None when the orbit swaps charts from both ends or misses
    the closure or eta gate."""
    x0, v0 = _loop_start(sys, k, loop.nodes, loop.period)
    record = _build_record(sys, k, x0, v0, loop.period, tol, n_nodes, mode_count, True)
    return record if isinstance(record, OrbitRecord) else None


def _collocation_record(sys, k, nodes, T, tol, n_nodes, mode_count):
    """The certified record, with method "collocation", of the orbit one
    collocation solve finds from the contractible loop (nodes, T); None
    when the solved loop or its integrated orbit misses a gate."""
    solved = _solve_closing(sys, k, nodes, T, PREDICTOR_MAX_ITER)[0]
    record = None if solved is None else _loop_record(sys, k, solved, tol, n_nodes,
                                                      mode_count)
    if record is not None:
        record.method = "collocation"
    return record


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
