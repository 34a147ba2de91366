"""Closed-orbit search at fixed energy, continuation in energy, and
certification of the curvature-based period and index bounds.

The shooting system removes the time-translation degeneracy with a
phase condition <x0 - x_ref, v_ref>_g = 0 and drops the velocity
component along the orbit (energy conservation makes it redundant), so
the Newton system is square; steps are solved by least squares, which
also copes with the orbit-cylinder rank deficiency of families.  The
Newton Jacobian is exact: each residual evaluation integrates the flow
together with its monodromy matrix (the variational equations; Hairer,
Norsett & Wanner, Solving ODEs I), so one Newton step costs one
integration when its full step is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geom, loop as loop_mod, magcurv
from .errors import SingularJacobianError
from .flow import PhaseState, integrate, integrate_variational
from .io import dump_csv, dump_json

# certification gates
ENERGY_GATE = 1e-8
CLOSURE_GATE = 1e-7
BONNET_MYERS_SLACK = 1e-3
T_FLOOR = 1e-3
ACTION_FLOOR_SCALE = 1e-6


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

    def to_json(self, path=None):
        payload = {
            "schema_version": 1,
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
        if path:
            dump_json(path, payload)
        return payload


@dataclass
class SearchFailure:
    """Non-convergence report; never evidence of nonexistence."""

    reason: str
    residual: float
    iterations: int
    period_trace: list = field(default_factory=list)
    detail: str = ""

    def to_json(self, path=None):
        payload = {
            "schema_version": 1,
            "kind": "search_failure",
            "reason": self.reason,
            "residual": float(self.residual),
            "iterations": self.iterations,
            "period_trace": [float(t) for t in self.period_trace],
            "detail": self.detail,
            "note": "not found; nonexistence is never concluded from a failed search",
        }
        if path:
            dump_json(path, payload)
        return payload


def _unit_velocity(g, v):
    v = np.asarray(v, float)
    return v / float(np.sqrt(max(float(v @ g @ v), 0.0)))


def _start(sys, k, v_ref, n, u):
    """Start state (x0, v0) of the shooting unknowns u = (x0, d, T), with
    the metric at x0 and the g-orthonormal frame normal to the seed direction."""
    x0 = u[:n]
    pg = geom.PointGeometry(sys, x0)
    g = pg.g
    vdir = _unit_velocity(g, v_ref)
    frame_perp = geom.orthonormal_completion(sys, pg, vdir)[:, 1:]
    v0 = np.sqrt(2.0 * k) * _unit_velocity(g, vdir + frame_perp @ u[n:2 * n - 1])
    return x0, v0, g, frame_perp


def _residual(sys, k, x_ref, v_ref, n, u, tol, winding_target=None):
    """Periodicity residual F of the shooting unknowns u = (x0, d, T) and
    its Jacobian, from one integration of the flow with its monodromy
    matrix Phi.

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
        x0, v0, g, frame_perp = _start(sys, k, v_ref, n, uu)
        dx = ye[:n] - x0
        dx = sys.wrap_diff(dx) if winding_target is None else dx - shift
        dv_perp = frame_perp.T @ (g @ (ye[n:] - v0))
        phase = float((x0 - x_ref) @ g @ v_ref)
        return np.concatenate([x0, v0, dx, dv_perp, [phase]])

    x0, v0, g, frame_perp = _start(sys, k, v_ref, n, u)
    mono = integrate_variational(sys, PhaseState(x0, v0), T, tolerance=tol)
    ye = mono.y
    r = start_and_close(u, ye)[2 * n:]
    d_u = geom._fd_jacobian(lambda uu: start_and_close(uu, ye), u,
                            1e-6 * np.maximum(1.0, np.abs(u)))
    dye = mono.phi @ d_u[:2 * n]
    dye[:, -1] += mono.rhs
    f_y = np.zeros((2 * n, 2 * n))
    f_y[:n, :n] = np.eye(n)
    f_y[n:2 * n - 1, n:] = frame_perp.T @ g
    return r, d_u[2 * n:] + f_y @ dye


def shoot(sys, k, seed_state, T_guess, tol=1e-12, max_iter=30, residual_target=1e-10,
          n_nodes=512, mode_count=32, compute_index=True, winding_target=None):
    """Newton shooting for a closed orbit with energy k.

    Each residual evaluation integrates the flow with its monodromy matrix
    once and returns the exact Newton Jacobian with the residual, so a
    Newton step whose full step is accepted costs one integration.  Steps
    are least-squares solves, with backtracking on the residual norm.
    Returns a certified ``OrbitRecord`` or a ``SearchFailure`` report.
    """
    n = sys.dim
    seed_state = seed_state if isinstance(seed_state, PhaseState) else PhaseState(*seed_state)
    # anchor in the fundamental cell: keeps finite-difference steps scaled
    # sanely and stops drift along lattice translation symmetries
    x_ref = sys.wrap(seed_state.x)
    speed = sys.norm(x_ref, seed_state.v)
    if abs(speed - np.sqrt(2.0 * k)) > 1e-9 * max(1.0, np.sqrt(2.0 * k)):
        raise ValueError("seed velocity is not on the energy level |v| = sqrt(2k)")
    v_ref = seed_state.v.copy()
    u = np.concatenate([x_ref, np.zeros(n - 1), [float(T_guess)]])
    shoot_tol = max(tol, 1e-12)

    def res_fn(uu):
        return _residual(sys, k, x_ref, v_ref, n, uu, shoot_tol,
                         winding_target=winding_target)

    r, jac = res_fn(u)
    if r is None:
        raise ValueError("T_guess must be positive")
    history = [float(u[-1])]
    res_norm = float(np.linalg.norm(r))
    for it in range(max_iter):
        if res_norm < residual_target:
            break
        # a generous rcond keeps noise-level singular directions (orbit
        # families, lattice symmetries) out of the step
        step, *_ = np.linalg.lstsq(jac, -r, rcond=1e-6)
        if not np.all(np.isfinite(step)):
            raise SingularJacobianError("degenerate periodicity system; perturb seed")
        cap = 2.0 * max(1.0, float(np.linalg.norm(u)))
        if np.linalg.norm(step) > cap:
            step *= cap / np.linalg.norm(step)
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            u_try = u + damp * step
            if u_try[-1] <= T_FLOOR:
                continue
            r_try, jac_try = res_fn(u_try)
            if r_try is not None and np.linalg.norm(r_try) < res_norm:
                u, r, jac = u_try, r_try, jac_try
                res_norm = float(np.linalg.norm(r_try))
                improved = True
                break
        history.append(float(u[-1]))
        if not improved:
            return SearchFailure(reason="stalled", residual=res_norm,
                                 iterations=it + 1, period_trace=history,
                                 detail="Newton stalled; orbit not found from this seed")
    else:
        if res_norm >= residual_target:
            return SearchFailure(reason="max_iterations", residual=res_norm,
                                 iterations=max_iter, period_trace=history)

    return _build_record(sys, k, x_ref, v_ref, u, tol, n_nodes, mode_count,
                         compute_index, method="shoot")


def _build_record(sys, k, x_ref, v_ref, u, tol, n_nodes, mode_count,
                  compute_index, method):
    x0, v0, _, _ = _start(sys, k, v_ref, sys.dim, u)
    T = float(u[-1])
    orbit = integrate(sys, PhaseState(x0, v0), T, tolerance=min(tol, 1e-12),
                      samples=n_nodes + 1)
    lp = loop_mod.loop_from_orbit(orbit, n_nodes)
    eta_res = loop_mod.eta_norm(sys, lp, k)
    energy_res = orbit.energy_drift
    index_report = None
    if compute_index:
        index_report = loop_mod.morse_index(sys, lp, k, mode_count=mode_count)
    record = OrbitRecord(orbit=orbit, loop=lp, k=k, period=T,
                         closure_residual=orbit.closure_residual,
                         energy_residual=energy_res, eta_residual=eta_res,
                         winding=orbit.winding.copy(), index_report=index_report,
                         method=method)
    certify(sys, record)
    return record


def orbit_curvature_extrema(sys, record, directions=16):
    """Min of Ric_k and Sec_k along the orbit (direction = unit velocity;
    the sectional minimum additionally scans unit normals for dim > 2)."""
    lp = record.loop
    lg = loop_mod._loop_geometry(sys, lp)
    k = record.k
    min_ric = np.inf
    min_sec = np.inf
    rng = np.random.default_rng(0)
    for i in range(0, lp.n_nodes, max(1, lp.n_nodes // 128)):
        pg, v = lg.geometry[i], lg.unit[i]   # shares what the loop has computed
        min_ric = min(min_ric, magcurv.ric_omega_k(sys, pg, v, k))
        frame = geom.orthonormal_completion(sys, pg, v)
        if sys.dim == 2:
            ws = [frame[:, 1]]
        else:
            ws = [frame[:, 1 + j] for j in range(sys.dim - 1)]
            for _ in range(directions):
                z = rng.standard_normal(sys.dim - 1)
                ws.append(frame[:, 1:] @ (z / np.linalg.norm(z)))
        for w in ws:
            min_sec = min(min_sec, magcurv.sec_omega_k(sys, pg, v, w, k))
    return float(min_ric), float(min_sec)


def certify(sys, record, bm_slack=BONNET_MYERS_SLACK):
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
        bound = r * np.pi * (record.index + 1) * (1.0 + bm_slack)
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

    The predictor reuses the previous initial condition with the velocity
    rescaled onto the new energy level; the corrector is ``shoot``.  A
    fold (corrector failure after the predictor) truncates the family.
    """
    family = []
    prev = record
    prev_prev = None
    for k in k_grid:
        st0 = prev.orbit.state(0)
        v_new = st0.v * (np.sqrt(2.0 * k) / sys.norm(st0.x, st0.v))
        # secant predictor in log T vs log k: exact for power-law families
        # (constant periods and the kinetic scaling T ~ 1/sqrt(k) alike)
        T_pred = prev.period
        if prev_prev is not None and abs(prev_prev.k - prev.k) > 1e-12:
            slope = (np.log(prev.period) - np.log(prev_prev.period))                 / (np.log(prev.k) - np.log(prev_prev.k))
            T_pred = prev.period * (k / prev.k) ** slope
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


def _descent_state(sys, loop, k):
    force, c_tau, _ = loop_mod._force_residual(sys, loop, k)
    return force, c_tau, loop_mod.eta_norm(sys, loop, k)


def _h1_precondition(field):
    coef = np.fft.rfft(field, axis=0)
    j = np.arange(coef.shape[0])
    coef /= (1.0 + (2.0 * np.pi * j) ** 2)[:, None]
    return np.fft.irfft(coef, n=field.shape[0], axis=0)


def gradient_search(sys, k, initial_loop, schedule=None):
    """Search for a zero of the action form starting from a loop.

    The default mode "lm" runs Levenberg-Marquardt on the discretized
    closing conditions (nodal force balance in loop units plus the energy
    constraint, with the period log-parametrized); being a root finder it
    reaches zeros of any Morse index, and a success is polished by
    ``shoot`` before certification.  Mode "action" follows the saturated
    descent  -h(S) grad(S)/sqrt(1 + |grad S|^2)  of the action with a
    cutoff vanishing below the action floor; it can only terminate at
    minima.  Both modes classify their degenerations honestly (period
    collapse, loop shrinking toward a constant, the action-floor cutoff,
    or a stalled vanishing sequence) and carry a period trace.
    """
    cfg = {
        "mode": "lm",
        "max_iter": 400,
        "step": 0.5,
        "gate": None,
        "t_floor": T_FLOOR,
        "action_floor": ACTION_FLOOR_SCALE * k,
        "step_floor": 1e-10,
        "polish": True,
        "n_nodes": 512,
        "mode_count": 32,
        "max_nfev": 40000,
    }
    if schedule:
        cfg.update(schedule)
    if cfg["mode"] == "action":
        return _action_descent(sys, k, initial_loop, cfg)
    return _lm_search(sys, k, initial_loop, cfg)


def _closing_system(sys, k, n_nodes, n, trace):
    """Lean evaluator of the closing conditions; skips loop validation so
    the optimizer may probe freely.  Unknowns u = (nodes.ravel(), log T)."""

    def fvec(u):
        T = float(np.exp(np.clip(u[-1], -30.0, 30.0)))
        trace.append(T)
        x = u[:-1].reshape(n_nodes, n)
        xdot = loop_mod.spectral_derivative(x)
        xddot = loop_mod.spectral_derivative(xdot)
        force, c_tau = loop_mod._closing_terms(geom.PointGeometry(sys, x), xdot, xddot, T, k)
        return np.concatenate([force.ravel(), [c_tau * n_nodes]])

    return fvec


def _lm_search(sys, k, loop0, cfg):
    from scipy.optimize import least_squares

    if np.any(loop0.winding):
        raise ValueError("descent search supports contractible seed loops only")
    gate = cfg["gate"] if cfg["gate"] is not None else loop_mod.eta_gate(loop0)
    if loop_mod.eta_norm(sys, loop0, k) < gate:
        return _polish_loop(sys, k, loop0, cfg) if cfg["polish"] else loop0
    n = sys.dim
    n_nodes = loop0.n_nodes
    trace = [float(loop0.period)]
    fvec = _closing_system(sys, k, n_nodes, n, trace)
    u0 = np.concatenate([loop0.nodes.ravel(), [np.log(loop0.period)]])
    res = least_squares(fvec, u0, method="lm", xtol=1e-13, ftol=1e-13,
                        gtol=1e-13, max_nfev=int(cfg["max_nfev"]))
    T = float(np.exp(res.x[-1]))
    nodes = res.x[:-1].reshape(n_nodes, n)
    period_trace = trace[:: max(1, len(trace) // 64)]

    spread = float(np.max(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1)))
    spread0 = float(np.max(np.linalg.norm(loop0.nodes - loop0.nodes.mean(axis=0), axis=1)))
    if T < cfg["t_floor"] or spread <= 1e-3 * spread0:
        return SearchFailure(reason="period_collapse", residual=float(np.sqrt(2 * res.cost)),
                             iterations=int(res.nfev), period_trace=period_trace,
                             detail="loop shrinking toward constant")
    try:
        final = loop_mod.DiscreteLoop(nodes, T, winding=loop0.winding.copy())
        eta_res = loop_mod.eta_norm(sys, final, k)
    except ValueError:
        final, eta_res = None, float("inf")
    if final is not None and eta_res < gate:
        if cfg["polish"]:
            return _polish_loop(sys, k, final, cfg)
        return final
    return SearchFailure(reason="stalled", residual=float(eta_res),
                         iterations=int(res.nfev), period_trace=period_trace,
                         detail="vanishing sequence: residual stalled above the gate")


def _action_descent(sys, k, loop0, cfg):
    loop = loop0
    nodes = loop.nodes.copy()
    T = float(loop.period)
    gate = cfg["gate"] if cfg["gate"] is not None else loop_mod.eta_gate(loop)
    period_trace = [T]
    step = float(cfg["step"])

    def action_of(nds, TT):
        return loop_mod.action(sys, loop_mod.DiscreteLoop(nds, TT, winding=loop.winding.copy()), k)

    s_val = action_of(nodes, T)
    for it in range(int(cfg["max_iter"])):
        cur = loop_mod.DiscreteLoop(nodes, T, winding=loop.winding.copy())
        rep, c_tau, res = _descent_state(sys, cur, k)
        period_trace.append(T)
        if res < gate:
            if cfg["polish"]:
                return _polish_loop(sys, k, cur, cfg)
            return cur
        if T < cfg["t_floor"]:
            return SearchFailure(reason="period_collapse", residual=res,
                                 iterations=it, period_trace=period_trace,
                                 detail="loop shrinking toward constant")
        if s_val < cfg["action_floor"]:
            return SearchFailure(reason="action_floor", residual=res,
                                 iterations=it, period_trace=period_trace,
                                 detail="saturated flow cut off below the action floor")

        # dS(V, tau) = -T<F, V> + tau c_tau, so the downhill direction is
        # (+F, -c_tau); the update below subtracts the direction
        direction_nodes = -_h1_precondition(rep)
        direction_t = c_tau
        mag = np.sqrt(float(np.mean(np.einsum("ni,ni->n", direction_nodes,
                                              direction_nodes))) + direction_t ** 2)
        sat = 1.0 / np.sqrt(1.0 + mag ** 2)
        accepted = False
        while step >= cfg["step_floor"]:
            nodes_try = nodes - step * sat * direction_nodes
            t_try = T - step * sat * direction_t
            if t_try <= 0:
                step *= 0.5
                continue
            s_try = action_of(nodes_try, t_try)
            if s_try <= s_val:
                nodes, T, s_val = nodes_try, t_try, s_try
                step = min(step * 1.2, float(cfg["step"]))
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return SearchFailure(reason="step_floor", residual=res,
                                 iterations=it, period_trace=period_trace,
                                 detail="vanishing sequence: descent stalled")

    cur = loop_mod.DiscreteLoop(nodes, T, winding=loop.winding.copy())
    res = loop_mod.eta_norm(sys, cur, k)
    if res < gate and cfg["polish"]:
        return _polish_loop(sys, k, cur, cfg)
    return SearchFailure(reason="iteration_cap", residual=res,
                         iterations=int(cfg["max_iter"]), period_trace=period_trace)


def _polish_loop(sys, k, loop, cfg):
    lg = loop_mod._loop_geometry(sys, loop)
    x0 = loop.nodes[0]
    v0 = lg.xdot[0] / loop.period
    v0 *= np.sqrt(2.0 * k) / sys.norm(x0, v0)
    rec = shoot(sys, k, PhaseState(x0, v0), loop.period,
                n_nodes=cfg["n_nodes"], mode_count=cfg["mode_count"])
    if isinstance(rec, OrbitRecord):
        rec.method = "gradient_search"
    return rec


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


def multi_seed_search(sys, k, seeds, T_guess, **kwargs):
    """Run shoot for each seed in turn; merge deterministically by
    (closure residual, period)."""
    results = [shoot(sys, k, st, T_guess, **kwargs) for st in seeds]
    records = [r for r in results if isinstance(r, OrbitRecord)]
    failures = [r for r in results if isinstance(r, SearchFailure)]
    records.sort(key=lambda r: (r.closure_residual, r.period))
    return records, failures
