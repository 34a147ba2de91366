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

The descent search (``gradient_search``) solves the discretized closing
conditions of a loop with the same damped least-squares Newton step
(``_damped_newton``, shared with ``shoot``), on their exact Jacobian: the
Fourier differentiation matrix (Trefethen, Spectral Methods in MATLAB)
plus pointwise blocks in Gamma, dGamma, Omega and dOmega at the nodes.
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
    if stop == "singular":
        raise SingularJacobianError("degenerate periodicity system; perturb seed")
    if stop == "stalled":
        return SearchFailure(reason="stalled", residual=res_norm,
                             iterations=iterations, period_trace=history,
                             detail="Newton stalled; orbit not found from this seed")
    if stop == "max_iterations":
        return SearchFailure(reason="max_iterations", residual=res_norm,
                             iterations=iterations, period_trace=history)

    record = _build_record(sys, k, v_ref, u, tol, n_nodes, mode_count, compute_index)
    if record is None:
        return SearchFailure(reason="chart_swap", residual=res_norm,
                             iterations=iterations, period_trace=history,
                             detail="the closed orbit leaves both charts; "
                                    "its loop cannot be resampled in one chart")
    return record


def _build_record(sys, k, v_ref, u, tol, n_nodes, mode_count, compute_index):
    """The certified record of the closed orbit from the shooting unknowns u,
    or None when the orbit swaps charts from both ends of the transition."""
    x0, v0, _, _ = _start(sys, k, v_ref, sys.dim, u)
    T = float(u[-1])
    orbit = integrate(sys, PhaseState(x0, v0), T, tolerance=min(tol, 1e-12),
                      samples=n_nodes + 1)
    if orbit.meta["chart_swaps_total"]:
        # the same orbit from the other chart, where it may stay in one chart
        orbit = integrate(sys, PhaseState(*sys.transition(x0, v0)), T,
                          tolerance=min(tol, 1e-12), samples=n_nodes + 1)
        if orbit.meta["chart_swaps_total"]:
            return None
    lp = loop_mod.loop_from_orbit(orbit, n_nodes)
    eta_res = loop_mod.eta_norm(sys, lp, k)
    energy_res = orbit.energy_drift
    index_report = None
    if compute_index:
        index_report = loop_mod.morse_index(sys, lp, k, mode_count=mode_count)
    record = OrbitRecord(orbit=orbit, loop=lp, k=k, period=T,
                         closure_residual=orbit.closure_residual,
                         energy_residual=energy_res, eta_residual=eta_res,
                         winding=orbit.winding.copy(), index_report=index_report)
    certify(sys, record)
    return record


def orbit_curvature_extrema(sys, record, directions=16):
    """Min of Ric_k and Sec_k along the orbit (direction = unit velocity;
    the sectional minimum additionally scans unit normals for dim > 2)."""
    lp = record.loop
    lg = loop_mod._loop_geometry(sys, lp)
    k = record.k
    step = max(1, lp.n_nodes // 128)
    pg, v = lg.geometry[::step], lg.unit[::step]   # shares what the loop has computed
    min_ric = np.min(magcurv.ric_omega_k(sys, pg, v, k))
    # unit normals at each node: the completion of v, and for dim > 2
    # random combinations of it
    rng = np.random.default_rng(0)
    normals = []
    for i in range(len(v)):
        frame = geom.orthonormal_completion(sys, pg[i], v[i])[:, 1:]
        if sys.dim > 2:
            z = rng.standard_normal((directions, sys.dim - 1))
            frame = np.column_stack([frame, frame @ (z / np.linalg.norm(z, axis=1)[:, None]).T])
        normals.append(frame)
    normals = np.array(normals)
    min_sec = min(np.min(magcurv.sec_omega_k(sys, pg, v, normals[..., j], k))
                  for j in range(normals.shape[-1]))
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


def gradient_search(sys, k, initial_loop, schedule=None):
    """Search for a zero of the action form starting from a loop.

    Solves the discretized closing conditions (nodal force balance in loop
    units plus the energy constraint, with the period log-parametrized) by a
    damped least-squares Newton iteration on their exact Jacobian, the same
    step as ``shoot``'s, iterated to roundoff; being a root finder it
    reaches zeros of any Morse index, and a success is polished by
    ``shoot`` before certification.  Degenerations are classified honestly
    (period collapse or loop shrinking toward a constant, a stalled
    vanishing sequence) and carry a period trace.

    ``schedule`` overrides the keys of the defaults below; ``max_iter`` caps
    the Newton iterations.  An unknown key raises ``ValueError``.
    """
    cfg = {
        "max_iter": 400,
        "gate": None,
        "t_floor": T_FLOOR,
        "polish": True,
        "n_nodes": 512,
        "mode_count": 32,
    }
    schedule = schedule or {}
    unknown = sorted(set(schedule) - set(cfg))
    if unknown:
        raise ValueError(f"unknown gradient_search schedule keys: {unknown}")
    cfg.update(schedule)
    return _lm_search(sys, k, initial_loop, cfg)


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
    zeroed), the force rows are  D^2 (x) I + [Jv_i] D + blockdiag(Jx_i)  with
    Jv_i = 2 Gamma_i(xdot_i, .) - T Om_i  and
    Jx_i = dGamma_i(xdot_i, xdot_i) - T dOm_i xdot_i,  and -T Om_i xdot_i in
    the log T column; the energy row differentiates
    N k - sum_i |xdot_i|_g^2 / (2 T^2).
    """
    pg, xdot, T = _closing_state(sys, u)
    n_nodes, n = xdot.shape
    d = loop_mod.spectral_derivative(np.eye(n_nodes))
    dlog = 1.0 if abs(u[-1]) < 30.0 else 0.0   # d log T / du[-1] under the clip
    jv = 2.0 * np.einsum("ikaj,ia->ikj", pg.gamma, xdot) - T * pg.omega
    jx = (np.einsum("ikabj,ia,ib->ikj", pg.dgamma, xdot, xdot)
          - T * np.einsum("ikaj,ia->ikj", pg.domega, xdot))
    blocks = np.einsum("ij,ikm->ikjm", d, jv)
    nodes = np.arange(n_nodes)
    blocks[nodes, :, nodes, :] += jx
    gxdot = np.einsum("iab,ib->ia", pg.g, xdot)
    dspeed2 = np.einsum("iabm,ia,ib->im", pg.dg, xdot, xdot)
    jac = np.empty((n_nodes * n + 1, n_nodes * n + 1))
    jac[:-1, :-1] = np.kron(d @ d, np.eye(n)) + blocks.reshape(n_nodes * n, n_nodes * n)
    jac[:-1, -1] = -dlog * T * np.einsum("ikj,ij->ik", pg.omega, xdot).ravel()
    jac[-1, :-1] = -(d.T @ gxdot + 0.5 * dspeed2).ravel() / T ** 2
    jac[-1, -1] = dlog * float(np.sum(gxdot * xdot)) / T ** 2
    return jac


def _lm_search(sys, k, loop0, cfg):
    if np.any(loop0.winding):
        raise ValueError("descent search supports contractible seed loops only")
    gate = cfg["gate"] if cfg["gate"] is not None else loop_mod.eta_gate(loop0)
    if loop_mod.eta_norm(sys, loop0, k) < gate:
        return _polish_loop(sys, k, loop0, cfg) if cfg["polish"] else loop0
    fvec = _closing_system(sys, k)
    u0 = np.concatenate([loop0.nodes.ravel(), [np.log(loop0.period)]])
    # no residual target: the iteration stops when no step lowers the
    # residual any more, at roundoff on a converging seed
    u, res_norm, iterations, path, _ = _damped_newton(
        fvec, lambda uu: _closing_jacobian(sys, uu), u0, fvec(u0), 0.0,
        int(cfg["max_iter"]))
    T = float(np.exp(u[-1]))
    nodes = u[:-1].reshape(loop0.nodes.shape)
    period_trace = np.exp(path).tolist()

    spread = float(np.max(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1)))
    spread0 = float(np.max(np.linalg.norm(loop0.nodes - loop0.nodes.mean(axis=0), axis=1)))
    if T < cfg["t_floor"] or spread <= 1e-3 * spread0:
        return SearchFailure(reason="period_collapse", residual=res_norm,
                             iterations=iterations, period_trace=period_trace,
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
                         iterations=iterations, period_trace=period_trace,
                         detail="vanishing sequence: residual stalled above the gate")


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
