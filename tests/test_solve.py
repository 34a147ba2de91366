import time

import numpy as np
import pytest

from maggeo import flow, loop as loop_mod, solve, systems
from maggeo.errors import StiffTrajectoryError

TWO_PI = 2.0 * np.pi


class TestShoot:
    def test_torus_period(self, torus_record):
        assert torus_record.period == pytest.approx(TWO_PI, abs=1e-8)
        assert torus_record.closure_residual < 1e-8
        assert torus_record.certified
        assert tuple(torus_record.winding) == (0, 0)

    def test_torus_k2_radius_two(self, torus):
        rec = solve.shoot(torus, 2.0, flow.PhaseState([0.0, 0.0], [2.0, 0.0]), 6.0,
                          compute_index=False)
        assert isinstance(rec, solve.OrbitRecord)
        assert rec.period == pytest.approx(TWO_PI, abs=1e-8)
        # sampled extremes miss the true turning points by O((T/N)^2)
        spread = rec.orbit.states[:, 1].max() - rec.orbit.states[:, 1].min()
        assert spread == pytest.approx(4.0, abs=1e-3)

    def test_sphere_great_circle(self, sphere_record):
        assert sphere_record.period == pytest.approx(TWO_PI, abs=1e-6)
        assert sphere_record.index == 1

    def test_no_contractible_orbit_without_field(self):
        sys = systems.flat_torus(b=0.0)
        out = solve.shoot(sys, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                          winding_target=(0, 0), max_iter=12, compute_index=False)
        assert isinstance(out, solve.SearchFailure)
        assert "nonexistence" in out.to_json()["note"]

    def test_seed_energy_checked(self, torus):
        with pytest.raises(ValueError):
            solve.shoot(torus, 0.5, flow.PhaseState([0.0, 0.0], [2.0, 0.0]), 6.0)

    def test_mirrored_seed_orbit_is_not_accepted(self):
        # Newton turns v0 from the seed direction; an orbit that returns
        # to x0 with v0 reflected across the seed's normal is no closed orbit
        sys = systems.sine_field_torus()
        out = solve.shoot(sys, 0.1, flow.PhaseState([0.0, 0.0], [np.sqrt(0.2), 0.0]), TWO_PI,
                          winding_target=(0, 0), n_nodes=128, mode_count=16)
        if isinstance(out, solve.OrbitRecord):
            assert out.certified and out.closure_residual < solve.CLOSURE_GATE
        else:
            assert out.reason in ("stalled", "max_iterations", "closure_gate")

    def test_singular_step_is_a_classified_failure(self, torus, monkeypatch):
        def singular(residual, jacobian, u, r, residual_target, max_iter, floor):
            return u, 0.5, 3, [6.0, 6.1, 6.2, 6.2], "singular"

        monkeypatch.setattr(solve, "_damped_newton", singular)
        out = solve.shoot(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0)
        assert isinstance(out, solve.SearchFailure)
        assert (out.reason, out.residual, out.iterations) == ("singular", 0.5, 3)
        assert out.period_trace == [6.0, 6.1, 6.2, 6.2]


def _residual_at(sys, k, x_ref, v_ref, u, winding_target):
    return solve._residual(sys, k, x_ref, v_ref, sys.dim, u, 1e-12,
                           winding_target=winding_target)


def _jacobian_cases():
    sine = systems.sine_field_torus()
    x_s = np.array([np.pi / 2.0, 1.0])
    v_s = np.array([1.0, 0.0]) * np.sqrt(0.2)
    sphere = systems.round_sphere(b=1.0)
    x_p = np.array([3.8, 0.0])     # next to the chart swap at |x| = 4
    v_p = np.array([1.0, 0.2]) / sphere.norm(x_p, [1.0, 0.2])
    trig = systems.random_trig_system(dim=3)
    x_t = np.array([0.3, 0.2, 0.1])
    v_t = np.array([1.0, 0.0, 0.0]) / trig.norm(x_t, [1.0, 0.0, 0.0])
    return {
        "sine_field_torus": (sine, 0.1, x_s, v_s, [0.1, TWO_PI / 1.2], (0, 0)),
        "round_sphere_swap": (sphere, 0.5, x_p, v_p, [0.05, 3.0], None),
        "random_trig_3d": (trig, 0.5, x_t, v_t, [0.05, -0.02, 2.0], None),
    }


class TestShootJacobian:
    @pytest.mark.parametrize("name", ["sine_field_torus", "round_sphere_swap", "random_trig_3d"])
    def test_monodromy_jacobian_matches_central_differences(self, name):
        sys, k, x_ref, v_ref, rest, wt = _jacobian_cases()[name]
        u = np.concatenate([x_ref, rest])
        r, jac = _residual_at(sys, k, x_ref, v_ref, u, wt)
        fd = np.empty_like(jac)
        for j in range(u.size):
            h = 1e-5 * max(1.0, abs(u[j]))
            up = u.copy(); up[j] += h
            um = u.copy(); um[j] -= h
            fd[:, j] = (_residual_at(sys, k, x_ref, v_ref, up, wt)[0]
                        - _residual_at(sys, k, x_ref, v_ref, um, wt)[0]) / (2.0 * h)
        assert np.linalg.norm(jac - fd) < 1e-6 * np.linalg.norm(fd)
        if name == "round_sphere_swap":
            x0, v0, _, _ = solve._start(sys, k, v_ref, sys.dim, u)
            mono = flow.integrate_variational(sys, flow.PhaseState(x0, v0), u[-1])
            assert mono.chart_swaps >= 1

    def test_residual_sees_a_mirrored_end_velocity(self, monkeypatch):
        # end states fed in place of the integration: back at x0 with v0,
        # and back at x0 with v0 reflected across the seed direction's normal
        sys, k, x_ref, v_ref, _, wt = _jacobian_cases()["sine_field_torus"]
        u = np.concatenate([x_ref, [0.3, TWO_PI / 1.2]])
        x0, v0, g, _ = solve._start(sys, k, v_ref, 2, u)
        vdir = v_ref / sys.norm(x_ref, v_ref)
        mirrored = v0 - 2.0 * float(vdir @ g @ v0) * vdir
        assert sys.norm(x0, mirrored) == pytest.approx(np.sqrt(2.0 * k), rel=1e-12)
        norms = []
        for ve in (v0, mirrored):
            end = flow.Monodromy(y=np.concatenate([x0, ve]), phi=np.eye(4), rhs=np.zeros(4),
                                 nfev=0, chart_swaps=0)
            monkeypatch.setattr(solve, "integrate_variational", lambda *a, end=end, **kw: end)
            norms.append(float(np.linalg.norm(_residual_at(sys, k, x_ref, v_ref, u, wt)[0])))
        assert norms[0] < 1e-12
        assert norms[1] > 0.1 * np.sqrt(2.0 * k)

    def test_accepted_full_step_costs_one_integration(self, torus, monkeypatch):
        integrations = []
        norms = []
        variational, residual = solve.integrate_variational, solve._residual

        def counted_variational(*args, **kwargs):
            integrations.append("variational")
            return variational(*args, **kwargs)

        def counted_residual(*args, **kwargs):
            r, jac = residual(*args, **kwargs)
            norms.append(float(np.linalg.norm(r)))
            return r, jac

        monkeypatch.setattr(solve, "integrate_variational", counted_variational)
        monkeypatch.setattr(solve, "integrate", lambda *a, **kw: integrations.append("plain"))
        monkeypatch.setattr(solve, "_residual", counted_residual)
        out = solve.shoot(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                          winding_target=(0, 0), max_iter=1, compute_index=False)
        assert isinstance(out, solve.SearchFailure) and out.reason == "max_iterations"
        # one evaluation at the seed, one for the step: its first trial is
        # the full step, and it was accepted
        assert len(norms) == 2 and norms[1] < norms[0]
        assert integrations == ["variational", "variational"]


class TestGradientSearch:
    def test_converges_from_half_radius_circle(self, torus):
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=48,
                                     radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed)
        assert isinstance(out, solve.OrbitRecord)
        assert out.period == pytest.approx(TWO_PI, abs=1e-6)
        assert out.method == "gradient_search"

    def test_exact_orbit_immediate(self, torus, torus_record, monkeypatch):
        # a seed that already is an orbit goes through the same solve: one
        # Newton iteration takes it to roundoff, and the iteration stops
        # where no step lowers the residual any more
        residuals = []
        closing_jacobian = solve._closing_jacobian
        fvec = solve._closing_system(torus, 0.5)

        def counted(sys, u):
            residuals.append(float(np.linalg.norm(fvec(u))))
            return closing_jacobian(sys, u)

        monkeypatch.setattr(solve, "_closing_jacobian", counted)
        out = solve.gradient_search(torus, 0.5, torus_record.loop,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert out.method == "gradient_search"
        assert out.period == pytest.approx(TWO_PI, abs=1e-8)
        assert residuals[0] < 1e-6
        assert len(residuals) == 1 or max(residuals[1:]) < 1e-10

    def test_seed_at_gate_skips_lm(self, torus, torus_record, monkeypatch):
        # a seed that already passes the eta gate is certified from its one
        # collocation solve; no shoot correction (and its Newton run) follows
        def no_shoot(*args, **kwargs):
            raise AssertionError("shoot ran on a seed that already passes the gate")

        seed = torus_record.loop
        assert loop_mod.eta_norm(torus, seed, 0.5) < loop_mod.eta_gate(seed)
        monkeypatch.setattr(solve, "shoot", no_shoot)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert out.method == "gradient_search"
        assert out.period == pytest.approx(torus_record.period, abs=1e-8)

    def test_one_collocation_solve_per_seed(self, torus, monkeypatch):
        solves = []
        solve_closing = solve._solve_closing

        def counted(sys, k, nodes, T, max_iter):
            solves.append((len(nodes), max_iter))
            return solve_closing(sys, k, nodes, T, max_iter)

        monkeypatch.setattr(solve, "_solve_closing", counted)
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=24, radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert solves == [(24, solve.DESCENT_MAX_ITER)]
        assert out.loop.n_nodes == 128

    def test_agrees_with_shoot(self, torus, torus_record):
        seed = solve.orbit_seed_loop(torus, 0.5, (0.5, 0.5), n_nodes=48,
                                     radius_scale=0.8)
        out = solve.gradient_search(torus, 0.5, seed)
        assert isinstance(out, solve.OrbitRecord)
        assert abs(out.period - torus_record.period) < 1e-6

    def test_descent_seed_converges_in_few_residuals(self, torus, monkeypatch):
        calls = []
        closing_system = solve._closing_system

        def counted(*args):
            fvec = closing_system(*args)

            def counted_fvec(u):
                calls.append(1)
                return fvec(u)
            return counted_fvec

        monkeypatch.setattr(solve, "_closing_system", counted)
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=24, radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert out.period == pytest.approx(TWO_PI, abs=1e-6)
        # the Newton solve stops at roundoff, not after steps that only move noise
        assert 0 < len(calls) <= 10

    def test_no_field_circle_fails_classified(self):
        sys = systems.flat_torus(b=0.0)
        seed = solve.circle_loop((1.0, 1.0), 0.5, n_nodes=24, period=2.0)
        start = time.perf_counter()
        out = solve.gradient_search(sys, 0.5, seed)
        assert time.perf_counter() - start < 5.0
        assert isinstance(out, solve.SearchFailure)
        assert out.reason in ("period_collapse", "stalled")
        assert 0 < out.iterations <= 400
        assert out.period_trace[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("schedule", [{"max_nfev": 100}, {"mdoe": "action"},
                                          {"mode": "newton"}, {"polish": False},
                                          {"max_iter": 10}, {"gate": 1e-3},
                                          {"t_floor": 0.1}])
    def test_unknown_schedule_rejected(self, torus, schedule):
        seed = solve.circle_loop((1.0, 1.0), 0.5, n_nodes=16)
        with pytest.raises(ValueError):
            solve.gradient_search(torus, 0.5, seed, schedule=schedule)


def _wobbly_loop(center, radius, dim, n_nodes=16, period=2.3):
    s = np.arange(n_nodes) / n_nodes
    cols = [center[0] + radius * np.cos(TWO_PI * s), center[1] + 0.8 * radius * np.sin(TWO_PI * s)]
    cols += [center[i] + 0.2 * np.sin(2.0 * TWO_PI * s + i) for i in range(2, dim)]
    return np.concatenate([np.stack(cols, axis=1).ravel(), [np.log(period)]])


class TestNewtonStop:
    """The collocation Newton solve stops at its roundoff floor, and the
    eta gate, not the stop, decides whether the loop is solved."""

    def test_exact_circle_stops_at_roundoff(self, torus):
        seed = solve.circle_loop((1.0, 1.0), 1.0, n_nodes=32, period=TWO_PI, orientation=-1)
        solved, eta, _, T, (res_norm, iterations, _, stop) = solve._solve_closing(
            torus, 0.5, seed.nodes, seed.period, solve.DESCENT_MAX_ITER)
        assert stop == "roundoff" and iterations <= 1
        assert solved is not None and eta < loop_mod.eta_gate(solved)
        assert T == pytest.approx(TWO_PI, abs=1e-12)

    def test_seed_without_orbit_does_not_stop_at_roundoff(self):
        # no contractible orbit without a field: the residual keeps the
        # energy term k N, far above any roundoff floor
        sys = systems.flat_torus(b=0.0)
        seed = solve.circle_loop((1.0, 1.0), 0.5, n_nodes=24, period=2.0)
        solved, eta, _, _, (res_norm, _, _, stop) = solve._solve_closing(
            sys, 0.5, seed.nodes, seed.period, solve.DESCENT_MAX_ITER)
        assert stop in ("stalled", "max_iterations")
        assert solved is None and res_norm > 1.0


class TestClosingJacobian:
    CASES = {
        "flat_torus": (systems.flat_torus, (1.0, 1.0), 0.5),
        "sine_field_torus": (systems.sine_field_torus, (1.0, 1.0), 0.5),
        "hyperbolic_chart": (systems.hyperbolic_chart, (0.2, 1.0), 0.3),
        "random_trig_3d": (lambda: systems.random_trig_system(dim=3), (1.0, 1.0, 1.0), 0.5),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_central_differences(self, name):
        make, center, radius = self.CASES[name]
        sys = make()
        u = _wobbly_loop(center, radius, sys.dim)
        fvec = solve._closing_system(sys, 0.5)
        jac = solve._closing_jacobian(sys, u)
        fd = np.empty_like(jac)
        for j in range(u.size):
            h = 1e-6 * max(1.0, abs(u[j]))
            up = u.copy(); up[j] += h
            um = u.copy(); um[j] -= h
            fd[:, j] = (fvec(up) - fvec(um)) / (2.0 * h)
        assert np.linalg.norm(jac - fd) < 1e-6 * np.linalg.norm(fd)


class TestContinuation:
    def test_torus_family(self, torus_sweep):
        assert len(torus_sweep) == 5
        for rec in torus_sweep:
            assert isinstance(rec, solve.OrbitRecord)
            assert rec.period == pytest.approx(TWO_PI, abs=1e-7)
            assert rec.index == 1
            assert rec.min_ric == pytest.approx(1.0, abs=1e-9)

    def test_sphere_family_period_scaling(self, sphere, sphere_record):
        fam = solve.continue_in_k(sphere, sphere_record, [0.25, 0.5, 1.0],
                                  n_nodes=256, mode_count=16)
        for rec, k in zip(fam, [0.25, 0.5, 1.0]):
            assert isinstance(rec, solve.OrbitRecord)
            # unit-speed great circle has length 2pi; at speed sqrt(2k):
            assert rec.period == pytest.approx(TWO_PI / np.sqrt(2 * k), abs=1e-6)

    def test_empty_grid(self, torus, torus_record):
        assert solve.continue_in_k(torus, torus_record, []) == []


def _counting_integrators(monkeypatch):
    """Spy on the integrators ``solve`` calls; returns the call log."""
    calls = []
    plain, variational = solve.integrate, solve.integrate_variational

    def counted_plain(*args, **kwargs):
        calls.append("plain")
        return plain(*args, **kwargs)

    def counted_variational(*args, **kwargs):
        calls.append("variational")
        return variational(*args, **kwargs)

    monkeypatch.setattr(solve, "integrate", counted_plain)
    monkeypatch.setattr(solve, "integrate_variational", counted_variational)
    return calls


def _failed_solve(sys, k, nodes, T, max_iter):
    """A collocation solve whose loop misses the eta gate."""
    return None, float("inf"), nodes, T, (float("inf"), max_iter, [float(np.log(T))], "stalled")


class TestCollocationCorrector:
    def test_matches_shoot_from_same_predictor(self, sine_sweep):
        sys, fam = sine_sweep
        prev, k = fam[1], 0.5
        col = solve._collocation_record(sys, k, prev.loop.nodes, prev.period, 1e-12, 128, 16)
        st0 = prev.orbit.state(0)
        v0 = st0.v * (np.sqrt(2.0 * k) / sys.norm(st0.x, st0.v))
        sh = solve.shoot(sys, k, flow.PhaseState(st0.x, v0), prev.period,
                         n_nodes=128, mode_count=16)
        assert col.method == "collocation" and sh.method == "shoot"
        assert col.certified and sh.certified
        assert abs(col.period - sh.period) < 1e-10
        assert col.index == sh.index == 1
        assert col.index_report.near_zero == sh.index_report.near_zero

    def test_continuation_integrates_once_per_record(self, sine_sweep, monkeypatch):
        sys, fam = sine_sweep
        calls = _counting_integrators(monkeypatch)
        out = solve.continue_in_k(sys, fam[0], [0.25, 0.5, 1.0, 2.0],
                                  n_nodes=128, mode_count=16)
        assert [rec.method for rec in out] == ["collocation"] * 4
        assert all(rec.certified and rec.index == 1 for rec in out)
        assert calls == ["plain"] * 4

    def test_polish_runs_no_variational_integration(self, torus, monkeypatch):
        calls = _counting_integrators(monkeypatch)
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=24, radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert out.method == "gradient_search" and out.certified
        assert calls == ["plain"]

    def test_failed_collocation_falls_back_to_shoot(self, torus, torus_record, monkeypatch):
        monkeypatch.setattr(solve, "_solve_closing", _failed_solve)
        calls = _counting_integrators(monkeypatch)
        out = solve.continue_in_k(torus, torus_record, [0.25, 1.0],
                                  n_nodes=128, mode_count=8)
        assert [rec.method for rec in out] == ["shoot", "shoot"]
        assert all(rec.certified and rec.index == 1 for rec in out)
        assert all(rec.period == pytest.approx(TWO_PI, abs=1e-8) for rec in out)
        assert "variational" in calls

    def test_winding_record_takes_shoot_path(self, monkeypatch):
        sys = systems.flat_torus(b=0.0)
        rec = solve.shoot(sys, 0.5, flow.PhaseState([0.0, 1.0], [1.0, 0.0]), TWO_PI,
                          winding_target=(1, 0), n_nodes=64, mode_count=4)
        assert isinstance(rec, solve.OrbitRecord) and tuple(rec.winding) == (1, 0)

        def no_collocation(*args):
            raise AssertionError("collocation ran on a winding loop")

        monkeypatch.setattr(solve, "_solve_closing", no_collocation)
        out = solve.continue_in_k(sys, rec, [1.0], n_nodes=64, mode_count=4)
        assert out[0].method == "shoot"
        assert out[0].period == pytest.approx(TWO_PI / np.sqrt(2.0), abs=1e-8)

    def test_unresolved_loop_falls_back_to_shoot(self, sine_sweep, monkeypatch):
        # 8 nodes do not resolve these loops: the integrated orbit of the
        # collocation solution misses the closure and eta gates
        sys, fam = sine_sweep
        monkeypatch.setattr(solve, "COLLOCATION_NODES", 8)
        out = solve.continue_in_k(sys, fam[2], [1.0, 2.0], n_nodes=128, mode_count=16)
        assert [rec.method for rec in out] == ["shoot", "shoot"]
        assert all(rec.certified and rec.index == 1 for rec in out)
        for rec, ref in zip(out, fam[3:]):
            assert abs(rec.period - ref.period) < 1e-10


class TestFindOrbit:
    """Point seeds: one collocation solve from the integrated seed, with
    ``shoot`` as the fallback."""

    def test_sweep_seed_collocates_without_shooting(self, sine_sweep, monkeypatch):
        sys, fam = sine_sweep
        calls = _counting_integrators(monkeypatch)
        seed = flow.PhaseState([np.pi / 2.0, 1.0], [np.sqrt(0.2), 0.0])
        out = solve.find_orbit(sys, 0.1, seed, TWO_PI / 1.2, winding_target=(0, 0))
        assert calls == ["plain", "plain"]   # the seed and the record
        assert out.method == "collocation" and out.certified
        shot = fam[0]
        assert shot.method == "shoot"
        assert abs(out.period - shot.period) < 1e-10
        assert out.index == shot.index == 1
        assert out.index_report.near_zero == shot.index_report.near_zero

    def test_failed_collocation_returns_shoot_record(self, torus, torus_record, monkeypatch):
        monkeypatch.setattr(solve, "_solve_closing", _failed_solve)
        out = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                               n_nodes=128, mode_count=16, winding_target=(0, 0))
        assert out.method == "shoot" and out.certified
        assert out.period == torus_record.period

    def test_flow_error_in_the_seed_falls_back_to_shoot(self, torus, torus_record,
                                                        monkeypatch):
        plain = solve.integrate
        seeds = []

        def stiff_seed(sys, state, t_end, tolerance, samples):
            if samples == solve.SEED_NODES + 1:
                seeds.append(state)
                raise StiffTrajectoryError("stiff seed")
            return plain(sys, state, t_end, tolerance=tolerance, samples=samples)

        monkeypatch.setattr(solve, "integrate", stiff_seed)
        out = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                               n_nodes=128, mode_count=16, winding_target=(0, 0))
        assert len(seeds) == 1
        assert out.method == "shoot" and out.period == torus_record.period

    def test_winding_target_never_collocates(self, monkeypatch):
        def no_collocation(*args):
            raise AssertionError("collocation ran for a winding target")

        monkeypatch.setattr(solve, "_solve_closing", no_collocation)
        sys = systems.flat_torus(b=0.0)
        out = solve.find_orbit(sys, 0.5, flow.PhaseState([0.0, 1.0], [1.0, 0.0]), TWO_PI,
                               n_nodes=64, mode_count=4, winding_target=(1, 0))
        assert out.method == "shoot" and tuple(out.winding) == (1, 0)

    def test_seed_that_swaps_charts_is_predicted_from_its_transition_image(self):
        sys = systems.round_sphere(b=1.0)
        x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        state = flow.PhaseState(x, v / sys.norm(x, v))
        orbit = flow.integrate(sys, state, TWO_PI, samples=solve.SEED_NODES + 1)
        assert orbit.meta["chart_swaps_total"] >= 1
        nodes = solve._seed_nodes(sys, state, TWO_PI)
        assert nodes.shape == (solve.SEED_NODES, 2)
        assert np.allclose(nodes[0], sys.transition(state.x, state.v)[0])


class TestRecord:
    def test_record_evaluates_eta_once(self, torus, monkeypatch):
        # the eta gate of the record and the index's criticality check share
        # one evaluation on the record's loop
        loops = []
        force_residual = loop_mod._force_residual

        def counted(sys, loop, k):
            loops.append(loop)
            return force_residual(sys, loop, k)

        monkeypatch.setattr(loop_mod, "_force_residual", counted)
        rec = solve._build_record(torus, 0.5, np.zeros(2), np.array([1.0, 0.0]), TWO_PI,
                                  1e-12, 128, 16, True)
        assert rec.certified and rec.index == 1
        assert len(loops) == 1 and loops[0] is rec.loop

    def test_gates_come_before_the_index(self, torus, monkeypatch):
        # an orbit that does not close is a classified failure with its
        # margin, and the index (which needs a critical loop) is not asked
        def no_index(*args, **kwargs):
            raise AssertionError("the index ran on an orbit that misses a gate")

        monkeypatch.setattr(loop_mod, "morse_index", no_index)
        out = solve._build_record(torus, 0.5, np.zeros(2), np.array([1.0, 0.0]), 5.0,
                                  1e-12, 128, 16, True)
        assert isinstance(out, solve.SearchFailure) and out.reason == "closure_gate"
        assert out.residual > solve.CLOSURE_GATE
        assert f"by {out.residual - solve.CLOSURE_GATE:.3e}" in out.detail


class TestCertify:
    def test_optimal_case_margin(self, torus_record):
        checks = torus_record.checks
        assert checks["bonnet_myers_ok"]
        # b = 1: the bound r pi (m+1) = 2pi is attained
        assert checks["bonnet_myers_bound"] == pytest.approx(TWO_PI, rel=1e-9)
        assert abs(torus_record.period - checks["bonnet_myers_bound"]) < 1e-3 * TWO_PI

    def test_synge_on_sphere(self, sphere, sphere_record):
        assert sphere_record.checks["synge_ok"]
        assert sphere_record.min_sec == pytest.approx(1.0, abs=1e-6)
        assert sphere_record.index >= 1

    def test_negative_control_inflated_period(self, torus, torus_record):
        import copy
        fake = copy.copy(torus_record)
        fake.checks = {}
        fake.period = 3.0 * TWO_PI
        checks = solve.certify(torus, fake)
        assert not checks["bonnet_myers_ok"]

    def test_winding_of_contractible_orbit(self, torus_record):
        assert torus_record.contractible
        assert torus_record.checks["contractible"]


class TestSweeps:
    def test_bonnet_myers_across_families(self, torus_sweep, sine_sweep):
        _, sine_fam = sine_sweep
        for rec in list(torus_sweep) + list(sine_fam):
            assert isinstance(rec, solve.OrbitRecord)
            assert rec.certified
            assert rec.checks["bonnet_myers_ok"]
            r = 1.0 / np.sqrt(rec.min_ric)
            assert rec.period <= r * np.pi * (rec.index + 1) * (1.0 + 1e-3)

    def test_synge_across_families(self, torus_sweep, sine_sweep):
        _, sine_fam = sine_sweep
        for rec in list(torus_sweep) + list(sine_fam):
            if rec.min_sec > 0:
                assert rec.checks["synge_ok"]
                assert rec.index >= 1

    def test_family_csv(self, torus_sweep, tmp_path):
        solve.family_to_csv(tmp_path / "fam.csv", torus_sweep)
        lines = (tmp_path / "fam.csv").read_text().splitlines()
        assert lines[0].startswith("k,T,index")
        assert len(lines) == 6

