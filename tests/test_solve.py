import time

import numpy as np
import pytest

from maggeo import flow, loop as loop_mod, solve, systems

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

    def test_exact_orbit_immediate(self, torus, torus_record):
        out = solve.gradient_search(torus, 0.5, torus_record.loop,
                                    schedule={"polish": False})
        assert isinstance(out, loop_mod.DiscreteLoop)

    def test_seed_at_gate_skips_lm(self, torus, torus_record, monkeypatch):
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran on a seed that already passes the gate")

        monkeypatch.setattr(solve, "_damped_newton", no_newton)
        out = solve.gradient_search(torus, 0.5, torus_record.loop,
                                    schedule={"polish": False})
        assert out is torus_record.loop

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
        assert 0 < len(calls) <= 40

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
                                          {"mode": "newton"}])
    def test_unknown_schedule_rejected(self, torus, schedule):
        seed = solve.circle_loop((1.0, 1.0), 0.5, n_nodes=16)
        with pytest.raises(ValueError):
            solve.gradient_search(torus, 0.5, seed, schedule=schedule)


def _wobbly_loop(center, radius, dim, n_nodes=16, period=2.3):
    s = np.arange(n_nodes) / n_nodes
    cols = [center[0] + radius * np.cos(TWO_PI * s), center[1] + 0.8 * radius * np.sin(TWO_PI * s)]
    cols += [center[i] + 0.2 * np.sin(2.0 * TWO_PI * s + i) for i in range(2, dim)]
    return np.concatenate([np.stack(cols, axis=1).ravel(), [np.log(period)]])


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


class TestMultiSeed:
    def test_deterministic_merge(self, torus):
        seeds = [flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                 flow.PhaseState([0.5, 0.5], [0.0, 1.0])]
        records, failures = solve.multi_seed_search(
            torus, 0.5, seeds, 6.0, compute_index=False)
        assert not failures
        assert len(records) == 2
        assert records[0].closure_residual <= records[1].closure_residual
