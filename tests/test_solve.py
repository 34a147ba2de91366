import time

import numpy as np
import pytest

from maggeo import flow, loop as loop_mod, solve, systems
from maggeo.errors import StiffTrajectoryError

TWO_PI = 2.0 * np.pi


class TestPointSeed:
    def test_torus_period(self, torus_record):
        assert torus_record.period == pytest.approx(TWO_PI, abs=1e-8)
        assert torus_record.closure_residual < 1e-8
        assert torus_record.certified
        assert tuple(torus_record.winding) == (0, 0)

    def test_torus_k2_radius_two(self, torus):
        rec = solve.find_orbit(torus, 2.0, flow.PhaseState([0.0, 0.0], [2.0, 0.0]), 6.0)
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
        out = solve.find_orbit(sys, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                               winding_target=(0, 0))
        assert isinstance(out, solve.SearchFailure)
        assert "nonexistence" in out.to_json()["note"]

    def test_seed_energy_checked(self, torus):
        with pytest.raises(ValueError):
            solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [2.0, 0.0]), 6.0)

    def test_mirrored_seed_orbit_is_not_accepted(self):
        # an orbit that returns to x0 with v0 reflected across the seed's
        # normal is no closed orbit
        sys = systems.sine_field_torus()
        out = solve.find_orbit(sys, 0.1, flow.PhaseState([0.0, 0.0], [np.sqrt(0.2), 0.0]),
                               TWO_PI, winding_target=(0, 0), n_nodes=128, mode_count=16)
        if isinstance(out, solve.OrbitRecord):
            assert out.certified and out.closure_residual < solve.CLOSURE_GATE
        else:
            assert out.reason in ("stalled", "max_iterations", "closure_gate")

    def test_singular_step_is_a_classified_failure(self, torus, monkeypatch):
        # every solve, refinements included, ends in a non-finite step: the
        # failure carries the last solve's stop, residual, iterations and
        # period trace
        sizes = []

        def singular(residual, jacobian, u, r, residual_target, max_iter):
            sizes.append((u.size - 1) // 2)
            return u, 0.5, 3, [np.log(6.0), np.log(6.1), np.log(6.2), np.log(6.2)], "singular"

        monkeypatch.setattr(solve, "_damped_newton", singular)
        out = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0)
        assert isinstance(out, solve.SearchFailure)
        assert (out.reason, out.residual, out.iterations) == ("singular", 0.5, 3)
        assert out.period_trace == pytest.approx([6.0, 6.1, 6.2, 6.2], rel=1e-15)
        assert sizes == [32, 64, 128]


def _counting_integrators(monkeypatch):
    """Spy on the integrations ``solve`` runs; returns the call log."""
    calls = []
    plain = solve.integrate

    def counted_plain(*args, **kwargs):
        calls.append("plain")
        return plain(*args, **kwargs)

    monkeypatch.setattr(solve, "integrate", counted_plain)
    return calls


def _failed_solve(sys, k, seed, n_nodes, max_iter):
    """A collocation solve whose loop misses the eta gate."""
    path = [float(np.log(seed.period))]
    return None, float("inf"), seed.nodes, seed.period, (float("inf"), max_iter, path, "stalled")


def _counted_solves(monkeypatch):
    """Spy on the collocation solves; returns (seed period, nodes) of each."""
    solves = []
    solve_closing = solve._solve_closing

    def counted(sys, k, seed, n_nodes, max_iter):
        solves.append((seed.period, n_nodes))
        return solve_closing(sys, k, seed, n_nodes, max_iter)

    monkeypatch.setattr(solve, "_solve_closing", counted)
    return solves


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

        def counted(sys, u, drift):
            residuals.append(float(np.linalg.norm(fvec(u))))
            return closing_jacobian(sys, u, drift)

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
        # collocation solve; no refinement (and its Newton run) follows
        seed = torus_record.loop
        assert loop_mod.eta_norm(torus, seed, 0.5) < loop_mod.eta_gate(seed)
        solves = _counted_solves(monkeypatch)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert out.method == "gradient_search"
        assert out.period == pytest.approx(torus_record.period, abs=1e-8)
        assert solves == [(seed.period, solve.COLLOCATION_NODES)]

    def test_one_collocation_solve_per_seed(self, torus, monkeypatch):
        solves = []
        solve_closing = solve._solve_closing

        def counted(sys, k, seed, n_nodes, max_iter):
            solves.append((seed.n_nodes, n_nodes, max_iter))
            return solve_closing(sys, k, seed, n_nodes, max_iter)

        monkeypatch.setattr(solve, "_solve_closing", counted)
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=24, radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert isinstance(out, solve.OrbitRecord) and out.certified
        assert solves == [(24, solve.COLLOCATION_NODES, solve.DESCENT_MAX_ITER)]
        assert out.loop.n_nodes == 128

    def test_agrees_with_point_seed(self, torus, torus_record):
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


def _wobbly_loop(center, radius, dim, n_nodes=16, period=2.3, drift=0.0):
    s = np.arange(n_nodes) / n_nodes
    cols = [center[0] + radius * np.cos(TWO_PI * s), center[1] + 0.8 * radius * np.sin(TWO_PI * s)]
    cols += [center[i] + 0.2 * np.sin(2.0 * TWO_PI * s + i) for i in range(2, dim)]
    nodes = np.stack(cols, axis=1) + s[:, None] * drift
    return np.concatenate([nodes.ravel(), [np.log(period)]])


class TestNewtonStop:
    """The collocation Newton solve stops at its roundoff floor, and the
    eta gate, not the stop, decides whether the loop is solved."""

    def test_exact_circle_stops_at_roundoff(self, torus):
        seed = solve.circle_loop((1.0, 1.0), 1.0, n_nodes=32, period=TWO_PI, orientation=-1)
        solved, eta, _, T, (res_norm, iterations, _, stop) = solve._solve_closing(
            torus, 0.5, seed, solve.COLLOCATION_NODES, solve.DESCENT_MAX_ITER)
        assert stop == "roundoff" and iterations <= 1
        assert solved is not None and eta < loop_mod.eta_gate(solved)
        assert T == pytest.approx(TWO_PI, abs=1e-12)

    def test_seed_without_orbit_does_not_stop_at_roundoff(self):
        # no contractible orbit without a field: the residual keeps the
        # energy term k N, far above any roundoff floor
        sys = systems.flat_torus(b=0.0)
        seed = solve.circle_loop((1.0, 1.0), 0.5, n_nodes=24, period=2.0)
        solved, eta, _, _, (res_norm, _, _, stop) = solve._solve_closing(
            sys, 0.5, seed, solve.COLLOCATION_NODES, solve.DESCENT_MAX_ITER)
        assert stop in ("stalled", "max_iterations")
        assert solved is None and res_norm > 1.0


class TestLift:
    def test_resample_keeps_a_winding_trigonometric_loop(self):
        # the lift of a loop once around the first period: its periodic part
        # has modes below both Nyquist modes, so resampling is exact
        drift = np.array([TWO_PI, 0.0])

        def lift(n_nodes):
            s = np.arange(n_nodes)[:, None] / n_nodes
            periodic = np.hstack([0.3 * np.sin(TWO_PI * s), 1.0 + 0.2 * np.cos(2 * TWO_PI * s)])
            return periodic + s * drift

        for n_in, n_out in ((16, 40), (40, 16)):
            assert np.max(np.abs(solve._resample(lift(n_in), n_out, drift) - lift(n_out))) < 1e-13


class TestClosingJacobian:
    CASES = {
        "flat_torus": (systems.flat_torus, (1.0, 1.0), 0.5, 0.0),
        "sine_field_torus": (systems.sine_field_torus, (1.0, 1.0), 0.5, 0.0),
        # the lift of a loop that winds once around the first lattice period
        "sine_field_torus_winding": (systems.sine_field_torus, (1.0, 1.0), 0.5,
                                     np.array([TWO_PI, 0.0])),
        "hyperbolic_chart": (systems.hyperbolic_chart, (0.2, 1.0), 0.3, 0.0),
        "random_trig_3d": (lambda: systems.random_trig_system(dim=3), (1.0, 1.0, 1.0), 0.5, 0.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_central_differences(self, name):
        make, center, radius, drift = self.CASES[name]
        sys = make()
        u = _wobbly_loop(center, radius, sys.dim, drift=drift)
        fvec = solve._closing_system(sys, 0.5, drift)
        jac = solve._closing_jacobian(sys, u, drift)
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


class TestCollocationCorrector:
    def test_matches_point_seed_from_same_state(self, sine_sweep):
        # the continuation's corrector from the previous loop and a point
        # seed from the previous orbit's start state find the same orbit
        sys, fam = sine_sweep
        prev, k = fam[1], 0.5
        seed = loop_mod.DiscreteLoop(prev.loop.nodes, prev.period, prev.loop.winding)
        col = solve._collocation_record(sys, k, seed, 1e-12, 128, 16)
        st0 = prev.orbit.state(0)
        v0 = st0.v * (np.sqrt(2.0 * k) / sys.norm(st0.x, st0.v))
        pt = solve.find_orbit(sys, k, flow.PhaseState(st0.x, v0), prev.period,
                              n_nodes=128, mode_count=16, winding_target=(0, 0))
        assert col.method == pt.method == "collocation"
        assert col.certified and pt.certified
        assert abs(col.period - pt.period) < 1e-10
        assert col.index == pt.index == 1
        assert col.index_report.near_zero == pt.index_report.near_zero

    def test_continuation_integrates_once_per_record(self, sine_sweep, monkeypatch):
        sys, fam = sine_sweep
        calls = _counting_integrators(monkeypatch)
        out = solve.continue_in_k(sys, fam[0], [0.25, 0.5, 1.0, 2.0],
                                  n_nodes=128, mode_count=16)
        assert [rec.method for rec in out] == ["collocation"] * 4
        assert all(rec.certified and rec.index == 1 for rec in out)
        assert calls == ["plain"] * 4

    def test_descent_integrates_once(self, torus, monkeypatch):
        calls = _counting_integrators(monkeypatch)
        seed = solve.orbit_seed_loop(torus, 0.5, (1.0, 1.0), n_nodes=24, radius_scale=0.5)
        out = solve.gradient_search(torus, 0.5, seed,
                                    schedule={"n_nodes": 128, "mode_count": 16})
        assert out.method == "gradient_search" and out.certified
        assert calls == ["plain"]

    def test_failed_collocation_retries_with_the_kinetic_period(self, torus, torus_record,
                                                                 monkeypatch):
        # each predictor is refined up to MAX_COLLOCATION_NODES; then the
        # kinetic period rescaling is tried, and a second failure is a fold
        solves = []

        def failed(sys, k, seed, n_nodes, max_iter):
            solves.append((seed.period, n_nodes))
            return _failed_solve(sys, k, seed, n_nodes, max_iter)

        monkeypatch.setattr(solve, "_solve_closing", failed)
        out = solve.continue_in_k(torus, torus_record, [0.25, 1.0], n_nodes=128, mode_count=8)
        assert len(out) == 1 and isinstance(out[0], solve.SearchFailure)
        assert out[0].reason == "stalled" and "continuation fold at k=0.25" in out[0].detail
        kinetic = torus_record.period * np.sqrt(0.5 / 0.25)
        assert solves == [(torus_record.period, 32), (torus_record.period, 64),
                          (torus_record.period, 128), (kinetic, 32), (kinetic, 64),
                          (kinetic, 128)]

    def test_winding_family_collocates(self):
        # closed geodesics of the flat torus once around the first period:
        # the lift x(s + 1) = x(s) + (2 pi, 0), period 2 pi / sqrt(2k)
        sys = systems.flat_torus(b=0.0)
        rec = solve.find_orbit(sys, 0.5, flow.PhaseState([0.0, 1.0], [1.0, 0.0]), 5.0,
                               n_nodes=64, mode_count=4, winding_target=(1, 0))
        assert isinstance(rec, solve.OrbitRecord) and rec.certified
        assert rec.method == "collocation" and tuple(rec.winding) == (1, 0)
        assert rec.period == pytest.approx(TWO_PI, abs=1e-8)
        out = solve.continue_in_k(sys, rec, [0.25, 1.0, 2.0], n_nodes=64, mode_count=4)
        for rec, k in zip(out, [0.25, 1.0, 2.0]):
            assert isinstance(rec, solve.OrbitRecord) and rec.certified
            assert rec.method == "collocation" and tuple(rec.winding) == (1, 0)
            assert rec.period == pytest.approx(TWO_PI / np.sqrt(2.0 * k), abs=1e-8)

    def test_unresolved_loop_is_refined(self, sine_sweep, monkeypatch):
        # 8 nodes do not resolve these loops: the integrated orbit of the
        # collocation solution misses the closure and eta gates, and the
        # solved loop is solved again at twice the nodes until one passes
        sys, fam = sine_sweep
        monkeypatch.setattr(solve, "COLLOCATION_NODES", 8)
        solves = _counted_solves(monkeypatch)
        out = solve.continue_in_k(sys, fam[2], [1.0, 2.0], n_nodes=128, mode_count=16)
        assert [rec.method for rec in out] == ["collocation", "collocation"]
        assert all(rec.certified and rec.index == 1 for rec in out)
        for rec, ref in zip(out, fam[3:]):
            assert abs(rec.period - ref.period) < 1e-10
        sizes = [n for _, n in solves]
        assert sizes[0] == 8 and max(sizes) <= solve.MAX_COLLOCATION_NODES
        assert all(b in (8, 2 * a) for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) > 2


class TestFindOrbit:
    """Point seeds: the seed integrated once and cut at its return time,
    then the collocation corrector."""

    def test_sweep_seed_integrates_twice(self, sine_sweep, monkeypatch):
        sys, fam = sine_sweep
        calls = _counting_integrators(monkeypatch)
        seed = flow.PhaseState([np.pi / 2.0, 1.0], [np.sqrt(0.2), 0.0])
        out = solve.find_orbit(sys, 0.1, seed, TWO_PI / 1.2, winding_target=(0, 0))
        assert calls == ["plain", "plain"]   # the seed and the record
        assert out.method == "collocation" and out.certified
        assert abs(out.period - fam[0].period) < 1e-10
        assert out.index == fam[0].index == 1
        assert out.index_report.near_zero == fam[0].index_report.near_zero

    def test_solve_stalled_above_roundoff_is_refined(self, monkeypatch):
        # from the CLI's default seed the orbit of round_sphere(b=1) at k = 0.1
        # spans x1 in [1, 2.6] of the chart: its 32-node solve stalls above
        # roundoff with a loop inside the eta gate, and is solved again
        sys, k = systems.round_sphere(b=1.0), 0.1
        x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        solves = _counted_solves(monkeypatch)
        rec = solve.find_orbit(sys, k, flow.PhaseState(x, v * (np.sqrt(2.0 * k) / sys.norm(x, v))),
                               TWO_PI, n_nodes=128, mode_count=16)
        assert isinstance(rec, solve.OrbitRecord) and rec.certified
        assert [n for _, n in solves] == [32, 64]
        assert abs(rec.period - TWO_PI / np.sqrt(2.0 * k + 1.0)) < 1e-10

    def test_failed_collocation_carries_the_last_solve(self, torus, monkeypatch):
        solves = []

        def failed(sys, k, seed, n_nodes, max_iter):
            solves.append(n_nodes)
            return _failed_solve(sys, k, seed, n_nodes, max_iter)

        monkeypatch.setattr(solve, "_solve_closing", failed)
        out = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                               n_nodes=128, mode_count=16, winding_target=(0, 0))
        assert isinstance(out, solve.SearchFailure)
        assert (out.reason, out.iterations) == ("stalled", solve.PREDICTOR_MAX_ITER)
        assert out.detail == "Newton stalled; orbit not found from this seed"
        assert solves == [32, 64, 128]

    def test_flow_error_in_the_seed_is_classified(self, torus, monkeypatch):
        plain = solve.integrate
        seeds = []

        def stiff_seed(sys, state, t_end, tolerance, samples):
            if tolerance == solve.SEED_TOLERANCE:
                seeds.append(state)
                raise StiffTrajectoryError("stiff seed")
            return plain(sys, state, t_end, tolerance=tolerance, samples=samples)

        monkeypatch.setattr(solve, "integrate", stiff_seed)
        out = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                               n_nodes=128, mode_count=16, winding_target=(0, 0))
        assert len(seeds) == 1
        assert isinstance(out, solve.SearchFailure) and out.reason == "seed_flow"
        assert "StiffTrajectoryError: stiff seed" in out.detail
        assert out.iterations == 0 and out.period_trace == [6.0]
        # no residual was computed: strict JSON has no Infinity
        assert out.to_json()["residual"] is None

    def test_seed_that_swaps_charts_is_predicted_from_its_transition_image(self):
        sys = systems.round_sphere(b=1.0)
        x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        state = flow.PhaseState(x, v / sys.norm(x, v))
        orbit = flow.integrate(sys, state, TWO_PI, samples=solve.SEED_NODES + 1)
        assert orbit.meta["chart_swaps_total"] >= 1
        seed = solve._seed_loop(sys, state, TWO_PI, None)
        assert seed.nodes.shape == (solve.SEED_NODES, 2)
        assert np.allclose(seed.nodes[0], sys.transition(state.x, state.v)[0])

    def test_seed_is_cut_at_its_return_time(self):
        # at k = 0.5 on the round sphere with b = 1 every orbit closes after
        # 2 pi / sqrt(2k + 1) = 4.44, far from the cyclotron guess 2 pi; the
        # cut lies within one sample step of it, nearer the guess than the
        # second return
        sys = systems.round_sphere(b=1.0)
        x, v = np.zeros(2), np.array([1.0, 0.0])
        seed = solve._seed_loop(sys, flow.PhaseState(x, v / sys.norm(x, v)), TWO_PI, None)
        assert abs(seed.period - TWO_PI / np.sqrt(2.0)) <= TWO_PI / solve.RETURN_STEPS
        assert tuple(seed.winding) == (0, 0)

    @pytest.mark.parametrize("k", [0.1, 0.5, 2.0])
    def test_three_dimensional_seed_ends_in_record_or_classified_failure(self, k):
        # the CLI's default seed and period guess on a system of dimension 3
        sys = systems.random_trig_system(dim=3)
        x, v = np.zeros(3), np.array([1.0, 0.0, 0.0])
        state = flow.PhaseState(x, v * (np.sqrt(2.0 * k) / sys.norm(x, v)))
        out = solve.find_orbit(sys, k, state, TWO_PI / np.sqrt(2.0 * k),
                               n_nodes=128, mode_count=16)
        if isinstance(out, solve.OrbitRecord):
            assert out.certified and out.closure_residual < solve.CLOSURE_GATE
        else:
            assert out.reason in ("stalled", "max_iterations", "singular", "period_collapse",
                                  "closure_gate", "eta_gate")

    def test_seed_without_target_winds_as_its_orbit(self):
        sys = systems.flat_torus(b=0.0)
        seed = solve._seed_loop(sys, flow.PhaseState([0.0, 1.0], [1.0, 0.0]), 5.0, None)
        assert tuple(seed.winding) == (1, 0)
        assert seed.period == pytest.approx(TWO_PI, abs=5.0 / solve.RETURN_STEPS)


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
                                  1e-12, 128, 16)
        assert rec.certified and rec.index == 1
        assert len(loops) == 1 and loops[0] is rec.loop

    def test_gates_come_before_the_index(self, torus, monkeypatch):
        # an orbit that does not close is a classified failure with its
        # margin, and the index (which needs a critical loop) is not asked
        def no_index(*args, **kwargs):
            raise AssertionError("the index ran on an orbit that misses a gate")

        monkeypatch.setattr(loop_mod, "morse_index", no_index)
        out = solve._build_record(torus, 0.5, np.zeros(2), np.array([1.0, 0.0]), 5.0,
                                  1e-12, 128, 16)
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

