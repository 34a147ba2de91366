"""Acceptance suite: every criterion asserted at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured output); a failing criterion fails its test.
"""

import time

import numpy as np
import pytest

from conftest import smooth_variation, unit_normal_field
from maggeo import flow, geom, loop as loop_mod, magcurv, solve, systems

TWO_PI = 2.0 * np.pi
K = 0.5


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS  ({detail})")


class TestCriterion1TorusBenchmark:
    def test_torus_benchmark(self, torus):
        t0 = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(0.0, TWO_PI, size=2)
            ang = rng.uniform(0.0, TWO_PI)
            v = np.array([np.cos(ang), np.sin(ang)])
            worst = max(worst, abs(magcurv.ric_omega_k(torus, x, v, K) - 1.0))
        assert worst < 1e-10

        record = solve.find_orbit(torus, K, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                                  6.0, n_nodes=512, mode_count=32, winding_target=(0, 0))
        assert isinstance(record, solve.OrbitRecord)
        assert abs(record.period - TWO_PI) < 1e-6
        assert record.closure_residual < 1e-8
        assert record.index == 1
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report("1 torus benchmark",
                f"max |Ric-1| = {worst:.2e}, T - 2pi = {record.period - TWO_PI:.2e}, "
                f"closure = {record.closure_residual:.2e}, index = {record.index}, "
                f"runtime = {elapsed:.1f}s")


class TestCriterion2SphereBenchmark:
    def test_sphere_benchmark(self, sphere, sphere_record):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-0.9, 0.9, size=2)
            fr = geom.coordinate_frame(sphere, x)
            ang = rng.uniform(0.0, TWO_PI)
            v = fr @ np.array([np.cos(ang), np.sin(ang)])
            w = fr @ np.array([-np.sin(ang), np.cos(ang)])
            worst = max(worst, abs(magcurv.sec_omega_k(sphere, x, v, w, K) - 1.0))
        assert worst < 1e-10
        assert abs(sphere_record.period - TWO_PI) < 1e-6
        assert sphere_record.index == 1
        _report("2 sphere benchmark",
                f"max |Sec-1| = {worst:.2e}, T - 2pi = {sphere_record.period - TWO_PI:.2e}, "
                f"index = {sphere_record.index}")


class TestCriterion3BonnetMyers:
    def test_certification_sweep(self, torus_sweep, sine_sweep):
        _, sine_fam = sine_sweep
        checked = 0
        for rec in list(torus_sweep) + list(sine_fam):
            assert isinstance(rec, solve.OrbitRecord), "sweep member not certified"
            assert rec.certified
            assert rec.min_ric > 0
            r = 1.0 / np.sqrt(rec.min_ric)
            bound = r * np.pi * (rec.index + 1)
            assert rec.period <= bound * (1.0 + 1e-3)
            checked += 1
        # the uniform-field family attains the bound (optimal case)
        for rec in torus_sweep:
            r = 1.0 / np.sqrt(rec.min_ric)
            bound = r * np.pi * (rec.index + 1)
            assert abs(rec.period - bound) < 1e-3 * bound
        _report("3 Bonnet-Myers certification",
                f"{checked} certified orbits over k in {{0.1, 0.25, 0.5, 1, 2}}; "
                "uniform-field case attains the bound")


class TestCriterion4Synge:
    def test_synge_over_sweep(self, torus_sweep, sine_sweep):
        _, sine_fam = sine_sweep
        failures = 0
        applicable = 0
        for rec in list(torus_sweep) + list(sine_fam):
            if rec.min_sec > 0:
                applicable += 1
                if rec.index < 1:
                    failures += 1
        assert applicable == 10
        assert failures == 0
        _report("4 Synge certification",
                f"{applicable} orbits with positive sectional minimum, 0 index failures")


class TestCriterion5HessianIdentity:
    def test_two_expressions_and_kernel(self, torus, torus_loop, sphere, sphere_loop):
        rng = np.random.default_rng(105)
        worst = 0.0
        for sys, loop in ((torus, torus_loop), (sphere, sphere_loop)):
            for _ in range(100):
                var = smooth_variation(rng, loop.n_nodes)
                qa = loop_mod.hessian_form(sys, loop, K, var)
                qb = loop_mod.hessian_form_curvature(sys, loop, K, var)
                rel = abs(qa - qb) / max(1.0, abs(qa))
                worst = max(worst, rel)
                assert rel < 1e-6
            lg = loop_mod._loop_geometry(sys, loop)
            kernel = loop_mod.hessian_form(
                sys, loop, K, loop_mod.Variation(lg.xdot / loop.period))
            assert abs(kernel) < 1e-8
        _report("5 Hessian identity suite",
                f"200 random variations, worst relative gap = {worst:.2e}; "
                "reparametrization direction in the kernel")


class TestCriterion6TensorIdentities:
    def test_cyclic_identity(self):
        sys = systems.random_trig_system(dim=3, seed=33)
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(0, TWO_PI, size=3)
            g = sys.metric_at(x)
            w, v, z = rng.standard_normal((3, 3))
            total = (float(geom.nabla_omega(sys, x, w, v) @ g @ z)
                     + float(geom.nabla_omega(sys, x, z, w) @ g @ v)
                     + float(geom.nabla_omega(sys, x, v, z) @ g @ w))
            worst = max(worst, abs(total))
        assert worst < 1e-6
        _report("6a cyclic identity", f"max residual = {worst:.2e}")

    def test_lorentz_antisymmetry(self):
        sys = systems.random_trig_system(dim=4, seed=34)
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0, TWO_PI, size=4)
            g = sys.metric_at(x)
            v, w = rng.standard_normal((2, 4))
            worst = max(worst, abs(float(geom.lorentz(sys, x, v) @ g @ w)
                                   + float(v @ g @ geom.lorentz(sys, x, w))))
        assert worst < 1e-10
        _report("6b Lorentz antisymmetry", f"max residual = {worst:.2e}")

    def test_transport_inner_product_drift(self, torus, torus_orbit):
        rng = np.random.default_rng(108)
        v0, w0 = rng.standard_normal((2, 2))
        tv = flow.magnetic_transport(torus, torus_orbit, v0)
        tw = flow.magnetic_transport(torus, torus_orbit, w0)
        ips = np.array([
            float(tv.values[i] @ torus.metric_at(torus_orbit.states[i, :2]) @ tw.values[i])
            for i in range(len(torus_orbit.t))])
        drift = float(np.max(np.abs(ips - ips[0])))
        assert drift < 1e-8
        _report("6c transport drift", f"per-period inner-product drift = {drift:.2e}")

    def test_energy_drift_hundred_periods(self, torus):
        orbit = flow.integrate(torus, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                               100 * TWO_PI, tolerance=1e-10, samples=1024)
        assert orbit.energy_drift < 1e-7
        _report("6d energy drift", f"drift over 100 periods = {orbit.energy_drift:.2e}")

    def test_trace_a_nonnegative_bulk(self):
        sys = systems.random_trig_system(dim=3, seed=35)
        violations = 0
        for x, v in magcurv.sample_points_directions(sys, 10000, seed=109):
            if magcurv.trace_a_omega(sys, x, v) < 0.0:
                violations += 1
        assert violations == 0
        _report("6e trace nonnegativity", "10000 samples, 0 violations")


class TestCriterion7SurfaceFormula:
    def test_randomized_equivalence(self):
        rng = np.random.default_rng(110)
        worst = 0.0
        for seed in (41, 42):
            surf = systems.random_conformal_surface(seed=seed)
            for _ in range(500):
                x = rng.uniform(0, TWO_PI, size=2)
                fr = geom.coordinate_frame(surf, x)
                ang = rng.uniform(0, TWO_PI)
                v = fr @ np.array([np.cos(ang), np.sin(ang)])
                w = magcurv.rotation_operator(surf.metric_at(x)) @ v
                k = rng.uniform(0.1, 2.0)
                general = magcurv.sec_omega_k(surf, x, v, w, k)
                special = magcurv.surface_sec(surf, x, v, k)
                gap = abs(general - special) / max(1.0, abs(general))
                worst = max(worst, gap)
                assert gap < 1e-8
        _report("7 surface formula", f"1000 samples, worst relative gap = {worst:.2e}")


class TestCriterion8ManeBound:
    def test_three_regimes(self, hyperbolic, torus):
        no_field = systems.flat_torus(b=0.0)
        zero = loop_mod.mane_upper_bound(no_field, [(-1.0, 1.0), (-1.0, 1.0)],
                                         n_samples=256, seed=8)
        assert zero.bound == 0.0

        hyp = loop_mod.mane_upper_bound(hyperbolic, [(-3.0, 3.0), (0.2, 4.0)],
                                        n_samples=512, seed=9)
        assert abs(hyp.bound - 0.5) < 1e-10

        boxes = [[(-r, r), (-r, r)] for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
        cover = loop_mod.mane_upper_bound(torus, boxes, n_samples=512, seed=10)
        assert cover.unbounded_evidence
        assert all(b > a for a, b in zip(cover.sup_theta, cover.sup_theta[1:]))
        _report("8 critical-value bounds",
                f"zero-form bound = {zero.bound}, hyperbolic bound = {hyp.bound:.12f}, "
                f"cover sups = {[round(s, 2) for s in cover.sup_theta]}")


class TestCriterion9Oracles:
    def test_eta_matches_action_gradient(self, torus, hyperbolic):
        rng = np.random.default_rng(111)
        eps = 1e-6
        cases = [(torus, (1.0, 1.0), 0.9, 0.6, 5.0), (hyperbolic, (0.0, 2.0), 0.4, 0.3, 3.0)]
        worst = 0.0
        for sys, center, a, b, period in cases:
            s = np.arange(128) / 128
            nodes = np.stack([center[0] + a * np.cos(-TWO_PI * s),
                              center[1] + b * np.sin(-TWO_PI * s)], axis=1)
            loop = loop_mod.DiscreteLoop(nodes, period)
            for _ in range(10):
                var = smooth_variation(rng, 128, max_mode=5)
                plus = loop_mod.DiscreteLoop(loop.nodes + eps * var.vectors,
                                             loop.period + eps * var.tau)
                minus = loop_mod.DiscreteLoop(loop.nodes - eps * var.vectors,
                                              loop.period - eps * var.tau)
                fd = (loop_mod.action(sys, plus, K)
                      - loop_mod.action(sys, minus, K)) / (2 * eps)
                got = loop_mod.eta_k(sys, loop, K, var)
                rel = abs(got - fd) / max(1e-8, abs(fd))
                worst = max(worst, rel)
                assert rel < 1e-5
        _report("9a action-form gradient oracle", f"worst relative gap = {worst:.2e}")

    def test_hessian_matches_second_differences(self, torus, torus_loop,
                                                sphere, sphere_loop):
        rng = np.random.default_rng(112)
        eps = 1e-3
        worst = 0.0
        for sys, loop in ((torus, torus_loop), (sphere, sphere_loop)):
            base = loop_mod.action(sys, loop, K)
            for _ in range(10):
                var = smooth_variation(rng, loop.n_nodes, max_mode=4)
                plus = loop_mod.DiscreteLoop(loop.nodes + eps * var.vectors,
                                             loop.period + eps * var.tau)
                minus = loop_mod.DiscreteLoop(loop.nodes - eps * var.vectors,
                                              loop.period - eps * var.tau)
                fd = (loop_mod.action(sys, plus, K) - 2 * base
                      + loop_mod.action(sys, minus, K)) / eps ** 2
                got = loop_mod.hessian_form(sys, loop, K, var)
                rel = abs(got - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
                assert rel < 1e-4
        _report("9b Hessian second-difference oracle", f"worst relative gap = {worst:.2e}")

    def test_index_refinement_stability(self, torus, sphere, torus_orbit, sphere_orbit,
                                        torus_loop, sphere_loop):
        for sys, orbit, loop in ((torus, torus_orbit, torus_loop),
                                 (sphere, sphere_orbit, sphere_loop)):
            r16 = loop_mod.morse_index(sys, loop, K, mode_count=16)
            r32 = loop_mod.morse_index(sys, loop, K, mode_count=32)
            fine = loop_mod.loop_from_orbit(orbit, 2 * loop.n_nodes)
            r_fine = loop_mod.morse_index(sys, fine, K, mode_count=16)
            assert r16.index == r32.index == r_fine.index == 1
        _report("9c index refinement stability",
                "index = 1 stable under m: 16 -> 32 and N -> 2N on both benchmarks")
