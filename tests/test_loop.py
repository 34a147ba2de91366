import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import smooth_variation, unit_normal_field
from maggeo import geom, loop as loop_mod, magcurv, solve, systems
from maggeo.errors import ActionUndefinedError, FrameError, NotCriticalError

TWO_PI = 2.0 * np.pi
K = 0.5


def ellipse_loop(center, a, b, n_nodes=128, period=5.0, orientation=-1):
    s = np.arange(n_nodes) / n_nodes
    ang = orientation * TWO_PI * s
    nodes = np.stack([center[0] + a * np.cos(ang), center[1] + b * np.sin(ang)], axis=1)
    return loop_mod.DiscreteLoop(nodes, period)


class TestAction:
    def test_constant_loop(self, torus):
        loop = loop_mod.DiscreteLoop(np.tile([0.2, 0.4], (16, 1)), period=3.0)
        assert loop_mod.action(torus, loop, K) == pytest.approx(K * 3.0, abs=1e-14)

    def test_torus_circle_value(self, torus, torus_loop):
        # closed form: kinetic pi + kT pi + signed area -pi (clockwise) = pi
        assert loop_mod.action(torus, torus_loop, K) == pytest.approx(np.pi, abs=1e-9)

    def test_primitive_and_disk_routes_agree(self, torus):
        loop = ellipse_loop((1.0, 1.0), 0.8, 0.5)
        via_theta = loop_mod.action(torus, loop, K)
        bare = systems.flat_torus()
        bare = type(bare)(**{**bare.__dict__, "primitive": None})
        via_disk = loop_mod.action(bare, loop, K)
        assert via_theta == pytest.approx(via_disk, abs=1e-10)

    def test_period_derivative(self, torus):
        # dS/dT = -C/T^2 + k vanishes exactly when the mean energy equals k
        loop = ellipse_loop((1.0, 1.0), 0.8, 0.5, period=2.0)
        h = 1e-6
        lo = loop_mod.DiscreteLoop(loop.nodes, loop.period - h)
        hi = loop_mod.DiscreteLoop(loop.nodes, loop.period + h)
        fd = (loop_mod.action(torus, hi, K) - loop_mod.action(torus, lo, K)) / (2 * h)
        eta_tau = loop_mod.eta_k(torus, loop, K, loop_mod.Variation(np.zeros_like(loop.nodes), tau=1.0))
        assert fd == pytest.approx(eta_tau, rel=1e-7)

    def test_missing_primitive_with_winding(self):
        bare = systems.flat_torus()
        bare = type(bare)(**{**bare.__dict__, "primitive": None})
        s = np.arange(32) / 32
        nodes = np.stack([TWO_PI * s, 0.3 + 0.1 * np.sin(TWO_PI * s)], axis=1)
        loop = loop_mod.DiscreteLoop(nodes, 5.0, winding=[1, 0])
        with pytest.raises(ActionUndefinedError):
            loop_mod.action(bare, loop, K)


class TestEta:
    def test_vanishes_at_orbit(self, torus, torus_loop):
        rng = np.random.default_rng(16)
        scale = loop_mod.eta_gate(torus_loop)
        for _ in range(5):
            var = smooth_variation(rng, torus_loop.n_nodes)
            size = np.linalg.norm(var.vectors) / np.sqrt(torus_loop.n_nodes) + abs(var.tau)
            assert abs(loop_mod.eta_k(torus, torus_loop, K, var)) < 1e-6 * size
        assert loop_mod.eta_norm(torus, torus_loop, K) < scale

    def test_constant_loop_tau_component(self, torus):
        loop = loop_mod.DiscreteLoop(np.tile([0.2, 0.4], (16, 1)), period=3.0)
        var = loop_mod.Variation(np.zeros((16, 2)), tau=1.0)
        assert loop_mod.eta_k(torus, loop, K, var) == pytest.approx(K)

    def test_gradient_oracle_flat(self, torus):
        self._gradient_oracle(torus, ellipse_loop((1.0, 1.0), 0.9, 0.6))

    def test_gradient_oracle_curved(self, hyperbolic):
        self._gradient_oracle(hyperbolic, ellipse_loop((0.0, 2.0), 0.4, 0.3, period=3.0))

    @staticmethod
    def _gradient_oracle(sys, loop):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(5):
            var = smooth_variation(rng, loop.n_nodes, max_mode=5)
            plus = loop_mod.DiscreteLoop(loop.nodes + eps * var.vectors,
                                         loop.period + eps * var.tau)
            minus = loop_mod.DiscreteLoop(loop.nodes - eps * var.vectors,
                                          loop.period - eps * var.tau)
            fd = (loop_mod.action(sys, plus, K) - loop_mod.action(sys, minus, K)) / (2 * eps)
            got = loop_mod.eta_k(sys, loop, K, var)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_singular_parametrization(self, torus):
        nodes = np.tile([0.1, 0.2], (16, 1))
        nodes[3] = [0.5, 0.2]  # isolated moving node between repeated ones
        loop = loop_mod.DiscreteLoop(nodes, 2.0)
        with pytest.raises(ValueError, match="singular parametrization"):
            loop_mod.eta_k(torus, loop, K, loop_mod.Variation(np.zeros((16, 2)), tau=1.0))


class TestHessian:
    def test_reparametrization_kernel(self, torus, torus_loop):
        lg = loop_mod._loop_geometry(torus, torus_loop)
        var = loop_mod.Variation(lg.xdot / torus_loop.period)
        assert abs(loop_mod.hessian_form(torus, torus_loop, K, var)) < 1e-8

    def test_normal_direction_with_period_coupling(self, torus, torus_loop):
        nhat = unit_normal_field(torus, torus_loop)
        var = loop_mod.Variation(nhat, tau=-TWO_PI)
        got = loop_mod.hessian_form(torus, torus_loop, K, var)
        assert got == pytest.approx(-TWO_PI, abs=1e-9)

    def test_two_expressions_agree(self, torus, torus_loop, sphere, sphere_loop):
        rng = np.random.default_rng(18)
        for sys, loop in ((torus, torus_loop), (sphere, sphere_loop)):
            for _ in range(10):
                var = smooth_variation(rng, loop.n_nodes)
                qa = loop_mod.hessian_form(sys, loop, K, var)
                qb = loop_mod.hessian_form_curvature(sys, loop, K, var)
                assert abs(qa - qb) < 1e-6 * max(1.0, abs(qa))

    def test_second_difference_oracle(self, torus, torus_loop):
        rng = np.random.default_rng(19)
        eps = 1e-3
        base = loop_mod.action(torus, torus_loop, K)
        for _ in range(5):
            var = smooth_variation(rng, torus_loop.n_nodes, max_mode=4)
            plus = loop_mod.DiscreteLoop(torus_loop.nodes + eps * var.vectors,
                                         torus_loop.period + eps * var.tau)
            minus = loop_mod.DiscreteLoop(torus_loop.nodes - eps * var.vectors,
                                          torus_loop.period - eps * var.tau)
            fd = (loop_mod.action(torus, plus, K) - 2 * base
                  + loop_mod.action(torus, minus, K)) / eps ** 2
            got = loop_mod.hessian_form(torus, torus_loop, K, var)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_curvature_blocks_match_pointwise_tensors(self):
        # batched node contraction against the per-point geom route
        sys = systems.random_trig_system(dim=3, seed=41)
        s = np.arange(16) / 16
        nodes = np.stack([1.0 + 0.3 * np.cos(TWO_PI * s), 2.0 + 0.3 * np.sin(TWO_PI * s),
                          0.5 + 0.1 * np.sin(2 * TWO_PI * s)], axis=1)
        lg = loop_mod._loop_geometry(sys, loop_mod.DiscreteLoop(nodes, 3.0))
        m1, m2 = lg.curvature_blocks
        eye = np.eye(3)
        for i, x in enumerate(nodes):
            g, xd = sys.metric_at(x), lg.xdot[i]
            r = np.array([geom.riemann(sys, x, e, xd, xd) @ g for e in eye])
            d = np.array([geom.nabla_omega(sys, x, e, xd) @ g for e in eye])
            assert np.allclose(m1[i], r, rtol=0, atol=1e-13 * np.max(np.abs(r)))
            assert np.allclose(m2[i], d, rtol=0, atol=1e-13 * np.max(np.abs(d)))

    def test_gate_enforced(self, torus):
        loop = ellipse_loop((1.0, 1.0), 0.9, 0.5)
        with pytest.raises(NotCriticalError):
            loop_mod.hessian_form(torus, loop, K, smooth_variation(np.random.default_rng(0), 128))

    def test_matrix_matches_scalar(self, torus, torus_loop):
        rng = np.random.default_rng(20)
        variations = [smooth_variation(rng, torus_loop.n_nodes) for _ in range(3)]
        mat = loop_mod._hessian_blocks(torus, torus_loop, K, variations)
        for i, var in enumerate(variations):
            assert mat[i, i] == pytest.approx(
                loop_mod.hessian_form(torus, torus_loop, K, var), rel=1e-12, abs=1e-12)


class TestTestVariations:
    def test_parallel_normal_keeps_field(self, sphere, sphere_loop):
        # on a geodesic the unit normal is parallel: tau = 0 and W = V
        nhat = unit_normal_field(sphere, sphere_loop)
        var = loop_mod.make_test_variation(sphere, sphere_loop, nhat)
        assert abs(var.tau) < 1e-9
        assert np.max(np.abs(var.vectors - nhat)) < 1e-8

    def test_torus_normal_value(self, torus, torus_loop):
        nhat = unit_normal_field(torus, torus_loop)
        var = loop_mod.make_test_variation(torus, torus_loop, nhat)
        assert var.tau == pytest.approx(-TWO_PI, abs=1e-10)
        q = loop_mod.hessian_form(torus, torus_loop, K, var)
        assert q == pytest.approx(-TWO_PI, abs=1e-9)

    def test_last_square_eliminated_pointwise(self, torus, torus_loop):
        nhat = unit_normal_field(torus, torus_loop)
        var = loop_mod.make_test_variation(torus, torus_loop, nhat)
        lg = loop_mod._loop_geometry(torus, torus_loop)
        vcov = var.d() + np.einsum("nkab,na,nb->nk", lg.gamma, lg.xdot, var.vectors)
        p = np.einsum("nk,nkl,nl->n", vcov, lg.g, lg.xdot)
        integrand = (p / lg.speed - var.tau * lg.speed / torus_loop.period) ** 2
        assert np.max(integrand) < 1e-10

    def test_profile_closes_by_construction(self, torus, torus_loop):
        rng = np.random.default_rng(21)
        lg = loop_mod._loop_geometry(torus, torus_loop)
        nhat = unit_normal_field(torus, torus_loop)
        scal = 1.0 + 0.3 * np.sin(TWO_PI * torus_loop.s)
        var = loop_mod.make_test_variation(torus, torus_loop, scal[:, None] * nhat)
        # recover the reparametrization profile from W - V along the tangent
        prof = np.einsum("nk,nkl,nl->n", var.vectors - scal[:, None] * nhat,
                         lg.g, lg.xdot) / lg.speed ** 2 * torus_loop.period
        assert abs(prof[0]) < 1e-10

    def test_rejects_non_normal(self, torus, torus_loop):
        rng = np.random.default_rng(22)
        with pytest.raises(FrameError):
            loop_mod.make_test_variation(torus, torus_loop,
                                         rng.standard_normal(torus_loop.nodes.shape))


class TestSineModes:
    def test_single_window_value(self, torus, torus_loop):
        # f = sin(t/2) on [0, 2pi]: int fdot^2 = pi/4, int f^2 Sec = pi
        nhat = unit_normal_field(torus, torus_loop)
        var = loop_mod.sine_mode_variation(torus, torus_loop, nhat, window=0, mode_count=0)
        q = loop_mod.hessian_form(torus, torus_loop, K, var)
        assert q == pytest.approx(-3 * np.pi / 4, rel=1e-4)

    def test_above_threshold_every_window_positive(self, torus, torus_loop):
        # Sec = 1/r^2 with r = 1 and T = 2pi < 3pi = r pi (m+1) for m = 2
        nhat = unit_normal_field(torus, torus_loop)
        expected = (9 * np.pi ** 2 - 4 * np.pi ** 2) / (2 * TWO_PI * 3)
        for j in range(3):
            var = loop_mod.sine_mode_variation(torus, torus_loop, nhat, window=j, mode_count=2)
            q = loop_mod.hessian_form(torus, torus_loop, K, var)
            assert q > 0
            assert q == pytest.approx(expected, rel=2e-2)

    def test_disjoint_windows_block_structure(self, torus, torus_loop):
        nhat = unit_normal_field(torus, torus_loop)
        va = loop_mod.sine_mode_variation(torus, torus_loop, nhat, window=0, mode_count=2)
        vb = loop_mod.sine_mode_variation(torus, torus_loop, nhat, window=2, mode_count=2)
        form = loop_mod.hessian_form_curvature
        qa = form(torus, torus_loop, K, va)
        qb = form(torus, torus_loop, K, vb)
        vsum = loop_mod.Variation(va.vectors + vb.vectors, va.tau + vb.tau,
                                  va.d() + vb.d())
        assert form(torus, torus_loop, K, vsum) == pytest.approx(qa + qb, abs=1e-8)


def _reversed_pivot_frame(pg):
    """Gram-Schmidt of the coordinate basis in reversed pivot order, at each
    point of the stack pg."""
    g = pg.g
    n = g.shape[-1]
    frame = []
    for idx in reversed(range(n)):
        r = np.broadcast_to(np.eye(n)[idx], g.shape[:-1])
        for e in frame:
            r = r - np.einsum("...i,...ij,...j->...", r, g, e)[..., None] * e
        frame.append(r / np.sqrt(np.einsum("...i,...ij,...j->...", r, g, r))[..., None])
    return np.stack(frame, axis=-1)


class TestMorseIndex:
    def test_torus_index_one(self, torus, torus_loop):
        report = loop_mod.morse_index(torus, torus_loop, K, mode_count=32)
        assert report.index == 1
        assert report.near_zero >= 1  # reparametrization kernel at least
        assert report.negative + report.near_zero + report.positive == report.dim_variation

    def test_sphere_index_one(self, sphere, sphere_loop):
        report = loop_mod.morse_index(sphere, sphere_loop, K, mode_count=32)
        assert report.index == 1

    def test_stability_in_modes_and_frame(self, torus, torus_loop, sphere, sphere_loop,
                                          monkeypatch):
        r16 = loop_mod.morse_index(torus, torus_loop, K, mode_count=16)
        r32 = loop_mod.morse_index(torus, torus_loop, K, mode_count=32)
        assert r16.index == r32.index == 1
        monkeypatch.setattr(geom.PointGeometry, "frame", property(_reversed_pivot_frame))
        frames, _ = loop_mod.loop_frame(torus, torus_loop)
        assert np.allclose(frames[0], [[0.0, 1.0], [1.0, 0.0]])
        for sys, lp in ((torus, torus_loop), (sphere, sphere_loop)):
            assert loop_mod.morse_index(sys, lp, K, mode_count=16).index == 1

    def test_stability_under_node_refinement(self, torus, torus_orbit):
        for n in (256, 512):
            loop = loop_mod.loop_from_orbit(torus_orbit, n)
            assert loop_mod.morse_index(torus, loop, K, mode_count=16).index == 1

    def test_report_serialization(self, torus, torus_loop, tmp_path):
        report = loop_mod.morse_index(torus, torus_loop, K, mode_count=8)
        payload = report.to_json()
        assert payload["negative"] == 1
        report.spectra_to_csv(tmp_path / "spectra.csv")
        assert (tmp_path / "spectra.csv").read_text().startswith("i,eigenvalue")


def _einsum_hessian_blocks(sys, loop, variations):
    """The three-operand einsum assembly the matmul form replaced."""
    lg = loop_mod._loop_geometry(sys, loop)
    T = loop.period
    vs = np.stack([v.vectors for v in variations])
    dvs = np.stack([v.d() for v in variations])
    taus = np.array([v.tau for v in variations])
    vcov = dvs + np.einsum("nkab,na,dnb->dnk", lg.gamma, lg.xdot, vs)
    om_v = np.einsum("nkj,dnj->dnk", lg.omega, vs)
    p = np.einsum("dnk,nkl,nl->dn", vcov, lg.g, lg.xdot)
    b1 = (np.einsum("cnk,nkl,dnl->cd", vcov, lg.g, vcov) / T
          - 0.5 * np.einsum("cnk,nkl,dnl->cd", om_v, lg.g, vcov)
          - 0.5 * np.einsum("dnk,nkl,cnl->cd", om_v, lg.g, vcov))
    m1, m2 = lg.curvature_blocks
    m1s = 0.5 * (m1 + np.swapaxes(m1, 1, 2))
    m2s = 0.5 * (m2 + np.swapaxes(m2, 1, 2))
    b2 = -(np.einsum("cna,nab,dnb->cd", vs, m1s, vs) / T
           - np.einsum("cna,nab,dnb->cd", vs, m2s, vs))
    b3 = -np.einsum("cn,dn,n->cd", p, p, 1.0 / lg.speed ** 2) / T
    q = p / lg.speed[None, :] - taus[:, None] * lg.speed[None, :] / T
    b4 = np.einsum("cn,dn->cd", q, q) / T
    b = (b1 + b2 + b3 + b4) / loop.n_nodes
    return 0.5 * (b + b.T)


def _per_mode_basis(sys, loop, mode_count):
    """The index basis built one Variation at a time, as it was before it
    was stacked."""
    frames, dframes = loop_mod.loop_frame(sys, loop)
    s = loop.s
    variations = []
    for d in range(loop.dim):
        col, dcol = frames[:, :, d], dframes[:, :, d]
        for j in range(mode_count + 1):
            c = np.cos(2.0 * np.pi * j * s)
            dc = -2.0 * np.pi * j * np.sin(2.0 * np.pi * j * s)
            variations.append(loop_mod.Variation(c[:, None] * col,
                                                 dvectors=dc[:, None] * col + c[:, None] * dcol))
            if j > 0:
                sn = np.sin(2.0 * np.pi * j * s)
                dsn = 2.0 * np.pi * j * np.cos(2.0 * np.pi * j * s)
                variations.append(loop_mod.Variation(
                    sn[:, None] * col, dvectors=dsn[:, None] * col + sn[:, None] * dcol))
    variations.append(loop_mod.Variation(np.zeros_like(loop.nodes), tau=1.0))
    return variations


def _einsum_gram_matrix(sys, loop, variations):
    lg = loop_mod._loop_geometry(sys, loop)
    vs = np.stack([v.vectors for v in variations])
    dvs = np.stack([v.d() for v in variations])
    taus = np.array([v.tau for v in variations])
    vcov = dvs + np.einsum("nkab,na,dnb->dnk", lg.gamma, lg.xdot, vs)
    g = (np.einsum("cnk,nkl,dnl->cd", vs, lg.g, vs)
         + np.einsum("cnk,nkl,dnl->cd", vcov, lg.g, vcov)) / loop.n_nodes
    g += np.outer(taus, taus)
    return 0.5 * (g + g.T)


def _trig_loop(dim=3, seed=0):
    sys = systems.random_trig_system(dim=dim, seed=seed)
    s = np.arange(64) / 64
    cols = [1.0 + 0.4 * np.cos(TWO_PI * s), 2.0 + 0.3 * np.sin(TWO_PI * s),
            0.5 + 0.2 * np.sin(2 * TWO_PI * s), -0.3 + 0.1 * np.cos(3 * TWO_PI * s)]
    return sys, loop_mod.DiscreteLoop(np.stack(cols[:dim], axis=1), 3.0)


class TestIndexAssembly:
    """The matmul assembly of the Hessian and Gram matrices against the
    three-operand einsum forms it replaced."""

    @pytest.mark.parametrize("case", ["sine_torus_k01", "random_trig_3d"])
    def test_matches_einsum_forms(self, case, sine_sweep):
        if case == "sine_torus_k01":
            sys, fam = sine_sweep
            loop, k = fam[0].loop, fam[0].k
        else:
            (sys, loop), k = _trig_loop(), K
        basis = loop_mod.variation_basis(sys, loop, 8)
        for new, old in ((loop_mod._hessian_blocks(sys, loop, k, basis),
                          _einsum_hessian_blocks(sys, loop, basis)),
                         (loop_mod.gram_matrix(sys, loop, basis),
                          _einsum_gram_matrix(sys, loop, basis))):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    def test_basis_matches_per_mode_construction(self):
        sys, loop = _trig_loop()
        basis = loop_mod.variation_basis(sys, loop, 5)
        reference = _per_mode_basis(sys, loop, 5)
        assert len(basis) == len(reference)
        for got, want in zip(basis, reference):
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.d(), want.d())
            assert got.tau == want.tau


@given(st.integers(2, 4), st.integers(0, 2 ** 16), st.integers(2, 8))
@settings(max_examples=10, deadline=None)
def test_stacked_basis_matches_einsum_forms(dim, seed, mode_count):
    # the basis morse_index assembles from, against the einsum forms over
    # the Variation list variation_basis returns; the list, stacked, gives
    # the very same matrices
    sys, loop = _trig_loop(dim, seed)
    stack = loop_mod._stack(loop_mod._loop_geometry(sys, loop),
                            *loop_mod._basis_arrays(sys, loop, mode_count))
    basis = loop_mod.variation_basis(sys, loop, mode_count)
    assert len(basis) == dim * (2 * mode_count + 1) + 1
    for form, oracle in ((lambda b: loop_mod._hessian_blocks(sys, loop, K, b),
                          _einsum_hessian_blocks),
                         (lambda b: loop_mod.gram_matrix(sys, loop, b), _einsum_gram_matrix)):
        new, old = form(stack), oracle(sys, loop, basis)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
        assert np.array_equal(form(basis), new)


class TestManeBound:
    def test_zero_form_zero_bound(self):
        sys = systems.flat_torus(b=0.0)
        report = loop_mod.mane_upper_bound(sys, [(-1.0, 1.0), (-1.0, 1.0)], n_samples=128, seed=0)
        assert report.bound == 0.0

    def test_hyperbolic_half(self, hyperbolic):
        report = loop_mod.mane_upper_bound(hyperbolic, [(-2.0, 2.0), (0.5, 3.0)],
                                           n_samples=256, seed=1)
        assert report.bound == pytest.approx(0.5, abs=1e-10)
        assert not report.unbounded_evidence

    def test_flat_cover_growth(self, torus):
        boxes = [[(-r, r), (-r, r)] for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
        report = loop_mod.mane_upper_bound(torus, boxes, n_samples=512, seed=2)
        assert report.unbounded_evidence
        assert all(b > a for a, b in zip(report.sup_theta, report.sup_theta[1:]))

    def test_requires_primitive(self):
        surf = systems.random_conformal_surface(seed=31)
        with pytest.raises(ActionUndefinedError):
            loop_mod.mane_upper_bound(surf, [(-1.0, 1.0), (-1.0, 1.0)])
