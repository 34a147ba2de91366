import numpy as np
import pytest
from hypothesis import settings

from maggeo import flow, loop as loop_mod, solve, systems

TWO_PI = 2.0 * np.pi

# Every run draws the same examples (seeded from each test), with no time
# limit per example and no replay of examples saved by earlier runs, so a
# run cannot pass or fail on a new draw.  Each test keeps its max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def torus():
    return systems.flat_torus()


@pytest.fixture(scope="session")
def sphere():
    return systems.round_sphere()


@pytest.fixture(scope="session")
def hyperbolic():
    return systems.hyperbolic_chart()


@pytest.fixture(scope="session")
def torus_orbit(torus):
    return flow.integrate(torus, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                          TWO_PI, tolerance=1e-12, samples=513)


@pytest.fixture(scope="session")
def sphere_orbit(sphere):
    return flow.integrate(sphere, flow.PhaseState([1.0, 0.0], [0.0, 1.0]),
                          TWO_PI, tolerance=1e-12, samples=513)


@pytest.fixture(scope="session")
def torus_loop(torus_orbit):
    return loop_mod.loop_from_orbit(torus_orbit, 512)


@pytest.fixture(scope="session")
def sphere_loop(sphere_orbit):
    return loop_mod.loop_from_orbit(sphere_orbit, 512)


@pytest.fixture(scope="session")
def torus_record(torus):
    rec = solve.find_orbit(torus, 0.5, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 6.0,
                           winding_target=(0, 0))
    assert isinstance(rec, solve.OrbitRecord)
    return rec


@pytest.fixture(scope="session")
def sphere_record(sphere):
    x0 = np.array([1.06, 0.02])
    v0 = np.array([-0.05, 1.0])
    v0 = v0 / sphere.norm(x0, v0)
    rec = solve.find_orbit(sphere, 0.5, flow.PhaseState(x0, v0), 6.1)
    assert isinstance(rec, solve.OrbitRecord)
    return rec


@pytest.fixture(scope="session")
def torus_sweep(torus, torus_record):
    return solve.continue_in_k(torus, torus_record, [0.1, 0.25, 0.5, 1.0, 2.0])


@pytest.fixture(scope="session")
def sine_sweep():
    sf = systems.sine_field_torus()
    k0 = 0.1
    x0 = np.array([np.pi / 2.0, 1.0])
    v0 = np.array([1.0, 0.0]) * np.sqrt(2.0 * k0)
    rec = solve.find_orbit(sf, k0, flow.PhaseState(x0, v0), TWO_PI / 1.2,
                           winding_target=(0, 0))
    assert isinstance(rec, solve.OrbitRecord)
    fam = [rec] + solve.continue_in_k(sf, rec, [0.25, 0.5, 1.0, 2.0])
    return sf, fam


def unit_normal_field(sys, loop):
    """Unit normal along a surface loop, rotation of the unit tangent."""
    from maggeo import magcurv

    lg = loop_mod._loop_geometry(sys, loop)
    out = np.empty_like(loop.nodes)
    for i in range(loop.n_nodes):
        j = magcurv.rotation_operator(lg.g[i])
        out[i] = j @ lg.unit[i]
    return out


def smooth_variation(rng, n_nodes, dim=2, max_mode=8, tau_scale=1.0):
    """Random trigonometric variation (exact under spectral differentiation)."""
    s = np.arange(n_nodes) / n_nodes
    v = np.zeros((n_nodes, dim))
    for j in range(max_mode + 1):
        v += rng.standard_normal((1, dim)) * np.cos(TWO_PI * j * s)[:, None]
        if j:
            v += rng.standard_normal((1, dim)) * np.sin(TWO_PI * j * s)[:, None]
    return loop_mod.Variation(v, tau=tau_scale * rng.standard_normal())
