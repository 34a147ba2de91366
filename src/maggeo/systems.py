"""Built-in charted magnetic systems.

Every builtin supplies analytic first and second metric derivatives so
that curvature evaluations carry no finite-difference error.  The same
systems can be rebuilt with ``scheme="fd"`` to exercise the
finite-difference path.  Every callback evaluates a point or a stack of
points in one call, through the coordinates ``x[..., i]`` (see
``geom.ChartedSystem``).
"""

from __future__ import annotations

import numpy as np

from .geom import ChartedSystem

TWO_PI = 2.0 * np.pi

# the 2x2 identity and area form dx1^dx2, flattened
_IDENTITY = (1.0, 0.0, 0.0, 1.0)
_AREA = (0.0, 1.0, -1.0, 0.0)


def _constant(x, value):
    """The array ``value`` at every point of the point or stack x."""
    return np.zeros(x.shape[:-1] + value.shape) + value


def _surface_tensor(pattern, f, order=0):
    """f times the 2x2 ``pattern`` at every point, with the last ``order``
    axes of f (derivative indices) kept last: out[..., i, j, *d] =
    pattern_ij f[..., *d]; entries outside the pattern are +0.0."""
    f = np.asarray(f, dtype=float)
    lead, tail = f.shape[:f.ndim - order], f.shape[f.ndim - order:]
    out = np.zeros(lead + (4,) + tail)
    at = (slice(None),) * len(lead)
    for entry, c in enumerate(pattern):
        if c:
            out[at + (entry,)] = f if c > 0 else -f
    return out.reshape(lead + (2, 2) + tail)


def flat_torus(b=1.0, lattice=(TWO_PI, TWO_PI)):
    """Flat 2-torus with uniform field strength b (sigma = b dx1^dx2).

    The cover primitive theta = b x1 dx2 is supplied; it is unbounded on
    the plane, which is the expected behaviour for a non-exact form.
    """
    ident = np.eye(2)
    sigma = _surface_tensor(_AREA, b)

    def primitive(x):
        th = np.zeros(x.shape)
        th[..., 1] = b * x[..., 0]
        return th

    return ChartedSystem(
        dim=2,
        metric=lambda x: _constant(x, ident),
        two_form=lambda x: _constant(x, sigma),
        primitive=primitive,
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        d2metric=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2, 2)),
        dtwo_form=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        name=f"flat_torus(b={b})",
    )


def sine_field_torus(base=1.0, amp=0.2, lattice=(TWO_PI, TWO_PI)):
    """Flat 2-torus with varying field b(x) = base + amp * sin(x1).

    Cover primitive theta = (base*x1 - amp*cos(x1)) dx2.
    """
    ident = np.eye(2)

    def b(x):
        return base + amp * np.sin(x[..., 0])

    def db(x):
        out = np.zeros(x.shape)
        out[..., 0] = amp * np.cos(x[..., 0])
        return out

    def primitive(x):
        th = np.zeros(x.shape)
        th[..., 1] = base * x[..., 0] - amp * np.cos(x[..., 0])
        return th

    return ChartedSystem(
        dim=2,
        metric=lambda x: _constant(x, ident),
        two_form=lambda x: _surface_tensor(_AREA, b(x)),
        primitive=primitive,
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        d2metric=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2, 2)),
        dtwo_form=lambda x: _surface_tensor(_AREA, db(x), 1),
        extras={"b": b, "db": db},
        name=f"sine_field_torus(base={base},amp={amp})",
    )


def _stereo_transition(x, v):
    """Chart swap z -> 1/z between the two stereographic charts, in real
    coordinates x -> (x1, -x2)/|x|^2, with its tangent map on v.

    It is an orientation-preserving isometric involution, so it carries
    the area form, and with it b times the area form, onto itself."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r2 = float(x @ x)
    flip = np.array([1.0, -1.0])
    xn = flip * x / r2
    vn = flip * (v * r2 - 2.0 * x * float(x @ v)) / r2 ** 2
    return xn, vn


def round_sphere(b=0.0, safe_radius=4.0):
    """Round unit sphere in a stereographic chart, g = 4 delta / (1+|x|^2)^2.

    Two isometric charts cover the sphere; the transition z -> 1/z, i.e.
    x -> (x1, -x2)/|x|^2, is applied by the integrator when |x| exceeds
    ``safe_radius``.  It preserves orientation, so with b != 0 the
    two-form b times the area form is the same in both charts (no global
    primitive is supplied).
    """
    def u(x):
        return 1.0 + np.einsum("...i,...i->...", x, x)

    def metric(x):
        return _surface_tensor(_IDENTITY, 4.0 / u(x) ** 2)

    def dmetric(x):
        return _surface_tensor(_IDENTITY, -16.0 * x / (u(x) ** 3)[..., None], 1)

    def d2metric(x):
        uu = u(x)[..., None, None]
        return _surface_tensor(_IDENTITY, -16.0 * (np.eye(2) / uu ** 3 - 6.0 * x[..., :, None]
                                                   * x[..., None, :] / uu ** 4), 2)

    def two_form(x):
        if b == 0.0:
            return np.zeros(x.shape[:-1] + (2, 2))
        return _surface_tensor(_AREA, 4.0 * b / u(x) ** 2)

    def dtwo_form(x):
        if b == 0.0:
            return np.zeros(x.shape[:-1] + (2, 2, 2))
        return _surface_tensor(_AREA, -16.0 * b * x / (u(x) ** 3)[..., None], 1)

    return ChartedSystem(
        dim=2,
        metric=metric,
        two_form=two_form,
        primitive=(lambda x: np.zeros(x.shape)) if b == 0.0 else None,
        lattice=None,
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        transition=_stereo_transition,
        safe_radius=safe_radius,
        name=f"round_sphere(b={b})",
    )


def hyperbolic_chart(b=1.0):
    """Upper half-plane chart (x2 > 0), g = delta / x2^2, sigma = b * area form.

    The bounded primitive theta = (b/x2) dx1 has |theta|_g = b everywhere.
    """
    def dmetric(x):
        d = np.zeros(x.shape)
        d[..., 1] = -2.0 / x[..., 1] ** 3
        return _surface_tensor(_IDENTITY, d, 1)

    def d2metric(x):
        d2 = np.zeros(x.shape + (2,))
        d2[..., 1, 1] = 6.0 / x[..., 1] ** 4
        return _surface_tensor(_IDENTITY, d2, 2)

    def dtwo_form(x):
        d = np.zeros(x.shape)
        d[..., 1] = -2.0 * b / x[..., 1] ** 3
        return _surface_tensor(_AREA, d, 1)

    def primitive(x):
        th = np.zeros(x.shape)
        th[..., 0] = b / x[..., 1]
        return th

    return ChartedSystem(
        dim=2,
        metric=lambda x: _surface_tensor(_IDENTITY, 1.0 / x[..., 1] ** 2),
        two_form=lambda x: _surface_tensor(_AREA, b / x[..., 1] ** 2),
        primitive=primitive,
        lattice=None,
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        name=f"hyperbolic_chart(b={b})",
    )


def _trig(terms, x, order=0):
    """Derivative tensor of the given order (indices last) of the
    trigonometric polynomial f(x) = sum_m a_m sin(k_m . x + p_m)."""
    total = np.zeros(x.shape[:-1] + (x.shape[-1],) * order)
    for a, k, p in terms:
        arg = x @ k + p
        if order == 0:
            total = total + a * np.sin(arg)
        elif order == 1:
            total = total + (a * np.cos(arg))[..., None] * k
        else:
            total = total - (a * np.sin(arg))[..., None, None] * np.outer(k, k)
    return total


def conformal_surface(phi_coeffs, b_coeffs, lattice=(TWO_PI, TWO_PI)):
    """Conformally flat surface g = exp(2 phi) delta with sigma = b * area form.

    ``phi`` and ``b`` are trigonometric polynomials encoded as lists of
    (amplitude, wavevector, phase) triples:
        f(x) = sum_m a_m * sin(k_m . x + p_m).
    All derivatives are analytic.  The Gaussian curvature has the closed
    form K = -exp(-2 phi) * laplacian(phi), handy as an independent oracle.
    """
    phi_terms = [(float(a), np.asarray(k, float), float(p)) for a, k, p in phi_coeffs]
    b_terms = [(float(a), np.asarray(k, float), float(p)) for a, k, p in b_coeffs]

    def conformal_factor(x):
        return np.exp(2.0 * _trig(phi_terms, x))

    def dmetric(x):
        e = conformal_factor(x)[..., None]
        return _surface_tensor(_IDENTITY, 2.0 * _trig(phi_terms, x, 1) * e, 1)

    def d2metric(x):
        dphi = _trig(phi_terms, x, 1)
        val = 2.0 * _trig(phi_terms, x, 2) + 4.0 * dphi[..., :, None] * dphi[..., None, :]
        return _surface_tensor(_IDENTITY, val * conformal_factor(x)[..., None, None], 2)

    def two_form(x):
        # b * sqrt(det g)
        return _surface_tensor(_AREA, _trig(b_terms, x) * conformal_factor(x))

    def dtwo_form(x):
        d = _trig(b_terms, x, 1) + 2.0 * _trig(b_terms, x)[..., None] * _trig(phi_terms, x, 1)
        return _surface_tensor(_AREA, d * conformal_factor(x)[..., None], 1)

    def gauss_curvature(x):
        d2phi = _trig(phi_terms, x, 2)
        return -np.exp(-2.0 * _trig(phi_terms, x)) * (d2phi[..., 0, 0] + d2phi[..., 1, 1])

    return ChartedSystem(
        dim=2,
        metric=lambda x: _surface_tensor(_IDENTITY, conformal_factor(x)),
        two_form=two_form,
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        extras={
            "b": lambda x: _trig(b_terms, x),
            "db": lambda x: _trig(b_terms, x, 1),
            "gauss": gauss_curvature,
        },
        name="conformal_surface",
    )


def random_conformal_surface(seed, phi_amp=0.15, b_base=1.0, b_amp=0.3):
    """Seeded random member of the conformal surface family."""
    rng = np.random.default_rng(seed)
    phi_coeffs = [(phi_amp * rng.uniform(0.3, 1.0),
                   rng.integers(1, 3, size=2).astype(float),
                   rng.uniform(0.0, TWO_PI)) for _ in range(3)]
    b_coeffs = [(b_base, np.zeros(2), np.pi / 2.0)]  # constant term: sin(pi/2) = 1
    b_coeffs += [(b_amp * rng.uniform(0.3, 1.0),
                  rng.integers(1, 3, size=2).astype(float),
                  rng.uniform(0.0, TWO_PI)) for _ in range(2)]
    return conformal_surface(phi_coeffs, b_coeffs)


def _minus_sin(arg):
    return -np.sin(arg)


def random_trig_system(dim=3, seed=0, g_amp=0.12, s_amp=0.5, n_terms=3):
    """Randomized n-dimensional system with analytic derivatives.

    The metric is a small trigonometric perturbation of the identity and
    the two-form is exact, sigma = d theta, for a random trigonometric
    covector theta (hence closed by construction).
    """
    rng = np.random.default_rng(seed)
    g_terms = []
    for _ in range(n_terms):
        s = rng.normal(size=(dim, dim))
        s = 0.5 * (s + s.T)
        s *= g_amp / max(1.0, np.max(np.abs(s)))
        k = rng.integers(-2, 3, size=dim).astype(float)
        if not k.any():
            k[0] = 1.0
        g_terms.append((s, k, rng.uniform(0.0, TWO_PI)))
    t_terms = []
    for _ in range(n_terms):
        a = rng.normal(size=dim)
        a *= s_amp / max(1.0, np.max(np.abs(a)))
        k = rng.integers(-2, 3, size=dim).astype(float)
        if not k.any():
            k[-1] = 1.0
        t_terms.append((a, k, rng.uniform(0.0, TWO_PI)))

    g_d1 = [(s[:, :, None] * k, k, p) for s, k, p in g_terms]
    g_d2 = [(s[:, :, None, None] * k[:, None] * k, k, p) for s, k, p in g_terms]
    t_d1 = [(np.outer(k, a) - np.outer(a, k), k, p) for a, k, p in t_terms]
    t_d2 = [(block[:, :, None] * k, k, p) for block, k, p in t_d1]

    def series(terms, x, wave, base):
        """base + sum_m wave(k_m . x + p_m) c_m over the terms (c_m, k_m, p_m)."""
        total = base
        for c, k, p in terms:
            w = wave(x @ k + p)
            total = total + w.reshape(w.shape + (1,) * c.ndim) * c
        return total

    def metric(x):
        return series(g_terms, x, np.sin, _constant(x, np.eye(dim)))

    def dmetric(x):
        return series(g_d1, x, np.cos, np.zeros(x.shape[:-1] + (dim,) * 3))

    def d2metric(x):
        return series(g_d2, x, _minus_sin, np.zeros(x.shape[:-1] + (dim,) * 4))

    def theta(x):
        return series(t_terms, x, np.sin, np.zeros(x.shape))

    def two_form(x):
        # sigma_ij = d_i theta_j - d_j theta_i
        return series(t_d1, x, np.cos, np.zeros(x.shape[:-1] + (dim, dim)))

    def dtwo_form(x):
        return series(t_d2, x, _minus_sin, np.zeros(x.shape[:-1] + (dim,) * 3))

    return ChartedSystem(
        dim=dim,
        metric=metric,
        two_form=two_form,
        primitive=theta,
        lattice=tuple(TWO_PI for _ in range(dim)),
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        name=f"random_trig_system(dim={dim},seed={seed})",
    )


BUILTINS = {
    "flat_torus": flat_torus,
    "sine_field_torus": sine_field_torus,
    "round_sphere": round_sphere,
    "hyperbolic_chart": hyperbolic_chart,
}
