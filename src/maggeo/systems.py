"""Built-in charted magnetic systems.

Every builtin supplies analytic first and second metric derivatives so
that curvature evaluations carry no finite-difference error.  The same
systems can be rebuilt with ``scheme="fd"`` to exercise the
finite-difference path.
"""

from __future__ import annotations

import numpy as np

from .geom import ChartedSystem

TWO_PI = 2.0 * np.pi


def flat_torus(b=1.0, lattice=(TWO_PI, TWO_PI)):
    """Flat 2-torus with uniform field strength b (sigma = b dx1^dx2).

    The cover primitive theta = b x1 dx2 is supplied; it is unbounded on
    the plane, which is the expected behaviour for a non-exact form.
    """
    ident = np.eye(2)
    zeros3 = np.zeros((2, 2, 2))
    sigma = np.array([[0.0, b], [-b, 0.0]])

    return ChartedSystem(
        dim=2,
        metric=lambda x: ident,
        two_form=lambda x: sigma,
        primitive=lambda x: np.array([0.0, b * x[0]]),
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=lambda x: zeros3,
        d2metric=lambda x: np.zeros((2, 2, 2, 2)),
        dtwo_form=lambda x: zeros3,
        name=f"flat_torus(b={b})",
    )


def sine_field_torus(base=1.0, amp=0.2, lattice=(TWO_PI, TWO_PI)):
    """Flat 2-torus with varying field b(x) = base + amp * sin(x1).

    Cover primitive theta = (base*x1 - amp*cos(x1)) dx2.
    """
    ident = np.eye(2)

    def b(x):
        return base + amp * np.sin(x[0])

    def two_form(x):
        s = b(x)
        return np.array([[0.0, s], [-s, 0.0]])

    def dtwo_form(x):
        d = np.zeros((2, 2, 2))
        db = amp * np.cos(x[0])
        d[0, 1, 0] = db
        d[1, 0, 0] = -db
        return d

    def primitive(x):
        return np.array([0.0, base * x[0] - amp * np.cos(x[0])])

    return ChartedSystem(
        dim=2,
        metric=lambda x: ident,
        two_form=two_form,
        primitive=primitive,
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=lambda x: np.zeros((2, 2, 2)),
        d2metric=lambda x: np.zeros((2, 2, 2, 2)),
        dtwo_form=dtwo_form,
        extras={"b": b, "db": lambda x: np.array([amp * np.cos(x[0]), 0.0])},
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
    def metric(x):
        u = 1.0 + float(x @ x)
        return (4.0 / u ** 2) * np.eye(2)

    def dmetric(x):
        u = 1.0 + float(x @ x)
        out = np.zeros((2, 2, 2))
        for k in range(2):
            out[0, 0, k] = out[1, 1, k] = -16.0 * x[k] / u ** 3
        return out

    def d2metric(x):
        u = 1.0 + float(x @ x)
        out = np.zeros((2, 2, 2, 2))
        for k in range(2):
            for l in range(2):
                val = -16.0 * ((k == l) / u ** 3 - 6.0 * x[k] * x[l] / u ** 4)
                out[0, 0, k, l] = out[1, 1, k, l] = val
        return out

    def two_form(x):
        if b == 0.0:
            return np.zeros((2, 2))
        u = 1.0 + float(x @ x)
        s = 4.0 * b / u ** 2
        return np.array([[0.0, s], [-s, 0.0]])

    def dtwo_form(x):
        out = np.zeros((2, 2, 2))
        if b == 0.0:
            return out
        u = 1.0 + float(x @ x)
        for k in range(2):
            d = -16.0 * b * x[k] / u ** 3
            out[0, 1, k] = d
            out[1, 0, k] = -d
        return out

    return ChartedSystem(
        dim=2,
        metric=metric,
        two_form=two_form,
        primitive=(lambda x: np.zeros(2)) if b == 0.0 else None,
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
    def metric(x):
        return np.eye(2) / x[1] ** 2

    def dmetric(x):
        out = np.zeros((2, 2, 2))
        out[0, 0, 1] = out[1, 1, 1] = -2.0 / x[1] ** 3
        return out

    def d2metric(x):
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = out[1, 1, 1, 1] = 6.0 / x[1] ** 4
        return out

    def two_form(x):
        s = b / x[1] ** 2
        return np.array([[0.0, s], [-s, 0.0]])

    def dtwo_form(x):
        out = np.zeros((2, 2, 2))
        d = -2.0 * b / x[1] ** 3
        out[0, 1, 1] = d
        out[1, 0, 1] = -d
        return out

    return ChartedSystem(
        dim=2,
        metric=metric,
        two_form=two_form,
        primitive=lambda x: np.array([b / x[1], 0.0]),
        lattice=None,
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        name=f"hyperbolic_chart(b={b})",
    )


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

    def _eval(terms, x, d=()):
        # derivative multi-index d: () value, (i,) d_i, (i, j) d_i d_j
        total = 0.0
        for a, k, p in terms:
            arg = float(k @ x) + p
            fac = a * np.prod([k[i] for i in d]) if d else a
            order = len(d)
            if order % 4 == 0:
                total += fac * np.sin(arg)
            elif order % 4 == 1:
                total += fac * np.cos(arg)
            elif order % 4 == 2:
                total -= fac * np.sin(arg)
            else:
                total -= fac * np.cos(arg)
        return total

    phi = lambda x: _eval(phi_terms, x)
    dphi = lambda x, i: _eval(phi_terms, x, (i,))
    d2phi = lambda x, i, j: _eval(phi_terms, x, (i, j))
    bfun = lambda x: _eval(b_terms, x)
    dbfun = lambda x, i: _eval(b_terms, x, (i,))

    def metric(x):
        return np.exp(2.0 * phi(x)) * np.eye(2)

    def dmetric(x):
        e = np.exp(2.0 * phi(x))
        out = np.zeros((2, 2, 2))
        for k in range(2):
            out[0, 0, k] = out[1, 1, k] = 2.0 * dphi(x, k) * e
        return out

    def d2metric(x):
        e = np.exp(2.0 * phi(x))
        out = np.zeros((2, 2, 2, 2))
        for k in range(2):
            for l in range(2):
                val = (2.0 * d2phi(x, k, l) + 4.0 * dphi(x, k) * dphi(x, l)) * e
                out[0, 0, k, l] = out[1, 1, k, l] = val
        return out

    def two_form(x):
        s = bfun(x) * np.exp(2.0 * phi(x))  # b * sqrt(det g)
        return np.array([[0.0, s], [-s, 0.0]])

    def dtwo_form(x):
        e = np.exp(2.0 * phi(x))
        out = np.zeros((2, 2, 2))
        for k in range(2):
            d = (dbfun(x, k) + 2.0 * bfun(x) * dphi(x, k)) * e
            out[0, 1, k] = d
            out[1, 0, k] = -d
        return out

    def gauss_curvature(x):
        lap = d2phi(x, 0, 0) + d2phi(x, 1, 1)
        return -np.exp(-2.0 * phi(x)) * lap

    return ChartedSystem(
        dim=2,
        metric=metric,
        two_form=two_form,
        lattice=tuple(lattice),
        scheme="analytic",
        dmetric=dmetric,
        d2metric=d2metric,
        dtwo_form=dtwo_form,
        extras={
            "b": bfun,
            "db": lambda x: np.array([dbfun(x, 0), dbfun(x, 1)]),
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

    def metric(x):
        g = np.eye(dim)
        for s, k, p in g_terms:
            g = g + s * np.sin(float(k @ x) + p)
        return g

    def dmetric(x):
        out = np.zeros((dim, dim, dim))
        for s, k, p in g_terms:
            c = np.cos(float(k @ x) + p)
            out += s[:, :, None] * k[None, None, :] * c
        return out

    def d2metric(x):
        out = np.zeros((dim, dim, dim, dim))
        for s, k, p in g_terms:
            sn = np.sin(float(k @ x) + p)
            out -= (s[:, :, None, None] * k[None, None, :, None]
                    * k[None, None, None, :] * sn)
        return out

    def theta(x):
        th = np.zeros(dim)
        for a, k, p in t_terms:
            th = th + a * np.sin(float(k @ x) + p)
        return th

    def two_form(x):
        # sigma_ij = d_i theta_j - d_j theta_i
        sig = np.zeros((dim, dim))
        for a, k, p in t_terms:
            c = np.cos(float(k @ x) + p)
            sig += c * (np.outer(k, a) - np.outer(a, k))
        return sig

    def dtwo_form(x):
        out = np.zeros((dim, dim, dim))
        for a, k, p in t_terms:
            sn = np.sin(float(k @ x) + p)
            block = np.outer(k, a) - np.outer(a, k)
            out -= block[:, :, None] * k[None, None, :] * sn
        return out

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
