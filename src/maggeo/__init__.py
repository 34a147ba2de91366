"""maggeo: magnetic geodesic flow, magnetic curvature, and closed-orbit search.

A charted magnetic system is a Riemannian metric together with a closed
two-form on a coordinate chart (optionally with periodic identifications
or a two-chart transition rule).  The package computes:

- chart-level tensor calculus (``geom``): connection, curvature, the
  Lorentz operator and its covariant derivative;
- the magnetic curvature operator, its sectional/Ricci functions, the
  surface formula, and positivity scans (``magcurv``);
- the magnetic flow and magnetic parallel transport (``flow``);
- the discretized free-period action, its first and second variations,
  and Morse-index estimation (``loop``);
- closed-orbit search, continuation in energy, and certification of the
  curvature-based period and index bounds (``solve``);
- a config-driven command line runner (``cli``).
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ActionUndefinedError,
    ChartExitError,
    ConfigError,
    DegenerateMetricError,
    EvalError,
    FrameError,
    MaggeoError,
    NotCriticalError,
    ParseError,
    StiffTrajectoryError,
)
from .geom import ChartedSystem, PointGeometry  # noqa: F401
from .flow import Orbit, PhaseState, energy, integrate, magnetic_transport  # noqa: F401
from .loop import (  # noqa: F401
    DiscreteLoop,
    IndexReport,
    Variation,
    action,
    eta_k,
    hessian_form,
    hessian_form_curvature,
    loop_from_orbit,
    make_test_variation,
    mane_upper_bound,
    morse_index,
    sine_mode_variation,
)
from .magcurv import (  # noqa: F401
    CurvatureSample,
    ScanReport,
    a_omega,
    positivity_scan,
    r_omega_k,
    ric_omega_k,
    sec_omega_k,
    surface_sec_b,
    theorem_b_scan,
    trace_a_omega,
)
from .solve import (  # noqa: F401
    OrbitRecord,
    SearchFailure,
    certify,
    continue_in_k,
    find_orbit,
    gradient_search,
)
from .systems import (  # noqa: F401
    flat_torus,
    hyperbolic_chart,
    round_sphere,
    sine_field_torus,
)
