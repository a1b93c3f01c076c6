"""orbitcount: exact counting of arithmetic-group orbits of integral points.

Three families are supported end to end:

* level sets of norm forms of quadratic orders, counted modulo norm-one units;
* primitive integral points on hyperplane sections of rational quadric cones,
  counted (and weighted by inverse stabilizer orders) modulo the finite
  integral symmetry group;
* integral elements of definite quaternion orders of given reduced norm,
  counted modulo left multiplication by units.

Counting is exact integer/rational arithmetic; floating point enters only in
asymptotic fitting.
"""

from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    alg_inverse,
    alg_mul,
    alg_norm,
    element,
    quadratic_field_order,
    quaternion_algebra,
)
from .counting import (
    CountSeries,
    ScenarioSpec,
    aggregate_levels,
    algebra_series,
    count_algebra_shell,
    count_normform_level,
    count_quadric_level,
    imprimitive_from_primitive,
    normform_series,
    quadric_series,
    run_scenario,
)
from .fitting import (
    FitReport,
    fit_power,
    fit_rlogr,
    growth_law,
    predicted_constant_ideal,
    zeta_correction,
)
from .lattice import (
    box_scan,
    cone_section_points,
    indefinite_quadratic_shell,
)
from .numtheory import factor, pell, signature, zeta_value
from .oracles import pairwise_orbits
from .orders import (
    OrderSpec,
    UnitGroupData,
    associated,
    canonical_rep,
    finite_units,
    fundamental_unit,
    is_unit,
)
from .presets import preset_scenario
from .sections import QuadricSectionSpec, quadric_section
from .shells import definite_shell, theta_series
from .symmetry import (
    OrbitReport,
    SymmetryGroup,
    integral_symmetries,
    orbit_partition,
    weighted_count,
)
from .validation import validate_scenario

__version__ = "0.1.0"
