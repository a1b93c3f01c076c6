"""Built-in scenarios: two quadratic orders, the model quadric section, and
the two definite quaternion orders.  The acceptance and demo suites run
entirely from these.

Class numbers are preset metadata (asserted, not computed); everything else
(units, regulators, discriminants, signatures) is derived on demand.
"""

import functools
from fractions import Fraction

from .algebra import change_of_basis, quadratic_field_order, quaternion_algebra
from .counting import FAMILY_ALGEBRA, FAMILY_NORMFORM, FAMILY_QUADRIC, ScenarioSpec
from .orders import OrderSpec
from .sections import quadric_section

def order_zsqrt2():
    return OrderSpec(quadratic_field_order(2), norm_degree=2, unit_rank=1)


def order_gauss():
    return OrderSpec(quadratic_field_order(-1), norm_degree=2, unit_rank=0)


def order_lipschitz():
    return OrderSpec(quaternion_algebra(-1, -1), norm_degree=2, unit_rank=0)


def order_hurwitz():
    h = Fraction(1, 2)
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (h, h, h, h)]
    return OrderSpec(
        change_of_basis(quaternion_algebra(-1, -1), basis), norm_degree=2, unit_rank=0
    )


def model_quadric_section():
    h = Fraction(1, 2)
    return quadric_section([[0, 0, h], [0, -1, 0], [h, 0, 0]], (1, 0, 1), base_point=(0, 0, 1))


# name -> (family, payload factory, invariants as cli.read_config reads them);
# preset_scenario builds each payload once and copies the invariants on every call
PRESETS = {
    "zsqrt2": (FAMILY_NORMFORM, order_zsqrt2,
               {"class_number": 1, "minpoly": [-2, 0, 1], "oracle": ("ideal-count", 8)}),
    "gauss": (FAMILY_NORMFORM, order_gauss,
              {"class_number": 1, "minpoly": [1, 0, 1], "oracle": ("ideal-count", -4)}),
    "model-quadric": (FAMILY_QUADRIC, model_quadric_section, {"oracle": ("two-squares-primitive", None)}),
    "lipschitz": (FAMILY_ALGEBRA, order_lipschitz, {"oracle": ("jacobi-r4", None)}),
    "hurwitz": (FAMILY_ALGEBRA, order_hurwitz, {"oracle": ("hurwitz-shell", None)}),
}
PRESET_NAMES = tuple(PRESETS)


@functools.cache
def _payload(name):
    return PRESETS[name][1]()


def preset_scenario(name, k_max, use_absolute_norm=False):
    """The scenario of a preset: its payload built once per process, its
    invariants a fresh dict."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have {', '.join(PRESET_NAMES)})")
    family, _, invariants = PRESETS[name]
    return ScenarioSpec(family=family, payload=_payload(name), k_max=k_max,
                        use_absolute_norm=use_absolute_norm, label=name, invariants=dict(invariants))
