"""Built-in scenarios: two quadratic orders, the model quadric section, and
the two definite quaternion orders.  The acceptance and demo suites run
entirely from these.

Class numbers are preset metadata (asserted, not computed); everything else
(units, regulators, discriminants, signatures) is derived on demand.
"""

from fractions import Fraction

from .algebra import change_of_basis, quadratic_field_order, quaternion_algebra
from .counting import FAMILY_ALGEBRA, FAMILY_NORMFORM, FAMILY_QUADRIC, ScenarioSpec
from .orders import OrderSpec
from .sections import quadric_section

PRESET_NAMES = ("zsqrt2", "gauss", "model-quadric", "lipschitz", "hurwitz")


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


def preset_scenario(name, k_max, mode=("exact",), count_primitive_only=False,
                    use_absolute_norm=False):
    if name == "zsqrt2":
        return ScenarioSpec(
            family=FAMILY_NORMFORM, payload=order_zsqrt2(), k_max=k_max, mode=mode,
            count_primitive_only=count_primitive_only, use_absolute_norm=use_absolute_norm,
            label="zsqrt2", invariants={"class_number": 1, "minpoly": [-2, 0, 1],
                                      "oracle": "ideal-count:8"},
        )
    if name == "gauss":
        return ScenarioSpec(
            family=FAMILY_NORMFORM, payload=order_gauss(), k_max=k_max, mode=mode,
            count_primitive_only=count_primitive_only, use_absolute_norm=use_absolute_norm,
            label="gauss", invariants={"class_number": 1, "minpoly": [1, 0, 1],
                                     "oracle": "ideal-count:-4"},
        )
    if name == "model-quadric":
        return ScenarioSpec(
            family=FAMILY_QUADRIC, payload=model_quadric_section(), k_max=k_max, mode=mode,
            count_primitive_only=count_primitive_only, label="model-quadric",
            invariants={"oracle": "two-squares-primitive"},
        )
    if name == "lipschitz":
        return ScenarioSpec(
            family=FAMILY_ALGEBRA, payload=order_lipschitz(), k_max=k_max, mode=mode,
            count_primitive_only=count_primitive_only, label="lipschitz",
            invariants={"oracle": "jacobi-r4"},
        )
    if name == "hurwitz":
        return ScenarioSpec(
            family=FAMILY_ALGEBRA, payload=order_hurwitz(), k_max=k_max, mode=mode,
            count_primitive_only=count_primitive_only, label="hurwitz",
            invariants={"oracle": "hurwitz-shell"},
        )
    raise ValueError(f"unknown preset {name!r} (have {', '.join(PRESET_NAMES)})")
