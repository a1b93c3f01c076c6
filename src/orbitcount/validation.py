"""Scenario validation: the hypotheses that make exact counting meaningful.

Every check is exact or says that it could not decide: associativity,
definiteness from the signs of the LDL pivots, the unit rank by Dirichlet
from a Sturm signature, the absence of zero divisors from a positive definite
norm form, and mod-p irreducibility with pass/undetermined/fail outcomes.
Nothing is sampled.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import element, minimal_polynomial
from .counting import FAMILY_ALGEBRA, FAMILY_NORMFORM
from .exact import definiteness, det
from .numtheory import irreducible_mod_p, signature, small_primes
from .orders import RANK_2_REFUSAL, real_quadratic_d

PASS, FAIL, UNDETERMINED = "pass", "fail", "undetermined"


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    def lines(self):
        return [f"{c.status.upper():12s} {c.name}" + (f" -- {c.detail}" if c.detail else "") for c in self.checks]


def validate_scenario(scenario):
    """The report of every check, each run anew on every call; the norm form
    and fiber frame they read are the payload's cached set-up."""
    checks = []
    payload = scenario.payload
    if scenario.family in (FAMILY_NORMFORM, FAMILY_ALGEBRA):
        axioms = _check_axioms(payload)
        checks.append(axioms)
        checks.append(_check_integral_basis(payload))
        if scenario.family == FAMILY_NORMFORM:
            mp = _generator_minpoly(payload)
            checks.append(_check_irreducible_norm_form(payload, mp))
            field_minpoly = mp if checks[-1].status != FAIL else None
            checks.append(_check_unit_rank_support(payload, field_minpoly,
                                                   scenario.invariants.get("minpoly")))
        else:
            checks.append(_check_division(payload, axioms.status == PASS))
            checks.append(_check_unit_rank_support(payload, None))
    else:
        checks.extend(_check_quadric(payload))
    return ValidationReport(checks=[c for c in checks if c is not None])


def _definite_norm_form(order):
    """order.form, the PositiveForm of the norm form; None when the norm form
    is not quadratic or not positive definite."""
    try:
        return order.form
    except ValueError:
        return None


def _check_axioms(order):
    try:
        order.algebra.check_axioms()
        return Check("structure constants associative and unital", PASS)
    except ValueError as e:
        return Check("structure constants associative and unital", FAIL, str(e))


def _check_integral_basis(order):
    integral = all(
        isinstance(c, int) for row in order.algebra.table for cell in row for c in cell
    )
    return Check(
        "distinguished basis is an order (integral structure constants)",
        PASS if integral else FAIL,
    )


def _generator_minpoly(order):
    spec = order.algebra
    n = spec.dim
    candidates = [spec.basis_element(i) for i in range(1, n)]
    candidates += [
        element(tuple(1 if j in (0, i) else 0 for j in range(n))) for i in range(1, n)
    ]
    best = []  # a one-dimensional algebra has no candidates
    for cand in candidates:
        mp = minimal_polynomial(cand, spec)
        if len(mp) > len(best):
            best = mp
        if len(mp) == n + 1:
            return mp
    return best


def _check_irreducible_norm_form(order, mp):
    """The norm form of an order is irreducible iff the algebra is a field;
    probe: the generator's minimal polynomial mp must have full degree and reduce
    irreducibly mod some small prime not dividing its discriminant (pass).
    With no such prime, an exact factorisation over Q decides between fail
    and undetermined."""
    name = "norm form irreducible over Q"
    if len(mp) != order.algebra.dim + 1:
        return Check(name, FAIL, "no basis generator has a full-degree minimal polynomial")
    disc = _discriminant(mp)
    disc_num = abs(disc.numerator * disc.denominator)
    tested = 0
    for p in small_primes():
        if tested >= 25:
            break
        if disc_num % p == 0:
            continue
        tested += 1
        if irreducible_mod_p(mp, p):
            return Check(name, PASS, f"irreducible mod {p}")
    # a reducible polynomial never certifies, so only this branch can fail
    import sympy

    x = sympy.symbols("x")
    poly = sympy.Poly(sum(sympy.Rational(c) * x ** k for k, c in enumerate(mp)), x)
    factors = poly.factor_list()[1]
    if len(factors) > 1 or any(m > 1 for _, m in factors):
        return Check(name, FAIL, f"minimal polynomial factors over Q: {poly.as_expr()}")
    return Check(name, UNDETERMINED, "no irreducible reduction among first 25 eligible primes")


def _discriminant(coeffs):
    """Exact discriminant (-1)^(n(n-1)/2) Res(f, f') / lc(f) of the polynomial
    sum c_k x^k, the resultant as the Sylvester determinant."""
    f = [Fraction(c) for c in reversed(coeffs)]  # high to low
    g = [k * c for k, c in zip(range(len(f) - 1, 0, -1), f)]
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + f + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (size - n - 1 - i) for i in range(m)]
    sign = -1 if m * (m - 1) // 2 % 2 else 1
    return Fraction(sign * det(rows)) / f[0]


def _check_unit_rank_support(order, field_minpoly, asserted_minpoly=None):
    """The configured unit rank must be Dirichlet's r1 + r2 - 1 of the field
    field_minpoly defines (None when irreducibility failed or the algebra is
    not a field), and the exact counter must have unit machinery for it.  An
    asserted minimal polynomial (invariants "minpoly", read by the fit's
    predicted constant) must have field_minpoly's signature."""
    name = "exact-mode support for the unit group"
    if field_minpoly is not None:
        r1, r2 = signature(field_minpoly)
        if order.unit_rank != r1 + r2 - 1:
            return Check(name, FAIL, f"config unit_rank {order.unit_rank} disagrees with "
                                     f"r1 + r2 - 1 = {r1 + r2 - 1} (signature ({r1}, {r2}))")
        asserted = signature(asserted_minpoly) if asserted_minpoly else (r1, r2)
        if asserted != (r1, r2):
            return Check(name, FAIL, f"invariants minpoly {asserted_minpoly} has signature "
                                     f"{asserted}, the order's generator ({r1}, {r2})")
    if order.unit_rank == 0:
        if _definite_norm_form(order) is not None:
            return Check(name, PASS, "definite norm form, finite unit group")
        return Check(name, FAIL, "unit rank 0 but norm form not definite")
    if order.unit_rank == 1:
        if real_quadratic_d(order) is not None:
            return Check(name, PASS, "real quadratic order, Pell fundamental unit")
        return Check(name, FAIL, "unit rank 1 but not a Z[sqrt(d)] basis")
    return Check(name, FAIL, RANK_2_REFUSAL)


def _check_division(order, axioms_hold):
    """No zero divisors, certified by a definite norm form and the axioms
    check; undetermined (the counter refuses the order) without one.  Why a
    definite form certifies a division order:
    - quaternion kind: norm_gram polarises alg_norm at e_i and e_i + e_j,
      and alg_norm refuses unless x conj(x) is a scalar.  x -> x conj(x) is
      quadratic, so its values there fix it: x conj(x) = N(x) 1 for every x;
    - with N positive definite, each x != 0 has the right inverse
      conj(x) / N(x), and in a finite-dimensional associative unital algebra
      a right inverse is two-sided, so x y = 0 or y x = 0 forces y = 0;
    - number-field kind: N(x) = det(L_x) != 0 makes L_x invertible for every
      x != 0, so x y = L_x y = 0 and y x = L_y x = 0 force y = 0."""
    name = "payload is a division order (no zero divisors)"
    if _definite_norm_form(order) is None:
        return Check(name, UNDETERMINED, "not probed: norm form not definite")
    if not axioms_hold:
        return Check(name, UNDETERMINED, "not certified: the structure constants fail the axioms")
    return Check(name, PASS, "norm form positive definite: every nonzero element is invertible")


def _check_quadric(section):
    checks = []
    d = det(section.gram)
    checks.append(Check("quadratic form nondegenerate", PASS if d != 0 else FAIL, f"det = {d}"))
    q0 = section.q_value(section.base_point)
    l0 = section.ell_value(section.base_point)
    ok = q0 == 0 and l0 > 0
    checks.append(
        Check("base point on the cone with positive level", PASS if ok else FAIL,
              f"q(v0) = {q0}, ell(v0) = {l0}")
    )
    sgn = definiteness(section.fiber_frame.gram)
    checks.append(
        Check(
            "q restricted to ker(ell) definite over R (exact minors)",
            PASS if sgn != 0 else FAIL,
            {1: "positive definite", -1: "negative definite", 0: "indefinite (unsupported)"}[sgn],
        )
    )
    return checks
