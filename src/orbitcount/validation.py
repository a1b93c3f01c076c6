"""Scenario validation: the hypotheses that make exact counting meaningful.

Checks are exact where possible (associativity, definiteness via minors,
the unit rank by Dirichlet from a Sturm signature) and
probabilistic-but-deterministic where not (random division probes whose
values come from the seeded bytes of random.Random(seed).randbytes, mod-p
irreducibility with pass/undetermined/fail outcomes).
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import element, minimal_polynomial
from .counting import FAMILY_ALGEBRA, FAMILY_NORMFORM, assert_division_order
from .exact import det
from .numtheory import irreducible_mod_p, signature, small_primes
from .orders import norm_gram, real_quadratic_d
from .sections import restricted_definiteness

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


def validate_scenario(scenario, seed=0xC0FFEE):
    checks = []
    payload = scenario.payload
    if scenario.family in (FAMILY_NORMFORM, FAMILY_ALGEBRA):
        checks.append(_check_axioms(payload))
        checks.append(_check_integral_basis(payload))
        if scenario.family == FAMILY_NORMFORM:
            mp = _generator_minpoly(payload)
            checks.append(_check_irreducible_norm_form(payload, mp))
            field_minpoly = mp if checks[-1].status != FAIL else None
            checks.append(_check_unit_rank_support(payload, scenario, field_minpoly))
        else:
            checks.append(_check_division(payload, seed))
    else:
        checks.extend(_check_quadric(payload))
    return ValidationReport(checks=[c for c in checks if c is not None])


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


def _check_unit_rank_support(order, scenario, field_minpoly):
    """The configured unit rank must be Dirichlet's r1 + r2 - 1 of the field
    field_minpoly defines (None when irreducibility failed), and exact mode
    must have unit machinery for it."""
    name = "exact-mode support for the unit group"
    if field_minpoly is not None:
        r1, r2 = signature(field_minpoly)
        if order.unit_rank != r1 + r2 - 1:
            return Check(name, FAIL, f"config unit_rank {order.unit_rank} disagrees with "
                                     f"r1 + r2 - 1 = {r1 + r2 - 1} (signature ({r1}, {r2}))")
    if scenario.mode[0] == "box":
        return Check(name, PASS, "box mode (heuristic, no exact unit machinery needed)")
    if order.unit_rank == 0:
        from .exact import definiteness

        if order.norm_degree == 2 and definiteness(norm_gram(order)) == 1:
            return Check(name, PASS, "definite norm form, finite unit group")
        return Check(name, FAIL, "unit rank 0 but norm form not definite")
    if order.unit_rank == 1:
        if real_quadratic_d(order) is not None:
            return Check(name, PASS, "real quadratic order, Pell fundamental unit")
        return Check(name, FAIL, "unit rank 1 but not a Z[sqrt(d)] basis")
    return Check(name, FAIL, "unit rank >= 2: exact counting refused; rerun with --mode box:B")


def _check_division(order, seed):
    name = "payload is a division order (no zero divisors)"
    try:
        assert_division_order(order, rng=random.Random(seed), trials=1000)
        return Check(name, PASS, "1000 random products and small norm-0 shells clean")
    except ValueError as e:
        return Check(name, FAIL, str(e))


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
    sgn = restricted_definiteness(section)
    checks.append(
        Check(
            "q restricted to ker(ell) definite over R (exact minors)",
            PASS if sgn != 0 else FAIL,
            {1: "positive definite", -1: "negative definite", 0: "indefinite (unsupported)"}[sgn],
        )
    )
    return checks
