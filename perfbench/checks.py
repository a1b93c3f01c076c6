"""Exact checks of the files the CLI writes.

The counts CSV is parsed here, not with the package's reader, and every
column is compared level by level with the independent oracles.  A later
output of the same job must agree with every earlier one on the levels they
share, which covers the weighted column that no closed form gives.  Rows are
kept as text so the benchmark's own state adds no objects for the program's
garbage collector to walk.
"""

import json
import math
from fractions import Fraction

from oracles import (
    aggregate_linear,
    hurwitz_shell,
    ideal_counts,
    jacobi_r4,
    primitive_from_all_squares,
)

# the free fit of S(r) ~ c r^lambda over (r/10, r) at the benchmark's sizes
LAMBDA_TOLERANCE = 0.15


class CheckFailed(Exception):
    pass


def oracle_columns(oracle, r):
    """{column: exact values for levels 1..r} that the oracle fixes; weights
    are "num/den" strings as the CSV spells them."""
    kind = oracle[0]
    if kind == "ideal":
        n_all = ideal_counts(oracle[1], r)
    elif kind == "r4":
        n_all = [c // 8 for c in jacobi_r4(r)]
    elif kind == "hurwitz":
        n_all = [c // 24 for c in hurwitz_shell(r)]
    elif kind == "cone":
        # the model section's primitive orbits are the primitive Gauss classes
        n_prim = primitive_from_all_squares(ideal_counts(-4, r))
        return {"n_prim": n_prim, "n_all": aggregate_linear(n_prim)}
    else:
        raise ValueError(f"unknown oracle {oracle!r}")
    # trivial stabilizers: the weighted column is the orbit count
    return {
        "n_all": n_all,
        "n_prim": primitive_from_all_squares(n_all),
        "weighted": [f"{c}/1" for c in n_all],
    }


def check_series(text, r, expected):
    """Check a counts CSV at r against the oracle columns.  Returns the header,
    the data rows as text and the job's checksums."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            for tok in line[1:].split():
                key, _, value = tok.partition("=")
                header[key] = value
        elif line.startswith("level,"):
            if line != "level,n_prim,n_all,weighted_num,weighted_den,exact":
                raise CheckFailed(f"unexpected CSV header {line!r}")
        elif line:
            rows.append(line)
    if header.get("scale_e") != "1" or header.get("mode") != "exact":
        raise CheckFailed(f"unexpected series header {header}")
    fields = [row.split(",") for row in rows]
    if any(len(f) != 6 for f in fields):
        raise CheckFailed("a row does not have six fields")
    if [f[0] for f in fields] != [str(k) for k in range(1, r + 1)]:
        raise CheckFailed(f"levels are not 1..{r}")
    if any(f[5] != "1" for f in fields):
        raise CheckFailed("a level is not flagged exact")
    got = {
        "n_prim": [int(f[1]) for f in fields],
        "n_all": [int(f[2]) for f in fields],
        "weighted": [f"{f[3]}/{f[4]}" for f in fields],
    }
    for col, want in expected.items():
        have = got[col]
        if have != want[:r]:
            k = next(i for i, (a, b) in enumerate(zip(have, want)) if a != b) + 1
            raise CheckFailed(f"{col} differs from the oracle first at level {k}: "
                              f"{have[k - 1]} != {want[k - 1]}")
    weighted = sum((Fraction(int(f[3]), int(f[4])) for f in fields), Fraction(0))
    checksums = {
        "sum_n_all": sum(got["n_all"]),
        "sum_n_prim": sum(got["n_prim"]),
        "sum_weighted": f"{weighted.numerator}/{weighted.denominator}",
    }
    return header, rows, checksums


def check_prefix(reference, rows):
    """Two outputs of one job must agree on their common levels; returns the
    longer one as the new reference."""
    if reference is None:
        return rows
    common = min(len(reference), len(rows))
    if reference[:common] != rows[:common]:
        k = next(i for i in range(common) if reference[i] != rows[i]) + 1
        raise CheckFailed(f"level {k} differs between two runs of the same job")
    return rows if len(rows) > len(reference) else reference


def check_fit(text, expected_lambda, config_hash):
    """The fit report must name the expected exponent, come from this series,
    and fit an exponent close to it."""
    doc = json.loads(text)
    if doc.get("config_hash") != config_hash:
        raise CheckFailed("fit report config_hash does not match the series")
    if doc.get("expected_lambda") != str(expected_lambda):
        raise CheckFailed(f"expected_lambda {doc.get('expected_lambda')!r} != {expected_lambda}")
    lam, c = doc.get("lambda_hat"), doc.get("c_hat")
    if not (isinstance(lam, float) and isinstance(c, float) and math.isfinite(lam) and c > 0):
        raise CheckFailed(f"fit gave no finite exponent and constant: {lam!r}, {c!r}")
    if abs(lam - expected_lambda) > LAMBDA_TOLERANCE:
        raise CheckFailed(f"lambda_hat {lam} is not within {LAMBDA_TOLERANCE} of {expected_lambda}")
    if doc.get("samples", 0) < 8:
        raise CheckFailed("fit used fewer than 8 sample radii")
    return {"lambda_hat": lam, "c_hat": c}

