"""Command-line interface: validate | count | fit | oracle-compare | report.

Configs are JSON documents (rationals as "p/q" strings, matrices row-major);
a bare preset name is accepted wherever a config path is expected.  All
emitted CSV/JSON is byte-deterministic across runs and across --jobs.

Exit codes: 0 success, 1 validation failure, 2 box-mode saturation failure,
3 oracle mismatch.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .algebra import AlgebraSpec
from .counting import (
    FAMILY_NORMFORM,
    FAMILY_QUADRIC,
    CountSeries,
    ScenarioSpec,
    box_absolute_norm,
    box_level_counts,
    run_scenario,
)
from .exact import frac
from .fitting import expected_lambda, fit_power, predicted_constant_ideal, zeta_correction
from .numtheory import pell, signature
from .oracles import hurwitz_shell_series, ideal_count_series, r4_series, two_squares_primitive_series
from .orders import OrderSpec, finite_units, real_quadratic_d, trace_form_discriminant
from .presets import PRESET_NAMES, preset_parts
from .sections import quadric_section
from .symmetry import integral_symmetries
from .validation import validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SATURATION = 2
EXIT_ORACLE = 3


def load_config(path_or_preset, overrides):
    """A config is either a JSON file or a bare preset name."""
    if path_or_preset in PRESET_NAMES and not os.path.exists(path_or_preset):
        doc = {"preset": path_or_preset}
    else:
        with open(path_or_preset) as fh:
            doc = json.load(fh)
    if "primitive_only" in doc:
        raise ValueError("config key 'primitive_only' is not supported: fit reads the "
                         "weighted column for a quadric and n_all otherwise")
    doc = dict(doc)
    doc.update({k: v for k, v in overrides.items() if v is not None})
    doc.setdefault("r_max", 100)
    doc.setdefault("mode", "exact")
    doc.setdefault("absolute_norm", False)
    doc.setdefault("jobs", 1)
    return doc


EXECUTION_KEYS = ("jobs", "out")  # knobs that must not change emitted bytes


def config_hash(doc):
    semantic = {k: v for k, v in doc.items() if k not in EXECUTION_KEYS}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_mode(text):
    if text == "exact":
        return ("exact",)
    if text.startswith("box:"):
        return ("box", int(text.split(":", 1)[1]))
    raise ValueError(f"mode must be 'exact' or 'box:B', got {text!r}")


def scenario_from_config(doc):
    mode = parse_mode(doc["mode"])
    if "preset" in doc:
        fam, payload, inv = preset_parts(doc["preset"])
        label = doc["preset"]
    else:
        fam, label = doc["family"], doc.get("label", "custom")
        inv = dict(doc.get("invariants", {}))
        if fam == FAMILY_QUADRIC:
            gram = [[frac(c) for c in row] for row in doc["gram"]]
            ell = [frac(c) for c in doc["ell"]]
            base = doc.get("base_point")
            payload = quadric_section(gram, ell, base_point=tuple(base) if base else None)
        else:
            spec = AlgebraSpec.from_json(json.dumps(doc["algebra"]))
            payload = OrderSpec(algebra=spec, norm_degree=int(doc["norm_degree"]),
                                unit_rank=int(doc["unit_rank"]))
    if "fundamental_unit" in doc:
        inv["fundamental_unit"] = doc["fundamental_unit"]
    return ScenarioSpec(
        family=fam, payload=payload, k_max=int(doc["r_max"]), mode=mode,
        use_absolute_norm=bool(doc["absolute_norm"]), label=label, invariants=inv,
    )


def series_to_csv(series, fh, chash):
    fh.write(f"# config_hash={chash}\n")
    extra = ""
    if series.meta.get("units") == "user-asserted":
        extra = " units=user-asserted"
    fh.write(f"# family={series.family} scale_e={series.scale_e} "
             f"mode={series.meta.get('mode', 'exact')}{extra}\n")
    fh.write("level,n_prim,n_all,weighted_num,weighted_den,exact\n")
    levels, e, w = series.levels, series.scale_e, series.weighted
    if e != 1:
        gs = [math.gcd(lv, e) for lv in levels]
        levels = [f"{lv // g}/{e // g}" if g < e else lv // e for lv, g in zip(levels, gs)]
    fh.writelines(map("{},{},{},{},{},{}\n".format, levels, series.n_prim, series.n_all,
                      (c.numerator for c in w), (c.denominator for c in w),
                      (1 if ex else 0 for ex in series.exact)))


def series_from_csv(path):
    """Read a counts CSV with numpy's C parser: six columns, all int64 when
    scale_e is 1 (else the level is text, checked by hand); a cell past int64 raises."""
    meta = {"config_hash": None, "family": "unknown", "scale_e": "1", "mode": "exact",
            "units": "computed"}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = next((i for i, line in enumerate(lines)
                 if line.strip() and not line.lstrip().startswith(("#", "level,"))), len(lines))
    tokens = (tok.partition("=") for line in lines[:body] if line.lstrip().startswith("#")
              for tok in line.lstrip()[1:].split())
    meta.update((key, value) for key, _, value in tokens if key in meta)
    scale_e = int(meta["scale_e"])
    dtype = np.dtype([("level", np.int64 if scale_e == 1 else object), ("cols", np.int64, (5,))])
    rows = np.loadtxt(lines[body:], delimiter=",", dtype=dtype, ndmin=1) if body < len(lines) else np.zeros(0, dtype)
    levels = rows["level"].tolist()
    for i, cell in enumerate(levels if scale_e != 1 else ()):
        num, _, den = cell.partition("/")
        num, den = int(num) * scale_e, int(den or 1)
        if den <= 0 or num % den:
            raise ValueError(f"level {cell.strip()} times scale_e={scale_e} is not an integer")
        levels[i] = num // den
    n_prim, n_all, w_num, w_den, exact = rows["cols"].T
    if not w_den.all():
        raise ValueError("a weighted_den of 0 in the series")
    weighted = w_num.tolist()
    for i in np.flatnonzero(w_den != 1).tolist():
        weighted[i] = Fraction(weighted[i], int(w_den[i]))
    return CountSeries(
        family=meta["family"], levels=levels, n_prim=n_prim.tolist(), n_all=n_all.tolist(),
        weighted=weighted, scale_e=scale_e, exact=(exact == 1).tolist(),
        meta={"mode": meta["mode"], "units": meta["units"], "config_hash": meta["config_hash"]},
    )


def _read_series(path, scenario):
    """The counts CSV at `path`, refused when its header names another family
    than the scenario's (or none)."""
    series = series_from_csv(path)
    if series.family != scenario.family:
        raise ValueError(f"series {path} was counted for family {series.family!r}, "
                         f"but the scenario's family is {scenario.family!r}")
    return series


def _load(args):
    doc = load_config(args.config, _overrides(args))
    return doc, scenario_from_config(doc)


def cmd_validate(args):
    return _print_validation(_load(args)[1])


def _print_validation(scenario):
    report = validate_scenario(scenario)
    for line in report.lines():
        print(line)
    if not report.ok():
        print("validation FAILED")
        return EXIT_VALIDATION
    print("validation ok")
    return EXIT_OK


def cmd_count(args):
    doc, scenario = _load(args)
    report = validate_scenario(scenario)
    if not report.ok():
        for line in report.lines():
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    return _count_validated(args, doc, scenario)[0]


def _count_validated(args, doc, scenario):
    """(exit code, the counted series or None); writes counts.csv."""
    if scenario.mode[0] == "box" and not args.allow_heuristic:
        sat = _saturation_check(scenario)
        if not sat:
            print("box saturation not reached (counts changed when the box doubled); "
                  "pass --allow-heuristic to emit anyway", file=sys.stderr)
            return EXIT_SATURATION, None
    series = run_scenario(scenario, int(doc["jobs"]))
    chash = config_hash(doc)
    out_path = _out_path(args, doc, "counts.csv")
    with open(out_path, "w") as fh:
        series_to_csv(series, fh, chash)
    print(out_path)
    return EXIT_OK, series


def _saturation_check(scenario):
    """Box-mode orbit counts on probe levels must be stable when the box doubles."""
    b = scenario.mode[1]
    absolute = box_absolute_norm(scenario)
    for k in range(1, min(scenario.k_max, 20) + 1):
        c1 = box_level_counts(scenario.payload, k, b, absolute)
        c2 = box_level_counts(scenario.payload, k, 2 * b, absolute)
        if c1 != c2:
            return False
    return True


def cmd_fit(args):
    doc, scenario = _load(args)
    return _fit(args, doc, scenario, _read_series(args.series, scenario))


def _fit(args, doc, scenario, series):
    lam_expected = expected_lambda(scenario)
    column = "weighted" if scenario.family == FAMILY_QUADRIC else "all"
    free = fit_power(series, which=column)
    fixed = fit_power(series, fixed_lambda=float(lam_expected), which=column)
    report = fixed if args.fixed_lambda else free
    report.expected_lambda = lam_expected
    report.extras["lambda_hat_free"] = free.lambda_hat
    report.extras["c_hat_fixed_lambda"] = fixed.c_hat
    report.extras["config_hash"] = series.meta["config_hash"]
    report.extras["fitted_column"] = column
    if series.meta.get("units") == "user-asserted":
        report.extras["units"] = "user-asserted"
    _attach_predictions(report, scenario, args)
    text = report.to_json()
    out_path = _out_path(args, doc, "fit.json")
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _attach_predictions(report, scenario, args):
    minpoly = scenario.invariants.get("minpoly")
    if (scenario.family == FAMILY_NORMFORM and scenario.invariants.get("class_number") == 1
            and minpoly):
        order = scenario.payload
        r1, r2 = signature(minpoly)
        if order.unit_rank != r1 + r2 - 1:
            raise ValueError(f"config unit_rank {order.unit_rank} disagrees with r1 + r2 - 1 = "
                             f"{r1 + r2 - 1} (signature ({r1}, {r2}) of minpoly {minpoly})")
        disc = trace_form_discriminant(order)
        if order.unit_rank == 1:
            d = real_quadratic_d(order)
            x, y, _ = pell(d)
            reg = math.log(x + y * math.sqrt(d))
        else:
            reg = 1.0
        omega = 2 if order.unit_rank == 1 else len(finite_units(order).torsion)
        report.predicted_c = predicted_constant_ideal(
            r1, r2, reg, scenario.invariants["class_number"], omega, int(disc),
            degree=order.algebra.dim,
        )
        report.predicted_c_provenance = (
            f"ideal-count leading coefficient: r1={r1}, r2={r2}, "
            f"R={reg:.6f}, h={scenario.invariants['class_number']} (preset-asserted), "
            f"omega={omega}, disc={int(disc)}"
        )
    if args.zeta:
        from .counting import level_scaling_degree

        d = level_scaling_degree(scenario.family, scenario.payload)
        if d >= 2:
            report.zeta_factor = zeta_correction(d)


def cmd_oracle_compare(args):
    scenario = _load(args)[1]
    series = _read_series(args.series, scenario) if args.series else run_scenario(scenario)
    return _oracle_compare(scenario, series, series.meta.get("group_order"))


def _oracle_compare(scenario, series, group_order=None):
    label = scenario.label
    pipeline, oracle, what = _oracle_columns(scenario, series, scenario.k_max, group_order)
    if pipeline is None:
        print(f"no oracle applicable to scenario {label!r}", file=sys.stderr)
        return EXIT_VALIDATION
    diffs = [(k + 1, a, b) for k, (a, b) in enumerate(zip(pipeline, oracle)) if a != b]
    if not diffs:
        print(f"oracle-compare {label}: {what}: zero diffs over {len(pipeline)} levels")
        return EXIT_OK
    k, a, b = diffs[0]
    print(f"oracle-compare {label}: first divergence at level {k}: pipeline={a} oracle={b} "
          f"({len(diffs)} differing levels)")
    return EXIT_ORACLE


def _oracle_columns(scenario, series, r, group_order=None):
    """Pipeline and oracle columns at levels 1..r for the oracle the scenario
    declares in invariants["oracle"]: ideal-count:D, two-squares-primitive,
    jacobi-r4 or hurwitz-shell.  Series rows are paired by level, and a level
    without a row reads "absent".  group_order is the quadric's |G| when the
    caller counted the series (a counts CSV does not carry it); without it
    the group is built here."""
    kind = scenario.invariants.get("oracle", "")
    if kind.startswith("ideal-count:"):
        disc = int(kind.split(":", 1)[1])
        return (_at_levels(series, series.n_all, r), ideal_count_series(disc, r),
                f"per-level orbit counts vs ideal counts (D={disc})")
    if kind == "two-squares-primitive":
        # |G| * sum of 1/|stabilizer| over the orbits of level k = points of level k
        if group_order is None:
            group_order = integral_symmetries(scenario.payload).order
        pts = _at_levels(series, [group_order * w for w in series.weighted], r)
        oracle = two_squares_primitive_series(r)
        return pts, oracle, "per-level primitive point counts vs two-squares scan"
    if kind == "jacobi-r4":
        eight_s = _at_levels(series, [8 * c for c in series.n_all], r)
        return eight_s, r4_series(r), "8 * orbit counts vs Jacobi r4"
    if kind == "hurwitz-shell":
        tw = _at_levels(series, [24 * c for c in series.n_all], r)
        return tw, hurwitz_shell_series(r), "24 * orbit counts vs direct half-integer shell enumeration"
    return None, None, ""


def _at_levels(series, column, r):
    by_level = dict(zip(series.levels, column))
    return [by_level.get(k * series.scale_e, "absent") for k in range(1, r + 1)]


def cmd_report(args):
    doc, scenario = _load(args)
    rc = _print_validation(scenario)
    if rc != EXIT_OK:
        return rc
    rc, counted = _count_validated(args, doc, scenario)
    if rc != EXIT_OK:
        return rc
    series = _read_series(_out_path(args, doc, "counts.csv"), scenario)
    rc = _fit(args, doc, scenario, series)
    if rc != EXIT_OK:
        return rc
    return _oracle_compare(scenario, series, counted.meta.get("group_order"))


def _out_path(args, doc, name):
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = doc.get("preset") or doc.get("label", "scenario")
    return os.path.join(out_dir, f"{stem}-{name}")


def _overrides(args):
    return {
        "r_max": args.rmax,
        "mode": args.mode,
        "jobs": args.jobs,
    }


def build_parser():
    p = argparse.ArgumentParser(
        prog="orbitcount",
        description="Count unit-group and symmetry-group orbits of integral points "
        "on norm-form level sets, quadric sections and division-order norm shells.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("validate", cmd_validate),
        ("count", cmd_count),
        ("fit", cmd_fit),
        ("oracle-compare", cmd_oracle_compare),
        ("report", cmd_report),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help=f"config JSON path or preset name ({', '.join(PRESET_NAMES)})")
        sp.add_argument("--rmax", type=int, default=None)
        sp.add_argument("--mode", default=None, help="exact | box:B")
        if name in ("count", "report"):
            sp.add_argument("--allow-heuristic", action="store_true",
                            help="emit box-mode counts that fail the saturation check")
        if name in ("count", "fit", "report"):
            sp.add_argument("--jobs", type=int, default=None)
            sp.add_argument("--out", default=None, help="output directory")
        if name in ("fit", "oracle-compare"):
            sp.add_argument("--series", required=name == "fit", default=None,
                            help="counts CSV (from the count command)")
        if name == "fit":
            sp.add_argument("--fixed-lambda", action="store_true",
                            help="report the fixed-exponent constant fit as the main result")
            sp.add_argument("--zeta", action="store_true",
                            help="attach the zeta aggregation factor for the family")
        sp.set_defaults(fn=fn, jobs=None, fixed_lambda=False, zeta=False)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
