"""Command-line interface: validate | count | fit | oracle-compare | report.

Configs are JSON documents (rationals as "p/q" strings, matrices row-major);
a bare preset name is accepted wherever a config path is expected.  Every
count is exact, and all emitted CSV/JSON is byte-deterministic across runs.

Exit codes: 0 success, 1 validation failure or refused input, 3 oracle mismatch.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .algebra import AlgebraSpec
from .counting import (
    FAMILY_NORMFORM,
    FAMILY_QUADRIC,
    CountSeries,
    ScenarioSpec,
    _common_denominator,
    run_scenario,
)
from .exact import frac
from .fitting import fit_power, growth_law, predicted_constant_ideal, zeta_correction
from .numtheory import signature
from .oracles import hurwitz_sigma_series, ideal_count_series, r4_series, two_squares_primitive_series
# orders derive their units; finite_units stays importable for perfbench/tracer.py
from .orders import OrderSpec, finite_units, real_quadratic_d
from .presets import PRESET_NAMES, preset_parts
from .sections import quadric_section
from .validation import validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 3
ABSENT = -1  # a pipeline cell with no series row; counts and oracle values are >= 0


# config keys that are refused, with the reason given for each
RETIRED_KEYS = {
    "primitive_only": "fit reads the weighted column for a quadric and n_all otherwise",
    "fundamental_unit": "the unit group is computed from the order (Pell's equation)",
    "jobs": "every count runs in one process",
    "out": "the output directory is the --out option",
}


def load_config(path_or_preset, overrides):
    """A config is either a JSON file or a bare preset name."""
    if path_or_preset in PRESET_NAMES and not os.path.exists(path_or_preset):
        doc = {"preset": path_or_preset}
    else:
        with open(path_or_preset) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config {path_or_preset} is not a JSON object")
    for key, why in RETIRED_KEYS.items():
        if key in doc:
            raise ValueError(f"config key {key!r} is not supported: {why}")
    doc = dict(doc)
    doc.update({k: v for k, v in overrides.items() if v is not None})
    doc.setdefault("r_max", 100)
    # "mode" stays in the document so that config hashes keep their values
    doc.setdefault("mode", "exact")
    if doc["mode"] != "exact":
        raise ValueError(f"config mode {doc['mode']!r} is not supported: every count is exact")
    doc.setdefault("absolute_norm", False)
    return doc


def config_hash(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def scenario_from_config(doc):
    if "preset" in doc:
        fam, payload, inv = preset_parts(doc["preset"])
        label = doc["preset"]
    else:
        try:
            fam, label = doc["family"], doc.get("label", "custom")
            inv = dict(_config_value(doc, "invariants", "a JSON object")) if "invariants" in doc else {}
            if not isinstance(inv.get("oracle", ""), str):
                raise ValueError(f"config invariants oracle {inv['oracle']!r} is not a string")
            if fam == FAMILY_QUADRIC:
                gram = [[frac(c) for c in row] for row in _config_value(doc, "gram", "a matrix")]
                ell = [frac(c) for c in _config_value(doc, "ell", "a nonempty list")]
                base = None if doc.get("base_point") is None else _config_value(doc, "base_point", "a nonempty list")
                payload = quadric_section(gram, ell, base_point=base)
            else:
                algebra = _config_value(doc, "algebra", "a JSON object")
                _config_value(algebra, "dim")
                spec = AlgebraSpec.from_json(json.dumps(algebra))
                payload = OrderSpec(algebra=spec, norm_degree=_config_value(doc, "norm_degree"),
                                    unit_rank=_config_value(doc, "unit_rank"))
        except KeyError as e:
            raise ValueError(f"config has no {e.args[0]!r} key") from None
    if not isinstance(doc["absolute_norm"], bool):
        raise ValueError(f"config absolute_norm {doc['absolute_norm']!r} is not true or false")
    return ScenarioSpec(
        family=fam, payload=payload, k_max=_config_value(doc, "r_max"),
        use_absolute_norm=doc["absolute_norm"], label=label, invariants=inv,
    )


_CONFIG_SHAPES = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a JSON object": lambda v: isinstance(v, dict),
    "a nonempty list": lambda v: isinstance(v, list) and len(v) > 0,
    "a matrix": lambda v: isinstance(v, list) and all(isinstance(r, list) and len(r) > 0 for r in [v, *v]),
}


def _config_value(doc, key, shape="an integer"):
    """doc[key], refused unless it has the named JSON shape (an integer is not
    a float, a string or a boolean; a matrix is a nonempty list of nonempty lists)."""
    value = doc[key]
    if not _CONFIG_SHAPES[shape](value):
        raise ValueError(f"config {key} {value!r} is not {shape}")
    return value


CSV_CHUNK = 4096  # rows per writer chunk; bounds the ASCII kernel's temporaries
_CSV_ROW = "{},{},{},{},{},{}\n".format


def series_to_csv(series, fh, chash):
    """Write the counts CSV: each weight as its own num/den in lowest terms,
    from one np.gcd of a chunk's numerators with weight_den, and every row
    flagged exact.  With scale_e 1 a chunk of rows goes through _ascii_rows
    as one table; levels in original units (scale_e > 1) are formatted row
    by row."""
    fh.write(f"# config_hash={chash}\n")
    fh.write(f"# family={series.family} scale_e={series.scale_e} mode=exact\n")
    fh.write("level,n_prim,n_all,weighted_num,weighted_den,exact\n")
    e, den = series.scale_e, series.weight_den
    columns = (series.levels, series.n_prim, series.n_all, series.weighted)
    for lo in range(0, len(series.levels), CSV_CHUNK):
        part = [col[lo : lo + CSV_CHUNK] for col in columns]
        w, d = part[3], den
        if den > 1:
            g = np.gcd(w, den)
            w, d = w // g, den // g
        table = np.empty((len(w), 6), dtype=np.int64)
        table[:, 0], table[:, 1], table[:, 2] = part[:3]
        table[:, 3], table[:, 4], table[:, 5] = w, d, 1
        if e == 1:
            fh.write(_ascii_rows(table))
            continue
        lv = part[0].tolist()
        gs = [math.gcd(v, e) for v in lv]
        lv = [f"{v // g}/{e // g}" if g < e else v // e for v, g in zip(lv, gs)]
        fh.writelines(map(_CSV_ROW, lv, *table[:, 1:].T.tolist()))


def _ascii_rows(table):
    """The CSV lines of a nonempty nonnegative int64 table: each cell's width
    (digits and separator) from comparisons with the powers of ten, one uint8
    buffer of commas with a newline ending each row, and the digits placed
    right to left, one pass per digit over the cells that have it."""
    vals = table.ravel()
    width = np.full(len(vals), 2, dtype=np.int64)
    p, top = 10, int(vals.max())
    while p <= top:
        width += vals >= p
        p *= 10
    ends = np.cumsum(width)
    buf = np.full(ends[-1], ord(","), dtype=np.uint8)
    buf[ends[table.shape[1] - 1 :: table.shape[1]] - 1] = ord("\n")
    ends -= 2  # each cell's last digit
    while len(vals):
        q = vals // 10
        buf[ends] = (vals - 10 * q + ord("0")).astype(np.uint8)
        more = q > 0
        vals, ends = q[more], ends[more] - 1
    return buf.tobytes().decode("ascii")


def series_from_csv(path):
    """Read a counts CSV with numpy's C parser: six columns, all int64 when
    scale_e is 1 (else the level is text, checked by hand); a cell past int64
    raises.  The weights come over the lcm of their denominators.  A series
    whose header mode is not exact, or with a row not flagged exact, is
    refused."""
    meta = {"config_hash": None, "family": "unknown", "scale_e": "1", "mode": "exact"}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = next((i for i, line in enumerate(lines)
                 if line.strip() and not line.lstrip().startswith(("#", "level,"))), len(lines))
    tokens = (tok.partition("=") for line in lines[:body] if line.lstrip().startswith("#")
              for tok in line.lstrip()[1:].split())
    meta.update((key, value) for key, _, value in tokens if key in meta)
    if meta["mode"] != "exact":
        raise ValueError(f"series {path} has mode={meta['mode']}: only exact counts are read")
    scale_e = int(meta["scale_e"])
    dtype = np.dtype([("level", np.int64 if scale_e == 1 else object), ("cols", np.int64, (5,))])
    rows = np.loadtxt(lines[body:], delimiter=",", dtype=dtype, ndmin=1) if body < len(lines) else np.zeros(0, dtype)
    levels = rows["level"]
    if scale_e != 1:
        levels = levels.tolist()
        for i, cell in enumerate(levels):
            num, _, den = cell.partition("/")
            num, den = int(num) * scale_e, int(den or 1)
            if den <= 0 or num % den:
                raise ValueError(f"level {cell.strip()} times scale_e={scale_e} is not an integer")
            levels[i] = num // den
    n_prim, n_all, w_num, w_den, exact = rows["cols"].T
    if np.any(exact != 1):
        raise ValueError(f"series {path} has a row not flagged exact")
    if np.any(w_den < 1):
        raise ValueError("a weighted_den of 0 or below in the series")
    weighted, weight_den = _common_denominator(w_num, w_den)
    return CountSeries(
        family=meta["family"], levels=levels, n_prim=n_prim, n_all=n_all,
        weighted=weighted, scale_e=scale_e, weight_den=weight_den,
        meta={"config_hash": meta["config_hash"]},
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
    return _print_validation(validate_scenario(_load(args)[1]))


def _print_validation(report):
    for line in report.lines():
        print(line)
    if not report.ok():
        print("validation FAILED")
        return EXIT_VALIDATION
    print("validation ok")
    return EXIT_OK


def _refuse_unvalidated(scenario):
    """EXIT_OK when the scenario passes validation; else EXIT_VALIDATION, with
    its check lines on stderr."""
    report = validate_scenario(scenario)
    if not report.ok():
        for line in report.lines():
            print(line, file=sys.stderr)
    return EXIT_OK if report.ok() else EXIT_VALIDATION


def cmd_count(args):
    doc, scenario = _load(args)
    rc = _refuse_unvalidated(scenario)
    if rc == EXIT_OK:
        _count_validated(args, doc, scenario)
    return rc


def _count_validated(args, doc, scenario):
    """Count on the set-up the payload keeps, write counts.csv and return the
    series, its meta["config_hash"] the hash written in the CSV header."""
    series = run_scenario(scenario)
    series.meta["config_hash"] = config_hash(doc)
    out_path = _out_path(args, doc, "counts.csv")
    with open(out_path, "w") as fh:
        series_to_csv(series, fh, series.meta["config_hash"])
    print(out_path)
    return series


def cmd_fit(args):
    doc, scenario = _load(args)
    return _fit(args, doc, scenario, _read_series(args.series, scenario))


def _fit(args, doc, scenario, series):
    lam_expected, zeta_s = growth_law(scenario)
    column = "weighted" if scenario.family == FAMILY_QUADRIC else "all"
    free = fit_power(series, which=column)
    # the fixed fit reads the free fit's sample radii and cumulative counts
    fixed = fit_power(series, fixed_lambda=float(lam_expected), sampled=free.sampled)
    report = fixed if args.fixed_lambda else free
    report.expected_lambda = lam_expected
    report.extras["lambda_hat_free"] = free.lambda_hat
    report.extras["c_hat_fixed_lambda"] = fixed.c_hat
    report.extras["config_hash"] = series.meta["config_hash"]
    report.extras["fitted_column"] = column
    _attach_predictions(report, scenario)
    if args.zeta and zeta_s >= 2:
        report.zeta_factor = zeta_correction(zeta_s)
    text = report.to_json()
    out_path = _out_path(args, doc, "fit.json")
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _attach_predictions(report, scenario):
    """Attach the predicted constant, from the order's discriminant and unit
    group."""
    minpoly = scenario.invariants.get("minpoly")
    if (scenario.family == FAMILY_NORMFORM and scenario.invariants.get("class_number") == 1
            and minpoly):
        order = scenario.payload
        r1, r2 = signature(minpoly)
        if order.unit_rank != r1 + r2 - 1:
            raise ValueError(f"config unit_rank {order.unit_rank} disagrees with r1 + r2 - 1 = "
                             f"{r1 + r2 - 1} (signature ({r1}, {r2}) of minpoly {minpoly})")
        disc, units, reg = order.discriminant, order.units, 1.0
        if order.unit_rank == 1:
            x, y = units.fundamental[0].coords
            reg = math.log(x + y * math.sqrt(real_quadratic_d(order)))
        omega = len(units.torsion)
        report.predicted_c = predicted_constant_ideal(
            r1, r2, reg, scenario.invariants["class_number"], omega, int(disc),
            degree=order.algebra.dim,
        )
        report.predicted_c_provenance = (
            f"ideal-count leading coefficient: r1={r1}, r2={r2}, "
            f"R={reg:.6f}, h={scenario.invariants['class_number']} (preset-asserted), "
            f"omega={omega}, disc={int(disc)}"
        )


def cmd_oracle_compare(args):
    scenario = _load(args)[1]
    rc = _refuse_unvalidated(scenario)
    if rc != EXIT_OK:
        return rc
    series = _read_series(args.series, scenario) if args.series else run_scenario(scenario)
    return _oracle_compare(scenario, series)


def _oracle_compare(scenario, series):
    label = scenario.label
    pipeline, oracle, what = _oracle_columns(scenario, series, scenario.k_max)
    if pipeline is None:
        print(f"no oracle applicable to scenario {label!r}", file=sys.stderr)
        return EXIT_VALIDATION
    oracle = np.asarray(oracle, dtype=np.int64)
    diffs = np.flatnonzero(pipeline != oracle)
    if not len(diffs):
        print(f"oracle-compare {label}: {what}: zero diffs over {len(pipeline)} levels")
        return EXIT_OK
    k = diffs[0]
    a = "absent" if pipeline[k] == ABSENT else pipeline[k]
    print(f"oracle-compare {label}: first divergence at level {k + 1}: pipeline={a} oracle={oracle[k]} "
          f"({len(diffs)} differing levels)")
    return EXIT_ORACLE


def _oracle_columns(scenario, series, r):
    """Pipeline and oracle columns at levels 1..r for the oracle the scenario
    declares in invariants["oracle"]: ideal-count:D, two-squares-primitive,
    jacobi-r4 or hurwitz-shell.  Series rows are paired by level, and a level
    without a row reads ABSENT in the pipeline column.  A quadric's |G| is
    its section's symmetry group's, which a counts CSV does not carry."""
    kind = scenario.invariants.get("oracle", "")
    if kind.startswith("ideal-count:"):
        disc = int(kind.split(":", 1)[1])
        return (_at_levels(series, series.n_all, r), ideal_count_series(disc, r),
                f"per-level orbit counts vs ideal counts (D={disc})")
    if kind == "two-squares-primitive":
        # |G| * sum of 1/|stabilizer| over the orbits of level k = points of level k
        group_order = scenario.payload.symmetry_group.order
        pts = _at_levels(series, series.weighted, r, group_order, series.weight_den)
        oracle = two_squares_primitive_series(r)
        return pts, oracle, "per-level primitive point counts vs two-squares scan"
    if kind == "jacobi-r4":
        eight_s = _at_levels(series, series.n_all, r, 8)
        return eight_s, r4_series(r), "8 * orbit counts vs Jacobi r4"
    if kind == "hurwitz-shell":
        tw = _at_levels(series, series.n_all, r, 24)
        return tw, hurwitz_sigma_series(r), "24 * orbit counts vs Hurwitz 24 * sigma_odd"
    return None, None, ""


def _at_levels(series, column, r, factor=1, den=1):
    """factor * column / den at the levels k * scale_e, k = 1..r, as an int64
    array, ABSENT where the series has no row for the level; refused where a
    value is not an integer or factor * column could pass int64."""
    if int(column.max(initial=0)) * factor >= 2 ** 63:
        raise ValueError(f"the series column times {factor} could pass int64")
    values = column * factor
    if np.any(values % den):
        raise ValueError(f"the series column times {factor}/{den} is not integral")
    out = np.full(r, ABSENT, dtype=np.int64)
    k, rem = np.divmod(series.levels, series.scale_e)
    on = (rem == 0) & (k >= 1) & (k <= r)
    out[k[on] - 1] = values[on] // den
    return out


def cmd_report(args):
    """validate, count and write counts.csv, then fit and oracle-compare the
    series just counted, in memory: the output of count, fit --series and
    oracle-compare --series, since the CSV holds the series exactly."""
    doc, scenario = _load(args)
    rc = _print_validation(validate_scenario(scenario))
    if rc != EXIT_OK:
        return rc
    series = _count_validated(args, doc, scenario)
    _fit(args, doc, scenario, series)  # returns EXIT_OK or raises
    return _oracle_compare(scenario, series)


def _out_path(args, doc, name):
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = doc.get("preset") or doc.get("label", "scenario")
    return os.path.join(out_dir, f"{stem}-{name}")


def _overrides(args):
    return {"r_max": args.rmax}


@functools.cache  # built once per process; parse_args returns a fresh namespace
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
        if name in ("count", "fit", "report"):
            sp.add_argument("--jobs", type=int, choices=(1,),
                            help="accepted only as 1, the value perfbench/run.py passes")
            sp.add_argument("--out", default=None, help="output directory")
        if name in ("fit", "oracle-compare"):
            sp.add_argument("--series", required=name == "fit", default=None,
                            help="counts CSV (from the count command)")
        if name == "fit":
            sp.add_argument("--fixed-lambda", action="store_true",
                            help="report the fixed-exponent constant fit as the main result")
            sp.add_argument("--zeta", action="store_true",
                            help="attach the zeta(d lambda) aggregation factor of the payload")
        sp.set_defaults(fn=fn, fixed_lambda=False, zeta=False)
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
