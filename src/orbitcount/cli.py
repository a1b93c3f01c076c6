"""Command-line interface: validate | count | fit | oracle-compare | report.

Configs are JSON documents (rationals as "p/q" strings, matrices row-major),
read and typed against one table, CONFIG_KEYS; a bare preset name is accepted
wherever a config path is expected.  Every count is exact, and all emitted
CSV/JSON is byte-deterministic across runs.

Exit codes: 0 success, 1 validation failure or refused input, 3 oracle mismatch.
"""

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from .algebra import NUMBER_FIELD, QUATERNION, AlgebraSpec
from .counting import (
    FAMILY_ALGEBRA,
    FAMILY_NORMFORM,
    FAMILY_QUADRIC,
    CountSeries,
    ScenarioSpec,
    _common_denominator,
    run_scenario,
)
from .exact import mat, vec
from .fitting import fit_power, growth_law, predicted_constant_ideal, zeta_correction
from .numtheory import signature
from .oracles import hurwitz_sigma_series, ideal_count_series, r4_series, two_squares_primitive_series
# orders derive their units; finite_units stays importable for perfbench/tracer.py
from .orders import OrderSpec, finite_units, real_quadratic_d
from .presets import PRESET_NAMES, preset_scenario
from .sections import quadric_section
from .validation import validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 3
ABSENT = -1  # a pipeline cell with no series row; counts and oracle values are >= 0


PRESET = "preset"  # the form {"preset": name, ...}, read beside the three families
ORDERS, QUADRIC, NORMFORM = (FAMILY_NORMFORM, FAMILY_ALGEBRA), (FAMILY_QUADRIC,), (FAMILY_NORMFORM,)
FAMILIES = (*ORDERS, FAMILY_QUADRIC)
EVERY = (PRESET, *FAMILIES)
REQUIRED, OPTIONAL, RETIRED = "required", "optional", "retired"


def _list(v, cell=None):
    return type(v) is list and v != [] and (cell is None or all(map(cell, v)))


def _text(pattern, what=None, parse=str):
    """The shape of a string that matches pattern, named by what or else by
    the pattern's alternatives."""
    def read(text):
        if not re.fullmatch(pattern, text):
            raise ValueError(f"{text!r} is not {what or 'one of ' + pattern.replace('|', ', ')}")
        return parse(text)
    return "a string", lambda v: type(v) is str, read


def _oracle(text):
    name, _, disc = text.partition(":")
    return name, int(disc) if disc else None


# A shape is (what a value must be, as messages name it; the test of its JSON
# type; None or the parse of a value that passes, which may refuse it).  A
# rational is a JSON integer or a "p/q" string: exact.frac refuses the rest.
INTEGER = "an integer", lambda v: type(v) is int, None
RATIONALS = "a nonempty list", _list, vec
MATRIX = "a matrix", lambda v: _list(v, _list), mat
OBJECT = "a JSON object", lambda v: type(v) is dict, None
FAMILY = _text("|".join(FAMILIES))

# The config format, one row per key: (path, shape, default, the forms that
# read it).  A REQUIRED key must be present; an OPTIONAL one may be absent or
# null, and is then left out of the values; a RETIRED key is refused with its
# row's reason, and so is a key with no row for the form read.  Defaults are
# written into the document, so the config hash reads them.
CONFIG_KEYS = (
    ("preset", _text("|".join(PRESET_NAMES)), REQUIRED, (PRESET,)),
    ("family", FAMILY, REQUIRED, FAMILIES),
    ("label", _text(r"(?!\.\.?\Z)[^/\\\0]+", "a file name: not empty, . or .., and no / or \\"), OPTIONAL, FAMILIES),
    ("r_max", INTEGER, 100, EVERY),
    ("mode", _text("exact", "supported: every count is exact"), "exact", EVERY),
    ("absolute_norm", ("true or false", lambda v: type(v) is bool, None), False, EVERY),
    # AlgebraSpec refuses a table, unity or involution that is not dim long
    ("algebra", (*OBJECT[:2], lambda a: AlgebraSpec(a["dim"], a["structure_constants"], a["unity"], a["kind"],
                                                    a.get("involution"))), REQUIRED, ORDERS),
    ("algebra.dim", INTEGER, REQUIRED, ORDERS),
    ("algebra.kind", _text(f"{NUMBER_FIELD}|{QUATERNION}"), REQUIRED, ORDERS),
    ("algebra.structure_constants", ("a list of matrices", lambda v: _list(v, MATRIX[1]),
                                     lambda v: tuple(map(mat, v))), REQUIRED, ORDERS),
    ("algebra.unity", RATIONALS, REQUIRED, ORDERS),
    ("algebra.involution", MATRIX, OPTIONAL, ORDERS),
    ("norm_degree", INTEGER, REQUIRED, ORDERS),
    ("unit_rank", INTEGER, REQUIRED, ORDERS),
    ("gram", MATRIX, REQUIRED, QUADRIC),
    ("ell", RATIONALS, REQUIRED, QUADRIC),
    ("base_point", RATIONALS, OPTIONAL, QUADRIC),
    ("invariants", OBJECT, OPTIONAL, FAMILIES),
    ("invariants.class_number", ("a positive integer", lambda v: type(v) is int and v > 0, None), OPTIONAL, NORMFORM),
    ("invariants.minpoly", ("a list of two or more integers, the last nonzero", lambda v: _list(v) and len(v) > 1
                            and v[-1] != 0 and all(type(c) is int for c in v), None), OPTIONAL, NORMFORM),
    ("invariants.oracle", _text(r"ideal-count:-?[1-9][0-9]*|jacobi-r4|hurwitz-shell",
                                "one of ideal-count:D (D a nonzero integer), jacobi-r4, hurwitz-shell", _oracle),
     OPTIONAL, ORDERS),
    ("invariants.oracle", _text("two-squares-primitive", parse=_oracle), OPTIONAL, QUADRIC),
    ("primitive_only", "fit reads the weighted column for a quadric and n_all otherwise", RETIRED, EVERY),
    ("fundamental_unit", "the unit group is computed from the order (Pell's equation)", RETIRED, EVERY),
    ("jobs", "every count runs in one process", RETIRED, EVERY),
    ("out", "the output directory is the --out option", RETIRED, EVERY),
)
DEFAULTS = {key: default for key, _, default, _ in CONFIG_KEYS if default not in (REQUIRED, OPTIONAL, RETIRED)}


def load_config(path_or_preset, overrides):
    """A config is either a JSON file or a bare preset name: the document with
    the overrides and the DEFAULTS written in."""
    if path_or_preset in PRESET_NAMES and not os.path.exists(path_or_preset):
        doc = {"preset": path_or_preset}
    else:
        with open(path_or_preset) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config {path_or_preset} is not a JSON object")
    return {**DEFAULTS, **doc, **{k: v for k, v in overrides.items() if v is not None}}


def config_hash(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def read_config(doc, prefix="", form=None):
    """The checked values of a config document, or of its object at prefix,
    read by the CONFIG_KEYS rows of its form and nested as in the document.
    The first key that does not fit is refused with one ValueError naming it."""
    if form is None and PRESET not in doc and "family" not in doc:
        raise ValueError("config has no 'family' key")
    form = form or (PRESET if PRESET in doc else _value("family", doc["family"], FAMILY, None))
    rows = {key.removeprefix(prefix): row for key, *row in CONFIG_KEYS
            if form in row[2] and key.rpartition(".")[0] == prefix[:-1]}
    where = " ".join(["config", *prefix.split(".")[:-1]])
    for key in doc:
        if key not in rows:
            raise ValueError(f"{where} key {key!r} is not read by {'a' if form == PRESET else 'family'} {form}")
        if rows[key][1] == RETIRED:
            raise ValueError(f"{where} key {key!r} is not supported: {rows[key][0]}")
    values = {}
    for key, (shape, default, _) in rows.items():
        if key not in doc and default == REQUIRED:
            raise ValueError(f"{where} has no {key!r} key")
        if doc.get(key) is not None or default not in (OPTIONAL, RETIRED):
            values[key] = _value(prefix + key, doc.get(key, default), shape, form)
    return values


def _value(key, value, shape, form):
    """A key's value read by its shape, a JSON object by its rows first.  A
    key inside algebra is named alone, as AlgebraSpec names it."""
    what, test, parse = shape
    name = key.removeprefix("algebra.").replace(".", " ")
    if not test(value):
        raise ValueError(f"config {name} {value!r} is not {what}")
    if type(value) is dict:
        value = read_config(value, key + ".", form)
    try:
        return value if parse is None else parse(value)
    except ValueError as e:
        raise ValueError(f"config {name}: {e}") from None


def scenario_from_config(doc):
    cfg = read_config(doc)
    if PRESET in cfg:
        return preset_scenario(cfg[PRESET], cfg["r_max"], cfg["absolute_norm"])
    if cfg["family"] == FAMILY_QUADRIC:
        payload = quadric_section(cfg["gram"], cfg["ell"], base_point=cfg.get("base_point"))
    else:
        payload = OrderSpec(algebra=cfg["algebra"], norm_degree=cfg["norm_degree"], unit_rank=cfg["unit_rank"])
    return ScenarioSpec(family=cfg["family"], payload=payload, k_max=cfg["r_max"],
                        use_absolute_norm=cfg["absolute_norm"], label=cfg.get("label", "custom"),
                        invariants=cfg.get("invariants", {}))


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


def series_from_csv(path, family=None):
    """Read a counts CSV: its header lines, then the open file by one
    np.loadtxt call, numpy's C parser, as a (rows, 6) int64 table; a cell
    past int64 raises.  With scale_e > 1 a converter reads each level, in
    original units, as an integer or p/q, refused unless scale_e times it is
    an integer.  The weights come over the lcm of their denominators.  A
    series whose header mode is not exact, or names another family than a
    given one (or none), or with a row not flagged exact, is refused."""
    meta = {"config_hash": None, "family": "unknown", "scale_e": "1", "mode": "exact"}
    with open(path) as fh:
        line = next(fh, "")
        while line.isspace() or line.lstrip().startswith(("#", "level,")):  # the header
            if line.lstrip().startswith("#"):
                tokens = (tok.partition("=") for tok in line.lstrip()[1:].split())
                meta.update((key, value) for key, _, value in tokens if key in meta)
            line = next(fh, "")
        if meta["mode"] != "exact":
            raise ValueError(f"series {path} has mode={meta['mode']}: only exact counts are read")
        if family not in (None, meta["family"]):
            raise ValueError(f"series {path} was counted for family {meta['family']!r}, "
                             f"but the scenario's family is {family!r}")
        scale_e = int(meta["scale_e"])

        def level(cell):
            num, _, den = cell.partition("/")
            num, den = int(num) * scale_e, int(den or 1)
            if den <= 0 or num % den:
                raise ValueError(f"level {cell.strip()} times scale_e={scale_e} is not an integer")
            return num // den

        table = np.zeros((0, 6), dtype=np.int64)
        try:  # loadtxt rewrites a converter's error and keeps it as the cause
            if line:
                table = np.loadtxt(itertools.chain([line], fh), delimiter=",", dtype=np.int64, ndmin=2,
                                   converters=None if scale_e == 1 else {0: level})
        except ValueError as e:
            raise (e.__cause__ if isinstance(e.__cause__, ValueError) else e) from None
    if table.shape[1] != 6:
        raise ValueError(f"series {path} has {table.shape[1]} columns, not 6")
    levels, n_prim, n_all, w_num, w_den, exact = table.T
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


def _load(args):
    doc = load_config(args.config, {"r_max": args.rmax})
    return doc, scenario_from_config(doc)


def cmd_validate(args):
    return _validated(_load(args)[1], verdict=True)


def _validated(scenario, verdict=False):
    """EXIT_OK when the scenario passes validation, else EXIT_VALIDATION.
    With the verdict, the check lines and the verdict go to stdout; without
    it, only the check lines of a failure, to stderr."""
    report = validate_scenario(scenario)
    if verdict or not report.ok():
        for line in report.lines():
            print(line, file=sys.stdout if verdict else sys.stderr)
    if verdict:
        print("validation ok" if report.ok() else "validation FAILED")
    return EXIT_OK if report.ok() else EXIT_VALIDATION


def cmd_count(args):
    doc, scenario = _load(args)
    rc = _validated(scenario)
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
    return _fit(args, doc, scenario, series_from_csv(args.series, scenario.family))


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
    """Attach the predicted constant, from the order's discriminant and unit group."""
    minpoly, h = scenario.invariants.get("minpoly"), scenario.invariants.get("class_number")
    if scenario.family == FAMILY_NORMFORM and h == 1 and minpoly:
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
        report.predicted_c = predicted_constant_ideal(r1, r2, reg, h, omega, int(disc), degree=order.algebra.dim)
        report.predicted_c_provenance = (
            f"ideal-count leading coefficient: r1={r1}, r2={r2}, "
            f"R={reg:.6f}, h={h} (preset-asserted), "
            f"omega={omega}, disc={int(disc)}"
        )


def cmd_oracle_compare(args):
    scenario = _load(args)[1]
    rc = _validated(scenario)
    if rc != EXIT_OK:
        return rc
    series = series_from_csv(args.series, scenario.family) if args.series else run_scenario(scenario)
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
    """Pipeline and oracle columns at levels 1..r for the oracle (name, D) the
    scenario declares in invariants["oracle"]: ideal-count with its D,
    two-squares-primitive, jacobi-r4 or hurwitz-shell.  Series rows are
    paired by level, and a level without a row reads ABSENT in the pipeline
    column.  A quadric's |G| is its section's symmetry group's, which a
    counts CSV does not carry."""
    kind, disc = scenario.invariants.get("oracle", (None, None))
    if kind == "ideal-count":
        return (_at_levels(series, series.n_all, r), ideal_count_series(disc, r),
                f"per-level orbit counts vs ideal counts (D={disc})")
    if kind == "two-squares-primitive":
        # |G| * sum of 1/|stabilizer| over the orbits of level k = points of level k
        pts = _at_levels(series, series.weighted, r, scenario.payload.symmetry_group.order, series.weight_den)
        return pts, two_squares_primitive_series(r), "per-level primitive point counts vs two-squares scan"
    if kind == "jacobi-r4":
        return _at_levels(series, series.n_all, r, 8), r4_series(r), "8 * orbit counts vs Jacobi r4"
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
    rc = _validated(scenario, verdict=True)
    if rc != EXIT_OK:
        return rc
    series = _count_validated(args, doc, scenario)
    _fit(args, doc, scenario, series)  # returns EXIT_OK or raises
    return _oracle_compare(scenario, series)


def _out_path(args, doc, name):
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = doc.get("preset") or doc.get("label") or "scenario"
    return os.path.join(out_dir, f"{stem}-{name}")


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
