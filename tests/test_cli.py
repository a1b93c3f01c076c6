import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcount
from orbitcount.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    CSV_CHUNK,
    EXIT_VALIDATION,
    _oracle_columns,
    main,
    scenario_from_config,
    series_from_csv,
    series_to_csv,
)
from orbitcount.algebra import change_of_basis, quadratic_field_order, quaternion_algebra
from orbitcount.counting import FAMILY_QUADRIC, CountSeries, ScenarioSpec, run_scenario
from orbitcount.exact import random_unimodular
from orbitcount.lattice import cone_section_points
from orbitcount.presets import PRESET_NAMES
from orbitcount.sections import quadric_section


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_validate_presets_pass(capsys):
    for preset in ("gauss", "zsqrt2", "model-quadric", "lipschitz", "hurwitz"):
        assert run(["validate", "--config", preset]) == EXIT_OK
    out = capsys.readouterr().out
    assert "validation ok" in out


def test_validate_rejects_split_norm_form(tmp_path, capsys):
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({
        "family": "normform",
        "algebra": {
            "dim": 2,
            "kind": "number-field",
            "structure_constants": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "unity": ["1", "1"],
        },
        "norm_degree": 2,
        "unit_rank": 0,
        "r_max": 10,
    }))
    assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL" in out


def _order_config(path, table, unit_rank):
    """A normform config for the order with basis 1, a, ..., and a^i a^j = table[i + j]."""
    n = len(table[0])
    path.write_text(json.dumps({
        "family": "normform",
        "algebra": {
            "dim": n,
            "kind": "number-field",
            "structure_constants": [[[str(c) for c in table[i + j]] for j in range(n)] for i in range(n)],
            "unity": ["1"] + ["0"] * (n - 1),
        },
        "norm_degree": n,
        "unit_rank": unit_rank,
    }))
    return str(path)


def test_validate_irreducibility_without_a_certifying_prime(tmp_path, capsys):
    # x^4 + 1 is irreducible over Q but splits mod every prime: the exact
    # factorisation leaves it undetermined; x^2 - 1 factors and fails
    zeta8 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]
    assert run(["validate", "--config", _order_config(tmp_path / "z8.json", zeta8, 1)]) == EXIT_VALIDATION
    assert ("UNDETERMINED norm form irreducible over Q -- "
            "no irreducible reduction among first 25 eligible primes") in capsys.readouterr().out
    split = [[1, 0], [0, 1], [1, 0]]
    assert run(["validate", "--config", _order_config(tmp_path / "split.json", split, 0)]) == EXIT_VALIDATION
    assert ("FAIL         norm form irreducible over Q -- minimal polynomial factors over Q: x**2 - 1"
            in capsys.readouterr().out)


ZETA7_PLUS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, -1], [-1, -1, 3]]  # a^3 = 1 + 2a - a^2


@pytest.mark.parametrize("table, unit_rank, detail", [
    pytest.param([[1, 0], [0, 1], [-1, 0]], 1,
                 "config unit_rank 1 disagrees with r1 + r2 - 1 = 0 (signature (0, 1))", id="gauss"),
    pytest.param([[1, 0], [0, 1], [2, 0]], 0,
                 "config unit_rank 0 disagrees with r1 + r2 - 1 = 1 (signature (2, 0))", id="zsqrt2"),
    pytest.param(ZETA7_PLUS, 1,
                 "config unit_rank 1 disagrees with r1 + r2 - 1 = 2 (signature (3, 0))", id="zeta7plus"),
    # the right rank, which no exact enumerator covers yet
    pytest.param(ZETA7_PLUS, 2,
                 "unit rank >= 2: no exact enumerator exists yet "
                 "(planned: the Shintani-cone enumerator in ROADMAP.md)", id="zeta7plus-rank2"),
])
def test_validate_refuses_a_unit_rank_against_dirichlet(tmp_path, capsys, table, unit_rank, detail):
    cfg = _order_config(tmp_path / "order.json", table, unit_rank)
    assert run(["validate", "--config", cfg]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert f"FAIL         exact-mode support for the unit group -- {detail}\n" in out
    assert "PASS         norm form irreducible over Q" in out


def test_import_loads_neither_sympy_nor_mpmath(tmp_path):
    # neither at import, nor on count and fit of an order with a complex embedding
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    code = ("import sys, orbitcount.cli as cli\n"
            "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n"
            f"assert cli.main(['count', '--config', 'gauss', '--rmax', '300', '--out', {str(tmp_path)!r}]) == 0\n"
            f"assert cli.main(['fit', '--config', 'gauss', '--series', "
            f"{str(tmp_path / 'gauss-counts.csv')!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert json.loads((tmp_path / "gauss-fit.json").read_text())["predicted_c"] is not None


def test_report_does_not_load_numpy_random(tmp_path):
    # numpy.random is not needed by any command, and importing it would cost resident memory
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    code = ("import sys, orbitcount.cli as cli\n"
            "for name in ('gauss', 'hurwitz', 'model-quadric'):\n"
            f"    assert cli.main(['report', '--config', name, '--rmax', '60', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip().splitlines()[-1] == "False"


def test_count_deterministic_across_runs_and_jobs(tmp_path):
    # --jobs accepts only 1, which changes nothing
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(out1)]) == EXIT_OK
    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(out2), "--jobs", "1"]) == EXIT_OK
    assert read(out1 / "gauss-counts.csv") == read(out2 / "gauss-counts.csv")


def test_count_rmax_zero_header_only(tmp_path):
    assert run(["count", "--config", "gauss", "--rmax", "0", "--out", str(tmp_path)]) == EXIT_OK
    lines = read(tmp_path / "gauss-counts.csv").decode().strip().splitlines()
    assert lines[-1] == "level,n_prim,n_all,weighted_num,weighted_den,exact"
    assert len(lines) == 3  # two comment lines + header


def test_report_on_an_empty_series_refuses_the_fit(tmp_path, capsys):
    assert run(["report", "--config", "gauss", "--rmax", "0", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert ("error: fewer than 8 positive sample radii in window (series too sparse or zero)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["validate", "--allow-heuristic"],
    ["oracle-compare", "--allow-heuristic"],
    ["fit", "--series", "absent.csv", "--allow-heuristic"],
    ["validate", "--jobs", "2"],
    ["validate", "--out", "."],
    ["oracle-compare", "--jobs", "2"],
    ["oracle-compare", "--out", "."],
    ["count", "--mode", "box:3"],
    ["report", "--allow-heuristic"],
    ["count", "--jobs", "2"],
    ["fit", "--series", "absent.csv", "--mode", "exact"],
])
def test_flags_that_change_nothing_are_refused(argv):
    # every count is exact and runs in one process: there is no mode to
    # choose, no heuristic to allow, and --jobs takes only 1; validate and
    # oracle-compare write no file
    with pytest.raises(SystemExit):
        run([*argv, "--config", "gauss"])


def test_config_mode_is_exact_or_refused(tmp_path, capsys):
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 8, "mode": "box:3"}))
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "'box:3'" in capsys.readouterr().err
    assert not (tmp_path / "zsqrt2-counts.csv").exists()
    # "exact" is the default, so writing it changes no byte (the config hash included)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for mode, out in (({}, out1), ({"mode": "exact"}, out2)):
        cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 8, **mode}))
        assert run(["count", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read(out1 / "zsqrt2-counts.csv") == read(out2 / "zsqrt2-counts.csv")


def _model_quadric_doc(**keys):
    """A config of the model quadric xz - y^2, ell = x + z, with keys replaced."""
    return {"family": "quadric", "gram": [[0, 0, "1/2"], [0, -1, 0], ["1/2", 0, 0]],
            "ell": [1, 0, 1], "base_point": [0, 0, 1], **keys}


def _quaternion_doc(a, b, changes=None):
    """An algebra-norm config of the order Z<1, i, j, ij> in (a, b / Q), with
    the structure constants at the given (i, j, k) replaced."""
    doc = json.loads(quaternion_algebra(a, b).to_json())
    for (i, j, k), c in (changes or {}).items():
        doc["structure_constants"][i][j][k] = c
    return {"family": "algebra-norm", "algebra": doc, "norm_degree": 2, "unit_rank": 0}


@pytest.mark.parametrize("doc, message", [
    pytest.param([1, 2], "is not a JSON object", id="list"),
    pytest.param({"family": "normform"}, "config has no 'algebra' key", id="no-algebra"),
    pytest.param({"family": "quadric", "gram": [[1, 0], [0, -1]]}, "config has no 'ell' key", id="no-ell"),
    pytest.param(_model_quadric_doc(gram=[[0, 0, "1/0"], [0, -1, 0], ["1/2", 0, 0]]),
                 "zero denominator: '1/0'", id="zero-denominator"),
    pytest.param(_model_quadric_doc(gram=[[0, 0, 0.5], [0, -1, 0], [0.5, 0, 0]]),
                 "not a rational: 0.5", id="float-in-gram"),
    pytest.param(_model_quadric_doc(ell=[1, 0, 1.0]), "not a rational: 1.0", id="float-in-ell"),
    pytest.param(_quaternion_doc(-1, -1, {(1, 1, 0): 0.5}), "not a rational: 0.5", id="float-in-table"),
    pytest.param(_model_quadric_doc(base_point=[0, 0]), "base point has 2 coordinates", id="short-base-point"),
    pytest.param(_model_quadric_doc(ell=[1, 0, 1, 5]), "linear form has 4 coefficients", id="long-ell"),
    pytest.param(_model_quadric_doc(base_point=[0, 0, 0.5]), "not a rational: 0.5", id="float-base-point"),
    pytest.param(_model_quadric_doc(base_point=[0, "0", "1/2"]), "is not integral", id="rational-base-point"),
    pytest.param({"preset": "zsqrt2", "absolute_norm": "false"}, "absolute_norm 'false' is not true or false",
                 id="string-absolute-norm"),
])
def test_malformed_config_is_an_error_not_a_traceback(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("key", ["r_max", "norm_degree", "unit_rank"])
def test_config_integer_key_refuses_a_value_that_is_not_a_json_integer(key, tmp_path, capsys):
    # a float was truncated by int(): "r_max": 20.9 counted levels 1..20
    cfg = tmp_path / "gauss.json"
    _order_config(cfg, [[1, 0], [0, 1], [-1, 0]], 0)
    for value in (20.9, 2.0, "2", True):
        doc = dict(json.loads(cfg.read_text()), **{key: value})
        cfg.write_text(json.dumps(doc))
        assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: config {key} {value!r} is not an integer\n"
        assert captured.out == ""
    assert not (tmp_path / "scenario-counts.csv").exists()


_GAUSS_DOC = {"family": "normform", "norm_degree": 2, "unit_rank": 0,
              "algebra": json.loads(quadratic_field_order(-1).to_json())}
_NOT_MINPOLY = "is not a list of two or more integers, the last nonzero"
_NOT_ORDER_ORACLE = "is not one of ideal-count:D (D a nonzero integer), jacobi-r4, hurwitz-shell"


@pytest.mark.parametrize("command", ["validate", "count", "report", "oracle-compare"])
@pytest.mark.parametrize("doc, message", [
    pytest.param(_model_quadric_doc(base_point=True), "base_point True is not a nonempty list", id="base-point-true"),
    pytest.param(_model_quadric_doc(base_point=[]), "base_point [] is not a nonempty list", id="base-point-empty"),
    pytest.param(_model_quadric_doc(base_point=False), "base_point False is not a nonempty list",
                 id="base-point-false"),
    pytest.param(_model_quadric_doc(base_point=0), "base_point 0 is not a nonempty list", id="base-point-zero"),
    pytest.param(_model_quadric_doc(gram=5), "gram 5 is not a matrix", id="gram-number"),
    pytest.param(_model_quadric_doc(ell=5), "ell 5 is not a nonempty list", id="ell-number"),
    pytest.param(dict(_GAUSS_DOC, invariants=[1, 2]), "invariants [1, 2] is not a JSON object", id="invariants-list"),
    pytest.param(dict(_GAUSS_DOC, algebra=[1]), "algebra [1] is not a JSON object", id="algebra-list"),
    pytest.param(dict(_GAUSS_DOC, invariants={"oracle": 5}), "invariants oracle 5 is not a string",
                 id="oracle-number"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], structure_constants=5)),
                 "structure_constants 5 is not a list of matrices", id="structure-constants-number"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], unity=5)), "unity 5 is not a nonempty list",
                 id="unity-number"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], involution=5)), "involution 5 is not a matrix",
                 id="involution-number"),
    pytest.param(dict(_GAUSS_DOC, invariants={"minpoly": 5}),
                 f"invariants minpoly 5 {_NOT_MINPOLY}", id="minpoly-number"),
    # typed invariants: true was the class number 1, with provenance h=True;
    # "1" dropped predicted_c; [1.5, 0, 1] drove the fit's signature
    pytest.param(dict(_GAUSS_DOC, invariants={"class_number": True}),
                 "invariants class_number True is not a positive integer", id="class-number-true"),
    pytest.param(dict(_GAUSS_DOC, invariants={"class_number": "1"}),
                 "invariants class_number '1' is not a positive integer", id="class-number-string"),
    pytest.param(dict(_GAUSS_DOC, invariants={"class_number": 0}),
                 "invariants class_number 0 is not a positive integer", id="class-number-zero"),
    pytest.param(dict(_GAUSS_DOC, invariants={"minpoly": [1.5, 0, 1]}),
                 f"invariants minpoly [1.5, 0, 1] {_NOT_MINPOLY}", id="minpoly-float"),
    pytest.param(dict(_GAUSS_DOC, invariants={"minpoly": [1]}), f"invariants minpoly [1] {_NOT_MINPOLY}",
                 id="minpoly-constant"),
    pytest.param(dict(_GAUSS_DOC, invariants={"minpoly": [1, 0, 0]}), f"invariants minpoly [1, 0, 0] {_NOT_MINPOLY}",
                 id="minpoly-zero-leading"),
    # "ideal-count:x" wrote counts.csv and fit.json before int() refused it
    pytest.param(dict(_GAUSS_DOC, invariants={"oracle": "ideal-count:x"}),
                 f"invariants oracle: 'ideal-count:x' {_NOT_ORDER_ORACLE}", id="oracle-bad-discriminant"),
    pytest.param(dict(_GAUSS_DOC, invariants={"oracle": "ideal-count:0"}),
                 f"invariants oracle: 'ideal-count:0' {_NOT_ORDER_ORACLE}", id="oracle-zero-discriminant"),
    pytest.param(dict(_GAUSS_DOC, invariants={"oracle": "jacobi-r4:2"}),
                 f"invariants oracle: 'jacobi-r4:2' {_NOT_ORDER_ORACLE}", id="oracle-with-argument"),
    # the cone oracle reads a section's symmetry group, which an order has not
    pytest.param(dict(_GAUSS_DOC, invariants={"oracle": "two-squares-primitive"}),
                 f"invariants oracle: 'two-squares-primitive' {_NOT_ORDER_ORACLE}",
                 id="oracle-of-a-section-on-an-order"),
    pytest.param(_model_quadric_doc(invariants={"oracle": "ideal-count:-4"}),
                 "invariants oracle: 'ideal-count:-4' is not one of two-squares-primitive", id="oracle-of-an-order"),
    pytest.param(_model_quadric_doc(invariants={"class_number": 1}),
                 "invariants key 'class_number' is not read by family quadric", id="class-number-of-a-section"),
    # a JSON boolean is not a rational: true was read as 1, and this section counted a series
    pytest.param(_model_quadric_doc(ell=[True, 0, 1], base_point=[0, 0, True]), "ell: not a rational: True",
                 id="bool-in-ell"),
    pytest.param(_model_quadric_doc(base_point=[0, 0, True]), "base_point: not a rational: True",
                 id="bool-in-base-point"),
    pytest.param(_model_quadric_doc(gram=[[0, 0, "1/2"], [0, False, 0], ["1/2", 0, 0]]),
                 "gram: not a rational: False", id="bool-in-gram"),
    pytest.param(_quaternion_doc(-1, -1, {(0, 0, 0): True}), "structure_constants: not a rational: True",
                 id="bool-in-table"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], unity=[True, 0])),
                 "unity: not a rational: True", id="bool-in-unity"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], involution=[[True, 0], [0, -1]])),
                 "involution: not a rational: True", id="bool-in-involution"),
    pytest.param(dict(_GAUSS_DOC, invariants={"minpoly": [1, False, True]}),
                 f"invariants minpoly [1, False, True] {_NOT_MINPOLY}", id="bool-in-minpoly"),
    # a label is a file name in --out
    *(pytest.param(_model_quadric_doc(label=label),
                   f"label: {label!r} is not a file name: not empty, . or .., and no / or \\", id=f"label-{name}")
      for name, label in [("parent", "../escaped"), ("slash", "a/b"), ("backslash", "a\\b"), ("dot", "."),
                          ("dot-dot", ".."), ("empty", "")]),
    # an unknown key: "r_maxx" was ignored, and the run counted to the default 100
    pytest.param(_model_quadric_doc(r_maxx=5), "key 'r_maxx' is not read by family quadric", id="unknown-key"),
    pytest.param({"preset": "gauss", "rmax": 5}, "key 'rmax' is not read by a preset", id="unknown-preset-key"),
    pytest.param(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], involutions=[[1, 0], [0, -1]])),
                 "algebra key 'involutions' is not read by family normform", id="unknown-algebra-key"),
    pytest.param(dict(_GAUSS_DOC, invariants={"oracles": "ideal-count:-4"}),
                 "invariants key 'oracles' is not read by family normform", id="unknown-invariants-key"),
    pytest.param(dict(_GAUSS_DOC, gram=[[1]]), "key 'gram' is not read by family normform",
                 id="key-of-another-family"),
    pytest.param({"preset": "gauss", "label": "g"}, "key 'label' is not read by a preset", id="label-of-a-preset"),
])
def test_a_config_value_of_the_wrong_json_shape_is_refused(command, doc, message, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path)] if command in ("count", "report") else []
    assert run([command, "--config", str(cfg), "--rmax", "20", *out]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: config {message}\n" and "Traceback" not in captured.err
    assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_only_an_absent_or_null_base_point_is_searched(tmp_path, capsys):
    rows = []
    for name, doc in (("absent", _model_quadric_doc()), ("null", _model_quadric_doc(base_point=None)),
                      ("given", _model_quadric_doc(base_point=[0, 0, 1]))):
        if name == "absent":
            del doc["base_point"]
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, label=name)))
        assert run(["count", "--config", str(tmp_path / f"{name}.json"), "--rmax", "50", "--out", str(tmp_path)]) == 0
        rows.append(_data_rows(tmp_path / f"{name}-counts.csv"))
    capsys.readouterr()
    assert rows[0] == rows[1] == rows[2] and len(rows[0]) > 0


@pytest.mark.parametrize("dim", [2.9, "2", 2], ids=["float", "string", "integer"])
def test_algebra_dim_is_read_as_a_json_integer(dim, tmp_path, capsys):
    # int() read "dim": 2.9 and "2" as dim 2
    cfg = tmp_path / "gauss.json"
    cfg.write_text(json.dumps(dict(_GAUSS_DOC, algebra=dict(_GAUSS_DOC["algebra"], dim=dim))))
    rc = run(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    if dim == 2:
        assert rc == EXIT_OK and captured.out.endswith("validation ok\n") and captured.err == ""
    else:
        assert rc == EXIT_VALIDATION and captured.err == f"error: config dim {dim!r} is not an integer\n"


def test_a_label_cannot_escape_the_output_directory(tmp_path, capsys):
    # "../escaped" with --out o/deep wrote o/escaped-counts.csv
    cfg = tmp_path / "label.json"
    for label, rc in (("../escaped", EXIT_VALIDATION), ("escaped..ok", EXIT_OK)):
        cfg.write_text(json.dumps(_model_quadric_doc(label=label)))
        assert run(["count", "--config", str(cfg), "--rmax", "20", "--out", str(tmp_path / "o/deep")]) == rc
    capsys.readouterr()
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv")) == ["o/deep/escaped..ok-counts.csv"]


def test_validate_refuses_an_indefinite_quaternion_order(tmp_path, capsys):
    # (-1, 3) is a division algebra, but its norm form is indefinite: the
    # count would refuse it, so validation does not probe it for zero
    # divisors and fails on the unit group support
    cfg = tmp_path / "indefinite.json"
    cfg.write_text(json.dumps(_quaternion_doc(-1, 3)))
    assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert ("UNDETERMINED payload is a division order (no zero divisors) -- "
            "not probed: norm form not definite\n") in out
    assert ("FAIL         exact-mode support for the unit group -- "
            "unit rank 0 but norm form not definite\n") in out
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_a_definite_norm_form_certifies_nothing_when_the_axioms_fail(tmp_path, capsys):
    # ij = 2k and ji = -2k keep x conj(x) scalar and the norm form definite,
    # but the product is not associative, so the inverse argument is void
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(_quaternion_doc(-1, -1, {(1, 2, 3): "2", (2, 1, 3): "-2"})))
    assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL         structure constants associative and unital -- " in out
    assert ("UNDETERMINED payload is a division order (no zero divisors) -- "
            "not certified: the structure constants fail the axioms\n") in out


def _run_quiet(args):
    """(exit code, stdout) of one command, without a capture fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return run(args), out.getvalue()


def _data_rows(path):
    return [line for line in read(path).decode().splitlines() if not line.startswith("#")]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.randoms(use_true_random=False),
       st.integers(0, 12))
def test_a_definite_norm_form_certifies_a_division_order(a, b, definite, rng, steps):
    # (-a, -b) has a positive definite reduced norm, which certifies the
    # order as a domain in any basis; (a, -b) has none and is refused
    spec = quaternion_algebra(-a if definite else a, -b)
    moved = change_of_basis(spec, random_unimodular(4, rng, steps=steps))
    division = "payload is a division order (no zero divisors) -- "
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for label, algebra in (("plain", spec), ("moved", moved)):
            paths.append(os.path.join(tmp, f"{label}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"family": "algebra-norm", "algebra": json.loads(algebra.to_json()),
                           "norm_degree": 2, "unit_rank": 0, "label": label, "r_max": 40}, fh)
        code, out = _run_quiet(["validate", "--config", paths[1]])
        if not definite:
            assert code == EXIT_VALIDATION
            assert f"UNDETERMINED {division}not probed: norm form not definite\n" in out
            return
        assert code == EXIT_OK
        assert f"PASS         {division}norm form positive definite: " in out
        for path in paths:
            assert _run_quiet(["count", "--config", path, "--out", tmp])[0] == EXIT_OK
        # the counts do not depend on the basis
        assert _data_rows(os.path.join(tmp, "moved-counts.csv")) == _data_rows(os.path.join(tmp, "plain-counts.csv"))


def test_fit_report_fields(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "2000", "--out", str(tmp_path)]) == EXIT_OK
    assert run(["fit", "--config", "gauss", "--rmax", "2000",
                "--series", str(tmp_path / "gauss-counts.csv"),
                "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads(read(tmp_path / "gauss-fit.json"))
    assert doc["expected_lambda"] == "1"
    assert 0.9 <= doc["lambda_hat_free"] <= 1.1
    assert abs(doc["predicted_c"] - 0.7853981633974483) < 1e-9
    assert "preset-asserted" in doc["predicted_c_provenance"]
    assert doc["config_hash"]
    assert "empirical" in doc["delta_note"]


SPHERE_SECTION = {"family": "quadric", "label": "sphere", "ell": [0, 0, 0, 1],
                  "gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]}
ZI_ALGEBRA_NORM = {"family": "algebra-norm", "label": "zi", "norm_degree": 2, "unit_rank": 0,
                   "algebra": json.loads(quadratic_field_order(-1).to_json())}


@pytest.mark.parametrize("config, rmax, lam, zeta", [
    pytest.param("gauss", 300, "1", math.pi ** 2 / 6, id="gauss"),
    pytest.param("lipschitz", 300, "2", math.pi ** 4 / 90, id="lipschitz"),
    pytest.param("hurwitz", 300, "2", math.pi ** 4 / 90, id="hurwitz"),
    pytest.param("model-quadric", 300, "1", None, id="model-quadric"),  # s = 1: the r log r regime
    pytest.param(SPHERE_SECTION, 50, "2", math.pi ** 2 / 6, id="sphere-section"),
    pytest.param(ZI_ALGEBRA_NORM, 300, "1", math.pi ** 2 / 6, id="zi-algebra-norm"),
])
def test_fit_reads_lambda_and_zeta_of_d_lambda_from_the_payload(config, rmax, lam, zeta, tmp_path, capsys):
    # lambda = dim / norm_degree for an order and n - 2 for a section; the
    # full over the primitive count tends to zeta(d lambda)
    if isinstance(config, dict):
        (tmp_path / "config.json").write_text(json.dumps(config))
        config = str(tmp_path / "config.json")
    out = tmp_path / "out"
    assert run(["count", "--config", config, "--rmax", str(rmax), "--out", str(out)]) == EXIT_OK
    [csv_path] = out.glob("*-counts.csv")
    assert run(["fit", "--config", config, "--rmax", str(rmax), "--series", str(csv_path),
                "--out", str(out), "--zeta"]) == EXIT_OK
    [fit_path] = out.glob("*-fit.json")
    doc = json.loads(read(fit_path))
    assert doc["expected_lambda"] == lam
    assert abs(doc["lambda_hat"] - int(lam)) < 0.25
    if zeta is None:
        assert doc["zeta_factor"] is None
    else:
        assert abs(doc["zeta_factor"] - zeta) < 1e-8


def test_fit_synthetic_exact_power(tmp_path, capsys):
    # exact power law: residual identically zero
    rows = ["# config_hash=x", "# family=normform scale_e=1 mode=exact",
            "level,n_prim,n_all,weighted_num,weighted_den,exact"]
    prev = 0
    for r in range(1, 501):
        cur = 3 * r * r
        rows.append(f"{r},{cur - prev},{cur - prev},{cur - prev},1,1")
        prev = cur
    path = tmp_path / "syn.csv"
    path.write_text("\n".join(rows) + "\n")
    assert run(["fit", "--config", "gauss", "--series", str(path), "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads(read(tmp_path / "gauss-fit.json"))
    assert abs(doc["lambda_hat"] - 2) < 1e-6
    assert doc["residual_rms"] < 1e-9


@pytest.mark.parametrize("command", ["fit", "oracle-compare"])
def test_series_of_another_family_is_refused(tmp_path, capsys, command):
    assert run(["count", "--config", "lipschitz", "--rmax", "30", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    out = ["--out", str(tmp_path)] if command == "fit" else []  # oracle-compare writes no file
    assert run([command, "--config", "gauss", "--series", str(tmp_path / "lipschitz-counts.csv"),
                *out]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "'algebra-norm'" in err and "'normform'" in err
    assert not (tmp_path / "gauss-fit.json").exists()


def test_fit_malformed_series(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("level,n_prim\n1,2\n")
    assert run(["fit", "--config", "gauss", "--series", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_series_non_integral_scaled_level_rejected(tmp_path, capsys):
    rows = ["# config_hash=x", "# family=normform scale_e=1 mode=exact",
            "level,n_prim,n_all,weighted_num,weighted_den,exact",
            "1,4,4,4,1,1", "5/2,4,4,4,1,1", "3,0,0,0,1,1"]
    bad = tmp_path / "half.csv"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="5/2"):
        series_from_csv(str(bad))
    assert run(["fit", "--config", "gauss", "--series", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "5/2" in capsys.readouterr().err
    # the same level is integral once scaled by scale_e = 2
    bad.write_text("\n".join(rows).replace("scale_e=1", "scale_e=2") + "\n")
    assert series_from_csv(str(bad)).levels.tolist() == [2, 5, 6]


def test_oracle_compare_zero_diffs(capsys):
    assert run(["oracle-compare", "--config", "gauss", "--rmax", "300"]) == EXIT_OK
    assert run(["oracle-compare", "--config", "model-quadric", "--rmax", "200"]) == EXIT_OK
    assert run(["oracle-compare", "--config", "lipschitz", "--rmax", "200"]) == EXIT_OK
    assert run(["oracle-compare", "--config", "hurwitz", "--rmax", "60"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("zero diffs") == 4


def test_oracle_compare_hurwitz_at_4000(capsys):
    # the Hurwitz oracle is one series, so a long range stays cheap
    assert run(["oracle-compare", "--config", "hurwitz", "--rmax", "4000"]) == EXIT_OK
    assert "zero diffs over 4000 levels" in capsys.readouterr().out


def test_oracle_compare_detects_corruption(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "50", "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "gauss-counts.csv"
    rows = path.read_text().splitlines()
    rows[10] = rows[10].replace(rows[10].split(",")[2], "99", 1)
    corrupted = tmp_path / "corrupt.csv"
    corrupted.write_text("\n".join(rows) + "\n")
    assert run(["oracle-compare", "--config", "gauss", "--rmax", "50",
                "--series", str(corrupted)]) == EXIT_ORACLE
    assert "first divergence" in capsys.readouterr().out


def test_report_bundle(tmp_path, capsys):
    assert run(["report", "--config", "lipschitz", "--rmax", "400",
                "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "lipschitz-counts.csv").exists()
    assert (tmp_path / "lipschitz-fit.json").exists()
    doc = json.loads(read(tmp_path / "lipschitz-fit.json"))
    assert doc["expected_lambda"] == "2"
    assert 1.8 <= doc["lambda_hat_free"] <= 2.2


def test_series_level_not_integral_after_scaling_rejected(tmp_path, capsys):
    bad = tmp_path / "third.csv"
    bad.write_text("# family=quadric scale_e=2 mode=exact\n"
                   "level,n_prim,n_all,weighted_num,weighted_den,exact\n1/2,1,1,1,1,1\n1/3,1,1,1,1,1\n")
    with pytest.raises(ValueError, match="level 1/3 times scale_e=2 is not an integer"):
        series_from_csv(str(bad))
    assert run(["fit", "--config", "model-quadric", "--series", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_series_zero_weight_denominator_rejected(tmp_path, capsys):
    bad = tmp_path / "zero.csv"
    bad.write_text("# family=normform scale_e=1 mode=exact\n"
                   "level,n_prim,n_all,weighted_num,weighted_den,exact\n1,1,1,1,0,1\n")
    assert run(["fit", "--config", "gauss", "--series", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "weighted_den of 0" in capsys.readouterr().err


@pytest.mark.parametrize("header, flag", [("mode=box:6", 0), ("mode=box:6", 1), ("mode=exact", 0)])
def test_series_not_counted_exactly_is_refused(tmp_path, capsys, header, flag):
    # the shape box mode wrote: mode=box:6 in the header and rows flagged exact=0
    rows = ["# config_hash=x", f"# family=normform scale_e=1 {header}",
            "level,n_prim,n_all,weighted_num,weighted_den,exact",
            *(f"{k},{c},{c},{c},1,{flag if k == 3 else 1}" for k, c in enumerate([1, 1, 0, 1, 2], 1))]
    path = tmp_path / "box.csv"
    path.write_text("\n".join(rows) + "\n")
    for argv in (["fit", "--out", str(tmp_path)], ["oracle-compare"]):
        assert run([*argv, "--config", "zsqrt2", "--series", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("mode=box:6" in err if "box" in header else "not flagged exact" in err)
    assert not (tmp_path / "zsqrt2-fit.json").exists()


@pytest.mark.parametrize("rows", [
    "1,1,1,1,1,1\n2,1,1,-1,1,1\n",
    # -2^63 is its own absolute value; rescaled by 2 to the lcm it would wrap to 0
    "1,1,1,1,2,1\n2,1,1,-9223372036854775808,1,1\n",
], ids=["minus-one", "minus-2^63"])
def test_series_negative_weight_refused(tmp_path, capsys, rows):
    bad = tmp_path / "negative.csv"
    bad.write_text("# family=normform scale_e=1 mode=exact\n"
                   "level,n_prim,n_all,weighted_num,weighted_den,exact\n" + rows)
    assert run(["fit", "--config", "gauss", "--series", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "negative weight" in capsys.readouterr().err


def test_section_with_stabilizers_round_trips_in_lowest_terms(tmp_path):
    # x^2 + y^2 + z^2 - w^2 sliced by ell = w: |G| = 24 and the level-1 weight is 1/4
    from orbitcount.counting import count_quadric_level, quadric_series
    from orbitcount.symmetry import integral_symmetries

    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps({"family": "quadric", "label": "sphere", "gram": gram, "ell": [0, 0, 0, 1]}))
    assert run(["count", "--config", str(cfg), "--rmax", "30", "--out", str(tmp_path)]) == EXIT_OK
    sec = quadric_section(gram, (0, 0, 0, 1))
    group = integral_symmetries(sec)
    counted = quadric_series(sec, 30)
    assert group.order == 24 and counted.weight_den > 1
    assert math.gcd(counted.weight_den, *counted.weighted.tolist()) == 1
    back = series_from_csv(str(tmp_path / "sphere-counts.csv"))
    assert back == counted
    weights = [Fraction(w, back.weight_den) for w in back.weighted.tolist()]
    assert weights[0] == Fraction(1, 4)
    assert weights == [count_quadric_level(sec, k)[1] for k in range(1, 31)]


def test_series_round_trip(tmp_path):
    assert run(["count", "--config", "model-quadric", "--rmax", "40", "--out", str(tmp_path)]) == EXIT_OK
    series = series_from_csv(str(tmp_path / "model-quadric-counts.csv"))
    assert series.family == "quadric"
    assert series.levels.tolist() == list(range(1, 41))
    assert series.n_prim[4] == 2  # level 5


def test_series_csv_scaled_levels_round_trip(tmp_path):
    series = CountSeries(
        family="quadric", levels=[1, 2, 3, 6], n_prim=[1, 0, 2, 1], n_all=[1, 1, 2, 2],
        weighted=[2, 4, 3, 8], weight_den=4, scale_e=2,
    )
    path = tmp_path / "s.csv"
    with open(path, "w") as fh:
        series_to_csv(series, fh, "x")
    assert path.read_text().splitlines()[3:] == [
        "1/2,1,1,1,2,1", "1,0,1,1,1,1", "3/2,2,2,3,4,1", "3,1,2,2,1,1",
    ]
    back = series_from_csv(str(path))
    assert back == series and (back.weight_den, back.scale_e) == (4, 2)


def test_algebra_series_primitive_column():
    from orbitcount.counting import algebra_series
    from orbitcount.presets import order_lipschitz

    assert algebra_series(order_lipschitz(), 8).n_prim.tolist() == [1, 3, 4, 2, 6, 12, 8, 0]


def _quadratic_config(path, d, label, invariants=None):
    doc = {
        "family": "normform",
        "algebra": json.loads(quadratic_field_order(d).to_json()),
        "norm_degree": 2,
        "unit_rank": 0,
        "r_max": 500,
        "label": label,
    }
    if invariants is not None:
        doc["invariants"] = invariants
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_chosen_by_declared_invariant_not_label(tmp_path, capsys):
    # Z[sqrt(-2)] labelled "gauss" declares no oracle: none applies
    cfg = _quadratic_config(tmp_path / "a.json", -2, "gauss")
    assert run(["oracle-compare", "--config", cfg]) == EXIT_VALIDATION
    assert "no oracle applicable" in capsys.readouterr().err
    cfg = _quadratic_config(tmp_path / "b.json", -2, "gauss", {"oracle": "ideal-count:-8"})
    assert run(["oracle-compare", "--config", cfg]) == EXIT_OK
    # Z[i] under a label no oracle was ever keyed on
    cfg = _quadratic_config(tmp_path / "c.json", -1, "gaussian-ints", {"oracle": "ideal-count:-4"})
    assert run(["oracle-compare", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out.count("zero diffs over 500 levels") == 2


def test_oracle_compare_reads_the_quadric_series(tmp_path, capsys):
    # the cone oracle compares |G| * weighted from --series, not a recount
    assert run(["count", "--config", "model-quadric", "--rmax", "30", "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "model-quadric-counts.csv"
    assert run(["oracle-compare", "--config", "model-quadric", "--rmax", "30",
                "--series", str(path)]) == EXIT_OK
    rows = path.read_text().splitlines()
    fields = rows[4].split(",")
    assert fields[0] == "2"
    fields[3] = "999"
    rows[4] = ",".join(fields)
    corrupted = tmp_path / "corrupt.csv"
    corrupted.write_text("\n".join(rows) + "\n")
    assert run(["oracle-compare", "--config", "model-quadric", "--rmax", "30",
                "--series", str(corrupted)]) == EXIT_ORACLE
    assert "first divergence at level 2" in capsys.readouterr().out


def test_cone_oracle_column_counts_the_level_points():
    # |G| * weighted at level k is the number of primitive points of level k,
    # here with |G| = 4 and levels in (1/5) Z: x^2 + y^2 = z^2 with z = 5k
    sec = quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, Fraction(1, 5)))
    scenario = ScenarioSpec(family=FAMILY_QUADRIC, payload=sec, k_max=30,
                            invariants={"oracle": ("two-squares-primitive", None)})
    series = run_scenario(scenario)
    assert series.scale_e == 5 and series.meta["group_order"] == 4
    pipeline, _, _ = _oracle_columns(scenario, series, 30)
    points = [len(cone_section_points(sec, k)) for k in range(1, 31)]
    assert pipeline.tolist() == points and points[:5] == [8, 0, 0, 0, 8]


def test_at_levels_pairs_rows_by_level_and_refuses_past_int64():
    from orbitcount.cli import ABSENT, _at_levels

    # levels 2, 6, 8 with scale_e = 2 are k = 1, 3, 4; k = 2 has no row
    s = CountSeries(family=FAMILY_QUADRIC, levels=[2, 6, 8], n_prim=[1, 1, 1],
                    n_all=[1, 2, 2 ** 60], weighted=[1, 2, 3], scale_e=2, weight_den=2)
    assert _at_levels(s, s.n_all, 3).tolist() == [1, ABSENT, 2]
    assert _at_levels(s, s.weighted, 3, 4, s.weight_den).tolist() == [2, ABSENT, 4]
    with pytest.raises(ValueError, match="not integral"):
        _at_levels(s, s.weighted, 3, 1, s.weight_den)
    # 8 * 2^60 = 2^63 would wrap in int64
    with pytest.raises(ValueError, match="could pass int64"):
        _at_levels(s, s.n_all, 4, 8)
    assert _at_levels(s, s.n_all, 4, 7).tolist() == [7, ABSENT, 14, 7 * 2 ** 60]


def test_validate_one_dimensional_normform_fails_cleanly(tmp_path, capsys):
    # Q itself: no basis generator, so the irreducibility check reports FAIL
    assert run(["validate", "--config", _order_config(tmp_path / "q.json", [[1]], 0)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert ("FAIL         norm form irreducible over Q -- "
            "no basis generator has a full-degree minimal polynomial") in out
    assert out.splitlines()[-1] == "validation FAILED"


def test_oracle_compare_series_short_of_rmax_diverges(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "20", "--out", str(tmp_path)]) == EXIT_OK
    assert run(["oracle-compare", "--config", "gauss", "--rmax", "50",
                "--series", str(tmp_path / "gauss-counts.csv")]) == EXIT_ORACLE
    assert "first divergence at level 21: pipeline=absent" in capsys.readouterr().out


def test_oracle_compare_pairs_rows_by_level(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "20", "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "gauss-counts.csv").read_text().splitlines()
    gap = tmp_path / "gap.csv"
    gap.write_text("\n".join(row for row in rows if not row.startswith("3,")) + "\n")
    assert run(["oracle-compare", "--config", "gauss", "--rmax", "20", "--series", str(gap)]) == EXIT_ORACLE
    assert "first divergence at level 3: pipeline=absent oracle=0 (1 differing levels)" in capsys.readouterr().out


def test_report_reads_no_csv(tmp_path, monkeypatch, capsys):
    # report fits and compares the series it counted, not its counts.csv
    import orbitcount.cli as cli

    reads = []

    def counting_reader(path):
        reads.append(path)
        return series_from_csv(path)

    monkeypatch.setattr(cli, "series_from_csv", counting_reader)
    assert run(["report", "--config", "gauss", "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
    assert reads == []
    assert "zero diffs over 60 levels" in capsys.readouterr().out
    assert (tmp_path / "gauss-counts.csv").exists()


def _benchmark_zsqrt31_config(path):
    """The Z[sqrt(31)] config of the benchmark's orbits workload, as a file."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path.write_text(json.dumps(workloads.ZSQRT31_CONFIG))
    return str(path)


def _captured(capsys, argv):
    rc = run(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize("r", ["verify", 0])
@pytest.mark.parametrize("case", [("gauss", 1500), ("zsqrt2", 1500), ("lipschitz", 1500), ("model-quadric", 1500),
                                  ("hurwitz", 500), ("zsqrt31", 40), ("halfz", 200)], ids=lambda case: case[0])
def test_report_is_count_fit_and_oracle_compare(case, r, tmp_path, capsys):
    # report's stdout, stderr, exit code, counts.csv and fit.json are those of
    # validate, count, fit --series and oracle-compare --series on the CSV, in
    # turn (at r = 0 both routes stop at the fit's refusal)
    stem, size = case
    config = stem
    if stem == "zsqrt31":
        config = _benchmark_zsqrt31_config(tmp_path / "zsqrt31.json")
    elif stem == "halfz":  # x^2 + y^2 - z^2 sliced by ell = z / 2: scale_e 2, no oracle
        config = str(tmp_path / "halfz.json")
        (tmp_path / "halfz.json").write_text(json.dumps({
            "family": "quadric", "label": "halfz", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
            "ell": [0, 0, "1/2"]}))
    out = str(tmp_path / "out")
    argv = ["--config", config, "--rmax", str(size if r == "verify" else r)]
    csv_path, fit_path = (os.path.join(out, f"{stem}-{name}") for name in ("counts.csv", "fit.json"))
    parts = [_captured(capsys, ["validate", *argv]), _captured(capsys, ["count", *argv, "--out", out]),
             _captured(capsys, ["fit", *argv, "--series", csv_path, "--out", out])]
    if parts[-1][0] == EXIT_OK:
        parts.append(_captured(capsys, ["oracle-compare", *argv, "--series", csv_path]))
    assert [rc for rc, _, _ in parts[:2]] == [EXIT_OK, EXIT_OK]
    if r == 0:
        assert parts[-1] == (EXIT_VALIDATION, "", "error: fewer than 8 positive sample radii in window "
                                                 "(series too sparse or zero)\n")
    elif stem in ("zsqrt31", "halfz"):
        assert parts[-1][2] == f"no oracle applicable to scenario {stem!r}\n"
    else:
        assert "zero diffs" in parts[-1][1]
    files = [read(path) if os.path.exists(path) else None for path in (csv_path, fit_path)]
    assert files[0] is not None and (files[1] is None) == (r == 0)
    for path in (csv_path, fit_path)[: 2 - files.count(None)]:
        os.remove(path)
    rc, stdout, stderr = _captured(capsys, ["report", *argv, "--out", out])
    assert rc == parts[-1][0]
    assert stdout == "".join(p[1] for p in parts) and stderr == "".join(p[2] for p in parts)
    assert [read(path) if os.path.exists(path) else None for path in (csv_path, fit_path)] == files


def test_oracle_compare_counts_only_a_validated_scenario(tmp_path, monkeypatch, capsys):
    # Z[i] asserting minpoly x^2 - 2 fails validation: oracle-compare refuses
    # it as count does, with or without --series, and never counts
    import orbitcount.cli as cli

    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    counted = []

    def counting_run(scenario):
        counted.append(scenario)
        return run_scenario(scenario)

    monkeypatch.setattr(cli, "run_scenario", counting_run)
    inv = {"class_number": 1, "oracle": "ideal-count:-4"}
    for series, recounts in (([], 1), (["--series", str(tmp_path / "gauss-counts.csv")], 0)):
        counted.clear()
        cfg = _quadratic_config(tmp_path / "zi.json", -1, "zi", {**inv, "minpoly": [-2, 0, 1]})
        assert run(["oracle-compare", "--config", cfg, "--rmax", "60", *series]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and counted == []
        assert ("FAIL         exact-mode support for the unit group -- invariants minpoly "
                "[-2, 0, 1] has signature (2, 0), the order's generator (0, 1)\n") in captured.err
        cfg = _quadratic_config(tmp_path / "zi.json", -1, "zi", {**inv, "minpoly": [1, 0, 1]})
        assert run(["oracle-compare", "--config", cfg, "--rmax", "60", *series]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ("oracle-compare zi: per-level orbit counts vs ideal counts (D=-4): "
                                "zero diffs over 60 levels\n") and captured.err == ""
        assert len(counted) == recounts


def test_report_builds_its_scenario_once(tmp_path, monkeypatch, capsys):
    import orbitcount.cli as cli

    built = []

    def counting_builder(doc):
        built.append(doc["preset"])
        return scenario_from_config(doc)

    monkeypatch.setattr(cli, "scenario_from_config", counting_builder)
    assert run(["report", "--config", "model-quadric", "--rmax", "40",
                "--out", str(tmp_path)]) == EXIT_OK
    assert built == ["model-quadric"]
    assert "zero diffs over 40 levels" in capsys.readouterr().out


@pytest.fixture
def fresh_presets():
    """Preset payloads built anew, so that what a test counts of their
    derivations does not depend on the tests that ran before it."""
    from orbitcount import presets

    presets._payload.cache_clear()
    yield
    presets._payload.cache_clear()


def test_report_builds_the_quadric_group_once(tmp_path, monkeypatch, capsys, fresh_presets):
    # the group is a cached property of the section: the first command on a
    # fresh payload builds it, and later commands on the same payload (here
    # oracle-compare on a counts CSV, which does not carry |G|) build nothing
    from orbitcount import sections
    from orbitcount.symmetry import integral_symmetries

    built = []

    def counting_group(section):
        built.append(section)
        return integral_symmetries(section)

    monkeypatch.setattr(sections, "integral_symmetries", counting_group)
    assert run(["report", "--config", "model-quadric", "--rmax", "40",
                "--out", str(tmp_path)]) == EXIT_OK
    assert len(built) == 1
    assert "zero diffs over 40 levels" in capsys.readouterr().out
    assert run(["oracle-compare", "--config", "model-quadric", "--rmax", "40",
                "--series", str(tmp_path / "model-quadric-counts.csv")]) == EXIT_OK
    assert len(built) == 1
    assert "zero diffs over 40 levels" in capsys.readouterr().out


@pytest.mark.parametrize("preset", ["lipschitz", "hurwitz", "gauss"])
def test_report_derives_the_norm_form_once(preset, tmp_path, monkeypatch, capsys, fresh_presets):
    # the norm Gram matrix and its LDL are cached properties of the order:
    # the first report on a fresh payload derives each once (validation, the
    # count and the fit's predicted constant share them), a second none
    from orbitcount import exact, orders, shells

    grams, ldls = [], []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(orders, "norm_gram", counted(grams, orders.norm_gram))
    ldl = counted(ldls, exact.ldl)
    for module in (exact, shells):
        monkeypatch.setattr(module, "ldl", ldl)
    for _ in range(2):
        assert run(["report", "--config", preset, "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
        assert (len(grams), len(ldls)) == (1, 1)
        assert "zero diffs over 60 levels" in capsys.readouterr().out


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_report_repeats_byte_for_byte_in_one_process(preset, tmp_path, capsys, fresh_presets):
    # the second report reads the set-up the first derived; both match a
    # fresh interpreter's report
    outputs = []
    for _ in range(2):
        assert run(["report", "--config", preset, "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
        outputs.append((capsys.readouterr().out, read(tmp_path / f"{preset}-counts.csv"),
                        read(tmp_path / f"{preset}-fit.json")))
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    proc = subprocess.run([sys.executable, "-m", "orbitcount.cli", "report", "--config", preset,
                           "--rmax", "60", "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    outputs.append((proc.stdout, read(tmp_path / f"{preset}-counts.csv"),
                    read(tmp_path / f"{preset}-fit.json")))
    assert outputs[0] == outputs[1] == outputs[2]


def test_each_report_checks_the_free_action(tmp_path, monkeypatch, capsys, fresh_presets):
    # only derived data is reused: every report runs every check again
    from orbitcount import counting

    checked = []
    original = counting._assert_free_action

    def counting_check(order, units):
        checked.append(order)
        return original(order, units)

    monkeypatch.setattr(counting, "_assert_free_action", counting_check)
    outs = []
    for _ in range(2):
        assert run(["report", "--config", "hurwitz", "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert len(checked) == 2 and checked[0] is checked[1]
    lines = [out[: out.index("validation ok")] for out in outs]
    assert lines[0] == lines[1] and lines[0].count("PASS") == 4


def test_validation_refuses_a_minpoly_of_another_signature(tmp_path, capsys):
    # Z[i] asserting x^2 - 2: the fit would read signature (2, 0); validation
    # compares it with the generator's (0, 1) and refuses every command
    cfg = _quadratic_config(tmp_path / "zi.json", -1, "zi", {"class_number": 1, "minpoly": [-2, 0, 1]})
    out = tmp_path / "out"
    for command in ("validate", "count", "report"):
        extra = [] if command == "validate" else ["--out", str(out)]
        assert run([command, "--config", cfg, "--rmax", "60", *extra]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert ("FAIL         exact-mode support for the unit group -- invariants minpoly "
                "[-2, 0, 1] has signature (2, 0), the order's generator (0, 1)") in captured.out + captured.err
    assert not out.exists() or not list(out.glob("*-counts.csv"))
    # x^2 + 2 has the generator's signature, and the prediction reads only (r1, r2)
    cfg = _quadratic_config(tmp_path / "zi2.json", -1, "zi", {"class_number": 1, "minpoly": [2, 0, 1]})
    assert run(["validate", "--config", cfg]) == EXIT_OK
    assert "PASS         exact-mode support for the unit group" in capsys.readouterr().out


def test_fit_refuses_a_unit_rank_against_dirichlet(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
    path = _order_config(tmp_path / "order.json", [[1, 0], [0, 1], [-1, 0]], 1)
    cfg = json.loads((tmp_path / "order.json").read_text())
    cfg["invariants"] = {"class_number": 1, "minpoly": [1, 0, 1]}
    (tmp_path / "order.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(["fit", "--config", path, "--out", str(tmp_path),
                "--series", str(tmp_path / "gauss-counts.csv")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == ("error: config unit_rank 1 disagrees with r1 + r2 - 1 = 0 "
                   "(signature (0, 1) of minpoly [1, 0, 1])\n")
    assert not (tmp_path / "scenario-fit.json").exists()


def test_fit_writes_the_series_config_hash(tmp_path, capsys):
    assert run(["count", "--config", "gauss", "--rmax", "300", "--out", str(tmp_path)]) == EXIT_OK
    csv_path = str(tmp_path / "gauss-counts.csv")
    header = read(csv_path).decode().splitlines()[0]
    assert header.startswith("# config_hash=")
    for rmax in (["--rmax", "300"], []):
        assert run(["fit", "--config", "gauss", *rmax, "--series", csv_path,
                    "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads(read(tmp_path / "gauss-fit.json"))
        assert doc["config_hash"] == header.split("=", 1)[1]
    assert series_from_csv(csv_path).meta["config_hash"] == header.split("=", 1)[1]


def test_primitive_only_refused(tmp_path, capsys):
    cfg = tmp_path / "prim.json"
    for value in (True, False):
        cfg.write_text(json.dumps({"preset": "gauss", "r_max": 20, "primitive_only": value}))
        assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "'primitive_only'" in capsys.readouterr().err
        for command in ("count", "report"):
            assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
            assert "'primitive_only'" in capsys.readouterr().err
    assert not (tmp_path / "gauss-counts.csv").exists()
    with pytest.raises(SystemExit):
        run(["count", "--config", "gauss", "--primitive-only"])


@pytest.mark.parametrize("key, value", [("jobs", 4), ("out", "elsewhere")])
def test_execution_keys_refused(tmp_path, capsys, key, value):
    # a config key no count reads is refused, not ignored
    cfg = tmp_path / "exec.json"
    cfg.write_text(json.dumps({"preset": "gauss", key: value}))
    for command in ("validate", "count"):
        out = ["--out", str(tmp_path)] if command == "count" else []
        assert run([command, "--config", str(cfg), *out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key!r}" in err
    assert not (tmp_path / "gauss-counts.csv").exists()


def test_config_hash_of_a_preset_is_pinned(tmp_path):
    # the hash of the whole config document, the defaults included
    from orbitcount.cli import config_hash, load_config

    assert config_hash(load_config("gauss", {"r_max": None})) == "293bc2ad2afe249f"
    assert run(["count", "--config", "gauss", "--out", str(tmp_path)]) == EXIT_OK
    assert read(tmp_path / "gauss-counts.csv").startswith(b"# config_hash=293bc2ad2afe249f\n")


def test_fundamental_unit_refused(tmp_path, capsys):
    # the unit group is computed (Pell), so a config may not assert one
    cfg = tmp_path / "fu.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 30, "fundamental_unit": ["1", "1"]}))
    assert run(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "'fundamental_unit'" in capsys.readouterr().err
    for command in ("count", "report"):
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "'fundamental_unit'" in capsys.readouterr().err
    assert not (tmp_path / "zsqrt2-counts.csv").exists()


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_series_cell_at_2_63_refused(tmp_path, capsys, column):
    cells = ["2", "1", str(2 ** 63 - 1), "1", "1", "1"]
    cells[column] = str(2 ** 63)
    rows = ["# family=normform scale_e=1 mode=exact",
            "level,n_prim,n_all,weighted_num,weighted_den,exact", "1,0,0,0,1,1", ",".join(cells)]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=str(2 ** 63)):
        series_from_csv(str(big))
    assert run(["fit", "--config", "gauss", "--series", str(big), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert str(2 ** 63) in capsys.readouterr().err
    # one below 2^63 is read exactly, as an int
    big.write_text("\n".join(rows).replace(str(2 ** 63), str(2 ** 63 - 1)) + "\n")
    series = series_from_csv(str(big))
    read = [series.levels, series.n_prim, series.n_all, series.weighted][column]
    assert read.dtype == np.int64 and read.tolist()[-1] == 2 ** 63 - 1


@st.composite
def count_series(draw):
    scale_e = draw(st.integers(1, 4))
    levels = sorted(draw(st.sets(st.integers(1, 200), max_size=30)))
    n_all = [draw(st.integers(0, 10 ** 6)) for _ in levels]
    n_prim = [draw(st.integers(0, c)) for c in n_all]
    weighted = [draw(st.integers(0, 10 ** 6)) for _ in levels]
    return CountSeries(family="quadric", levels=levels, n_prim=n_prim, n_all=n_all,
                       weighted=weighted, scale_e=scale_e, weight_den=draw(st.integers(1, 12)))


@settings(max_examples=80, deadline=None)
@given(count_series())
def test_series_csv_round_trip_property(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w") as fh:
            series_to_csv(series, fh, "x")
        back = series_from_csv(path)
    assert back == series


@settings(max_examples=150, deadline=None)
@given(count_series(), st.sampled_from(["replace", "insert", "delete"]), st.data())
def test_series_csv_with_one_byte_changed_reads_or_is_refused(series, edit, data):
    # any one-byte edit of a written CSV reads back as a series or is refused
    # with ValueError, and fit ends it with exit 0 or 1, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w") as fh:
            series_to_csv(series, fh, "x")
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        i = data.draw(st.integers(0, len(raw) - (edit != "insert")))
        byte = data.draw(st.integers(0, 255))
        if edit == "replace":
            raw[i] = byte
        elif edit == "insert":
            raw.insert(i, byte)
        else:
            del raw[i]
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            assert isinstance(series_from_csv(path), CountSeries)
        except ValueError:
            pass
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["fit", "--config", "model-quadric", "--series", path, "--out", tmp]) in (
                EXIT_OK, EXIT_VALIDATION)


@pytest.mark.parametrize("scale_e", ["0", "-2"])
@pytest.mark.parametrize("rows", [1, 3])
def test_series_with_scale_e_below_one_is_refused(tmp_path, capsys, scale_e, rows):
    # scale_e = 0 once ended fit in ZeroDivisionError and oracle-compare in a
    # divide-by-zero warning and a false divergence
    path = tmp_path / "scale.csv"
    path.write_text(f"# family=normform scale_e={scale_e} mode=exact\n"
                    "level,n_prim,n_all,weighted_num,weighted_den,exact\n"
                    + "".join(f"{k},1,1,1,1,1\n" for k in range(1, rows + 1)))
    with pytest.raises(ValueError, match=f"scale_e {scale_e} is not a positive int64 integer"):
        series_from_csv(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["fit", "--out", str(tmp_path)], ["oracle-compare", "--rmax", "5"]):
            assert run([*argv, "--config", "gauss", "--series", str(path)]) == EXIT_VALIDATION
            out, err = capsys.readouterr()
            assert err == f"error: scale_e {scale_e} is not a positive int64 integer\n" and out == ""
    assert not (tmp_path / "gauss-fit.json").exists()


def _format_rows(series):
    """The counts CSV body as one str.format per row, with levels in original
    units when scale_e is not 1."""
    levels, e = series.levels, series.scale_e
    if e != 1:
        levels = [f"{lv // math.gcd(lv, e)}/{e // math.gcd(lv, e)}" if lv % e else lv // e
                  for lv in levels]
    weights = (Fraction(w, series.weight_den) for w in series.weighted.tolist())
    return "".join(f"{lv},{p},{a},{w.numerator},{w.denominator},1\n"
                   for lv, p, a, w in zip(levels, series.n_prim, series.n_all, weights))


def _written_rows(series):
    fh = io.StringIO()
    series_to_csv(series, fh, "x")
    return fh.getvalue().split("\n", 3)[3]


EDGE_CELLS = (0, 9, 10, 10 ** 18, 2 ** 63 - 1)


def _edge_series(rows, weight_den=1, scale_e=1):
    levels = [1 + 3 * i for i in range(rows)]
    n_all = [EDGE_CELLS[i % 5] for i in range(rows)]
    n_prim = [min(EDGE_CELLS[(i * 7) % 5], c) for i, c in enumerate(n_all)]
    weighted = [EDGE_CELLS[(i * 3) % 5] for i in range(rows)]
    return CountSeries(family="quadric", levels=levels, n_prim=n_prim, n_all=n_all,
                       weighted=weighted, scale_e=scale_e, weight_den=weight_den)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_writer_matches_row_format_at_chunk_boundaries(offset):
    series = _edge_series(CSV_CHUNK + offset)
    assert _written_rows(series) == _format_rows(series)
    two = _edge_series(2 * CSV_CHUNK + offset)
    assert _written_rows(two) == _format_rows(two)


def test_csv_writer_edge_cells():
    cells = list(EDGE_CELLS)
    series = CountSeries(family="quadric", levels=cells, n_prim=cells, n_all=cells,
                         weighted=cells, scale_e=1)
    assert _written_rows(series) == _format_rows(series)
    assert _written_rows(series).splitlines()[-1] == ",".join([str(2 ** 63 - 1)] * 4 + ["1", "1"])


def test_csv_writer_takes_the_array_kernel_for_every_chunk(monkeypatch):
    # weights over a denominator (3 here: a row reads 9/3 as 3/1 and 10/3 as
    # it is) leave every chunk of a scale_e = 1 series to the array kernel
    from orbitcount import cli

    kernel, kernel_rows = cli._ascii_rows, []

    def counting_kernel(table):
        kernel_rows.append(len(table))
        return kernel(table)

    monkeypatch.setattr(cli, "_ascii_rows", counting_kernel)
    series = _edge_series(3 * CSV_CHUNK + 5, weight_den=3)
    assert series.weight_den == 3
    assert _written_rows(series) == _format_rows(series)
    assert kernel_rows == [CSV_CHUNK, CSV_CHUNK, CSV_CHUNK, 5]


def test_csv_writer_scaled_levels():
    series = _edge_series(CSV_CHUNK + 3, weight_den=4, scale_e=6)
    text = _written_rows(series)
    assert text == _format_rows(series)
    assert text.startswith("1/6,") and "\n2/3," in text  # levels 1 and 4, over 6


def test_parser_is_built_once_and_fit_flags_do_not_leak(tmp_path, capsys):
    from orbitcount import cli

    assert cli.build_parser() is cli.build_parser()
    assert run(["count", "--config", "gauss", "--rmax", "300", "--out", str(tmp_path)]) == EXIT_OK
    csv_path = str(tmp_path / "gauss-counts.csv")
    docs = []
    for flags in (["--fixed-lambda", "--zeta"], [], ["--fixed-lambda"]):
        capsys.readouterr()
        assert run(["fit", "--config", "gauss", "--series", csv_path, "--out", str(tmp_path),
                    *flags]) == EXIT_OK
        docs.append(json.loads(capsys.readouterr().out))
    fixed, free, fixed_again = docs
    assert free["lambda_hat"] == fixed["lambda_hat_free"] != fixed["lambda_hat"] == 1.0
    assert free["zeta_factor"] is None and fixed["zeta_factor"] is not None
    assert fixed_again == dict(fixed, zeta_factor=None)
    args = cli.build_parser().parse_args(["fit", "--config", "gauss", "--series", csv_path])
    assert (args.fixed_lambda, args.zeta, args.out, args.rmax) == (False, False, None, None)


def test_preset_payload_built_once_with_fresh_invariants():
    from orbitcount.presets import PRESET_NAMES, preset_scenario

    for name in PRESET_NAMES:
        first, again = preset_scenario(name, 10), preset_scenario(name, 10)
        assert again.family == first.family and again.payload is first.payload
        assert again.invariants == first.invariants and again.invariants is not first.invariants
        first.invariants["class_number"] = 99
        first.invariants.pop("oracle")
        assert "oracle" in preset_scenario(name, 10).invariants
        assert preset_scenario(name, 10).invariants.get("class_number") != 99


@st.composite
def array_series(draw):
    # int64 cells up to 2^63 - 1, weights over a divisor of 24, scale_e = 6
    # and empty series, built from lists or from int64 arrays
    scale_e = draw(st.sampled_from([1, 6]))
    top = draw(st.sampled_from([10 ** 12, 2 ** 63 - 1]))
    levels = sorted(draw(st.sets(st.integers(1, top), max_size=12)))
    n_all = [draw(st.integers(0, top)) for _ in levels]
    n_prim = [draw(st.integers(0, c)) for c in n_all]
    weighted = [draw(st.integers(0, top)) for _ in levels]
    columns = [levels, n_prim, n_all, weighted]
    if draw(st.booleans()):
        columns = [np.array(c, dtype=np.int64) for c in columns]
    return CountSeries(family="quadric", levels=columns[0], n_prim=columns[1], n_all=columns[2],
                       weighted=columns[3], scale_e=scale_e,
                       weight_den=draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])))


@settings(max_examples=120, deadline=None)
@given(array_series())
def test_series_csv_round_trip_keeps_columns_and_dtypes(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w") as fh:
            series_to_csv(series, fh, "x")
        back = series_from_csv(path)
    assert back == series
    for name in ("levels", "n_prim", "n_all", "weighted"):
        assert getattr(back, name).dtype == np.int64, name


def test_empty_series_csv_round_trip():
    for scale_e in (1, 6):
        series = CountSeries(family="normform", levels=[], n_prim=[], n_all=[], weighted=[],
                             scale_e=scale_e)
        fh = io.StringIO()
        series_to_csv(series, fh, "x")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "w") as out:
                out.write(fh.getvalue())
            back = series_from_csv(path)
        for name in ("levels", "n_prim", "n_all", "weighted"):
            assert getattr(back, name).dtype == np.int64 and len(getattr(back, name)) == 0
        assert (back.weight_den, back.scale_e) == (1, scale_e)
