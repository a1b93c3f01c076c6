import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitcount
from orbitcount.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_SATURATION,
    EXIT_VALIDATION,
    _oracle_columns,
    load_config,
    main,
    scenario_from_config,
    series_from_csv,
    series_to_csv,
)
from orbitcount.counting import FAMILY_QUADRIC, CountSeries, ScenarioSpec, run_scenario
from orbitcount.lattice import cone_section_points
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
])
def test_validate_refuses_a_unit_rank_against_dirichlet(tmp_path, capsys, table, unit_rank, detail):
    cfg = _order_config(tmp_path / "order.json", table, unit_rank)
    for mode in ([], ["--mode", "box:4"]):
        assert run(["validate", "--config", cfg, *mode]) == EXIT_VALIDATION
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
    # the division probe draws seeded bytes; importing numpy.random would cost resident memory
    src = os.path.dirname(os.path.dirname(orbitcount.__file__))
    code = ("import sys, orbitcount.cli as cli\n"
            "for name in ('gauss', 'hurwitz', 'model-quadric'):\n"
            f"    assert cli.main(['report', '--config', name, '--rmax', '60', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip().splitlines()[-1] == "False"


def test_count_deterministic_across_runs_and_jobs(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(out1)]) == EXIT_OK
    assert run(["count", "--config", "gauss", "--rmax", "60", "--out", str(out2), "--jobs", "3"]) == EXIT_OK
    assert read(out1 / "gauss-counts.csv") == read(out2 / "gauss-counts.csv")
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 8, "mode": "box:24"}))
    assert run(["count", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert run(["count", "--config", str(cfg), "--out", str(out3), "--jobs", "2"]) == EXIT_OK
    assert read(out1 / "zsqrt2-counts.csv") == read(out3 / "zsqrt2-counts.csv")


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
])
def test_flags_that_change_nothing_are_refused(argv):
    # --allow-heuristic acts only where the saturation check runs (count,
    # report); validate and oracle-compare write no file and run no pool
    with pytest.raises(SystemExit):
        run([*argv, "--config", "gauss"])


def test_box_saturation_failure_exit_2(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 8, "mode": "box:1"}))
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_SATURATION
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path),
                "--allow-heuristic"]) == EXIT_OK
    series = series_from_csv(str(tmp_path / "zsqrt2-counts.csv"))
    assert series.exact == [False] * 8


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
    assert series_from_csv(str(bad)).levels == [2, 5, 6]


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


def test_series_round_trip(tmp_path):
    assert run(["count", "--config", "model-quadric", "--rmax", "40", "--out", str(tmp_path)]) == EXIT_OK
    series = series_from_csv(str(tmp_path / "model-quadric-counts.csv"))
    assert series.family == "quadric"
    assert series.levels == list(range(1, 41))
    assert series.n_prim[4] == 2  # level 5


def test_series_csv_scaled_levels_round_trip(tmp_path):
    series = CountSeries(
        family="quadric", levels=[1, 2, 3, 6], n_prim=[1, 0, 2, 1], n_all=[1, 1, 2, 2],
        weighted=[Fraction(1, 2), 1, Fraction(3, 4), Fraction(2)], scale_e=2, exact=[True] * 4,
    )
    path = tmp_path / "s.csv"
    with open(path, "w") as fh:
        series_to_csv(series, fh, "x")
    assert path.read_text().splitlines()[3:] == [
        "1/2,1,1,1,2,1", "1,0,1,1,1,1", "3/2,2,2,3,4,1", "3,1,2,2,1,1",
    ]
    back = series_from_csv(str(path))
    assert (back.levels, back.weighted, back.scale_e) == (series.levels, series.weighted, 2)


def test_user_asserted_fundamental_unit(tmp_path, capsys):
    cfg = tmp_path / "fu.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 30,
                               "fundamental_unit": ["1", "1"]}))
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / "zsqrt2-counts.csv").read_text()
    assert "units=user-asserted" in text
    # the injected unit reproduces the computed series
    baseline = tmp_path / "base"
    assert run(["count", "--config", "zsqrt2", "--rmax", "30", "--out", str(baseline)]) == EXIT_OK
    base_rows = (baseline / "zsqrt2-counts.csv").read_text().splitlines()[2:]
    rows = text.splitlines()[2:]
    assert rows == base_rows
    # fit echoes the provenance
    assert run(["fit", "--config", str(cfg),
                "--series", str(tmp_path / "zsqrt2-counts.csv"),
                "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "zsqrt2-fit.json").read_text())
    assert doc["units"] == "user-asserted"
    # a non-unit is rejected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "zsqrt2", "r_max": 10,
                               "fundamental_unit": ["2", "1"]}))
    assert run(["count", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_user_asserted_unit_must_be_fundamental(tmp_path):
    # (7, 5) is the cube of the fundamental unit: a unit, but accepting it
    # would split every orbit into three
    cfg = tmp_path / "cube.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "r_max": 10,
                               "fundamental_unit": ["7", "5"]}))
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_algebra_box_mode_primitive_column(tmp_path):
    # box mode used to copy n_all into n_prim for quaternion shells
    from orbitcount.counting import algebra_series
    from orbitcount.presets import order_lipschitz

    cfg = tmp_path / "lip.json"
    cfg.write_text(json.dumps({"preset": "lipschitz", "r_max": 8, "mode": "box:3"}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["count", "--config", str(cfg), "--allow-heuristic", "--out", str(out1)]) == EXIT_OK
    assert run(["count", "--config", str(cfg), "--allow-heuristic", "--out", str(out2),
                "--jobs", "2"]) == EXIT_OK
    assert read(out1 / "lipschitz-counts.csv") == read(out2 / "lipschitz-counts.csv")
    series = series_from_csv(str(out1 / "lipschitz-counts.csv"))
    assert series.n_prim == algebra_series(order_lipschitz(), 8).n_prim == [1, 3, 4, 2, 6, 12, 8, 0]


def _quadratic_config(path, d, label, invariants=None):
    from orbitcount.algebra import quadratic_field_order

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
                            invariants={"oracle": "two-squares-primitive"})
    series = run_scenario(scenario)
    assert series.scale_e == 5 and series.meta["group_order"] == 4
    pipeline, _, _ = _oracle_columns(scenario, series, 30)
    points = [len(cone_section_points(sec, k)) for k in range(1, 31)]
    assert pipeline == points and points[:5] == [8, 0, 0, 0, 8]


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


def test_report_reads_its_counts_once(tmp_path, monkeypatch, capsys):
    import orbitcount.cli as cli

    reads = []

    def counting_reader(path):
        reads.append(path)
        return series_from_csv(path)

    monkeypatch.setattr(cli, "series_from_csv", counting_reader)
    assert run(["report", "--config", "gauss", "--rmax", "60", "--out", str(tmp_path)]) == EXIT_OK
    assert reads == [os.path.join(str(tmp_path), "gauss-counts.csv")]
    assert "zero diffs over 60 levels" in capsys.readouterr().out


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


def test_report_builds_the_quadric_group_once(tmp_path, monkeypatch, capsys):
    # report takes |G| from the series it counted; only oracle-compare on a
    # counts CSV, which does not carry |G|, builds the group itself
    import orbitcount.cli as cli
    import orbitcount.counting as counting
    from orbitcount.symmetry import integral_symmetries

    built = []

    def counting_group(section):
        built.append(section)
        return integral_symmetries(section)

    monkeypatch.setattr(cli, "integral_symmetries", counting_group)
    monkeypatch.setattr(counting, "integral_symmetries", counting_group)
    assert run(["report", "--config", "model-quadric", "--rmax", "40",
                "--out", str(tmp_path)]) == EXIT_OK
    assert len(built) == 1
    assert "zero diffs over 40 levels" in capsys.readouterr().out
    assert run(["oracle-compare", "--config", "model-quadric", "--rmax", "40",
                "--series", str(tmp_path / "model-quadric-counts.csv")]) == EXIT_OK
    assert len(built) == 2
    assert "zero diffs over 40 levels" in capsys.readouterr().out


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


def test_preset_fundamental_unit_stays_out_of_the_table(tmp_path):
    cfg = tmp_path / "fu.json"
    cfg.write_text(json.dumps({"preset": "zsqrt2", "fundamental_unit": ["1", "1"]}))
    for _ in range(2):
        scenario = scenario_from_config(load_config(str(cfg), {}))
        assert scenario.invariants["fundamental_unit"] == ["1", "1"]
    plain = scenario_from_config(load_config("zsqrt2", {}))
    assert "fundamental_unit" not in plain.invariants
    assert plain.invariants == {"class_number": 1, "minpoly": [-2, 0, 1], "oracle": "ideal-count:8"}


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
    read = [series.levels, series.n_prim, series.n_all, series.weighted][column][-1]
    assert type(read) is int and read == 2 ** 63 - 1


@st.composite
def count_series(draw):
    scale_e = draw(st.integers(1, 4))
    levels = sorted(draw(st.sets(st.integers(1, 200), max_size=30)))
    n_all = [draw(st.integers(0, 10 ** 6)) for _ in levels]
    n_prim = [draw(st.integers(0, c)) for c in n_all]
    weighted = [draw(st.one_of(st.integers(0, 10 ** 6), st.fractions(0, 10 ** 3, max_denominator=12)))
                for _ in levels]
    return CountSeries(family="quadric", levels=levels, n_prim=n_prim, n_all=n_all,
                       weighted=weighted, scale_e=scale_e,
                       exact=[draw(st.booleans()) for _ in levels])


@settings(max_examples=80, deadline=None)
@given(count_series())
def test_series_csv_round_trip_property(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w") as fh:
            series_to_csv(series, fh, "x")
        back = series_from_csv(path)
    assert (back.family, back.scale_e) == (series.family, series.scale_e)
    assert (back.levels, back.n_prim, back.n_all) == (series.levels, series.n_prim, series.n_all)
    assert (back.weighted, back.exact) == (series.weighted, series.exact)
