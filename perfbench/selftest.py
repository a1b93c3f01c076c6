"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics this code reports.
2. The benchmark's oracles agree with the package's own at small sizes.
3. One tiny pass of every workload, traced, reports every per-layer metric
   with no failed job; one tiny untraced run reports every end-to-end metric.
   A wrapped name the package no longer has is reported as absent.
4. A series with one count corrupted is counted as a failed job, both where
   the benchmark's own check must catch it (count + fit) and where the
   program's oracle comparison must (report).
"""

import dataclasses
import json
import sys

import run
from oracles import hurwitz_shell, ideal_counts, jacobi_r4
from tracer import LAYER_METRICS
from workloads import WHY, WORKLOADS

TINY = 0.05


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WHY, "workloads differ from WHY"
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: spec[0] for name, spec in LAYER_METRICS.items()
    }


def check_oracles():
    from orbitcount import oracles

    for disc in (-4, 8, 124):
        assert ideal_counts(disc, 300) == oracles.ideal_count_series(disc, 300), disc
    assert jacobi_r4(300) == oracles.r4_series(300)
    assert hurwitz_shell(60) == [oracles.hurwitz_shell_count(m) for m in range(1, 61)]


def check_workloads():
    for workload in WORKLOADS:
        result, record = run.run_workload(workload, seed=7, seconds=0, trace=1,
                                          scale=TINY, min_passes=1)
        assert result["failed"] == 0, record["failures"]
        assert record["absent"] == [], record["absent"]
        assert set(result["metrics"]) == set(LAYER_METRICS), workload
        print(f"traced {workload}: {result['attempted']} jobs ok")
    result, record = run.run_workload("theta-cone", seed=7, seconds=0, trace=0, scale=TINY,
                                      min_passes=1, setup_samples=2)
    assert result["failed"] == 0, record["failures"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    print("untraced theta-cone: end-to-end metrics ok")


def check_absent_name_is_reported():
    from orbitcount import lattice

    saved = lattice.canonical_rep  # no workload job reaches this lookup
    del lattice.canonical_rep
    try:
        result, record = run.run_workload("orbits", seed=7, seconds=0, trace=1, scale=TINY,
                                          min_passes=1)
    finally:
        lattice.canonical_rep = saved
    assert record["absent"] == ["orbitcount.lattice.canonical_rep"], record["absent"]
    assert result["failed"] == 0, record["failures"]
    assert set(result["metrics"]) == set(LAYER_METRICS)
    print("absent wrapped name reported")


def check_corruption_counts_as_failure(cli):
    original = cli.series_to_csv

    def corrupted(series, fh, chash):
        n_all = list(series.n_all)
        n_all[-1] += 1
        return original(dataclasses.replace(series, n_all=n_all), fh, chash)

    for workload in ("orbits", "verify"):
        with run.workspace() as workdir:
            runner = run.Runner(cli, workload, 7, workdir, TINY)
            cli.series_to_csv = corrupted
            try:
                runner.run_pass(0)
            finally:
                cli.series_to_csv = original
        assert runner.attempted == len(WORKLOADS[workload])
        assert len(runner.failures) == runner.attempted, runner.failures
        print(f"corrupted {workload}: {len(runner.failures)}/{runner.attempted} jobs failed")


def main():
    check_benchmark_json()
    cli = run.import_cli()
    check_oracles()
    check_workloads()
    check_absent_name_is_reported()
    check_corruption_counts_as_failure(cli)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
