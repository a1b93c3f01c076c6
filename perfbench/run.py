"""The orbitcount benchmark: run one workload from a seed and check every output.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory and driven in-process through `orbitcount.cli.main` with
`--jobs 1`.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count jobs; a job fails when the CLI raises or exits
non-zero, or when an exact check of its output fails.

--trace 0 reports the end-to-end metrics: setup_s (upper quartile of
several set-ups, one in this process and the rest in fresh child processes),
batch_s (90th percentile of the wall seconds of one pass, after an untimed
warm-up pass) and peak_rss_mb (peak resident memory of this process).  Upper
percentiles are used because a shared host runs mostly in one loaded state
with shorter, faster stretches between; the median moves with how much of a
run falls in those stretches, an upper percentile much less (README.md).
--trace 1 spends half of --seconds on untraced passes and half on traced
ones, and reports the per-layer metrics of tracer.py as medians over the
traced passes.

A record of the run (machine, seed, per-job r and checksums, pass times,
spans) is written to .perfbench/results/ in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, check_fit, check_prefix, check_series, oracle_columns
from tracer import LAYER_METRICS, Tracer, pass_metrics, span_table
from workloads import WORKLOADS, JobPlan, config_arg, max_r

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 5
MIN_PASSES = 3
WARMUP_PASSES = 1
CHILD_TIMEOUT_S = 30
END_TO_END = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


@contextlib.contextmanager
def workspace():
    """A scratch directory in the checkout for the CLI's output files."""
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield str(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects arguments this way
            rc = e.code if isinstance(e.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import orbitcount
        import orbitcount.cli
    except ImportError as e:
        raise SetupError(f"cannot import orbitcount from {src}: {e}") from e
    if src.resolve() not in Path(orbitcount.__file__).resolve().parents:
        raise SetupError(f"orbitcount was imported from {orbitcount.__file__}, not from {src}")
    return orbitcount.cli


def setup(workload, workdir):
    """Import the package, then build and validate each scenario of the
    workload once through the CLI.  Returns (cli module, seconds)."""
    start = perf_counter()
    cli = import_cli()
    for job in WORKLOADS[workload]:
        argv =["validate", "--config", config_arg(job, workdir), "--rmax", str(job.nominal_r)]
        rc, out, err = call_cli(cli, argv)
        if rc != 0:
            raise SetupError(f"validate {job.label} exited {rc}: {out}{err}")
    return cli, perf_counter() - start


def setup_in_child(workload, seed):
    """Seconds one fresh interpreter takes for setup()."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SetupError(f"set-up child took over {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise SetupError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and checks every job's output."""

    def __init__(self, cli, workload, seed, workdir, scale=1.0):
        self.cli = cli
        self.workdir = workdir
        self.plan = JobPlan(workload, seed, scale)
        self.expected = {job.label: oracle_columns(job.oracle, max_r(job, scale))
                         for job in self.plan.jobs}
        self.reference = {}
        self.tracer = None
        self.attempted = 0
        self.failures = []

    def _invoke(self, argv):
        if self.tracer is None:
            return call_cli(self.cli, argv)
        return self.tracer.span(f"job.{argv[0]}", call_cli, self.cli, argv)

    def run_job(self, job, r):
        """Run the job's CLI commands; returns (timed seconds, stdout texts)."""
        base = ["--config", config_arg(job, self.workdir), "--rmax", str(r),
                "--jobs", "1", "--out", self.workdir]
        if job.command == "report":
            commands = [["report", *base]]
        else:
            csv_path = os.path.join(self.workdir, f"{job.label}-counts.csv")
            commands = [["count", *base], ["fit", *base, "--series", csv_path]]
        seconds, outs = 0.0, []
        for argv in commands:
            start = perf_counter()
            rc, out, err = self._invoke(argv)
            seconds += perf_counter() - start
            if rc != 0:
                raise CheckFailed(f"{argv[0]} exited {rc}: {err.strip()[-300:]}")
            outs.append(out)
        return seconds, outs

    def check_job(self, job, r, outs):
        with open(os.path.join(self.workdir, f"{job.label}-counts.csv")) as fh:
            text = fh.read()
        header, rows, record = check_series(text, r, self.expected[job.label])
        self.reference[job.label] = check_prefix(self.reference.get(job.label), rows)
        with open(os.path.join(self.workdir, f"{job.label}-fit.json")) as fh:
            record.update(check_fit(fh.read(), job.expected_lambda, header.get("config_hash")))
        if job.command == "report" and "zero diffs" not in outs[0]:
            raise CheckFailed("report did not end with a zero-diff oracle comparison")
        record["csv_bytes"] = len(text)
        return record

    def run_pass(self, index):
        """One pass: returns (timed seconds, per-job records)."""
        wall, records = 0.0, []
        for job, r in self.plan.pass_jobs(index):
            self.attempted += 1
            entry = {"job": job.label, "r": r}
            if self.tracer is not None:
                self.tracer.job = job.label
            try:
                seconds, outs = self.run_job(job, r)
                wall += seconds
                entry.update(self.check_job(job, r, outs), seconds=seconds)
            except Exception as e:  # a failing job is counted and the run goes on
                entry["error"] = f"{type(e).__name__}: {e}"
                self.failures.append(entry)
            records.append(entry)
        return wall, records


def run_passes(runner, seconds, min_passes, on_pass=None, warmup=0, first=0):
    """`warmup` untimed passes, then timed passes until `seconds` have gone
    by and at least min_passes ran.  Every pass is checked."""
    passes = []
    for index in range(first, first + warmup):
        wall, records = runner.run_pass(index)
        passes.append({"index": index, "wall_s": wall, "warmup": True, "jobs": records})
    walls = []
    start = perf_counter()
    index = first + warmup
    while len(walls) < min_passes or perf_counter() - start < seconds:
        wall, records = runner.run_pass(index)
        walls.append(wall)
        passes.append({"index": index, "wall_s": wall, "jobs": records})
        if on_pass is not None:
            on_pass(wall, records)
        index += 1
    return walls, passes


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "p90": values[0],
                "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return {"median": med, "q1": q1, "q3": q3, "p90": p90, "n": len(values)}


def run_untraced(runner, seconds, min_passes, setup_samples):
    walls, passes = run_passes(runner, seconds, min_passes, warmup=WARMUP_PASSES)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": summary(setup_samples)["q3"],
        "batch_s": summary(walls)["p90"],
        "peak_rss_mb": peak_kib / 1024,
    }
    record = {"batch_s": summary(walls), "setup_s": summary(setup_samples), "passes": passes}
    return metrics, record


def run_traced(runner, seconds, min_passes):
    """Untraced passes, then the same passes traced; per-layer medians."""
    plain_walls, plain_passes = run_passes(runner, seconds / 2, min_passes,
                                           warmup=WARMUP_PASSES)
    tracer = Tracer()
    per_pass, all_stats = [], {}

    def collect(wall, records):
        stats, counts = tracer.take()
        m = pass_metrics(stats, counts, wall)
        m["cli.csv_bytes"] = sum(rec.get("csv_bytes", 0) for rec in records)
        per_pass.append(m)
        for path, (calls, total, self_s) in stats.items():
            acc = all_stats.setdefault(path, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s

    tracer.install()
    runner.tracer = tracer
    try:
        traced_walls, traced_passes = run_passes(runner, 0, len(plain_walls), collect,
                                                 first=WARMUP_PASSES)
    finally:
        runner.tracer = None
        tracer.restore()
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in LAYER_METRICS if name != "trace.overhead"}
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    record = {
        "batch_s_untraced": summary(plain_walls),
        "batch_s_traced": summary(traced_walls),
        "absent": tracer.absent,
        "layer_metrics": {name: {"unit": unit, "moves": moves, "workloads": workloads}
                          for name, (unit, moves, workloads) in LAYER_METRICS.items()},
        "spans": span_table(all_stats),
        "passes": plain_passes + traced_passes,
    }
    return metrics, record


def machine_facts():
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    getconf = shutil.which("getconf")
    for key, name in (("l2_bytes", "LEVEL2_CACHE_SIZE"), ("l3_bytes", "LEVEL3_CACHE_SIZE")):
        value = None
        if getconf:
            proc = subprocess.run([getconf, name], capture_output=True, text=True, timeout=10)
            value = int(proc.stdout) if proc.stdout.strip().isdigit() else None
        facts[key] = value
    return facts


def run_workload(workload, seed, seconds, trace, scale=1.0, min_passes=MIN_PASSES,
                 setup_samples=SETUP_SAMPLES):
    """Set up, measure and check one workload; returns (result line, record)."""
    with workspace() as workdir:
        cli, setup_s = setup(workload, workdir)
        runner = Runner(cli, workload, seed, workdir, scale)
        if trace:
            metrics, record = run_traced(runner, seconds, min_passes)
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        else:
            samples = [setup_s] + [setup_in_child(workload, seed)
                                   for _ in range(setup_samples - 1)]
            metrics, record = run_untraced(runner, seconds, min_passes, samples)
            units = END_TO_END
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace, scale=scale,
        machine=machine_facts(), fail_ratio=failed / runner.attempted,
        failures=runner.failures,
    )
    return result, record


def write_record(record):
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print the seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_only:
            with workspace() as workdir:
                print(setup(args.workload, workdir)[1])
            return 0
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    path = write_record(record)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"fail_ratio={record['fail_ratio']} record={path.relative_to(ROOT)}")
    for failure in record["failures"]:
        print(f"FAILED {failure['job']} r={failure['r']}: {failure['error']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
