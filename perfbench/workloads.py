"""Workload definitions and seeded job generation.

A workload is a fixed list of jobs.  A job is one user-level operation on one
scenario: `count` then `fit`, or `report` (validate, count, fit and
oracle-compare).  A pass runs every job of the workload once, in an order the
seed shuffles, and draws each job's r within +-10 % of its nominal size.

The r draws of successive passes follow a golden-ratio sequence from a seeded
phase, so any run of n passes covers the +-10 % band evenly whatever the seed;
the median pass time then depends on the seed only through that phase.
"""

import json
import os
import random
from dataclasses import dataclass

GOLDEN = 0.6180339887498949
R_SPREAD = 0.10
MIN_R = 20  # the fit needs eight distinct sample radii in (r/10, r)

# Z[sqrt(31)]: class number one, fundamental unit 1520 + 273 sqrt(31) of norm
# +1, so with absolute norms the orbit counts are the ideal counts for D = 124.
ZSQRT31_CONFIG = {
    "family": "normform",
    "label": "zsqrt31",
    "norm_degree": 2,
    "unit_rank": 1,
    "absolute_norm": True,
    "algebra": {
        "dim": 2,
        "kind": "number-field",
        "unity": ["1", "0"],
        "structure_constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["31", "0"]]],
    },
    "invariants": {"class_number": 1, "minpoly": [-31, 0, 1]},
}


@dataclass(frozen=True)
class Job:
    label: str          # output file stem the CLI derives from the config
    config: object      # preset name, or a config document written to JSON
    nominal_r: int
    command: str        # "count+fit" or "report"
    oracle: tuple       # ("ideal", D) | ("r4",) | ("hurwitz",) | ("cone",)
    expected_lambda: int


def _job(label, r, command, oracle, lam, config=None):
    return Job(label, config or label, r, command, oracle, lam)


# Nominal sizes keep one pass near 2 s (3.5 s for theta-cone) on one core of
# a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4), so a 32 s run holds about ten
# passes or more.  The quaternion (theta) and quadric (cone) jobs share one
# workload: neither reaches the norm-form orbit kernel, and three workloads
# leave room for runs long enough to be steady on a shared host.
WORKLOADS = {
    "orbits": (
        _job("gauss", 8000, "count+fit", ("ideal", -4), 1),
        _job("zsqrt2", 8000, "count+fit", ("ideal", 8), 1),
        _job("zsqrt31", 40, "count+fit", ("ideal", 124), 1, config=ZSQRT31_CONFIG),
    ),
    "theta-cone": (
        _job("lipschitz", 8000, "count+fit", ("r4",), 2),
        _job("hurwitz", 4000, "count+fit", ("hurwitz",), 2),
        _job("model-quadric", 35000, "count+fit", ("cone",), 1),
    ),
    "verify": (
        _job("gauss", 1500, "report", ("ideal", -4), 1),
        _job("zsqrt2", 1500, "report", ("ideal", 8), 1),
        _job("lipschitz", 1500, "report", ("r4",), 2),
        _job("model-quadric", 1500, "report", ("cone",), 1),
        _job("hurwitz", 500, "report", ("hurwitz",), 2),
    ),
}

WHY = {
    "orbits": "norm-form orbit reduction (definite torsion sweep and Pell-unit canonical_rep); "
              "Z[sqrt31] costs by its fundamental unit, not by r",
    "theta-cone": "quaternion theta_series plus the quadric cone's conic points, CSV I/O and "
                  "Fraction-weighted fit; largest arrays; never reaches canonical_rep",
    "verify": "short report jobs on all five presets: oracles, per-level cone_section_points and "
              "fixed per-scenario costs dominate",
}


def max_r(job, scale=1.0):
    return max(MIN_R, round(job.nominal_r * scale * (1 + R_SPREAD)) + 1)


class JobPlan:
    """The seeded sequence of passes of one workload."""

    def __init__(self, workload, seed, scale=1.0):
        self.jobs = WORKLOADS[workload]
        self.scale = scale
        self.rng = random.Random(f"{workload}:{seed}")
        self.phase = {job.label: self.rng.random() for job in self.jobs}
        self.orders = []

    def r_for(self, job, index):
        u = (self.phase[job.label] + index * GOLDEN) % 1.0
        r = round(job.nominal_r * self.scale * (1 - R_SPREAD + 2 * R_SPREAD * u))
        return max(MIN_R, r)

    def pass_jobs(self, index):
        """[(job, r)] for pass `index`, in this pass's order."""
        while len(self.orders) <= index:
            self.orders.append(self.rng.sample(range(len(self.jobs)), len(self.jobs)))
        return [(self.jobs[i], self.r_for(self.jobs[i], index)) for i in self.orders[index]]


def config_arg(job, workdir):
    """The --config argument for a job: the preset name, or a JSON file."""
    if isinstance(job.config, str):
        return job.config
    path = os.path.join(workdir, f"{job.label}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(job.config, fh, sort_keys=True)
    return path
