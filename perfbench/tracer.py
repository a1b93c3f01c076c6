"""Spans around the package's public functions, recorded from outside it.

For a traced run the benchmark replaces each function below, in the module
where its caller looks it up, with a wrapper that records a span; `restore`
puts the originals back.  A name the package no longer has is reported as
absent and its metrics read 0.

Spans nest: a span's self time is its duration minus the time its child spans
cover.  Spans are aggregated in memory by job and call path
(job, outer name, ..., name) into calls, total and self seconds.
"""

import importlib
from time import perf_counter

# (module, attribute, span name); the span's layer is the part before the dot
WRAPPED = (
    ("orbitcount.cli", "validate_scenario", "validation.validate"),
    ("orbitcount.counting", "finite_units", "orders.units"),
    ("orbitcount.cli", "finite_units", "orders.units"),
    ("orbitcount.counting", "fundamental_unit", "orders.units"),
    ("orbitcount.lattice", "fundamental_unit", "orders.units"),
    ("orbitcount.counting", "canonical_rep", "orders.canonical_rep"),
    ("orbitcount.lattice", "canonical_rep", "orders.canonical_rep"),
    ("orbitcount.counting", "integral_symmetries", "symmetry.group"),
    ("orbitcount.counting", "ball_points", "shells.ball_points"),
    ("orbitcount.counting", "theta_series", "shells.theta_series"),
    ("orbitcount.counting", "definite_shell", "shells.definite_shell"),
    ("orbitcount.orders", "definite_shell", "shells.definite_shell"),
    ("orbitcount.lattice", "definite_shell", "shells.definite_shell"),
    ("orbitcount.counting", "conic_points_up_to", "lattice.conic_points"),
    ("orbitcount.counting", "cone_section_points", "lattice.cone_section_points"),
    ("orbitcount.cli", "cone_section_points", "lattice.cone_section_points"),
    ("orbitcount.counting", "normform_series", "counting.series"),
    ("orbitcount.counting", "quadric_series", "counting.series"),
    ("orbitcount.counting", "algebra_series", "counting.series"),
    ("orbitcount.counting", "aggregate_levels", "counting.aggregate"),
    ("orbitcount.cli", "series_to_csv", "cli.csv_write"),
    ("orbitcount.cli", "series_from_csv", "cli.csv_read"),
    ("orbitcount.cli", "fit_power", "fitting.fit"),
    ("orbitcount.cli", "ideal_count_series", "oracles.oracle"),
    ("orbitcount.cli", "r4_series", "oracles.oracle"),
    ("orbitcount.cli", "hurwitz_shell_count", "oracles.oracle"),
    ("orbitcount.cli", "two_squares_primitive", "oracles.oracle"),
)

LAYERS = ("validation", "orders", "symmetry", "shells", "lattice", "counting", "cli",
          "fitting", "oracles")

# per-layer metric -> (unit, end-to-end metric it should move, workloads)
LAYER_METRICS = {
    "counting.series_self_s": ("s", "batch_s", "orbits theta-cone"),
    "orders.canonical_rep_s": ("s", "batch_s", "orbits"),
    "orders.canonical_rep_calls": ("count", "batch_s", "orbits"),
    "counting.orbits_per_point": ("ratio", "batch_s", "orbits theta-cone"),
    "shells.ball_points_s": ("s", "batch_s peak_rss_mb", "orbits"),
    "shells.ball_points_rows": ("count", "batch_s peak_rss_mb", "orbits"),
    "shells.theta_series_s": ("s", "batch_s", "theta-cone"),
    "lattice.conic_points_s": ("s", "batch_s peak_rss_mb", "theta-cone"),
    "lattice.conic_points_rows": ("count", "batch_s peak_rss_mb", "theta-cone"),
    "counting.aggregate_s": ("s", "batch_s", "theta-cone"),
    "cli.csv_write_s": ("s", "batch_s", "theta-cone"),
    "cli.csv_read_s": ("s", "batch_s", "theta-cone"),
    "cli.csv_bytes": ("bytes", "batch_s", "theta-cone"),
    "fitting.fit_s": ("s", "batch_s", "theta-cone"),
    "oracles.oracle_s": ("s", "batch_s", "verify"),
    "oracles.oracle_calls": ("count", "batch_s", "verify"),
    "lattice.cone_section_points_s": ("s", "batch_s", "verify"),
    "lattice.cone_section_points_calls": ("count", "batch_s", "verify"),
    "shells.definite_shell_s": ("s", "batch_s", "verify theta-cone"),
    "shells.definite_shell_calls": ("count", "batch_s", "verify theta-cone"),
    "validation.validate_s": ("s", "setup_s batch_s", "all"),
    "orders.units_s": ("s", "setup_s batch_s", "all"),
    "symmetry.group_s": ("s", "setup_s batch_s", "all"),
    **{f"{layer}.share": ("ratio", "batch_s", "all") for layer in LAYERS},
    "trace.overhead": ("ratio", "none", "all"),
}

# metric -> (span name, what to add up over that span's calls)
_FROM_SPANS = {
    "counting.series_self_s": ("counting.series", "self"),
    "orders.canonical_rep_s": ("orders.canonical_rep", "total"),
    "orders.canonical_rep_calls": ("orders.canonical_rep", "calls"),
    "shells.ball_points_s": ("shells.ball_points", "total"),
    "shells.ball_points_rows": ("shells.ball_points", "rows"),
    "shells.theta_series_s": ("shells.theta_series", "total"),
    "lattice.conic_points_s": ("lattice.conic_points", "total"),
    "lattice.conic_points_rows": ("lattice.conic_points", "rows"),
    "counting.aggregate_s": ("counting.aggregate", "total"),
    "cli.csv_write_s": ("cli.csv_write", "total"),
    "cli.csv_read_s": ("cli.csv_read", "total"),
    "fitting.fit_s": ("fitting.fit", "total"),
    "oracles.oracle_s": ("oracles.oracle", "total"),
    "oracles.oracle_calls": ("oracles.oracle", "calls"),
    "lattice.cone_section_points_s": ("lattice.cone_section_points", "total"),
    "lattice.cone_section_points_calls": ("lattice.cone_section_points", "calls"),
    "shells.definite_shell_s": ("shells.definite_shell", "total"),
    "shells.definite_shell_calls": ("shells.definite_shell", "calls"),
    "validation.validate_s": ("validation.validate", "total"),
    "orders.units_s": ("orders.units", "total"),
    "symmetry.group_s": ("symmetry.group", "total"),
}


def _rows(result):
    return len(result[0])


def _orbits(result):
    # primitive orbits for the quadric section (its points are primitive),
    # all orbits for norm forms; quaternion shells enumerate no points
    if result.family == "quadric":
        return sum(result.n_prim)
    if result.family == "normform":
        return sum(result.n_all)
    return 0


# span name -> what to count from the wrapped function's return value
_RESULT_COUNTS = {
    "shells.ball_points": ("rows", _rows),
    "lattice.conic_points": ("rows", _rows),
    "counting.series": ("orbits", _orbits),
}


class Tracer:
    def __init__(self):
        self.job = "setup"
        self._stack = []
        self.stats = {}     # (job, name, ..., name) -> [calls, total_s, self_s]
        self.counts = {}    # (span name, counter) -> value
        self._saved = []
        self.absent = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack
        path = (stack[-1][0] if stack else (self.job,)) + (name,)
        frame = [path, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += total
            st = self.stats.get(path)
            if st is None:
                st = self.stats[path] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += total
            st[2] += total - frame[1]

    def _wrapper(self, name, fn):
        counter = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                key = (name, counter[0])
                self.counts[key] = self.counts.get(key, 0) + counter[1](result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self):
        """Hand over and reset the spans and counts recorded so far."""
        stats, counts = self.stats, self.counts
        self.stats, self.counts = {}, {}
        return stats, counts


def pass_metrics(stats, counts, wall_s):
    """The per-layer metrics of one traced pass that took wall_s seconds.
    Totals add up only outermost spans of a name, so recursion never counts
    twice; self times add up every span."""
    agg = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for path, (calls, total, self_s) in stats.items():
        name = path[-1]
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
        a = agg.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        a["calls"] += calls
        a["self"] += self_s
        if name not in path[:-1]:
            a["total"] += total
    for (name, counter), value in counts.items():
        agg.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})[counter] = value
    out = {}
    for metric, (name, field) in _FROM_SPANS.items():
        out[metric] = agg.get(name, {}).get(field, 0)
    points = (out["shells.ball_points_rows"] + out["lattice.conic_points_rows"]
              + out["orders.canonical_rep_calls"])
    orbits = agg.get("counting.series", {}).get("orbits", 0)
    out["counting.orbits_per_point"] = orbits / points if points else 0.0
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / wall_s if wall_s else 0.0
    return out


def span_table(stats):
    """{job: {"outer/inner/name": {calls, total_s, self_s}}} for the record."""
    table = {}
    for path, (calls, total, self_s) in sorted(stats.items()):
        table.setdefault(path[0], {})["/".join(path[1:])] = {
            "calls": calls, "total_s": total, "self_s": self_s,
        }
    return table
