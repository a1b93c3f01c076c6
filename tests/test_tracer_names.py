"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and attribute name; a name the package loses makes its per-layer
metric read 0 without an error.  This test imports the tracer read-only and
checks that its names resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped names already gone from the package; the tracer reports them absent
# until it is re-pointed (ROADMAP.md, open items)
KNOWN_ABSENT = {
    ("orbitcount.counting", "canonical_rep"),
    ("orbitcount.lattice", "canonical_rep"),
    ("orbitcount.cli", "cone_section_points"),
    ("orbitcount.cli", "hurwitz_shell_count"),
    ("orbitcount.cli", "two_squares_primitive"),
}


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {(module, attr) for module, attr, _ in tracer.WRAPPED
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= KNOWN_ABSENT, sorted(missing - KNOWN_ABSENT)
