"""The benchmark's tracing self-tests run against the current src/: a
renamed or moved function that ``perfbench/tracer.py`` looks up fails here."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_selftests_pass():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import selftest

    results = selftest.run_all()
    assert results and all(v == "ok" for v in results.values()), results
