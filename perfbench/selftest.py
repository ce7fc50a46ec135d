"""Self-tests of the benchmark's tracing.

Run standalone with ``python3 perfbench/selftest.py``; every traced run
also runs them and counts a failure as an incorrect result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spq import harness, qae, statevector  # noqa: E402
from tracer import Tracer, input_key  # noqa: E402


def check_dense_gate_keys() -> None:
    """Two dense gates differing only in their matrix get different input
    keys, although ``Gate`` equality ignores the matrix."""
    c, s = np.cos(0.3), np.sin(0.3)
    a = statevector.dense((0, 1), np.eye(4))
    b = statevector.dense((0, 1), np.kron(np.eye(2), [[c, -s], [s, c]]))
    if input_key(a) == input_key(b):
        raise AssertionError("different dense gates share an input key")
    seq_a = statevector.OperatorSequence((a,), "A")
    seq_b = statevector.OperatorSequence((b,), "A")
    if input_key(seq_a) == input_key(seq_b):
        raise AssertionError("sequences of different dense gates share an input key")
    if input_key(a) != input_key(statevector.dense((0, 1), np.eye(4))):
        raise AssertionError("equal dense gates get different input keys")


def check_complete_wrapping() -> None:
    """Every spq namespace holding a traced function sees the wrapper, also
    where it was imported by name, and uninstalling restores the originals."""
    original_fast, original_seq = harness.run_dqa_fast, qae.apply_sequence
    tracer = Tracer()
    tracer.install()
    try:
        escaped = tracer.untraced_references()
        if escaped:
            raise AssertionError(f"untraced references remain: {escaped}")
        if harness.run_dqa_fast is original_fast or qae.apply_sequence is original_seq:
            raise AssertionError("a function imported by name escaped the trace")
    finally:
        tracer.uninstall()
    if harness.run_dqa_fast is not original_fast or qae.apply_sequence is not original_seq:
        raise AssertionError("uninstall did not restore the original functions")


def check_self_time() -> None:
    """Self times of nested spans add up to the outermost span's duration."""
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    traced_inner = tracer.wrap("inner", inner)

    def outer(n):
        return traced_inner(n) + traced_inner(2 * n)

    tracer.wrap("outer", outer)(20000)
    total = tracer.stats["outer"].total_s
    if tracer.stats["inner"].calls != 2:
        raise AssertionError("nested calls were not counted")
    if abs(tracer.self_time_s() - total) > 1e-9 * max(total, 1.0):
        raise AssertionError("self times do not add up to the outer span")


CHECKS = (check_dense_gate_keys, check_complete_wrapping, check_self_time)


def run_all() -> dict[str, str]:
    """Check name -> "ok" or the failure message."""
    out = {}
    for check in CHECKS:
        try:
            check()
            out[check.__name__] = "ok"
        except AssertionError as exc:
            out[check.__name__] = str(exc)
    return out


if __name__ == "__main__":
    results = run_all()
    for name, outcome in results.items():
        print(f"{name}: {outcome}")
    sys.exit(0 if all(v == "ok" for v in results.values()) else 1)
