"""spq benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload anneal_sweep|pipeline_qae|converged_dense
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the checkout holding this file.
Every workload run happens in a fresh worker process (worker.py), one
experiment at a time (closed loop, one client, ``workers=1``, one BLAS
thread; see BLAS_PIN).

--trace 0 runs whole passes of the workload until ``--seconds`` is used up
(at least one; a pass longer than the budget runs once) and reports the
medians of ``wall_s`` and ``peak_rss_mib`` over passes and of ``setup_s``
over at least five worker start-ups.  --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics of the traced one, plus the
difference of the two wall times as ``trace_overhead_s``.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it repeat
the metrics for reading, and the full report (environment, CSV sha256,
per-op outputs, layer table) goes to .perfbench_out/ in the checkout.
``--write-reference`` records the outputs of the default seed that later
runs at that seed must reproduce; it refuses to overwrite a reference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("anneal_sweep", "pipeline_qae", "converged_dense")
DEADLINE_S = 170.0     # whole run, every worker included
SETUP_SAMPLES = 5      # worker start-ups behind the setup_s median
MIN_COVERAGE = 0.95    # traced self time over traced wall time
# One BLAS thread per worker.  With the default of one thread per core, a
# single busy process elsewhere on a 2-core machine nearly doubled the dense
# converged_dense pass (8.1 s -> 15.4 s); with one thread it stayed at 8.8 s.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def spawn(args, deadline: float, *, setup_only=False, trace=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--out-root", str(OUT_ROOT)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before the run finished")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, text=True,
                              env=dict(os.environ, **BLAS_PIN),
                              stdout=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _failed(passes: list[dict]) -> int:
    # a pass that raised outside any op still counts one failure
    return sum(max(len(p["failures"]), 1 if p["run_error"] else 0) for p in passes)


def measure(args) -> tuple[dict, list[dict], list[str]]:
    """Untraced passes until the budget is used; returns metrics, the pass
    reports and the problems found."""
    deadline = time.monotonic() + DEADLINE_S
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(args, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, deadline, setup_only=True)["setup_s"])
    metrics = {"wall_s": median(p["wall_s"] for p in passes),
               "setup_s": median(setups),
               "peak_rss_mib": median(p["peak_rss_mib"] for p in passes)}
    problems = []
    if len({json.dumps(p["csv_sha256"], sort_keys=True) for p in passes}) > 1:
        problems.append("result CSVs differ between passes of one seed")
    return metrics, passes, problems


def measure_traced(args, declared: dict[str, str]) -> tuple[dict, list[dict], list[str]]:
    """One untraced and one traced pass; returns per-layer metrics, the two
    pass reports and the problems found."""
    deadline = time.monotonic() + DEADLINE_S
    plain = spawn(args, deadline)
    traced = spawn(args, deadline, trace=True)
    trace = traced["trace"]
    wrong_units = [name for name, (_, unit) in trace["metrics"].items()
                   if declared.get(name) != unit]
    if wrong_units:
        raise BenchError(f"units differ from BENCHMARK.json: {wrong_units}")
    metrics = {name: value for name, (value, _) in trace["metrics"].items()}
    metrics["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace_coverage"] = trace["coverage"]
    problems = [f"selftest {name}: {outcome}"
                for name, outcome in trace["selftest"].items() if outcome != "ok"]
    if trace["coverage"] < MIN_COVERAGE:
        problems.append(f"traced layers cover {trace['coverage']:.3f} of the traced "
                        f"wall time, below {MIN_COVERAGE}")
    if trace["untraced_references"]:
        problems.append(f"calls escape the trace: {trace['untraced_references']}")
    if plain["csv_sha256"] != traced["csv_sha256"]:
        problems.append("tracing changed the result CSVs")
    return metrics, [plain, traced], problems


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        decl = json.load(fh)
    return {m["name"]: m["unit"] for m in decl["per_layer" if trace else "end_to_end"]}


def write_reference(args) -> int:
    path = HERE / "reference" / f"{args.workload}.json"
    if path.exists():
        raise BenchError(f"{path} exists; delete it to record a new reference")
    if args.seed is not None:
        raise BenchError("a reference is recorded at the default seed only")
    report = spawn(args, time.monotonic() + DEADLINE_S)
    if report["failures"] or report["run_error"]:
        raise BenchError(f"invariants fail, not recording: {report['failures']}")
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": report["seed"],
                   "csv_sha256": report["csv_sha256"], "ops": report["records"]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="spq benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the shipped config's master seed)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spq" / "__init__.py").is_file():
        print(f"error: no spq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(args)
        declared = declared_metrics(bool(args.trace))
        if args.trace:
            values, reports, problems = measure_traced(args, declared)
        else:
            values, reports, problems = measure(args)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"error: measured metrics {sorted(set(values) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1

    failures = {k: v for p in reports for k, v in p["failures"].items()}
    problems += [p["run_error"] for p in reports if p["run_error"]]
    attempted = sum(p["attempted"] for p in reports)
    failed = _failed(reports)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    OUT_ROOT.mkdir(exist_ok=True)
    report_path = OUT_ROOT / (f"{args.workload}-seed{reports[0]['seed']}"
                              f"-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "metrics": metrics, "problems": problems, "failures": failures,
                   "passes": reports}, fh, indent=1, sort_keys=True)
        fh.write("\n")

    first = reports[0]
    print(f"workload {args.workload}  seed {first['seed']}  worker runs {len(reports)}  "
          f"reference checked: {first['reference_checked']}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in first["quality"].items():
        print(f"  quality {name:40s} {value:>16.6g}")
    for text in problems + [f"{k}: {v}" for k, v in list(failures.items())[:10]]:
        print(f"  FAIL {text}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
