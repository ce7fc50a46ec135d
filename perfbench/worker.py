"""One benchmark process: set up one workload, run it once, check it.

Started by run.py in a fresh interpreter for every run so that peak memory
and set-up time belong to one workload run.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports, config parsing, instance generation
and loading the reference.  The result is one JSON object on the last line
of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _blas() -> dict:
    info = {"name": None, "version": None, "config": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # numpy does not expose the thread count; ask the loaded OpenBLAS
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["threads"], info["config"] = threads(), config().decode()
                return info
    return info


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(), "src_sha256": _source_sha256(),
            "workers": 1}


def _csv_hashes(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*.csv"))}


def _trace_report(tracer: Tracer, wall_s: float, escaped: list[str]) -> dict:
    layers = {}
    for span, stat in tracer.stats.items():
        layers[span] = {"calls": stat.calls, "total_s": stat.total_s,
                        "self_s": stat.self_s, "counters": stat.counters}
        if stat.keys:
            # how often each distinct input was computed, most repeated first
            layers[span]["calls_per_distinct_input"] = sorted(stat.keys.values(),
                                                               reverse=True)
    attributed = wall_s - tracer.bookkeeping_s
    return {"layers": layers,
            "metrics": {k: list(v) for k, v in layer_metrics(tracer.stats).items()},
            "bookkeeping_s": tracer.bookkeeping_s,
            "coverage": tracer.self_time_s() / attributed if attributed > 0 else 0.0,
            "untraced_references": escaped,
            "selftest": selftest.run_all()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-root", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(ROOT, args.seed)
    reference = workloads.load_reference(args.workload, workload.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - args.t0
    result = {"workload": args.workload, "seed": workload.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    args.out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_root) as tmp:
        run_error = None
        start = time.perf_counter()
        try:
            workload.run(Path(tmp))
        except Exception as exc:  # the op records say which ops it took down
            traceback.print_exc()
            run_error = repr(exc)
        wall_s = time.perf_counter() - start
        csv_sha256 = _csv_hashes(Path(tmp))
    if tracer is not None:
        escaped = tracer.untraced_references()
        tracer.uninstall()

    ops = workload.ops()
    if reference is not None:
        workloads.check_reference(ops, reference)
    result.update(
        wall_s=wall_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        run_error=run_error,
        attempted=len(ops),
        failures={op.id: op.error for op in ops if op.error is not None},
        reference_checked=reference is not None,
        quality=workload.quality(),
        csv_sha256=csv_sha256,
        env=environment(),
        records={op.id: op.record for op in ops},
    )
    if tracer is not None:
        result["trace"] = _trace_report(tracer, wall_s, escaped)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
