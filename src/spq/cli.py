"""Command-line entry point.

Exit codes: 0 on success, 2 on invalid configuration or arguments, 3 when a
run would exceed the simulator's qubit budget or its anneal block budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    ExperimentSpec,
    check_run,
    exact_table,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    single_run,
)
from .model import generate_instance, load_instance, save_instance
from .oracle import ORACLES
from .statevector import SimulationBudgetError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spq",
        description="Quantum-assisted estimation of two-stage stochastic "
                    "objectives (statevector simulation)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one full-pipeline run at a single x")
    run.add_argument("--instance", required=True, help="instance JSON file")
    run.add_argument("--x", type=int, required=True, help="first-stage decision")
    run.add_argument("--T", type=int, required=True, help="annealing layers")
    run.add_argument("--oracle", choices=ORACLES, default="sin")
    run.add_argument("--m", type=int, required=True, help="estimate qubits")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--amplify", type=int, default=1,
                     help="median of k independent estimates (default 1)")
    run.add_argument("--out", help="write the run record JSON here")

    exact = sub.add_parser("exact", help="classical oracles only")
    exact.add_argument("--instance", required=True)
    exact.add_argument("--out", help="write the table as CSV here")

    exp = sub.add_parser("experiment", help="run a full experiment")
    exp.add_argument("kind", choices=("fig3", "fig4", "fig5"))
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--workers", type=int, default=None,
                     help="fig3 only: worker processes (default: one per usable core)")

    gen = sub.add_parser("make-instance", help="generate a seeded instance file")
    gen.add_argument("--n-y", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    record = single_run(load_instance(args.instance), x=args.x, T=args.T,
                        oracle=args.oracle, m=args.m, seed=args.seed,
                        amplify=args.amplify)
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_exact(args) -> int:
    rows = exact_table(load_instance(args.instance))
    lines = ["x,phi,o"] + [f"{r['x']},{r['phi']:.12g},{r['o']:.12g}" for r in rows]
    best = min(rows, key=lambda r: r["o"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"# x* = {best['x']} with o(x*) = {best['o']:.12g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.workers is not None and args.kind != "fig3":
        raise ConfigError(f"--workers applies to fig3 only, not {args.kind}")
    spec = ExperimentSpec.from_json(args.config)
    if spec.kind != args.kind:
        raise ConfigError(f"config kind {spec.kind!r} does not match "
                          f"requested {args.kind!r}")
    if spec.kind == "fig3":
        experiment_fig3(spec, args.out, workers=args.workers)
    elif spec.kind == "fig4":
        experiment_fig4(spec, args.out)
    else:
        experiment_fig5(spec, args.out)
    print(f"wrote {spec.kind} results to {args.out}")
    return EXIT_OK


def _cmd_make_instance(args) -> int:
    inst = generate_instance(args.n_y, args.seed)
    check_run(inst)  # an instance the other commands reject is not written
    save_instance(inst, args.out)
    print(f"wrote instance to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "exact": _cmd_exact,
                "experiment": _cmd_experiment, "make-instance": _cmd_make_instance}
    try:
        return handlers[args.command](args)
    except SimulationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
