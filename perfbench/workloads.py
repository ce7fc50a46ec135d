"""The benchmark's workloads.

Each workload drives spq only through its public functions, in one of
three shapes whose time sits in different layers:

- anneal_sweep: the fig3 annealing-time sweep.  Its time goes to the
  2^20-amplitude feasible-subspace anneal at n_y = 10 (``run_dqa_fast``,
  ``cost_diagonal``, ``expectation_HQ``); it never applies a gate.
- pipeline_qae: the fig5 full pipeline on the shipped configs, twice.  Many
  tiny gates on at most 2^13 amplitudes, so per-call overhead of
  ``statevector.apply`` inside ``qpe_state`` dominates.  The second
  repetition recomputes the first one's phase-estimation states.
- converged_dense: estimation on brute-force-converged states (fig4 at the
  shipped n_y = 3 and at the exact oracle's cap n_y = 5, then the exact
  outer loop at n_y = 6).  A few huge dense gates, 10,000-shot sampling,
  the Monte Carlo baseline and 80k-row CSV output; it sets peak memory.

A workload is built from a seed, by default the shipped config's master
seed (``setup``), runs once (``run``, the timed
part), then reports its ops.  ``run`` looks spq functions up on their
module at call time, so a traced run sees every call.  An op fails when it
raised, never ran or broke an invariant; ``check_reference`` adds
deviation from the recorded outputs of the reference seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from statistics import median

import numpy as np

from spq import harness
from spq.harness import ExperimentSpec, derive_seed
from spq.model import generate_instance, model_from_instance

DELTA_TOL = 1e-9      # delta = <H_Q> - phi >= -DELTA_TOL (variational bound)
EXACT_TOL = 1e-9      # |<H_Q> - phi| on the brute-force-converged state
GRID_TOL = 1e-12      # distance of an estimate from its readout grid point
REFERENCE_TOL = 1e-9  # float deviation from the reference outputs


@dataclasses.dataclass
class Op:
    """One unit of work: ``record`` holds the outputs compared against the
    reference; ``error`` says why the op failed, or is None."""

    id: str
    record: dict | None = None
    error: str | None = None


class OuterLoopRecorder:
    """Captures the result of every ``outer_loop`` call the harness makes,
    in order; a raising call is recorded with its exception."""

    def __init__(self):
        self.calls: list[tuple[dict, object]] = []

    def __enter__(self):
        inner = self._inner = harness.outer_loop

        def recorded(model, dist, T, *args, **kwargs):
            info = {"n_y": model.n_y, "T": T, "seed_tag": kwargs.get("seed_tag", ())}
            try:
                result = inner(model, dist, T, *args, **kwargs)
            except Exception as exc:
                self.calls.append((info, exc))
                raise
            self.calls.append((info, result))
            return result

        harness.outer_loop = recorded
        return self

    def __exit__(self, *exc_info):
        harness.outer_loop = self._inner
        return False


def _delta_error(rows) -> str | None:
    worst = min(r["delta"] for r in rows)
    if worst < -DELTA_TOL:
        return f"variational bound broken: delta = {worst:.3e}"
    return None


def _fill(planned: list[str], done: dict[str, Op]) -> list[Op]:
    """Planned ops in order; one that produced nothing failed."""
    extra = sorted(set(done) - set(planned))
    ops = [done.get(op_id) or Op(op_id, error="did not run") for op_id in planned]
    return ops + [Op(op_id, error="not planned") for op_id in extra]


def _config(root: Path, name: str, seed: int | None) -> ExperimentSpec:
    """A shipped config; ``seed`` replaces its master seed unless None."""
    spec = ExperimentSpec.from_json(root / "configs" / name)
    return spec if seed is None else dataclasses.replace(spec, master_seed=seed)


class AnnealSweep:
    """fig3, expectation mode, one instance per shipped n_y; op = one
    ``outer_loop`` call (one T rule of one instance)."""

    name = "anneal_sweep"

    def setup(self, root: Path, seed: int | None) -> None:
        spec = _config(root, "fig3.json", seed)
        self.seed = spec.master_seed
        self.spec = dataclasses.replace(spec, n_instances=1)
        self.planned = [f"n{n_y}_T{T}" for n_y in self.spec.n_y_values
                        for T in (n_y, n_y * n_y)]
        self.recorder = OuterLoopRecorder()

    def run(self, out_dir: Path) -> None:
        with self.recorder:
            harness.experiment_fig3(self.spec, out_dir, workers=1)

    def ops(self) -> list[Op]:
        done = {}
        for info, outcome in self.recorder.calls:
            op = Op(f"n{info['n_y']}_T{info['T']}")
            if isinstance(outcome, Exception):
                op.error = f"raised {outcome!r}"
            else:
                op.record = {"x_star": outcome.x_star, "x_est": outcome.x_est,
                             "exp_hq": [r["exp_hq"] for r in outcome.rows]}
                op.error = _delta_error(outcome.rows)
            done[op.id] = op
        return _fill(self.planned, done)

    def quality(self) -> dict:
        loops = [r for _, r in self.recorder.calls if not isinstance(r, Exception)]
        return _loop_quality(loops)


def _loop_quality(loops) -> dict:
    if not loops:
        return {}
    return {"objective_rel_error": median(r.rel_error_sum for r in loops),
            "minimum_found_rate": sum(r.x_est == r.x_star for r in loops) / len(loops),
            "outer_loops": len(loops)}


class PipelineQae:
    """fig5 on the shipped configs with two repetitions; op = one x point."""

    name = "pipeline_qae"
    repetitions = 2

    def setup(self, root: Path, seed: int | None) -> None:
        spec = _config(root, "fig5.json", seed)
        self.seed = spec.master_seed
        self.spec = dataclasses.replace(spec, n_repetitions=self.repetitions)
        # generate_instance sets demand d = n_y, so x runs over 0..n_y
        self.planned = [f"c{ci}_r{rep}_x{x}"
                        for ci, (n_y, _, _) in enumerate(self.spec.configs)
                        for rep in range(self.repetitions) for x in range(n_y + 1)]
        self.recorder = OuterLoopRecorder()

    def run(self, out_dir: Path) -> None:
        with self.recorder:
            harness.experiment_fig5(self.spec, out_dir)

    def ops(self) -> list[Op]:
        done = {}
        for info, outcome in self.recorder.calls:
            _, ci, rep = info["seed_tag"]
            prefix = f"c{ci}_r{rep}_x"
            if isinstance(outcome, Exception):
                for op_id in self.planned:
                    if op_id.startswith(prefix):
                        done[op_id] = Op(op_id, error=f"raised {outcome!r}")
                continue
            for row in outcome.rows:
                op = Op(prefix + str(row["x"]))
                op.record = {"b": row["b"], "a_hat": row["a_hat"],
                             "exp_hq": row["exp_hq"], "phi_est": row["phi_est"],
                             "x_star": outcome.x_star, "x_est": outcome.x_est}
                op.error = _delta_error([row]) or _grid_error(row["a_hat"], row["b"],
                                                              row["m"])
                done[op.id] = op
        return _fill(self.planned, done)

    def quality(self) -> dict:
        loops = [r for _, r in self.recorder.calls if not isinstance(r, Exception)]
        return _loop_quality(loops)


def _grid_error(a_hat: float, b: int, m: int) -> str | None:
    M = 2 ** m
    if not 0 <= b < M:
        return f"readout b = {b} outside [0, {M})"
    if abs(a_hat - math.sin(math.pi * b / M) ** 2) > GRID_TOL:
        return f"estimate {a_hat!r} is not sin^2(pi {b} / {M})"
    return None


def _batch_record(values: np.ndarray, m: int, method: str) -> tuple[dict, str | None]:
    """Grid indices of an estimator batch: j with a = sin^2(pi j / 2^m) for
    QAE, k with a = k / 2^(m+1) for Monte Carlo at the equal shot budget."""
    if method == "qae":
        M = 2 ** m
        grid = np.rint(np.arcsin(np.sqrt(values)) * M / np.pi).astype(np.int64)
        off = np.abs(np.sin(np.pi * grid / M) ** 2 - values)
    else:
        shots = 2 ** (m + 1)
        grid = np.rint(values * shots).astype(np.int64)
        off = np.abs(grid / shots - values)
    record = {"grid_sha256": hashlib.sha256(grid.tobytes()).hexdigest(),
              "mean": float(values.mean())}
    worst = float(off.max()) if off.size else 0.0
    error = f"{method} estimate off its grid by {worst:.3e}" if worst > GRID_TOL else None
    return record, error


class ConvergedDense:
    """fig4 shipped (n_y = 3), fig4 at n_y = 5, exact outer loop at n_y = 6;
    op = one (m, method) estimator batch or one exact-mode x point."""

    name = "converged_dense"
    exact_n_y = 6

    def setup(self, root: Path, seed: int | None) -> None:
        spec = _config(root, "fig4.json", seed)
        self.seed = spec.master_seed
        self.specs = {"fig4": spec, "fig4_ny5": dataclasses.replace(spec, n_y=5)}
        inst = generate_instance(self.exact_n_y,
                                 derive_seed(self.seed, "exact", self.exact_n_y))
        self.model, self.dist = model_from_instance(inst)
        self.planned = [f"{tag}_m{m}_{method}" for tag, s in self.specs.items()
                        for m in s.m_values for method in ("qae", "mc")]
        self.planned += [f"exact_x{x}" for x in range(self.model.d + 1)]
        self.fig4: dict[str, dict] = {}
        self.exact = None

    def run(self, out_dir: Path) -> None:
        for tag, spec in self.specs.items():
            self.fig4[tag] = harness.experiment_fig4(spec, out_dir / tag)
        self.exact = harness.outer_loop(self.model, self.dist, 0, mode="exact")

    def ops(self) -> list[Op]:
        done = {}
        for tag, out in self.fig4.items():
            spec = self.specs[tag]
            values: dict[tuple, list] = {}
            for e in out["estimates"]:
                values.setdefault((e["m"], e["method"]), []).append(e["a_hat"])
            for (m, method), vals in values.items():
                op = Op(f"{tag}_m{m}_{method}")
                op.record, op.error = _batch_record(np.array(vals), m, method)
                if len(vals) != spec.n_estimates:
                    op.error = f"{len(vals)} estimates, expected {spec.n_estimates}"
                done[op.id] = op
        if self.exact is not None:
            for row in self.exact.rows:
                op = Op(f"exact_x{row['x']}", record={"exp_hq": row["exp_hq"]})
                gap = abs(row["exp_hq"] - row["phi_exact"])
                if gap > EXACT_TOL:
                    op.error = f"converged state misses phi by {gap:.3e}"
                done[op.id] = op
        return _fill(self.planned, done)

    def quality(self) -> dict:
        out = {}
        rates = [s["within_bound_rate"] for f in self.fig4.values()
                 for s in f["summary"] if s["m"] == 8 and s["method"] == "qae"]
        if rates:
            out["qae_within_bound_rate"] = sum(rates) / len(rates)
        if self.exact is not None:
            out.update(_loop_quality([self.exact]))
        return out


WORKLOADS = {w.name: w for w in (AnnealSweep, PipelineQae, ConvergedDense)}


# -- reference outputs ----------------------------------------------------

def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded outputs for this workload, if they were made at ``seed``."""
    path = Path(__file__).resolve().parent / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        ref = json.load(fh)
    return ref if ref["seed"] == seed else None


def _deviation(got, want, where: str) -> str | None:
    if isinstance(want, (bool, int, str)) or want is None:
        return None if got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, float):
        if isinstance(got, (int, float)) and abs(got - want) <= REFERENCE_TOL:
            return None
        return f"{where}: {got!r} deviates from {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            err = _deviation(g, w, f"{where}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: fields differ"
        for k in want:
            err = _deviation(got[k], want[k], f"{where}.{k}")
            if err:
                return err
        return None
    raise TypeError(f"unexpected reference value at {where}")


def check_reference(ops: list[Op], reference: dict) -> None:
    """Mark every op whose outputs deviate from the reference as failed."""
    expected = reference["ops"]
    for op in ops:
        if op.error is not None:
            continue
        if op.id not in expected:
            op.error = "no reference output"
            continue
        op.error = _deviation(op.record, expected[op.id], op.id)
