"""Experiment orchestration: the classical outer loop over the first-stage
decision, the three benchmark experiments, and structured CSV
and JSON output.

Every run is fully determined by (spec, master_seed); per-run RNG streams
are derived from the master seed and the run coordinates, and result CSVs
are byte-identical on rerun.  Wall times go only to the JSON metadata
sidecar, which is excluded from that guarantee.
"""

from __future__ import annotations

import csv
import io
import json
import time
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from multiprocessing import get_context
from pathlib import Path
from statistics import median, median_low

import numpy as np

from .dqa import (
    AnnealSchedule,
    FeasibleBlock,
    anneal_feasible_blocks,
    check_block,
    check_block_size,
    per_scenario_optimal_block,
    run_dqa_fast,  # not called here; perfbench/selftest.py checks that it is traced
    usable_cores,
)
from .model import (
    ConfigError,
    DiscreteDistribution,
    UnitCommitmentModel,
    as_integer,
    cost_bound,
    expected_value_exact,
    generate_instance,
    instance_law,
    instance_model,
)
from .oracle import OracleKind, check_oracle, sin_oracle_readback, target_amplitude
from .qae import (
    QaeConfig,
    check_budget,
    error_bound_check,
    mc_from_amplitude,
    qae_from_amplitude,
)
from .statevector import PROB_SUM_TOL


_FIG5_DEFAULT_CONFIGS = ((4, 6, 10), (5, 6, 15), (6, 5, 20))


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment; mirrors the config JSON."""

    kind: str
    master_seed: int = 0
    # fig3 sweep
    n_y_values: tuple[int, ...] = (4, 6, 8, 10)
    n_instances: int = 30
    # fig4 estimator density
    n_y: int = 3
    x: int = 1
    m_values: tuple[int, ...] = (5, 6, 7, 8)
    n_estimates: int = 10000
    # fig5 full pipeline
    configs: tuple[tuple[int, int, int], ...] = _FIG5_DEFAULT_CONFIGS
    n_repetitions: int = 10
    oracle: str = "sin"
    amplify: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                setattr(self, f.name, as_integer(f.name, getattr(self, f.name)))
        check_seed("master_seed", self.master_seed)
        self.n_y_values = tuple(as_integer("n_y_values", v) for v in self.n_y_values)
        self.m_values = tuple(as_integer("m_values", v) for v in self.m_values)
        for entry in self.configs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigError(f"configs entry {entry!r}: expected [n_y, m, T]")
        self.configs = tuple(tuple(as_integer("configs", v) for v in e) for e in self.configs)
        if self.kind not in ("fig3", "fig4", "fig5"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        check_oracle(self.oracle)
        for name in ("n_instances", "n_estimates", "n_repetitions", "amplify"):
            check_count(name, getattr(self, name))
        for name in ("n_y_values", "m_values", "configs"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:     # ValueError: not JSON, or not text
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        try:  # an unknown field or a missing kind is a TypeError here
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def check_seed(name: str, seed) -> int:
    """``seed`` as an int in [0, 2^32): ``derive_seed`` reads a master seed
    as one 32-bit word, so a seed outside that range would alias one inside
    it.  Anything else is a ``ConfigError``."""
    seed = as_integer(name, seed)
    if not 0 <= seed < 2 ** 32:
        raise ConfigError(f"{name}: {seed} outside [0, 2^32)")
    return seed


def check_count(name: str, count: int) -> int:
    """``count``, unless it is below 1: a ``ConfigError`` naming it."""
    if count < 1:
        raise ConfigError(f"{name} must be at least 1, got {count}")
    return count


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-run seed from the master seed and run coordinates."""
    ints = [check_seed("seed", master_seed)]
    for p in parts:
        if isinstance(p, str):
            ints.append(zlib.crc32(p.encode()))
        else:
            ints.append(int(p) & 0xFFFFFFFF)
    state = np.random.SeedSequence(ints).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def write_csv(path, fieldnames, rows) -> None:
    """Header plus one line per row (a dict or a structured-array record),
    each value formatted by ``_fmt``; ``csv.writer`` writes the whole text
    into a ``StringIO``, which goes to the file in one ``write``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows([_fmt(row[k]) for k in fieldnames] for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _write_meta(out_dir: Path, spec: ExperimentSpec, started: float,
                **extra) -> None:
    meta = {"spec": asdict(spec), "wall_time_s": time.time() - started, **extra}
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")


# -- outer loop -------------------------------------------------------------

@dataclass
class OuterLoopResult:
    rows: list[dict] = field(default_factory=list)
    x_star: int = 0        # argmin of the true objective
    x_est: int = 0         # argmin of the estimated objective

    @property
    def rel_error_sum(self) -> float:
        return sum(abs(r["o_est"] - r["o_exact"]) / r["o_exact"] for r in self.rows)

    @property
    def minima_rel_error(self) -> float:
        o = {r["x"]: r["o_exact"] for r in self.rows}
        return abs(o[self.x_est] - o[self.x_star]) / o[self.x_star]

    def pearson(self) -> float:
        o = np.array([r["o_exact"] for r in self.rows])
        est = np.array([r["o_est"] for r in self.rows])
        return float(np.corrcoef(est, o)[0, 1])


def _qae_point(model, block, oracle) -> tuple[float, float]:
    """(<H_Q>, a) of one feasible block, annealed or psi*, where a =
    Pr[ancilla = 1] after the oracle; both are sums over the block alone."""
    kind = OracleKind(oracle, cost_bound(model, block.x))
    return block.expectation_hq(), target_amplitude(
        kind, block.probabilities().ravel(), block.costs.ravel())


@lru_cache(maxsize=1)
def _qae_points(model, dist, T, oracle) -> tuple[tuple[float, float], ...]:
    """(<H_Q>, a) of the annealed state for every x in 0..d.

    Pure in its hashable arguments; the one cached entry lets fig5's
    repetitions of a config share one anneal per x.
    """
    return tuple(anneal_feasible_blocks(
        [(model, dist, x) for x in range(model.d + 1)], AnnealSchedule.linear(T),
        lambda block: _qae_point(model, block, oracle)))


@lru_cache(maxsize=1)
def _phi_table(model, dist) -> tuple[float, ...]:
    """phi(x) for every x in 0..d; the one cached entry lets both T rules
    of a fig3 instance and fig5's repetitions share one table."""
    return tuple(expected_value_exact(model, x, dist) for x in range(model.d + 1))


def _system_qubits(model, dist) -> int:
    """Qubits of the circuit a readout stands for: y, xi and the ancilla."""
    return model.n_y + dist.n_xi + 1


def _readout_config(model, dist, m: int, repetitions: int) -> QaeConfig:
    """The readout plan of estimate width m and ``repetitions`` readouts,
    after the qubit budget of the circuit it stands for."""
    config = QaeConfig(m=m, repetitions=repetitions)
    check_budget(_system_qubits(model, dist), m)
    return config


def check_run(inst: dict, xs=None, T: int | None = None, m: int | None = None,
              amplify: int = 1, oracle: str = "exact"
              ) -> tuple[UnitCommitmentModel, DiscreteDistribution, QaeConfig | None]:
    """The one check of an instance before any output, anneal or exact
    table, in order: the oracle name, the model, ``check_block_size`` for
    every x in ``xs`` (0..d for None), the law, T unless None, and the
    readout plan of m and ``amplify`` readouts unless m is None.  The block rule
    reads n_y, d and n_xi alone, so it refuses before the law, 2^n_xi
    entries for a uniform one, is built.  Returns (model, law, plan)."""
    check_oracle(oracle)
    model = instance_model(inst)
    for x in range(model.d + 1) if xs is None else xs:
        check_block_size(model, x)
    dist = instance_law(inst, model)
    if T is not None:
        AnnealSchedule.linear(T)
    config = (None if m is None
              else _readout_config(model, dist, m, check_count("amplify", amplify)))
    return model, dist, config


def _check_variational(model, x: int, exp_hq: float, phi: float) -> None:
    """Raise unless <H_Q> - phi(x) >= -PROB_SUM_TOL 2^n_xi q_u: the most
    that column masses within ``PROB_SUM_TOL`` of p(xi), as every anneal
    keeps them, and costs in [0, q_u] let <H_Q> fall below phi(x)."""
    tol = PROB_SUM_TOL * 2 ** model.n_xi * cost_bound(model, x)
    if not exp_hq - phi >= -tol:
        raise ValueError(f"x={x}: <H_Q> = {exp_hq!r} lies below phi(x) = {phi!r} "
                         f"by more than {tol!r}")


def _qae_estimate_for_x(model, dist, x, exp_hq, a, config, oracle):
    """One full-pipeline point from the annealed state's <H_Q> and its QAE
    target a (``_qae_point``): ``config.repetitions`` readouts are drawn
    from the closed-form law of a, and the median amplitude is picked and
    turned into phi (times q_u, or the sin oracle's readback).  Returns the
    picked readout's ``b``, ``a_hat`` and ``within_bound`` (None for the sin
    oracle), and phi's estimate.  No state or circuit is built here.
    """
    kind = OracleKind(oracle, cost_bound(model, x))
    estimates = qae_from_amplitude(a, config, _system_qubits(model, dist))
    a_hats = estimates.a_hat.tolist()
    i = a_hats.index(median_low(a_hats))
    picked = {"b": int(estimates.b[i]), "a_hat": a_hats[i], "within_bound": None}
    if oracle == "sin":
        return picked, sin_oracle_readback(picked["a_hat"], kind)
    picked["within_bound"] = error_bound_check(a_hats[i], exp_hq / kind.q_u, config.M)
    return picked, a_hats[i] * kind.q_u


def outer_loop(model: UnitCommitmentModel, dist: DiscreteDistribution, T: int,
               mode: str = "expectation", *, m: int | None = None,
               oracle: str = "exact", amplify: int = 1, master_seed: int = 0,
               seed_tag: tuple = ()) -> OuterLoopResult:
    """Objective table over x in {0..d}.

    Modes: "expectation" evaluates <H_Q> on the DQA state (no shot noise),
    "qae" runs the full estimation pipeline, and "exact" uses the
    brute-force per-scenario optimal state psi* as a converged surrogate.
    Every mode takes <H_Q>, and qae mode the QAE target a, from sums over
    a feasible block, never the full register.  Expectation and qae modes
    anneal every x in one ``anneal_feasible_blocks`` call; qae mode keeps
    the last (model, dist, T, oracle) anneal
    (``_qae_points``), so repeated calls differing only in ``seed_tag``
    anneal once; each x's readout seed still comes from ``seed_tag`` and x.
    The model and law may come from any caller, so every mode checks the
    oracle, every x's ``check_block``, T and, in qae mode, the readout plan
    before any anneal, and every x's <H_Q> against ``_check_variational``.
    """
    if mode not in ("expectation", "qae", "exact"):
        raise ConfigError(f"unknown outer-loop mode {mode!r}")
    if mode == "qae" and m is None:
        raise ConfigError("qae mode requires the estimate width m")
    check_oracle(oracle)
    for x in range(model.d + 1):
        check_block(model, x, dist)
    AnnealSchedule.linear(T)
    if mode == "qae":
        config = _readout_config(model, dist, m, check_count("amplify", amplify))
    if mode == "expectation":
        exp_hqs = anneal_feasible_blocks([(model, dist, x) for x in range(model.d + 1)],
                                         AnnealSchedule.linear(T),
                                         FeasibleBlock.expectation_hq)
    elif mode == "exact":
        exp_hqs = [per_scenario_optimal_block(model, x, dist).expectation_hq()
                   for x in range(model.d + 1)]
    else:
        points = _qae_points(model, dist, T, oracle)
    result = OuterLoopResult()
    for x, phi in enumerate(_phi_table(model, dist)):
        o_exact = model.c_x * x + phi
        row = {"x": x, "T": T, "phi_exact": phi, "o_exact": o_exact,
               "a_hat": None, "b": None, "within_bound": None, "m": m}
        if mode == "qae":
            seed = derive_seed(master_seed, *seed_tag, x)
            exp_hq, a = points[x]
            picked, phi_est = _qae_estimate_for_x(
                model, dist, x, exp_hq, a, replace(config, rng_seed=seed), oracle)
            row.update(picked)
        else:
            exp_hq = phi_est = exp_hqs[x]
        _check_variational(model, x, exp_hq, phi)
        row.update(exp_hq=exp_hq, delta=exp_hq - phi, phi_est=phi_est,
                   o_est=model.c_x * x + phi_est)
        result.rows.append(row)
    result.x_star = int(np.argmin([r["o_exact"] for r in result.rows]))
    result.x_est = int(np.argmin([r["o_est"] for r in result.rows]))
    return result


# -- fig3: annealing-time sweep ----------------------------------------------

def _pool_map(fn, tasks: list, workers: int) -> list:
    """``fn`` over ``tasks`` on freshly spawned workers.  A worker that
    dies, for instance because the calling script re-runs the pool at
    import, raises ``BrokenProcessPool`` here instead of being replaced
    forever as in ``multiprocessing.Pool``."""
    # imported here so that runs without a pool do not pay for it at start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(fn, tasks))


def _fig3_task(payload: tuple) -> list[dict]:
    n_y, index, instance_seed, model, dist = payload
    rows = []
    for t_rule, T in (("linear", n_y), ("quadratic", n_y * n_y)):
        res = outer_loop(model, dist, T, mode="expectation")
        rows.append({
            "n_y": n_y, "instance_index": index, "instance_seed": instance_seed,
            "t_rule": t_rule, "T": T,
            "rel_error_sum": res.rel_error_sum,
            "minima_rel_error": res.minima_rel_error,
            "x_star": res.x_star, "x_est": res.x_est,
        })
    return rows


def experiment_fig3(spec: ExperimentSpec, out_dir, workers: int | None = None) -> dict:
    """Relative objective error and minima quality over seeded instances,
    for the linear and quadratic annealing-time rules.

    With ``workers > 1`` the instances run on spawned worker processes, so
    a script that calls this must guard its entry point with
    ``if __name__ == "__main__":``.  By default there is one worker per
    usable core (``usable_cores``), and at most one per instance;
    ``meta.json`` records the worker count.
    Each task carries its instance's model and law from ``check_run``.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    started = time.time()
    tasks = []
    for n_y in spec.n_y_values:
        for i in range(spec.n_instances):
            seed = derive_seed(spec.master_seed, "fig3", n_y, i)
            # T = n_y and n_y^2 are always valid
            tasks.append((n_y, i, seed, *check_run(generate_instance(n_y, seed))[:2]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers is None:
        workers = min(usable_cores(), len(tasks))
    chunks = (_pool_map(_fig3_task, tasks, workers) if workers > 1
              else [_fig3_task(t) for t in tasks])
    rows = [row for chunk in chunks for row in chunk]

    summary = []
    for n_y in spec.n_y_values:
        for t_rule in ("linear", "quadratic"):
            sel = [r for r in rows if r["n_y"] == n_y and r["t_rule"] == t_rule]
            for metric in ("rel_error_sum", "minima_rel_error"):
                # statistics.median: np.median's floats, without importing numpy.ma
                vals = [float(r[metric]) for r in sel]
                summary.append({
                    "n_y": n_y, "t_rule": t_rule, "metric": metric,
                    "min": min(vals), "median": median(vals), "max": max(vals),
                })
    write_csv(out_dir / "fig3_runs.csv",
              ["n_y", "instance_index", "instance_seed", "t_rule", "T",
               "rel_error_sum", "minima_rel_error", "x_star", "x_est"], rows)
    write_csv(out_dir / "fig3_summary.csv",
              ["n_y", "t_rule", "metric", "min", "median", "max"], summary)
    _write_meta(out_dir, spec, started, workers=workers)
    return {"rows": rows, "summary": summary}


# -- fig4: estimator density ---------------------------------------------------

_FIG4_BIN_WIDTH = 0.02237  # histogram bin width used for figure parity
# lines per write of fig4_estimates.csv: about 45 KB of text, so neither the
# joined block nor its encoded bytes is large enough for malloc to map on
# its own; a whole 10,000-line batch per write left about 1 MiB more
# resident after fig4
_FIG4_WRITE_LINES = 1024


_FIG4_ESTIMATE = np.dtype([("m", np.int64), ("method", "U3"),
                           ("a_hat", np.float64), ("phi_hat", np.float64)])


def _estimate_lines(rows: np.ndarray, keys: np.ndarray) -> tuple[list[str], np.ndarray,
                                                                  np.ndarray]:
    """The ``fig4_estimates.csv`` lines of one batch of ``_FIG4_ESTIMATE``
    rows, in row order, with the bytes ``write_csv`` writes for them; with
    them, one row index per distinct readout and that readout's row count.

    ``keys`` holds each row's integer readout, b for QAE and k for Monte
    Carlo; rows with the same key hold the same floats.  A batch has at
    most 2^(m+1) + 1 keys, so each line is formatted once, from one row
    with its key, and the list holds that one string at each of its rows.
    """
    counts = np.bincount(keys)
    seen = np.flatnonzero(counts)
    row_of = np.empty(counts.size, dtype=np.intp)
    row_of[keys] = np.arange(keys.size)  # any row of a key holds its floats
    lines = np.empty(counts.size, dtype=object)
    lines[seen] = [f"{m},{method},{a:.12g},{phi:.12g}\r\n"
                   for m, method, a, phi in rows[row_of[seen]].tolist()]
    return lines[keys].tolist(), row_of[seen], counts[seen]


def experiment_fig4(spec: ExperimentSpec, out_dir) -> dict:
    """QAE versus Monte Carlo at equal sample budget on a perfectly
    converged state (brute-force construction, zero residual temperature).

    Returns ``estimates``, one ``_FIG4_ESTIMATE`` structured array
    (fields ``m``, ``method``, ``a_hat``, ``phi_hat``) whose records are
    the rows of ``fig4_estimates.csv`` in the same order, ``summary`` (the
    rows of ``fig4_summary.csv``) and ``a_true``.  The array is allocated
    up front and filled one (m, method) batch at a time.  A batch costs per
    distinct readout, not per row (``_estimate_lines``): its lines go to
    the estimate table as soon as it is drawn, joined and written
    ``_FIG4_WRITE_LINES`` at a time, and its
    histogram bins the distinct ``phi_hat`` values weighted by their
    integer counts, so every mass is the float an unweighted histogram of
    the rows gives.  The RMSE and bound rate still read every row.
    """
    started = time.time()
    x = spec.x
    model, dist, _ = check_run(
        generate_instance(spec.n_y, derive_seed(spec.master_seed, "fig4")), (x,))
    configs = [_readout_config(model, dist, m, spec.n_estimates)
               for m in spec.m_values]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    q_u = cost_bound(model, x)
    phi = expected_value_exact(model, x, dist)
    a_true = phi / q_u
    # Pr[ancilla = 1] after the exact oracle on the converged state psi*
    # does not depend on m; it feeds the QAE law and the Monte Carlo
    # binomial at every m
    _, a = _qae_point(model, per_scenario_optimal_block(model, x, dist), "exact")
    n_system = _system_qubits(model, dist)

    n = spec.n_estimates
    estimates = np.empty(2 * len(spec.m_values) * n, dtype=_FIG4_ESTIMATE)
    batches = iter(np.split(estimates, 2 * len(spec.m_values)))
    summary, hist_rows = [], []
    edges = np.arange(0.0, q_u + 2 * _FIG4_BIN_WIDTH, _FIG4_BIN_WIDTH)
    with open(out_dir / "fig4_estimates.csv", "w", newline="") as est_fh:
        est_fh.write("m,method,a_hat,phi_hat\r\n")  # the header csv.writer writes
        for m, config in zip(spec.m_values, configs):
            config = replace(config,
                             rng_seed=derive_seed(spec.master_seed, "fig4", m, "qae"))
            qae = qae_from_amplitude(a, config, n_system)
            shots = 2 ** (m + 1)
            a_mc = mc_from_amplitude(a, shots,
                                     np.random.default_rng(
                                         derive_seed(spec.master_seed, "fig4", m, "mc")),
                                     n)
            # k = a_mc * shots is exact: a_mc is k divided by a power of two
            for method, keys, arr, n_shots in (
                    ("qae", qae.b, qae.a_hat, config.a_applications),
                    ("mc", (a_mc * shots).astype(np.int64), a_mc, shots)):
                phis = arr * q_u
                rows = next(batches)
                rows["m"], rows["method"] = m, method
                rows["a_hat"], rows["phi_hat"] = arr, phis
                lines, distinct, weights = _estimate_lines(rows, keys)
                for i in range(0, len(lines), _FIG4_WRITE_LINES):
                    est_fh.write("".join(lines[i:i + _FIG4_WRITE_LINES]))
                # integer weights keep the counts, and so each mass, exact
                counts, _ = np.histogram(phis[distinct], bins=edges, weights=weights)
                for lo, cnt in zip(edges[:-1], counts):
                    if cnt:
                        hist_rows.append({"m": m, "method": method,
                                          "bin_left": float(lo),
                                          "bin_width": _FIG4_BIN_WIDTH,
                                          "mass": float(cnt) / len(arr)})
                summary.append({
                    "m": m, "method": method, "shots": n_shots,
                    "rmse": float(np.sqrt(np.mean((arr - a_true) ** 2))),
                    "within_bound_rate": float(np.mean(
                        error_bound_check(arr, a_true, config.M))),
                    "a_true": a_true, "phi_true": phi,
                })

    write_csv(out_dir / "fig4_histogram.csv",
              ["m", "method", "bin_left", "bin_width", "mass"], hist_rows)
    write_csv(out_dir / "fig4_summary.csv",
              ["m", "method", "shots", "rmse", "within_bound_rate",
               "a_true", "phi_true"], summary)
    _write_meta(out_dir, spec, started)
    return {"estimates": estimates, "summary": summary, "a_true": a_true}


# -- fig5: full pipeline --------------------------------------------------------

def experiment_fig5(spec: ExperimentSpec, out_dir) -> dict:
    """Objective surfaces from the entire algorithm, one measurement per
    first-stage point."""
    started = time.time()
    models = [check_run(generate_instance(n_y, derive_seed(spec.master_seed, "fig5", ci)),
                        T=T, m=m, amplify=spec.amplify, oracle=spec.oracle)[:2]
              for ci, (n_y, m, T) in enumerate(spec.configs)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    surface, summary = [], []
    for ci, ((n_y, m, T), (model, dist)) in enumerate(zip(spec.configs, models)):
        for rep in range(spec.n_repetitions):
            res = outer_loop(model, dist, T, mode="qae", m=m, oracle=spec.oracle,
                             amplify=spec.amplify, master_seed=spec.master_seed,
                             seed_tag=("fig5", ci, rep))
            for r in res.rows:
                surface.append({"config": ci, "n_y": n_y, "m": m, "rep": rep, **r})
            summary.append({
                "config": ci, "n_y": n_y, "m": m, "T": T, "rep": rep,
                "x_star": res.x_star, "x_est": res.x_est,
                "found_minimum": res.x_star == res.x_est,
                "pearson": res.pearson(),
                "rel_error_sum": res.rel_error_sum,
            })
    write_csv(out_dir / "fig5_surface.csv",
              ["config", "n_y", "m", "rep", "x", "T", "phi_exact", "o_exact",
               "exp_hq", "delta", "phi_est", "o_est", "a_hat", "b",
               "within_bound"], surface)
    write_csv(out_dir / "fig5_summary.csv",
              ["config", "n_y", "m", "T", "rep", "x_star", "x_est",
               "found_minimum", "pearson", "rel_error_sum"], summary)
    _write_meta(out_dir, spec, started)
    return {"surface": surface, "summary": summary}


# -- single runs (CLI) ----------------------------------------------------------

def single_run(inst: dict, x: int, T: int, oracle: str, m: int, seed: int,
               amplify: int = 1) -> dict:
    """One full-pipeline run; returns the run record.

    Loads the instance through ``check_run`` for x, then anneals x alone on
    its feasible block and takes <H_Q> and the QAE target a from it as
    qae-mode ``outer_loop`` does (``_qae_point``), under the same
    variational bound (``_check_variational``).
    """
    model, dist, config = check_run(inst, (x,), T, m, amplify, oracle)
    started = time.time()
    config = replace(config, rng_seed=derive_seed(seed, "run", x))
    ((exp_hq, a),) = anneal_feasible_blocks([(model, dist, x)], AnnealSchedule.linear(T),
                                            lambda block: _qae_point(model, block, oracle))
    phi = expected_value_exact(model, x, dist)
    _check_variational(model, x, exp_hq, phi)
    picked, phi_est = _qae_estimate_for_x(model, dist, x, exp_hq, a, config, oracle)
    return {
        "instance_seed": inst.get("seed"), "n_y": model.n_y, "x": x, "T": T,
        "m": m, "oracle": oracle, "amplify": amplify, "seed": seed,
        "phi_exact": phi, "exp_hq": exp_hq, "delta": exp_hq - phi,
        **picked, "phi_est": phi_est,
        "o_est": model.c_x * x + phi_est,
        "o_exact": model.c_x * x + phi,
        "wall_time_s": time.time() - started,
    }


def exact_table(inst: dict) -> list[dict]:
    """Classical oracles only: phi(x) and o(x) over the whole domain, after
    ``check_run``: x's cost matrix holds as many entries as its feasible
    block."""
    model, dist, _ = check_run(inst)
    return [{"x": x, "phi": phi, "o": model.c_x * x + phi}
            for x, phi in enumerate(_phi_table(model, dist))]
