"""Harness tests: outer loop modes, experiment output schemas, determinism
of result files, and the CLI surface."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import median_low

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spq
from spq import cli, harness, model as spq_model
from spq.cli import main
from spq.dqa import (
    AnnealSchedule,
    FeasibleBlock,
    RegisterLayout,
    build_dqa,
    expectation_HQ,
    lockstep_groups,
    run_dqa_fast,
)
from spq.harness import (
    ConfigError,
    ExperimentSpec,
    check_run,
    derive_seed,
    exact_table,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    outer_loop,
    single_run,
)
from spq.model import (
    DiscreteDistribution,
    cost_bound,
    cost_diagonal,
    generate_instance,
    model_from_instance,
    save_instance,
)
from spq.oracle import OracleKind, build_oracle, target_amplitude
from spq.qae import QaeConfig, build_A, qae_from_amplitude, run_qae
from spq.statevector import Gate, SimulationBudgetError, StateVector, hadamard

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

WORKED_INSTANCE = {"n_y": 2, "c_x": 0.4, "c": [0.1, 0.2], "c_r": 1.0, "d": 2,
                   "distribution": {"type": "uniform"}, "seed": 0}


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def refuse_full_register(monkeypatch) -> None:
    """Make ``cost_diagonal``, in every spq namespace that binds it, and
    every StateVector construction raise; then check that both refusals
    bite on the full-register references."""
    def refuse_diagonal(*args, **kwargs):
        raise AssertionError("cost_diagonal was built")

    def refuse_register(*args, **kwargs):
        raise AssertionError("a full-register StateVector was built")

    model, dist = model_from_instance(WORKED_INSTANCE)
    schedule = AnnealSchedule.linear(3)
    sv = run_dqa_fast(model, 1, dist, schedule)
    bound = sorted(name for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "spq"
                   and getattr(module, "cost_diagonal", None) is spq.model.cost_diagonal)
    assert {"spq.model", "spq.dqa", "spq.oracle"} <= set(bound)
    assert not hasattr(harness, "cost_diagonal")
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "cost_diagonal", refuse_diagonal)
    monkeypatch.setattr(StateVector, "__init__", refuse_register)
    with pytest.raises(AssertionError, match="cost_diagonal was built"):
        expectation_HQ(sv, model)
    with pytest.raises(AssertionError, match="full-register"):
        expectation_HQ(run_dqa_fast(model, 1, dist, schedule), model)


class TestOuterLoop:
    def test_exact_mode_reproduces_objective(self):
        for inst in (WORKED_INSTANCE, generate_instance(6, 5)):
            model, dist = model_from_instance(inst)
            res = outer_loop(model, dist, T=0, mode="exact")
            for row in res.rows:
                assert abs(row["o_est"] - row["o_exact"]) < 1e-10
                assert abs(row["exp_hq"] - row["phi_exact"]) <= 1e-12

    def test_worked_instance_objective_table(self):
        model, dist = model_from_instance(WORKED_INSTANCE)
        res = outer_loop(model, dist, T=0, mode="exact")
        assert [round(r["o_exact"], 10) for r in res.rows] == [1.15, 0.75, 0.8]
        assert res.x_star == 1

    def test_expectation_mode_tracks_truth(self):
        inst = generate_instance(4, 13)
        model, dist = model_from_instance(inst)
        res = outer_loop(model, dist, T=16, mode="expectation")
        assert res.x_est == res.x_star
        assert res.pearson() > 0.99
        for row in res.rows:
            assert row["delta"] >= -1e-9

    def test_qae_mode_records_cross_checks(self):
        model, dist = model_from_instance(WORKED_INSTANCE)
        res = outer_loop(model, dist, T=10, mode="qae", m=5, oracle="exact",
                         seed_tag=("test",))
        for row in res.rows:
            assert abs(row["delta"] - (row["exp_hq"] - row["phi_exact"])) < 1e-12
            assert row["b"] is not None

    def test_amplify_takes_median(self):
        model, dist = model_from_instance(WORKED_INSTANCE)
        res1 = outer_loop(model, dist, T=10, mode="qae", m=4, oracle="exact",
                          amplify=5, seed_tag=("amp",))
        assert len(res1.rows) == 3
        points = harness._qae_points(model, dist, 10, "exact")
        for row in res1.rows:
            x = row["x"]
            config = QaeConfig(m=4, repetitions=5, rng_seed=derive_seed(0, "amp", x))
            draws = qae_from_amplitude(points[x][1], config, 5)
            a_hats = draws.a_hat.tolist()
            i = a_hats.index(median_low(a_hats))
            assert (row["b"], row["a_hat"]) == (draws.b[i], a_hats[i])
            # the exact oracle's estimate is the amplitude times q_u, bit for bit
            assert row["phi_est"] == a_hats[i] * cost_bound(model, x)

    @pytest.mark.parametrize("oracle", ["exact", "sin"])
    def test_qae_mode_draws_the_gate_level_readouts(self, oracle):
        # qae mode takes a from the fast evolver and never builds a circuit;
        # phase estimation on the gate-level A = oracle after DQA, seeded
        # alike, reads the same b
        model, dist = model_from_instance(generate_instance(3, 5))
        m, T = 5, 6
        lay = RegisterLayout(3, 3, include_ancilla=True)
        for rep in range(8):
            res = outer_loop(model, dist, T=T, mode="qae", m=m, oracle=oracle,
                             seed_tag=("gate", rep))
            for row in res.rows:
                x = row["x"]
                kind = OracleKind(oracle, cost_bound(model, x))
                A = build_A(build_dqa(model, x, dist, AnnealSchedule.linear(T)),
                            build_oracle(kind, model))
                cfg = QaeConfig(m=m, rng_seed=derive_seed(0, "gate", rep, x))
                readout = run_qae(A, cfg, lay)
                assert readout.b.shape == (1,)
                assert row["b"] == readout.b[0]
                assert row["a_hat"] == readout.a_hat[0]

    @pytest.mark.parametrize("n_y,T", [(4, 16), (5, 5), (6, 12)])
    def test_expectation_mode_matches_lone_anneals(self, n_y, T):
        # lockstep pairs and in-block sums against one full-register
        # anneal per x
        model, dist = model_from_instance(generate_instance(n_y, 30 + n_y))
        res = outer_loop(model, dist, T=T, mode="expectation")
        assert [r["x"] for r in res.rows] == list(range(model.d + 1))
        for row in res.rows:
            sv = run_dqa_fast(model, row["x"], dist, AnnealSchedule.linear(T))
            assert abs(row["exp_hq"] - expectation_HQ(sv, model)) <= 1e-12

    def test_expectation_mode_builds_no_cost_diagonal(self, tmp_path, monkeypatch):
        # nor does exact mode, fig3 or fig4: all read psi* or the annealed
        # state as a feasible block
        refuse_full_register(monkeypatch)
        model, dist = model_from_instance(generate_instance(5, 2))
        outer_loop(model, dist, T=10, mode="expectation")
        outer_loop(model, dist, T=0, mode="exact")
        experiment_fig3(ExperimentSpec(kind="fig3", n_y_values=(3, 4),
                                       n_instances=2, master_seed=6),
                        tmp_path / "fig3", workers=1)
        experiment_fig4(ExperimentSpec.from_json(CONFIG_DIR / "fig4.json"),
                        tmp_path / "fig4")
        experiment_fig4(ExperimentSpec(kind="fig4", n_y=5, x=2, m_values=(5,),
                                       n_estimates=100, master_seed=3),
                        tmp_path / "fig4_5")

    def test_variational_bound_is_checked(self, monkeypatch):
        # <H_Q> = -1 lies below phi(x) >= 0 by more than any column's mass
        # error can explain, in every mode and in a single run
        monkeypatch.setattr(FeasibleBlock, "expectation_hq", lambda block: -1.0)
        harness._qae_points.cache_clear()
        model, dist = model_from_instance(WORKED_INSTANCE)
        try:
            for mode in ("expectation", "qae", "exact"):
                with pytest.raises(ValueError, match="x=0: <H_Q> = -1.0 lies below"):
                    outer_loop(model, dist, T=4, mode=mode, m=4)
            with pytest.raises(ValueError, match="x=1: <H_Q> = -1.0 lies below"):
                single_run(WORKED_INSTANCE, x=1, T=4, oracle="exact", m=4, seed=0)
        finally:
            harness._qae_points.cache_clear()

    def test_unknown_mode_rejected(self):
        model, dist = model_from_instance(WORKED_INSTANCE)
        with pytest.raises(ConfigError):
            outer_loop(model, dist, T=1, mode="banana")

    def test_qae_mode_needs_m(self):
        model, dist = model_from_instance(WORKED_INSTANCE)
        with pytest.raises(ConfigError):
            outer_loop(model, dist, T=1, mode="qae")

    def test_nonuniform_distribution_end_to_end(self):
        # arbitrary pmf through the whole pipeline, not just the loaders
        model, _ = model_from_instance(WORKED_INSTANCE)
        dist = DiscreteDistribution.from_pmf(2, {0b00: 0.1, 0b01: 0.6, 0b11: 0.3})
        res = outer_loop(model, dist, T=40, mode="qae", m=6, oracle="exact",
                         seed_tag=("nonuni",))
        assert res.x_est == res.x_star
        for row in res.rows:
            assert row["delta"] >= -1e-9


class TestQaeOnFeasibleBlocks:
    @pytest.mark.parametrize("n_y", [2, 3, 4, 5, 6])
    def test_block_points_match_the_full_register(self, n_y):
        # <H_Q> and the oracle target a from the lockstep blocks against
        # one lone full-register anneal per x and the cost diagonal
        model, dist = model_from_instance(generate_instance(n_y, 40 + n_y))
        T = 2 * n_y
        costs = cost_diagonal(model)
        for oracle in ("exact", "sin"):
            points = harness._qae_points(model, dist, T, oracle)
            assert len(points) == model.d + 1
            for x, (exp_hq, a) in enumerate(points):
                sv = run_dqa_fast(model, x, dist, AnnealSchedule.linear(T))
                kind = OracleKind(oracle, cost_bound(model, x))
                assert abs(exp_hq - expectation_HQ(sv, model)) <= 1e-12
                assert abs(a - target_amplitude(kind, sv.probabilities(), costs)) <= 1e-12

    def _count_anneals(self, monkeypatch) -> list:
        calls = []
        inner = harness.anneal_feasible_blocks

        def counted(model, xs, *args, **kwargs):
            calls.append(tuple(xs))
            return inner(model, xs, *args, **kwargs)

        monkeypatch.setattr(harness, "anneal_feasible_blocks", counted)
        harness._qae_points.cache_clear()
        return calls

    def test_fig5_anneals_each_config_once(self, tmp_path, monkeypatch):
        configs = ((3, 4, 6), (4, 4, 8))
        models = [model_from_instance(generate_instance(n_y, derive_seed(4, "fig5", ci)))[0]
                  for ci, (n_y, _, _) in enumerate(configs)]
        groups = sum(len(lockstep_groups(model)) for model in models)
        for reps in (1, 3):
            calls = self._count_anneals(monkeypatch)
            experiment_fig5(ExperimentSpec(kind="fig5", configs=configs,
                                           n_repetitions=reps, master_seed=4),
                            tmp_path / str(reps))
            assert len(calls) == groups

    def test_single_run_anneals_only_its_x(self, monkeypatch):
        calls = self._count_anneals(monkeypatch)
        inst = generate_instance(5, 8)
        record = single_run(inst, x=2, T=10, oracle="sin", m=5, seed=1)
        assert calls == [(2,)]
        model, dist = model_from_instance(inst)
        sv = run_dqa_fast(model, 2, dist, AnnealSchedule.linear(10))
        assert abs(record["exp_hq"] - expectation_HQ(sv, model)) <= 1e-12

    def test_fig4_qae_mode_and_single_run_read_through_the_array_readout(
            self, tmp_path, monkeypatch):
        calls = []
        inner = harness.qae_from_amplitude

        def counted(a, config, *args):
            calls.append(config.repetitions)
            return inner(a, config, *args)

        monkeypatch.setattr(harness, "qae_from_amplitude", counted)
        experiment_fig4(ExperimentSpec(kind="fig4", m_values=(5, 6),
                                       n_estimates=50, master_seed=3),
                        tmp_path / "fig4")
        assert calls == [50, 50]
        model, dist = model_from_instance(generate_instance(3, 5))
        calls.clear()
        outer_loop(model, dist, T=6, mode="qae", m=5, amplify=3,
                   seed_tag=("count",))
        assert calls == [3] * (model.d + 1)
        calls.clear()
        single_run(WORKED_INSTANCE, x=1, T=6, oracle="sin", m=5, seed=7, amplify=5)
        assert calls == [5]

    def test_qae_mode_builds_no_register_or_cost_diagonal(self, tmp_path,
                                                          monkeypatch, capsys):
        harness._qae_points.cache_clear()
        refuse_full_register(monkeypatch)
        model, dist = model_from_instance(generate_instance(5, 2))
        inst_path = str(tmp_path / "inst.json")
        save_instance(WORKED_INSTANCE, inst_path)
        for oracle in ("exact", "sin"):
            outer_loop(model, dist, T=10, mode="qae", m=5, oracle=oracle,
                       seed_tag=("nofull",))
            single_run(WORKED_INSTANCE, x=1, T=6, oracle=oracle, m=5, seed=7)
            assert main(["run", "--instance", inst_path, "--x", "1", "--T", "6",
                         "--oracle", oracle, "--m", "5"]) == 0
        experiment_fig5(ExperimentSpec(kind="fig5", configs=((3, 4, 6), (4, 4, 8)),
                                       n_repetitions=2, master_seed=4),
                        tmp_path / "fig5")


class TestReadoutChecksBeforeAnneal:
    """A readout that cannot run (m outside [1, 12], no readouts, a circuit
    over the qubit cap, an unknown oracle, or a scenario law of the wrong
    width) fails before any anneal."""

    BAD_READOUTS = [({"m": 12}, SimulationBudgetError, 3),
                    ({"m": 13}, ValueError, 2),
                    ({"m": 5, "amplify": 0}, ValueError, 2)]

    @staticmethod
    def refuse_anneal(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("annealed or built psi*")

        monkeypatch.setattr(harness, "anneal_feasible_blocks", refuse)
        monkeypatch.setattr(harness, "per_scenario_optimal_block", refuse)
        harness._qae_points.cache_clear()

    @pytest.mark.parametrize("kwargs, error, _", BAD_READOUTS)
    def test_single_run_and_qae_outer_loop(self, monkeypatch, kwargs, error, _):
        self.refuse_anneal(monkeypatch)
        inst = generate_instance(10, 1)
        with pytest.raises(error):
            single_run(inst, x=5, T=200, oracle="sin", seed=0, **kwargs)
        model, dist = model_from_instance(inst)
        with pytest.raises(error):
            outer_loop(model, dist, T=200, mode="qae", **kwargs)
        with pytest.raises(AssertionError, match="annealed"):
            outer_loop(model, dist, T=200, mode="qae", m=3)

    def test_unknown_oracle(self, monkeypatch):
        # "Sin" used to build the sin oracle and read it back linearly
        self.refuse_anneal(monkeypatch)
        inst = generate_instance(4, 3)
        model, dist = model_from_instance(inst)
        with pytest.raises(ConfigError, match="oracle must be"):
            single_run(inst, x=2, T=8, m=5, seed=0, oracle="Sin")
        for mode in ("expectation", "qae", "exact"):
            with pytest.raises(ConfigError, match="oracle must be"):
                outer_loop(model, dist, T=8, mode=mode, m=5, oracle="Sin")
        with pytest.raises(ConfigError, match="oracle must be"):
            OracleKind("Sin", 1.0)

    @pytest.mark.parametrize("n_xi", [2, 5])
    def test_distribution_width_must_match_the_model(self, monkeypatch, n_xi):
        self.refuse_anneal(monkeypatch)
        model, _ = model_from_instance(generate_instance(4, 3))
        dist = DiscreteDistribution.uniform(n_xi)
        for mode in ("expectation", "qae", "exact"):
            with pytest.raises(ConfigError, match=f"{n_xi} scenario bits"):
                outer_loop(model, dist, T=8, mode=mode, m=5)

    @pytest.mark.parametrize("kwargs, _, exit_code", BAD_READOUTS)
    def test_cli_run_exit_codes(self, tmp_path, capsys, monkeypatch, kwargs, _,
                                exit_code):
        self.refuse_anneal(monkeypatch)
        inst_path = str(tmp_path / "inst.json")
        save_instance(generate_instance(10, 1), inst_path)
        argv = ["run", "--instance", inst_path, "--x", "5", "--T", "200",
                "--oracle", "sin", "--seed", "0"]
        argv += [f"--{k}={v}" for k, v in kwargs.items()]
        assert main(argv) == exit_code
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckBeforeWork:
    """``spq experiment`` checks the whole config (every x, T and readout,
    and every feasible block) before it makes the output directory or
    anneals; a rejected config leaves nothing behind."""

    REJECTED = [
        ({"kind": "fig3", "n_y_values": [16]}, 3),
        ({"kind": "fig3", "n_y_values": [0]}, 2),
        ({"kind": "fig3", "n_y_values": []}, 2),
        ({"kind": "fig4", "x": -1}, 2),
        ({"kind": "fig4", "x": 4}, 2),
        ({"kind": "fig4", "m_values": [5, 13]}, 2),
        ({"kind": "fig4", "m_values": []}, 2),
        ({"kind": "fig4", "n_estimates": 0}, 2),
        ({"kind": "fig4", "n_y": 12}, 3),
        ({"kind": "fig5", "configs": [[8, 6, 64], [6, 13, 20]]}, 2),
        ({"kind": "fig5", "configs": [[4, 6, 10], [6, 12, 20]]}, 3),
        ({"kind": "fig5", "configs": [[3, 5, -1]]}, 2),
        ({"kind": "fig5", "configs": [[0, 5, 5]]}, 2),
        ({"kind": "fig5", "configs": []}, 2),
        ({"kind": "fig5", "angle_mode": "degrees"}, 2),
        ({"kind": "fig5", "amplify": 0}, 2),
        ({"kind": "fig3", "n_instances": 0}, 2),
        ({"kind": "fig5", "n_repetitions": 0}, 2),
        ({"kind": "fig4", "master_seed": -1}, 2),
        ({"kind": "fig5", "master_seed": 2 ** 32}, 2),
    ]

    # (command-line kind, config): a kind no experiment has, no config
    # file, and a config that is not JSON
    UNREADABLE = [("fig3", {"kind": "fig6"}), ("fig4", None),
                  ("fig4", '{"kind": "fig4", "x": 1')]

    @staticmethod
    def refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reached an anneal or psi*")

        monkeypatch.setattr(harness, "anneal_feasible_blocks", refuse)
        monkeypatch.setattr(harness, "per_scenario_optimal_block", refuse)
        harness._qae_points.cache_clear()

    @staticmethod
    def experiment(tmp_path, config, kind=None) -> int:
        """``spq experiment`` on ``config``: a dict, the raw text of the
        config file, or None for no file."""
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        return main(["experiment", kind or config["kind"], "--config", str(cfg),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("config, exit_code", REJECTED)
    def test_rejected_config_exits_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch, config, exit_code):
        self.refuse_work(monkeypatch)
        assert self.experiment(tmp_path, config) == exit_code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, config", UNREADABLE)
    def test_unreadable_config_exits_2_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, kind, config):
        self.refuse_work(monkeypatch)
        assert self.experiment(tmp_path, config, kind) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [
        {"kind": "fig3", "n_y_values": [3], "n_instances": 1},
        {"kind": "fig4", "m_values": [5], "n_estimates": 4},
        {"kind": "fig5", "configs": [[3, 4, 6]], "n_repetitions": 1},
    ])
    def test_accepted_config_reaches_the_refused_work(self, tmp_path, monkeypatch,
                                                      config):
        self.refuse_work(monkeypatch)
        with pytest.raises(AssertionError, match="reached"):
            self.experiment(tmp_path, config)

    def test_block_budget_boundary_without_annealing(self, monkeypatch):
        self.refuse_work(monkeypatch)
        # n_y = 13: every block holds at most C(13, 6) * 2^13 = 14,057,472
        assert check_run(generate_instance(13, 2), T=169)[2] is None
        inst = generate_instance(14, 2)
        with pytest.raises(SimulationBudgetError, match="x=5 .* 32800768 amp"):
            check_run(inst, T=196)
        with pytest.raises(SimulationBudgetError, match="56229888 amplitudes"):
            check_run(inst, (7,), 196)

    @pytest.mark.parametrize("T", [2.0, True, "3"])
    def test_non_integer_layer_count_rejected_before_annealing(self, monkeypatch, T):
        self.refuse_work(monkeypatch)
        inst = generate_instance(4, 1)
        model, dist = model_from_instance(inst)
        with pytest.raises(ConfigError, match="T: expected an integer"):
            check_run(inst, T=T)
        for mode in ("expectation", "qae"):
            with pytest.raises(ConfigError, match="T: expected an integer"):
                outer_loop(model, dist, T, mode=mode, m=5)

    @pytest.mark.parametrize("argv, config, checks", [
        (["exact"], None, 1),
        (["run", "--x", "1", "--T", "4", "--m", "4"], None, 1),
        (["make-instance", "--n-y", "3", "--seed", "1"], None, 1),
        (["experiment", "fig3"], {"n_y_values": [3], "n_instances": 2}, 2),
        (["experiment", "fig4"], {"n_y": 3, "m_values": [4, 5], "n_estimates": 4}, 1),
        (["experiment", "fig5"], {"configs": [[3, 4, 6]], "n_repetitions": 2}, 1),
    ], ids=["exact", "run", "make-instance", "fig3", "fig4", "fig5"])
    def test_one_check_and_one_law_per_instance(self, tmp_path, monkeypatch,
                                                argv, config, checks):
        # every command passes check_run once per instance it loads, and
        # builds that instance's law once, in check_run; fig3's workers
        # take the checked model and law from the parent
        calls = {"check_run": 0, "instance_law": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        check = counted("check_run", harness.check_run)
        law = counted("instance_law", harness.instance_law)
        for module in (harness, cli):
            monkeypatch.setattr(module, "check_run", check)
        for module in (harness, spq_model):
            monkeypatch.setattr(module, "instance_law", law)
        inst_path = tmp_path / "inst.json"
        save_instance(generate_instance(3, 1), str(inst_path))
        if argv[0] in ("exact", "run"):
            argv = [argv[0], "--instance", str(inst_path)] + argv[1:]
        elif argv[0] == "make-instance":
            argv = argv + ["--out", str(tmp_path / "made.json")]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"kind": argv[1], **config}))
            argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
            if argv[1] == "fig3":
                argv += ["--workers", "1"]
        harness._qae_points.cache_clear()
        assert main(argv) == 0
        assert calls == {"check_run": checks, "instance_law": checks}

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda path: path.name)
    def test_shipped_config_passes_its_check_step(self, tmp_path, monkeypatch, path):
        # the check step runs in full, without annealing, up to the output
        # directory, which cannot be made under a regular file
        self.refuse_work(monkeypatch)
        spec = ExperimentSpec.from_json(path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        experiment = {"fig3": experiment_fig3, "fig4": experiment_fig4,
                      "fig5": experiment_fig5}[spec.kind]
        with pytest.raises((FileExistsError, NotADirectoryError)):
            experiment(spec, blocker / "out")


class TestNoGatesInProduction:
    def test_experiments_and_runs_build_no_gate(self, tmp_path, monkeypatch):
        # every Gate passes through __post_init__; production paths take
        # their numbers from probability vectors and closed forms instead
        def refuse(gate):
            raise AssertionError(f"a {gate.kind} gate was built")

        monkeypatch.setattr(Gate, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="gate was built"):
            hadamard(0)
        experiment_fig4(ExperimentSpec.from_json(CONFIG_DIR / "fig4.json"),
                        tmp_path / "fig4")
        experiment_fig5(ExperimentSpec(kind="fig5", configs=((3, 4, 6),),
                                       n_repetitions=1, master_seed=4),
                        tmp_path / "fig5")
        model, dist = model_from_instance(generate_instance(4, 13))
        outer_loop(model, dist, T=8, mode="expectation")
        outer_loop(model, dist, T=0, mode="exact")
        for oracle in ("exact", "sin"):
            single_run(WORKED_INSTANCE, x=1, T=6, oracle=oracle, m=5, seed=7)


def _write_csv_value_by_value(path, fieldnames, rows):
    # the per-value writer, kept as ``write_csv``'s reference
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([harness._fmt(row[k]) for k in fieldnames])


class TestWriteCsv:
    def test_bytes_match_value_by_value_writer(self, tmp_path):
        # more rows than one chunk; columns of one type, of mixed types, and
        # text that needs quoting
        rng = np.random.default_rng(5)
        rows = [{"i": i, "f": float(v), "np": np.float64(v), "flag": bool(v > 0.5),
                 "maybe": None if i % 7 else -float(v),
                 "text": ("a,b", 'say "x"', "line\nbreak", "plain")[i % 4]}
                for i, v in enumerate(rng.standard_normal(9000))]
        fields = ["i", "f", "np", "flag", "maybe", "text"]
        harness.write_csv(tmp_path / "new.csv", fields, rows)
        _write_csv_value_by_value(tmp_path / "ref.csv", fields, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("fields, rows", [
        (["a"], [{"a": None}, {"a": 1.5}]),          # a lone empty value is quoted
        (["a", "b"], [{"a": 1, "b": None}, {"a": 2.0, "b": True}]),
        (["a", "b"], [{"a": "x\ry", "b": 1}]),       # a carriage return alone
        (["a", "b"], [{"a": "x\ny", "b": 1}]),       # a line feed alone
        (["a,b", "c"], [{"a,b": 1, "c": 2}]),         # a header that needs quoting
        (["a", "b"], []),
    ])
    def test_small_tables_match_value_by_value_writer(self, tmp_path, fields, rows):
        harness.write_csv(tmp_path / "new.csv", fields, rows)
        _write_csv_value_by_value(tmp_path / "ref.csv", fields, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSpecParsing:
    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "fig3", "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentSpec.from_json(p)

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"fig4"', "true"])
    def test_non_object_rejected(self, tmp_path, text):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match="not a JSON object"):
            ExperimentSpec.from_json(p)

    def test_missing_kind_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"master_seed": 3}))
        with pytest.raises(ConfigError, match="kind"):
            ExperimentSpec.from_json(p)

    def test_bad_oracle_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="fig5", oracle="magic")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "fig4", "m_values": [5], "n_estimates": 10}))
        spec = ExperimentSpec.from_json(p)
        assert spec.m_values == (5,) and spec.n_estimates == 10

    def test_derive_seed_is_stable(self):
        assert derive_seed(3, "fig3", 4, 0) == derive_seed(3, "fig3", 4, 0)
        assert derive_seed(3, "fig3", 4, 0) != derive_seed(3, "fig3", 4, 1)
        assert derive_seed(3, "a") != derive_seed(4, "a")

    def test_seeds_outside_32_bits_rejected(self):
        assert derive_seed(2 ** 32 - 1, "a") != derive_seed(0, "a")
        ExperimentSpec(kind="fig4", master_seed=2 ** 32 - 1)
        for seed in (-1, 2 ** 32, -2 ** 32):
            with pytest.raises(ConfigError, match="outside"):
                derive_seed(seed, "a")
            with pytest.raises(ConfigError, match="master_seed"):
                ExperimentSpec(kind="fig4", master_seed=seed)


class TestExperimentOutputs:
    def test_fig3_small_trend_and_schema(self, tmp_path):
        spec = ExperimentSpec(kind="fig3", n_y_values=(4,), n_instances=4,
                              master_seed=2)
        out = experiment_fig3(spec, tmp_path, workers=1)
        rows = read_rows(tmp_path / "fig3_runs.csv")
        assert len(rows) == 8   # 4 instances x 2 time rules
        assert set(rows[0]) >= {"n_y", "t_rule", "rel_error_sum", "minima_rel_error"}
        med = {s["t_rule"]: s["median"] for s in out["summary"]
               if s["metric"] == "rel_error_sum"}
        assert med["quadratic"] < med["linear"]

    def test_fig3_deterministic_across_worker_counts(self, tmp_path):
        spec = ExperimentSpec(kind="fig3", n_y_values=(3,), n_instances=3,
                              master_seed=9)
        experiment_fig3(spec, tmp_path / "a", workers=1)
        experiment_fig3(spec, tmp_path / "b", workers=2)
        for name in ("fig3_runs.csv", "fig3_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fig3_deterministic_across_worker_counts_with_blas(self, tmp_path,
                                                               monkeypatch):
        # n_y = 8 makes each mixer layer a 70 x 70 by 70 x 256 GEMM; with
        # two BLAS threads asked for, every anneal still runs at one, in this
        # process and in the workers alike
        spec = ExperimentSpec(kind="fig3", n_y_values=(8,), n_instances=1,
                              master_seed=4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        env = dict(os.environ)
        experiment_fig3(spec, tmp_path / "a", workers=1)
        experiment_fig3(spec, tmp_path / "b", workers=2)
        assert dict(os.environ) == env
        for name in ("fig3_runs.csv", "fig3_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fig3_meta_records_workers(self, tmp_path):
        spec = ExperimentSpec(kind="fig3", n_y_values=(3,), n_instances=2,
                              master_seed=1)
        experiment_fig3(spec, tmp_path / "a", workers=1)
        experiment_fig3(spec, tmp_path / "b", workers=2)
        meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
        meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
        assert meta_a["workers"] == 1
        assert meta_b["workers"] == 2
        # the anneal sets its own BLAS thread count, so no environment is kept
        assert set(meta_a) == set(meta_b) == {"spec", "wall_time_s", "workers"}
        # the sidecar only: the result CSVs stay identical
        for name in ("fig3_runs.csv", "fig3_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fig3_pool_in_unguarded_script_fails_instead_of_respawning(self,
                                                                      tmp_path):
        # spawned workers re-run the calling script; without a __main__
        # guard each one dies at start-up, and the run must end in an error
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from spq.harness import ExperimentSpec, experiment_fig3\n"
            "spec = ExperimentSpec(kind='fig3', n_y_values=(3,), n_instances=2)\n"
            f"experiment_fig3(spec, {str(tmp_path / 'out')!r}, workers=2)\n")
        src = str(Path(spq.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, str(script)], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode != 0
        assert "BrokenProcessPool" in proc.stderr

    def test_fig4_estimates_on_grid(self, tmp_path):
        spec = ExperimentSpec(kind="fig4", m_values=(5,), n_estimates=500,
                              master_seed=45)
        out = experiment_fig4(spec, tmp_path)
        grid = {round(float(np.sin(np.pi * b / 32) ** 2), 12) for b in range(32)}
        qae = [e for e in out["estimates"] if e["method"] == "qae"]
        assert {round(e["a_hat"], 12) for e in qae} <= grid
        hist = read_rows(tmp_path / "fig4_histogram.csv")
        for m in {r["m"] for r in hist}:
            for method in ("qae", "mc"):
                mass = sum(float(r["mass"]) for r in hist
                           if r["m"] == m and r["method"] == method)
                assert abs(mass - 1.0) < 1e-9

    def test_fig4_rerun_bit_identical(self, tmp_path):
        spec = ExperimentSpec(kind="fig4", m_values=(5,), n_estimates=200,
                              master_seed=45)
        experiment_fig4(spec, tmp_path / "a")
        experiment_fig4(spec, tmp_path / "b")
        for name in ("fig4_estimates.csv", "fig4_histogram.csv", "fig4_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("n_y", [3, 5])
    def test_fig4_estimate_table_is_write_csv_of_the_estimates(self, tmp_path, n_y,
                                                               monkeypatch):
        # the batched writer against write_csv on the returned rows; at m=1
        # the QAE readouts are exactly 0.0 and 1.0 and the Monte Carlo ones k/4
        draws = {}
        inner = harness.qae_from_amplitude

        def recorded(a, config, n_system):
            draws[config.m] = est = inner(a, config, n_system)
            return est

        monkeypatch.setattr(harness, "qae_from_amplitude", recorded)
        spec = ExperimentSpec(kind="fig4", n_y=n_y, m_values=(1, 2, 5, 8),
                              n_estimates=400, master_seed=45)
        out = experiment_fig4(spec, tmp_path / "fig4")
        fields = ["m", "method", "a_hat", "phi_hat"]
        harness.write_csv(tmp_path / "ref.csv", fields, out["estimates"])
        assert (tmp_path / "fig4" / "fig4_estimates.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        assert out["estimates"].dtype.names == tuple(fields)
        # the lines are keyed by readout, and b and M - b, which read the
        # same amplitude, both occur in the batches compared above
        for m in (5, 8):
            b = set(draws[m].b.tolist())
            assert any(2 ** m - k in b for k in b if 2 * k != 2 ** m)
        assert [(e["m"], e["method"]) for e in out["estimates"]] == [
            (m, method) for m in spec.m_values for method in ("qae", "mc")
            for _ in range(spec.n_estimates)]
        at_m1 = {method: {e["a_hat"] for e in out["estimates"]
                          if e["m"] == 1 and e["method"] == method}
                 for method in ("qae", "mc")}
        assert at_m1["qae"] == {0.0, 1.0}
        assert at_m1["mc"] <= {0.0, 0.25, 0.5, 0.75, 1.0} and len(at_m1["mc"]) > 1

    @pytest.mark.parametrize("n_y", [3, 5])
    def test_fig4_histogram_is_np_histogram_of_every_row(self, tmp_path, n_y):
        # each batch is binned from its distinct phi_hat values, weighted by
        # their counts; the table equals np.histogram over all of its rows,
        # at m = 1 and 2, where a batch holds a handful of distinct values,
        # and at m = 5 and 8
        spec = ExperimentSpec(kind="fig4", n_y=n_y, m_values=(1, 2, 5, 8),
                              n_estimates=400, master_seed=45)
        out = experiment_fig4(spec, tmp_path)
        q_u = cost_bound(model_from_instance(generate_instance(
            n_y, derive_seed(45, "fig4")))[0], spec.x)
        edges = np.arange(0.0, q_u + 2 * 0.02237, 0.02237)
        want = []
        for m in spec.m_values:
            for method in ("qae", "mc"):
                rows = out["estimates"][(out["estimates"]["m"] == m)
                                        & (out["estimates"]["method"] == method)]
                counts, _ = np.histogram(rows["phi_hat"], bins=edges)
                want += [[str(m), method, f"{lo:.12g}", "0.02237",
                          f"{cnt / len(rows):.12g}"]
                         for lo, cnt in zip(edges[:-1].tolist(), counts.tolist()) if cnt]
        with open(tmp_path / "fig4_histogram.csv", newline="") as fh:
            header, *got = list(csv.reader(fh))
        assert header == ["m", "method", "bin_left", "bin_width", "mass"]
        assert got == want

    def test_fig4_csv_bytes_at_five_turbines(self, tmp_path):
        # the shipped config at n_y = 5, whose QAE and Monte Carlo batches
        # read other amplitudes and bins than the shipped n_y = 3
        spec = ExperimentSpec.from_json(CONFIG_DIR / "fig4.json")
        experiment_fig4(replace(spec, n_y=5), tmp_path)
        pinned = {
            "fig4_estimates.csv":
                "400a47a6293a55199c1a83f48338417a9fc3554815428547962443d7ff6ea975",
            "fig4_histogram.csv":
                "918e5f7b720261071025d9e836fc9874a385d4dc294fdab0f54add77be67be86",
            "fig4_summary.csv":
                "c78800e44b4f1e2c8c8cdc54416997c0035b458a1c16062f3be60136293bb528",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_shipped_fig4_csv_bytes(self, tmp_path):
        # the shipped fig4 CSVs are pinned byte for byte; a change to any
        # of them must come with new digests and a reason in CHANGES.md
        experiment_fig4(ExperimentSpec.from_json(CONFIG_DIR / "fig4.json"), tmp_path)
        pinned = {
            "fig4_estimates.csv":
                "fbd7812d3f731afc388b2b08719a1cc57e7be808b04f4a107a8340ec190f8149",
            "fig4_histogram.csv":
                "4957d85a83d281338921cde47ba0ebd52f1c3e33754173536106928d255a0eed",
            "fig4_summary.csv":
                "48b38d385f4f245a3b027d1afd11e913d62083a771175d0f3f4ab66b8e959e84",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_shipped_fig5_csv_bytes(self, tmp_path):
        # the shipped fig5 CSVs depend on the anneal's bits, through <H_Q>
        # and a; pinned like fig4's, at one BLAS thread and the default
        experiment_fig5(ExperimentSpec.from_json(CONFIG_DIR / "fig5.json"), tmp_path)
        pinned = {
            "fig5_summary.csv":
                "cb7fa59ac814afb9a130c24b98090a4c5955a924affffc78bc8e040700517a62",
            "fig5_surface.csv":
                "fbc1287ba915fffbc2e2c18345a8969a75e1e86dbb7a4a4945099e33dc533380",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_shipped_fig4_traced_peak_below_8_mib(self, tmp_path):
        # the 80,000 estimates fill one structured array of 2.9 MB, and the
        # whole run traces about 3.4 MiB; one dict per row traced 18.8 MiB
        spec = ExperimentSpec.from_json(CONFIG_DIR / "fig4.json")
        tracemalloc.start()
        try:
            experiment_fig4(spec, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"

    def test_fig5_schema_and_cross_checks(self, tmp_path):
        spec = ExperimentSpec(kind="fig5", configs=((3, 4, 6),),
                              n_repetitions=2, master_seed=4)
        experiment_fig5(spec, tmp_path)
        surface = read_rows(tmp_path / "fig5_surface.csv")
        assert len(surface) == 2 * 4   # 2 reps x (d+1) points
        for r in surface:
            delta = float(r["exp_hq"]) - float(r["phi_exact"])
            assert abs(delta - float(r["delta"])) < 1e-9
            assert delta >= -1e-9
        summary = read_rows(tmp_path / "fig5_summary.csv")
        assert {"pearson", "found_minimum", "x_star", "x_est"} <= set(summary[0])


class TestSingleRun:
    def test_record_fields_and_consistency(self):
        record = single_run(WORKED_INSTANCE, x=1, T=12, oracle="exact", m=5, seed=7)
        assert record["phi_exact"] == pytest.approx(0.35)
        assert record["o_exact"] == pytest.approx(0.75)
        assert record["delta"] == pytest.approx(
            record["exp_hq"] - record["phi_exact"], abs=1e-12)
        assert record["delta"] >= -1e-9
        assert "wall_time_s" in record

    def test_rejects_infeasible_x(self):
        with pytest.raises(ConfigError):
            single_run(WORKED_INSTANCE, x=5, T=4, oracle="sin", m=4, seed=0)

    def test_exact_table(self):
        rows = exact_table(WORKED_INSTANCE)
        assert [round(r["o"], 10) for r in rows] == [1.15, 0.75, 0.8]


class TestCli:
    def test_make_instance_then_exact(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        assert main(["make-instance", "--n-y", "3", "--seed", "5",
                     "--out", inst_path]) == 0
        assert main(["exact", "--instance", inst_path]) == 0
        out = capsys.readouterr().out
        assert "x,phi,o" in out and "x* =" in out

    def test_exact_out_writes_the_printed_table(self, tmp_path, capsys):
        inst_path, csv_path = str(tmp_path / "inst.json"), tmp_path / "exact.csv"
        save_instance(WORKED_INSTANCE, inst_path)
        assert main(["exact", "--instance", inst_path, "--out", str(csv_path)]) == 0
        *table, best = capsys.readouterr().out.splitlines()
        assert csv_path.read_text() == "\n".join(table) + "\n"
        assert table[0] == "x,phi,o" and len(table) == 4
        assert best.startswith("# x* = 1 ")

    def test_run_command(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        save_instance(WORKED_INSTANCE, inst_path)
        rc = main(["run", "--instance", inst_path, "--x", "1", "--T", "8",
                   "--oracle", "sin", "--m", "5", "--seed", "3",
                   "--out", str(tmp_path / "rec.json")])
        assert rc == 0
        record = json.loads((tmp_path / "rec.json").read_text())
        assert record["x"] == 1 and record["m"] == 5

    def test_amplify_flag(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        save_instance(WORKED_INSTANCE, inst_path)
        rc = main(["run", "--instance", inst_path, "--x", "1", "--T", "4",
                   "--oracle", "exact", "--m", "4", "--seed", "1",
                   "--amplify", "5"])
        assert rc == 0

    def test_experiment_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fig4", "m_values": [5],
                                   "n_estimates": 50, "master_seed": 45}))
        rc = main(["experiment", "fig4", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "fig4_summary.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fig4", "nope": 1}))
        assert main(["experiment", "fig4", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("config", [
        {"kind": "fig3", "n_instances": 2.5},
        {"kind": "fig3", "n_y_values": [4.7]},
        {"kind": "fig4", "n_y": 3.0},
        {"kind": "fig4", "n_estimates": 10.5},
        {"kind": "fig4", "m_values": [5, True]},
        {"kind": "fig5", "n_repetitions": 1.5},
        {"kind": "fig5", "configs": [[4.2, 6, 10.9]]},
        {"kind": "fig5", "amplify": True},
        {"kind": "fig5", "master_seed": "0"},
    ])
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["experiment", config["kind"], "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [[4, 6], [4, 6, 10, 1], [], 5, "4,6,10",
                                       {"n_y": 4, "m": 6, "T": 10}])
    def test_fig5_config_entry_not_three_values_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fig5", "configs": [[4, 6, 10], entry]}))
        out = tmp_path / "out"
        assert main(["experiment", "fig5", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert f"configs entry {entry!r}: expected [n_y, m, T]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["experiment", "fig4", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["fig4", "fig5"])
    def test_workers_refused_for_fig4_and_fig5(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": kind}))
        out = tmp_path / "out"
        for workers in ("0", "2"):
            assert main(["experiment", kind, "--config", str(cfg),
                         "--out", str(out), "--workers", workers]) == 2
            assert "--workers applies to fig3 only" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fig3_nonpositive_workers_exit_2(self, tmp_path, capsys, workers):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fig3", "n_y_values": [3],
                                   "n_instances": 1}))
        out = tmp_path / "out"
        assert main(["experiment", "fig3", "--config", str(cfg),
                     "--out", str(out), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_make_instance_writes_only_a_valid_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main(["make-instance", "--n-y", "0", "--seed", "5",
                     "--out", str(inst_path)]) == 2
        assert "turbine" in capsys.readouterr().err
        assert not inst_path.exists()

    @pytest.mark.parametrize("command", ["exact", "make-instance"])
    def test_block_over_the_cap_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # at n_y = 14 the feasible blocks of weight 5 to 9, and so those x's
        # cost matrices, hold more than 2^24 entries, the simulator cap
        def refuse(*args, **kwargs):
            raise AssertionError("computed phi")

        monkeypatch.setattr(harness, "expected_value_exact", refuse)
        inst_path = tmp_path / "inst.json"
        if command == "exact":
            save_instance(generate_instance(14, 1), str(inst_path))
            argv = ["exact", "--instance", str(inst_path)]
        else:
            argv = ["make-instance", "--n-y", "14", "--seed", "1", "--out", str(inst_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert inst_path.exists() == (command == "exact")

    def test_oversized_instance_refused_before_its_law(self, tmp_path):
        # at n_y = 22 the uniform law holds 2^22 scenarios, and building it
        # peaked at 202 MiB; the block rule needs only n_y, d and n_xi and
        # refuses x = 1 first, in a child process that stays small.  The
        # peak is the child's VmHWM: its ru_maxrss can carry the RSS of the
        # process that started it across exec
        inst_path = tmp_path / "inst.json"
        save_instance(generate_instance(22, 0), str(inst_path))
        script = ("import re, sys\n"
                  "from spq.cli import main\n"
                  f"rc = main(['exact', '--instance', {str(inst_path)!r}])\n"
                  "with open('/proc/self/status') as fh:\n"
                  "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1])\n"
                  "sys.exit(rc)\n")
        src = str(Path(spq.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], timeout=120,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == ("error: x=1 needs a feasible block of 92274688 "
                               "amplitudes, over the simulator cap of 2^24\n")
        peak_mib = int(proc.stdout.split()[-1]) / 1024
        assert peak_mib < 64, f"peak RSS {peak_mib:.1f} MiB"

    @pytest.mark.parametrize("command", ["exact", "run"])
    def test_overflowing_recourse_cost_exits_2(self, tmp_path, capsys, command):
        # c_r = 1e308 is finite, but 2 n_y c_r, the bound on every cost, is
        # not: refused at load instead of printing phi = inf or annealing on
        # NaN phases
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({**generate_instance(3, 1), "c_r": 1e308}))
        argv = [command, "--instance", str(inst_path)]
        if command == "run":
            argv += ["--x", "1", "--T", "2", "--m", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: recourse cost c_r=1e+308")
        assert captured.out == ""

    def test_make_instance_at_the_cap(self, tmp_path, capsys):
        # n_y = 13's largest block, C(13, 6) * 2^13 entries, fits
        inst_path = tmp_path / "inst.json"
        assert main(["make-instance", "--n-y", "13", "--seed", "1",
                     "--out", str(inst_path)]) == 0
        assert model_from_instance(json.loads(inst_path.read_text()))[0].n_y == 13

    MALFORMED_INSTANCES = [
        ({k: v for k, v in WORKED_INSTANCE.items() if k != "c_x"}, "missing field 'c_x'"),
        ({**WORKED_INSTANCE, "d": 2.0}, "d: expected an integer"),
        ({**WORKED_INSTANCE, "n_y": 2.0}, "n_y: expected an integer"),
        ([WORKED_INSTANCE], "not a JSON object"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 0, "p": 0.5}, {"scenario": 3}]}}, "missing field 'p'"),
        ({**WORKED_INSTANCE, "distribution": "uniform"}, "malformed instance"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 1.5, "p": 1.0}]}}, "scenario: expected an integer"),
        ({**WORKED_INSTANCE, "c_r": True}, "c_r: expected a number"),
        ({**WORKED_INSTANCE, "c": ["0.1", 0.2]}, "c: expected a number"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 0, "p": "1"}]}}, "p: expected a number"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 0, "p": float("nan")}, {"scenario": 3, "p": 1.0}]}},
         "p: expected a finite number"),
        ({**WORKED_INSTANCE, "c_r": float("inf")}, "c_r: expected a finite number"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 0, "p": 0.5}, {"scenario": 3, "p": 0.4}]}},
         "distribution: probabilities sum to 0.9"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 0, "p": 1.5}, {"scenario": 3, "p": -0.5}]}},
         "distribution: negative or NaN probability"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 1, "p": 0.5}, {"scenario": 1, "p": 0.5}]}},
         "distribution: duplicate scenario 1"),
        ({**WORKED_INSTANCE, "distribution": {"type": "explicit", "entries": [
            {"scenario": 4, "p": 1.0}]}}, "distribution: scenario 4 does not fit in 2 bits"),
        ({**WORKED_INSTANCE, "n_y": 0}, "n_y=0: need at least one turbine"),
    ]

    @pytest.mark.parametrize("command", ["exact", "run"])
    @pytest.mark.parametrize("inst, error", MALFORMED_INSTANCES)
    def test_malformed_instance_exits_2(self, tmp_path, capsys, command, inst, error):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(inst))
        argv = [command, "--instance", str(inst_path)]
        if command == "run":
            argv += ["--x", "1", "--T", "4", "--m", "5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err

    @pytest.mark.parametrize("command", ["exact", "run"])
    def test_demand_above_the_turbine_count_exits_2(self, tmp_path, capsys, command):
        # d = 5 on 3 turbines: no x below 2 has a feasible y, and the
        # instance is refused as a whole
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({**generate_instance(3, 1), "d": 5}))
        argv = [command, "--instance", str(inst_path)]
        if command == "run":
            argv += ["--x", "1", "--T", "3", "--m", "4"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: demand d=5 must be an integer in [0, n_y=3]\n"

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 32)])
    def test_seed_outside_32_bits_exits_2(self, tmp_path, capsys, seed):
        # -1 would alias 2^32 - 1 and 2^32 would alias 0
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(WORKED_INSTANCE))
        out = tmp_path / "run.json"
        assert main(["run", "--instance", str(inst_path), "--x", "1", "--T", "4",
                     "--m", "5", "--seed", seed, "--out", str(out)]) == 2
        assert "outside [0, 2^32)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exact", "run", "make-instance"])
    def test_scenario_register_over_the_cap_exits_3(self, tmp_path, capsys, command):
        # a uniform law over 48 scenario bits is refused, not allocated
        inst_path = tmp_path / "inst.json"
        if command == "make-instance":
            argv = ["make-instance", "--n-y", "48", "--seed", "1", "--out", str(inst_path)]
        else:
            save_instance(generate_instance(48, 1), str(inst_path))
            argv = [command, "--instance", str(inst_path)]
            if command == "run":
                argv += ["--x", "1", "--T", "4", "--m", "5"]
        assert main(argv) == 3
        assert "48 scenario qubits" in capsys.readouterr().err
        assert inst_path.exists() == (command != "make-instance")

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fig5"}))
        assert main(["experiment", "fig3", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_budget_exceeded_exits_3(self, tmp_path, capsys):
        inst = generate_instance(9, 1)
        inst_path = str(tmp_path / "big.json")
        save_instance(inst, inst_path)
        rc = main(["run", "--instance", inst_path, "--x", "1", "--T", "2",
                   "--oracle", "sin", "--m", "12", "--seed", "0"])
        assert rc == 3


# values an instance field is swapped for: other JSON types, boundary
# integers, and NaN, the infinities and floats at the ends of their range
ODD_VALUES = st.sampled_from([
    None, True, False, "", "1", "uniform", [], [1, 1], {}, {"p": 1},
    0, 1, -1, 2, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64,
    2 ** 1100, -2 ** 1100,
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0, 0.5, 1.5,
])

SWAPS = ["n_y", "c_x", "c", "c_r", "d", "distribution", "seed", "c entry",
         "type", "entries", "scenario", "p", "no c", "duplicate c",
         "no entries", "duplicate entry", "bit-string scenario"]


@st.composite
def malformed_instances(draw):
    """A valid instance of at most 4 turbines, uniform or explicit law,
    with one field swapped (``SWAPS``), or none."""
    n_y = draw(st.integers(1, 4))
    c = draw(st.lists(st.floats(0.01, 0.39), min_size=n_y, max_size=n_y))
    scenarios = draw(st.lists(st.integers(0, 2 ** n_y - 1), min_size=1, unique=True))
    entries = [{"scenario": s, "p": 1 / len(scenarios)} for s in scenarios]
    inst = {"n_y": n_y, "c_x": 0.4, "c": c, "c_r": draw(st.floats(0.5, 2.0)),
            "d": draw(st.integers(0, n_y)), "seed": 0,
            "distribution": draw(st.sampled_from([
                {"type": "uniform"}, {"type": "explicit", "entries": entries}]))}
    swap, odd = draw(st.sampled_from(SWAPS + [None])), draw(ODD_VALUES)
    law = inst["distribution"]
    if swap in ("type", "entries", "scenario", "p", "no entries",
                "duplicate entry", "bit-string scenario"):
        law.update(type="explicit", entries=entries)
    if swap in ("n_y", "c_x", "c", "c_r", "d", "distribution", "seed"):
        inst[swap] = odd
    elif swap == "c entry":
        c[draw(st.integers(0, n_y - 1))] = odd
    elif swap in ("type", "entries"):
        law[swap] = odd
    elif swap in ("scenario", "p"):
        entries[draw(st.integers(0, len(entries) - 1))][swap] = odd
    elif swap in ("no c", "no entries"):
        (c if swap == "no c" else entries).clear()
    elif swap in ("duplicate c", "duplicate entry"):
        (c if swap == "duplicate c" else entries).append(
            (c if swap == "duplicate c" else entries)[0])
    elif swap == "bit-string scenario":
        entries[0]["scenario"] = draw(st.sampled_from(
            ["", "2", "b1", " 1", "0b11", "1" * 63, "1" * 64, "1" * 70]))
    return inst


class TestMalformedInstances:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(inst=malformed_instances(), x=st.integers(-1, 5))
    def test_every_command_exits_by_design(self, inst, x):
        # spq exact and spq run return 0, 2 or 3 and never raise
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "inst.json")
            with open(path, "w") as fh:
                json.dump(inst, fh)
            assert main(["exact", "--instance", path]) in (0, 2, 3)
            assert main(["run", "--instance", path, "--x", str(x),
                         "--T", "2", "--m", "3"]) in (0, 2, 3)
