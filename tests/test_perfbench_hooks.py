"""The benchmark tracer's hooks read their functions' arguments by position
(``_hook_qpe_state`` reads ``layout`` as argument 2).  One tiny call to each
hooked function through an installed ``perfbench/tracer.Tracer`` checks the
span's call count and counters, so a signature change that breaks a hook
fails here and not only in a traced benchmark run."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spq import dqa, harness, model, oracle, qae, statevector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402

WORKED = model.UnitCommitmentModel(n_y=2, c_x=0.4, c=(0.1, 0.2), c_r=1.0, d=2)
DIST = model.DiscreteDistribution.uniform(2)
T = 3


# Each case calls its function through the module attribute the tracer
# patches and returns (calls, counters, distinct input keys or None).

def call_apply(tmp_path):
    state = statevector.StateVector(2)
    for gate in (statevector.dense((0, 1), np.eye(4)), statevector.phase(0, 0.3),
                 statevector.cx(0, 1)):
        statevector.apply(state, gate)
    # the dense gate reads and writes 4 amplitudes and reads a 4x4 matrix,
    # 16 bytes per complex entry
    return 3, {"dense.calls": 1, "other.calls": 1, "controlled.calls": 1,
               "dense.bytes_computed": 2 * 4 * 16 + 4 * 4 * 16}, None


def call_sample_register(tmp_path):
    statevector.sample_register(statevector.StateVector(1), [0], 7, 0)
    return 1, {"shots": 7}, None


def call_cost_diagonal(tmp_path):
    model.cost_diagonal(WORKED)
    model.cost_diagonal(WORKED)
    return 2, {}, 1


def call_run_dqa_fast(tmp_path):
    dqa.run_dqa_fast(WORKED, 1, DIST, dqa.AnnealSchedule.linear(T))
    # C(2, 1) feasible rows times 2^2 scenarios, for T layers
    return 1, {"amp_layers": 2 * 4 * T}, None


def call_build_dqa(tmp_path):
    dqa.build_dqa(WORKED, 1, DIST, dqa.AnnealSchedule.linear(T))
    # Dicke gate, 2 Hadamards, then per layer 2 cost, 2 * 3 penalty and
    # C(2, 2) mixer gates
    return 1, {"gates": 1 + 2 + T * (2 + 6 + 1)}, None


def call_prepare_per_scenario_optimal(tmp_path):
    dqa.prepare_per_scenario_optimal(WORKED, 1, DIST)
    # one reflection vector over the 4 (y, xi) qubits: 2^4 entries of 16
    # bytes each
    return 1, {"matrix_bytes": 16 * 16}, None


def call_build_oracle(tmp_path):
    oracle.build_oracle(oracle.OracleKind("exact", model.cost_bound(WORKED, 1)), WORKED)
    # a diagonal over the 5 (y, xi, ancilla) qubits, 2^5 entries, the two
    # 2-entry phases S and S+ and the two 2x2 Hadamards on the ancilla, 16
    # bytes per entry
    return 1, {"matrix_bytes": (32 + 2 * 2 + 2 * 4) * 16}, None


def call_qpe_state(tmp_path):
    a_seq = statevector.OperatorSequence((statevector.ry(0, 0.6),), "A")
    layout = dqa.RegisterLayout(0, 0, include_ancilla=True)
    for seed in (0, 1):  # the readout seed does not enter the state's key
        qae.qpe_state(a_seq, qae.QaeConfig(m=2, rng_seed=seed), layout)
    return 2, {"grover_applications": 2 * (4 - 1)}, 1


def call_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}, {"a": 3, "b": 1e-13}]
    harness.write_csv(path, ["a", "b"], rows)
    return 1, {"rows": 3, "bytes": len("a,b\r\n1,0.5\r\n2,\r\n3,1e-13\r\n")}, None


CASES = {
    "statevector.apply": call_apply,
    "statevector.sample_register": call_sample_register,
    "model.cost_diagonal": call_cost_diagonal,
    "dqa.run_dqa_fast": call_run_dqa_fast,
    "dqa.build_dqa": call_build_dqa,
    "dqa.prepare_per_scenario_optimal": call_prepare_per_scenario_optimal,
    "oracle.build_oracle": call_build_oracle,
    "qae.qpe_state": call_qpe_state,
    "harness.write_csv": call_write_csv,
}


def test_every_hooked_function_has_a_case():
    hooked = {span for _, _, span, hook in tracer.LAYERS if hook is not None}
    assert hooked == set(CASES)


@pytest.mark.parametrize("span", sorted(CASES))
def test_hook_counts_one_tiny_call(tmp_path, span):
    t = tracer.Tracer()
    t.install()
    try:
        calls, counters, keys = CASES[span](tmp_path)
    finally:
        t.uninstall()
    stat = t.stats[span]
    assert stat.calls == calls
    assert {name: stat.counters.get(name) for name in counters} == counters
    if keys is not None:
        assert len(stat.keys) == keys
        ratio, _ = tracer.layer_metrics(t.stats)[f"{span}.useful_ratio"]
        assert math.isclose(ratio, keys / calls)
