import json

import numpy as np
import pytest

from qexpander.circuits import (
    CONTROLLED_KINDS,
    Gate,
    GateCircuit,
    NAMED_BASES,
    RegisterLayout,
    multi_controlled,
    simulate_unitary,
)
from qexpander.fileio import FileFormatError, load_circuit, parse_circuit, serialize_circuit
from qexpander.linalg import paulis, rng_from

from oracles import dense_unitary

I, X, Y, Z = paulis()


def test_empty_circuit_is_identity():
    assert np.allclose(simulate_unitary(GateCircuit(2)), np.eye(4))


def test_single_hadamard():
    c = GateCircuit(1, (Gate("H", targets=(0,)),))
    assert np.allclose(simulate_unitary(c), NAMED_BASES["H"])


def test_cnot_involution():
    cnot = Gate("CNOT", targets=(1,), controls=(0,))
    assert np.allclose(simulate_unitary(GateCircuit(2, (cnot, cnot))), np.eye(4))


def test_simulation_is_multiplicative():
    gates = (Gate("H", (0,)), Gate("CNOT", (1,), (0,)), Gate("T", (1,)), Gate("CZ", (1,), (0,)))
    c1, c2 = GateCircuit(2, gates[:2]), GateCircuit(2, gates[2:])
    joined = GateCircuit(2, gates)
    assert np.allclose(
        simulate_unitary(joined), simulate_unitary(c2) @ simulate_unitary(c1), atol=1e-10
    )


def test_mcu_single_control_is_cnot():
    g = multi_controlled("X", 1, (0,), (1,))
    expect = simulate_unitary(GateCircuit(2, (Gate("CNOT", (1,), (0,)),)))
    assert np.allclose(simulate_unitary(GateCircuit(2, (g,))), expect)


def test_mcu_two_controls_is_toffoli():
    g = multi_controlled("X", 2, (0, 1), (1, 1))
    expect = simulate_unitary(GateCircuit(3, (Gate("TOFFOLI", (2,), (0, 1)),)))
    assert np.allclose(simulate_unitary(GateCircuit(3, (g,))), expect)


def test_mcu_polarity_zero():
    # MCU(Z; control q0, polarity 0) maps |0>|+> to |0>|->
    g = multi_controlled("Z", 1, (0,), (0,))
    u = simulate_unitary(GateCircuit(2, (g,)))
    plus = np.array([1, 1]) / np.sqrt(2)
    out = u @ np.kron([1, 0], plus)
    assert np.allclose(out, np.kron([1, 0], np.array([1, -1]) / np.sqrt(2)))


def test_mcu_control_pattern_semantics():
    # identity on non-matching basis states, base on matching ones
    g = multi_controlled("X", 2, (0, 1), (1, 0))
    u = simulate_unitary(GateCircuit(3, (g,)))
    for idx in range(8):
        bits = [(idx >> (2 - q)) & 1 for q in range(3)]
        state = np.zeros(8)
        state[idx] = 1.0
        out = u @ state
        if bits[0] == 1 and bits[1] == 0:
            flipped = idx ^ 0b001
            assert abs(out[flipped] - 1) < 1e-12
        else:
            assert abs(out[idx] - 1) < 1e-12


def test_mcu_inline_matrix_base():
    g1 = multi_controlled(np.array([[0, 1], [1, 0]], dtype=complex), 1, (0,))
    g2 = multi_controlled("X", 1, (0,))
    u1 = simulate_unitary(GateCircuit(2, (g1,)))
    u2 = simulate_unitary(GateCircuit(2, (g2,)))
    assert np.allclose(u1, u2)


def test_global_phase_gate():
    c = GateCircuit(1, (Gate("X", (0,)), Gate("GLOBAL_PHASE", phase=-1 + 0j)))
    assert np.allclose(simulate_unitary(c), -X)
    with pytest.raises(ValueError, match="unit-modulus"):
        Gate("GLOBAL_PHASE", phase=2.0 + 0j)


@pytest.mark.parametrize("phase", [[float("nan"), 0.0], [1.0], [1.0, 0.0, 0.0], "1", None, ["1", "0"], [True, 0]])
def test_parsed_global_phase_must_be_a_finite_pair(phase):
    gate = {"kind": "GLOBAL_PHASE", "phase": phase}
    with pytest.raises(FileFormatError, match="phase"):
        parse_circuit(json.dumps({"qubits": 1, "gates": [gate]}))


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("ROTATE", targets=(0,))
    with pytest.raises(ValueError, match="overlap"):
        Gate("CNOT", targets=(0,), controls=(0,))
    with pytest.raises(ValueError, match="polarities"):
        Gate("MCU", targets=(0,), controls=(1, 2), polarities=(1,), base="X")
    with pytest.raises(ValueError, match="exactly one of"):
        Gate("MCU", targets=(0,), controls=(1,))
    with pytest.raises(ValueError, match="not unitary"):
        Gate("MCU", targets=(0,), controls=(1,), matrix=np.array([[1, 0], [0, 2]]))


# One gate of each kind family, and the fields that family does not use.
STRAY_FIELD_GATES = {
    "single-qubit": {"kind": "X", "targets": [0]},
    "controlled": {"kind": "CNOT", "targets": [0], "controls": [1]},
    "MCU": {"kind": "MCU", "targets": [0], "controls": [1], "base": "H"},
    "GLOBAL_PHASE": {"kind": "GLOBAL_PHASE", "phase": [0.0, 1.0]},
}
STRAY_VALUES = {"base": "Z", "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]], "phase": [0.0, 1.0], "polarities": [1]}
STRAY_FIELDS = [
    (family, field)
    for family, fields in (
        ("single-qubit", ("base", "matrix", "phase")),
        ("controlled", ("base", "matrix", "phase")),
        ("MCU", ("phase",)),
        ("GLOBAL_PHASE", ("base", "matrix", "polarities")),
    )
    for field in fields
]


@pytest.mark.parametrize("family,field", STRAY_FIELDS)
def test_gate_rejects_a_field_its_kind_does_not_use(family, field):
    entry = {**STRAY_FIELD_GATES[family], field: STRAY_VALUES[field]}
    kind = entry["kind"]
    with pytest.raises(FileFormatError, match=rf"circuit gate 1: {kind} gate takes no {field}"):
        parse_circuit(json.dumps({"qubits": 2, "gates": [{"kind": "H", "targets": [1]}, entry]}))
    python_values = {"matrix": np.eye(2), "phase": 1j}  # the parsed forms of the JSON values
    fields = {name: python_values.get(name, value) for name, value in entry.items()}
    with pytest.raises(ValueError, match=f"{kind} gate takes no {field}"):
        Gate(**fields)
    # without the stray field the gate loads
    del entry[field]
    parse_circuit(json.dumps({"qubits": 2, "gates": [entry]}))


def test_stray_base_and_phase_on_x_are_rejected_not_written_back():
    text = '{"qubits": 1, "gates": [{"kind": "X", "targets": [0], "base": "Z", "phase": [0, 1]}]}'
    with pytest.raises(FileFormatError, match="circuit gate 0: X gate takes no base or phase"):
        parse_circuit(text)


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(ValueError, match="references qubit 2"):
        GateCircuit(2, (Gate("X", targets=(2,)),))


def test_round_trip_is_canonical():
    circuit = GateCircuit(
        3,
        (
            Gate("H", (0,)),
            Gate("CNOT", (1,), (0,)),
            multi_controlled(np.array([[0, -1j], [1j, 0]]), 2, (0, 1), (1, 0)),
            multi_controlled("H", 2, (0,), (0,)),
            Gate("GLOBAL_PHASE", phase=1j),
        ),
    )
    text = serialize_circuit(circuit)
    reparsed = parse_circuit(text)
    assert serialize_circuit(reparsed) == text
    assert np.allclose(simulate_unitary(reparsed), simulate_unitary(circuit))


def test_corpus_files_round_trip(corpus):
    for path in sorted((corpus / "circuits").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        circuit = parse_circuit(text)
        assert serialize_circuit(circuit) == text
        simulate_unitary(circuit)


def test_parse_rejects_unknown_kind_and_fields():
    with pytest.raises(FileFormatError, match="unknown kind"):
        parse_circuit('{"qubits": 1, "gates": [{"kind": "FOO", "targets": [0]}]}')
    with pytest.raises(FileFormatError, match="unknown fields"):
        parse_circuit('{"qubits": 1, "gates": [{"kind": "X", "targets": [0], "speed": 3}]}')


def test_parse_syntax_error_has_location():
    with pytest.raises(FileFormatError) as err:
        parse_circuit('{"qubits": 2,\n  "gates": [ {"kind": } ]}')
    assert err.value.line == 2
    assert "column" in str(err.value)


def test_parse_semantic_error_names_index():
    with pytest.raises(FileFormatError, match="qubit 5"):
        parse_circuit('{"qubits": 2, "gates": [{"kind": "H", "targets": [5]}]}')


def test_yes_verifier_file_fixes_accept_state(corpus):
    circuit = load_circuit(corpus / "circuits" / "yes_verifier_2w2a.json")
    u = simulate_unitary(circuit)
    # witness |11>, ancilla |00> is mapped to itself (top qubit stays |1>)
    state = np.zeros(16)
    state[0b1100] = 1.0
    assert np.allclose(u @ state, state)


def test_simulation_cap():
    with pytest.raises(ValueError, match="cap"):
        simulate_unitary(GateCircuit(11))


def test_register_layout():
    lay = RegisterLayout(2, 3)
    assert lay.ancilla_qubits == (2, 3, 4)
    assert lay.indicator_qubit == 5
    assert lay.top_qubit == 0
    assert lay.total_qubits == 6
    assert lay.verifier_qubits == 5
    with pytest.raises(ValueError):
        RegisterLayout(0, 2)


def test_simulated_gates_are_unitary():
    for gate in (
        Gate("S", (0,)),
        Gate("CZ", (1,), (0,)),
        multi_controlled("T", 1, (0, 2), (0, 1)),
    ):
        u = simulate_unitary(GateCircuit(3, (gate,)))
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


ALL_KINDS = (*sorted(NAMED_BASES), "CNOT", "CZ", "TOFFOLI", "MCU", "MCU-inline", "GLOBAL_PHASE")


def _random_circuit(m: int, rng: np.random.Generator, kinds=ALL_KINDS, bases=tuple(sorted(NAMED_BASES))) -> GateCircuit:
    """Twelve gates drawn from `kinds` on shuffled qubits: controls and
    target in any order, random polarities, MCU bases drawn from `bases`
    ("MCU-inline" is an MCU with a random inline unitary)."""
    gates = []
    while len(gates) < 12:
        kind = kinds[rng.integers(len(kinds))]
        if kind == "GLOBAL_PHASE":
            gates.append(Gate(kind, phase=complex(np.exp(2j * np.pi * rng.random()))))
            continue
        if kind in CONTROLLED_KINDS:
            controls = CONTROLLED_KINDS[kind][1]
        else:
            controls = 0 if kind in NAMED_BASES else int(rng.integers(0, m))
        if controls >= m:
            continue
        target, *ctrl = (int(q) for q in rng.permutation(m)[: controls + 1])
        pol = tuple(int(b) for b in rng.integers(0, 2, controls))
        if kind == "MCU":
            gates.append(multi_controlled(bases[rng.integers(len(bases))], target, ctrl, pol))
        elif kind == "MCU-inline":
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gates.append(multi_controlled(np.linalg.qr(z)[0], target, ctrl, pol))
        else:
            gates.append(Gate(kind, (target,), ctrl, pol))
    return GateCircuit(m, tuple(gates))


@pytest.mark.parametrize("m", range(1, 7))
def test_simulation_matches_dense_gate_product(m):
    rng = rng_from(70, m)
    for _ in range(4):
        circuit = _random_circuit(m, rng)
        assert np.max(np.abs(simulate_unitary(circuit) - dense_unitary(circuit))) < 1e-12


def test_permutation_circuits_match_dense_product_exactly(corpus):
    rng = rng_from(71)
    circuits = [load_circuit(corpus / "circuits" / f"{key}_verifier_2w2a.json") for key in ("yes", "no")]
    circuits += [_random_circuit(m, rng, ("X", "CNOT", "TOFFOLI", "MCU"), ("X",)) for m in range(1, 7)]
    for circuit in circuits:
        assert np.array_equal(simulate_unitary(circuit), dense_unitary(circuit))
