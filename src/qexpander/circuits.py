"""Gate-level circuits: representation and simulation.

Circuits describe verifier unitaries and explicit Kraus operators.  The
gate set is deliberately small: the fixed-arity kinds of `FIXED_KINDS`
(single-qubit X/Y/Z/H/S/T, CNOT/CZ/TOFFOLI), a native multi-controlled
gate MCU (arbitrary controls with per-control polarity, base either a
named single-qubit gate or an inline 2x2 unitary), and GLOBAL_PHASE.  GLOBAL_PHASE is first-class because sign doubling needs
-U as a circuit.  A field that a gate's kind does not use (`base` or
`matrix` outside MCU, `phase` outside GLOBAL_PHASE, polarities on
GLOBAL_PHASE) is an error, not ignored.
Multi-controlled gates are simulator primitives; the
ancilla-free n_a^2-gate decomposition is never performed (its gate count is
only ever reported symbolically).  Simulation applies each gate to the
rows of the unitary it touches; no gate is lifted to the full space.
`Gate` and `GateCircuit` validate their arguments and raise ValueError.

Qubit 0 is the most significant bit of a basis-state index, consistently
with the register layout below.  The circuit file format is read and
written by :mod:`qexpander.fileio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, check_unitary, split_index

NAMED_BASES = {
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
}

#: The fixed-arity kinds: (named base, number of controls).
FIXED_KINDS = {**{name: (name, 0) for name in NAMED_BASES}, "CNOT": ("X", 1), "CZ": ("Z", 1), "TOFFOLI": ("X", 2)}
CONTROLLED_KINDS = {kind: spec for kind, spec in FIXED_KINDS.items() if spec[1]}
GATE_KINDS = {*FIXED_KINDS, "MCU", "GLOBAL_PHASE"}

#: Dense simulation cap (qubits).
SIM_CAP_QUBITS = 10


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    base: str | None = None
    matrix: np.ndarray | None = None
    phase: complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        object.__setattr__(self, "polarities", tuple(int(p) for p in self.polarities))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        # Fields that one kind alone uses are errors on any other kind.
        owners = (("base", "MCU"), ("matrix", "MCU"), ("phase", "GLOBAL_PHASE"))
        unused = [name for name, kind in owners if getattr(self, name) is not None and self.kind != kind]
        if self.kind == "GLOBAL_PHASE" and self.polarities:
            unused.append("polarities")
        if unused:
            raise ValueError(f"{self.kind} gate takes no {' or '.join(unused)}")
        if self.kind == "GLOBAL_PHASE":
            if self.targets or self.controls:
                raise ValueError("GLOBAL_PHASE takes no qubits")
            if self.phase is None or abs(abs(complex(self.phase)) - 1.0) > 1e-12:
                raise ValueError(f"GLOBAL_PHASE needs a unit-modulus phase, got {self.phase!r}")
            return
        if len(self.targets) != 1:
            raise ValueError(f"{self.kind} needs exactly one target, got {self.targets}")
        if self.kind in FIXED_KINDS:
            count = FIXED_KINDS[self.kind][1]
            if len(self.controls) != count:
                raise ValueError(f"{self.kind} needs {count} control(s), got {self.controls}; MCU takes any")
        elif self.kind == "MCU":
            if (self.base is None) == (self.matrix is None):
                raise ValueError("MCU needs exactly one of a named base or an inline matrix")
            if self.base is not None and self.base not in NAMED_BASES:
                raise ValueError(f"unknown MCU base {self.base!r}")
            if self.matrix is not None:
                mat = np.asarray(self.matrix, dtype=complex)
                if mat.shape != (2, 2):
                    raise ValueError(f"inline MCU matrix must be 2x2, got {mat.shape}")
                mat = check_unitary(mat, tol=1e-10)
                mat.setflags(write=False)
                object.__setattr__(self, "matrix", mat)
        if not self.polarities:
            object.__setattr__(self, "polarities", (1,) * len(self.controls))
        if len(self.polarities) != len(self.controls):
            raise ValueError(
                f"{len(self.polarities)} polarities for {len(self.controls)} controls"
            )
        if any(p not in (0, 1) for p in self.polarities):
            raise ValueError(f"polarities must be bits, got {self.polarities}")
        overlap = set(self.targets) & set(self.controls)
        if overlap:
            raise ValueError(f"control and target sets overlap on qubits {sorted(overlap)}")
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate control qubits in {self.controls}")

    def base_matrix(self) -> np.ndarray:
        if self.kind in FIXED_KINDS:
            return NAMED_BASES[FIXED_KINDS[self.kind][0]]
        if self.kind == "MCU":
            return NAMED_BASES[self.base] if self.base is not None else self.matrix
        raise ValueError(f"{self.kind} has no base matrix")


@dataclass(frozen=True, eq=False)
class GateCircuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            for q in gate.targets + gate.controls:
                if q < 0 or q >= self.num_qubits:
                    raise ValueError(
                        f"gate {i} ({gate.kind}) references qubit {q}, "
                        f"outside [0, {self.num_qubits})"
                    )

    def __len__(self) -> int:
        return len(self.gates)


def simulate_unitary(circuit: GateCircuit) -> np.ndarray:
    """Product of the gates in circuit order, each applied to the rows it touches.

    With p the polarity pattern read as a binary number (first control most
    significant), each row of split_index(m, controls + targets)[:, 2p : 2p + 2]
    indexes the pair of rows of U with target bit 0 and 1 and the controls
    matching p; the base matrix mixes each such pair, and other rows are
    left alone.  GLOBAL_PHASE scales U.  For small circuits (m <= 6) the
    unitarity is asserted.
    """
    m = circuit.num_qubits
    if m > SIM_CAP_QUBITS:
        raise ValueError(f"{m}-qubit circuit exceeds the dense simulation cap ({SIM_CAP_QUBITS})")
    u = np.eye(2**m, dtype=complex)
    for gate in circuit.gates:
        if gate.kind == "GLOBAL_PHASE":
            u *= complex(gate.phase)
            continue
        c = int("".join(map(str, gate.polarities)) or "0", 2)
        rows = split_index(m, gate.controls + gate.targets)[:, 2 * c : 2 * c + 2]
        u[rows] = gate.base_matrix() @ u[rows]
    if m <= 6:
        check_unitary(u)
    return u


def multi_controlled(base, target: int, controls, polarities=None) -> Gate:
    """Native multi-controlled gate applying `base` on `target` iff every
    control matches its polarity bit (polarity 0 = control on |0>).

    `base` may be a gate name or a 2x2 unitary.
    """
    named = {"base": base} if isinstance(base, str) else {"matrix": np.asarray(base, dtype=complex)}
    polarities = () if polarities is None else polarities
    return Gate("MCU", targets=(target,), controls=controls, polarities=polarities, **named)


# ---------------------------------------------------------------------------
# Register layout for verifier circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterLayout:
    """Witness / ancilla / indicator register assignment.

    Witness qubits occupy [0, n_w), ancillas [n_w, n_w + n_a); the single
    indicator qubit sits at index n_w + n_a.  The verifier's output ("top")
    qubit is the first witness qubit.
    """

    num_witness: int
    num_ancilla: int

    def __post_init__(self):
        if self.num_witness < 1 or self.num_ancilla < 1:
            raise ValueError(
                f"need at least one witness and one ancilla qubit, got "
                f"n_w={self.num_witness}, n_a={self.num_ancilla}"
            )

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.num_witness, self.num_witness + self.num_ancilla))

    @property
    def indicator_qubit(self) -> int:
        return self.num_witness + self.num_ancilla

    @property
    def top_qubit(self) -> int:
        return 0

    @property
    def verifier_qubits(self) -> int:
        """Qubits the verifier acts on (witness + ancilla)."""
        return self.num_witness + self.num_ancilla

    @property
    def total_qubits(self) -> int:
        return self.num_witness + self.num_ancilla + 1
