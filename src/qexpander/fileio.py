"""Every file qexpander reads or writes: circuits, channels and decision
instances, reduction specs, thermal models and states, all UTF-8 JSON
objects.

One reader serves every format.  `_json_object` decodes a document and
the typed field readers decide what a well-formed field is: an int is a
JSON number with an integral value, a float any JSON number, never a bool
for either; a list of ints (qubits, polarities, control bits) or of
floats (weights) holds only such numbers; a flag is true or false; a name
is a string.  An optional field set to null counts as absent.  Each kind
of JSON object (circuit, gate, channel, stage, instance, spec and its
"synthesize" object, model, state) has a fixed set of fields, and an
unknown one is an error rather than a silently ignored typo.  Every
malformed file raises FileFormatError naming the file and the field.

Matrices are stored row-major as [re, im] pairs of JSON numbers and
phases as one pair; each matrix is one numpy conversion of its flattened
pairs.  Kraus operators and coupling unitaries may be given inline as
such matrices or as paths to circuit files (resolved relative to the
referencing file), which are simulated to their unitaries on load;
unitarity of every element is re-checked by the channel constructor.  A circuit file is
{"qubits": m, "gates": [...]} where each gate is {"kind", "targets",
"controls"?, "polarities"?, "base"?, "matrix"?, "phase"?}; its canonical
serializer is bit-exact under round trip.
"""

from __future__ import annotations

import json
import math
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .channels import Channel
from .circuits import GATE_KINDS, SIM_CAP_QUBITS, Gate, GateCircuit, RegisterLayout, simulate_unitary
from .reduction import ReductionSpec, build_base_expander, make_reduction_spec
from .spectral import NonExpanderInstance
from .thermalization import ThermalModel


#: Most stages a channel file may expand to, "repeat" runs included.
MAX_STAGES = 4096

#: The fields each kind of JSON object may carry.
CIRCUIT_FIELDS = frozenset({"qubits", "gates"})
GATE_FIELDS = frozenset({"kind", "targets", "controls", "polarities", "base", "matrix", "phase"})
_STAGE_BODY = frozenset({"kraus", "weights", "targets", "control", "signed"})
#: A flat channel or instance file; `save_channel` writes the thresholds
#: into channel files too.
CHANNEL_FIELDS = _STAGE_BODY | {"qubits", "alpha", "beta"}
#: A staged channel or instance file; "degree" is informational.
STAGED_FIELDS = frozenset({"qubits", "stages", "degree", "alpha", "beta"})
STAGE_FIELDS = _STAGE_BODY | {"repeat"}
SPEC_FIELDS = frozenset({"circuit", "n_w", "n_a", "a", "b", "base_expander", "synthesize", "strict"})
SYNTHESIZE_FIELDS = frozenset({"target_kappa", "degree_per_stage", "seed"})
MODEL_FIELDS = frozenset({"qubits", "unitaries", "R0", "R1"})

_NAMES = {int: "int", float: "float", bool: "true or false", str: "a string", list: "a list", dict: "an object"}
_LIST_NAMES = {int: "integers", float: "numbers"}
_REQUIRED = object()


class FileFormatError(ValueError):
    """A malformed input file, with the line and column of a JSON syntax
    error when there is one."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _json_object(text: str, where) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    return doc


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise FileFormatError(f"{path}: file not found") from exc
    return _json_object(text, path)


def _known(doc: dict, fields: frozenset, where) -> None:
    """Reject the fields of `doc` outside `fields`."""
    extra = doc.keys() - fields
    if extra:
        raise FileFormatError(f"{where} has unknown fields {sorted(extra)}")


def _typed(value, kind):
    """`value` as `kind`, or None if it is not one: int and float take JSON
    numbers but not bools, and int only integral ones; bool, str, list and
    dict take only their own kind."""
    if kind is not int and kind is not float:
        return value if isinstance(value, kind) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = kind(value)
    except (ValueError, OverflowError):
        return None
    return out if kind is float or out == value else None


def _field(doc: dict, key: str, kind, where, default=_REQUIRED):
    """doc[key] read as `kind`; an absent or null field is `default`, and
    an error when no default is given."""
    if default is not _REQUIRED and doc.get(key) is None:
        return default
    if key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    out = _typed(doc[key], kind)
    if out is None:
        raise FileFormatError(f"{where}: field {key!r} must be {_NAMES[kind]}, got {doc[key]!r}")
    return out


def _list(doc: dict, key: str, kind, where) -> list | None:
    """doc[key] as a list of `kind` (int or float) entries; None when the
    field is absent or null."""
    value = doc.get(key)
    if value is None:
        return None
    items = [_typed(v, kind) for v in value] if isinstance(value, list) else [None]
    if any(v is None for v in items):
        raise FileFormatError(f"{where}: field {key!r} must be a list of {_LIST_NAMES[kind]}")
    return items


def complex_vector_from_json(rows, what: str) -> np.ndarray:
    """Complex vector from a list of [re, im] pairs of finite JSON numbers;
    a string or a bool is not a number, even where numpy would convert it.
    The pairs are flattened once, the entry types checked over that flat
    list, and the flat list converted: together no slower than numpy's
    conversion of the nested list alone."""
    try:
        pairs_only = isinstance(rows, list) and set(map(len, rows)) == {2}
    except TypeError:  # an entry with no length
        pairs_only = False
    if not pairs_only:
        raise FileFormatError(f"{what} must be a nonempty list of [re, im] pairs")
    # A length-2 entry that is not a list yields non-numbers here: a string
    # its characters, an object its keys.
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if not kinds <= {float, int}:
        names = sorted(t.__name__ for t in kinds)
        raise FileFormatError(f"{what} must be a list of [re, im] pairs of JSON numbers, got entries of type {names}")
    try:
        pairs = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise FileFormatError(f"{what} must hold finite numbers: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise FileFormatError(f"{what} must hold finite numbers")
    return pairs.view(complex)


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    """Square matrix from a row-major list of [re, im] pairs."""
    flat = complex_vector_from_json(rows, what)
    n = math.isqrt(flat.size)
    if n * n != flat.size:
        raise FileFormatError(f"{what} has {flat.size} entries, not a square matrix")
    return flat.reshape(n, n)


def matrix_to_json(mat: np.ndarray) -> list:
    """Row-major list of [re, im] pairs; inverse of :func:`matrix_from_json`."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], -1).reshape(-1, 2).tolist()


def _gate(entry, where: str) -> Gate:
    if not isinstance(entry, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    _known(entry, GATE_FIELDS, where)
    kind = _field(entry, "kind", str, where)
    if kind not in GATE_KINDS:
        raise FileFormatError(f"{where} has unknown kind {kind!r}")
    matrix, phase = entry.get("matrix"), entry.get("phase")
    kwargs = {
        "targets": _list(entry, "targets", int, where) or (),
        "controls": _list(entry, "controls", int, where) or (),
        "polarities": _list(entry, "polarities", int, where) or (),
        "base": _field(entry, "base", str, where, None),
        "matrix": None if matrix is None else matrix_from_json(matrix, f"{where} matrix"),
        "phase": None if phase is None else complex(complex_vector_from_json([phase], f"{where} phase")[0]),
    }
    try:
        return Gate(kind, **kwargs)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _circuit_from_doc(doc: dict, where) -> GateCircuit:
    _known(doc, CIRCUIT_FIELDS, where)
    qubits = _field(doc, "qubits", int, where)
    gates = [_gate(entry, f"{where} gate {i}") for i, entry in enumerate(_field(doc, "gates", list, where))]
    try:
        return GateCircuit(qubits, tuple(gates))
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def parse_circuit(text: str) -> GateCircuit:
    """Parse the JSON circuit format; a JSON syntax error names its line
    and column."""
    return _circuit_from_doc(_json_object(text, "circuit"), "circuit")


def load_circuit(path) -> GateCircuit:
    return _circuit_from_doc(_load_json(path), path)


def serialize_circuit(circuit: GateCircuit) -> str:
    """Canonical serialization; parse(serialize(c)) reproduces c bit-exactly."""
    gates = []
    for gate in circuit.gates:
        entry: dict = {"kind": gate.kind, "targets": list(gate.targets)}
        if gate.controls:
            entry["controls"] = list(gate.controls)
            entry["polarities"] = list(gate.polarities)
        if gate.base is not None:
            entry["base"] = gate.base
        if gate.matrix is not None:
            entry["matrix"] = matrix_to_json(gate.matrix)
        if gate.phase is not None:
            entry["phase"] = [float(gate.phase.real), float(gate.phase.imag)]
        if gate.kind == "GLOBAL_PHASE":
            entry.pop("targets")
        gates.append(json.dumps(entry, separators=(", ", ": ")))
    body = ",\n    ".join(gates)
    gate_block = f"[\n    {body}\n  ]" if gates else "[]"
    return f'{{\n  "qubits": {circuit.num_qubits},\n  "gates": {gate_block}\n}}\n'


def _kraus_entry(entry, base_dir: Path, qubits: int, what: str) -> np.ndarray:
    if isinstance(entry, str):
        circuit = load_circuit(base_dir / entry)
        if circuit.num_qubits != qubits:
            raise FileFormatError(
                f"{what}: circuit {entry!r} acts on {circuit.num_qubits} qubits, expected {qubits}"
            )
        return simulate_unitary(circuit)
    mat = matrix_from_json(entry, what)
    if mat.shape[0] != 2**qubits:
        raise FileFormatError(f"{what}: matrix dimension {mat.shape[0]} != 2^{qubits}")
    return mat


def _qubits(doc: dict, where) -> int:
    qubits = _field(doc, "qubits", int, where)
    if not 1 <= qubits <= SIM_CAP_QUBITS:
        raise FileFormatError(f"{where}: field 'qubits' must lie in [1, {SIM_CAP_QUBITS}], got {qubits}")
    return qubits


def _channel_from_doc(doc: dict, base_dir: Path, where: str) -> Channel:
    qubits = _qubits(doc, where)
    entries = _field(doc, "stages", list, where, None)
    if entries is None:
        return _flat_channel(doc, base_dir, qubits, where, CHANNEL_FIELDS)
    _known(doc, STAGED_FIELDS, where)
    if not entries:
        raise FileFormatError(f"{where}: field 'stages' must be a nonempty list of stage objects")
    stages: list[Channel] = []
    for i, entry in enumerate(entries):
        stage = _flat_channel(entry, base_dir, qubits, f"{where} stage {i}", STAGE_FIELDS)
        repeat = _field(entry, "repeat", int, f"{where} stage {i}", 1)
        if not 1 <= repeat <= MAX_STAGES - len(stages):
            raise FileFormatError(
                f"{where} stage {i}: field 'repeat' must be >= 1 and keep the channel within "
                f"{MAX_STAGES} stages, got {repeat}"
            )
        stages += [stage] * repeat
    return Channel.staged(stages)


def _flat_channel(doc, base_dir: Path, qubits: int, where: str, fields: frozenset) -> Channel:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    _known(doc, fields, where)
    entries = _field(doc, "kraus", list, where)
    if not entries:
        raise FileFormatError(f"{where}: field 'kraus' must be a nonempty list")
    targets, control = _list(doc, "targets", int, where), _list(doc, "control", int, where)
    kraus = [
        _kraus_entry(entry, base_dir, qubits if targets is None else len(targets), f"{where} kraus[{i}]")
        for i, entry in enumerate(entries)
    ]
    weights = _list(doc, "weights", float, where)
    weights = np.full(len(kraus), 1.0 / len(kraus)) if weights is None else np.array(weights)
    signed = _field(doc, "signed", bool, where, False)
    try:
        return Channel(kraus, weights, qubits=qubits, targets=targets, control=control, signed=signed)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def load_channel(path) -> Channel:
    path = Path(path)
    return _channel_from_doc(_load_json(path), path.parent, str(path))


def load_instance(path) -> NonExpanderInstance:
    path = Path(path)
    doc = _load_json(path)
    channel = _channel_from_doc(doc, path.parent, str(path))
    alpha, beta = _field(doc, "alpha", float, path), _field(doc, "beta", float, path)
    try:
        return NonExpanderInstance(channel, alpha, beta)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _stage_doc(stage: Channel) -> dict:
    doc = {
        "weights": [float(w) for w in stage.target_weights],
        "kraus": [matrix_to_json(u) for u in stage.target_kraus],
    }
    if stage.signed:
        doc["signed"] = True
    if stage.targets != tuple(range(stage.qubits)):
        doc["targets"] = list(stage.targets)
    if stage.control is not None:
        doc["control"] = stage.control.astype(int).tolist()
    return doc


def save_channel(channel: Channel, path, alpha: float | None = None, beta: float | None = None) -> None:
    """Write a channel (flat, or staged when it has several stages) with
    optional instance thresholds.  A run of consecutive stages that are one
    object is written once, with its length as "repeat".  A signed stage is
    written as its half set with "signed": true."""
    stages = []
    for _, run in groupby(channel.stages, key=id):
        run = list(run)
        stages.append(_stage_doc(run[0]))
        if len(run) > 1:
            stages[-1]["repeat"] = len(run)
    doc: dict = {"qubits": channel.qubits}
    if len(channel.stages) > 1:
        doc["stages"] = stages
        doc["degree"] = channel.degree
    else:
        doc.update(stages[0])
    if alpha is not None:
        doc["alpha"] = float(alpha)
    if beta is not None:
        doc["beta"] = float(beta)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_reduction_spec(path) -> ReductionSpec:
    """Load a reduction spec: verifier circuit path, layout integers, (a, b),
    and either a base-expander channel file or synthesis parameters."""
    path = Path(path)
    doc = _load_json(path)
    _known(doc, SPEC_FIELDS, path)
    circuit = _field(doc, "circuit", str, path)
    n_w, n_a = _field(doc, "n_w", int, path), _field(doc, "n_a", int, path)
    try:
        layout = RegisterLayout(n_w, n_a)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    a, b = _field(doc, "a", float, path), _field(doc, "b", float, path)
    verifier = load_circuit(path.parent / circuit)
    base_file = _field(doc, "base_expander", str, path, None)
    synth = _field(doc, "synthesize", dict, path, None)
    if (base_file is None) == (synth is None):
        raise FileFormatError(f"{path}: need exactly one of 'base_expander' or 'synthesize'")
    strict = _field(doc, "strict", bool, path, True)
    kappa_f = None
    if base_file is not None:
        base_path = path.parent / base_file
        base = _channel_from_doc(_load_json(base_path), base_path.parent, base_file)
    else:
        _known(synth, SYNTHESIZE_FIELDS, f"{path} synthesize")
        kinds = {"target_kappa": float, "degree_per_stage": int, "seed": int}
        base, kappa_f = build_base_expander(
            layout.verifier_qubits,
            **{key: _field(synth, key, kind, path) for key, kind in kinds.items() if key in synth},
        )
    try:
        return make_reduction_spec(
            verifier,
            layout,
            a=a,
            b=b,
            base_expander=base,
            kappa_f=kappa_f,
            strict=strict,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_thermal_model(path) -> ThermalModel:
    path = Path(path)
    doc = _load_json(path)
    _known(doc, MODEL_FIELDS, path)
    qubits = _qubits(doc, path)
    unitaries = [
        _kraus_entry(entry, path.parent, qubits, f"{path} unitaries[{i}]")
        for i, entry in enumerate(_field(doc, "unitaries", list, path))
    ]
    r0, r1 = _field(doc, "R0", float, path), _field(doc, "R1", float, path)
    try:
        return ThermalModel(tuple(unitaries), r0, r1)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_state_vector(path) -> np.ndarray:
    doc = _load_json(path)
    _known(doc, frozenset({"amplitudes"}), path)
    return complex_vector_from_json(_field(doc, "amplitudes", list, path), "amplitudes")


def load_density_matrix(path) -> np.ndarray:
    doc = _load_json(path)
    _known(doc, frozenset({"matrix"}), path)
    return matrix_from_json(_field(doc, "matrix", list, path))
