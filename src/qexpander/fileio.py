"""Every file qexpander reads or writes: circuits, channels and decision
instances, reduction specs, thermal models and states, all UTF-8 JSON
objects.

Each kind of JSON object is declared once, as a table in `FIELDS` from
field name to type and default, and `_read` reads every object through
its table: an unknown field is an error rather than a silently ignored
typo, a field set to null counts as absent, and a missing required field
is an error.  An int is a JSON number with an integral value, a float any
JSON number, never a bool for either; [int] and [float] are lists of
such numbers; bool is true or false.  Every malformed file raises
FileFormatError naming the file and the field.

Matrices written by hand are stored row-major as [re, im] pairs of JSON
numbers and phases as one pair; each matrix is one numpy conversion of
its flattened pairs.  Kraus operators and coupling unitaries may be given
inline as such matrices or as paths to circuit files (resolved relative
to the referencing file), which are simulated to their unitaries on load.
A channel stage may instead hold its whole Kraus stack as one field,
"kraus_base64": standard base64 of the little-endian complex128 operators,
row-major, one after another, their count D read off the byte length.
`save_channel` writes every stage that way, so a saved channel formats
and parses no float text and round-trips bit for bit.  Before any Kraus
entry of a stage is decoded or simulated, the stage's bytes are checked
against the memory budget (:func:`qexpander.linalg.check_memory`);
unitarity of every element is re-checked by the channel constructor.
The canonical circuit serializer is bit-exact under round trip.
"""

from __future__ import annotations

import base64
import json
import math
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .channels import Channel, kernel_bytes
from .circuits import GATE_KINDS, SIM_CAP_QUBITS, Gate, GateCircuit, RegisterLayout, simulate_unitary
from .linalg import check_memory
from .reduction import ReductionSpec, build_base_expander, make_reduction_spec
from .spectral import NonExpanderInstance
from .thermalization import ThermalModel


#: Most stages a channel file may expand to, "repeat" runs included.
MAX_STAGES = 4096

#: The default of a field that must be present.
REQUIRED = object()
#: A stage needs exactly one of "kraus" and "kraus_base64".
_STAGE_BODY = {
    "kraus": (list, None), "kraus_base64": (str, None), "weights": ([float], None), "targets": ([int], None),
    "control": ([int], None), "signed": (bool, False),
}
_INSTANCE = {"qubits": (int, REQUIRED), "alpha": (float, None), "beta": (float, None)}

#: Each kind of JSON object's fields: name -> (type, default).  [int] and
#: [float] are lists of such numbers, and `object` takes any value.  A
#: flat or staged channel file is an instance when it holds "alpha" and
#: "beta", and "degree" is informational.
FIELDS = {
    "circuit": {"qubits": (int, REQUIRED), "gates": (list, REQUIRED)},
    "gate": {
        "kind": (str, REQUIRED), "targets": ([int], ()), "controls": ([int], ()), "polarities": ([int], ()),
        "base": (str, None), "matrix": (object, None), "phase": (object, None),
    },
    "channel": {**_INSTANCE, **_STAGE_BODY},
    "staged": {**_INSTANCE, "stages": (list, REQUIRED), "degree": (object, None)},
    "stage": {**_STAGE_BODY, "repeat": (int, 1)},
    "spec": {
        "circuit": (str, REQUIRED), "n_w": (int, REQUIRED), "n_a": (int, REQUIRED), "a": (float, REQUIRED),
        "b": (float, REQUIRED), "base_expander": (str, None), "synthesize": (dict, None), "strict": (bool, True),
    },
    # Absent fields take build_base_expander's defaults.
    "synthesize": {"target_kappa": (float, None), "degree_per_stage": (int, None), "seed": (int, None)},
    "model": {
        "qubits": (int, REQUIRED), "unitaries": (list, REQUIRED), "R0": (float, REQUIRED), "R1": (float, REQUIRED),
    },
    "state vector": {"amplitudes": (list, REQUIRED)},
    "density matrix": {"matrix": (list, REQUIRED)},
}

_NAMES = {int: "int", float: "float", bool: "true or false", str: "a string", list: "a list", dict: "an object"}
_LIST_NAMES = {int: "integers", float: "numbers"}


class FileFormatError(ValueError):
    """A malformed input file, with the line and column of a JSON syntax
    error when there is one."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _json_object(text: str, where):
    """The decoded JSON document; `_read` checks that it is an object."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise FileFormatError(f"{path}: file not found") from exc
    return _json_object(text, path)


def _typed(value, kind):
    """`value` as `kind`, or None if it is not one: int and float take JSON
    numbers but not bools, and int only integral ones; bool, str, list and
    dict take only their own kind, and object any value."""
    if kind is not int and kind is not float:
        return value if isinstance(value, kind) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = kind(value)
    except (ValueError, OverflowError):
        return None
    return out if kind is float or out == value else None


def _read(doc, table: dict, where) -> dict:
    """Every field of the JSON object `doc` by `table` (one of `FIELDS`),
    typed, with absent or null fields at their defaults; an error for a
    non-object, an unknown or mistyped field, or a missing required one."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    extra = doc.keys() - table.keys()
    if extra:
        raise FileFormatError(f"{where} has unknown fields {sorted(extra)}")
    out = {}
    for key, (kind, default) in table.items():
        value = doc.get(key)
        if value is None:
            if default is REQUIRED:
                raise FileFormatError(f"{where}: missing field {key!r}")
            out[key] = default
        elif isinstance(kind, list):
            out[key] = [_typed(v, kind[0]) for v in value] if isinstance(value, list) else [None]
            if None in out[key]:
                raise FileFormatError(f"{where}: field {key!r} must be a list of {_LIST_NAMES[kind[0]]}")
        else:
            out[key] = _typed(value, kind)
            if out[key] is None:
                raise FileFormatError(f"{where}: field {key!r} must be {_NAMES[kind]}, got {value!r}")
    return out


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
    fields = _read(entry, FIELDS["gate"], where)
    if fields["kind"] not in GATE_KINDS:
        raise FileFormatError(f"{where} has unknown kind {fields['kind']!r}")
    if fields["matrix"] is not None:
        fields["matrix"] = matrix_from_json(fields["matrix"], f"{where} matrix")
    if fields["phase"] is not None:
        fields["phase"] = complex(complex_vector_from_json([fields["phase"]], f"{where} phase")[0])
    try:
        return Gate(**fields)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _circuit_from_doc(doc, where) -> GateCircuit:
    fields = _read(doc, FIELDS["circuit"], where)
    gates = [_gate(entry, f"{where} gate {i}") for i, entry in enumerate(fields["gates"])]
    try:
        return GateCircuit(fields["qubits"], tuple(gates))
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


def _qubits(fields: dict, where) -> int:
    qubits = fields["qubits"]
    if not 1 <= qubits <= SIM_CAP_QUBITS:
        raise FileFormatError(f"{where}: field 'qubits' must lie in [1, {SIM_CAP_QUBITS}], got {qubits}")
    return qubits


def _channel_from_doc(doc, base_dir: Path, where: str) -> tuple[Channel, dict]:
    """The channel of a flat or staged channel document, and the document's
    top-level fields."""
    staged = isinstance(doc, dict) and doc.get("stages") is not None
    fields = _read(doc, FIELDS["staged" if staged else "channel"], where)
    qubits = _qubits(fields, where)
    if not staged:
        return _stage(fields, base_dir, qubits, where), fields
    if not fields["stages"]:
        raise FileFormatError(f"{where}: field 'stages' must be a nonempty list of stage objects")
    stages: list[Channel] = []
    for i, entry in enumerate(fields["stages"]):
        at = f"{where} stage {i}"
        stage = _read(entry, FIELDS["stage"], at)
        repeat = stage["repeat"]
        if not 1 <= repeat <= MAX_STAGES - len(stages):
            raise FileFormatError(
                f"{at}: field 'repeat' must be >= 1 and keep the channel within {MAX_STAGES} stages, got {repeat}"
            )
        stages += [_stage(stage, base_dir, qubits, at)] * repeat
    return Channel.staged(stages), fields


def _stage(fields: dict, base_dir: Path, qubits: int, where: str) -> Channel:
    entries, packed = fields["kraus"], fields["kraus_base64"]
    if (entries is None) == (packed is None):
        raise FileFormatError(f"{where}: need exactly one of 'kraus' or 'kraus_base64'")
    if packed is None and not entries:
        raise FileFormatError(f"{where}: field 'kraus' must be a nonempty list")
    targets, weights = fields["targets"], fields["weights"]
    k = qubits if targets is None else len(targets)
    # 16 bytes per entry for the stack, and the kernel the stage will build.
    count = len(entries) if packed is None else len(packed) * 3 // 4 // (16 * 4**k)
    check_memory(
        16 * count * 4**k + kernel_bytes(count, k),
        f"{where}: {count} Kraus operators of {2**k} x {2**k} and their operands",
    )
    if packed is None:
        kraus = [_kraus_entry(entry, base_dir, k, f"{where} kraus[{i}]") for i, entry in enumerate(entries)]
    else:
        kraus = _packed_kraus(packed, k, where)
    weights = np.full(len(kraus), 1.0 / len(kraus)) if weights is None else np.array(weights)
    try:
        return Channel(
            kraus, weights, qubits=qubits, targets=targets, control=fields["control"], signed=fields["signed"]
        )
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _packed_kraus(text: str, k: int, where: str) -> np.ndarray:
    """The (D, 2^k, 2^k) stack of a "kraus_base64" field: padded standard
    base64 of little-endian complex128 entries, row-major, D read off the
    length."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise FileFormatError(f"{where}: field 'kraus_base64' is not base64: {exc}") from exc
    size = 16 * 4**k
    if not raw or len(raw) % size:
        raise FileFormatError(
            f"{where}: field 'kraus_base64' holds {len(raw)} bytes, not a positive multiple of"
            f" {size} (one {2**k} x {2**k} complex128 operator)"
        )
    kraus = np.frombuffer(raw, dtype="<c16").reshape(-1, 2**k, 2**k)
    if not np.isfinite(kraus).all():
        raise FileFormatError(f"{where}: field 'kraus_base64' must hold finite numbers")
    return kraus


def load_channel(path) -> Channel:
    path = Path(path)
    return _channel_from_doc(_load_json(path), path.parent, str(path))[0]


def load_instance(path) -> NonExpanderInstance:
    path = Path(path)
    channel, fields = _channel_from_doc(_load_json(path), path.parent, str(path))
    for key in ("alpha", "beta"):
        if fields[key] is None:
            raise FileFormatError(f"{path}: missing field {key!r}")
    try:
        return NonExpanderInstance(channel, fields["alpha"], fields["beta"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _stage_doc(stage: Channel) -> dict:
    doc = {
        "weights": [float(w) for w in stage.target_weights],
        "kraus_base64": base64.b64encode(stage.target_kraus.astype("<c16").tobytes()).decode("ascii"),
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
    written as its half set with "signed": true.  Each stage's Kraus stack
    is one "kraus_base64" field."""
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
    fields = _read(_load_json(path), FIELDS["spec"], path)
    try:
        layout = RegisterLayout(fields["n_w"], fields["n_a"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    verifier = load_circuit(path.parent / fields["circuit"])
    base_file, synth = fields["base_expander"], fields["synthesize"]
    if (base_file is None) == (synth is None):
        raise FileFormatError(f"{path}: need exactly one of 'base_expander' or 'synthesize'")
    kappa_f = None
    if base_file is not None:
        base_path = path.parent / base_file
        base = _channel_from_doc(_load_json(base_path), base_path.parent, base_file)[0]
    else:
        synth = _read(synth, FIELDS["synthesize"], f"{path} synthesize")
        base, kappa_f = build_base_expander(
            layout.verifier_qubits, **{key: value for key, value in synth.items() if value is not None}
        )
    try:
        return make_reduction_spec(
            verifier, layout, a=fields["a"], b=fields["b"], base_expander=base, kappa_f=kappa_f, strict=fields["strict"]
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_thermal_model(path) -> ThermalModel:
    path = Path(path)
    fields = _read(_load_json(path), FIELDS["model"], path)
    qubits = _qubits(fields, path)
    unitaries = [
        _kraus_entry(entry, path.parent, qubits, f"{path} unitaries[{i}]")
        for i, entry in enumerate(fields["unitaries"])
    ]
    try:
        return ThermalModel(tuple(unitaries), fields["R0"], fields["R1"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_state_vector(path) -> np.ndarray:
    amplitudes = _read(_load_json(path), FIELDS["state vector"], path)["amplitudes"]
    return complex_vector_from_json(amplitudes, "amplitudes")


def load_density_matrix(path) -> np.ndarray:
    return matrix_from_json(_read(_load_json(path), FIELDS["density matrix"], path)["matrix"])
