"""Structured-text (JSON) container formats for instances, channels,
reduction specs, thermal models, and states.

All matrices are stored row-major as [re, im] pairs.  Kraus operators and
coupling unitaries may be given inline as such matrices or as paths to
circuit files (resolved relative to the referencing file), which are
simulated to their unitaries on load; unitarity of every element is
re-checked by the channel constructor.
"""

from __future__ import annotations

import json
from itertools import groupby
from pathlib import Path

import numpy as np

from .channels import Channel
from .circuits import (
    SIM_CAP_QUBITS,
    CircuitFormatError,
    RegisterLayout,
    complex_vector_from_json,
    load_circuit,
    matrix_from_json,
    matrix_to_json,
    simulate_unitary,
)
from .reduction import ReductionSpec, build_base_expander, make_reduction_spec
from .spectral import NonExpanderInstance
from .thermalization import ThermalModel


#: Most stages a channel file may expand to, "repeat" runs included.
MAX_STAGES = 4096


class FileFormatError(ValueError):
    pass


def _field(doc: dict, key: str, kind, where):
    """doc[key] converted by `kind` (int or float), or a FileFormatError
    naming the missing or malformed field; an int field rejects
    non-integral numbers instead of truncating them."""
    if key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    try:
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError(f"{value!r} is not integral")
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{where}: field {key!r} must be {kind.__name__}, got {value!r}") from exc
    return out


def vector_from_json(rows, what: str = "amplitudes") -> np.ndarray:
    """Vector from a list of [re, im] pairs, read by the matrix codec."""
    try:
        return complex_vector_from_json(rows, what)
    except CircuitFormatError as exc:
        raise FileFormatError(str(exc)) from exc


def _load_json(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise FileFormatError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return doc


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
    if "stages" not in doc:
        return _flat_channel(doc, base_dir, qubits, where)
    if not isinstance(doc["stages"], list) or not doc["stages"]:
        raise FileFormatError(f"{where}: field 'stages' must be a nonempty list of stage objects")
    stages: list[Channel] = []
    for i, entry in enumerate(doc["stages"]):
        stage = _flat_channel(entry, base_dir, qubits, f"{where} stage {i}")
        repeat = _field(entry, "repeat", int, f"{where} stage {i}") if "repeat" in entry else 1
        if not 1 <= repeat <= MAX_STAGES - len(stages):
            raise FileFormatError(
                f"{where} stage {i}: field 'repeat' must be >= 1 and keep the channel within "
                f"{MAX_STAGES} stages, got {repeat}"
            )
        stages += [stage] * repeat
    return Channel.staged(stages)


def _int_list(doc: dict, key: str, where: str) -> list[int] | None:
    value = doc.get(key)
    if value is not None and not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise FileFormatError(f"{where}: field {key!r} must be a list of integers")
    return value


def _flat_channel(doc, base_dir: Path, qubits: int, where: str) -> Channel:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    if "kraus" not in doc or not isinstance(doc["kraus"], list) or not doc["kraus"]:
        raise FileFormatError(f"{where}: missing nonempty list field 'kraus'")
    targets, control = _int_list(doc, "targets", where), _int_list(doc, "control", where)
    kraus = [
        _kraus_entry(entry, base_dir, qubits if targets is None else len(targets), f"{where} kraus[{i}]")
        for i, entry in enumerate(doc["kraus"])
    ]
    if doc.get("weights") is not None:
        try:
            weights = np.array([float(w) for w in doc["weights"]])
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: field 'weights' must be a list of numbers") from exc
    else:
        weights = np.full(len(kraus), 1.0 / len(kraus))
    signed = doc.get("signed", False)
    if not isinstance(signed, bool):
        raise FileFormatError(f"{where}: field 'signed' must be true or false, got {signed!r}")
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
    if "circuit" not in doc:
        raise FileFormatError(f"{path}: missing field 'circuit'")
    layout = RegisterLayout(_field(doc, "n_w", int, path), _field(doc, "n_a", int, path))
    a, b = _field(doc, "a", float, path), _field(doc, "b", float, path)
    verifier = load_circuit(path.parent / str(doc["circuit"]))
    has_file = doc.get("base_expander") is not None
    has_synth = doc.get("synthesize") is not None
    if has_file == has_synth:
        raise FileFormatError(f"{path}: need exactly one of 'base_expander' or 'synthesize'")
    strict = doc.get("strict", True)
    if not isinstance(strict, bool):
        raise FileFormatError(f"{path}: field 'strict' must be true or false, got {strict!r}")
    kappa_f = None
    if has_file:
        base_path = path.parent / str(doc["base_expander"])
        base = _channel_from_doc(_load_json(base_path), base_path.parent, str(doc["base_expander"]))
    else:
        if not isinstance(doc["synthesize"], dict):
            raise FileFormatError(f"{path}: field 'synthesize' must be an object")
        synth = {"target_kappa": 0.1, "degree_per_stage": 8, "seed": 0, **doc["synthesize"]}
        base, kappa_f = build_base_expander(
            layout.verifier_qubits,
            target_kappa=_field(synth, "target_kappa", float, path),
            degree_per_stage=_field(synth, "degree_per_stage", int, path),
            seed=_field(synth, "seed", int, path),
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
    qubits = _qubits(doc, path)
    if not isinstance(doc.get("unitaries"), list):
        raise FileFormatError(f"{path}: missing list field 'unitaries'")
    unitaries = [
        _kraus_entry(entry, path.parent, qubits, f"{path} unitaries[{i}]")
        for i, entry in enumerate(doc["unitaries"])
    ]
    r0, r1 = _field(doc, "R0", float, path), _field(doc, "R1", float, path)
    try:
        return ThermalModel(tuple(unitaries), r0, r1)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_state_vector(path) -> np.ndarray:
    doc = _load_json(path)
    if "amplitudes" not in doc:
        raise FileFormatError(f"{path}: missing field 'amplitudes'")
    return vector_from_json(doc["amplitudes"])


def load_density_matrix(path) -> np.ndarray:
    doc = _load_json(path)
    if "matrix" not in doc:
        raise FileFormatError(f"{path}: missing field 'matrix'")
    return matrix_from_json(doc["matrix"])
