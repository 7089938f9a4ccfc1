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
from pathlib import Path

import numpy as np

from .channels import Channel
from .circuits import (
    RegisterLayout,
    complex_pair,
    load_circuit,
    matrix_from_json,
    matrix_to_json,
    simulate_unitary,
)
from .reduction import ReductionSpec, build_base_expander, make_reduction_spec
from .spectral import NonExpanderInstance
from .thermalization import ThermalModel


class FileFormatError(ValueError):
    pass


def _field(doc: dict, key: str, kind, where):
    """doc[key] converted by `kind` (int or float), or a FileFormatError
    naming the missing or malformed field."""
    if key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    try:
        return kind(doc[key])
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: field {key!r} must be {kind.__name__}, got {doc[key]!r}") from exc


def vector_from_json(rows, what: str = "amplitudes") -> np.ndarray:
    """Vector from a list of [re, im] pairs, each checked by the matrix codec's pair rule."""
    try:
        return np.array([complex_pair(p, f"{what}[{i}]") for i, p in enumerate(rows)], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what} must be a list of [re, im] pairs: {exc}") from exc


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


def _channel_from_doc(doc: dict, base_dir: Path, where: str) -> Channel:
    qubits = _field(doc, "qubits", int, where)
    if "stages" not in doc:
        return _flat_channel(doc, base_dir, qubits, where)
    if not isinstance(doc["stages"], list) or not doc["stages"]:
        raise FileFormatError(f"{where}: field 'stages' must be a nonempty list of stage objects")
    return Channel.staged(
        _flat_channel(stage, base_dir, qubits, f"{where} stage {i}") for i, stage in enumerate(doc["stages"])
    )


def _flat_channel(doc, base_dir: Path, qubits: int, where: str) -> Channel:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    if "kraus" not in doc or not isinstance(doc["kraus"], list) or not doc["kraus"]:
        raise FileFormatError(f"{where}: missing nonempty list field 'kraus'")
    kraus = [
        _kraus_entry(entry, base_dir, qubits, f"{where} kraus[{i}]")
        for i, entry in enumerate(doc["kraus"])
    ]
    if doc.get("weights") is not None:
        try:
            weights = np.array([float(w) for w in doc["weights"]])
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: field 'weights' must be a list of numbers") from exc
    else:
        weights = np.full(len(kraus), 1.0 / len(kraus))
    try:
        return Channel(kraus, weights)
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


def save_channel(channel: Channel, path, alpha: float | None = None, beta: float | None = None) -> None:
    """Write a channel (flat, or staged when it has several stages) with
    optional instance thresholds."""
    stages = [
        {"weights": [float(w) for w in s.weights], "kraus": [matrix_to_json(u) for u in s.kraus]}
        for s in channel.stages
    ]
    doc: dict = {"qubits": channel.qubits}
    if len(stages) > 1:
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
    qubits = _field(doc, "qubits", int, path)
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
