import json

import numpy as np
import pytest

from qexpander.channels import Channel, complete_depolarizer, random_unitary_channel
from qexpander.fileio import (
    FileFormatError,
    load_channel,
    load_instance,
    load_reduction_spec,
    load_thermal_model,
    matrix_to_json,
    save_channel,
)
from qexpander.linalg import frobenius, paulis, random_operator, rng_from
from qexpander.spectral import spectral_gap_dense

I, X, Y, Z = paulis()


def test_load_instance_from_corpus(corpus):
    inst = load_instance(corpus / "instances" / "identity_z_1q.json")
    assert inst.alpha == 0.9 and inst.beta == 0.5
    assert inst.channel.degree == 2
    assert inst.channel.is_regular


def test_load_instance_with_circuit_path_kraus(corpus):
    inst = load_instance(corpus / "instances" / "hadamard_pair_1q.json")
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert frobenius(inst.channel.kraus[0] - h) < 1e-12


def test_loader_rechecks_unitarity(tmp_path):
    bad = {
        "qubits": 1,
        "kraus": [matrix_to_json(np.diag([1.0, 0.5]))],
        "alpha": 0.9,
        "beta": 0.5,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(FileFormatError, match="unitary"):
        load_instance(path)


def test_loader_missing_fields(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"qubits": 1, "kraus": [matrix_to_json(I)]}))
    with pytest.raises(FileFormatError, match="alpha"):
        load_instance(path)
    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="line 1"):
        load_instance(path)


def test_channel_round_trip_flat(tmp_path):
    ch = random_unitary_channel(2, 3, rng_from(0))
    path = tmp_path / "chan.json"
    save_channel(ch, path)
    back = load_channel(path)
    a = random_operator(4, rng_from(1))
    assert frobenius(ch.apply(a) - back.apply(a)) < 1e-12
    assert back.degree == 3


def test_channel_round_trip_staged(tmp_path):
    rng = rng_from(2)
    comp = Channel.staged((random_unitary_channel(1, 2, rng), complete_depolarizer()))
    path = tmp_path / "staged.json"
    save_channel(comp, path, alpha=0.9, beta=0.3)
    back = load_channel(path)
    assert len(back.stages) == 2
    assert back.degree == comp.degree
    a = random_operator(2, rng)
    assert frobenius(comp.apply(a) - back.apply(a)) < 1e-12
    assert abs(spectral_gap_dense(back).kappa - spectral_gap_dense(comp).kappa) < 1e-12


def test_load_reduction_spec_from_corpus(corpus):
    spec = load_reduction_spec(corpus / "reductions" / "no_2w2a.json")
    assert spec.kappa_f <= 0.1
    assert spec.alpha > spec.beta
    assert spec.layout.num_witness == 2


def test_reduction_spec_needs_one_base_source(tmp_path, corpus):
    doc = {
        "circuit": str(corpus / "circuits" / "no_verifier_2w2a.json"),
        "n_w": 2,
        "n_a": 2,
        "a": 1.0,
        "b": 0.0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="exactly one"):
        load_reduction_spec(path)


def test_reduction_spec_with_base_expander_file(tmp_path, corpus):
    from qexpander.reduction import build_base_expander

    base, kappa = build_base_expander(4, target_kappa=0.35, degree_per_stage=8, seed=1)
    base_path = tmp_path / "base.json"
    save_channel(base, base_path)
    doc = {
        "circuit": str(corpus / "circuits" / "no_verifier_2w2a.json"),
        "n_w": 2,
        "n_a": 2,
        "a": 1.0,
        "b": 0.0,
        "base_expander": "base.json",
        "strict": False,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_reduction_spec(path)
    # kappa_f is re-measured from the loaded channel
    assert spec.kappa_f == pytest.approx(kappa, abs=1e-9)
    assert spec.alpha > spec.beta


def test_load_thermal_model(corpus):
    model = load_thermal_model(corpus / "models" / "pauli_depolarizer_1q.json")
    assert model.degree == 4
    assert model.rate == pytest.approx(4.0)


def test_weights_default_uniform(tmp_path):
    doc = {"qubits": 1, "kraus": [matrix_to_json(I), matrix_to_json(Z)]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    ch = load_channel(path)
    assert ch.is_regular


def test_save_load_save_is_byte_identical(tmp_path):
    rng = rng_from(3)
    flat = random_unitary_channel(2, 3, rng)
    staged = Channel.staged((random_unitary_channel(1, 2, rng), complete_depolarizer()))
    for name, ch in (("flat", flat), ("staged", staged)):
        first, second = tmp_path / f"{name}-1.json", tmp_path / f"{name}-2.json"
        save_channel(ch, first, alpha=0.9, beta=0.3)
        save_channel(load_channel(first), second, alpha=0.9, beta=0.3)
        assert first.read_bytes() == second.read_bytes()
    assert "stages" in json.loads((tmp_path / "staged-1.json").read_text())
    assert "stages" not in json.loads((tmp_path / "flat-1.json").read_text())
