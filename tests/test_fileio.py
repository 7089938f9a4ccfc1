import base64
import json
import re
import struct
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from qexpander import cli
from qexpander.channels import Channel, channel_power, complete_depolarizer, random_unitary_channel
from qexpander.fileio import (
    FIELDS,
    REQUIRED,
    FileFormatError,
    complex_vector_from_json,
    load_channel,
    load_circuit,
    load_density_matrix,
    load_instance,
    load_reduction_spec,
    load_state_vector,
    load_thermal_model,
    matrix_from_json,
    matrix_to_json,
    save_channel,
)
from qexpander.linalg import frobenius, paulis, rng_from
from qexpander.reduction import build_reduction, controlled_channel, sign_double

from oracles import dense_kappa, is_regular, random_operator

I, X, Y, Z = paulis()


def test_load_instance_from_corpus(corpus):
    inst = load_instance(corpus / "instances" / "identity_z_1q.json")
    assert inst.alpha == 0.9 and inst.beta == 0.5
    assert inst.channel.degree == 2
    assert is_regular(inst.channel)


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
    assert abs(dense_kappa(back) - dense_kappa(comp)) < 1e-12


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
    assert is_regular(ch)


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


def _structured_channel():
    """Three qubits: a controlled depolarizer stage, then a power of one
    controlled two-qubit stage (one shared object), then a flat stage."""
    rng = rng_from(60)
    dep = complete_depolarizer()
    ctrl_dep = Channel(dep.kraus, dep.weights, qubits=3, targets=(1,), control=[1, 0, 1, 1])
    inner = sign_double(random_unitary_channel(2, 2, rng))
    power = controlled_channel(channel_power(inner, 3), (2, 0), [0, 1], 3)
    return Channel.staged((ctrl_dep, power, random_unitary_channel(3, 2, rng)))


def test_structured_repeated_round_trip_is_byte_identical(tmp_path):
    ch = _structured_channel()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_channel(ch, first, alpha=0.9, beta=0.3)
    back = load_channel(first)
    save_channel(back, second, alpha=0.9, beta=0.3)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert [s.get("repeat", 1) for s in doc["stages"]] == [1, 3, 1]
    assert doc["stages"][0]["targets"] == [1] and doc["stages"][0]["control"] == [1, 0, 1, 1]
    assert doc["stages"][1]["targets"] == [2, 0] and doc["stages"][1]["control"] == [0, 1]
    assert "targets" not in doc["stages"][2] and "control" not in doc["stages"][2]
    assert len(back.stages) == 5 and back.stages[1] is back.stages[3]
    assert back.degree == ch.degree == doc["degree"]
    a = random_operator(8, rng_from(61))
    assert frobenius(back.apply(a) - ch.apply(a)) < 1e-15


def test_structured_single_stage_round_trip(tmp_path):
    dep = complete_depolarizer()
    ch = Channel(dep.kraus, dep.weights, qubits=2, targets=(0,), control=[0, 1])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_channel(ch, first)
    save_channel(load_channel(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert "stages" not in json.loads(first.read_text())


def _stage_stacks(path) -> list[np.ndarray]:
    """Each stage object's "kraus_base64" field of a saved channel file,
    decoded here independently of the loader."""
    doc = json.loads(Path(path).read_text())
    return [
        np.frombuffer(base64.b64decode(s["kraus_base64"]), dtype="<c16").reshape(len(s["weights"]), -1)
        for s in doc.get("stages", [doc])
    ]


def _written_stages(channel: Channel) -> list[Channel]:
    """The stage objects `save_channel` writes: one per run of one object."""
    return [next(run) for _, run in groupby(channel.stages, key=id)]


def _pairs_doc(channel: Channel, packed_doc: dict) -> dict:
    """`packed_doc`, a saved file of `channel`, with each stage's Kraus
    stack as [re, im] pair lists instead of "kraus_base64"."""
    doc = json.loads(json.dumps(packed_doc))
    for stage, s in zip(doc.get("stages", [doc]), _written_stages(channel), strict=True):
        del stage["kraus_base64"]
        stage["kraus"] = [matrix_to_json(u) for u in s.target_kraus]
    return doc


def test_dense_staged_file_without_structure_still_loads(tmp_path):
    # The layout written before stages carried targets and control: every
    # stage's Kraus operators lifted to the full space, one object per stage.
    ch = _structured_channel()
    stages = [
        {"weights": [float(w) for w in s.weights], "kraus": [matrix_to_json(u) for u in s.kraus]}
        for s in ch.stages
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"qubits": 3, "stages": stages, "degree": ch.degree}))
    back = load_channel(path)
    assert len(back.stages) == 5 and back.degree == ch.degree
    assert abs(dense_kappa(back) - dense_kappa(ch)) < 1e-12
    resaved, fresh = tmp_path / "resaved.json", tmp_path / "fresh.json"
    save_channel(back, resaved)
    save_channel(Channel.staged([Channel(s.kraus, s.weights) for s in ch.stages]), fresh)
    assert resaved.read_bytes() == fresh.read_bytes()
    doc = json.loads(resaved.read_text())
    assert [s["weights"] for s in doc["stages"]] == [s["weights"] for s in stages]
    for stack, s in zip(_stage_stacks(resaved), stages):
        assert stack.tobytes() == np.stack([matrix_from_json(u) for u in s["kraus"]]).tobytes()


@pytest.fixture(scope="module")
def no_reduction_file(tmp_path_factory, corpus):
    """The corpus NO reduction and the channel file `save_channel` writes."""
    spec = load_reduction_spec(corpus / "reductions" / "no_2w2a.json")
    channel = build_reduction(spec)
    path = tmp_path_factory.mktemp("reduction") / "no.json"
    save_channel(channel, path, alpha=spec.alpha, beta=spec.beta)
    return channel, path


def test_signed_stages_round_trip_byte_identical(no_reduction_file, tmp_path):
    channel, first = no_reduction_file
    doc = json.loads(first.read_text())
    # ancilla verifier, the folded witness verifier, six controlled F stages
    assert [s.get("signed", False) for s in doc["stages"]] == [True, True, True]
    assert [len(s["weights"]) for s in doc["stages"]] == [4, 4, 8]
    assert all("kraus" not in s for s in doc["stages"])
    assert doc["stages"][-1]["repeat"] == 6 and doc["degree"] == 2**30 == channel.degree
    assert first.stat().st_size <= 50_000
    back = load_instance(first).channel
    assert [s.signed for s in back.stages] == [s.signed for s in channel.stages]
    second = tmp_path / "second.json"
    save_channel(back, second, alpha=doc["alpha"], beta=doc["beta"])
    assert first.read_bytes() == second.read_bytes()


def test_doubled_set_file_loads_as_unsigned_stages(no_reduction_file, tmp_path):
    # The layout written before stages carried "signed": each signed stage
    # as its explicit doubled set [U, -U] of [re, im] pairs, weights w / 2.
    channel, signed_path = no_reduction_file
    doc = _pairs_doc(channel, json.loads(signed_path.read_text()))
    doubled = []
    for stage, s in zip(doc["stages"], _written_stages(channel), strict=True):
        assert stage.pop("signed")
        stage["kraus"] += [[[-re, -im] for re, im in u] for u in stage["kraus"]]
        stage["weights"] = [w / 2 for w in stage["weights"] * 2]
        kraus = np.concatenate([s.target_kraus, -s.target_kraus])
        unsigned = Channel(kraus, np.array(stage["weights"]), qubits=s.qubits, targets=s.targets, control=s.control)
        doubled += [unsigned] * stage.get("repeat", 1)
    old = tmp_path / "doubled.json"
    old.write_text(json.dumps(doc, sort_keys=True) + "\n")
    back = load_channel(old)
    assert not any(s.signed for s in back.stages) and back.degree == channel.degree
    assert [len(s.target_kraus) for s in back.stages] == [8, 8] + [16] * 6
    rng = rng_from(62)
    for _ in range(3):
        a = random_operator(32, rng)
        assert frobenius(back.apply(a) - channel.apply(a)) < 1e-13
    resaved, fresh = tmp_path / "resaved.json", tmp_path / "fresh.json"
    save_channel(back, resaved, alpha=doc["alpha"], beta=doc["beta"])
    save_channel(Channel.staged(doubled), fresh, alpha=doc["alpha"], beta=doc["beta"])
    assert resaved.read_bytes() == fresh.read_bytes()
    assert resaved.stat().st_size > 1.8 * signed_path.stat().st_size


STAGE = {"kraus": [matrix_to_json(I), matrix_to_json(Z)]}
MALFORMED_STRUCTURE = [
    ({"qubits": 2, "stages": [{**STAGE, "targets": [2]}]}, "out of range"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": [0, 1]}]}, "matrix dimension"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": "0"}]}, "'targets' must be a list of integers"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": [0.5]}]}, "'targets' must be a list of integers"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": [0], "control": [1, 2]}]}, "0/1 vector"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": [0], "control": [1]}]}, "0/1 vector of length 2"),
    ({"qubits": 2, "stages": [{**STAGE, "targets": [0], "control": {"a": 1}}]}, "'control' must be"),
    ({"qubits": 1, "stages": [{**STAGE, "repeat": 0}]}, "'repeat' must be >= 1"),
    ({"qubits": 1, "stages": [{**STAGE, "repeat": 10**9}]}, "within 4096 stages"),
    ({"qubits": 1, "stages": [{**STAGE, "repeat": "x"}]}, "'repeat' must be int"),
    ({"qubits": 40, "kraus": STAGE["kraus"], "targets": [0]}, "'qubits' must lie in"),
    ({"qubits": 1, "stages": [{**STAGE, "repeat": 2.5}]}, "'repeat' must be int, got 2.5"),
    ({"qubits": 1.9, "kraus": STAGE["kraus"]}, "'qubits' must be int, got 1.9"),
    ({"qubits": float("inf"), "kraus": STAGE["kraus"]}, "'qubits' must be int, got inf"),
    ({"qubits": 0, "kraus": [[[1, 0]]]}, "'qubits' must lie in [1, 10], got 0"),
    ({"qubits": -1, "kraus": STAGE["kraus"]}, "'qubits' must lie in [1, 10], got -1"),
    ({"qubits": 1, "stages": [{**STAGE, "signed": "yes"}]}, "'signed' must be true or false"),
    ({"qubits": 1, "stages": [{**STAGE, "signed": 1}]}, "'signed' must be true or false"),
]


@pytest.mark.parametrize("doc,message", MALFORMED_STRUCTURE)
def test_malformed_structured_stage_rejected(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=re.escape(message)):
        load_channel(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_unitary_channel(2, 3, rng_from(66)),
        complete_depolarizer,
        lambda: sign_double(random_unitary_channel(2, 2, rng_from(67))),
        # controlled monomial, a signed controlled stage repeated 3 times, flat
        _structured_channel,
    ],
    ids=["flat", "monomial", "signed", "controlled-repeated"],
)
def test_packed_and_pair_stages_load_bit_identical(tmp_path, make):
    ch = make()
    packed, pairs = tmp_path / "packed.json", tmp_path / "pairs.json"
    save_channel(ch, packed)
    pairs.write_text(json.dumps(_pairs_doc(ch, json.loads(packed.read_text()))))
    a, b = load_channel(packed), load_channel(pairs)
    assert len(a.stages) == len(b.stages) == len(ch.stages)
    for x, y, s in zip(a.stages, b.stages, ch.stages):
        assert x.target_kraus.tobytes() == y.target_kraus.tobytes() == s.target_kraus.tobytes()
        assert x.target_weights.tobytes() == y.target_weights.tobytes() == s.target_weights.tobytes()
        assert x.signed == y.signed == s.signed and x.targets == y.targets == s.targets
    for stack, s in zip(_stage_stacks(packed), _written_stages(ch), strict=True):
        assert stack.tobytes() == s.target_kraus.tobytes()


def test_packed_field_is_little_endian_complex128_row_major(tmp_path):
    # Y then S, packed by hand: re and im of each entry, rows in order.
    entries = [0, 0, 0, -1, 0, 1, 0, 0] + [1, 0, 0, 0, 0, 0, 0, 1]
    text = base64.b64encode(struct.pack("<16d", *entries)).decode("ascii")
    path, again = tmp_path / "ys.json", tmp_path / "again.json"
    path.write_text(json.dumps({"qubits": 1, "kraus_base64": text}))
    ch = load_channel(path)
    assert np.array_equal(ch.target_kraus, [Y, np.diag([1, 1j])])
    assert ch.target_weights.tolist() == [0.5, 0.5]
    save_channel(ch, again)
    assert json.loads(again.read_text()) == {"qubits": 1, "kraus_base64": text, "weights": [0.5, 0.5]}


def _packed(*mats) -> str:
    return base64.b64encode(np.array(mats, dtype="<c16").tobytes()).decode("ascii")


IZ = _packed(I, Z)
# (flat channel fields, the message its one error line must hold)
MALFORMED_PACKED = [
    ({"kraus_base64": IZ[:40] + "!" + IZ[41:]}, "field 'kraus_base64' is not base64"),
    ({"kraus_base64": IZ[:40] + "\u00e9" + IZ[41:]}, "field 'kraus_base64' is not base64"),
    ({"kraus_base64": IZ[:-1]}, "field 'kraus_base64' is not base64"),
    ({"kraus_base64": IZ[:-4]}, "holds 126 bytes, not a positive multiple of 64 (one 2 x 2 complex128 operator)"),
    ({"kraus_base64": ""}, "holds 0 bytes, not a positive multiple of 64"),
    ({"kraus_base64": _packed(I, np.diag([1, np.nan]))}, "field 'kraus_base64' must hold finite numbers"),
    ({"kraus_base64": _packed(I, np.diag([1, 1j * np.inf]))}, "field 'kraus_base64' must hold finite numbers"),
    ({"kraus_base64": IZ, "kraus": STAGE["kraus"]}, "need exactly one of 'kraus' or 'kraus_base64'"),
    ({}, "need exactly one of 'kraus' or 'kraus_base64'"),
    ({"kraus_base64": IZ, "weights": [0.5, 0.25, 0.25]}, "3 weights for 2 Kraus operators"),
    ({"kraus_base64": _packed(I, np.diag([1.0, 0.5]))}, "not unitary"),
]


@pytest.mark.parametrize("staged", [False, True], ids=["flat", "staged"])
@pytest.mark.parametrize("fields,message", MALFORMED_PACKED)
def test_malformed_packed_stage_exits_2_with_one_error_line(tmp_path, capsys, fields, message, staged):
    doc = {"qubits": 1, "stages": [fields]} if staged else {"qubits": 1, **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["gap", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}{' stage 0' if staged else ''}") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_integral_float_fields_load(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"qubits": 1.0, "stages": [{**STAGE, "repeat": 2.0}]}))
    assert len(load_channel(path).stages) == 2


def test_thermal_model_rejects_fractional_qubits_and_bad_rates(corpus, tmp_path):
    doc = json.loads((corpus / "models" / "pauli_depolarizer_1q.json").read_text())
    for patch, message in (
        ({"qubits": 1.9}, "'qubits' must be int, got 1.9"),
        ({"qubits": 0, "unitaries": [[[1, 0]]]}, "'qubits' must lie in [1, 10], got 0"),
        ({"qubits": 11}, "'qubits' must lie in [1, 10], got 11"),
        ({"R0": float("inf")}, "rates must be positive and finite"),
        ({"R1": float("nan")}, "rates must be positive and finite"),
        ({"unitaries": [matrix_to_json(np.diag([1.0, 0.5]))]}, "not unitary"),
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, **patch}))
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_thermal_model(path)


def _old_matrix_to_json(mat):
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat, dtype=complex).reshape(-1)]


def test_matrix_codec_writes_the_same_bytes():
    rng = rng_from(62)
    mats = [
        random_operator(8, rng),
        np.array([[-0.0, 0.0], [1e-300, -1e300]]) + 1j * np.array([[0.0, -0.0], [5e-324, 1 / 3]]),
        random_unitary_channel(2, 1, rng).kraus[0],
    ]
    for mat in mats:
        assert json.dumps(matrix_to_json(mat)) == json.dumps(_old_matrix_to_json(mat))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(mat))))
        assert back.tobytes() == np.asarray(mat, dtype=complex).tobytes()


MALFORMED_PAIRS = [
    [[1.0]],
    [[1.0, 0.0, 0.0]],
    [[1.0, 0.0], [0.0]],
    [[1.0, 0.0], [0.0, 0.0, 0.0]],
    [["a", 0.0]],
    [[None, 0.0]],
    [{"re": 1.0, "im": 0.0}],
    {"re": 1.0},
    "1, 0",
    5,
    [],
    [[[1.0, 0.0]]],
    [[float("nan"), 0.0]],
    [[1e400, 0.0]],
    [[10**400, 0.0]],
    [["1", "0"]],
    [[True, 0]],
    [[1.0, 0.0], [True, 0.0]],
    [[0.5, False], [0.0, 0.0]],
]


@pytest.mark.parametrize("rows", MALFORMED_PAIRS)
def test_pair_codec_rejects_malformed_rows(rows):
    with pytest.raises(FileFormatError):
        matrix_from_json(rows)
    with pytest.raises(FileFormatError, match=r"\[re, im\] pairs|finite"):
        complex_vector_from_json(rows, "amplitudes")


def test_spec_layout_error_names_the_file(corpus, tmp_path):
    doc = json.loads((corpus / "reductions" / "no_2w2a.json").read_text())
    doc.update(n_w=0, circuit=str(corpus / "reductions" / doc["circuit"]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: need at least one witness")):
        load_reduction_spec(path)


def test_matrix_codec_rejects_non_square():
    with pytest.raises(FileFormatError, match="not a square matrix"):
        matrix_from_json([[1.0, 0.0], [0.0, 0.0]])


def _table_cases(corpus):
    """For each object kind in FIELDS: a valid file holding one such object,
    where that object sits in it, and the public loader that reads it."""
    spec = json.loads((corpus / "reductions" / "no_2w2a.json").read_text())
    spec["circuit"] = str(corpus / "reductions" / spec["circuit"])
    circuit = {"qubits": 1, "gates": [{"kind": "X", "targets": [0]}]}
    flat = {"qubits": 1, "kraus": [matrix_to_json(I)]}
    staged = {"qubits": 1, "stages": [{"kraus": [matrix_to_json(I)]}]}
    top = lambda doc: doc  # noqa: E731
    return {
        "circuit": (circuit, top, load_circuit),
        "gate": (circuit, lambda doc: doc["gates"][0], load_circuit),
        "channel": (flat, top, load_channel),
        "staged": (staged, top, load_channel),
        "stage": (staged, lambda doc: doc["stages"][0], load_channel),
        "spec": (spec, top, load_reduction_spec),
        "synthesize": (spec, lambda doc: doc["synthesize"], load_reduction_spec),
        "model": ({"qubits": 1, "unitaries": [matrix_to_json(X)], "R0": 1.0, "R1": 2.0}, top, load_thermal_model),
        "state vector": ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, top, load_state_vector),
        "density matrix": ({"matrix": matrix_to_json(np.diag([1.0, 0.0]))}, top, load_density_matrix),
    }


def _wrong_values(kind):
    """JSON values that are not of a FIELDS type."""
    if isinstance(kind, list):
        return ["x", 1, [None], [True], [1.5] if kind == [int] else ["1"]]
    return {
        int: [2.5, True, "1"], float: [True, "1.0"], bool: [1, "true"], str: [5, ["x"]], list: ["x", {}], dict: ["x", []]
    }[kind]


def test_every_table_field_is_typed_and_required_through_the_loaders(corpus, tmp_path):
    cases = _table_cases(corpus)
    assert cases.keys() == FIELDS.keys()
    # The fields that take any value; every other one is checked below.
    untyped = {(kind, key) for kind, table in FIELDS.items() for key, (t, _) in table.items() if t is object}
    assert untyped == {("gate", "matrix"), ("gate", "phase"), ("staged", "degree")}
    path = tmp_path / "doc.json"
    checked = 0
    for kind, table in FIELDS.items():
        doc, locate, load = cases[kind]
        for key, (field_kind, default) in table.items():
            patches = [] if field_kind is object else [(v, f"field {key!r} must be") for v in _wrong_values(field_kind)]
            # A null "stages" makes a flat channel file, which has no such field.
            if default is REQUIRED and (kind, key) != ("staged", "stages"):
                patches.append((None, f"missing field {key!r}"))
            for value, message in patches:
                patched = json.loads(json.dumps(doc))
                locate(patched)[key] = value
                path.write_text(json.dumps(patched))
                with pytest.raises(FileFormatError, match=re.escape(message)):
                    load(path)
                checked += 1
    assert checked > 100
