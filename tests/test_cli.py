import dataclasses
import json
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from qexpander import cli, linalg, reduction
from qexpander.channels import random_unitary_channel
from qexpander.fileio import save_channel
from qexpander.linalg import rng_from

CLI = [sys.executable, "-m", "qexpander.cli"]


def run_cli(*args):
    return subprocess.run(CLI + [str(a) for a in args], capture_output=True, text=True)


def payload(result):
    return json.loads(result.stdout[result.stdout.index("{") :])


def test_gap_depolarizer(corpus):
    res = run_cli("gap", corpus / "instances" / "depolarizer_1q.json")
    assert res.returncode == 0
    doc = payload(res)
    assert doc["kappa"] < 1e-10
    assert doc["gap"] == pytest.approx(1.0)


def test_gap_iz_iterative(corpus):
    res = run_cli("gap", corpus / "instances" / "identity_z_1q.json", "--seed", "3")
    assert res.returncode == 0
    assert payload(res)["kappa"] == pytest.approx(1.0, abs=1e-8)
    assert "method" not in payload(res)


@pytest.mark.parametrize("command", ["gap", "decide"])
@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_method_flag_is_gone(corpus, command, method):
    res = run_cli(command, corpus / "instances" / "identity_z_1q.json", "--method", method)
    assert res.returncode == 2
    assert "error:" in res.stderr and "--method" in res.stderr
    assert "Traceback" not in res.stderr


def test_gap_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"qubits": 1, "kraus": [')
    res = run_cli("gap", bad)
    assert res.returncode == 2
    assert "line" in res.stderr


MALFORMED = [
    *[
        (command, "instances/identity_z_1q.json", patch)
        for command in ("gap", "decide", "verify")
        for patch in ({"stages": 5}, {"stages": [5]}, {"weights": 5}, {"qubits": None})
    ],
    *[(command, "instances/identity_z_1q.json", {"alpha": [0.9]}) for command in ("decide", "verify")],
    ("reduce", "reductions/no_2w2a.json", {"synthesize": 5}),
    ("thermalize", "models/pauli_depolarizer_1q.json", {"unitaries": 7}),
    ("reduce", "reductions/no_2w2a.json", {"strict": "false"}),
    ("reduce", "reductions/no_2w2a.json", {"strict": 0}),
    ("decide", "instances/identity_z_1q.json", {"qubits": 1.9}),
    ("thermalize", "models/pauli_depolarizer_1q.json", {"qubits": 1.9}),
    ("thermalize", "models/pauli_depolarizer_1q.json", {"R0": float("inf")}),
    ("thermalize", "models/pauli_depolarizer_1q.json", {"R1": float("nan")}),
    *[
        (command, "instances/identity_z_1q.json", {"qubits": 0, "kraus": [[[1.0, 0.0]]]})
        for command in ("gap", "decide", "verify")
    ],
    ("thermalize", "models/pauli_depolarizer_1q.json", {"qubits": 0, "unitaries": [[[1.0, 0.0]]]}),
    ("reduce", "reductions/no_2w2a.json", {"synthesize": {"degree_per_stage": 0}}),
]


@pytest.mark.parametrize("command,source,patch", MALFORMED)
def test_malformed_field_types_exit_2(corpus, tmp_path, command, source, patch):
    doc = json.loads((corpus / source).read_text())
    if "circuit" in doc:
        doc["circuit"] = str(corpus / "reductions" / doc["circuit"])
    doc.update(patch)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    extra = ("--out", tmp_path / "out.json") if command == "reduce" else ()
    res = run_cli(command, path, *extra)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


STRUCTURE_PATCHES = [
    {"targets": [5]},
    {"targets": [0], "control": [1, 1]},
    {"control": [2]},
    {"targets": "0"},
    {"qubits": 11, "targets": [0]},
    {"stages": [{"kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]], "repeat": 0}]},
]


@pytest.mark.parametrize("patch", STRUCTURE_PATCHES)
def test_malformed_structured_fields_exit_2(corpus, tmp_path, patch):
    doc = json.loads((corpus / "instances" / "identity_z_1q.json").read_text())
    doc.update(patch)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    res = run_cli("decide", path)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


#: A two-qubit circuit, read through a channel file whose Kraus operator
#: names it.
CIRCUIT = {
    "qubits": 2,
    "gates": [
        {"kind": "H", "targets": [0]},
        {"kind": "CNOT", "targets": [1], "controls": [0], "polarities": [1]},
    ],
}

#: File kind -> (command, corpus file patched; None for CIRCUIT).
MALFORMED_SOURCES = {
    "circuit": ("gap", None),
    "channel": ("gap", "instances/identity_1q.json"),
    "instance": ("decide", "instances/identity_1q.json"),
    "spec": ("reduce", "reductions/no_2w2a.json"),
    "model": ("thermalize", "models/pauli_depolarizer_1q.json"),
}


def _first_gate(**fields):
    return lambda doc: doc["gates"][0].update(fields)


# Each patch replaces top-level fields (a dict) or edits the document (a
# callable); float("inf") is written as 1e400.
MALFORMED_TYPES = [
    ("circuit", {"qubits": [1]}),
    ("circuit", {"qubits": None}),
    ("circuit", {"qubits": float("inf")}),
    ("circuit", {"qubits": 2.7}),
    ("circuit", {"qubits": True}),
    ("circuit", _first_gate(targets=0)),
    ("circuit", _first_gate(targets=[None])),
    ("circuit", _first_gate(targets="0")),
    ("circuit", _first_gate(targets=[True])),
    ("circuit", _first_gate(polarities=3)),
    ("circuit", _first_gate(kind=["X"])),
    ("circuit", {"gates": [{"kind": "MCU", "targets": [0], "controls": [1], "base": ["X"]}]}),
    ("channel", {"qubits": True}),
    ("channel", {"weights": [True]}),
    ("instance", {"qubits": True}),
    ("instance", {"weights": [True]}),
    ("instance", {"alpha": True}),
    ("instance", {"beta": "0.5"}),
    ("spec", {"n_w": True}),
    ("spec", {"a": True}),
    ("spec", {"circuit": 5}),
    ("spec", {"synthesize": {"seed": True}}),
    ("spec", {"synthesize": {"degree_per_stage": 8.5}}),
    ("model", {"qubits": True}),
    ("model", {"R0": True}),
]


def _write_malformed(corpus, tmp_path, kind, patch):
    """CLI arguments that read a `kind` file with `patch` applied."""
    command, source = MALFORMED_SOURCES[kind]
    doc = json.loads(json.dumps(CIRCUIT) if source is None else (corpus / source).read_text())
    if "circuit" in doc:
        doc["circuit"] = str(corpus / "reductions" / doc["circuit"])
    patch(doc) if callable(patch) else doc.update(patch)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    if source is None:
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"qubits": 2, "kraus": [f"{kind}.json"]}))
    extra = ["--out", str(tmp_path / "out.json")] if command == "reduce" else []
    return [command, str(path), *extra]


@pytest.mark.parametrize(
    "kind,patch", [pytest.param(kind, patch, id=f"{kind}-{i}") for i, (kind, patch) in enumerate(MALFORMED_TYPES)]
)
def test_malformed_input_exits_2_with_one_error_line(corpus, tmp_path, capsys, kind, patch):
    code = cli.main(_write_malformed(corpus, tmp_path, kind, patch))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def _staged(stage_patch, top_patch=None):
    """Edit a flat instance into a staged one, its one stage repeated twice."""

    def patch(doc):
        stage = {"kraus": doc.pop("kraus"), "repeat": 2, **stage_patch}
        doc.update({"stages": [stage], "degree": 1, **(top_patch or {})})

    return patch


# (file kind, patch, the unknown field the error must name)
UNKNOWN_FIELDS = [
    ("circuit", {"qbits": 2}, "qbits"),
    ("channel", {"wieghts": [1.0]}, "wieghts"),
    ("instance", {"wieghts": [1.0]}, "wieghts"),
    ("instance", {"stages": [{"kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}], "kraus": None}, "kraus"),
    ("instance", _staged({"wieghts": [1.0]}), "wieghts"),
    ("instance", _staged({}, {"signed": True}), "signed"),
    ("spec", {"n_witness": 2}, "n_witness"),
    ("spec", {"synthesize": {"seed": 1, "target_kapa": 0.1}}, "target_kapa"),
    ("model", {"r0": 1.0}, "r0"),
]


@pytest.mark.parametrize(
    "kind,patch,key",
    [pytest.param(kind, patch, key, id=f"{kind}-{key}") for kind, patch, key in UNKNOWN_FIELDS],
)
def test_unknown_field_exits_2_naming_it(corpus, tmp_path, capsys, kind, patch, key):
    code = cli.main(_write_malformed(corpus, tmp_path, kind, patch))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"unknown fields ['{key}']" in err


def test_unknown_field_in_state_files_exits_2(corpus, tmp_path, capsys):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "norm": 1}))
    rho0 = tmp_path / "rho0.json"
    rho0.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": 1}))
    runs = [
        (["verify", str(corpus / "instances" / "identity_z_1q.json"), "--witness", str(witness)], "norm"),
        (["thermalize", str(corpus / "models" / "phase_1q.json"), "--rho0", str(rho0)], "trace"),
    ]
    for args, key in runs:
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"unknown fields ['{key}']" in err, err


def test_malformed_circuit_in_spec_exits_2_in_a_subprocess(corpus, tmp_path):
    spec = json.loads((corpus / "reductions" / "no_2w2a.json").read_text())
    circuit = json.loads((corpus / "reductions" / spec["circuit"]).read_text())
    (tmp_path / "circuit.json").write_text(json.dumps({**circuit, "qubits": [1]}))
    (tmp_path / "spec.json").write_text(json.dumps({**spec, "circuit": "circuit.json"}))
    res = run_cli("reduce", tmp_path / "spec.json", "--out", tmp_path / "out.json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "'qubits' must be int" in res.stderr
    assert "Traceback" not in res.stderr


def test_reduce_on_a_circuit_with_a_stray_gate_field_exits_2(corpus, tmp_path, capsys):
    spec = json.loads((corpus / "reductions" / "no_2w2a.json").read_text())
    circuit = json.loads((corpus / "reductions" / spec["circuit"]).read_text())
    circuit["gates"][1]["phase"] = [0.0, 1.0]  # a CNOT takes no phase
    (tmp_path / "circuit.json").write_text(json.dumps(circuit))
    (tmp_path / "spec.json").write_text(json.dumps({**spec, "circuit": "circuit.json"}))
    code = cli.main(["reduce", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "gate 1: CNOT gate takes no phase" in err
    assert not (tmp_path / "out.json").exists()


def test_verify_rejects_nonpositive_shots(corpus):
    too_many = "shots must be <= 9223372036854775807"
    for shots, message in (("-3", "shots must be >= 1"), ("0", "shots must be >= 1"), ("10000000000000000000", too_many)):
        res = run_cli("verify", corpus / "instances" / "identity_z_1q.json", f"--shots={shots}")
        assert res.returncode == 2
        assert f"error: {message}" in res.stderr
        assert "Traceback" not in res.stderr


SEED = "expected a non-negative integer"
SHOTS = "expected 'exact' or a whole number of Hadamard tests"


@pytest.mark.parametrize(
    "args, message",
    [
        (("gap", "identity_z_1q", "--seed", "-1"), f"--seed: {SEED}, got '-1'"),
        (("decide", "identity_z_1q", "--seed", "1.5"), f"--seed: {SEED}, got '1.5'"),
        (("verify", "identity_z_1q", "--seed=-7"), f"--seed: {SEED}, got '-7'"),
        (("synth-expander", "--qubits", "2", "--seed", "-3"), f"--seed: {SEED}, got '-3'"),
        (("verify", "identity_z_1q", "--shots", "3.5"), f"--shots: {SHOTS}, got '3.5'"),
        (("verify", "identity_z_1q", "--shots", "many"), f"--shots: {SHOTS}, got 'many'"),
    ],
)
def test_bad_seed_and_shots_name_the_flag(corpus, args, message):
    res = run_cli(*(corpus / "instances" / f"{a}.json" if a == "identity_z_1q" else a for a in args))
    assert res.returncode == 2 and res.stdout == ""
    assert f"error: argument {message}" in res.stderr
    assert "Traceback" not in res.stderr


def test_decide_exit_codes(corpus):
    assert run_cli("decide", corpus / "instances" / "identity_z_1q.json").returncode == 1
    assert run_cli("decide", corpus / "instances" / "depolarizer_1q.json").returncode == 0
    assert run_cli("decide", corpus / "instances" / "identity_1q.json").returncode == 3
    res = run_cli("decide", corpus / "instances" / "hadamard_pair_1q.json")
    assert res.returncode == 1 and payload(res)["decision"] == "YES"


def test_main_builds_the_parser_once(corpus, capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["decide", str(corpus / "instances" / "depolarizer_1q.json")]) == 0
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def test_decide_iterative_forwards_tol_and_seed(corpus):
    path = corpus / "instances" / "identity_z_1q.json"
    default = run_cli("decide", path)
    tuned = run_cli("decide", path, "--tol", "1e-10", "--seed", "3")
    assert tuned.returncode == default.returncode == 1
    assert "method" not in payload(tuned)
    assert run_cli("decide", path, "--tol", "0").returncode == 2


def test_verify_accept_and_reject(corpus):
    res = run_cli("verify", corpus / "instances" / "identity_z_1q.json")
    assert res.returncode == 0
    assert payload(res)["accepted"] is True
    res = run_cli(
        "verify", corpus / "instances" / "depolarizer_1q.json", "--shots", "300", "--seed", "5"
    )
    assert res.returncode == 1
    assert payload(res)["accepted"] is False


def test_verify_deterministic_output(corpus):
    args = ("verify", corpus / "instances" / "identity_z_1q.json", "--shots", "200", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_verify_with_witness_file(corpus, tmp_path):
    sz = 1 / 2**0.5
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"amplitudes": [[sz, 0.0], [0.0, 0.0], [0.0, 0.0], [-sz, 0.0]]}))
    res = run_cli("verify", corpus / "instances" / "identity_z_1q.json", "--witness", witness)
    assert res.returncode == 0
    assert payload(res)["accepted"] is True


@pytest.mark.parametrize(
    "amplitudes",
    [
        [[0.5, 0.0] if i in (0, 5, 10, 15) else [0.0, 0.0] for i in range(16)],
        [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]],
    ],
    ids=["vec-identity-4", "length-3"],
)
@pytest.mark.parametrize("shots", ["exact", "100"])
def test_verify_rejects_witness_of_wrong_dimension(corpus, tmp_path, amplitudes, shots):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"amplitudes": amplitudes}))
    res = run_cli(
        "verify", corpus / "instances" / "identity_z_1q.json", "--witness", witness, "--shots", shots
    )
    assert res.returncode == 2
    assert f"error: state length {len(amplitudes)} does not match channel dimension 2" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_counts_only_draws_made(corpus, tmp_path):
    # a witness at |phi> fails the sampled orthogonality measurement, and
    # no Hadamard test runs after it
    witness = tmp_path / "witness.json"
    amp = 1 / 2**0.5
    witness.write_text(json.dumps({"amplitudes": [[amp, 0.0], [0.0, 0.0], [0.0, 0.0], [amp, 0.0]]}))
    res = run_cli(
        "verify", corpus / "instances" / "depolarizer_1q.json", "--witness", witness, "--shots", "100"
    )
    assert res.returncode == 1
    doc = payload(res)
    assert doc["orthogonality_passed"] is False
    assert doc["samples_used"] == 1


@pytest.mark.parametrize("amplitudes", [[[0.6, 0.0, 99.0], [0.8, 0.0]], [[0.6], [0.8, 0.0]]])
def test_verify_rejects_witness_pairs_not_of_length_2(corpus, tmp_path, amplitudes):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"amplitudes": amplitudes}))
    res = run_cli("verify", corpus / "instances" / "identity_z_1q.json", "--witness", witness)
    assert res.returncode == 2
    assert "[re, im] pair" in res.stderr
    assert "Traceback" not in res.stderr


def test_output_schemas(corpus):
    gap = payload(run_cli("gap", corpus / "instances" / "identity_z_1q.json"))
    assert set(gap) == {
        "command", "kappa", "gap", "iterations", "residual", "error_bound",
        "converged", "qubits", "degree",
    }
    dec = payload(run_cli("decide", corpus / "instances" / "identity_z_1q.json"))
    assert set(dec) == {"command", "decision", "kappa", "error_bound", "alpha", "beta"}
    ver = payload(run_cli("verify", corpus / "instances" / "identity_z_1q.json"))
    assert set(ver) == {
        "command", "accepted", "estimated_contraction_sq", "orthogonality_passed",
        "samples_used", "confidence", "alpha", "beta", "shots", "seed",
    }
    therm = payload(run_cli("thermalize", corpus / "models" / "pauli_depolarizer_1q.json"))
    assert set(therm) == {
        "command", "points", "kappa", "error_bound", "rate", "worst_margin", "bound_satisfied", "csv",
    }


def test_synth_expander_and_gap(tmp_path):
    out = tmp_path / "expander.json"
    res = run_cli(
        "synth-expander", "--qubits", "2", "--degree", "6", "--seed", "3", "--out", out
    )
    assert res.returncode == 0
    doc = payload(res)
    assert doc["kappa"] <= 0.1
    gap = payload(run_cli("gap", out))
    assert gap["kappa"] == pytest.approx(doc["kappa"], abs=1e-9)


def test_thermalize_csv(corpus, tmp_path):
    csv_path = tmp_path / "traj.csv"
    res = run_cli(
        "thermalize",
        corpus / "models" / "pauli_depolarizer_1q.json",
        "--times",
        "0:2:6",
        "--csv",
        csv_path,
    )
    assert res.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,residual,bound"
    assert len(lines) == 7
    t, residual, bound = (float(x) for x in lines[-1].split(","))
    assert t == 2.0
    assert residual <= bound + 1e-8
    assert payload(res)["bound_satisfied"] is True


def test_thermalize_bad_times(corpus):
    res = run_cli("thermalize", corpus / "models" / "pauli_depolarizer_1q.json", "--times", "oops")
    assert res.returncode == 2


@pytest.mark.parametrize("times", ["0:nan:3", "0:inf:3", "nan:1:2"])
def test_thermalize_non_finite_times_exit_2(corpus, times):
    res = run_cli("thermalize", corpus / "models" / "pauli_depolarizer_1q.json", f"--times={times}")
    assert res.returncode == 2
    assert "times must be finite" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["gap", "decide"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_iterative_non_finite_tol_exit_2(corpus, command, tol):
    res = run_cli(command, corpus / "instances" / "identity_z_1q.json", "--tol", tol)
    assert res.returncode == 2
    assert "tol must be positive and finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("num", ["1000001", "1000000000000"])
def test_thermalize_too_many_times_exit_2(corpus, num):
    res = run_cli("thermalize", corpus / "models" / "pauli_depolarizer_1q.json", "--times", f"0:1:{num}")
    assert res.returncode == 2
    assert "between 1 and 1000000 points" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize(
    "args,message",
    [
        (("--qubits", "0"), "qubits must lie in [1, 10], got 0"),
        (("--qubits", "-1"), "qubits must lie in [1, 10], got -1"),
        (("--qubits", "11"), "qubits must lie in [1, 10], got 11"),
        (("--qubits", "1", "--degree", "0"), "degree per stage must be >= 1, got 0"),
        (("--qubits", "1", "--degree", "-3"), "degree per stage must be >= 1, got -3"),
        (("--qubits", "7", "--degree", "2"), "degree per stage must be >= 3 to certify, got 2"),
    ],
)
def test_synth_expander_bad_arguments_exit_2(args, message):
    res = run_cli("synth-expander", *args)
    assert res.returncode == 2
    assert f"error: {message}" in res.stderr
    assert "Traceback" not in res.stderr


def test_thermalize_huge_horizon_finishes(corpus):
    res = subprocess.run(
        CLI + ["thermalize", str(corpus / "models" / "pauli_depolarizer_1q.json"), "--times", "0:1e9:2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0
    last = res.stdout.splitlines()[2]
    assert float(last.split(",")[0]) == 1e9
    assert float(last.split(",")[1]) <= 1e-12


def test_thermalize_non_mixing_huge_horizon_exit_2(tmp_path):
    # {Z} never mixes, so the series would need ~gamma t_max = 2e9 terms
    model = tmp_path / "z.json"
    model.write_text(json.dumps({"qubits": 1, "unitaries": [[[1, 0], [0, 0], [0, 0], [-1, 0]]], "R0": 1, "R1": 1}))
    res = subprocess.run(
        CLI + ["thermalize", str(model), "--times", "0:1e9:2"], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 2
    assert "error: gamma * t_max = 2e+09 needs more than" in res.stderr
    assert "Traceback" not in res.stderr


def test_thermalize_with_rho0_file(corpus, tmp_path):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps({"matrix": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}))
    res = run_cli(
        "thermalize",
        corpus / "models" / "pauli_depolarizer_1q.json",
        "--rho0",
        rho_path,
        "--times",
        "0:1:4",
    )
    assert res.returncode == 0
    # maximally mixed input: residuals identically zero
    for line in res.stdout.splitlines()[1:5]:
        assert float(line.split(",")[1]) < 1e-12


def check_reduce_fields(corpus, key, doc):
    """The reduce output fields against corpus/reductions/reduce_expected.json:
    floats within 1e-9, integers exactly."""
    expected = json.loads((corpus / "reductions" / "reduce_expected.json").read_text())[key]
    for field, value in expected.items():
        if isinstance(value, int):
            assert doc[field] == value, field
        else:
            assert doc[field] == pytest.approx(value, abs=1e-9), field


def test_unconverged_solves_exit_2(corpus, tmp_path, capsys, monkeypatch):
    # A spec with a base-expander file has kappa_f solved by the reduction,
    # and synth-expander certifies its power: neither takes an unconverged solve.
    base, _ = reduction.build_base_expander(4, target_kappa=0.35, degree_per_stage=8, seed=1)
    save_channel(base, tmp_path / "base.json")
    spec = json.loads((corpus / "reductions" / "no_2w2a.json").read_text())
    del spec["synthesize"]
    spec.update(circuit=str(corpus / "circuits" / "no_verifier_2w2a.json"), base_expander="base.json", strict=False)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    solve = reduction.spectral_gap
    monkeypatch.setattr(
        reduction, "spectral_gap", lambda channel, **kw: dataclasses.replace(solve(channel, **kw), converged=False)
    )
    out = tmp_path / "out.json"
    for args, message in (
        (["reduce", tmp_path / "spec.json", "--out", out], "did not converge"),
        (["synth-expander", "--qubits", "2"], "no certified expander"),
    ):
        code = cli.main([str(a) for a in args])
        stdout, stderr = capsys.readouterr()
        assert code == 2 and stdout == "" and message in stderr, stderr
    assert not out.exists()


@pytest.mark.slow
def test_reduce_roundtrip_no_case(corpus, tmp_path):
    out = tmp_path / "channel.json"
    res = run_cli("reduce", corpus / "reductions" / "no_2w2a.json", "--out", out)
    assert res.returncode == 0
    doc = payload(res)
    assert doc["degree"] == 64 * doc["base_degree"]
    check_reduce_fields(corpus, "no_2w2a", doc)
    # The NO verifier is a permutation, so its witness verifier folds into one stage.
    assert out.stat().st_size <= 100_000
    gap = payload(run_cli("gap", out))
    assert gap["kappa"] <= doc["beta"]
    assert run_cli("decide", out).returncode == 0


@pytest.mark.slow
def test_reduce_roundtrip_yes_case(corpus, tmp_path):
    out = tmp_path / "channel.json"
    res = run_cli("reduce", corpus / "reductions" / "yes_2w2a.json", "--out", out)
    assert res.returncode == 0
    doc = payload(res)
    check_reduce_fields(corpus, "yes_2w2a", doc)
    gap = payload(run_cli("gap", out))
    # the YES witness is an exact fixed point, so kappa reaches alpha = 1
    assert gap["kappa"] >= doc["alpha"] - 1e-9


@pytest.mark.slow
def test_reduce_noisy_yes_case_decides_yes(corpus, tmp_path):
    # The noisy verifier at theta_a = 3 accepts with a = sin^2(1.5) < 1, so
    # alpha < 1 and kappa clears it by more than its error bar: decide says
    # YES (exit 1), and Arthur accepts Merlin's witness exactly and at 400 shots.
    out = tmp_path / "channel.json"
    res = run_cli("reduce", corpus / "reductions" / "yes_noisy_2w2a.json", "--out", out)
    assert res.returncode == 0
    doc = payload(res)
    check_reduce_fields(corpus, "yes_noisy_2w2a", doc)
    decided = run_cli("decide", out)
    verdict = payload(decided)
    assert decided.returncode == 1 and verdict["decision"] == "YES"
    assert verdict["kappa"] - verdict["error_bound"] > doc["alpha"]
    for shots in ("400", "exact"):
        assert run_cli("verify", out, "--shots", shots).returncode == 0


@pytest.mark.slow
def test_reduce_local_base_expander_keeps_the_channel_file_small(corpus, tmp_path):
    # 15 signed 2-qubit stages: each controlled stage keeps its two targets,
    # so the file is about 46 kB instead of 21 MB of lifted 64 x 64 stacks.
    out = tmp_path / "channel.json"
    res = run_cli("reduce", corpus / "reductions" / "no_3w3a_local.json", "--out", out)
    assert res.returncode == 0
    check_reduce_fields(corpus, "no_3w3a_local", payload(res))
    assert out.stat().st_size <= 100_000
    stages = json.loads(out.read_text())["stages"]
    assert sum(len(s.get("targets", ())) == 2 for s in stages) == 15
    res = run_cli("decide", out)
    assert res.returncode == 0 and payload(res)["decision"] == "NO"
    assert abs(payload(res)["kappa"] - 0.7073977164780131) <= 1e-12


@pytest.mark.slow
def test_reduce_nine_qubit_local_reduction_decides_no(corpus, tmp_path):
    # 18 signed 2-qubit stages on 8 qubits, controlled by the indicator.
    out = tmp_path / "channel.json"
    res = run_cli("reduce", corpus / "reductions" / "no_4w4a_local.json", "--out", out)
    assert res.returncode == 0
    doc = payload(res)
    check_reduce_fields(corpus, "no_4w4a_local", doc)
    assert doc["qubits"] == 9 and out.stat().st_size <= 100_000
    res = run_cli("decide", out)
    assert res.returncode == 0 and payload(res)["decision"] == "NO"
    assert payload(res)["kappa"] <= doc["beta"]


def test_console_script_installed():
    exe = shutil.which("qexpander")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "qexpander" in res.stdout


@pytest.mark.parametrize("message", ["Unable to allocate 2.00 TiB for an array with shape (2**20, 2**20)", ""])
@pytest.mark.parametrize(
    "command, target",
    [("gap", "spectral_gap"), ("decide", "decide"), ("verify", "merlin_witness"), ("reduce", "build_reduction")],
)
def test_memory_error_exits_2_with_one_error_line(corpus, tmp_path, capsys, monkeypatch, command, target, message):
    # An input too large for the machine is an input error (exit 2), not a
    # traceback and exit 1, which `decide` uses for YES.  Nothing is allocated:
    # the command's first heavy call raises.
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, too_large)
    given = corpus / ("reductions/no_2w2a.json" if command == "reduce" else "instances/depolarizer_1q.json")
    args = [command, str(given)] + (["--out", str(tmp_path / "out.json")] if command == "reduce" else [])
    code = cli.main(args)
    stdout, stderr = capsys.readouterr()
    assert code == 2 and stdout == ""
    assert stderr == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")


def _seven_qubit_model(tmp_path):
    """A 7-qubit thermal model whose two couplings are circuits."""
    circuits = {
        "u1.json": [{"kind": "H", "targets": [0]}, {"kind": "CNOT", "targets": [6], "controls": [0], "polarities": [1]}],
        "u2.json": [{"kind": "T", "targets": [3]}, {"kind": "H", "targets": [5]}],
    }
    for name, gates in circuits.items():
        (tmp_path / name).write_text(json.dumps({"qubits": 7, "gates": gates}))
    model = tmp_path / "model7.json"
    model.write_text(json.dumps({"qubits": 7, "unitaries": list(circuits), "R0": 1.0, "R1": 0.5}))
    return model


@pytest.mark.parametrize("given, times, budget", [("7q", "0:1:1000000", 2**30), ("1q", "0:1:40", 2**10)])
def test_thermalize_over_the_memory_budget_exits_2(corpus, tmp_path, capsys, monkeypatch, given, times, budget):
    # The budget is lowered instead of the input grown, so nothing large is
    # allocated whatever the machine: the series refuses before it starts.
    # At 7 qubits and 10^6 times it would need about 244 GiB.
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(budget))
    model = _seven_qubit_model(tmp_path) if given == "7q" else corpus / "models" / "pauli_depolarizer_1q.json"
    code = cli.main(["thermalize", str(model), "--times", times])
    stdout, stderr = capsys.readouterr()
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: the uniformization series over ") and stderr.count("\n") == 1
    assert f"over the memory budget of {budget / 2**30:.3g} GiB\n" in stderr


@pytest.mark.parametrize("command", ["gap", "decide"])
def test_gap_and_decide_over_the_memory_budget_exit_2(tmp_path, capsys, monkeypatch, command):
    # A 3-qubit NO instance of 4 Kraus operators: loading it takes
    # 64 * 4 * 8^2 = 16,384 bytes, and the solve the Lanczos basis and its
    # images, 2 * 24 * 8^2 * 8 = 24,576, plus the adjoint's 16,384, so
    # 40,960.  With the larger budget both commands run; under it they
    # refuse before the solve, and under the smaller on load.
    path = tmp_path / "three.json"
    save_channel(random_unitary_channel(3, 4, rng_from(64)), path, alpha=0.99, beta=0.9)
    monkeypatch.setattr(linalg, "memory_budget", lambda: 40960.0)
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()
    lanczos = "error: the Lanczos basis and its images, 24 vectors each on 8 x 8 operators, the float64 adjoint needs "
    loading = f"error: {path}: 4 Kraus operators of 8 x 8 and their operands needs "
    for budget, message in ((40959, lanczos), (16384, lanczos), (16383, loading)):
        monkeypatch.setattr(linalg, "memory_budget", lambda: float(budget))
        code = cli.main([command, str(path)])
        stdout, stderr = capsys.readouterr()
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert stderr.startswith(message), stderr
        assert "over the memory budget of" in stderr and "Traceback" not in stderr


def test_loading_counts_the_kernel_the_stage_will_build(tmp_path, capsys, monkeypatch):
    # A packed 4-qubit stack of 32 decodes to 128 kB and takes the
    # superoperator, 8 * 16^4 = 512 kB, not 384 kB of GEMM operands: the
    # stage needs 640 kB.  Under a budget below the superoperator alone it
    # exits 2 from the stage's check, before the stack is decoded; at
    # 640 kB it loads and solves.
    path = tmp_path / "wide.json"
    save_channel(random_unitary_channel(4, 32, rng_from(66)), path, alpha=0.99, beta=0.9)
    size = path.stat().st_size
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(8 * 16**4 - 1))
    tracemalloc.start()
    try:
        code = cli.main(["gap", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stdout, stderr = capsys.readouterr()
    assert code == 2 and stdout == "" and "Traceback" not in stderr
    assert stderr == (
        f"error: {path}: 32 Kraus operators of 16 x 16 and their operands needs 0.00061 GiB, "
        "over the memory budget of 0.000488 GiB\n"
    )
    assert peak < 2 * size + 2**17  # no ASCII copy of the field, no decoded stack
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(16 * 32 * 4**4 + 8 * 16**4))
    assert cli.main(["gap", str(path)]) == 0


def test_loading_over_the_memory_budget_builds_no_kraus_stack(tmp_path, capsys, monkeypatch):
    # Two 7-qubit circuit entries would simulate to 2 * 16 * 4^7 = 512 kB,
    # and a packed 6-qubit stack of 4 decodes to 256 kB; with their operands
    # they need 2 MiB and 1 MiB.  Under a 1 MiB budget both files exit 2
    # from their stage's check, before any entry is simulated or decoded.
    unitaries = json.loads(_seven_qubit_model(tmp_path).read_text())["unitaries"]
    compact, packed = tmp_path / "compact.json", tmp_path / "packed.json"
    compact.write_text(json.dumps({"qubits": 7, "kraus": unitaries}))
    save_channel(random_unitary_channel(6, 4, rng_from(65)), packed)
    size = packed.stat().st_size
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(2**20 - 1))
    # Reading and parsing the packed file hold its text twice; decoding would
    # add an ASCII copy of the field and its 256 kB of bytes.
    # 1 MiB and 1 MiB - 1 both print as 0.000977 GiB, so they are given in bytes.
    cases = (
        (compact, "needs 0.00195 GiB, over the memory budget of 0.000977 GiB", 16 * 4**7),
        (packed, "needs 1048576 bytes, over the memory budget of 1048575 bytes", 2 * size + 2**17),
    )
    for path, message, bound in cases:
        tracemalloc.start()
        try:
            code = cli.main(["gap", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stdout, stderr = capsys.readouterr()
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert stderr.startswith(f"error: {path}: ")
        assert stderr.endswith(f"{message}\n"), stderr
        assert peak < bound, (path.name, peak, bound)
