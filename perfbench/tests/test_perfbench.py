"""Tests of the benchmark itself, on its smoke mode (one op per workload).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
RUN = HERE / "run.py"
WORKLOADS = ("reduction_dense", "matrix_free_gap", "verify_protocol", "thermalize")
SEED = 7
TIMEOUT = 600

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=TIMEOUT, cwd=cwd)


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, trace) -> (stdout lines, final result), run once per module."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = bench("--workload", workload, "--seed", str(SEED), "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            runs[workload, trace] = lines, json.loads(lines[-1])
    return runs


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(smoke_runs, workload, trace):
    lines, result = smoke_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in {**units, "failed_fraction": "ratio"}.items():
        printed = [line.split() for line in lines if line.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0][2] == unit, name
        float(printed[0][1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_the_op(smoke_runs, workload):
    from tracer import LAYERS, ROOT as OP, self_times

    _, result = smoke_runs[workload, 1]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < layer_sum <= metrics["trace.op_p50_s"]  # one traced op: p50 is its wall time

    with gzip.open(HERE / "out" / f"{workload}-seed{SEED}-trace1.spans.jsonl.gz", "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert "counters" in spans.pop()
    selfs = self_times(spans)
    assert min(selfs) >= 0
    roots = [s for s in spans if s[0] == OP]
    assert len(roots) == 1
    assert sum(t for s, t in zip(spans, selfs) if s[0] != OP) <= roots[0][2] - roots[0][1]


def test_wrong_reference_fails_every_op(tmp_path):
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    for ref in refs["thermalize"].values():
        ref["kappa"] += 1e-6
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs), encoding="utf-8")
    done = bench("--workload", "thermalize", "--seed", str(SEED), "--seconds", "0", "--refs", str(bad))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 8  # one whole pass over the pool
    assert [line.split()[1] for line in lines if line.startswith("failed_fraction")] == ["1"]


def test_tracer_rebinds_every_import_and_restores():
    import qexpander
    from qexpander import protocol, reduction, spectral
    from tracer import Tracer

    original = spectral.spectral_gap
    apply = qexpander.Channel.apply
    tracer = Tracer(qexpander)
    with tracer.installed():
        wrapped = spectral.spectral_gap
        assert wrapped is not original
        assert protocol.spectral_gap is wrapped and reduction.spectral_gap is wrapped
        assert qexpander.spectral_gap is wrapped
        assert qexpander.Channel.apply is not apply
    assert protocol.spectral_gap is original and reduction.spectral_gap is original
    assert qexpander.spectral_gap is original and qexpander.Channel.apply is apply


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "thermalize", "--seconds", "1"],
        capture_output=True, text=True, timeout=TIMEOUT, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
