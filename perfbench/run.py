"""qexpander benchmark: seeded workloads through the public API, checked
against stored references.

    python3 perfbench/run.py --workload reduction_dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload thermalize --smoke

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a run that wraps
each module's entry points (see tracer.py).  The lines before it are a
readable summary, the environment, and the reason for every failed op.
See README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("reduction_dense", "matrix_free_gap", "verify_protocol", "thermalize")

#: BLAS threads per process.  One thread keeps runs steady on a shared
#: machine and is at most nproc anywhere; the benchmark runs one process at
#: a time.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per untraced run: this process plus SETUP_SAMPLES - 1 fresh
#: processes that only import and build the inputs.  setup_s is their median
#: plus the one warm-up op, which only this process runs: a warm-up op costs
#: as much as a timed one, and the run's time is better spent on timed ops.
SETUP_SAMPLES = 3

#: Fewest timed ops in a run.  An op of reduction_dense takes 5 to 7 s, so
#: on a slow host one pass of two ops can fill the whole run, and a median
#: of two is the mean of its NO and YES instance.
MIN_OPS = 4

#: Host-speed calibration.  On a shared host the CPU runs at a speed that
#: swings by 30 % and more for seconds to minutes at a time, for interpreter
#: code and BLAS alike, so wall times of the same op differ between runs by
#: more than any bound worth having.  The untraced run therefore times a
#: fixed calibration kernel, which does not touch qexpander, before the
#: first op and after every op, and reports each op in reference seconds:
#: wall * CAL_REF_S / (mean of the kernel times just before and after it).
#: A reference second is a second on a host that runs the kernel in
#: CAL_REF_S.  A change to the program moves the op's wall time but not the
#: kernel's, so it moves the metric; a change of host speed moves both.
#: The wall-time figures are kept in the summary and the result record.
CAL_REF_S = 0.025
CAL_LOOP = 100_000
CAL_DIM = 96
CAL_SHARE = 0.05
CAL_MAX_RUNS = 9

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckoutError(RuntimeError):
    pass


def check_checkout() -> None:
    """The benchmark runs the program from source in this checkout."""
    needed = [ROOT / "src" / "qexpander" / "__init__.py", HERE / "refs.json"]
    needed += [ROOT / "corpus" / "reductions" / f"{k}_2w2a.json" for k in ("no", "yes")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError(f"checkout is missing {', '.join(missing)}")


# -- host-speed calibration ------------------------------------------------

_cal_matrix = None


def kernel_seconds() -> float:
    """Seconds of one run of a fixed kernel in the mix the ops spend their
    time in: an interpreter loop, a small LAPACK eigensolve and SVD, and a
    GEMM."""
    global _cal_matrix
    import numpy as np

    if _cal_matrix is None:
        rng = np.random.default_rng(0)
        _cal_matrix = rng.standard_normal((CAL_DIM, CAL_DIM)) + 1j * rng.standard_normal((CAL_DIM, CAL_DIM))
        kernel_seconds()
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    np.linalg.eigvals(_cal_matrix)
    np.linalg.svd(_cal_matrix)
    _cal_matrix @ _cal_matrix
    return time.perf_counter() - t0


def calibrate(runs: int = CAL_MAX_RUNS) -> float:
    """Median seconds of ``runs`` kernel runs."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def runs_after(op_wall: float) -> int:
    """Kernel runs after an op of ``op_wall`` seconds: enough to cost about
    CAL_SHARE of it, at least one and at most CAL_MAX_RUNS.  One run varies
    by up to 30 %, which a long op, with few samples in a run, would carry
    into its metric."""
    return max(1, min(CAL_MAX_RUNS, round(CAL_SHARE * op_wall / CAL_REF_S)))


def reference_seconds(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * 2.0 * CAL_REF_S / (cal_before + cal_after)


# -- set-up ----------------------------------------------------------------


def setup(name: str, refs_path: Path, workdir: Path):
    """Import and build the inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import qexpander

    if not Path(qexpander.__file__).resolve().is_relative_to(ROOT / "src"):
        raise CheckoutError(f"imported qexpander from {qexpander.__file__}, not from this checkout")
    import workloads

    refs = json.loads(refs_path.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name](ROOT, refs, workdir)
    return workload, time.perf_counter() - t0


def setup_reference_seconds(setup_s: float) -> float:
    """The set-up's wall seconds in reference seconds.  The kernel runs
    after the set-up, which includes importing numpy."""
    return setup_s * CAL_REF_S / calibrate()


def warm_up(workload) -> float:
    """One untimed op on the first pool instance; returns its reference seconds."""
    before = calibrate()
    t0 = time.perf_counter()
    try:
        workload.run(workload.pool[0], 0)
    except Exception:  # a broken op fails again, and is counted, when timed
        pass
    wall = time.perf_counter() - t0
    return reference_seconds(wall, before, calibrate())


def setup_probe(args) -> float:
    """Import and input-generation reference seconds of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--refs", str(args.refs), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise CheckoutError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- the timed phase -------------------------------------------------------


def pool_median(times: list[float], indices: list[int]) -> float:
    """The median op time of each pool instance, averaged over the pool.

    The instances of a pool can differ in cost: those of matrix_free_gap
    take about 4.3 s and 2.8 s.  The plain median of such a run falls in the
    gap between the two groups, where it follows the slowest op of the one
    and the fastest of the other; ten seeds spread it twice as widely.
    """
    by_instance: dict[int, list[float]] = {}
    for i, t in zip(indices, times):
        by_instance.setdefault(i, []).append(t)
    return statistics.mean(statistics.median(ts) for ts in by_instance.values())


def plan(workload, seed: int, pass_no: int):
    """One pass: the whole pool in a seeded order, as (pool index, item,
    op seed) triples."""
    import numpy as np

    rng = np.random.default_rng([seed, pass_no])
    order = rng.permutation(len(workload.pool))
    op_seeds = rng.integers(0, 2**31, size=len(order))
    return [(int(i), workload.pool[i], int(s)) for i, s in zip(order, op_seeds)]


class Tally:
    """Pool index, wall seconds and problems of each op; with
    ``calibrated``, also each op's reference seconds from the kernel times
    around it."""

    def __init__(self, calibrated: bool):
        self.indices: list[int] = []
        self.times: list[float] = []
        self.ref_times: list[float] = []
        self.cals: list[float] = [calibrate()] if calibrated else []
        self.problems: list[str] = []

    def op(self, workload, index, item, op_seed, context):
        t0 = time.perf_counter()
        try:
            with context:
                out = workload.run(item, op_seed)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        self.times.append(time.perf_counter() - t0)
        self.indices.append(index)
        if self.cals:
            self.cals.append(calibrate(runs_after(self.times[-1])))
            self.ref_times.append(reference_seconds(self.times[-1], *self.cals[-2:]))
        problem = problem or workload.check(item, out)
        if problem:
            self.problems.append(problem)


def measure(workload, seed: int, seconds: float, smoke: bool, tracer=None):
    """Whole passes until `seconds` have passed and, untraced, at least
    MIN_OPS ops are timed (one op when smoke).

    With a tracer, passes alternate untraced and traced, at least one each,
    so the overhead is measured in one process on the same inputs.
    Returns (untraced tally, traced tally or None, wall seconds).
    """
    plain = Tally(calibrated=tracer is None)
    traced = Tally(calibrated=False) if tracer else None
    op_id = pass_no = 0
    t0 = time.perf_counter()
    while True:
        ops = plan(workload, seed, pass_no)
        if smoke:
            ops = ops[:1]
        for index, item, op_seed in ops:
            plain.op(workload, index, item, op_seed, contextlib.nullcontext())
        if tracer:
            with tracer.installed():
                for index, item, op_seed in ops:
                    traced.op(workload, index, item, op_seed, tracer.op(op_id))
                    op_id += 1
        pass_no += 1
        min_ops = 1 if tracer else MIN_OPS  # a traced run reports no end-to-end metric
        if smoke or (time.perf_counter() - t0 >= seconds and len(plain.times) >= min_ops):
            return plain, traced, time.perf_counter() - t0


# -- environment -----------------------------------------------------------


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def ram_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "ram_mb": ram_mb(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# -- one workload in this process ------------------------------------------


def run_workload(args) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = []
        if not (args.smoke or args.trace or args.setup_only):
            probes = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        workload, setup_wall_s = setup(args.workload, args.refs, workdir)
        try:
            setup_s = setup_reference_seconds(setup_wall_s)
            if args.setup_only:
                return {"setup_s": setup_s}
            warm_up_s = 0.0 if args.smoke else warm_up(workload)
            tracer = None
            if args.trace:
                import qexpander
                import tracer as tracing

                tracer = tracing.Tracer(qexpander)
            plain, traced, wall = measure(workload, args.seed, args.seconds, args.smoke, tracer)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = [plain] + ([traced] if traced else [])
    attempted = sum(len(t.times) for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "op_samples": len(plain.times),
        "failed_fraction": len(problems) / attempted,
        "timed_wall_s": wall,
    }
    if args.trace:
        import tracer as tracing

        metrics = tracing.per_layer_metrics(
            tracer.spans, tracer.counters, statistics.median(traced.times), statistics.median(plain.times)
        )
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(probes + [setup_s]) + warm_up_s,
            "op_p50_s": pool_median(plain.ref_times, plain.indices),
            "ops_per_s": len(plain.ref_times) / sum(plain.ref_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        summary["setup_samples_s"] = probes + [setup_s]
        summary["warm_up_s"] = warm_up_s
        summary["wall_op_p50_s"] = pool_median(plain.times, plain.indices)
        summary["wall_ops_per_s"] = len(plain.times) / sum(plain.times)
        summary["calibration_p50_s"] = statistics.median(plain.cals)
        summary["op_pool_index"] = plain.indices
        summary["op_wall_s"] = plain.times
        summary["calibration_s"] = plain.cals
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"env": environment(), "summary": summary, "problems": problems, "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    s, result = record["summary"], record["result"]
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']}{' smoke' if s['smoke'] else ''}")
    for name, m in result["metrics"].items():
        extra = f"  (n={s['op_samples']})" if name == "op_p50_s" else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_fraction':44s} {s['failed_fraction']:.6g} ratio  ({result['failed']}/{result['attempted']})")
    if "wall_op_p50_s" in s:
        print(f"# wall: op_p50 {s['wall_op_p50_s']:.6g} s, ops_per_s {s['wall_ops_per_s']:.6g} 1/s; "
              f"calibration kernel p50 {s['calibration_p50_s']:.6g} s (reference {CAL_REF_S} s)")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print("env " + json.dumps(record["env"], sort_keys=True))


# -- every workload, each in its own process --------------------------------


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--refs", str(args.refs)]
        cmd += ["--smoke"] if args.smoke else []
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise CheckoutError(f"{name} exited {done.returncode}: {done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op, no warm-up, one set-up")
    parser.add_argument("--refs", type=Path, default=HERE / "refs.json", help="stored references (default: refs.json here)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    try:
        check_checkout()
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except (CheckoutError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
