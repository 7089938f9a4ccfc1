"""Command-line front end.

Every command prints one JSON object to stdout (keys sorted, so identical
inputs and seeds give byte-identical output) and reports diagnostics on
stderr.  Exit codes are scriptable:

    0   NO / accept / success
    1   YES / reject
    2   input or parse error, or an input too large for the memory
    3   promise violated / non-convergence / uncertified answer

All randomness flows from the --seed value through a counter-based
generator (numpy Philox seeded via SeedSequence).  Each purpose draws
from one stream: `verify` measures orthogonality from rng_from(seed) and
draws its --shots random-pair Hadamard tests, in total, from
rng_from(seed, 1).  `verify` works on every channel file, staged
reductions included; exact mode (the default) cannot accept when
alpha = 1, since ||Phi(A)||_F^2 <= 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .fileio import (
    FileFormatError,
    load_channel,
    load_density_matrix,
    load_instance,
    load_reduction_spec,
    load_state_vector,
    load_thermal_model,
    save_channel,
)
from .protocol import arthur_verify, merlin_witness
from .reduction import CertificationError, build_base_expander, build_reduction
from .spectral import Decision, decide, spectral_gap
from .thermalization import decay_bound_check

EXIT_OK = 0
EXIT_YES_OR_REJECT = 1
EXIT_INPUT_ERROR = 2
EXIT_PROMISE_OR_NONCONV = 3

#: Most sample times `thermalize --times` accepts; every time keeps an
#: N x N state, and the array of times alone would otherwise be unbounded.
MAX_TIME_POINTS = 10**6


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fail(message: str, code: int = EXIT_INPUT_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_gap(args) -> int:
    channel = load_channel(args.instance)
    report = spectral_gap(channel, tol=args.tol, seed=args.seed)
    _emit(
        {
            "command": "gap",
            "kappa": report.kappa,
            "gap": report.gap,
            "iterations": report.iterations,
            "residual": report.residual,
            "error_bound": report.error_bound,
            "converged": report.converged,
            "qubits": channel.qubits,
            "degree": channel.degree,
        }
    )
    return EXIT_OK if report.converged else EXIT_PROMISE_OR_NONCONV


def cmd_decide(args) -> int:
    instance = load_instance(args.instance)
    decision, report = decide(instance, tol=args.tol, seed=args.seed)
    _emit(
        {
            "command": "decide",
            "decision": decision.value,
            "kappa": report.kappa,
            "error_bound": report.error_bound,
            "alpha": instance.alpha,
            "beta": instance.beta,
        }
    )
    if decision is Decision.NO:
        return EXIT_OK
    if decision is Decision.YES:
        return EXIT_YES_OR_REJECT
    return EXIT_PROMISE_OR_NONCONV


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    if args.witness == "auto":
        psi = merlin_witness(instance.channel)
    else:
        psi = load_state_vector(args.witness)
    outcome = arthur_verify(instance, psi, shots=args.shots, seed=args.seed)
    _emit(
        {
            "command": "verify",
            "accepted": outcome.accepted,
            "estimated_contraction_sq": outcome.estimated_contraction_sq,
            "orthogonality_passed": outcome.orthogonality_passed,
            "samples_used": outcome.samples_used,
            "confidence": outcome.confidence,
            "alpha": instance.alpha,
            "beta": instance.beta,
            "shots": args.shots,
            "seed": args.seed,
        }
    )
    return EXIT_OK if outcome.accepted else EXIT_YES_OR_REJECT


def cmd_reduce(args) -> int:
    spec = load_reduction_spec(args.spec)
    channel = build_reduction(spec)
    save_channel(channel, args.out, alpha=spec.alpha, beta=spec.beta)
    _emit(
        {
            "command": "reduce",
            "out": str(args.out),
            "alpha": spec.alpha,
            "beta": spec.beta,
            "kappa_f": spec.kappa_f,
            "base_degree": spec.base_expander.degree,
            "degree": channel.degree,
            "qubits": channel.qubits,
        }
    )
    return EXIT_OK


def cmd_synth_expander(args) -> int:
    channel, kappa = build_base_expander(
        args.qubits,
        target_kappa=args.target_kappa,
        degree_per_stage=args.degree,
        seed=args.seed,
    )
    if args.out:
        save_channel(channel, args.out)
    _emit(
        {
            "command": "synth_expander",
            "kappa": kappa,
            "target_kappa": args.target_kappa,
            "degree": channel.degree,
            "stages": len(channel.stages),
            "qubits": channel.qubits,
            "seed": args.seed,
            "out": str(args.out) if args.out else None,
        }
    )
    return EXIT_OK


def _parse_times(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"times spec must be START:STOP:NUM[:lin|log], got {spec!r}")
    start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "lin"
    if not 1 <= num <= MAX_TIME_POINTS:
        raise ValueError(f"times spec needs between 1 and {MAX_TIME_POINTS} points, got {num}")
    if scale == "lin":
        return np.linspace(start, stop, num)
    if scale == "log":
        if start <= 0:
            raise ValueError("log-spaced times need START > 0")
        return np.geomspace(start, stop, num)
    raise ValueError(f"unknown times scale {scale!r}")


def cmd_thermalize(args) -> int:
    model = load_thermal_model(args.model)
    if args.rho0 == "pure-zero":
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[0, 0] = 1.0
    else:
        rho0 = load_density_matrix(args.rho0)
    times = _parse_times(args.times)
    report = decay_bound_check(model, rho0, times, strict=False)
    lines = ["t,residual,bound"]
    for t, res, bnd in zip(report.times, report.residuals, report.bounds):
        lines.append(f"{float(t)!r},{float(res)!r},{float(bnd)!r}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    _emit(
        {
            "command": "thermalize",
            "points": int(len(report.times)),
            "kappa": report.kappa,
            "error_bound": report.error_bound,
            "rate": report.rate,
            "worst_margin": report.worst_margin,
            "bound_satisfied": report.satisfied,
            "csv": str(args.csv) if args.csv else None,
        }
    )
    return EXIT_OK if report.satisfied else EXIT_PROMISE_OR_NONCONV


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer, as rng_from takes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _shots(text: str) -> int | None:
    """The --shots type: 'exact' (None) or a whole number of Hadamard tests;
    arthur_verify checks its range."""
    if text == "exact":
        return None
    try:
        return int(text)
    except ValueError:
        message = f"expected 'exact' or a whole number of Hadamard tests, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qexpander",
        description="Quantum expander toolkit: spectral gaps, verification, reductions, thermalization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="compute the contraction coefficient of an instance channel")
    p.add_argument("instance", help="instance/channel file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("decide", help="decide a non-expander instance")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="run the Merlin-Arthur verification protocol")
    p.add_argument("instance")
    p.add_argument("--witness", default="auto", help="'auto' (honest Merlin) or a state-vector file")
    p.add_argument("--shots", type=_shots, default=None, help="'exact' or the total number of Hadamard tests")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="build the hardness-reduction channel from a verifier spec")
    p.add_argument("spec", help="reduction spec file")
    p.add_argument("--out", required=True, help="output channel file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("synth-expander", help="synthesize a certified base expander")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--target-kappa", type=float, default=0.1)
    p.add_argument("--degree", type=int, default=8, help="degree per composition stage")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth_expander)

    p = sub.add_parser("thermalize", help="integrate the weak-coupling master equation")
    p.add_argument("model", help="thermal model file")
    p.add_argument("--rho0", default="pure-zero", help="'pure-zero' or a density-matrix file")
    p.add_argument("--times", default="0:5:20", help="START:STOP:NUM[:lin|log]")
    p.add_argument("--csv", default=None, help="write the t,residual,bound table here")
    p.set_defaults(func=cmd_thermalize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, CertificationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory")


if __name__ == "__main__":
    sys.exit(main())
