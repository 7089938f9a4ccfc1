"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Inputs are built here with numpy's own generator, not with qexpander's
random helpers, so the program receives only finished matrices and a change
to its random streams cannot change the inputs.  Every op builds its own
channel, instance or model objects from those matrices, so nothing the
program caches on an object carries over from one op to the next.  Each
workload has a fixed
pool of instances whose references live in ``refs.json`` (see
``make_refs.py``).  The run seed orders the pool in every pass and seeds the
per-op randomness that does not change an op's cost (shot sampling).  Every
pass does the same work, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import qexpander
from qexpander import cli, thermalization

KAPPA_TOL = 1e-8  # |kappa - reference| allowed before an op counts as failed
ESTIMATE_TOL = 1e-10  # exact Hadamard-test estimate vs ||Phi(unvec psi)||_F^2
TRACE_TOL = 1e-10  # tr rho(t) = 1

# -- input generation ------------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the phase-fixed QR of a Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _rng(tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([tag, index])


MFG_SEEDS = (0, 1)  # flat channel seeds; the lazy input is the 2-fold power of each
MFG_QUBITS, MFG_DEGREE = 5, 8
VERIFY_QUBITS, VERIFY_DEGREE, VERIFY_ALPHA, VERIFY_BETA, VERIFY_SHOTS = 4, 32, 0.9, 0.5, 400
THERM_MODELS, THERM_QUBITS, THERM_DEGREE, THERM_R0, THERM_R1 = 8, 4, 4, 1.0, 0.5
THERM_TIMES = np.linspace(0.0, 3.0, 40)
REDUCTION_SPECS = ("no_2w2a", "yes_2w2a")


def mfg_flat_kraus(k: int) -> list[np.ndarray]:
    rng = _rng(1, k)
    return [haar_unitary(2**MFG_QUBITS, rng) for _ in range(MFG_DEGREE)]


def verify_kraus(case: str) -> list[np.ndarray]:
    """NO: Haar-random elements.  YES: block-diagonal diag(V1, V2) elements,
    which fix diag(I, -I) and so give kappa = 1."""
    dim = 2**VERIFY_QUBITS
    if case == "no":
        rng = _rng(2, 0)
        return [haar_unitary(dim, rng) for _ in range(VERIFY_DEGREE)]
    rng = _rng(2, 1)
    out = []
    for _ in range(VERIFY_DEGREE):
        u = np.zeros((dim, dim), dtype=complex)
        u[: dim // 2, : dim // 2] = haar_unitary(dim // 2, rng)
        u[dim // 2 :, dim // 2 :] = haar_unitary(dim // 2, rng)
        out.append(u)
    return out


def therm_unitaries(k: int) -> list[np.ndarray]:
    rng = _rng(3, k)
    return [haar_unitary(2**THERM_QUBITS, rng) for _ in range(THERM_DEGREE)]


def pure_zero(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def apply_kraus(kraus, weights, a: np.ndarray) -> np.ndarray:
    """Phi(A) = sum_d w_d U_d A U_d^dag, computed here as an oracle."""
    return sum(w * (u @ a @ u.conj().T) for w, u in zip(weights, kraus))


# -- workloads -------------------------------------------------------------


class Workload:
    """A pool of instances, one op on an instance, and the op's checks.

    ``run`` is the timed part.  ``check`` compares its output with the stored
    references and returns a reason when the op failed, else None.
    """

    name = ""

    def __init__(self, root: Path, refs: dict, workdir: Path):
        self.root = root
        self.refs = refs[self.name]
        self.workdir = workdir
        self.pool = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def run(self, item, op_seed: int):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything ``build`` changed outside this object."""

    def kappa_problem(self, key: str, kappa: float) -> str | None:
        ref = self.refs[key]["kappa"]
        if not abs(kappa - ref) <= KAPPA_TOL:
            return f"{key}: kappa {kappa!r} is off its reference {ref!r}"
        return None


class ReductionDense(Workload):
    name = "reduction_dense"

    def build(self):
        return [(key, self.root / "corpus" / "reductions" / f"{key}.json") for key in REDUCTION_SPECS]

    def run(self, item, op_seed):
        key, spec = item
        out_path = self.workdir / f"{key}.channel.json"
        reduce_out, decide_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(reduce_out):
            reduce_code = cli.main(["reduce", str(spec), "--out", str(out_path)])
        with contextlib.redirect_stdout(decide_out):
            decide_code = cli.main(["decide", str(out_path)])
        return reduce_code, reduce_out.getvalue(), decide_code, decide_out.getvalue()

    def check(self, item, out):
        key, _ = item
        reduce_code, reduce_text, decide_code, decide_text = out
        if reduce_code != 0:
            return f"{key}: reduce exited {reduce_code}"
        reduced, decided = json.loads(reduce_text), json.loads(decide_text)
        ref = self.refs[key]
        for field in ("kappa_f", "alpha", "beta"):
            if not abs(reduced[field] - ref[field]) <= KAPPA_TOL:
                return f"{key}: {field} {reduced[field]!r} is off its reference {ref[field]!r}"
        problem = self.kappa_problem(key, decided["kappa"])
        if problem:
            return problem
        kappa, decision = decided["kappa"], decided["decision"]
        if ref["case"] == "NO":
            if decision != "NO" or decide_code != 0 or not kappa <= decided["beta"]:
                return f"{key}: NO instance decided {decision} (exit {decide_code}), kappa {kappa!r}"
        elif decision == "NO" or decide_code in (0, 2) or not kappa >= decided["alpha"] - 1e-9:
            return f"{key}: YES instance decided {decision} (exit {decide_code}), kappa {kappa!r}"
        return None


class MatrixFreeGap(Workload):
    name = "matrix_free_gap"

    def build(self):
        return [(k, mfg_flat_kraus(k)) for k in MFG_SEEDS]

    def run(self, item, op_seed):
        # The start vectors are part of the pooled instance, not drawn from
        # the run seed: they set the iteration count, hence the op's cost.
        k, kraus = item
        flat = qexpander.Channel.uniform(kraus)
        lazy = qexpander.channel_power(flat, 2)
        return tuple(qexpander.spectral_gap(ch, method="iterative", tol=1e-9, seed=k) for ch in (flat, lazy))

    def check(self, item, out):
        k = item[0]
        for key, report in zip((f"flat-{k}", f"lazy-{k}"), out):
            if not report.converged:
                return f"{key}: iterative gap did not converge"
            problem = self.kappa_problem(key, report.kappa)
            if problem:
                return problem
        return None


class VerifyProtocol(Workload):
    name = "verify_protocol"

    def build(self):
        return [(case, verify_kraus(case)) for case in ("no", "yes")]

    def run(self, item, op_seed):
        _, kraus = item
        channel = qexpander.Channel.uniform(kraus)
        instance = qexpander.NonExpanderInstance(channel, VERIFY_ALPHA, VERIFY_BETA)
        psi = qexpander.merlin_witness(channel)
        exact = qexpander.arthur_verify(instance, psi)
        sampled = qexpander.arthur_verify(instance, psi, shots=VERIFY_SHOTS, seed=op_seed)
        return psi, exact, sampled

    def check(self, item, out):
        case, kraus = item
        psi, exact, sampled = out
        dim = kraus[0].shape[0]
        weights = np.full(len(kraus), 1.0 / len(kraus))
        image = apply_kraus(kraus, weights, np.asarray(psi).reshape(dim, dim))
        norm_sq = float(np.sum(np.abs(image) ** 2))
        if not abs(exact.estimated_contraction_sq - norm_sq) <= ESTIMATE_TOL:
            return f"{case}: exact estimate {exact.estimated_contraction_sq!r} != ||Phi(A)||^2 {norm_sq!r}"
        problem = self.kappa_problem(case, math.sqrt(max(norm_sq, 0.0)))
        if problem:
            return problem
        expected = self.refs[case]["accepted"]
        if exact.accepted != expected or sampled.accepted != expected:
            return f"{case}: accepted exact={exact.accepted} sampled={sampled.accepted}, expected {expected}"
        return None


class Thermalize(Workload):
    name = "thermalize"

    def build(self):
        self._trajectories = []
        self._evolve = evolve = thermalization.evolve

        # decay_bound_check returns residuals only; keep the trajectory it
        # computed so the states can be checked without a second evolution.
        # Untraced and traced runs both go through this recorder.  Should the
        # program stop calling evolve here, check() evolves again instead.
        def recording_evolve(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            self._trajectories.append(traj)
            return traj

        thermalization.evolve = recording_evolve
        dim = 2**THERM_QUBITS
        return [(f"model-{k}", therm_unitaries(k), pure_zero(dim)) for k in range(THERM_MODELS)]

    def run(self, item, op_seed):
        _, unitaries, rho0 = item
        model = qexpander.ThermalModel(tuple(unitaries), THERM_R0, THERM_R1)
        self._trajectories.clear()
        report = qexpander.decay_bound_check(model, rho0, THERM_TIMES, strict=False)
        return model, report, list(self._trajectories)

    def close(self):
        thermalization.evolve = self._evolve

    def check(self, item, out):
        key, _, rho0 = item
        model, report, trajectories = out
        if not report.satisfied:
            return f"{key}: decay bound violated, worst margin {report.worst_margin!r}"
        problem = self.kappa_problem(key, report.kappa)
        if problem:
            return problem
        traj = trajectories[0] if len(trajectories) == 1 else qexpander.evolve(model, rho0, THERM_TIMES)
        if len(traj.states) != len(THERM_TIMES):
            return f"{key}: {len(traj.states)} states for {len(THERM_TIMES)} times"
        worst = max(abs(np.trace(s) - 1.0) for s in traj.states)
        if not worst <= TRACE_TOL:
            return f"{key}: a state has trace off 1 by {worst!r}"
        return None


WORKLOADS = {w.name: w for w in (ReductionDense, MatrixFreeGap, VerifyProtocol, Thermalize)}
