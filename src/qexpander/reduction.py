"""The hardness reduction: verifier circuits to non-expander instances.

Given a QMA(a, b) verifier V on witness (n_w) and ancilla (n_a) registers,
the construction adjoins one indicator qubit and composes three maps:

1. the *ancilla verifier*: a controlled complete depolarizer on the
   indicator, applied when the ancillas are not all |0>;
2. the *witness verifier*: conjugation by V, a controlled complete
   depolarizer on the indicator applied when the top (output) qubit is
   |0>, then conjugation by V^dag;
3. a controlled base expander F on witness+ancilla, applied when the
   indicator is |1>.

A valid witness leaves the indicator at |0> and nothing mixes; anything
failing a verifier gets its indicator depolarized and is then scrambled by
F.  The resulting channel contracts every traceless input by

    beta = (1 + kappa_F + 2^(n_w+1) b) / sqrt(2)

in the NO case, while in the YES case the witness operator Psi - I/N is
contracted by no more than alpha = sqrt(1 - (8/5)(1 - a^2)).

Controlled channels only act blockwise (P A P (x) F(B) + Q A Q (x) B) when
the operation elements sum to zero; sign doubling {U} -> {U, -U} enforces
this at a factor-two cost in degree without changing the channel.

The base expander is synthesized, not imported: a seeded random unitary
channel is composed with itself until its *measured* contraction
coefficient certifies kappa_F <= 0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    random_unitary_channel,
    zero_sum_defect,
)
from .circuits import Gate, GateCircuit, RegisterLayout, multi_controlled, simulate_unitary
from .linalg import ATOL, bit_projector, embed, frobenius, pattern_projector, rng_from
from .spectral import spectral_gap


def sign_double(channel: Channel) -> Channel:
    """Extend the operation elements to {U_i} u {-U_i}, halving weights.

    The channel action is unchanged (each term is invariant under
    U -> -U); the element sum becomes exactly zero.
    """
    kraus = np.concatenate([channel.kraus, -channel.kraus])
    weights = np.concatenate([channel.weights, channel.weights]) / 2.0
    return Channel(kraus, weights)


def ensure_zero_sum(channel: Channel, tol: float = ATOL) -> Channel:
    """Sign-double every stage whose elements do not sum to zero."""
    return Channel.staged(s if zero_sum_defect(s) <= tol else sign_double(s) for s in channel.stages)


def controlled_channel(
    target: Channel,
    target_qubits,
    projector: np.ndarray,
    num_qubits: int,
    require_zero_sum: bool = True,
) -> Channel:
    """Build the controlled version of `target` on the full qubit space.

    `projector` is the full-space projector P selecting where the channel
    acts; it must act trivially on `target_qubits` (otherwise the controlled
    elements are not unitary).  Each stage gets the operation elements
    {P lift(U_i) + Q}, Q = I - P; when the target elements sum to zero this
    acts blockwise as P A P (x) F(B) + Q A Q (x) B, with no cross terms.
    Multi-stage targets are controlled stage by stage, which is exact
    because Lambda(AB) = Lambda(A) Lambda(B) for a shared control subspace.
    """
    target_qubits = tuple(int(q) for q in target_qubits)
    projector = np.asarray(projector, dtype=complex)
    n = 2**num_qubits
    if projector.shape != (n, n):
        raise ValueError(f"projector shape {projector.shape} does not match {num_qubits} qubits")
    if frobenius(projector @ projector - projector) > 1e-10 * n:
        raise ValueError("control subspace matrix is not a projector")
    if require_zero_sum:
        defect = zero_sum_defect(target)
        if defect > ATOL:
            raise ValueError(
                f"target elements lack the zero-sum property (sum has Frobenius norm {defect:.3e}); "
                "sign-double the channel first (cross terms otherwise)"
            )
    q = np.eye(n, dtype=complex) - projector
    stages = []
    for stage in target.stages:
        lifted = np.array([embed(u, target_qubits, num_qubits) for u in stage.kraus])
        if np.linalg.norm(projector @ lifted - lifted @ projector, axis=(1, 2)).max() > 1e-10 * n:
            raise ValueError(
                "control projector does not commute with the lifted target elements "
                "(control and target registers overlap?)"
            )
        stages.append(Channel(projector @ lifted + q, stage.weights))
    return Channel.staged(stages)


def controlled_depolarizer(num_qubits: int, target_qubit: int, projector: np.ndarray) -> Channel:
    """The 8-regular controlled complete depolarizer on one qubit.

    Elements {Lambda(+-I), Lambda(+-X), Lambda(+-Y), Lambda(+-Z)}; its
    action is P A P (x) I tr(sigma)/2 + Q A Q (x) sigma.
    """
    return controlled_channel(complete_depolarizer(signed=True), (target_qubit,), projector, num_qubits)


def ancilla_fail_projector(layout: RegisterLayout) -> np.ndarray:
    """Projector onto "ancilla register not all |0>" on the full space."""
    m = layout.total_qubits
    all_zero = pattern_projector(m, layout.ancilla_qubits, (0,) * layout.num_ancilla)
    return np.eye(2**m, dtype=complex) - all_zero


def thresholds(a: float, b: float, kappa_f: float, n_w: int, strict: bool = True) -> tuple[float, float]:
    """The instance thresholds produced by the reduction:

        beta  = (1 + kappa_f + 2^(n_w+1) b) / sqrt(2)
        alpha = sqrt(1 - (8/5)(1 - a^2))

    In strict mode, refuses parameter combinations with alpha <= beta.
    """
    for name, value in (("a", a), ("b", b), ("kappa_f", kappa_f)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    beta = (1.0 + kappa_f + 2.0 ** (n_w + 1) * b) / math.sqrt(2.0)
    alpha_sq = 1.0 - 1.6 * (1.0 - a * a)
    if alpha_sq < 0:
        raise ValueError(f"a = {a} gives a negative alpha^2 = {alpha_sq}")
    alpha = math.sqrt(alpha_sq)
    if strict and alpha <= beta:
        raise ValueError(f"thresholds do not separate: alpha = {alpha} <= beta = {beta}")
    return alpha, beta


class CertificationError(RuntimeError):
    pass


def certify_power_expander(stage, target_kappa: float, method: str = "auto"):
    """Compose `stage` with itself until the measured kappa certifies the
    target; returns (channel, certified_kappa, r).

    Fails immediately on stages that do not contract (kappa ~ 1), which
    power composition cannot repair.
    """
    if not 0.0 < target_kappa < 1.0:
        raise ValueError(f"target_kappa must lie in (0, 1), got {target_kappa}")
    kappa0 = spectral_gap(stage, method=method).kappa
    if kappa0 >= 1.0 - 1e-9:
        raise CertificationError(f"stage kappa = {kappa0} does not contract; composition is useless")
    if kappa0 <= target_kappa:
        return stage, kappa0, 1
    r = max(1, math.ceil(math.log(target_kappa) / math.log(kappa0)))
    composed = channel_power(stage, r)
    certified = spectral_gap(composed, method=method).kappa
    if certified > target_kappa:
        # The proposition guarantees kappa^r; measured can only be smaller,
        # so reaching here means the stage measurement was unlucky.
        raise CertificationError(
            f"re-measured kappa {certified} exceeds target {target_kappa} after {r} compositions"
        )
    return composed, certified, r


def build_base_expander(
    num_qubits: int,
    target_kappa: float = 0.1,
    degree_per_stage: int = 8,
    seed: int = 0,
    max_attempts: int = 5,
):
    """Synthesize a certified kappa <= target expander by power composition.

    Draws a seeded random unitary channel per attempt, measures its
    contraction with the spectral module, composes it with itself r times
    (r the smallest integer with measured_kappa^r <= target), and
    re-measures.  Returns (channel, certified_kappa).
    """
    last_error = None
    for attempt in range(max_attempts):
        stage = random_unitary_channel(num_qubits, degree_per_stage, rng_from(seed, attempt))
        try:
            channel, certified, _ = certify_power_expander(stage, target_kappa)
            return channel, certified
        except CertificationError as exc:
            last_error = exc
    raise CertificationError(
        f"no certified expander after {max_attempts} attempts from seed {seed}: {last_error}"
    )


@dataclass(frozen=True, eq=False)
class ReductionSpec:
    """Everything the reduction needs: verifier, layout, QMA thresholds,
    and a certified (zero-sum) base expander with the resulting instance
    thresholds."""

    verifier: GateCircuit
    layout: RegisterLayout
    a: float
    b: float
    base_expander: Channel
    kappa_f: float
    alpha: float
    beta: float


def make_reduction_spec(
    verifier: GateCircuit,
    layout: RegisterLayout,
    a: float,
    b: float,
    base_expander,
    kappa_f: float | None = None,
    strict: bool = True,
) -> ReductionSpec:
    """Validate and assemble a :class:`ReductionSpec`.

    Strict mode enforces the amplified-verifier regime a > 0.99,
    b < 0.1 * 2^-(n_w+1) and kappa_f < 0.1; alpha > beta is always
    required.  The base expander is normalized to zero-sum form here, so
    its degree is the D_F entering the 64 D_F degree accounting.
    """
    if verifier.num_qubits != layout.verifier_qubits:
        raise ValueError(
            f"verifier acts on {verifier.num_qubits} qubits, layout expects {layout.verifier_qubits}"
        )
    if base_expander.qubits != layout.verifier_qubits:
        raise ValueError(
            f"base expander acts on {base_expander.qubits} qubits, "
            f"layout expects {layout.verifier_qubits}"
        )
    if kappa_f is None:
        kappa_f = spectral_gap(base_expander).kappa
    if strict:
        if not a > 0.99:
            raise ValueError(f"strict mode needs a > 0.99, got {a}")
        if not b < 0.1 * 2.0 ** -(layout.num_witness + 1):
            raise ValueError(f"strict mode needs b < 0.1 * 2^-(n_w+1), got {b}")
        if not kappa_f < 0.1:
            raise ValueError(f"strict mode needs kappa_f < 0.1, got {kappa_f}")
    alpha, beta = thresholds(a, b, kappa_f, layout.num_witness, strict=True)
    return ReductionSpec(
        verifier=verifier,
        layout=layout,
        a=a,
        b=b,
        base_expander=ensure_zero_sum(base_expander),
        kappa_f=kappa_f,
        alpha=alpha,
        beta=beta,
    )


def witness_verifier_channel(spec: ReductionSpec) -> Channel:
    """Conjugate-by-V controlled depolarizer: elements V^dag (Lambda W) V."""
    layout = spec.layout
    m = layout.total_qubits
    v = simulate_unitary(spec.verifier)
    v_full = embed(v, tuple(range(layout.verifier_qubits)), m)
    top_is_zero = bit_projector(m, layout.top_qubit, 0)
    ctrl = controlled_depolarizer(m, layout.indicator_qubit, top_is_zero)
    return Channel(v_full.conj().T @ ctrl.kraus @ v_full, ctrl.weights)


def build_reduction(spec: ReductionSpec) -> Channel:
    """The full channel of the reduction on n_w + n_a + 1 qubits.

    Composition order: ancilla verifier, witness verifier, controlled base
    expander.  The result is unital and 64 D_F-regular, where D_F is the
    degree of the base expander, which must have the zero-sum property.
    """
    layout = spec.layout
    m = layout.total_qubits
    anc_ver = controlled_depolarizer(m, layout.indicator_qubit, ancilla_fail_projector(layout))
    wit_ver = witness_verifier_channel(spec)
    indicator_is_one = bit_projector(m, layout.indicator_qubit, 1)
    ctrl_f = controlled_channel(spec.base_expander, tuple(range(layout.verifier_qubits)), indicator_is_one, m)
    return Channel.staged((anc_ver, wit_ver, ctrl_f))


def yes_witness(spec: ReductionSpec, psi: np.ndarray) -> np.ndarray:
    """The traceless YES-case operator A = Psi - I/N, where Psi is the pure
    state |psi><psi| (x) |0..0><0..0| (x) |0><0| built from an accepted
    witness vector.  ||A||_F^2 = 1 - 1/N with N = 2^(n_w+n_a+1)."""
    layout = spec.layout
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != 2**layout.num_witness:
        raise ValueError(f"witness vector length {psi.size} != 2^n_w = {2**layout.num_witness}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"witness vector is not normalized: ||psi|| = {norm!r}")
    n = 2**layout.total_qubits
    rest = np.zeros(2 ** (layout.num_ancilla + 1), dtype=complex)
    rest[0] = 1.0
    state = np.kron(psi, rest)
    return np.outer(state, state.conj()) - np.eye(n, dtype=complex) / n


# ---------------------------------------------------------------------------
# Toy verifiers.  The paper assumes an amplified verifier exists; concrete
# instances are manufactured here.
# ---------------------------------------------------------------------------


def yes_verifier(layout: RegisterLayout) -> GateCircuit:
    """Exact a = 1 verifier accepting the witness |1...1> (ancillas |0...0>).

    X on the top qubit followed by one multi-controlled X that undoes it
    exactly on the accepting pattern, so V|1...1>|0...0> keeps the top
    qubit at |1>.
    """
    controls = tuple(range(1, layout.num_witness)) + layout.ancilla_qubits
    polarities = (1,) * (layout.num_witness - 1) + (0,) * layout.num_ancilla
    gates = (
        Gate("X", targets=(layout.top_qubit,)),
        multi_controlled("X", layout.top_qubit, controls, polarities),
    )
    return GateCircuit(layout.verifier_qubits, gates)


def no_verifier(layout: RegisterLayout) -> GateCircuit:
    """Exact b = 0 verifier: no witness is ever accepted.

    Two CNOTs move the top qubit's value into the (zero-initialized) first
    ancilla, so V(|psi> (x) |0...0>) always has the top qubit at |0>.
    """
    first_ancilla = layout.ancilla_qubits[0]
    gates = (
        Gate("CNOT", targets=(first_ancilla,), controls=(layout.top_qubit,)),
        Gate("CNOT", targets=(layout.top_qubit,), controls=(first_ancilla,)),
    )
    return GateCircuit(layout.verifier_qubits, gates)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def noisy_verifier(layout: RegisterLayout, theta_a: float, theta_b: float = 0.0) -> GateCircuit:
    """Tunable-(a, b) family on n_w = 2, n_a = 2.

    A rotation on the first ancilla gates the acceptance path, conditional
    swaps push the top qubit into the second ancilla on all non-accepting
    patterns, and a final controlled rotation reopens a small acceptance
    amplitude for the orthogonal witness.  The acceptance singular values
    are sin(theta_a/2) for witness |11> and cos(theta_a/2) sin(theta_b/2)
    for witness |01> (ancilla rotation makes them incoherent, so no witness
    can do better):

        a = sin^2(theta_a/2),    b = cos^2(theta_a/2) sin^2(theta_b/2).
    """
    if layout.num_witness != 2 or layout.num_ancilla != 2:
        raise ValueError("the noisy verifier family is defined for n_w = n_a = 2")
    top = layout.top_qubit
    q1 = 1
    a1, a2 = layout.ancilla_qubits
    gates: list[Gate] = [multi_controlled(_ry(theta_a), a1, ())]
    for p, q in ((0, 0), (0, 1), (1, 0)):
        # Conditional swap(top, a2) on the (q1, a1) = (p, q) pattern.
        gates.append(multi_controlled("X", a2, (top, q1, a1), (1, p, q)))
        gates.append(multi_controlled("X", top, (a2, q1, a1), (1, p, q)))
        gates.append(multi_controlled("X", a2, (top, q1, a1), (1, p, q)))
    if theta_b:
        gates.append(multi_controlled(_ry(theta_b), top, (q1, a1, a2), (1, 0, 0)))
    return GateCircuit(layout.verifier_qubits, tuple(gates))


def acceptance_spectrum(verifier: GateCircuit, layout: RegisterLayout) -> np.ndarray:
    """Singular values of P V (I_W (x) |0...0>_A), descending.

    The squares are the extremal acceptance probabilities over witness
    states; the largest square is the best achievable acceptance, the rest
    bound what orthogonal witnesses can reach.
    """
    if verifier.num_qubits != layout.verifier_qubits:
        raise ValueError("verifier does not match the layout")
    v = simulate_unitary(verifier)
    anc = np.zeros(2**layout.num_ancilla, dtype=complex)
    anc[0] = 1.0
    inject = np.kron(np.eye(2**layout.num_witness, dtype=complex), anc.reshape(-1, 1))
    top_is_one = bit_projector(verifier.num_qubits, layout.top_qubit, 1)
    m = top_is_one @ v @ inject
    return np.linalg.svd(m, compute_uv=False)
