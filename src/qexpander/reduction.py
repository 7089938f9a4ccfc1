"""The hardness reduction: verifier circuits to non-expander instances.

Given a QMA(a, b) verifier V on witness (n_w) and ancilla (n_a) registers,
the construction adjoins one indicator qubit and composes three maps:

1. the *ancilla verifier*: a controlled complete depolarizer on the
   indicator, applied when the ancillas are not all |0>;
2. the *witness verifier*: conjugation by V, a controlled complete
   depolarizer on the indicator applied when the top (output) qubit is
   |0>, then conjugation by V^dag.  For a monomial V, V|i> = phase_i
   |pi(i)> (a permutation, for instance), V^dag diag(c) V = diag(c o pi),
   so the three fold into one controlled depolarizer applied where the
   top qubit of pi(i) is |0>;
3. a controlled base expander F on witness+ancilla, applied when the
   indicator is |1>.

A valid witness leaves the indicator at |0> and nothing mixes; anything
failing a verifier gets its indicator depolarized and is then scrambled by
F.  The resulting channel contracts every traceless input by

    beta = (1 + kappa_F + 2^(n_w+1) b) / sqrt(2)

in the NO case, while in the YES case the witness operator Psi - I/N is
contracted by no more than alpha = sqrt(1 - (8/5)(1 - a^2)).

Every control is a 0/1 vector c over the basis states of the qubits
outside the controlled map's target register (ascending, qubit 0 most
significant): the vector :class:`Channel` stores.  The three controls
above are bit tests on those states, read off :func:`rest_bits`: the
ancillas are not all 0, the top qubit is 0, and the indicator is 1.
With P = diag(c) (x) I_T and Q = I - P, the Kraus operators act on the
target qubits only, and one application is

    Phi_T(P A P) + P M A Q + Q A M^dag P + Q A Q,    M = sum_d w_d U_d,

so only the controlled blocks need matmuls on the target register.  When
the operation elements sum to zero, M = 0 and the action is blockwise,
P A P (x) F(B) + Q A Q (x) B.  Sign doubling {U} -> {U, -U} enforces this
without changing the channel: it marks a stage *signed*, which doubles its
degree in the 64 D_F accounting but stores and applies only the half set.

The base expander is synthesized, not imported: a seeded random unitary
channel G is composed with itself until its *measured* contraction
coefficient certifies kappa_F <= 0.1.  A COARSE_TOL solve of kappa(G)
picks the power r when it can; the full-tolerance solve of kappa(G^r),
converged and with its error bar below the target, is the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    per_stage,
    random_unitary_channel,
    sign_double,
    zero_sum_defect,
)
from .circuits import SIM_CAP_QUBITS, Gate, GateCircuit, RegisterLayout, multi_controlled, simulate_unitary
from .linalg import ATOL, rng_from, split_index
from .spectral import spectral_gap

#: Seeded draws `build_base_expander` tries before giving up.
MAX_SYNTH_ATTEMPTS = 5

#: Solver tolerance of the kappa(stage) solve that picks the power in
#: `certify_power_expander`; the composed channel is certified at full tolerance.
COARSE_TOL = 1e-3


def ensure_zero_sum(channel: Channel) -> Channel:
    """Sign-double every stage whose weighted target elements do not sum to
    zero (beyond ATOL); targets and control are kept."""
    return per_stage(channel, lambda s: s if zero_sum_defect(s) <= ATOL else sign_double(s))


def rest_bits(num_qubits: int, targets) -> np.ndarray:
    """The bits of the basis states a control vector ranges over: entry
    [r, q] is the bit of qubit q in the r-th basis state of the qubits
    outside `targets` (ascending, qubit 0 most significant), 0 on `targets`."""
    index = split_index(num_qubits, targets)[:, 0]
    return (index[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1


def controlled_channel(target: Channel, target_qubits, control, num_qubits: int) -> Channel:
    """Build the controlled version of `target` on the full qubit space.

    `control` is the 0/1 vector over the basis states of the qubits outside
    `target_qubits` (ascending, qubit 0 most significant) that
    :class:`Channel` takes: the target acts where it is 1.  With
    P = diag(control) (x) I_T and Q = I - P, each target stage becomes one
    structured stage whose full-space elements are {P lift(U_d) + Q}; P is
    diagonal and commutes with every lifted U_d by construction.  A stage
    keeps its own targets, its qubit j mapped to target_qubits[j], so a
    local stage stays local; its control is `control` re-indexed over the
    qubits outside those targets, read off the bits outside
    `target_qubits` alone, so P is unchanged.  See :meth:`Channel.apply`
    for the block form it is applied in; a signed target stage gives a
    signed stage.  The weighted target elements must sum to zero,
    M = sum_d w_d U_d = 0, so the action is P A P (x) F(B) + Q A Q (x) B
    with no cross terms; that is checked on `target` before any stage is
    built, so a refused target is never lifted to the full register.  A
    target stage with a control of its own (not all ones) is refused: its
    elements are the identity where that control is 0, so they never sum
    to zero.  Multi-stage targets are controlled stage by stage, which is
    exact because Lambda(AB) = Lambda(A) Lambda(B) for a shared control
    subspace; each distinct stage object is controlled once.
    """
    target_qubits = tuple(int(q) for q in target_qubits)
    size = len(split_index(num_qubits, target_qubits))
    control = np.array(control, dtype=float).reshape(-1)
    if control.size != size or np.any((control != 0) & (control != 1)):
        raise ValueError(f"control must be a 0/1 vector of length {size}")
    outer = [q for q in range(num_qubits) if q not in target_qubits]
    place = 1 << np.arange(len(outer) - 1, -1, -1)  # rest-state index from the bits outside target_qubits

    def control_stage(s: Channel) -> Channel:
        if s.qubits != len(target_qubits):
            raise ValueError(f"{s.qubits}-qubit target on {len(target_qubits)} target qubits")
        if s.control is not None and not s.control.all():
            raise ValueError("target elements lack the zero-sum property: a stage carries its own control")
        targets = tuple(target_qubits[q] for q in s.targets)
        mapped = control if targets == target_qubits else control[rest_bits(num_qubits, targets)[:, outer] @ place]
        return Channel(s.target_kraus, s.target_weights, qubits=num_qubits, targets=targets, control=mapped,
                       signed=s.signed)

    defect = zero_sum_defect(target)
    if defect > ATOL:
        raise ValueError(
            f"target elements lack the zero-sum property (weighted sum has Frobenius norm {defect:.3e}); "
            "sign-double the channel first (cross terms otherwise)"
        )
    return per_stage(target, control_stage)


def controlled_depolarizer(num_qubits: int, target_qubit: int, control) -> Channel:
    """The 8-regular controlled complete depolarizer on one qubit, switched
    on by the 0/1 `control` vector over the other qubits.

    Elements {Lambda(+-I), Lambda(+-X), Lambda(+-Y), Lambda(+-Z)}; its
    action is P A P (x) I tr(sigma)/2 + Q A Q (x) sigma.
    """
    return controlled_channel(complete_depolarizer(), (target_qubit,), control, num_qubits)


def thresholds(a: float, b: float, kappa_f: float, n_w: int) -> tuple[float, float]:
    """The instance thresholds produced by the reduction:

        beta  = (1 + kappa_f + 2^(n_w+1) b) / sqrt(2)
        alpha = sqrt(1 - (8/5)(1 - a^2))

    Refuses parameter combinations with alpha <= beta.
    """
    for name, value in (("a", a), ("b", b), ("kappa_f", kappa_f)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    beta = (1.0 + kappa_f + 2.0 ** (n_w + 1) * b) / math.sqrt(2.0)
    alpha_sq = 1.0 - 1.6 * (1.0 - a * a)
    if alpha_sq < 0:
        raise ValueError(f"a = {a} gives a negative alpha^2 = {alpha_sq}")
    alpha = math.sqrt(alpha_sq)
    if alpha <= beta:
        raise ValueError(f"thresholds do not separate: alpha = {alpha} <= beta = {beta}")
    return alpha, beta


class CertificationError(RuntimeError):
    pass


def _power(kappa: float, target_kappa: float) -> int:
    """The least r >= 1 with kappa^r <= target_kappa, for 0 < kappa < 1."""
    return max(1, math.ceil(math.log(target_kappa) / math.log(kappa)))


def _coarse_power(stage, target_kappa: float) -> int | None:
    """The power r >= 2 read off a COARSE_TOL solve of kappa(stage), or None
    when that solve cannot fix it: unconverged, an error bar whose two ends
    give different r, a lower end at or below the target (r = 1 is
    possible) or an upper end at or above 1 - 1e-9 (no contraction)."""
    report = spectral_gap(stage, tol=COARSE_TOL)
    low, high = report.kappa - report.error_bound, report.kappa + report.error_bound
    if not (report.converged and target_kappa < low and high < 1.0 - 1e-9):
        return None
    r = _power(high, target_kappa)
    return r if r == _power(low, target_kappa) else None


def certify_power_expander(stage, target_kappa: float):
    """Compose `stage` with itself until the measured kappa certifies the
    target; returns (channel, certified_kappa, r).

    r is the least power with kappa(stage)^r <= target.  A COARSE_TOL solve
    of kappa(stage) fixes r when its whole error bar gives one r (see
    :func:`_coarse_power`); otherwise a full-tolerance solve picks it, and
    fails immediately on stages that do not contract (kappa ~ 1), which
    power composition cannot repair.  The full-tolerance solve of the
    returned channel is the certificate: it must converge with
    kappa + error_bound <= target.
    """
    if not 0.0 < target_kappa < 1.0:
        raise ValueError(f"target_kappa must lie in (0, 1), got {target_kappa}")
    r, composed = _coarse_power(stage, target_kappa), stage
    if r is None:
        report = spectral_gap(stage)
        if report.kappa >= 1.0 - 1e-9:
            raise CertificationError(f"stage kappa = {report.kappa} does not contract; composition is useless")
        r = 1 if report.kappa <= target_kappa else _power(report.kappa, target_kappa)
    if r > 1:
        composed = channel_power(stage, r)
        report = spectral_gap(composed)
    if not report.converged or report.kappa + report.error_bound > target_kappa:
        # The proposition guarantees kappa^r <= target; the measured kappa
        # can only be smaller, so an unconverged solve or a wide error bar
        # lands here.
        raise CertificationError(
            f"kappa {report.kappa} +- {report.error_bound} (converged: {report.converged}) "
            f"does not certify target {target_kappa} after {r} compositions"
        )
    return composed, report.kappa, r


def build_base_expander(
    num_qubits: int,
    target_kappa: float = 0.1,
    degree_per_stage: int = 8,
    seed: int = 0,
):
    """Synthesize a certified kappa <= target expander by power composition.

    Draws a seeded random unitary channel per attempt, measures its
    contraction with the spectral module, composes it with itself r times
    (r the smallest integer with measured_kappa^r <= target), and
    re-measures.  Returns (channel, certified_kappa).  A degree below 3
    is refused before any draw: a uniform mixture of at most two unitaries
    has kappa = 1, since every traceless X commuting with U_1^dag U_2 keeps
    its norm, so no power of it certifies.
    """
    if not 1 <= num_qubits <= SIM_CAP_QUBITS:
        raise ValueError(f"qubits must lie in [1, {SIM_CAP_QUBITS}], got {num_qubits}")
    if degree_per_stage < 1:
        raise ValueError(f"degree per stage must be >= 1, got {degree_per_stage}")
    if degree_per_stage < 3:
        raise ValueError(
            f"degree per stage must be >= 3 to certify, got {degree_per_stage}: a mixture of at most two "
            "unitaries has kappa = 1 (every traceless X commuting with U_1^dag U_2 keeps its norm)"
        )
    last_error = None
    for attempt in range(MAX_SYNTH_ATTEMPTS):
        stage = random_unitary_channel(num_qubits, degree_per_stage, rng_from(seed, attempt))
        try:
            channel, certified, _ = certify_power_expander(stage, target_kappa)
            return channel, certified
        except CertificationError as exc:
            last_error = exc
    raise CertificationError(
        f"no certified expander after {MAX_SYNTH_ATTEMPTS} attempts from seed {seed}: {last_error}"
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
        report = spectral_gap(base_expander)
        if not report.converged:
            raise ValueError(f"the kappa_f solve of the base expander did not converge (kappa {report.kappa})")
        kappa_f = report.kappa
    if strict:
        if not a > 0.99:
            raise ValueError(f"strict mode needs a > 0.99, got {a}")
        if not b < 0.1 * 2.0 ** -(layout.num_witness + 1):
            raise ValueError(f"strict mode needs b < 0.1 * 2^-(n_w+1), got {b}")
        if not kappa_f < 0.1:
            raise ValueError(f"strict mode needs kappa_f < 0.1, got {kappa_f}")
    alpha, beta = thresholds(a, b, kappa_f, layout.num_witness)
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


def monomial_permutation(v: np.ndarray) -> np.ndarray | None:
    """pi with V|i> = phase_i |pi(i)> when every column of the unitary V has
    one entry of modulus 1 and zeros elsewhere (both within ATOL); else None."""
    modulus = np.abs(v)
    pi = np.argmax(modulus, axis=0)
    cols = np.arange(len(v))
    peaks = modulus[pi, cols]
    modulus[pi, cols] = 0.0
    return pi if np.all(np.abs(peaks - 1.0) <= ATOL) and np.all(modulus <= ATOL) else None


def witness_verifier_channel(spec: ReductionSpec) -> Channel:
    """Conjugate-by-V controlled depolarizer, elements V^dag (Lambda W) V.

    A monomial V (V|i> = phase_i |pi(i)>) gives V^dag diag(c) V = diag(c o pi),
    so the elements are those of one controlled depolarizer whose control
    is the top-is-zero vector permuted by pi.  Any other V takes three
    stages: conjugation by V on the verifier qubits, the controlled
    depolarizer, and conjugation by V^dag."""
    layout = spec.layout
    m = layout.total_qubits
    verifier = tuple(range(layout.verifier_qubits))
    v = simulate_unitary(spec.verifier)
    # The indicator is the last qubit, so rest state i is verifier basis state i.
    top_is_zero = rest_bits(m, (layout.indicator_qubit,))[:, layout.top_qubit] == 0
    pi = monomial_permutation(v)
    if pi is not None:
        return controlled_depolarizer(m, layout.indicator_qubit, top_is_zero[pi])
    return Channel.staged(
        (
            Channel((v,), (1.0,), qubits=m, targets=verifier),
            controlled_depolarizer(m, layout.indicator_qubit, top_is_zero),
            Channel((v.conj().T,), (1.0,), qubits=m, targets=verifier),
        )
    )


def build_reduction(spec: ReductionSpec) -> Channel:
    """The full channel of the reduction on n_w + n_a + 1 qubits.

    Composition order: ancilla verifier, witness verifier, controlled base
    expander.  The result is unital and 64 D_F-regular, where D_F is the
    degree of the base expander, which must have the zero-sum property.
    """
    layout = spec.layout
    m, indicator = layout.total_qubits, layout.indicator_qubit
    verifier = tuple(range(layout.verifier_qubits))
    ancilla_fails = rest_bits(m, (indicator,))[:, layout.ancilla_qubits].any(axis=1)
    anc_ver = controlled_depolarizer(m, indicator, ancilla_fails)
    wit_ver = witness_verifier_channel(spec)
    indicator_is_one = rest_bits(m, verifier)[:, indicator] == 1
    ctrl_f = controlled_channel(spec.base_expander, verifier, indicator_is_one, m)
    return Channel.staged((anc_ver, wit_ver, ctrl_f))


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
