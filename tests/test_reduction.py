import dataclasses
import functools
import math

import numpy as np
import pytest

from qexpander.channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    random_unitary_channel,
    zero_sum_defect,
)
from qexpander.circuits import NAMED_BASES, Gate, GateCircuit, RegisterLayout, multi_controlled, simulate_unitary
from qexpander.linalg import frobenius, paulis, rng_from, split_index
from qexpander import reduction
from qexpander.reduction import (
    COARSE_TOL,
    CertificationError,
    build_base_expander,
    build_reduction,
    certify_power_expander,
    controlled_channel,
    controlled_depolarizer,
    ensure_zero_sum,
    make_reduction_spec,
    monomial_permutation,
    no_verifier,
    rest_bits,
    sign_double,
    thresholds,
    witness_verifier_channel,
    yes_verifier,
)
from qexpander.spectral import spectral_gap

from oracles import (
    dense_kappa,
    embed,
    identity_channel,
    lifted_kraus_sum,
    pattern_projector,
    random_operator,
    random_traceless,
    superoperator,
    three_stage_witness_verifier,
    yes_witness,
)

I, X, Y, Z = paulis()
LAYOUT = RegisterLayout(2, 2)


def control_of(projector: np.ndarray, target_qubits) -> np.ndarray:
    """The 0/1 control vector of a dense full-space control projector: its
    diagonal on the rest-basis states, the target qubits at 0."""
    m = int(np.log2(len(projector)))
    return np.diag(projector).real[split_index(m, target_qubits)[:, 0]]


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
    top_is_one = pattern_projector(verifier.num_qubits, (layout.top_qubit,), (1,))
    m = top_is_one @ v @ inject
    return np.linalg.svd(m, compute_uv=False)


@pytest.fixture(scope="module")
def base_expander():
    return build_base_expander(4, target_kappa=0.1, degree_per_stage=8, seed=7)


@pytest.fixture(scope="module")
def no_reduction(base_expander):
    base, kappa_f = base_expander
    spec = make_reduction_spec(no_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base, kappa_f=kappa_f)
    return spec, build_reduction(spec)


@pytest.fixture(scope="module")
def yes_reduction(base_expander):
    base, kappa_f = base_expander
    spec = make_reduction_spec(yes_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base, kappa_f=kappa_f)
    return spec, build_reduction(spec)


# --- sign doubling -----------------------------------------------------------


def test_sign_double_pauli_set():
    unsigned = Channel(paulis(), np.full(4, 0.25))
    doubled = sign_double(unsigned)
    assert doubled.degree == 8
    assert zero_sum_defect(doubled) < 1e-12
    rng = rng_from(0)
    a = random_operator(2, rng)
    assert frobenius(doubled.apply(a) - unsigned.apply(a)) < 1e-12


def test_sign_double_idempotent_in_action():
    ch = sign_double(Channel.uniform((I, X)))
    twice = sign_double(ch)
    a = random_operator(2, rng_from(1))
    assert frobenius(twice.apply(a) - ch.apply(a)) < 1e-12
    assert zero_sum_defect(twice) < 1e-12


def test_sign_double_preserves_arbitrary_channel_action():
    rng = rng_from(2)
    ch = random_unitary_channel(2, 3, rng)
    doubled = sign_double(ch)
    a = random_operator(4, rng)
    assert frobenius(ch.apply(a) - doubled.apply(a)) < 1e-12


def test_ensure_zero_sum_composite():
    rng = rng_from(3)
    comp = Channel.staged((random_unitary_channel(1, 2, rng),) * 2)
    fixed = ensure_zero_sum(comp)
    assert zero_sum_defect(fixed) < 1e-12
    a = random_operator(2, rng)
    assert frobenius(fixed.apply(a) - comp.apply(a)) < 1e-12


def test_sign_double_sets_the_flag_and_keeps_structure():
    rng = rng_from(6)
    flat = random_unitary_channel(2, 3, rng)
    signed = sign_double(flat)
    assert signed.signed and signed.degree == 6
    assert signed._left is flat._left and signed._right is flat._right
    assert signed.target_weights is flat.target_weights
    assert sign_double(signed) is signed
    v = Channel(flat.target_kraus[:1], [1.0], qubits=3, targets=(2, 0))
    doubled_v = sign_double(v)
    assert doubled_v.signed and doubled_v.targets == (2, 0) and doubled_v.control is None
    a = random_operator(8, rng)
    assert frobenius(doubled_v.apply(a) - v.apply(a)) < 1e-13


def test_sign_double_refuses_live_cross_terms():
    raw = Channel((I, X), (0.5, 0.5), qubits=2, targets=(1,), control=[0, 1])
    with pytest.raises(ValueError, match="cross terms"):
        sign_double(raw)
    with pytest.raises(ValueError, match="cross terms"):
        ensure_zero_sum(raw)


def test_zero_sum_defect_is_weighted():
    # sum_d U_d = I - I = 0, but M = 0.7 I - 0.3 I = 0.4 I.
    ch = Channel([I, -I], [0.7, 0.3])
    assert zero_sum_defect(ch) == pytest.approx(0.4 * math.sqrt(2), abs=1e-15)
    with pytest.raises(ValueError, match="zero-sum"):
        controlled_channel(ch, (1,), [0, 1], 2)
    # The cross terms the guard keeps out: the off-diagonal blocks of the
    # control qubit map to M A_pq = 0.4 A_pq, not to 0.
    raw = Channel([I, -I], [0.7, 0.3], qubits=2, targets=(1,), control=[0, 1])
    a = random_operator(4, rng_from(7))
    out = raw.apply(a)
    assert frobenius(out[2:, :2] - 0.4 * a[2:, :2]) < 1e-13
    assert frobenius(out[:2, 2:] - 0.4 * a[:2, 2:]) < 1e-13
    assert zero_sum_defect(sign_double(ch)) == 0.0


# --- controlled channels -----------------------------------------------------


def test_controlled_depolarizer_block_action():
    # control on qubit 0 (P = |1><1|), target qubit 1
    cd = controlled_depolarizer(2, 1, [0, 1])
    p1 = np.diag([0, 1]).astype(complex)
    q1 = np.eye(2) - p1
    rng = rng_from(4)
    for _ in range(10):
        a, sigma = random_operator(2, rng), random_operator(2, rng)
        lhs = cd.apply(np.kron(a, sigma))
        rhs = np.kron(p1 @ a @ p1, np.eye(2) * np.trace(sigma) / 2) + np.kron(q1 @ a @ q1, sigma)
        assert frobenius(lhs - rhs) < 1e-10


def test_controlled_depolarizer_paper_examples():
    cd = controlled_depolarizer(2, 1, [0, 1])
    s00 = np.diag([1, 0]).astype(complex)
    s11 = np.diag([0, 1]).astype(complex)
    # |0><0| (x) |0><0| is untouched (control fails)
    state = np.kron(s00, s00)
    assert frobenius(cd.apply(state) - state) < 1e-12
    # |1><1| (x) sigma_z depolarizes to zero on the target block
    assert frobenius(cd.apply(np.kron(s11, Z))) < 1e-12


def test_cross_terms_without_zero_sum_vanish_with_it():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    ch = Channel.uniform((h,))
    p1 = np.diag([0, 1]).astype(complex)
    q1 = np.eye(2) - p1
    rng = rng_from(5)
    worst_cross = 0.0
    for _ in range(10):
        a, b = random_operator(2, rng), random_operator(2, rng)
        blocks = np.kron(p1 @ a @ p1, ch.apply(b)) + np.kron(q1 @ a @ q1, b)
        raw = Channel((h,), (1.0,), qubits=2, targets=(1,), control=[0, 1])
        worst_cross = max(worst_cross, frobenius(raw.apply(np.kron(a, b)) - blocks))
        fixed = controlled_channel(sign_double(ch), (1,), [0, 1], 2)
        assert frobenius(fixed.apply(np.kron(a, b)) - blocks) < 1e-10
    assert worst_cross > 1e-3


def test_controlled_channel_rejects_non_zero_sum():
    with pytest.raises(ValueError, match="zero-sum|sign-double"):
        controlled_channel(identity_channel(1), (1,), [0, 1], 2)


def test_controlled_channel_refuses_before_it_builds_a_stage(monkeypatch):
    # The zero-sum check reads the target's own record, so a refused target
    # builds no controlled stage and no full-register lift.
    target = random_unitary_channel(2, 3, rng_from(56))
    built = []
    build = Channel._build
    monkeypatch.setattr(Channel, "_build", lambda self, *args: built.append(1) or build(self, *args))
    with pytest.raises(ValueError, match="zero-sum"):
        controlled_channel(target, (1, 2), [0, 1], 3)
    assert not built


def test_controlled_channel_rejects_overlap():
    # A control that reads the target qubit itself, like the projector
    # |1><1| on the only qubit, has the wrong length for the rest register.
    with pytest.raises(ValueError, match="0/1 vector of length 1"):
        controlled_channel(complete_depolarizer(), (0,), [0, 1], 1)


def test_controlled_channel_rejects_non_projector():
    with pytest.raises(ValueError, match="0/1 vector"):
        controlled_channel(complete_depolarizer(), (1,), [0.5, 0.5], 2)
    # A local stage's control is re-indexed; the outer one is checked as given.
    local = Channel(paulis(), np.full(4, 0.25), qubits=2, targets=(0,), signed=True)
    for control in ([0.5, 0.5], [0, 1, 1]):
        with pytest.raises(ValueError, match="0/1 vector of length 2$"):
            controlled_channel(local, (2, 0), control, 3)


def _lifted_controlled(target, target_qubits, projector, num_qubits):
    """The dense oracle: every stage's elements P lift(U) + Q as N x N matrices."""
    q = np.eye(2**num_qubits) - projector
    return Channel.staged(
        Channel(np.array([projector @ embed(u, target_qubits, num_qubits) + q for u in s.kraus]), s.weights)
        for s in target.stages
    )


@pytest.mark.parametrize("zero_sum", [True, False])
def test_controlled_channel_matches_dense_lift(zero_sum):
    # Zero-sum targets go through controlled_channel; the others, which it
    # refuses, are built stage by stage as raw controlled stages.
    rng = rng_from(50)
    inner = random_unitary_channel(2, 3, rng)
    weights = rng.random(3)
    target = Channel.staged((Channel(inner.kraus, weights / weights.sum()), random_unitary_channel(2, 2, rng)))
    projector = np.eye(16) - pattern_projector(4, (0, 2), (1, 1))
    control = control_of(projector, (3, 1))
    if zero_sum:
        target = sign_double(target)
        ctrl = controlled_channel(target, (3, 1), control, 4)
    else:
        ctrl = Channel.staged(
            Channel(s.kraus, s.weights, qubits=4, targets=(3, 1), control=control) for s in target.stages
        )
    oracle = _lifted_controlled(target, (3, 1), projector, 4)
    for _ in range(3):
        a = random_operator(16, rng)
        assert frobenius(ctrl.apply(a) - oracle.apply(a)) < 1e-12
        assert frobenius(ctrl.adjoint().apply(a) - oracle.adjoint().apply(a)) < 1e-12
    assert np.max(np.abs(superoperator(ctrl) - superoperator(oracle))) < 1e-12
    assert [s.targets for s in ctrl.stages] == [(3, 1), (3, 1)]


def test_controlled_power_shares_one_stage():
    base = sign_double(random_unitary_channel(2, 2, rng_from(51)))
    ctrl = controlled_channel(channel_power(base, 3), (0, 1), [0, 1], 3)
    first = ctrl.stages[0]
    assert all(s is first for s in ctrl.stages) and len(ctrl.stages) == 3
    assert first.signed and first.target_kraus.shape == (2, 4, 4) and first.degree == 4
    assert np.array_equal(first.control, [False, True])
    doubled = ensure_zero_sum(channel_power(random_unitary_channel(1, 2, rng_from(52)), 4))
    assert all(s is doubled.stages[0] for s in doubled.stages)


def _hand_lifted(target: Channel) -> Channel:
    """The oracle target: every stage lifted by hand to one flat stage on
    the whole target register, so controlled_channel takes its flat path."""
    return Channel.staged(Channel(s.kraus, s.weights) for s in target.stages)


def _local_stage(kind: str, qubits: int, targets, rng) -> Channel:
    """One stage on `targets` of a `qubits`-qubit register: a signed Haar or
    Pauli half set, or an unsigned set {V, wV, w^2 V} (w = e^(2 pi i / 3)),
    whose elements sum to zero without being signed."""
    k = len(targets)
    if kind == "signed":
        kraus, signed = [random_unitary_channel(k, 1, rng).target_kraus[0] for _ in range(3)], True
    elif kind == "pauli":
        kraus, signed = [functools.reduce(np.kron, rng.choice(paulis(), k)) for _ in range(3)], True
    else:
        v = random_unitary_channel(k, 1, rng).target_kraus[0]
        kraus, signed = [np.exp(2j * math.pi * j / 3) * v for j in range(3)], False
    return Channel(kraus, np.full(3, 1 / 3), qubits=qubits, targets=targets, signed=signed)


COMPOSED_CASES = {
    # name: (num_qubits, target_qubits, control, [(stage kind, stage targets)])
    "1-qubit stages, 2-qubit register": (3, (2, 0), [1, 0], [("signed", (0,)), ("unsigned", (1,))]),
    "2-qubit stages in every order": (
        4, (3, 0, 2), [0, 1], [("signed", (0, 1)), ("unsigned", (1, 0)), ("signed", (2, 0)), ("pauli", (1, 2))],
    ),
    "mixed, 4-qubit register in 5": (
        5, (4, 1, 3, 0), [1, 0], [("pauli", (3,)), ("signed", (2, 0)), ("unsigned", (1, 3)), ("signed", (0,))],
    ),
    "two outer qubits": (
        5, (3, 0, 2), [0, 1, 0, 1], [("signed", (1,)), ("unsigned", (2, 0)), ("pauli", (0, 1)), ("signed", (1, 2))],
    ),
    "flat stages": (4, (1, 3), [0, 1, 1, 0], [("signed", (0, 1)), ("unsigned", (0, 1))]),
}


@pytest.mark.parametrize("name", sorted(COMPOSED_CASES))
def test_controlled_stages_keep_their_targets_and_match_the_hand_lift(name):
    m, target_qubits, control, kinds = COMPOSED_CASES[name]
    rng = rng_from(53, sorted(COMPOSED_CASES).index(name))
    k = len(target_qubits)
    stages = [_local_stage(kind, k, targets, rng) for kind, targets in kinds]
    target = Channel.staged((*stages, stages[0]))  # a repeated stage object
    ctrl = controlled_channel(target, target_qubits, control, m)
    oracle = controlled_channel(_hand_lifted(target), target_qubits, control, m)
    assert [s.targets for s in ctrl.stages] == [tuple(target_qubits[q] for q in s.targets) for s in target.stages]
    assert [s.target_kraus.shape for s in ctrl.stages] == [s.target_kraus.shape for s in target.stages]
    assert ctrl.stages[0] is ctrl.stages[-1] and len({id(s) for s in ctrl.stages}) == len(stages)
    assert [s.signed for s in ctrl.stages] == [s.signed for s in target.stages]
    squared = channel_power(ctrl, 2)
    for _ in range(2):
        a = random_operator(2**m, rng)
        assert frobenius(ctrl.apply(a) - oracle.apply(a)) < 1e-12
        assert frobenius(ctrl.adjoint().apply(a) - oracle.adjoint().apply(a)) < 1e-12
        assert frobenius(squared.apply(a) - oracle.apply(oracle.apply(a))) < 1e-12


def test_controlled_channel_refuses_a_stage_with_its_own_control():
    rng = rng_from(54)
    own = Channel(random_unitary_channel(1, 2, rng).target_kraus, [0.5, 0.5], qubits=2, targets=(0,),
                  control=[0, 1], signed=True)
    with pytest.raises(ValueError, match="zero-sum"):
        controlled_channel(own, (2, 0), [0, 1], 3)
    # An all-ones control is no control.
    ones = Channel(own.target_kraus, own.target_weights, qubits=2, targets=(0,), control=[1, 1], signed=True)
    plain = Channel(own.target_kraus, own.target_weights, qubits=2, targets=(0,), signed=True)
    ctrl, want = (controlled_channel(t, (2, 0), [0, 1], 3) for t in (ones, plain))
    assert ctrl.targets == want.targets == (2,)
    a = random_operator(8, rng)
    assert frobenius(ctrl.apply(a) - want.apply(a)) == 0.0


def test_controlled_channel_refuses_a_target_of_another_qubit_count():
    rng = rng_from(55)
    local = _local_stage("signed", 3, (0,), rng)  # mapped, qubit 0 would land on a qubit of a 2-qubit register
    with pytest.raises(ValueError, match="3-qubit target on 2 target qubits"):
        controlled_channel(local, (2, 0), [0, 1], 3)
    with pytest.raises(ValueError, match="2-qubit target on 3 target qubits"):
        controlled_channel(_local_stage("signed", 2, (0, 1), rng), (3, 0, 1), [0, 1], 4)


def test_witness_verifier_matches_conjugated_dense_stage(no_reduction):
    spec, _ = no_reduction
    layout = spec.layout
    m = layout.total_qubits
    wit = witness_verifier_channel(spec)
    # no_verifier is a permutation, so V, Lambda, V^dag fold into one stage.
    assert len(wit.stages) == 1 and wit.degree == 8
    v_full = embed(simulate_unitary(spec.verifier), tuple(range(layout.verifier_qubits)), m)
    top_is_zero = control_of(pattern_projector(m, (layout.top_qubit,), (0,)), (layout.indicator_qubit,))
    ctrl = controlled_depolarizer(m, layout.indicator_qubit, top_is_zero)
    dense = Channel(v_full.conj().T @ ctrl.kraus @ v_full, ctrl.weights)
    rng = rng_from(53)
    for _ in range(3):
        a = random_operator(2**m, rng)
        assert frobenius(wit.apply(a) - dense.apply(a)) < 1e-12


def phased_monomial_verifier(layout: RegisterLayout) -> GateCircuit:
    """A monomial V with phases: X, CNOTs that move the top qubit, S, T, Z."""
    first, last = layout.ancilla_qubits[0], layout.ancilla_qubits[-1]
    gates = (
        Gate("X", targets=(1,)),
        Gate("CNOT", targets=(first,), controls=(layout.top_qubit,)),
        Gate("CNOT", targets=(layout.top_qubit,), controls=(last,)),
        Gate("S", targets=(layout.top_qubit,)),
        Gate("T", targets=(first,)),
        Gate("Z", targets=(1,)),
    )
    return GateCircuit(layout.verifier_qubits, gates)


MONOMIAL_VERIFIERS = {"no": no_verifier, "yes": yes_verifier, "phased": phased_monomial_verifier}


def spec_for(verifier: GateCircuit, base_expander) -> reduction.ReductionSpec:
    base, kappa_f = base_expander
    return make_reduction_spec(verifier, LAYOUT, 1.0, 0.0, base, kappa_f, strict=False)


def test_monomial_permutation():
    assert np.array_equal(monomial_permutation(np.eye(4, dtype=complex)), np.arange(4))
    perm = np.array([2, 0, 3, 1])
    v = np.zeros((4, 4), dtype=complex)
    v[perm, np.arange(4)] = np.exp(1j * np.arange(4))
    assert np.array_equal(monomial_permutation(v), perm)
    assert monomial_permutation(np.kron(NAMED_BASES["H"], np.eye(2))) is None
    for angle, folds in ((1e-12, True), (1e-6, False)):
        tilted = v @ np.kron(np.eye(2), _ry(angle))
        assert (monomial_permutation(tilted) is not None) == folds


@pytest.mark.parametrize("name", sorted(MONOMIAL_VERIFIERS))
def test_folded_witness_verifier_matches_three_stage_oracle(base_expander, name):
    spec = spec_for(MONOMIAL_VERIFIERS[name](LAYOUT), base_expander)
    folded, oracle = witness_verifier_channel(spec), three_stage_witness_verifier(spec)
    assert len(folded.stages) == 1 and folded.degree == oracle.degree == 8
    assert folded.signed and folded.targets == (LAYOUT.indicator_qubit,)
    rng = rng_from(55)
    for _ in range(4):
        a = random_operator(2**LAYOUT.total_qubits, rng)
        assert frobenius(folded.apply(a) - oracle.apply(a)) < 1e-12
        assert frobenius(folded.adjoint().apply(a) - oracle.adjoint().apply(a)) < 1e-12


@pytest.mark.parametrize("name", sorted(MONOMIAL_VERIFIERS))
def test_folded_reduction_keeps_kappa(base_expander, name):
    spec = spec_for(MONOMIAL_VERIFIERS[name](LAYOUT), base_expander)
    folded = build_reduction(spec)
    unfolded = Channel.staged((folded.stages[0], three_stage_witness_verifier(spec), *folded.stages[2:]))
    assert len(unfolded.stages) == len(folded.stages) + 2 and unfolded.degree == folded.degree
    assert abs(spectral_gap(folded).kappa - spectral_gap(unfolded).kappa) <= 1e-12


def test_control_permuted_by_the_inverse_is_wrong(base_expander):
    # no_verifier's permutation is a 3-cycle, not an involution, so a fold
    # that permuted the control by pi^-1 instead of pi would be caught.
    spec = spec_for(no_verifier(LAYOUT), base_expander)
    m, ind = LAYOUT.total_qubits, LAYOUT.indicator_qubit
    pi = monomial_permutation(simulate_unitary(spec.verifier))
    assert not np.array_equal(pi[pi], np.arange(len(pi)))
    top_is_zero = rest_bits(m, (ind,))[:, LAYOUT.top_qubit] == 0
    inverse = controlled_depolarizer(m, ind, top_is_zero[np.argsort(pi)])
    a = random_operator(2**m, rng_from(56))
    assert frobenius(inverse.apply(a) - three_stage_witness_verifier(spec).apply(a)) > 0.1


def test_non_monomial_verifier_keeps_three_stages(base_expander):
    spec = spec_for(noisy_verifier(LAYOUT, 2.2, 0.3), base_expander)
    assert monomial_permutation(simulate_unitary(spec.verifier)) is None
    wit = witness_verifier_channel(spec)
    assert len(wit.stages) == 3 and wit.degree == 8
    assert [s.targets for s in wit.stages] == [(0, 1, 2, 3), (LAYOUT.indicator_qubit,), (0, 1, 2, 3)]
    oracle = three_stage_witness_verifier(spec)
    a = random_operator(2**LAYOUT.total_qubits, rng_from(57))
    assert frobenius(wit.apply(a) - oracle.apply(a)) < 1e-12


def test_double_verifier_pinching_structure():
    # Ancilla then witness verifier on sum_i A_i (x) sigma_i gives
    # C(A_0) (x) I + sum_{i>=1} Q A_i Q^dag (x) sigma_i with C a pinching
    # composition, Q = Q_w Q_a.
    lay = LAYOUT
    m = lay.total_qubits
    nv = 2**lay.verifier_qubits
    v = simulate_unitary(noisy_verifier(lay, 2.2, 0.3))

    ancilla_fails = np.eye(2**m) - pattern_projector(m, lay.ancilla_qubits, (0,) * lay.num_ancilla)
    anc_ver = controlled_depolarizer(m, lay.indicator_qubit, control_of(ancilla_fails, (lay.indicator_qubit,)))
    top0 = pattern_projector(m, (lay.top_qubit,), (0,))
    ctrl = controlled_depolarizer(m, lay.indicator_qubit, control_of(top0, (lay.indicator_qubit,)))
    v_full = np.kron(v, np.eye(2))
    wit_ver = Channel(tuple(v_full.conj().T @ k @ v_full for k in ctrl.kraus), ctrl.weights)

    q_a = np.kron(np.eye(4), np.diag([1, 0, 0, 0])).astype(complex)
    p_a = np.eye(nv) - q_a
    top1_v = np.kron(np.diag([0, 0, 1, 1]).astype(complex), np.eye(4))
    q_w = v.conj().T @ top1_v @ v
    p_w = np.eye(nv) - q_w
    q = q_w @ q_a

    def pinch(proj_p, proj_q, mat):
        return proj_p @ mat @ proj_p + proj_q @ mat @ proj_q

    rng = rng_from(6)
    for _ in range(5):
        mats = [random_operator(nv, rng) for _ in range(4)]
        state = sum(np.kron(mats[i], s) for i, s in enumerate((I, X, Y, Z)))
        out = wit_ver.apply(anc_ver.apply(state))
        c_a0 = pinch(p_w, q_w, pinch(p_a, q_a, mats[0]))
        expect = np.kron(c_a0, I)
        for i, s in zip(range(1, 4), (X, Y, Z)):
            expect += np.kron(q @ mats[i] @ q.conj().T, s)
        assert frobenius(out - expect) < 1e-9
        # trace preservation and norm non-increase of the pinching composition
        assert abs(np.trace(c_a0) - np.trace(mats[0])) < 1e-10
        assert frobenius(c_a0) <= frobenius(mats[0]) + 1e-12


# --- thresholds --------------------------------------------------------------


def test_thresholds_paper_values():
    alpha, beta = thresholds(0.99, 0.1 / 2**3, 0.1, 2)
    assert beta == pytest.approx(1.2 / np.sqrt(2), abs=1e-12)
    assert beta < 0.85
    assert alpha == pytest.approx(np.sqrt(1 - 1.6 * (1 - 0.99**2)), abs=1e-12)
    assert alpha > 0.98


def test_thresholds_formula_limits():
    alpha, beta = thresholds(1.0, 0.0, 0.0, 2)
    assert alpha == 1.0
    assert beta == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_thresholds_refuse_non_separating():
    with pytest.raises(ValueError, match="separate"):
        thresholds(0.92, 0.01, 0.4, 2)


def test_thresholds_domain():
    with pytest.raises(ValueError, match="lie in"):
        thresholds(1.2, 0.0, 0.1, 2)


# --- base expander synthesis -------------------------------------------------


def test_certification_rejects_identity_stage():
    with pytest.raises(CertificationError, match="does not contract"):
        certify_power_expander(identity_channel(2), 0.1)


def test_certified_composition_obeys_power_bound():
    rng = rng_from(7)
    stage = random_unitary_channel(2, 3, rng)
    kappa0 = dense_kappa(stage)
    channel, certified, r = certify_power_expander(stage, 0.3)
    assert certified <= kappa0**r + 1e-8
    assert certified <= 0.3


def counted_gaps(monkeypatch, change=None):
    """Route the reduction module's spectral_gap through a recorder: the
    list it returns collects (kwargs, report) per call, and `change`, when
    given, rewrites each full-tolerance report before it is returned."""
    calls = []

    def recorded(channel, **kwargs):
        report = spectral_gap(channel, **kwargs)
        if change is not None and "tol" not in kwargs:
            report = change(report)
        calls.append((kwargs, report))
        return report

    monkeypatch.setattr(reduction, "spectral_gap", recorded)
    return calls


def full_tolerance_power(kappa0: float, target: float) -> int:
    return 1 if kappa0 <= target else math.ceil(math.log(target) / math.log(kappa0))


def test_power_pick_equals_the_full_tolerance_power(monkeypatch):
    calls = counted_gaps(monkeypatch)
    coarse = 0
    for seed in range(3):
        for qubits in (2, 3, 4):
            for degree in (3, 8):
                stage = random_unitary_channel(qubits, degree, rng_from(60 + seed, qubits, degree))
                kappa0 = spectral_gap(stage).kappa
                for target in (0.5, 0.1, 0.01):
                    del calls[:]
                    _, certified, r = certify_power_expander(stage, target)
                    assert r == full_tolerance_power(kappa0, target)
                    assert certified <= target
                    coarse += len(calls) == 2 and calls[0][0] == {"tol": COARSE_TOL} and r > 1
    assert coarse >= 27  # 31 of the 54 picks skip the full-tolerance kappa(stage) solve


@pytest.mark.parametrize("r", [2, 3, 4])
def test_power_pick_falls_back_when_the_target_is_a_power(monkeypatch, r):
    # At target kappa0^r the coarse error bar straddles the step from r to
    # r + 1 in ceil(ln target / ln kappa), so the full-tolerance solve decides.
    stage = random_unitary_channel(3, 8, rng_from(70))
    kappa0 = spectral_gap(stage).kappa
    target = kappa0**r
    calls = counted_gaps(monkeypatch)
    _, certified, got = certify_power_expander(stage, target)
    assert [kwargs for kwargs, _ in calls] == [{"tol": COARSE_TOL}, {}, {}]
    assert calls[1][1].kappa == kappa0
    assert got == full_tolerance_power(kappa0, target) and certified <= target


def test_power_pick_at_r_1_returns_the_full_tolerance_kappa(monkeypatch):
    stage = random_unitary_channel(3, 8, rng_from(71))
    full = spectral_gap(stage)
    calls = counted_gaps(monkeypatch)
    channel, certified, r = certify_power_expander(stage, full.kappa + 0.01)
    assert channel is stage and r == 1
    assert certified == full.kappa  # bit for bit
    assert [kwargs for kwargs, _ in calls] == [{"tol": COARSE_TOL}, {}]


def test_base_expander_power_comes_from_the_coarse_solve(monkeypatch):
    # The corpus base expander: the coarse kappa(G) picks r = 6, and the
    # only full-tolerance solve is the kappa(G^6) certificate.
    calls = counted_gaps(monkeypatch)
    channel, kappa_f = build_base_expander(4, target_kappa=0.1, degree_per_stage=8, seed=7)
    assert [kwargs for kwargs, _ in calls] == [{"tol": COARSE_TOL}, {}]
    assert len(channel.stages) == 6 and kappa_f == calls[1][1].kappa


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda rep: dataclasses.replace(rep, converged=False), "converged: False"),
        (lambda rep: dataclasses.replace(rep, error_bound=1.0), "does not certify"),
    ],
    ids=["unconverged", "error bar above the target"],
)
@pytest.mark.parametrize("target", [0.3, 0.99], ids=["r > 1", "r = 1"])
def test_certification_reads_the_certificate(monkeypatch, change, message, target):
    stage = random_unitary_channel(2, 3, rng_from(7))
    assert (certify_power_expander(stage, target)[2] == 1) == (target == 0.99)
    counted_gaps(monkeypatch, change)
    with pytest.raises(CertificationError, match=message):
        certify_power_expander(stage, target)


def test_spec_refuses_an_unconverged_kappa_f_solve(monkeypatch, base_expander):
    base, kappa_f = base_expander
    counted_gaps(monkeypatch, lambda rep: dataclasses.replace(rep, converged=False))
    with pytest.raises(ValueError, match="did not converge"):
        make_reduction_spec(no_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base)
    # A kappa_f given by the caller needs no solve.
    assert make_reduction_spec(no_verifier(LAYOUT), LAYOUT, 1.0, 0.0, base, kappa_f).kappa_f == kappa_f


def test_build_base_expander_certifies_target(base_expander):
    base, kappa_f = base_expander
    assert kappa_f <= 0.1
    assert dense_kappa(base) == pytest.approx(kappa_f, abs=1e-10)


@pytest.mark.parametrize("degree", [1, 2])
def test_build_base_expander_refuses_degrees_that_cannot_certify(monkeypatch, degree):
    # A mixture of at most two unitaries has kappa = 1 for every draw, so
    # such a degree is refused before any draw or solve.
    assert dense_kappa(random_unitary_channel(3, degree, rng_from(62))) == pytest.approx(1.0, abs=1e-10)
    calls = []
    monkeypatch.setattr(reduction, "random_unitary_channel", lambda *args: calls.append(args))
    monkeypatch.setattr(reduction, "spectral_gap", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=rf"^degree per stage must be >= 3 to certify, got {degree}: .* kappa = 1 "):
        build_base_expander(5, degree_per_stage=degree)
    assert calls == []


# --- reduction spec ----------------------------------------------------------


def test_spec_strict_mode_constants(base_expander):
    base, kappa_f = base_expander
    with pytest.raises(ValueError, match="a > 0.99"):
        make_reduction_spec(yes_verifier(LAYOUT), LAYOUT, a=0.9, b=0.0, base_expander=base, kappa_f=kappa_f)
    with pytest.raises(ValueError, match="b <"):
        make_reduction_spec(yes_verifier(LAYOUT), LAYOUT, a=1.0, b=0.02, base_expander=base, kappa_f=kappa_f)
    with pytest.raises(ValueError, match="kappa_f"):
        make_reduction_spec(yes_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base, kappa_f=0.2)


def test_spec_register_mismatch(base_expander):
    base, kappa_f = base_expander
    with pytest.raises(ValueError, match="qubits"):
        make_reduction_spec(yes_verifier(RegisterLayout(2, 3)), LAYOUT, 1.0, 0.0, base, kappa_f)


def test_spec_normalizes_base_to_zero_sum(no_reduction):
    spec, _ = no_reduction
    assert zero_sum_defect(spec.base_expander) < 1e-10
    assert all(s.signed and s.degree == 16 for s in spec.base_expander.stages)


def test_reduction_stages_are_signed_and_structured(no_reduction):
    _, phi = no_reduction
    # anc-ver, the folded wit-ver, then six controlled F stages: one run.
    assert [zero_sum_defect(s) for s in phi.stages] == [0.0] * 8
    assert [s.signed for s in phi.stages] == [True] * 8
    assert [len(run) for run in phi._runs] == [1, 1, 6]


@pytest.mark.parametrize("n_w, n_a", [(1, 1), (2, 2), (3, 3)])
def test_reduction_controls_are_the_dense_projector_diagonals(n_w, n_a):
    # The three controls of build_reduction against the dense projectors
    # they replace: ancillas not all 0, top qubit 0 after V (the folded
    # witness verifier's control is the diagonal of V^dag P V), indicator 1.
    lay = RegisterLayout(n_w, n_a)
    m, ind = lay.total_qubits, lay.indicator_qubit
    base = random_unitary_channel(lay.verifier_qubits, 2, rng_from(54, n_w))
    spec = make_reduction_spec(no_verifier(lay), lay, a=1.0, b=0.0, base_expander=base, kappa_f=0.05)
    stages = build_reduction(spec).stages
    verifier = tuple(range(lay.verifier_qubits))
    v_full = embed(simulate_unitary(spec.verifier), verifier, m)
    ancilla_fails = np.eye(2**m) - pattern_projector(m, lay.ancilla_qubits, (0,) * n_a)
    top_is_zero_after_v = v_full.conj().T @ pattern_projector(m, (lay.top_qubit,), (0,)) @ v_full
    indicator_is_one = pattern_projector(m, (ind,), (1,))
    for stage, projector, targets in (
        (stages[0], ancilla_fails, (ind,)),
        (stages[1], top_is_zero_after_v, (ind,)),
        (stages[2], indicator_is_one, verifier),
    ):
        assert stage.targets == targets
        assert np.array_equal(stage.control, control_of(projector, targets) == 1)
    bits = rest_bits(m, (ind,))
    assert bits.shape == (2 ** (m - 1), m) and not bits[:, ind].any()


def test_ensure_zero_sum_keeps_reduction_structure(no_reduction):
    spec, folded = no_reduction
    # Every stage of the folded reduction is signed already.
    assert all(new is old for new, old in zip(ensure_zero_sum(folded).stages, folded.stages))
    # The unfolded one has the unsigned V and V^dag stages to double.
    phi = Channel.staged((folded.stages[0], three_stage_witness_verifier(spec), *folded.stages[2:]))
    fixed = ensure_zero_sum(phi)
    assert len(fixed.stages) == len(phi.stages) and fixed.degree == 4 * phi.degree
    for old, new in zip(phi.stages, fixed.stages):
        assert new.signed and new.targets == old.targets and new.targets != tuple(range(5))
        assert (new.control is None) == (old.control is None)
        if old.control is not None:
            assert np.array_equal(new.control, old.control)
    assert fixed.stages[4] is fixed.stages[9]  # the controlled F power stays one object
    rng = rng_from(8)
    for _ in range(3):
        a = random_operator(32, rng)
        assert frobenius(fixed.apply(a) - phi.apply(a)) < 1e-12
        assert frobenius(fixed.apply(a) - lifted_kraus_sum(phi, a)) < 1e-12


def test_build_reduction_rejects_non_zero_sum_base():
    from qexpander.reduction import ReductionSpec

    raw_base = random_unitary_channel(4, 2, rng_from(99))
    alpha, beta = thresholds(1.0, 0.0, 0.05, 2)
    bad_spec = ReductionSpec(
        verifier=no_verifier(LAYOUT),
        layout=LAYOUT,
        a=1.0,
        b=0.0,
        base_expander=raw_base,
        kappa_f=0.05,
        alpha=alpha,
        beta=beta,
    )
    with pytest.raises(ValueError, match="zero-sum"):
        build_reduction(bad_spec)


# --- the built channel -------------------------------------------------------


def test_reduction_is_unital(no_reduction):
    _, phi = no_reduction
    eye = np.eye(32, dtype=complex)
    assert frobenius(phi.apply(eye) - eye) < 1e-10


def test_reduction_degree_accounting(no_reduction):
    spec, phi = no_reduction
    assert phi.degree == 64 * spec.base_expander.degree


def test_no_case_gap_bound(no_reduction):
    spec, phi = no_reduction
    kappa = dense_kappa(phi)
    bound = (1 + spec.kappa_f) / np.sqrt(2)
    assert kappa <= bound + 1e-8
    assert kappa <= spec.beta


def test_no_case_contracts_random_traceless(no_reduction):
    spec, phi = no_reduction
    rng = rng_from(8)
    for _ in range(200):
        a = random_traceless(32, rng)
        assert frobenius(phi.apply(a)) <= spec.beta * frobenius(a) + 1e-9


def test_no_case_bound_with_nonzero_b(base_expander):
    # A noisy NO verifier (no witness accepted above b) exercises the full
    # beta = (1 + kappa_F + 2^(n_w+1) b)/sqrt(2) chain, not just the b = 0 case.
    base, kappa_f = base_expander
    b = 0.01
    theta_b = 2 * np.arcsin(np.sqrt(b))
    verifier = noisy_verifier(LAYOUT, 0.0, theta_b)
    assert acceptance_spectrum(verifier, LAYOUT)[0] ** 2 == pytest.approx(b, abs=1e-12)
    spec = make_reduction_spec(verifier, LAYOUT, a=1.0, b=b, base_expander=base, kappa_f=kappa_f)
    phi = build_reduction(spec)
    kappa = dense_kappa(phi)
    assert kappa <= spec.beta + 1e-9
    rng = rng_from(88)
    for _ in range(50):
        a = random_traceless(32, rng)
        assert frobenius(phi.apply(a)) <= spec.beta * frobenius(a) + 1e-9


def test_yes_witness_norm_and_trace(yes_reduction):
    spec, _ = yes_reduction
    psi = np.zeros(4)
    psi[3] = 1.0
    a = yes_witness(spec, psi)
    assert frobenius(a) ** 2 == pytest.approx(1 - 1 / 32, abs=1e-12)
    assert abs(np.trace(a)) < 1e-12
    with pytest.raises(ValueError, match="normalized"):
        yes_witness(spec, psi * 2)


def test_yes_case_fixed_point(yes_reduction):
    spec, phi = yes_reduction
    psi = np.zeros(4)
    psi[3] = 1.0
    a = yes_witness(spec, psi)
    out = phi.apply(a)
    assert frobenius(out - a) < 1e-10
    assert frobenius(out) >= (1 - 1e-9) * frobenius(a)


def test_yes_case_psi_is_fixed_point(yes_reduction):
    _, phi = yes_reduction
    state = np.zeros(32)
    state[0b11000] = 1.0
    psi_mat = np.outer(state, state)
    assert frobenius(phi.apply(psi_mat) - psi_mat) < 1e-10


def test_yes_case_bound_with_imperfect_acceptance(base_expander):
    # a < 1: the witness operator is no longer a fixed point, but the
    # contraction must still exceed alpha = sqrt(1 - (8/5)(1 - a^2)).
    base, kappa_f = base_expander
    theta_a = 3.0
    a = float(np.sin(theta_a / 2) ** 2)
    assert a > 0.99
    verifier = noisy_verifier(LAYOUT, theta_a, 0.0)
    spec = make_reduction_spec(verifier, LAYOUT, a=a, b=0.0, base_expander=base, kappa_f=kappa_f)
    phi = build_reduction(spec)
    psi = np.zeros(4)
    psi[3] = 1.0
    op = yes_witness(spec, psi)
    ratio = frobenius(phi.apply(op)) / frobenius(op)
    assert ratio > spec.alpha
    assert ratio < 1.0  # genuinely not a fixed point
    # and the measured kappa confirms a YES instance at these thresholds
    assert dense_kappa(phi) > spec.alpha


# --- toy verifiers -----------------------------------------------------------


def test_yes_verifier_accepts_all_ones():
    sv = acceptance_spectrum(yes_verifier(LAYOUT), LAYOUT)
    assert sv[0] == pytest.approx(1.0, abs=1e-12)


def test_no_verifier_accepts_nothing():
    sv = acceptance_spectrum(no_verifier(LAYOUT), LAYOUT)
    assert sv[0] < 1e-12


def test_noisy_verifier_thresholds():
    theta_a, theta_b = 2.8, 0.5
    sv = acceptance_spectrum(noisy_verifier(LAYOUT, theta_a, theta_b), LAYOUT)
    assert sv[0] == pytest.approx(np.sin(theta_a / 2), abs=1e-12)
    assert sv[1] == pytest.approx(np.cos(theta_a / 2) * np.sin(theta_b / 2), abs=1e-12)
    assert sv[2] < 1e-12


def test_noisy_verifier_pi_is_exact_iff():
    sv = acceptance_spectrum(noisy_verifier(LAYOUT, np.pi, 0.0), LAYOUT)
    assert sv[0] == pytest.approx(1.0, abs=1e-12)
    assert sv[1] < 1e-12


def test_noisy_verifier_layout_restriction():
    with pytest.raises(ValueError, match="n_w = n_a = 2"):
        noisy_verifier(RegisterLayout(3, 2), 1.0)


def test_toy_verifiers_minimal_layout():
    lay = RegisterLayout(1, 1)
    assert acceptance_spectrum(yes_verifier(lay), lay)[0] == pytest.approx(1.0, abs=1e-12)
    assert acceptance_spectrum(no_verifier(lay), lay)[0] < 1e-12
