import math
import tracemalloc

import numpy as np
import pytest

from qexpander import protocol
from qexpander.channels import Channel, channel_power, complete_depolarizer, random_unitary_channel
from qexpander.linalg import frobenius, paulis, phi_state, rng_from, unvec, vec
from qexpander.protocol import (
    _check_unit_vector,
    arthur_verify,
    check_orthogonality,
    estimate_contraction_sq,
    merlin_witness,
    sample_orthogonality,
)
from qexpander.spectral import NonExpanderInstance
from qexpander.thermalization import ThermalModel

from oracles import (
    dense_kappa,
    flatten,
    gram_contraction_sq,
    identity_channel,
    is_regular,
    random_pair_p0,
    random_traceless,
    sample_random_pair_tests,
    suggested_shots,
    superoperator,
)

I, X, Y, Z = paulis()


def iz_channel():
    return Channel.uniform((I, Z))


def hadamard_test_probability(v, psi):
    """Exact Pr(ancilla = 0) = (1 + Re<psi|V|psi>)/2 of the Hadamard test."""
    psi = _check_unit_vector(psi)
    v = np.asarray(v, dtype=complex)
    if v.shape != (psi.size, psi.size):
        raise ValueError(f"unitary shape {v.shape} does not match state length {psi.size}")
    return 0.5 * (1.0 + float(np.real(np.vdot(psi, v @ psi))))


def sample_hadamard_test(v, psi, shots, rng):
    """Fraction of 0 outcomes over `shots` Hadamard tests of V, drawn from
    `rng` in one binomial call."""
    return rng.binomial(shots, min(max(hadamard_test_probability(v, psi), 0.0), 1.0)) / shots


def pair_unitary(channel, d, e):
    """V_{d,e} = (U_d (x) conj(U_d))^dag (U_e (x) conj(U_e)), built densely."""
    ud, ue = channel.kraus[d], channel.kraus[e]
    wd = np.kron(ud, ud.conj())
    we = np.kron(ue, ue.conj())
    return wd.conj().T @ we


def pair_loop_estimate(channel, psi):
    """Oracle: sum_d w_d^2 + 2 sum_{d<e} w_d w_e Re<psi|V_{d,e}|psi>, one
    exact Hadamard-test probability per dense pair unitary."""
    w = channel.weights
    total = float(w @ w)
    for d in range(channel.degree):
        for e in range(d + 1, channel.degree):
            frac0 = hadamard_test_probability(pair_unitary(channel, d, e), psi)
            total += 2.0 * w[d] * w[e] * (2.0 * frac0 - 1.0)
    return total


def random_weights(degree, rng):
    w = rng.random(degree) + 0.05
    return w / w.sum()


def unit_traceless(dim, rng):
    a = random_traceless(dim, rng)
    return vec(a / frobenius(a))


def test_pair_unitary_identities():
    rng = rng_from(0)
    ch = random_unitary_channel(1, 3, rng)
    for d in range(3):
        for e in range(3):
            v_de = pair_unitary(ch, d, e)
            v_ed = pair_unitary(ch, e, d)
            assert frobenius(v_de - v_ed.conj().T) < 1e-10
        assert frobenius(pair_unitary(ch, d, d) - np.eye(4)) < 1e-10


def test_hadamard_test_probability_examples():
    psi0 = np.array([1, 0], dtype=complex)
    assert hadamard_test_probability(np.eye(2), psi0) == pytest.approx(1.0)
    assert hadamard_test_probability(Z, psi0) == pytest.approx(1.0)
    assert hadamard_test_probability(X, psi0) == pytest.approx(0.5)


def test_hadamard_test_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        hadamard_test_probability(np.eye(2), np.array([1.0, 1.0]))


def test_sampling_identity_gate_always_zero_outcome():
    psi0 = np.array([1, 0], dtype=complex)
    assert sample_hadamard_test(np.eye(2), psi0, shots=500, rng=rng_from(1)) == 1.0


def test_sampling_concentration():
    psi0 = np.array([1, 0], dtype=complex)
    hits = sum(
        abs(sample_hadamard_test(X, psi0, shots=10**6, rng=rng_from(s)) - 0.5) <= 0.002
        for s in range(100)
    )
    assert hits >= 99


def test_sampling_mean_converges_to_probability():
    rng = rng_from(1)
    v = np.kron(X, X).astype(complex)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    p = hadamard_test_probability(v, psi)
    shots, seeds = 2000, 60
    mean = np.mean([sample_hadamard_test(v, psi, shots, rng_from(s)) for s in range(seeds)])
    sigma = math.sqrt(p * (1 - p) / (shots * seeds))
    assert abs(mean - p) <= 3 * max(sigma, 1e-12)


def test_exact_estimate_matches_direct_application():
    rng = rng_from(2)
    for i in range(10):
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        a = random_traceless(4, rng)
        a /= frobenius(a)
        est = estimate_contraction_sq(ch, vec(a))
        assert est == pytest.approx(frobenius(ch.apply(a)) ** 2, abs=1e-10)


def test_exact_estimate_examples():
    sz = vec(Z) / np.sqrt(2)
    assert estimate_contraction_sq(identity_channel(1), sz) == pytest.approx(1.0, abs=1e-12)
    assert estimate_contraction_sq(complete_depolarizer(), sz) == pytest.approx(0.0, abs=1e-12)


def test_estimate_weighted_matches_direct_application():
    rng = rng_from(6)
    for i in range(10):
        degree = 2 + i % 4
        ch = Channel(random_unitary_channel(2, degree, rng).kraus, random_weights(degree, rng))
        a = random_traceless(4, rng)
        a /= frobenius(a)
        assert estimate_contraction_sq(ch, vec(a)) == pytest.approx(frobenius(ch.apply(a)) ** 2, abs=1e-12)


def test_estimate_rejects_mismatched_state():
    with pytest.raises(ValueError, match="does not match"):
        estimate_contraction_sq(iz_channel(), np.eye(16)[0])
    inst = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    for psi in (vec(np.eye(4)) / 2, np.ones(3) / np.sqrt(3)):
        for shots in (None, 10):
            with pytest.raises(ValueError, match="does not match"):
                arthur_verify(inst, psi, shots=shots)


def test_estimate_rejects_nonpositive_shots():
    for shots, message in ((0, "shots must be >= 1"), (-3, "shots must be >= 1"), (2**63, "shots must be <=")):
        with pytest.raises(ValueError, match=message):
            estimate_contraction_sq(iz_channel(), vec(Z) / np.sqrt(2), shots=shots)


def test_sampled_verify_draws_from_two_streams(monkeypatch):
    calls = []

    def counting_rng_from(*args):
        calls.append(args)
        return rng_from(*args)

    monkeypatch.setattr(protocol, "rng_from", counting_rng_from)
    rng = rng_from(16)
    ch = random_unitary_channel(2, 32, rng)
    out = arthur_verify(NonExpanderInstance(ch, 0.5, 0.2), unit_traceless(4, rng), shots=20, seed=3)
    assert out.orthogonality_passed
    assert out.samples_used == 1 + 20
    assert len(calls) <= 2


@pytest.mark.parametrize("qubits", [1, 2, 3])
@pytest.mark.parametrize("degree", [2, 3, 5, 8])
def test_gram_estimate_matches_pair_unitary_loop(qubits, degree):
    rng = rng_from(10, qubits, degree)
    uniform = random_unitary_channel(qubits, degree, rng)
    weighted = Channel(uniform.kraus, random_weights(degree, rng))
    for ch in (uniform, weighted):
        psi = unit_traceless(2**qubits, rng)
        assert estimate_contraction_sq(ch, psi) == pytest.approx(pair_loop_estimate(ch, psi), abs=1e-12)


def oracle_channels(rng):
    """Uniform, weighted, signed and two-stage (controlled second stage)
    2-qubit channels."""
    uniform = random_unitary_channel(2, 5, rng)
    weighted = Channel(uniform.kraus, random_weights(5, rng))
    signed = Channel(random_unitary_channel(2, 3, rng).kraus, random_weights(3, rng), signed=True)
    controlled = Channel(
        random_unitary_channel(1, 2, rng).kraus, [0.3, 0.7], qubits=2, targets=(1,), control=[0, 1]
    )
    return {"uniform": uniform, "weighted": weighted, "signed": signed,
            "two-stage": Channel.staged((weighted, controlled))}


def test_random_pair_gram_average_is_hadamard_probability():
    # A Hadamard test of V_{d,e} with (d, e) drawn from w (x) w returns 0
    # with probability exactly (1 + c)/2, c = ||Phi(A)||_F^2.
    rng = rng_from(13)
    for name, ch in oracle_channels(rng).items():
        for _ in range(3):
            psi = unit_traceless(4, rng)
            c = estimate_contraction_sq(ch, psi)
            assert 0.5 * (1.0 + c) == pytest.approx(random_pair_p0(flatten(ch), psi), abs=1e-12), name


def test_sampled_estimate_matches_per_shot_oracle():
    # The one-binomial draw and the per-shot random-pair sampler have the
    # same mean: the difference of their seed averages is within 4 sigma.
    rng = rng_from(11)
    shots, seeds = 64, 200
    for name, ch in oracle_channels(rng).items():
        psi = unit_traceless(4, rng)
        flat = flatten(ch)
        collapsed = np.mean([estimate_contraction_sq(ch, psi, shots=shots, seed=s) for s in range(seeds)])
        per_shot = np.mean([sample_random_pair_tests(flat, psi, shots, rng_from(s, 2)) for s in range(seeds)])
        p0 = random_pair_p0(flat, psi)
        sigma = 2.0 * math.sqrt(2.0 * p0 * (1.0 - p0) / (shots * seeds))
        assert abs(collapsed - per_shot) <= 4.0 * sigma, name


def test_exact_estimate_memory_is_linear_in_degree():
    # A single 1024 x 1024 pair unitary would take 16 MB here.
    rng = rng_from(12)
    ch = random_unitary_channel(5, 64, rng)
    psi = unit_traceless(32, rng)
    tracemalloc.start()
    try:
        estimate_contraction_sq(ch, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sampled_weighted_estimate_within_standard_error():
    rng = rng_from(14)
    ch = Channel(random_unitary_channel(1, 4, rng).kraus, random_weights(4, rng))
    psi = unit_traceless(2, rng)
    exact = estimate_contraction_sq(ch, psi)
    shots, seeds = 200, 200
    samples = np.array([estimate_contraction_sq(ch, psi, shots, seed=s) for s in range(seeds)])
    bound = 1.0 / math.sqrt(shots)
    assert samples.std() <= 1.2 * bound
    assert abs(samples.mean() - exact) <= 3 * bound / math.sqrt(seeds)


def test_arthur_verifies_non_regular_thermalization_channel():
    rng = rng_from(15)
    model = ThermalModel(random_unitary_channel(2, 3, rng).kraus, r0=0.7, r1=0.3)
    ch = model.channel
    assert not is_regular(ch)
    kappa = dense_kappa(ch)
    psi = merlin_witness(ch)
    accept = arthur_verify(NonExpanderInstance(ch, kappa - 0.05, kappa - 0.2), psi)
    assert accept.accepted
    assert accept.estimated_contraction_sq == pytest.approx(kappa**2, abs=1e-10)
    reject = arthur_verify(NonExpanderInstance(ch, min(kappa + 0.05, 0.999), kappa - 0.2), psi)
    assert not reject.accepted


def test_exact_estimate_on_staged_channels_matches_flattened_gram():
    rng = rng_from(17)
    identity_pair = Channel.staged((identity_channel(1), identity_channel(1)))
    cases = [
        identity_pair,
        channel_power(random_unitary_channel(1, 3, rng), 3),
        Channel.staged((complete_depolarizer(), iz_channel())),
        oracle_channels(rng)["two-stage"],
    ]
    for ch in cases:
        psi = unit_traceless(ch.dim, rng)
        inst = NonExpanderInstance(ch, 0.9, 0.5)
        exact = arthur_verify(inst, psi).estimated_contraction_sq
        assert exact == pytest.approx(gram_contraction_sq(flatten(ch), psi), abs=1e-12)
        assert exact == estimate_contraction_sq(ch, psi)
        assert arthur_verify(inst, psi, shots=10).samples_used == 1 + 10
    assert estimate_contraction_sq(identity_pair, vec(Z) / np.sqrt(2)) == pytest.approx(1.0, abs=1e-12)


def test_estimate_matches_superoperator_quadratic_form():
    rng = rng_from(3)
    for degree in (2, 3, 4, 5):
        ch = random_unitary_channel(1, degree, rng)
        w = superoperator(ch)
        for _ in range(25):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            est = estimate_contraction_sq(ch, psi)
            quad = np.real(np.vdot(w @ psi, w @ psi))
            assert est == pytest.approx(quad, abs=1e-9)


def test_orthogonality_examples():
    assert check_orthogonality(vec(X) / np.sqrt(2))
    assert not check_orthogonality(phi_state(2))


def test_sampled_orthogonality_statistics():
    v00 = vec(np.array([[1, 0], [0, 0]], dtype=complex))
    rejects = sum(not sample_orthogonality(v00, seed=s)[0] for s in range(2000))
    # rejection probability is |<phi|psi>|^2 = 1/2
    assert abs(rejects / 2000 - 0.5) < 0.05


def test_sampled_orthogonality_projects_the_state():
    v00 = vec(np.array([[1, 0], [0, 0]], dtype=complex))
    for s in range(50):
        ok, post = sample_orthogonality(v00, seed=s)
        if ok:
            assert check_orthogonality(post)
            assert abs(np.linalg.norm(post) - 1) < 1e-12


def test_arthur_accepts_yes_instance_exactly():
    inst = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    out = arthur_verify(inst, vec(Z) / np.sqrt(2))
    assert out.accepted
    assert out.orthogonality_passed
    assert out.estimated_contraction_sq == pytest.approx(1.0, abs=1e-12)
    assert out.confidence == 1.0


def test_arthur_rejects_no_instance():
    inst = NonExpanderInstance(complete_depolarizer(), 0.9, 0.5)
    out = arthur_verify(inst, vec(X) / np.sqrt(2))
    assert not out.accepted
    assert out.orthogonality_passed


def test_arthur_rejects_phi_at_orthogonality():
    inst = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    out = arthur_verify(inst, phi_state(2))
    assert not out.accepted and not out.orthogonality_passed
    # the sampled rejection stops before any Hadamard test runs
    out = arthur_verify(NonExpanderInstance(complete_depolarizer(), 0.9, 0.5), phi_state(2), shots=100)
    assert not out.accepted and not out.orthogonality_passed
    assert out.samples_used == 1


def test_sampled_orthogonality_draws_from_root_stream():
    inst = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    psi = vec(np.array([[1, 0], [0, 0]], dtype=complex))
    p_reject = abs(np.vdot(phi_state(2), psi)) ** 2
    for s in range(40):
        out = arthur_verify(inst, psi, shots=10, seed=s)
        assert out.orthogonality_passed == (rng_from(s).random() >= p_reject)


def test_soundness_surviving_states_bounded_by_beta_sq():
    # For a beta-contractive channel, anything in the traceless subspace
    # has exact estimate <= beta^2.
    dep = complete_depolarizer()
    beta = 0.5
    rng = rng_from(4)
    for s in range(20):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        ok, post = sample_orthogonality(psi, seed=s)
        if ok:
            assert estimate_contraction_sq(dep, post) <= beta**2 + 1e-9


def test_sampled_completeness_and_soundness():
    yes = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    no = NonExpanderInstance(complete_depolarizer(), 0.9, 0.5)
    shots = suggested_shots(yes)
    witness = vec(Z) / np.sqrt(2)
    honest_no = merlin_witness(no.channel)
    accepts = sum(arthur_verify(yes, witness, shots=shots, seed=s).accepted for s in range(100))
    rejects = sum(not arthur_verify(no, honest_no, shots=shots, seed=s).accepted for s in range(100))
    assert accepts >= 95
    assert rejects >= 95


def test_arthur_sampled_is_deterministic_given_seed():
    inst = NonExpanderInstance(iz_channel(), 0.9, 0.5)
    a = arthur_verify(inst, vec(Z) / np.sqrt(2), shots=50, seed=9)
    b = arthur_verify(inst, vec(Z) / np.sqrt(2), shots=50, seed=9)
    assert a == b


def test_merlin_witness_achieves_kappa():
    rng = rng_from(5)
    ch = random_unitary_channel(2, 3, rng)
    kappa = dense_kappa(ch)
    w = merlin_witness(ch)
    assert frobenius(ch.apply(unvec(w))) == pytest.approx(kappa, abs=1e-8)


def test_merlin_witness_on_iz_achieves_one():
    w = merlin_witness(iz_channel())
    assert frobenius(iz_channel().apply(unvec(w))) == pytest.approx(1.0, abs=1e-10)


def test_merlin_witness_on_depolarizer_is_traceless():
    w = merlin_witness(complete_depolarizer())
    assert abs(np.trace(unvec(w))) <= 1e-9
    assert frobenius(complete_depolarizer().apply(unvec(w))) <= 1e-8
