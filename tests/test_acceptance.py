"""Acceptance suite: every numerical bound and identity the hardness
argument relies on, reproduced at desk scale.  One printed pass/fail line
per criterion (visible under ``pytest -s``)."""

import numpy as np
import pytest

from qexpander.channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    random_unitary_channel,
)
from qexpander.circuits import RegisterLayout
from qexpander.linalg import (
    frobenius,
    haar_unitary,
    paulis,
    rng_from,
    vec,
)
from qexpander.protocol import (
    arthur_verify,
    estimate_contraction_sq,
    merlin_witness,
)
from qexpander.reduction import (
    build_base_expander,
    build_reduction,
    controlled_channel,
    make_reduction_spec,
    no_verifier,
    sign_double,
    thresholds,
    yes_verifier,
)
from qexpander.spectral import NonExpanderInstance, spectral_gap_iterative
from qexpander.thermalization import ThermalModel, decay_bound_check, evolve

from oracles import dense_kappa, random_operator, random_traceless, suggested_shots, yes_witness

I, X, Y, Z = paulis()
LAYOUT = RegisterLayout(2, 2)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def certified_base():
    return build_base_expander(4, target_kappa=0.1, degree_per_stage=8, seed=7)


def test_criterion_1_threshold_formulas():
    n_w = 2
    alpha, beta = thresholds(0.99, 0.1 / 2 ** (n_w + 1), 0.1, n_w)
    ok = abs(beta - 0.84853) < 1e-5 and beta < 0.85
    ok = ok and abs(alpha - 0.98395) < 1e-5 and alpha > 0.98
    report(1, ok, f"alpha = {alpha:.6f} > 0.98, beta = {beta:.6f} < 0.85")


def test_criterion_2_no_case_separation(certified_base):
    base, kappa_f = certified_base
    assert kappa_f <= 0.1
    spec = make_reduction_spec(
        no_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base, kappa_f=kappa_f
    )
    phi = build_reduction(spec)
    kappa = dense_kappa(phi)
    bound = (1 + kappa_f) / np.sqrt(2)
    ok = kappa <= bound + 1e-8 and bound <= 0.778 and kappa < spec.beta
    report(2, ok, f"kappa(Phi) = {kappa:.6f} <= (1+kappa_F)/sqrt(2) = {bound:.6f} <= 0.778")


def test_criterion_3_yes_case_separation(certified_base):
    base, kappa_f = certified_base
    spec = make_reduction_spec(
        yes_verifier(LAYOUT), LAYOUT, a=1.0, b=0.0, base_expander=base, kappa_f=kappa_f
    )
    phi = build_reduction(spec)
    psi = np.zeros(4)
    psi[3] = 1.0
    a = yes_witness(spec, psi)
    norm_sq = frobenius(a) ** 2
    contraction = frobenius(phi.apply(a)) / frobenius(a)
    alpha = 1.0 - 1e-9
    ok = norm_sq == pytest.approx(0.96875, abs=1e-12) and contraction >= alpha
    report(3, ok, f"||A||^2 = {norm_sq} (= 0.96875), ||Phi(A)||/||A|| = {contraction:.12f} >= 1 - 1e-9")


def test_criterion_4_oracle_equivalence():
    worst_gap = 0.0
    for i in range(50):
        rng = rng_from(100, i)
        ch = random_unitary_channel(2 + i % 2, 2 + i % 3, rng)
        dense = dense_kappa(ch)
        iterative = spectral_gap_iterative(ch, tol=1e-9, seed=i).kappa
        worst_gap = max(worst_gap, abs(dense - iterative))
    worst_est = 0.0
    for i in range(100):
        rng = rng_from(200, i)
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        a = random_traceless(4, rng)
        est = estimate_contraction_sq(ch, vec(a) / frobenius(a))
        direct = frobenius(ch.apply(a)) ** 2 / frobenius(a) ** 2
        worst_est = max(worst_est, abs(est - direct))
    ok = worst_gap < 1e-8 and worst_est < 1e-10
    report(
        4,
        ok,
        f"dense/iterative max |diff| = {worst_gap:.2e} < 1e-8 (50 channels); "
        f"protocol estimate max |diff| = {worst_est:.2e} < 1e-10 (100 witnesses)",
    )


def test_criterion_5_controlled_expander_algebra():
    p1 = np.diag([0, 1]).astype(complex)
    q1 = np.eye(2) - p1
    rng = rng_from(300)
    target = random_unitary_channel(1, 3, rng)
    doubled = controlled_channel(sign_double(target), (1,), [0, 1], 2)
    worst_block = 0.0
    for _ in range(100):
        a, b = random_operator(2, rng), random_operator(2, rng)
        blocks = np.kron(p1 @ a @ p1, target.apply(b)) + np.kron(q1 @ a @ q1, b)
        worst_block = max(worst_block, frobenius(doubled.apply(np.kron(a, b)) - blocks))
    # constructed example: single-element {H} channel has element sum H != 0
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    raw = Channel((h,), (1.0,), qubits=2, targets=(1,), control=[0, 1])
    blocks = np.kron(p1 @ X @ p1, np.eye(2)) + np.kron(q1 @ X @ q1, np.eye(2))
    cross_mass = frobenius(raw.apply(np.kron(X, np.eye(2))) - blocks)
    ok = worst_block < 1e-10 and cross_mass > 1e-3
    report(
        5,
        ok,
        f"block action max residual = {worst_block:.2e} < 1e-10 (100 pairs); "
        f"cross-term mass without zero-sum = {cross_mass:.3f} > 1e-3",
    )


def test_criterion_6_protocol_statistics():
    yes = NonExpanderInstance(Channel.uniform((I, Z)), 0.9, 0.5)
    no = NonExpanderInstance(complete_depolarizer(), 0.9, 0.5)
    shots = suggested_shots(yes)
    assert shots == int(np.ceil(100 / (yes.alpha**2 - yes.beta**2) ** 2))
    yes_witness_vec = merlin_witness(yes.channel)
    no_witness_vec = merlin_witness(no.channel)
    accepts = sum(
        arthur_verify(yes, yes_witness_vec, shots=shots, seed=s).accepted for s in range(100)
    )
    rejects = sum(
        not arthur_verify(no, no_witness_vec, shots=shots, seed=s).accepted for s in range(100)
    )
    ok = accepts >= 95 and rejects >= 95
    report(
        6,
        ok,
        f"shots = {shots}: YES accepted {accepts}/100 (>= 95), NO rejected {rejects}/100 (>= 95)",
    )


def _random_projector_resolution(dim, rng):
    u = haar_unitary(dim, rng)
    num_cuts = int(rng.integers(1, dim))
    cuts = sorted(rng.choice(np.arange(1, dim), size=num_cuts, replace=False))
    groups = np.split(np.arange(dim), cuts)
    return [u[:, g] @ u[:, g].conj().T for g in groups]


def test_criterion_7_norm_fact_suite():
    rng = rng_from(400)
    tol = 1e-10
    sigmas = (I, X, Y, Z)
    worst = {k: 0.0 for k in range(7, 14)}
    for trial in range(200):
        dim = int(rng.choice([2, 4, 8]))
        b = random_operator(dim, rng)
        # (7) Frobenius norm definitions coincide
        worst[7] = max(
            worst[7],
            abs(frobenius(b) - np.sqrt(np.trace(b.conj().T @ b).real)),
            abs(frobenius(b) - np.sqrt(np.sum(np.abs(b) ** 2))),
        )
        # (8) rank-one norms are products of vector norms
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        worst[8] = max(
            worst[8],
            abs(frobenius(np.outer(psi, phi.conj())) - np.linalg.norm(psi) * np.linalg.norm(phi)),
        )
        # (9) Pauli-block Pythagoras and the sqrt(2) lower bound
        mats = [random_operator(4, rng) for _ in range(4)]
        total = sum(np.kron(m, s) for m, s in zip(mats, sigmas))
        worst[9] = max(
            worst[9],
            abs(frobenius(total) ** 2 - 2 * sum(frobenius(m) ** 2 for m in mats)),
            max(0.0, np.sqrt(2) * frobenius(mats[0]) - frobenius(total)),
        )
        # (10)/(11) pinching preserves trace, never grows the norm
        projs = _random_projector_resolution(dim, rng)
        pinched = sum(p @ b @ p for p in projs)
        worst[10] = max(worst[10], abs(np.trace(pinched) - np.trace(b)))
        worst[11] = max(worst[11], frobenius(pinched) - frobenius(b))
        # (12) channels never grow the norm
        ch = random_unitary_channel(1 if dim == 2 else 2, 3, rng)
        c = random_operator(ch.dim, rng)
        worst[12] = max(worst[12], frobenius(ch.apply(c)) - frobenius(c))
        # (13) single projector compression never grows the norm
        worst[13] = max(worst[13], frobenius(projs[0] @ b @ projs[0]) - frobenius(b))
    # the spot values quoted alongside (8)
    assert frobenius(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert frobenius(np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
    ok = all(v <= tol for v in worst.values())
    detail = ", ".join(f"eq{k}: {v:.1e}" for k, v in worst.items())
    report(7, ok, f"200 trials, worst deviations {detail} (all <= 1e-10)")


def test_criterion_8_thermalization():
    # equality for the Pauli depolarizer model
    model = ThermalModel((I, X, Y, Z), r0=0.7, r1=0.3)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0.0, 3.0, 20)
    traj = evolve(model, rho0, times)
    a0 = frobenius(rho0 - np.eye(2) / 2)
    equality_err = float(np.max(np.abs(traj.residuals - np.exp(-model.rate * times) * a0)))
    # decay bound for 10 random adjoint-closed models at 20 sampled times
    worst_margin = np.inf
    all_hold = True
    for seed in range(10):
        rng = rng_from(500, seed)
        us = [haar_unitary(4, rng) for _ in range(2)]
        mod = ThermalModel(tuple(us + [u.conj().T for u in us]), r0=0.5 + seed / 10, r1=1.0)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rep = decay_bound_check(mod, rho, np.linspace(0.0, 2.0, 20), strict=False)
        all_hold = all_hold and rep.satisfied
        worst_margin = min(worst_margin, rep.worst_margin)
    # semigroup property
    mod = ThermalModel((I, X, Y, Z), r0=0.2, r1=0.5)
    rho = np.array([[0.75, 0.2 - 0.1j], [0.2 + 0.1j, 0.25]], dtype=complex)
    first = evolve(mod, rho, [0.4]).states[0]
    first = (first + first.conj().T) / 2
    first /= np.trace(first).real
    semigroup_err = frobenius(
        evolve(mod, first, [0.9]).states[0] - evolve(mod, rho, [1.3]).states[0]
    )
    ok = equality_err < 1e-8 and all_hold and semigroup_err < 1e-8
    report(
        8,
        ok,
        f"depolarizer equality err = {equality_err:.2e} < 1e-8; bound holds for 10 models "
        f"(worst margin {worst_margin:.2e} >= -1e-8); semigroup err = {semigroup_err:.2e} < 1e-8",
    )


def test_criterion_9_power_composition():
    worst = -np.inf
    for i in range(20):
        rng = rng_from(600, i)
        ch = random_unitary_channel(2 + i % 2, 2 + i % 3, rng)
        kappa = dense_kappa(ch)
        for r in (2, 3, 4):
            kappa_r = dense_kappa(channel_power(ch, r))
            worst = max(worst, kappa_r - kappa**r)
    ok = worst <= 1e-8
    report(9, ok, f"max kappa(Phi^r) - kappa(Phi)^r = {worst:.2e} <= 1e-8 over 20 channels, r in 2..4")
