import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qexpander import linalg, thermalization
from qexpander.channels import Channel
from qexpander.fileio import load_thermal_model
from qexpander.linalg import frobenius, haar_unitary, paulis, rng_from, unvec, vec
from qexpander.spectral import spectral_gap
from qexpander.thermalization import ThermalModel, decay_bound_check, evolve

from oracles import dense_kappa, random_operator, series_oracle, superoperator

I, X, Y, Z = paulis()


def random_density(dim, rng):
    """Random full-rank density matrix (normalized Wishart)."""
    g = random_operator(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pauli_model(r0=0.7, r1=0.3):
    return ThermalModel((I, X, Y, Z), r0=r0, r1=r1)


def random_closed_model(seed, qubits=2, pairs=2, r0=0.4, r1=1.1):
    rng = rng_from(seed)
    us = [haar_unitary(2**qubits, rng) for _ in range(pairs)]
    us = us + [u.conj().T for u in us]
    return ThermalModel(tuple(us), r0=r0, r1=r1)


def random_open_model(seed, qubits=2, degree=2, r0=1.3, r1=0.2):
    """Weighted model whose unitary set is not closed under adjoints."""
    rng = rng_from(seed)
    return ThermalModel(tuple(haar_unitary(2**qubits, rng) for _ in range(degree)), r0=r0, r1=r1)


def dense_propagator(model, rho0, times):
    """Oracle: exp(t gamma (W - I)) vec(rho0) from the dense superoperator W."""
    w = superoperator(model.channel)
    gen = model.rate * (w - np.eye(w.shape[0]))
    return [unvec(scipy.linalg.expm(t * gen) @ vec(rho0)) for t in times]


def test_model_validation():
    with pytest.raises(ValueError, match="positive"):
        ThermalModel((I,), r0=0.0, r1=1.0)
    with pytest.raises(ValueError, match="unitary"):
        ThermalModel((np.diag([1.0, 0.5]),), r0=1.0, r1=1.0)
    for r0, r1 in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (1e308, 1e308)):
        with pytest.raises(ValueError, match="positive and finite"):
            ThermalModel((I, X), r0=r0, r1=r1)


def test_channel_weights_and_rate():
    m = pauli_model(0.7, 0.3)
    assert m.degree == 4
    assert m.rate == pytest.approx(4.0)
    assert m.channel.degree == 8
    assert m.channel.weights.sum() == pytest.approx(1.0)


def test_adjoint_closed_channel_equals_uniform_form():
    model = random_closed_model(1)
    uniform = Channel.uniform(model.unitaries)
    rng = rng_from(2)
    rho = random_density(4, rng)
    assert frobenius(model.channel.apply(rho) - uniform.apply(rho)) < 1e-12


def test_evolve_at_time_zero_returns_input():
    model = pauli_model()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(model, rho0, [0.0])
    assert frobenius(traj.states[0] - rho0) < 1e-12


def test_maximally_mixed_is_fixed():
    model = pauli_model()
    traj = evolve(model, np.eye(2) / 2, np.linspace(0, 4, 9))
    assert np.max(traj.residuals) < 1e-12


def test_depolarizer_equality_case():
    # Phi - I = -1 on traceless inputs, so the bound is an equality
    model = pauli_model()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0, 3, 15)
    traj = evolve(model, rho0, times)
    a0 = frobenius(rho0 - np.eye(2) / 2)
    assert np.max(np.abs(traj.residuals - np.exp(-model.rate * times) * a0)) < 1e-8


def test_evolve_matches_dense_propagator():
    for qubits in range(1, 5):
        for model in (random_open_model(40 + qubits, qubits), random_closed_model(50 + qubits, qubits)):
            rho0 = random_density(2**qubits, rng_from(60 + qubits))
            # a repeated time, then gamma t up to 50, past the mixing index
            times = np.array([0.0, 0.2, 0.2, 3.2, 4.0, 12.0, 50.0]) / model.rate
            traj = evolve(model, rho0, times)
            err = max(frobenius(a - b) for a, b in zip(traj.states, dense_propagator(model, rho0, times)))
            assert err < 1e-10, (qubits, err)


def test_trajectory_counts_channel_applications(monkeypatch):
    model = random_open_model(11)
    rho0 = random_density(4, rng_from(12))
    assert evolve(model, rho0, [0.0]).applications == 0
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    traj = evolve(model, rho0, np.linspace(0, 2, 9))
    assert traj.applications == len(calls) > 0


def test_applications_do_not_depend_on_sample_count():
    model = random_open_model(14)
    rho0 = random_density(4, rng_from(15))
    few = evolve(model, rho0, np.linspace(0, 5.0, 2))
    many = evolve(model, rho0, np.linspace(0, 5.0, 400))
    assert few.applications == many.applications > 0
    assert frobenius(few.states[-1] - many.states[-1]) < 1e-14


def test_mixing_model_cost_is_bounded_at_huge_horizons():
    model = random_closed_model(16)
    rho0 = random_density(4, rng_from(17))
    mixed = np.eye(4) / 4
    runs = [evolve(model, rho0, [0.0, scale / model.rate]) for scale in (1e3, 1e9)]
    # the tail rule needs more than gamma t_max terms: the mixing rule stopped both
    assert runs[0].applications == runs[1].applications < 1e3
    for traj in runs:
        assert frobenius(traj.states[-1] - mixed) <= 1e-12
        assert frobenius(traj.states[0] - rho0) < 1e-15


def test_non_mixing_model_matches_dense_propagator():
    # commuting diagonal unitaries fix every diagonal state: kappa = 1
    phases = rng_from(18).uniform(0, 2 * np.pi, (2, 4))
    model = ThermalModel(tuple(np.diag(np.exp(1j * p)) for p in phases), r0=0.4, r1=1.1)
    assert dense_kappa(model.channel) == pytest.approx(1.0, abs=1e-12)
    rho0 = random_density(4, rng_from(19))
    times = np.array([0.0, 1.0, 100.0]) / model.rate
    traj = evolve(model, rho0, times)
    assert traj.applications > 100
    err = max(frobenius(a - b) for a, b in zip(traj.states, dense_propagator(model, rho0, times)))
    assert err < 1e-10


def test_series_raises_at_the_term_cap(monkeypatch):
    # diag(1, e^{i theta}) with cos(theta) = -0.7 scales the coherence of
    # |+><+| by -0.7 per step: still 1e-8 away from I/2 at the 50th power,
    # and the steps shrink too slowly for an early exit to see it.
    model = ThermalModel((np.diag([1.0, np.exp(1j * np.arccos(-0.7))]),), r0=1.0, r1=1.0)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    monkeypatch.setattr(thermalization, "MAX_SERIES_TERMS", 50)
    assert evolve(model, rho0, [0.0, 10.0 / model.rate]).applications <= 50
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    with pytest.raises(ValueError, match=r"gamma \* t_max = 1000 needs more than 50 channel applications"):
        evolve(model, rho0, [0.0, 1e3 / model.rate])
    assert len(calls) == 50


@pytest.mark.parametrize(
    "case",
    [
        # Z swaps |+><+| and |-><-|; X on qubit 0 of 4 swaps |0><0| and |8><8|
        ("Z from |+><+|", Z, np.full((2, 2), 0.5, dtype=complex)),
        ("X (x) I_8 from |0><0|", np.kron(X, np.eye(8)), np.diag([1.0] + [0.0] * 15).astype(complex)),
    ],
    ids=lambda case: case[0],
)
def test_oscillating_model_stops_after_two_applications(monkeypatch, case):
    # T_2 = T_0: the two-step difference is 0, so no later term can come
    # within SERIES_TOL of I/N although each single step stays at sqrt(2).
    _, u, rho0 = case
    model = ThermalModel((u,), r0=1.0, r1=1.0)
    model.channel  # built, and checked unital, before counting
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    with pytest.raises(ValueError, match="does not mix within that horizon"):
        evolve(model, rho0, [0.0, 1e9])
    assert len(calls) == 2


def _series_models(corpus):
    models = [load_thermal_model(path) for path in sorted((corpus / "models").glob("*.json"))]
    for seed in range(3):
        rng = rng_from(60, seed)
        models.append(ThermalModel(tuple(haar_unitary(16, rng) for _ in range(4)), r0=1.0, r1=0.5))
    return models


@pytest.mark.parametrize("gamma_t", [0.0, 18.0, 300.0])
def test_evolve_equals_per_term_series_oracle_bit_for_bit(corpus, gamma_t):
    for model in _series_models(corpus):
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[0, 0] = 1.0
        for count in (1, 40, 70):  # one block, a full and a partial block, two blocks
            times = np.linspace(0.0, gamma_t / model.rate, count)
            traj = evolve(model, rho0, times)
            states, applications, bound = series_oracle(model, rho0, times)
            assert (traj.applications, traj.truncation_bound) == (applications, bound)
            assert np.array(traj.states).tobytes() == states.tobytes()


def _truncation_models():
    models = []
    for qubits in range(1, 5):
        models += [random_open_model(70 + qubits, qubits), random_closed_model(80 + qubits, qubits)]
    return models


@pytest.mark.parametrize("gamma_t", [0.0, 0.5, 18.0, 300.0])
def test_states_lie_within_the_truncation_bound(gamma_t):
    # Every state is within tau(K) r_{K-1} of the exact one; 1e-12 covers
    # rounding, which alone reaches about 2e-13 at gamma t = 300.
    for model in _truncation_models():
        rho0 = random_density(model.dim, rng_from(90, model.dim))
        times = np.array([0.0, 0.1, 0.5, 1.0]) * gamma_t / model.rate
        traj = evolve(model, rho0, times)
        assert 0.0 <= traj.truncation_bound <= thermalization.SERIES_TOL
        assert (traj.truncation_bound == 0.0) == (gamma_t == 0.0)
        for got, want in zip(traj.states, dense_propagator(model, rho0, times)):
            assert frobenius(got - want) <= traj.truncation_bound + 1e-12


@pytest.mark.parametrize("gamma_t", [0.5, 18.0])
def test_traces_keep_the_poisson_tail_mass(corpus, gamma_t):
    # The Poisson mass past the last term goes to I/N, so each state's
    # trace is 1 up to rounding in the summed weights.
    for model in _series_models(corpus) + _truncation_models():
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[0, 0] = 1.0
        traj = evolve(model, rho0, np.linspace(0.0, gamma_t / model.rate, 40))
        assert max(abs(np.trace(state) - 1.0) for state in traj.states) <= 1e-14


def test_product_rule_ends_the_series_before_the_tail_or_the_mixing_rule(corpus):
    # 4-qubit D = 4 Haar models at gamma t = 18: the tail and the mixing
    # rule alone would need 57 applications, their product 37-38.
    for model in _series_models(corpus)[-3:]:
        assert (model.dim, model.degree, model.r0, model.r1) == (16, 4, 1.0, 0.5)
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[0, 0] = 1.0
        traj = evolve(model, rho0, np.linspace(0.0, 18.0 / model.rate, 40))
        assert traj.applications <= 38
        assert traj.truncation_bound <= thermalization.SERIES_TOL


def test_series_that_ends_within_the_cap_is_never_refused(monkeypatch):
    # diag(1, e^{0.7i}) fixes the diagonal state diag(1/2 + e, 1/2 - e), so
    # r_k stays at sqrt(2) e = 1.15e-12 and every step is 0 up to rounding.
    # At gamma t_max = 46 and a cap of 50, tau(50) = 0.844 brings
    # tau r below SERIES_TOL after 49 applications.  The early exits'
    # lower bound r_k is above SERIES_TOL, but times tau(51) = 0.769 it is
    # not, so the series is not refused.
    monkeypatch.setattr(thermalization, "MAX_SERIES_TERMS", 50)
    model = ThermalModel((np.diag([1.0, np.exp(0.7j)]),), r0=1.0, r1=1.0)
    e = 1.15e-12 / np.sqrt(2.0)
    rho0 = np.diag([0.5 + e, 0.5 - e]).astype(complex)
    traj = evolve(model, rho0, [0.0, 46.0 / model.rate])
    assert traj.applications == 49
    assert traj.truncation_bound <= thermalization.SERIES_TOL
    for state in traj.states:
        assert frobenius(state - rho0) <= traj.truncation_bound + 1e-15


def test_non_mixing_model_stops_long_before_the_term_cap(monkeypatch):
    # diag(1, e^{0.7i}) fixes |0><0|: the first step is 0, so no later term
    # can come within SERIES_TOL of I/2, and the series stops at once.
    model = ThermalModel((np.diag([1.0, np.exp(0.7j)]),), r0=1.0, r1=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    with pytest.raises(ValueError, match="does not mix within that horizon"):
        evolve(model, rho0, [0.0, 1e9])
    assert 1 <= len(calls) <= 2


def test_trajectory_invariants():
    model = random_closed_model(5)
    rho0 = random_density(4, rng_from(6))
    traj = evolve(model, rho0, np.linspace(0, 6, 25))
    for state in traj.states:
        assert abs(np.trace(state) - 1) < 1e-9
        assert np.max(np.abs(state - state.conj().T)) < 1e-9
    assert np.all(np.diff(traj.residuals) <= 1e-10)


def test_convergence_to_maximally_mixed():
    model = random_closed_model(7)
    kappa = dense_kappa(model.channel)
    assert kappa < 1
    horizon = 20.0 / (model.rate * (1 - kappa))
    rho0 = random_density(4, rng_from(8))
    traj = evolve(model, rho0, [0.0, horizon])
    assert traj.residuals[-1] <= 1e-6 * traj.residuals[0]


def test_semigroup_property():
    model = random_closed_model(9)
    rho0 = random_density(4, rng_from(10))
    t1, t2 = 0.31, 0.77
    mid = evolve(model, rho0, [t1]).states[0]
    mid = (mid + mid.conj().T) / 2
    mid /= np.trace(mid).real
    chained = evolve(model, mid, [t2]).states[0]
    direct = evolve(model, rho0, [t1 + t2]).states[0]
    assert frobenius(chained - direct) < 1e-8


def test_decay_bound_random_models():
    for seed in range(3):
        model = random_closed_model(20 + seed)
        rho0 = random_density(4, rng_from(30 + seed))
        gamma_eff = model.rate * (1 - dense_kappa(model.channel))
        times = np.geomspace(1e-3, 10.0 / gamma_eff, 20)
        report = decay_bound_check(model, rho0, times)
        assert report.satisfied
        assert report.worst_margin >= -1e-8


def _fake_gap(monkeypatch, kappa, error_bound=0.0):
    """Make decay_bound_check see a gap report with the given kappa."""

    def fake(channel, *args, **kwargs):
        return dataclasses.replace(spectral_gap(channel), kappa=kappa, error_bound=error_bound)

    monkeypatch.setattr(thermalization, "spectral_gap", fake)


def test_decay_envelope_takes_kappa_at_top_of_error_bar(monkeypatch):
    # N = 16 takes the Lanczos gap, whose error bound is nonzero
    model = random_open_model(13, qubits=4)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[0, 0] = 1.0
    times = np.linspace(0, 1, 5)
    report = decay_bound_check(model, rho0, times)
    gap = spectral_gap(model.channel)
    assert report.kappa == gap.kappa
    assert report.error_bound == gap.error_bound > 0
    kappa_top = min(1.0, gap.kappa + gap.error_bound)
    a0 = frobenius(rho0 - np.eye(16) / 16)
    assert np.array_equal(report.bounds, np.exp(-model.rate * (1.0 - kappa_top) * times) * a0)
    _fake_gap(monkeypatch, gap.kappa)
    bare = decay_bound_check(model, rho0, times)
    assert bare.error_bound == 0.0
    assert np.all(bare.bounds[1:] < report.bounds[1:])


def test_decay_bound_identity_model_is_trivial():
    model = ThermalModel((I,), r0=1.0, r1=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    report = decay_bound_check(model, rho0, np.linspace(0, 2, 9))
    assert report.kappa == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(report.residuals - report.residuals[0])) < 1e-10


def test_decay_bound_strict_raises_on_fake_kappa(monkeypatch):
    model = pauli_model()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _fake_gap(monkeypatch, -1.0)
    with pytest.raises(ValueError, match="violated"):
        decay_bound_check(model, rho0, [0.5, 1.0])
    report = decay_bound_check(model, rho0, [0.5, 1.0], strict=False)
    assert not report.satisfied


def test_evolve_input_validation():
    model = pauli_model()
    with pytest.raises(ValueError, match="trace"):
        evolve(model, np.eye(2), [0.0])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(model, np.array([[1, 1], [0, 0]], dtype=complex), [0.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve(model, np.diag([1.5, -0.5]).astype(complex), [0.0])
    with pytest.raises(ValueError, match="non-finite"):
        evolve(model, np.diag([np.nan, 1.0]).astype(complex), [0.0])
    with pytest.raises(ValueError, match="overflows"):
        evolve(ThermalModel((I,), r0=1e300, r1=1e300), np.eye(2) / 2, [0.0, 1e10])
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(model, np.diag([1.0, 0.0]).astype(complex), [-1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        evolve(model, np.diag([1.0, 0.0]).astype(complex), [1.0, 0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_times_rejected(bad):
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    for run in (evolve, decay_bound_check):
        with pytest.raises(ValueError, match="times must be finite"):
            run(pauli_model(), rho0, [0.0, bad, 3.0])


def test_states_are_exactly_hermitian_with_unit_trace():
    # The series runs in real coordinates and makes the states complex once,
    # so every state is Hermitian bit for bit, also from a start state that
    # is Hermitian only within the 1e-9 evolve accepts.
    model = random_open_model(20, qubits=3)
    rho0 = random_density(8, rng_from(21))
    skew = random_operator(8, rng_from(22))
    for start in (rho0, rho0 + 1e-11 * (skew - skew.conj().T)):
        traj = evolve(model, start, np.linspace(0, 4.0, 9) / model.rate)
        for state in traj.states:
            assert np.array_equal(state, state.conj().T)
            assert abs(np.trace(state) - 1.0) < 1e-12
        hermitian = (start + start.conj().T) / 2
        err = max(frobenius(a - b) for a, b in zip(traj.states, dense_propagator(model, hermitian, traj.times)))
        assert err < 1e-10


def _benchmark_model(seed=0):
    """A 4-qubit D = 4 Haar model at R0 = 1, R1 = 0.5, the benchmark's shape."""
    rng = rng_from(61, seed)
    return ThermalModel(tuple(haar_unitary(16, rng) for _ in range(4)), r0=1.0, r1=0.5)


def _pure_zero(dim):
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    return rho0


def test_decay_check_builds_no_complex_state(monkeypatch):
    model = _benchmark_model()
    rho0 = _pure_zero(16)
    times = np.linspace(0.0, 18.0 / model.rate, 40)
    want = evolve(model, rho0, times).residuals

    def forbidden(*args, **kwargs):
        raise AssertionError("decay_bound_check made the states complex")

    monkeypatch.setattr(thermalization, "evolve", forbidden)
    monkeypatch.setattr(thermalization, "hermitian_from_real", forbidden)
    report = decay_bound_check(model, rho0, times)
    assert report.residuals.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma_t", [0.0, 18.0, 300.0])
def test_residuals_match_the_complex_norm(corpus, gamma_t):
    # The row sums of squares in real coordinates against ||rho(t) - I/N||_F
    # of the complex states: equal up to the order of the additions.
    for model in _series_models(corpus):
        rho0 = _pure_zero(model.dim)
        times = np.linspace(0.0, gamma_t / model.rate, 70)
        states = series_oracle(model, rho0, times)[0]
        exact = np.linalg.norm(states - np.eye(model.dim) / model.dim, axis=(1, 2))
        residuals = evolve(model, rho0, times).residuals
        assert np.all(np.abs(residuals - exact) <= 2e-15 * exact)
        assert decay_bound_check(model, rho0, times, strict=False).residuals.tobytes() == residuals.tobytes()


def test_decay_check_peak_memory_is_the_sums_and_one_temporary():
    # J = 4000 times on a 4-qubit model: the real sums take 8 J N^2 bytes,
    # and the check holds them plus one temporary of their size.  Making
    # the states complex took 6 times the sums.
    model = _benchmark_model()
    rho0 = _pure_zero(16)
    times = np.linspace(0.0, 3.0, 4000)
    decay_bound_check(model, rho0, times[:40])  # caches and imports outside the trace
    tracemalloc.start()
    try:
        decay_bound_check(model, rho0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(times) * 16 * 16


def test_series_refuses_inputs_over_the_memory_budget(monkeypatch):
    # The budget is lowered, not the input grown: nothing large is allocated,
    # and the series raises before its first channel application.
    model = random_open_model(23)
    rho0 = random_density(4, rng_from(24))
    times = np.linspace(0.0, 2.0, 40)
    need = 8 * (2 * 40 * 16 + 32 * 16 + 40 * 32)  # sums, GEMM temporary, block of powers, weights
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need))
    decay_bound_check(model, rho0, times)  # exactly at the budget
    assert calls
    calls.clear()
    # evolve also counts the 16 J N^2 bytes of its complex states
    message = rf"needs {(need + 16 * 40 * 16) / 2**30:.3g} GiB, over the memory budget of {need / 2**30:.3g} GiB"
    with pytest.raises(ValueError, match=message):
        evolve(model, rho0, times)
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need - 1))
    with pytest.raises(ValueError, match="over the memory budget"):
        decay_bound_check(model, rho0, times)
    assert not calls
