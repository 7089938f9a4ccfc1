import dataclasses
import functools
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from qexpander import spectral
from qexpander.channels import Channel, channel_power, complete_depolarizer, random_unitary_channel
from qexpander.circuits import RegisterLayout
from qexpander.fileio import load_instance, load_reduction_spec
from qexpander.linalg import frobenius, haar_unitary, paulis, phi_state, rng_from, unvec, vec
from qexpander.reduction import (
    build_base_expander,
    build_reduction,
    make_reduction_spec,
    no_verifier,
    yes_verifier,
)
from qexpander.spectral import (
    Decision,
    GapReport,
    NonExpanderInstance,
    decide,
    spectral_gap,
    spectral_gap_iterative,
)
from qexpander.thermalization import ThermalModel

from oracles import (
    dense_kappa,
    dense_rounding,
    identity_channel,
    lanczos_oracle,
    random_traceless,
    superoperator,
    tensor,
)

I, X, Y, Z = paulis()


def test_build_w_identity():
    assert np.allclose(superoperator(identity_channel(1)), np.eye(4))


def test_build_w_iz_diagonal():
    # (I(x)I + Z(x)Z)/2 in the |i>|j> basis
    w = superoperator(Channel.uniform((I, Z)))
    assert np.allclose(w, np.diag([1, 0, 0, 1]))


def test_build_w_vectorizes_the_channel():
    rng = rng_from(0)
    ch = random_unitary_channel(2, 3, rng)
    w = superoperator(ch)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.linalg.norm(w @ vec(a) - vec(ch.apply(a))) < 1e-10


def test_build_w_fixes_phi_for_unital_channels():
    rng = rng_from(1)
    for ch in (random_unitary_channel(1, 3, rng), complete_depolarizer()):
        w = superoperator(ch)
        phi = phi_state(ch.dim)
        assert np.linalg.norm(w @ phi - phi) <= 1e-10


def test_dense_gap_examples():
    assert dense_kappa(complete_depolarizer()) < 1e-12
    assert abs(dense_kappa(identity_channel(2)) - 1.0) < 1e-12
    assert abs(dense_kappa(Channel.uniform((I, Z))) - 1.0) < 1e-12


def test_dense_witness_is_valid():
    rng = rng_from(2)
    ch = random_unitary_channel(2, 3, rng)
    rep = spectral_gap(ch)
    a = unvec(rep.witness)
    assert abs(np.trace(a)) <= 1e-9
    assert abs(np.linalg.norm(rep.witness) - 1) < 1e-12
    assert abs(frobenius(ch.apply(a)) - dense_kappa(ch)) <= 1e-9
    assert abs(np.vdot(phi_state(ch.dim), rep.witness)) <= 1e-9


def test_depolarizer_witness_degenerate_but_traceless():
    rep = spectral_gap(complete_depolarizer())
    assert abs(np.trace(unvec(rep.witness))) <= 1e-9
    assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12


def test_kappa_bounds_contraction_on_random_traceless():
    rng = rng_from(3)
    ch = random_unitary_channel(2, 4, rng)
    kappa = spectral_gap(ch).kappa
    for _ in range(1000):
        a = random_traceless(4, rng)
        assert frobenius(ch.apply(a)) <= (kappa + 1e-8) * frobenius(a)


def test_iterative_matches_dense():
    rng = rng_from(4)
    for i in range(8):
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        ri = spectral_gap_iterative(ch, tol=1e-9, seed=i)
        assert ri.converged
        assert abs(dense_kappa(ch) - ri.kappa) < 1e-8


def test_iterative_depolarizer():
    rep = spectral_gap_iterative(complete_depolarizer(), tol=1e-9, seed=0)
    assert rep.kappa <= 1e-8
    assert rep.converged


def test_iterative_deterministic_given_seed():
    ch = random_unitary_channel(2, 3, rng_from(5))
    r1 = spectral_gap_iterative(ch, tol=1e-10, seed=42)
    r2 = spectral_gap_iterative(ch, tol=1e-10, seed=42)
    assert r1.kappa == r2.kappa
    assert np.array_equal(r1.witness, r2.witness)


def test_iterative_reports_nonconvergence():
    ch = random_unitary_channel(2, 3, rng_from(6))
    rep = spectral_gap_iterative(ch, tol=1e-13, max_iter=12, seed=0)
    assert not rep.converged


def test_iterative_tol_validation():
    with pytest.raises(ValueError, match="tol"):
        spectral_gap_iterative(identity_channel(1), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_iterative_rejects_non_finite_tol(tol):
    ch = random_unitary_channel(3, 4, rng_from(8))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectral_gap(ch, method="iterative", tol=tol)


@pytest.mark.parametrize("max_iter", [0, -5, 2.5, True, np.int64(3), "3", None])
def test_iterative_rejects_a_max_iter_that_is_not_a_positive_int(monkeypatch, max_iter):
    # Refused before any application of M.
    ch = random_unitary_channel(3, 4, rng_from(8))
    calls = []
    monkeypatch.setattr(spectral, "_gram", lambda *args: calls.append(1))
    with pytest.raises(ValueError, match=r"^max_iter must be a positive int, got "):
        spectral_gap_iterative(ch, max_iter=max_iter)
    assert not calls


def test_power_composition_contraction():
    rng = rng_from(7)
    ch = random_unitary_channel(2, 3, rng)
    kappa = dense_kappa(ch)
    kappa_r = spectral_gap_iterative(channel_power(ch, 2), tol=1e-9, seed=1).kappa
    assert kappa_r <= kappa**2 + 1e-8


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the traceless Hermitian matrices."""
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / np.sqrt(2)
            basis.append(sym)
            antisym = np.zeros((dim, dim), dtype=complex)
            antisym[j, k] = -1j / np.sqrt(2)
            antisym[k, j] = 1j / np.sqrt(2)
            basis.append(antisym)
    for ell in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:ell] = 1.0
        diag[ell] = -float(ell)
        basis.append(np.diag(diag / np.sqrt(ell * (ell + 1))))
    return basis


def spectral_gap_hermitian(channel) -> float:
    """Oracle: kappa restricted to traceless *Hermitian* inputs.

    Maximizes ||Phi(A)||_F over the real-linear span of an orthonormal
    traceless Hermitian basis, via the top eigenvalue of the real Gram
    matrix G_kl = Re tr(Phi(B_k)^dag Phi(B_l)).  For Hermiticity-preserving
    channels this equals the unrestricted kappa.
    """
    images = np.array([channel.apply(b) for b in hermitian_basis(channel.dim)])
    flat = images.reshape(len(images), -1)
    gram = np.real(flat.conj() @ flat.T)
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)))


def test_hermitian_restriction_matches_unrestricted():
    rng = rng_from(8)
    for i in range(5):
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        full = dense_kappa(ch)
        herm = spectral_gap_hermitian(ch)
        assert abs(full - herm) < 1e-8


def test_instance_validation():
    ch = identity_channel(1)
    with pytest.raises(ValueError, match="beta < alpha"):
        NonExpanderInstance(ch, 0.5, 0.9)
    inst = NonExpanderInstance(ch, 0.9, 0.5)
    assert abs(inst.separation - 0.4) < 1e-15


def test_decide_yes_no_promise():
    yes, _ = decide(NonExpanderInstance(Channel.uniform((I, Z)), 0.9, 0.5))
    assert yes is Decision.YES
    no, _ = decide(NonExpanderInstance(complete_depolarizer(), 0.9, 0.5))
    assert no is Decision.NO
    # kappa = 1 at alpha = 1 is a boundary: the promise is broken, not arbitrated
    tie, rep = decide(NonExpanderInstance(identity_channel(1), 1.0, 0.5))
    assert tie is Decision.PROMISE_VIOLATED
    assert abs(rep.kappa - 1.0) < 1e-12


def _thermal_channel(qubits, r0, r1, rng):
    unitaries = tuple(haar_unitary(2**qubits, rng) for _ in range(3))
    return ThermalModel(unitaries, r0, r1).channel


ENGINE_NAMES = ("thermal-1q", "thermal-2q", "thermal-4q", "staged-3", "N=2", "N=4", "N=16", "N=16-lazy")


@functools.cache
def _engine_channels() -> dict:
    """name -> channel for ENGINE_NAMES, all drawn in this order from one
    stream; built on first use, so a kernel defect fails the tests that use
    them instead of the collection of this file."""
    rng = rng_from(31)
    built = [
        _thermal_channel(1, 1.0, 0.5, rng),
        _thermal_channel(2, 2.0, 0.3, rng),
        _thermal_channel(4, 1.0, 0.5, rng),
        Channel.staged([random_unitary_channel(2, d, rng) for d in (2, 3, 2)]),
        random_unitary_channel(1, 3, rng),
        random_unitary_channel(2, 4, rng),
        random_unitary_channel(4, 8, rng),
        channel_power(random_unitary_channel(4, 3, rng), 2),
    ]
    return dict(zip(ENGINE_NAMES, built, strict=True))


def _check_engine_against_dense(ch):
    dense = dense_kappa(ch)
    lanczos = spectral_gap_iterative(ch, tol=1e-9, seed=5)
    assert lanczos.converged
    assert abs(lanczos.kappa - dense) < 1e-10
    assert abs(lanczos.kappa - dense) <= lanczos.error_bound + dense_rounding(ch)
    assert 0.0 < lanczos.error_bound < 1e-7
    assert lanczos.residual <= 1e-9 * 2.0 * lanczos.kappa
    assert lanczos.matvecs >= 1 and lanczos.iterations >= 1
    a = unvec(lanczos.witness)
    assert abs(np.trace(a)) < 1e-12
    assert abs(np.linalg.norm(lanczos.witness) - 1.0) < 1e-12
    assert abs(frobenius(ch.apply(a)) - lanczos.kappa) < 1e-10


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_lanczos_matches_dense(name):
    _check_engine_against_dense(_engine_channels()[name])


def _small_reduction(verifier):
    layout = RegisterLayout(1, 1)
    base, kappa_f = build_base_expander(layout.verifier_qubits, seed=3)
    spec = make_reduction_spec(verifier(layout), layout, 1.0, 0.0, base, kappa_f)
    return build_reduction(spec)


ORACLE_CASES = {
    **{
        f"corpus-{name}": lambda corpus, name=name: load_instance(corpus / "instances" / f"{name}.json").channel
        for name in ("depolarizer_1q", "hadamard_pair_1q", "identity_1q", "identity_z_1q")
    },
    "depolarizer-signed": lambda _: complete_depolarizer(),
    "depolarizer-unsigned": lambda _: Channel(paulis(), np.full(4, 0.25)),
    "identity-1q": lambda _: identity_channel(1),
    "identity-3q": lambda _: identity_channel(3),
    "IZ": lambda _: Channel.uniform((I, Z)),
    **{f"D=8-{q}q": lambda _, q=q: random_unitary_channel(q, 8, rng_from(37, q)) for q in (1, 2, 3)},
    "thermal-1q-weighted": lambda _: _thermal_channel(1, 0.8, 0.2, rng_from(38)),
    "reduction-1w1a-no": lambda _: _small_reduction(no_verifier),
    "reduction-1w1a-yes": lambda _: _small_reduction(yes_verifier),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_engine_matches_dense_oracle_where_dense_used_to_run(corpus, name):
    """The sizes the dense route served (N <= 8): the one engine agrees with
    the SVD oracle within 1e-10 and within its own error bar."""
    ch = ORACLE_CASES[name](corpus)
    assert ch.dim <= 8
    dense = dense_kappa(ch)
    rep = spectral_gap(ch)
    assert rep.converged
    assert abs(rep.kappa - dense) < 1e-10
    assert abs(rep.kappa - dense) <= rep.error_bound + dense_rounding(ch)
    a = unvec(rep.witness)
    assert abs(np.trace(a)) < 1e-12
    assert abs(frobenius(ch.apply(a)) - dense) < 1e-10


@pytest.mark.parametrize("method", ["dense", "auto"])
def test_spectral_gap_has_one_route(method):
    ch = Channel.uniform((I, Z))
    with pytest.raises(ValueError, match="only gap route"):
        spectral_gap(ch, method=method)
    with pytest.raises(ValueError, match="only gap route"):
        decide(NonExpanderInstance(ch, 0.9, 0.5), method=method)
    assert spectral_gap(ch, method="iterative").kappa == spectral_gap(ch).kappa


@pytest.mark.slow
def test_lanczos_matches_dense_on_clustered_reduction_channel(corpus):
    """The NO-case reduction channel's top singular values cluster near 1/sqrt(2)."""
    ch = build_reduction(load_reduction_spec(corpus / "reductions" / "no_2w2a.json"))
    # ancilla verifier, the witness verifier folded into one controlled
    # depolarizer (no_verifier is a permutation), six base-expander stages
    assert ch.dim == 32 and len(ch.stages) == 8
    _check_engine_against_dense(ch)


def test_lanczos_depolarizer_and_identity():
    two_qubit_depolarizer = tensor(complete_depolarizer(), complete_depolarizer())
    # The same channel from rotated Kraus operators, whose action on a
    # traceless start is zero only up to rounding.
    v = haar_unitary(4, rng_from(36))
    rotated = Channel.uniform([v @ u @ v.conj().T for u in two_qubit_depolarizer.kraus])
    for ch in (complete_depolarizer(), two_qubit_depolarizer, rotated):
        rep = spectral_gap_iterative(ch, seed=2)
        assert rep.kappa == 0.0 and rep.converged and rep.matvecs == 1
        assert rep.error_bound < 1e-7
    for qubits in (1, 3):
        rep = spectral_gap_iterative(identity_channel(qubits), seed=2)
        assert abs(rep.kappa - 1.0) < 1e-12 and rep.converged
        assert rep.error_bound < 1e-12


def test_lanczos_invariant_krylov_space_converges():
    # (I + Z)/2: M has eigenvalues {1, 0, 0} on the traceless space, so the
    # Krylov space is invariant after two vectors whatever the tolerance.
    rep = spectral_gap_iterative(Channel.uniform((I, Z)), tol=1e-300, seed=1)
    assert rep.converged and rep.matvecs == 2
    assert abs(rep.kappa - 1.0) < 1e-12


def test_lanczos_restarts_stay_accurate(monkeypatch):
    ch = random_unitary_channel(4, 8, rng_from(32))
    dense = dense_kappa(ch)
    monkeypatch.setattr(spectral, "LANCZOS_BASIS", 8)
    monkeypatch.setattr(spectral, "LANCZOS_KEEP", 3)
    rep = spectral_gap_iterative(ch, tol=1e-10, seed=4)
    assert rep.converged and rep.iterations > 1
    assert abs(rep.kappa - dense) < 1e-10


def test_decide_unconverged_is_uncertified():
    ch = random_unitary_channel(2, 8, rng_from(34))
    inst = NonExpanderInstance(ch, 0.99, 0.95)
    decision, rep = decide(inst, max_iter=1)
    assert not rep.converged and rep.matvecs == 1
    assert decision is Decision.UNCERTIFIED
    decision, rep = decide(inst)
    assert rep.converged and decision is Decision.NO


def test_decide_promise_violated_needs_a_converged_bar_between_the_thresholds():
    # kappa = 0.63212 > alpha: early unconverged estimates fall between the
    # thresholds, but they certify nothing.
    ch = random_unitary_channel(3, 8, rng_from(34))
    inst = NonExpanderInstance(ch, 0.62212, 0.2)
    for max_iter in (1, 2, 3):
        decision, rep = decide(inst, max_iter=max_iter)
        assert not rep.converged and inst.beta < rep.kappa < inst.alpha
        assert decision is Decision.UNCERTIFIED, (max_iter, rep.kappa)
    assert decide(inst)[0] is Decision.YES
    # A converged solve at a loose tolerance: kappa - e and kappa + e lie
    # between 0.2 and 0.99, but alpha = 0.64 and beta = 0.62 each cut the bar.
    decision, rep = decide(NonExpanderInstance(ch, 0.99, 0.2), tol=1e-2)
    assert rep.converged and rep.error_bound > 0.01 and decision is Decision.PROMISE_VIOLATED
    for alpha, beta in ((0.64, 0.2), (0.99, 0.62)):
        decision, rep = decide(NonExpanderInstance(ch, alpha, beta), tol=1e-2)
        assert rep.converged and beta < rep.kappa < alpha
        assert decision is Decision.UNCERTIFIED, (alpha, beta)


def test_decide_threshold_within_error_bound_is_uncertified():
    ch = random_unitary_channel(2, 8, rng_from(35))
    kappa = dense_kappa(ch)
    decision, rep = decide(NonExpanderInstance(ch, 0.99, kappa))
    assert rep.converged and abs(rep.kappa - kappa) <= rep.error_bound
    assert decision is Decision.UNCERTIFIED
    decision, _ = decide(NonExpanderInstance(ch, 0.99, kappa + 1e-6))
    assert decision is Decision.NO


def test_iterative_solve_does_not_import_scipy_sparse():
    # Neither the Lanczos gap nor the thermalization path loads any scipy module.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import qexpander\n"
        "from qexpander.channels import random_unitary_channel\n"
        "from qexpander.linalg import haar_unitary, rng_from\n"
        "from qexpander.spectral import spectral_gap_iterative\n"
        "assert spectral_gap_iterative(random_unitary_channel(4, 3, rng_from(0))).converged\n"
        "rng = rng_from(1)\n"
        "model = qexpander.ThermalModel(tuple(haar_unitary(4, rng) for _ in range(2)), 1.0, 0.5)\n"
        "rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)\n"
        "qexpander.evolve(model, rho0, [0.0, 0.5])\n"
        "assert qexpander.decay_bound_check(model, rho0, [0.0, 0.5]).satisfied\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_spectral_gap_rejects_1x1_channel():
    with pytest.raises(ValueError, match="no traceless direction"):
        spectral_gap(Channel.uniform((np.eye(1),)))


def test_engine_keeps_the_imaginary_part():
    # (A + YAY)/2 fixes Y and kills X and Z.  Y is purely imaginary, so an
    # engine that dropped the antisymmetric coordinates would see kappa = 0.
    rep = spectral_gap_iterative(Channel.uniform((I, Y)), seed=3)
    assert rep.converged and abs(rep.kappa - 1.0) < 1e-12
    assert abs(abs(np.vdot(vec(Y), rep.witness)) - np.sqrt(2.0)) < 1e-12


def _weighted_flat(rng):
    weights = rng.random(5)
    return Channel(random_unitary_channel(3, 5, rng).kraus, weights / weights.sum())


def _controlled(rng):
    weights = rng.random(4)
    kraus = random_unitary_channel(1, 4, rng).kraus
    return Channel(kraus, weights / weights.sum(), qubits=3, targets=(1,), control=[1, 0, 1, 1])


REAL_ENGINE_CASES = {
    "flat, non-uniform weights": _weighted_flat,
    "two stages, non-normal": lambda rng: Channel.staged([random_unitary_channel(3, 2, rng), _weighted_flat(rng)]),
    "structured, controlled": _controlled,
}


@pytest.mark.parametrize("name", REAL_ENGINE_CASES)
def test_real_engine_matches_dense_oracle(name):
    ch = REAL_ENGINE_CASES[name](rng_from(48, sorted(REAL_ENGINE_CASES).index(name)))
    if name.startswith("two stages"):
        w = superoperator(ch)
        assert np.linalg.norm(w @ w.conj().T - w.conj().T @ w) > 1e-3
    rep = spectral_gap_iterative(ch, seed=6)
    assert rep.converged
    assert abs(rep.kappa - dense_kappa(ch)) < 1e-9
    a = unvec(rep.witness)
    assert np.max(np.abs(a - a.conj().T)) < 1e-12
    assert abs(np.trace(a)) < 1e-12
    assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12
    assert abs(frobenius(ch.apply(a)) - rep.kappa) <= rep.error_bound


def test_engine_applies_the_channel_twice_per_matvec(monkeypatch):
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    rng = rng_from(49)
    channels = [
        random_unitary_channel(3, 4, rng),
        channel_power(random_unitary_channel(2, 3, rng), 2),
        _controlled(rng),
        complete_depolarizer(),
    ]
    for ch in channels:
        calls.clear()
        rep = spectral_gap_iterative(ch, seed=7)
        assert rep.converged and rep.matvecs >= 1
        assert len(calls) == 2 * rep.matvecs


def _diagonal_phase_channel(rng):
    # commuting diagonal unitaries: kappa = 1 on the diagonal, < 1 elsewhere
    return ThermalModel(tuple(np.diag(np.exp(1j * p)) for p in rng.uniform(0, 2 * np.pi, (3, 8))), 0.4, 1.1).channel


# name -> (channel from an rng, solver options, Lanczos basis size or None)
RITZ_ORACLE_CASES = {
    "restarts": (lambda rng: random_unitary_channel(4, 8, rng), {"tol": 1e-10, "seed": 4}, 8),
    "tol 1e-12": (lambda rng: random_unitary_channel(3, 4, rng), {"tol": 1e-12}, None),
    "tiny kappa": (lambda rng: channel_power(random_unitary_channel(4, 8, rng), 12), {"seed": 2}, None),
    "kappa 1": (_diagonal_phase_channel, {"seed": 3}, None),
    "invariant Krylov space": (lambda rng: Channel.uniform((I, Z)), {"tol": 1e-300, "seed": 1}, None),
    "max_iter stop": (lambda rng: random_unitary_channel(3, 8, rng), {"tol": 1e-12, "max_iter": 5}, None),
    "weighted, two stages": (lambda rng: Channel.staged([_weighted_flat(rng), _controlled(rng)]), {"seed": 5}, None),
}


def float64_engine(ch, **options) -> GapReport:
    """spectral_gap_iterative with the two-precision rule off: the float64
    engine alone, from the random start."""
    with mock.patch.object(spectral, "SINGLE_MIN_DIM", math.inf):
        return spectral_gap_iterative(ch, **options)


def _check_against_per_step_oracle(ch, **options) -> tuple[GapReport, GapReport]:
    """The float64 engine's contract with the per-step Ritz oracle: the
    engine solves the Ritz matrix on a subset of the oracle's steps over
    the same Lanczos vectors, so it stops on the oracle's step or at most 3
    steps later.  On the same step every field but `ritz_solves` is bit
    identical; a later stop is converged and within its error bar of the
    dense oracle.  The oracle is float64 from the random start, so the
    engine runs with the two-precision rule off; the two-phase solve is
    checked against this engine below."""
    got, want = float64_engine(ch, **options), lanczos_oracle(ch, **options)
    assert want.matvecs <= got.matvecs <= want.matvecs + 3
    assert got.ritz_solves <= got.matvecs and want.ritz_solves == want.matvecs
    if got.matvecs == want.matvecs:
        for f in dataclasses.fields(GapReport):
            if f.name not in ("witness", "ritz_solves"):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.witness.tobytes() == want.witness.tobytes()
    else:
        assert got.converged
        assert abs(got.kappa - dense_kappa(ch)) <= got.error_bound + dense_rounding(ch)
    return got, want


def _bit_identical_to_per_step_oracle(ch, **options) -> None:
    got, want = _check_against_per_step_oracle(ch, **options)
    assert got.matvecs == want.matvecs


@pytest.mark.parametrize("name", RITZ_ORACLE_CASES)
def test_engine_equals_per_step_ritz_oracle_bit_for_bit(monkeypatch, name):
    """Bit for bit whenever the engine stops on the oracle's step (all but
    "restarts", which stops 2 steps later); see the contract above."""
    make, options, basis = RITZ_ORACLE_CASES[name]
    if basis is not None:
        monkeypatch.setattr(spectral, "LANCZOS_BASIS", basis)
        monkeypatch.setattr(spectral, "LANCZOS_KEEP", 3)
    ch = make(rng_from(50, sorted(RITZ_ORACLE_CASES).index(name)))
    got, _ = _check_against_per_step_oracle(ch, **options)
    if name == "restarts":
        assert got.iterations > 1
    if name == "max_iter stop":
        assert not got.converged and got.matvecs == 5


def test_engine_equals_per_step_ritz_oracle_on_corpus_instances(corpus):
    for path in sorted((corpus / "instances").glob("*.json")):
        ch = load_instance(path).channel
        for tol in (1e-6, 1e-9, 1e-12):
            got, want = spectral_gap_iterative(ch, tol=tol), lanczos_oracle(ch, tol=tol)
            assert (got.kappa, got.residual, got.error_bound, got.matvecs, got.converged) == (
                want.kappa, want.residual, want.error_bound, want.matvecs, want.converged
            ), path.name
            assert got.witness.tobytes() == want.witness.tobytes()


def _block_diagonal_unitary(dim, rng):
    u = np.zeros((dim, dim), dtype=complex)
    u[: dim // 2, : dim // 2] = haar_unitary(dim // 2, rng)
    u[dim // 2 :, dim // 2 :] = haar_unitary(dim // 2, rng)
    return u


def _thermal_4q(rng):
    return ThermalModel(tuple(haar_unitary(16, rng) for _ in range(4)), 1.0, 0.5).channel


def _flat_5q(seed):
    return random_unitary_channel(5, 8, rng_from(53, seed))


# The shapes the benchmark solves: 4-qubit D = 4 thermal models, 4-qubit
# D = 32 Haar (NO) and block-diagonal (YES, kappa = 1) channels, 5-qubit
# D = 8 flat channels and their lazy squares.
BENCHMARK_SHAPED = {
    **{f"thermal-4q-{k}": lambda k=k: _thermal_4q(rng_from(52, k)) for k in range(8)},
    "D=32 NO": lambda: random_unitary_channel(4, 32, rng_from(54)),
    "D=32 YES": lambda: Channel.uniform([_block_diagonal_unitary(16, rng_from(55)) for _ in range(32)]),
    **{f"flat-5q-{k}": lambda k=k: _flat_5q(k) for k in range(2)},
    **{f"flat-5q-{k} squared": lambda k=k: channel_power(_flat_5q(k), 2) for k in range(2)},
}


@pytest.mark.parametrize("name", BENCHMARK_SHAPED)
def test_engine_equals_per_step_ritz_oracle_on_benchmark_shapes(name):
    _bit_identical_to_per_step_oracle(BENCHMARK_SHAPED[name]())


@pytest.mark.parametrize("key", ["no_2w2a", "yes_2w2a"])
def test_engine_equals_per_step_ritz_oracle_on_corpus_reductions(corpus, key):
    spec = load_reduction_spec(corpus / "reductions" / f"{key}.json")
    for ch in (build_reduction(spec), spec.base_expander, spec.base_expander.stages[0]):
        _bit_identical_to_per_step_oracle(ch)
    # The step schedule's lookahead cap.  Without it the NO solve takes 24
    # matvecs and the YES solve 11.  A RITZ_LOOKAHEAD of 5, 6 or 8 would
    # still stop the NO solve at 17 but the YES solve at 7, 8 or 10: its
    # first passing step falls between two checks.  So the cap stays 4.
    want = {"no_2w2a": 17, "yes_2w2a": 6}[key]
    assert spectral_gap_iterative(build_reduction(spec)).matvecs == want


def test_engine_keeps_the_per_step_oracle_contract_on_a_seeded_sweep():
    for i in range(60):
        ch = random_unitary_channel(2 + i % 4, (2, 4, 8, 16)[i // 4 % 4], rng_from(51, i))
        if i % 5 == 4:
            ch = channel_power(ch, 2)
        _check_against_per_step_oracle(ch, tol=(1e-6, 1e-9, 1e-12)[i % 3])


def test_ritz_solves_skip_steps_that_cannot_stop():
    rep = spectral_gap_iterative(random_unitary_channel(4, 8, rng_from(32)))
    assert rep.converged and rep.matvecs > 20
    assert 1 <= rep.ritz_solves <= 0.45 * rep.matvecs


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_kappa_matches_complex_oracle_lanczos(corpus, name):
    """The engine's real-coordinate kernel against the same Lanczos run on
    the complex lifted-Kraus oracle: kappa agrees within 1e-12."""
    ch = ORACLE_CASES[name](corpus)
    got, want = spectral_gap_iterative(ch), lanczos_oracle(ch, kraus_sum=True)
    assert got.converged and want.converged
    assert abs(got.kappa - want.kappa) <= 1e-12


def test_gap_refuses_inputs_over_the_memory_budget(monkeypatch):
    # The budget is lowered, not the input grown: the solve raises before it
    # allocates its basis and before its first channel application.
    from qexpander import linalg

    ch = random_unitary_channel(3, 4, rng_from(120))
    # Basis and images, 24 vectors of 8^2 coordinates each, then the float64
    # adjoint: its conjugated Kraus record, 4 operators of 8^2 complex
    # entries, and its GEMM operands, 6 D N^2 float64 entries.
    need = 2 * spectral.LANCZOS_BASIS * 64 * 8 + 16 * 4 * 64 + 6 * 4 * 64 * 8
    calls = []
    apply_real = Channel.apply_real

    def counting_apply_real(self, x):
        calls.append(1)
        return apply_real(self, x)

    monkeypatch.setattr(Channel, "apply_real", counting_apply_real)
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need))
    assert spectral_gap(ch).converged and calls  # exactly at the budget
    calls.clear()
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need - 1))
    message = (
        r"^the Lanczos basis and its images, 24 vectors each on 8 x 8 operators, the float64 adjoint needs "
        rf"{need} bytes, over the memory budget of {need - 1} bytes$"
    )
    with pytest.raises(ValueError, match=message):
        spectral_gap(ch)
    assert not calls


def test_gap_counts_the_lifts_of_stages_with_live_cross_terms(monkeypatch):
    # An unsigned 2-qubit D = 2 Haar stage on targets (2, 0) of 3 qubits,
    # controlled by qubit 1 being 1, has live cross terms: it applies as the
    # flat stage of its lifted elements, and its adjoint lifts them again,
    # 16 D 4^3 bytes for a moment.  The solve builds that adjoint before its
    # basis and counts the lift, so a budget that covers all but the lift
    # refuses before any basis is allocated.
    from qexpander import linalg

    ch = Channel(random_unitary_channel(2, 2, rng_from(121)).kraus, [0.5, 0.5], qubits=3, targets=(2, 0),
                 control=[0, 1])
    assert ch._layout is None
    basis = (2, spectral.LANCZOS_BASIS, 64)
    # Basis and images, the adjoint's Kraus record (D 4^2 complex entries)
    # and GEMM operands (6 D 8^2 float64 entries), then the lift.
    need = 2 * spectral.LANCZOS_BASIS * 64 * 8 + 16 * 2 * 16 + 6 * 2 * 64 * 8
    lift = 16 * 2 * 64
    shapes = []
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *args, **kwargs: shapes.append(shape) or empty(shape, *args, **kwargs))
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need + lift))
    assert spectral_gap(ch).converged and basis in shapes
    shapes.clear()
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need))
    with pytest.raises(ValueError, match=r"^the Lanczos basis .* the float64 adjoint with its lifts needs "):
        spectral_gap(ch)
    assert basis not in shapes


# -- two precisions -----------------------------------------------------------


def _phases(monkeypatch) -> list[tuple[str, tuple]]:
    """Record each phase of a solve, in order: a run of the Lanczos engine
    as (its dtype name, its return tuple (theta, y, resid, converged,
    cycles, matvecs, solves, ritz)), and the refinement as ("refine", its return
    tuple (theta, y, resid, converged, steps, matvecs))."""
    runs = []
    engine, refine = spectral._lanczos, spectral._refine

    def recording(gram, start, basis, images, tol, max_iter):
        out = engine(gram, start, basis, images, tol, max_iter)
        runs.append((basis.dtype.name, out))
        return out

    def refining(*args):
        out = refine(*args)
        runs.append(("refine", out))
        return out

    monkeypatch.setattr(spectral, "_lanczos", recording)
    monkeypatch.setattr(spectral, "_refine", refining)
    return runs


def _counted(runs) -> tuple[int, int, int]:
    """(iterations, matvecs, ritz_solves) summed over the recorded phases:
    restart cycles and refinement steps, applications of M in either
    precision, and the engines' Ritz solves."""
    total = [0, 0, 0]
    for kind, out in runs:
        counts = (out[4], out[5], 0) if kind == "refine" else out[4:7]
        total = [a + b for a, b in zip(total, counts)]
    return tuple(total)


def _haar(qubits, degree, power):
    ch = random_unitary_channel(qubits, degree, rng_from(56, qubits, degree))
    return ch if power == 1 else channel_power(ch, power)


def _thermal_5q():
    return ThermalModel(tuple(haar_unitary(32, rng_from(57, d)) for d in range(4)), 1.0, 0.4).channel


# Flat channels on N >= 32 whose stages are all on the GEMM pair.
TWO_PHASE_CASES = {
    **{
        f"{q}q D={d} power {r}": functools.partial(_haar, q, d, r)
        for q in (5, 6)
        for d in (1, 2, 8, 64)
        for r in (1, 2, 6)
    },
    "5q weighted thermal": _thermal_5q,
}


def _true_residual(ch, rep: GapReport) -> float:
    """||M A - kappa^2 A||_F for the witness A, in float64 complex arithmetic."""
    a = unvec(rep.witness)
    return frobenius(ch.adjoint().apply(ch.apply(a)) - rep.kappa**2 * a)


# Where the refinement hands over to the float64 engine, with its steps
# before the hand-over.  Before any correction solve, theta being within
# REFINE_GAP float64 residuals of phase 1's first Ritz value outside the
# deflation pairs: kappa ~ 1.6e-5, where phase 1's stop rule (on kappa, not
# theta) leaves theta a few percent below the top eigenvalue, and phase 1
# has only four or five Ritz values, all within 10 residuals of theta.
# After three steps whose correction solves took all REFINE_MATVECS
# applications of M, the last of which did not halve the float64 residual:
# a top eigenvalue of multiplicity N - 1 (D = 2, kappa = 1), which no
# correction solve separates from its cluster.  At 5 qubits the same
# cluster converges in the refinement, after three such steps.
HANDOVER_CASES = {"5q D=64 power 6": 0, "6q D=64 power 6": 0, "6q D=2 power 1": 3}
# Upper bounds on the matvecs of the kappa = 1 clusters: 306 float32 and 4
# float64 applications of M at 5 qubits, and 288 and 558 at 6.
CLUSTER_MATVECS = {"5q D=2 power 1": 310, "6q D=2 power 1": 846}


@pytest.mark.parametrize("name", TWO_PHASE_CASES)
def test_two_phase_solve_matches_the_float64_engine(monkeypatch, name):
    ch = TWO_PHASE_CASES[name]()
    want = float64_engine(ch)
    runs = _phases(monkeypatch)
    got = spectral_gap_iterative(ch)
    handover = name in HANDOVER_CASES
    assert [kind for kind, _ in runs] == ["float32", "refine"] + ["float64"] * handover
    assert got.converged and want.converged
    assert abs(got.kappa - want.kappa) <= max(1e-12, got.error_bound + want.error_bound)
    target = 1e-9 * max(2.0 * got.kappa, 1e-9)
    assert _true_residual(ch, got) <= target
    assert got.residual == runs[-1][1][2] <= target
    # The refinement converged, or handed over where HANDOVER_CASES says.
    refined = runs[1][1]
    assert refined[3] != handover
    if handover:
        steps = HANDOVER_CASES[name]
        assert refined[4:] == (steps, 1 + steps * (spectral.REFINE_MATVECS + 1))
    # Every phase is counted.
    assert (got.iterations, got.matvecs, got.ritz_solves) == _counted(runs)
    if name in CLUSTER_MATVECS:
        assert got.matvecs <= CLUSTER_MATVECS[name]


def test_two_phase_solve_is_deterministic():
    ch = _haar(5, 8, 2)
    first, second = spectral_gap_iterative(ch, seed=3), spectral_gap_iterative(ch, seed=3)
    for f in dataclasses.fields(GapReport):
        if f.name != "witness":
            assert getattr(first, f.name) == getattr(second, f.name), f.name
    assert first.witness.tobytes() == second.witness.tobytes()


def test_max_iter_stops_two_phase_solve_inside_phase_one(monkeypatch):
    runs = _phases(monkeypatch)
    rep = spectral_gap_iterative(_haar(5, 8, 1), max_iter=5)
    assert not rep.converged and rep.matvecs == 5
    # Phase 1 ran out of its budget, one application of M short of max_iter,
    # and the refinement reports from its one float64 application.
    assert [kind for kind, _ in runs] == ["float32", "refine"]
    (_, single), (_, refined) = runs
    assert single[5] == 4 and not single[3]
    assert refined[4:] == (0, 1) and rep.residual == refined[2]


@pytest.mark.parametrize("level", [1e-3, 1e-2, 3e-2])
def test_phase_one_stops_at_its_rounding_floor(monkeypatch, level):
    # Noise of relative size `level` on every float32 application of Phi
    # keeps phase 1 from its target.  At 1e-3 its top residual reads 8.8e-4
    # at the first restart and 7.7e-5, the noise floor, at the second, within
    # STALL_FLOOR N theta (1.1e-4), so the stall rule ends it one cycle
    # later, at the third; without the rule it would run to max_iter.  At
    # 1e-2 and 3e-2 the floor lies above STALL_FLOOR N theta, and two
    # restarts in a row whose residual did not fall end phase 1 instead.
    # The float64 residuals of the refinement see no noise.
    noise = rng_from(58)
    apply_real = Channel.apply_real

    def noisy(channel, x):
        out = apply_real(channel, x)
        if out.dtype != np.float32:
            return out
        return out + level * np.linalg.norm(out) / out.shape[0] * noise.standard_normal(out.shape).astype(out.dtype)

    ch = _haar(5, 8, 1)
    want = float64_engine(ch)
    monkeypatch.setattr(Channel, "apply_real", noisy)
    runs = _phases(monkeypatch)
    got = spectral_gap_iterative(ch)
    (_, single), *_ = runs
    first_restart = spectral.LANCZOS_BASIS
    cycle = spectral.LANCZOS_BASIS - spectral.LANCZOS_KEEP
    assert not single[3] and single[4] <= 5
    if level == 1e-3:
        assert single[4] == 4 and single[5] == first_restart + 2 * cycle
        assert 5e-5 < single[2] < 1e-4
    assert got.converged and abs(got.kappa - want.kappa) <= got.error_bound + want.error_bound


@pytest.mark.slow
def test_phase_one_runs_on_where_it_converges_slowly(monkeypatch):
    # At 7 qubits phase 1's residual falls slowly but steadily, far above
    # STALL_FLOOR N theta.  A rule that stopped phase 1 at its first restart
    # without progress would hand over after 42 float32 applications of M,
    # and the float64 engine would take 145 more.
    ch = _haar(7, 8, 1)
    want = float64_engine(ch)
    runs = _phases(monkeypatch)
    got = spectral_gap_iterative(ch)
    assert [kind for kind, _ in runs] == ["float32", "refine"]
    assert got.converged and abs(got.kappa - want.kappa) <= got.error_bound + want.error_bound


# Upper bounds on the matvecs of two-precision solves with deflated
# correction solves: the benchmark's shapes (78, 62, 88 and 57 matvecs
# with undeflated ones), and a sixth power whose theta ~ 6e-5, where the
# projection off y shows.
DEFLATION_BOUNDS = {
    **{name: (BENCHMARK_SHAPED[name], bound) for name, bound in (
        ("flat-5q-0", 69), ("flat-5q-0 squared", 53), ("flat-5q-1", 81), ("flat-5q-1 squared", 51)
    )},
    "6q D=8 power 6": (TWO_PHASE_CASES["6q D=8 power 6"], 36),
}


def _deflation_matvecs(monkeypatch) -> dict[str, int]:
    counts, runs = {}, _phases(monkeypatch)
    for name, (make, _) in DEFLATION_BOUNDS.items():
        runs.clear()
        rep = spectral_gap_iterative(make())
        assert (rep.iterations, rep.matvecs, rep.ritz_solves) == _counted(runs)
        counts[name] = rep.matvecs
    return counts


def test_deflated_correction_solves_keep_their_matvecs(monkeypatch):
    counts = _deflation_matvecs(monkeypatch)
    assert all(counts[name] <= bound for name, (_, bound) in DEFLATION_BOUNDS.items()), counts


# (Z, M Z) -> Z with its images dropped (A Z = theta Z); y -> 0 drops every
# projection off y.
DEFLATION_MUTANTS = {
    "images dropped": lambda g, theta, y, b, low, pairs, most: (g, theta, y, b, low, (pairs[0], 0 * pairs[1]), most),
    "no projection off y": lambda g, theta, y, b, low, pairs, most: (g, theta, 0 * y, b, low, pairs, most),
}


@pytest.mark.parametrize("mutant", DEFLATION_MUTANTS)
def test_deflation_mutants_exceed_the_bounds(monkeypatch, mutant):
    correct, mutate = spectral._correct, DEFLATION_MUTANTS[mutant]
    monkeypatch.setattr(spectral, "_correct", lambda *args: correct(*mutate(*args)))
    counts = _deflation_matvecs(monkeypatch)
    assert any(counts[name] > bound for name, (_, bound) in DEFLATION_BOUNDS.items()), counts


def test_corrupted_correction_hands_over_to_the_float64_engine(monkeypatch):
    # A float32 correction replaced by noise does not halve the float64
    # residual, so the first step hands over, and the float64 engine from
    # the current y still converges to the float64-only engine's kappa.
    noise = rng_from(61)
    correct = spectral._correct

    def corrupted(*args):
        t, used = correct(*args)
        t[...] = noise.standard_normal(t.shape)
        return t, used

    ch = _haar(5, 8, 1)
    want = float64_engine(ch)
    monkeypatch.setattr(spectral, "_correct", corrupted)
    runs = _phases(monkeypatch)
    got = spectral_gap_iterative(ch)
    assert [kind for kind, _ in runs] == ["float32", "refine", "float64"]
    (_, single), (_, refined), (_, double) = runs
    assert refined[4] == 1 and not refined[3]
    assert got.converged and abs(got.kappa - want.kappa) <= max(1e-12, got.error_bound + want.error_bound)
    target = 1e-9 * max(2.0 * got.kappa, 1e-9)
    assert _true_residual(ch, got) <= target
    assert got.residual == double[2]
    assert (got.iterations, got.matvecs, got.ritz_solves) == _counted(runs)


TWO_PHASE_RULE_CASES = {
    "4-qubit flat": lambda: _haar(4, 8, 2),
    "structured": lambda: Channel(
        random_unitary_channel(2, 8, rng_from(59)).kraus, np.full(8, 1 / 8), qubits=5, targets=(1, 3)
    ),
    "controlled": lambda: Channel(
        random_unitary_channel(4, 2, rng_from(60)).kraus, np.full(2, 1 / 2), qubits=5, targets=(0, 1, 2, 3),
        control=[0, 1], signed=True,
    ),
    "monomial": lambda: Channel.uniform(
        tuple(functools.reduce(np.kron, string) for string in ((X, I, Z, I, Y), (Z, Z, I, X, I), (I, Y, X, Z, Z)))
    ),
    "flat then structured": lambda: Channel.staged([_haar(5, 8, 1), TWO_PHASE_RULE_CASES["structured"]()]),
}


@pytest.mark.parametrize("name", TWO_PHASE_RULE_CASES)
def test_two_phase_rule_leaves_other_channels_on_float64(monkeypatch, name):
    ch = TWO_PHASE_RULE_CASES[name]()
    runs = _phases(monkeypatch)
    rep = spectral_gap_iterative(ch)
    assert [dtype for dtype, _ in runs] == ["float64"]
    assert rep.matvecs == runs[0][1][5]


def test_two_phase_memory_check_counts_the_float32_operands(monkeypatch):
    from qexpander import linalg

    ch = _haar(5, 8, 2)  # one distinct stage, shared by both factors
    size, n = spectral.LANCZOS_BASIS, 32 * 32
    # The basis and images, then 6 D N^2 float32 entries of GEMM operands for the
    # stage and its adjoint, and for the float64 adjoint 6 D N^2 float64 ones
    # and its conjugated Kraus record, D N^2 complex entries.
    need = 2 * size * n * 8 + 2 * 6 * 8 * n * 4 + 6 * 8 * n * 8 + 16 * 8 * n
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need))
    assert spectral_gap(ch).converged
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need - 1))
    with pytest.raises(ValueError, match="and the float32 GEMM operands needs"):
        spectral_gap(ch)
