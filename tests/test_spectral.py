import numpy as np
import pytest

from qexpander.channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    identity_channel,
    random_unitary_channel,
)
from qexpander.linalg import frobenius, paulis, phi_state, random_traceless, rng_from, unvec, vec
from qexpander.spectral import (
    Decision,
    NonExpanderInstance,
    build_w,
    decide,
    spectral_gap_dense,
    spectral_gap_hermitian,
    spectral_gap_iterative,
)

I, X, Y, Z = paulis()


def test_build_w_identity():
    assert np.allclose(build_w(identity_channel(1)), np.eye(4))


def test_build_w_iz_diagonal():
    # (I(x)I + Z(x)Z)/2 in the |i>|j> basis
    w = build_w(Channel.uniform((I, Z)))
    assert np.allclose(w, np.diag([1, 0, 0, 1]))


def test_build_w_vectorizes_the_channel():
    rng = rng_from(0)
    ch = random_unitary_channel(2, 3, rng)
    w = build_w(ch)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.linalg.norm(w @ vec(a) - vec(ch.apply(a))) < 1e-10


def test_build_w_fixes_phi_for_unital_channels():
    rng = rng_from(1)
    for ch in (random_unitary_channel(1, 3, rng), complete_depolarizer()):
        w = build_w(ch)
        phi = phi_state(ch.dim)
        assert np.linalg.norm(w @ phi - phi) <= 1e-10


def test_build_w_cap():
    with pytest.raises(ValueError, match="cap"):
        build_w(identity_channel(2), cap=8)


def test_dense_gap_examples():
    assert spectral_gap_dense(complete_depolarizer()).kappa < 1e-12
    assert abs(spectral_gap_dense(identity_channel(2)).kappa - 1.0) < 1e-12
    assert abs(spectral_gap_dense(Channel.uniform((I, Z))).kappa - 1.0) < 1e-12


def test_dense_witness_is_valid():
    rng = rng_from(2)
    ch = random_unitary_channel(2, 3, rng)
    rep = spectral_gap_dense(ch)
    a = unvec(rep.witness)
    assert abs(np.trace(a)) <= 1e-9
    assert abs(np.linalg.norm(rep.witness) - 1) < 1e-12
    assert abs(frobenius(ch.apply(a)) - rep.kappa) <= 1e-9
    assert abs(np.vdot(phi_state(ch.dim), rep.witness)) <= 1e-9


def test_depolarizer_witness_degenerate_but_traceless():
    rep = spectral_gap_dense(complete_depolarizer())
    assert abs(np.trace(unvec(rep.witness))) <= 1e-9
    assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12


def test_kappa_bounds_contraction_on_random_traceless():
    rng = rng_from(3)
    ch = random_unitary_channel(2, 4, rng)
    kappa = spectral_gap_dense(ch).kappa
    for _ in range(1000):
        a = random_traceless(4, rng)
        assert frobenius(ch.apply(a)) <= (kappa + 1e-8) * frobenius(a)


def test_iterative_matches_dense():
    rng = rng_from(4)
    for i in range(8):
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        rd = spectral_gap_dense(ch)
        ri = spectral_gap_iterative(ch, tol=1e-9, seed=i)
        assert ri.converged
        assert abs(rd.kappa - ri.kappa) < 1e-8


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


def test_power_composition_contraction():
    rng = rng_from(7)
    ch = random_unitary_channel(2, 3, rng)
    kappa = spectral_gap_dense(ch).kappa
    kappa_r = spectral_gap_iterative(channel_power(ch, 2), tol=1e-9, seed=1).kappa
    assert kappa_r <= kappa**2 + 1e-8


def test_hermitian_restriction_matches_unrestricted():
    rng = rng_from(8)
    for i in range(5):
        ch = random_unitary_channel(2, 2 + i % 3, rng)
        full = spectral_gap_dense(ch).kappa
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


def test_dense_gap_matches_projected_oracle():
    """kappa from W - |phi><phi| equals the top singular value of Pi W Pi."""
    rng = rng_from(21)
    weights = rng.random(3)
    weighted = Channel(random_unitary_channel(2, 3, rng).kraus, weights / weights.sum())
    staged = Channel.staged((random_unitary_channel(2, 2, rng), weighted))
    for ch in (random_unitary_channel(2, 4, rng), weighted, staged, complete_depolarizer()):
        phi = phi_state(ch.dim)
        pi = np.eye(ch.dim**2) - np.outer(phi, phi.conj())
        oracle = np.linalg.svd(pi @ ch.superoperator() @ pi, compute_uv=False)[0]
        report = spectral_gap_dense(ch)
        assert abs(report.kappa - oracle) < 1e-12
        assert abs(np.vdot(phi, report.witness)) < 1e-12
        assert abs(frobenius(ch.apply(unvec(report.witness))) - oracle) < 1e-10
