import functools
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from qexpander import channels
from qexpander.channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    random_unitary_channel,
    sign_double,
    takes_superoperator,
    zero_sum_defect,
)
from qexpander.fileio import load_channel, matrix_to_json, save_channel
from qexpander.linalg import frobenius, hermitian_from_real, paulis, real_coordinates, rng_from, split_index

from oracles import (
    apply_operands,
    compose,
    doubled_lift,
    embed,
    gram_operands,
    gemm_stages,
    identity_channel,
    is_regular,
    kraus_sum_real,
    lifted_kraus_sum,
    pattern_projector,
    random_operator,
    row_major_apply_real,
    superoperator,
    tensor,
)

I, X, Y, Z = paulis()


def unitality_defect(channel: Channel) -> float:
    eye = np.eye(channel.dim, dtype=complex)
    return frobenius(channel.apply(eye) - eye)


def test_depolarizer_annihilates_traceless():
    dep = complete_depolarizer()
    assert dep.degree == 8
    assert frobenius(dep.apply(Z)) < 1e-14
    # Phi(sigma) = I tr(sigma)/2 for arbitrary input
    rng = rng_from(0)
    a = random_operator(2, rng)
    assert frobenius(dep.apply(a) - np.eye(2) * np.trace(a) / 2) < 1e-12


def test_identity_channel():
    ch = identity_channel(2)
    a = random_operator(4, rng_from(1))
    assert np.allclose(ch.apply(a), a)


def test_iz_channel_action():
    # (A + ZAZ)/2 kills sigma_x, fixes sigma_z
    ch = Channel.uniform((I, Z))
    assert frobenius(ch.apply(X)) < 1e-14
    assert np.allclose(ch.apply(Z), Z)


def test_apply_rejects_dimension_mismatch():
    ch = identity_channel(1)
    with pytest.raises(ValueError, match="does not match"):
        ch.apply(np.eye(4))


def test_weights_validation():
    with pytest.raises(ValueError, match="sum"):
        Channel((I, Z), np.array([0.6, 0.6]))
    with pytest.raises(ValueError, match="nonnegative"):
        Channel((I, Z), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="not unitary"):
        Channel.uniform((np.array([[1, 0], [0, 0.5]]),))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Channel([[[bad, 0], [0, 1]]], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any matmul warns
            with pytest.raises(ValueError, match="must be finite"):
                Channel([[[1, 0], [0, bad]]], [1.0], signed=True)
        for weights in ([bad, bad], [bad, 0.5]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Channel((I, Z), weights)


def test_regularity_predicate():
    assert is_regular(Channel.uniform((I, X, Y)))
    assert not is_regular(Channel((I, X), np.array([0.75, 0.25])))


def test_trace_preservation_and_unitality():
    rng = rng_from(9)
    for qubits, degree in ((1, 2), (2, 3), (2, 5)):
        ch = random_unitary_channel(qubits, degree, rng)
        assert unitality_defect(ch) <= 1e-10
        a = random_operator(ch.dim, rng)
        assert abs(np.trace(ch.apply(a)) - np.trace(a)) <= 1e-10


# kernel builder -> (a Kraus stack that takes it, the builder's output made
# wrong by one part in 1e3)
CORRUPTED_KERNELS = {
    "_operands": (lambda: random_unitary_channel(2, 2, rng_from(130)).kraus, lambda out: (out[0] * 1.001, out[1])),
    "_superoperator": (lambda: random_unitary_channel(2, 8, rng_from(131)).kraus, lambda out: out * 1.001),
    "_monomial_map": (lambda: np.stack([np.kron(X, Z), np.kron(Y, I)]), lambda out: (*out[:2], out[2] * 1.001)),
}


@pytest.mark.parametrize("builder", CORRUPTED_KERNELS)
@pytest.mark.parametrize("controlled", [False, True])
def test_stage_with_a_corrupted_kernel_is_not_unital(builder, controlled):
    # The unitality check runs on the kernel the stage derived, on its
    # k-qubit block for the GEMM pair and L and on the register for a map.
    # The controlled stage is signed, so it keeps its structured kernel.
    make, corrupt = CORRUPTED_KERNELS[builder]
    kraus = make()
    weights = np.full(len(kraus), 1.0 / len(kraus))
    where = {"qubits": 5, "targets": (3, 1), "control": [0, 1, 1, 0, 1, 0, 0, 1], "signed": True} if controlled else {}
    Channel(kraus, weights, **where)  # the intact kernel passes
    build = getattr(channels, builder)
    with mock.patch.object(channels, builder, lambda *args: corrupt(build(*args))):
        with pytest.raises(ValueError, match="not unital"):
            Channel(kraus, weights, **where)


def test_norm_non_increase():
    rng = rng_from(10)
    ch = random_unitary_channel(2, 4, rng)
    for _ in range(20):
        b = random_operator(4, rng)
        assert frobenius(ch.apply(b)) <= frobenius(b) + 1e-10


def test_compose_matches_sequential_application():
    rng = rng_from(11)
    c1 = random_unitary_channel(1, 2, rng)
    c2 = random_unitary_channel(1, 3, rng)
    both = compose(c2, c1)
    assert both.degree == 6
    a = random_operator(2, rng)
    assert frobenius(both.apply(a) - c2.apply(c1.apply(a))) < 1e-12


def test_compose_identity_is_noop():
    rng = rng_from(12)
    ch = random_unitary_channel(1, 3, rng)
    both = compose(identity_channel(1), ch)
    a = random_operator(2, rng)
    assert frobenius(both.apply(a) - ch.apply(a)) < 1e-12


def test_tensor_of_depolarizers():
    dep = complete_depolarizer()
    dd = tensor(dep, dep)
    assert dd.dim == 4 and dd.degree == 64
    assert frobenius(dd.apply(np.kron(Z, Z))) < 1e-12


def test_adjoint_set():
    h_channel = Channel.uniform((np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),))
    adj = h_channel.adjoint()
    # H is self-adjoint, so the adjoint channel coincides
    a = random_operator(2, rng_from(13))
    assert frobenius(adj.apply(a) - h_channel.apply(a)) < 1e-12


def test_adjoint_is_hs_adjoint():
    rng = rng_from(14)
    ch = random_unitary_channel(2, 3, rng)
    adj = ch.adjoint()
    a, b = random_operator(4, rng), random_operator(4, rng)
    lhs = np.vdot(b, ch.apply(a))
    rhs = np.vdot(adj.apply(b), a)
    assert abs(lhs - rhs) < 1e-10


def test_composite_channel_matches_flattened():
    rng = rng_from(15)
    c1 = random_unitary_channel(1, 2, rng)
    c2 = random_unitary_channel(1, 2, rng)
    lazy = Channel.staged((c1, c2))
    flat = compose(c2, c1)
    a = random_operator(2, rng)
    assert frobenius(lazy.apply(a) - flat.apply(a)) < 1e-12
    assert frobenius(superoperator(lazy) - superoperator(flat)) < 1e-12
    assert lazy.degree == flat.degree == 4
    adj = lazy.adjoint()
    b = random_operator(2, rng)
    assert abs(np.vdot(b, lazy.apply(a)) - np.vdot(adj.apply(b), a)) < 1e-12


def test_channel_power_degree_and_action():
    rng = rng_from(16)
    ch = random_unitary_channel(1, 3, rng)
    p = channel_power(ch, 3)
    assert p.degree == 27
    a = random_operator(2, rng)
    assert frobenius(p.apply(a) - ch.apply(ch.apply(ch.apply(a)))) < 1e-12


def test_zero_sum_defect():
    assert zero_sum_defect(complete_depolarizer()) == 0.0
    # ||(I + X + Y + Z) / 4||_F = sqrt(8) / 4: the weighted sum M.
    assert zero_sum_defect(Channel(paulis(), np.full(4, 0.25))) == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_kraus_arrays_are_frozen():
    ch = identity_channel(1)
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.weights[0] = 0.5


def _oracle_stages(ch):
    return [(s.kraus, s.weights) for s in ch.stages]


def _loop_apply(stages, a):
    """Per-Kraus loop oracle: sum_d w_d U_d A U_d^dag, stage by stage."""
    for kraus, weights in stages:
        a = sum(w * (u @ a @ u.conj().T) for w, u in zip(weights, kraus))
    return a


def _sample_channels():
    rng = rng_from(17)
    uniform = random_unitary_channel(2, 5, rng)
    weights = rng.random(4)
    weighted = Channel(random_unitary_channel(2, 4, rng).kraus, weights / weights.sum())
    staged = Channel.staged((uniform, weighted, random_unitary_channel(2, 3, rng)))
    return rng, (uniform, weighted, staged)


def test_stacked_apply_matches_loop_oracle():
    rng, channels = _sample_channels()
    for ch in channels:
        for _ in range(3):
            a = random_operator(4, rng)
            assert frobenius(ch.apply(a) - _loop_apply(_oracle_stages(ch), a)) < 1e-13


def test_flat_channel_is_its_own_stage():
    _, (uniform, weighted, staged) = _sample_channels()
    assert uniform.stages == (uniform,)
    assert Channel.staged((weighted,)) is weighted
    assert channel_power(uniform, 1) is uniform
    assert len(staged.stages) == 3 and staged.degree == 5 * 4 * 3
    assert len(Channel.staged((staged, uniform)).stages) == 4
    assert not is_regular(staged) and is_regular(channel_power(uniform, 2))


def test_multi_stage_channel_exposes_no_kraus():
    ch = channel_power(complete_depolarizer(), 2)
    with pytest.raises(ValueError, match="explicit Kraus"):
        ch.kraus
    with pytest.raises(ValueError, match="explicit Kraus"):
        ch.weights


def test_staged_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="one dimension"):
        Channel.staged((identity_channel(1), identity_channel(2)))
    with pytest.raises(ValueError, match="at least one stage"):
        Channel.staged(())


def test_tensor_matches_kron_of_actions():
    rng = rng_from(18)
    left = random_unitary_channel(1, 3, rng)
    right = Channel(random_unitary_channel(2, 2, rng).kraus, np.array([0.3, 0.7]))
    both = tensor(left, right)
    a, b = random_operator(2, rng), random_operator(4, rng)
    assert both.degree == 6
    assert frobenius(both.apply(np.kron(a, b)) - np.kron(left.apply(a), right.apply(b))) < 1e-12


# --- structured stages: Kraus on target qubits, optional 0/1 control --------


def _control_vector(num_qubits, targets, control_qubits, pattern, negate):
    """c[r] over the basis of the non-target qubits (ascending): 1 iff the
    bits of r on `control_qubits` spell `pattern` (or do not, if `negate`)."""
    rest = [q for q in range(num_qubits) if q not in targets]
    out = []
    for r in range(2 ** len(rest)):
        bits = {q: (r >> (len(rest) - 1 - pos)) & 1 for pos, q in enumerate(rest)}
        match = all(bits[q] == v for q, v in zip(control_qubits, pattern))
        out.append(int(match != negate))
    return out


def _dense_lift(num_qubits, targets, control_qubits, pattern, negate, kraus):
    """The oracle: P embed(U) + Q with P the full-space control projector."""
    p = pattern_projector(num_qubits, control_qubits, pattern)
    if negate:
        p = np.eye(2**num_qubits) - p
    q = np.eye(2**num_qubits) - p
    return np.array([p @ embed(u, targets, num_qubits) + q for u in kraus])


STRUCTURED_CASES = {
    # name: (qubits, targets, control qubits, pattern, negate)
    "non-contiguous, pattern": (4, (3, 1), (0, 2), (1, 0), False),
    "non-contiguous, not-pattern": (4, (2, 0), (1, 3), (0, 0), True),
    "one target, no control": (3, (1,), (), (), False),
    "all qubits permuted": (2, (1, 0), (), (), False),
}


@pytest.mark.parametrize("weighting", ["uniform zero-sum", "random weights"])
@pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
def test_structured_stage_matches_dense_lift(case, weighting):
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES[case]
    rng = rng_from(40, sorted(STRUCTURED_CASES).index(case), weighting == "random weights")
    base = random_unitary_channel(len(targets), 3, rng)
    if weighting == "uniform zero-sum":
        kraus = np.concatenate([base.kraus, -base.kraus])
        weights = np.full(6, 1 / 6)
    else:
        kraus, weights = base.kraus, rng.random(3)
        weights /= weights.sum()
    control = _control_vector(m, targets, ctrl, pattern, negate) if ctrl else None
    stage = Channel(kraus, weights, qubits=m, targets=targets, control=control)
    dense = Channel(_dense_lift(m, targets, ctrl, pattern, negate, kraus), weights)
    assert stage.dim == dense.dim == 2**m and stage.degree == dense.degree
    assert np.max(np.abs(stage.kraus - dense.kraus)) < 1e-12
    for _ in range(3):
        a = random_operator(2**m, rng)
        assert frobenius(stage.apply(a) - dense.apply(a)) < 1e-12
        assert frobenius(stage.adjoint().apply(a) - dense.adjoint().apply(a)) < 1e-12
    assert np.max(np.abs(superoperator(stage) - superoperator(dense))) < 1e-12
    adjoint = stage.adjoint()
    assert adjoint.targets == stage.targets
    assert (adjoint.control is None) == (control is None)
    if control is not None:
        assert np.array_equal(adjoint.control, np.array(control, dtype=bool))


def test_structured_cross_terms_live_without_zero_sum():
    # A single-Kraus stage has M = U != 0, so P M A Q and Q A M^dag P are live.
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    u = random_unitary_channel(2, 1, rng_from(41)).kraus
    control = _control_vector(m, targets, ctrl, pattern, negate)
    stage = Channel(u, [1.0], qubits=m, targets=targets, control=control)
    lifted = _dense_lift(m, targets, ctrl, pattern, negate, u)[0]
    a = random_operator(2**m, rng_from(42))
    out = stage.apply(a)
    assert frobenius(out - lifted @ a @ lifted.conj().T) < 1e-12
    p = pattern_projector(m, ctrl, pattern)
    assert frobenius(p @ out @ (np.eye(2**m) - p)) > 1e-3


def test_structured_stage_validation():
    x = complete_depolarizer().kraus
    w = complete_depolarizer().weights
    with pytest.raises(ValueError, match="target qubits"):
        Channel(x, w, qubits=3, targets=(0, 1))
    with pytest.raises(ValueError, match="out of range"):
        Channel(x, w, qubits=3, targets=(3,))
    with pytest.raises(ValueError, match="0/1 vector of length 4"):
        Channel(x, w, qubits=3, targets=(0,), control=[1, 0, 1])
    with pytest.raises(ValueError, match="0/1 vector"):
        Channel(x, w, qubits=3, targets=(0,), control=[1, 0, 0.5, 1])
    off = Channel(x, w, qubits=2, targets=(1,), control=[0, 0])
    a = random_operator(4, rng_from(44))
    assert frobenius(off.apply(a) - a) < 1e-15


def test_uniform_rejects_empty_kraus_list():
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        Channel.uniform(())


# Built on first use, not at import: a defect in the stage kernel then
# fails the tests that use these channels, not the collection of the file.
APPLY_NAMES = ("flat, uniform", "structured, uniform", "flat, weighted", "structured, weighted")


@functools.cache
def _apply_cases() -> dict:
    """name -> channel for APPLY_NAMES: flat and structured stages, each with
    uniform and with non-uniform weights."""
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    rng = rng_from(45)
    out = []
    for weighting in ("uniform", "weighted"):
        weights = np.full(3, 1 / 3) if weighting == "uniform" else rng.random(3)
        weights = weights / weights.sum()
        flat = random_unitary_channel(3, 3, rng).kraus
        small = random_unitary_channel(len(targets), 3, rng).kraus
        out.append((f"flat, {weighting}", Channel(flat, weights)))
        out.append((f"structured, {weighting}", Channel(small, weights, qubits=m, targets=targets, control=control)))
    assert tuple(name for name, _ in out) == APPLY_NAMES
    return dict(out)


@pytest.mark.parametrize("name", APPLY_NAMES)
def test_apply_matches_lifted_kraus_sum(name):
    ch = _apply_cases()[name]
    a = random_operator(ch.dim, rng_from(46))
    assert frobenius(a - a.conj().T) > 1.0  # not Hermitian
    oracle = sum(w * (k @ a @ k.conj().T) for w, k in zip(ch.weights, ch.kraus))
    assert frobenius(ch.apply(a) - oracle) < 1e-12
    adjoint = sum(w * (k.conj().T @ a @ k) for w, k in zip(ch.weights, ch.kraus))
    assert frobenius(ch.adjoint().apply(a) - adjoint) < 1e-12


@pytest.mark.parametrize("name", APPLY_NAMES)
def test_apply_adjoint_pairing(name):
    ch = _apply_cases()[name]
    rng = rng_from(47)
    for channel in (ch, Channel.staged((ch, ch.adjoint(), ch))):
        adjoint = channel.adjoint()
        for _ in range(3):
            a, b = random_operator(ch.dim, rng), random_operator(ch.dim, rng)
            assert abs(np.vdot(b, channel.apply(a)) - np.vdot(adjoint.apply(b), a)) < 1e-11


@pytest.mark.parametrize("name", APPLY_NAMES)
def test_stage_operands_are_read_only(name):
    ch = _apply_cases()[name]
    for stage in (ch, ch.adjoint(), ch.astype(np.float32)):
        for arr in (stage._kraus, stage._left, stage._right, stage._weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


# --- signed stages and fused runs -------------------------------------------


SIGNED_KINDS = {
    # name: (qubits, targets, control qubits, pattern, negate)
    "flat": (3, (0, 1, 2), (), (), False),
    "targeted": (4, (3, 1), (), (), False),
    "controlled": STRUCTURED_CASES["non-contiguous, pattern"],
}


def _signed_stage(kind, weighting, seed):
    m, targets, ctrl, pattern, negate = SIGNED_KINDS[kind]
    rng = rng_from(70, seed)
    x = random_unitary_channel(len(targets), 3, rng).kraus
    w = np.full(3, 1 / 3) if weighting == "uniform" else rng.random(3)
    control = _control_vector(m, targets, ctrl, pattern, negate) if ctrl else None
    return Channel(x, w / w.sum(), qubits=m, targets=targets, control=control, signed=True)


@pytest.mark.parametrize("weighting", ["uniform", "weighted"])
@pytest.mark.parametrize("kind", sorted(SIGNED_KINDS))
def test_signed_stage_matches_doubled_lift(kind, weighting):
    stage = _signed_stage(kind, weighting, sorted(SIGNED_KINDS).index(kind))
    lifted, weights = doubled_lift(stage)
    assert stage.signed and stage.degree == 6 and stage.target_kraus.shape[0] == 3
    assert np.max(np.abs(stage.kraus - lifted)) < 1e-12
    assert np.max(np.abs(stage.weights - weights)) == 0.0
    assert zero_sum_defect(stage) == 0.0
    rng = rng_from(71)
    for _ in range(3):
        a = random_operator(stage.dim, rng)
        assert frobenius(stage.apply(a) - lifted_kraus_sum(stage, a)) < 1e-12
        adjoint = sum(wd * (u.conj().T @ a @ u) for wd, u in zip(weights, lifted))
        assert frobenius(stage.adjoint().apply(a) - adjoint) < 1e-12


def _run_channel():
    """Four-qubit stages whose runs are [s1, s1], [u], [s1], [t], [v],
    [flat], [s1]: u is unsigned with s1's targets and control and live
    cross terms, so it applies as a flat stage on its lift, as does t,
    which has s1's targets and another control; v has them and none."""
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    rng = rng_from(72)
    s1 = _signed_stage("controlled", "weighted", 9)
    w = rng.random(3)
    u = Channel(random_unitary_channel(2, 3, rng).kraus, w / w.sum(), qubits=m, targets=targets, control=control)
    other = [1 - c for c in control]
    t = Channel(random_unitary_channel(2, 2, rng).kraus, [0.25, 0.75], qubits=m, targets=targets, control=other)
    v = Channel(random_unitary_channel(2, 2, rng).kraus, [0.5, 0.5], qubits=m, targets=targets, signed=True)
    flat = random_unitary_channel(4, 2, rng)
    return Channel.staged((s1, s1, u, s1, t, v, flat, s1))


def test_fused_run_matches_stage_by_stage():
    ch = _run_channel()
    assert [len(run) for run in ch._runs] == [2, 1, 1, 1, 1, 1, 1]
    assert [run[0]._layout is None for run in ch._runs] == [False, True, False, True, False, True, False]
    rng = rng_from(73)
    for channel in (ch, ch.adjoint()):
        for _ in range(3):
            a = random_operator(16, rng)
            one_by_one = a
            for s in channel.stages:
                one_by_one = s.apply(one_by_one)
            assert frobenius(channel.apply(a) - one_by_one) < 1e-13
            assert frobenius(channel.apply(a) - lifted_kraus_sum(channel, a)) < 1e-12


def test_unsigned_run_keeps_cross_terms():
    # Unsigned controlled stages must carry P A Q through every stage:
    # M_2 M_1 on the cross block, not zero.  Each applies on its lift.
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    rng = rng_from(74)
    stages = [
        Channel(random_unitary_channel(2, 2, rng).kraus, [0.3, 0.7], qubits=m, targets=targets, control=control)
        for _ in range(3)
    ]
    ch = Channel.staged(stages)
    assert [len(run) for run in ch._runs] == [1, 1, 1] and all(s._layout is None for s in stages)
    a = random_operator(16, rng)
    assert frobenius(ch.apply(a) - lifted_kraus_sum(ch, a)) < 1e-12


def test_signed_run_adjoint_pairing():
    ch = _run_channel()
    adjoint = ch.adjoint()
    assert [len(run) for run in adjoint._runs] == [1, 1, 1, 1, 1, 1, 2]
    rng = rng_from(75)
    for _ in range(3):
        a, b = random_operator(16, rng), random_operator(16, rng)
        assert abs(np.vdot(b, ch.apply(a)) - np.vdot(adjoint.apply(b), a)) < 1e-11


def test_adjoint_shares_stages(tmp_path):
    # One adjoint per distinct stage object: the four copies of s1 in the
    # run channel, and the r copies of a power, share one adjoint stage.
    rng = rng_from(76)
    for ch in (_run_channel(), channel_power(random_unitary_channel(2, 3, rng), 4)):
        adjoint = ch.adjoint()
        assert len({id(s) for s in adjoint.stages}) == len({id(s) for s in ch.stages})
        stagewise = Channel.staged(s.adjoint() for s in reversed(ch.stages))
        for _ in range(2):
            a = random_operator(ch.dim, rng)
            assert np.array_equal(adjoint.apply(a), stagewise.apply(a))
    path = tmp_path / "adjoint.json"
    save_channel(adjoint, path)
    assert [entry.get("repeat") for entry in json.loads(path.read_text())["stages"]] == [4]


# --- the real-arithmetic stage kernel against the complex oracle -------------


def _structured_stage(case, weighting):
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES[case]
    rng = rng_from(80, sorted(STRUCTURED_CASES).index(case))
    weights = np.full(3, 1 / 3) if weighting == "uniform" else rng.random(3)
    control = _control_vector(m, targets, ctrl, pattern, negate) if ctrl else None
    kraus = random_unitary_channel(len(targets), 3, rng).kraus
    return Channel(kraus, weights / weights.sum(), qubits=m, targets=targets, control=control)


def _live_cross_stage():
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    u = random_unitary_channel(2, 1, rng_from(81)).kraus
    return Channel(u, [1.0], qubits=m, targets=targets, control=_control_vector(m, targets, ctrl, pattern, negate))


def _corpus_reduction(key):
    from pathlib import Path

    from qexpander.fileio import load_reduction_spec
    from qexpander.reduction import build_reduction

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    return build_reduction(load_reduction_spec(corpus / "reductions" / f"{key}.json"))


KERNEL_CASES = {
    **{
        f"{case}, {weighting}": lambda case=case, weighting=weighting: _structured_stage(case, weighting)
        for case in STRUCTURED_CASES
        for weighting in ("uniform", "weighted")
    },
    **{f"signed {kind}": lambda kind=kind: _signed_stage(kind, "weighted", 3) for kind in SIGNED_KINDS},
    "unsigned, live cross terms": _live_cross_stage,
    "flat, weighted": lambda: _apply_cases()["flat, weighted"],
    "staged run channel": _run_channel,
    "staged power": lambda: channel_power(random_unitary_channel(3, 3, rng_from(82)), 3),
    "corpus NO reduction": lambda: _corpus_reduction("no_2w2a"),
    "corpus YES reduction": lambda: _corpus_reduction("yes_2w2a"),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_real_kernel_matches_complex_oracle(name):
    ch = KERNEL_CASES[name]()
    if name == "unsigned, live cross terms":
        assert zero_sum_defect(ch) > 0.5 and ch._layout is None  # a flat kernel on its lift
    n = ch.dim
    rng = rng_from(83, sorted(KERNEL_CASES).index(name))
    for adjoint in (False, True):
        channel = ch.adjoint() if adjoint else ch
        x = rng.standard_normal((n, n))
        want = kraus_sum_real(ch, x, adjoint)
        assert frobenius(channel.apply_real(x) - want) <= 1e-13 * frobenius(x)
        h = hermitian_from_real(x)
        assert frobenius(channel.apply(h) - lifted_kraus_sum(ch, h, adjoint)) <= 1e-13 * frobenius(x)
        a = random_operator(n, rng)  # not Hermitian: a second kernel pass for its anti-Hermitian part
        assert frobenius(channel.apply(a) - lifted_kraus_sum(ch, a, adjoint)) <= 1e-13 * frobenius(a)


def test_apply_real_input_checks():
    ch = _apply_cases()["flat, uniform"]
    complex_list = np.eye(ch.dim).tolist()
    complex_list[0][1] = 1j
    for bad, got in (
        (np.eye(ch.dim, dtype=complex), "complex128 (8, 8)"),
        (np.eye(ch.dim + 1), "float64 (9, 9)"),
        (np.zeros(ch.dim**2), "float64 (64,)"),
        (np.eye(ch.dim + 1, dtype=complex), "complex128 (9, 9)"),
        (complex_list, "complex128 (8, 8)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"expected real coordinates of shape (8, 8), got {got}")):
            ch.apply_real(bad)
    # integer input is read as real coordinates, not written back as integers
    for channel in (ch, _apply_cases()["structured, weighted"]):
        ints = np.arange(channel.dim**2).reshape(channel.dim, channel.dim) % 3
        assert np.array_equal(channel.apply_real(ints), channel.apply_real(ints.astype(float)))


class _Marked(np.ndarray):
    """An ndarray subclass: apply_real must treat it as a plain array."""


@pytest.mark.parametrize("name", ["flat, weighted", "structured, weighted", "staged"])
def test_apply_real_reads_every_real_input_alike(name):
    # An exact float64 ndarray of shape (N, N) passes one comparison, whatever
    # its strides; every other real input is checked in full and converted.
    # Either way the result is bit for bit that of a C-contiguous float64 copy,
    # a new plain ndarray, and the input is left as it was.
    ch = _apply_cases()[name] if name != "staged" else _run_channel()
    x = rng_from(85, len(name)).standard_normal((ch.dim, ch.dim))
    frozen = x.copy()
    frozen.setflags(write=False)
    for given, value in (
        (x, x),
        (x.T, x.T),  # a strided view
        (np.asfortranarray(x), x),
        (x[::-1, ::-1], x[::-1, ::-1]),
        (frozen, x),
        (x.view(_Marked), x),
        (x.astype(">f8"), x),
        (x.astype(np.float32), x.astype(np.float32)),
        (x.tolist(), x),
        ((x > 0).astype(np.int64), (x > 0)),
    ):
        before = np.array(given, dtype=float)
        out = ch.apply_real(given)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out, ch.apply_real(np.array(value, dtype=float)))
        assert np.array_equal(np.array(given, dtype=float), before)
        if isinstance(given, np.ndarray):
            assert not np.shares_memory(out, given)


def test_real_coordinates_are_an_isometry_and_round_trip():
    rng = rng_from(84)
    a = random_operator(8, rng)
    h = (a + a.conj().T) / 2
    x = real_coordinates(h)
    assert np.array_equal(x, h.real + h.imag)
    assert abs(frobenius(x) - frobenius(h)) < 1e-14
    assert frobenius(real_coordinates(a) - x) < 1e-14  # the Hermitian part only
    assert frobenius(hermitian_from_real(x) - h) < 1e-14
    stack = rng.standard_normal((3, 4, 4))
    assert np.array_equal(hermitian_from_real(stack)[1], hermitian_from_real(stack[1]))


# --- the target-row-ordered kernel against the row-major oracle --------------


def _block_counts(channel, x):
    """(one-block, general) numbers of stage kernel calls in
    channel.apply_real(x): calls on one k x k block (r = 1) and on r > 1."""
    counts = [0, 0]
    mix = channels._mix_real

    def counting(stage, t):
        counts[t.shape[1] != stage._right.shape[1]] += 1
        return mix(stage, t)

    with mock.patch.object(channels, "_mix_real", counting):
        channel.apply_real(x)
    return tuple(counts)


def _assert_kernel_matches_row_major(channel, seed, blocks=None):
    """apply_real of `channel` and of its adjoint equals the row-major
    kernel's bit for bit; `blocks`, if given, is the (one-block, general)
    count of kernel calls each of them must make."""
    rng = rng_from(90, seed)
    for ch in (channel, channel.adjoint()):
        x = rng.standard_normal((ch.dim, ch.dim))
        assert np.array_equal(ch.apply_real(x), row_major_apply_real(ch, x))
        if blocks is not None:
            assert _block_counts(ch, x) == blocks


@pytest.mark.parametrize("weighting", ["uniform", "weighted"])
@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
def test_flat_kernel_is_bit_identical_to_row_major(qubits, weighting):
    rng = rng_from(91, qubits, weighting == "weighted")
    for degree in (1, 2, 3, 8, 32):
        kraus = random_unitary_channel(qubits, degree, rng).kraus
        w = np.full(degree, 1 / degree) if weighting == "uniform" else rng.random(degree)
        ch = Channel(kraus, w / w.sum())
        if takes_superoperator(degree, qubits):
            continue  # the superoperator kernel: test_superoperator_kernel_matches_oracles
        assert ch._super is None and ch._left is not None
        assert np.array_equal(ch.target_kraus, kraus)
        assert np.array_equal(ch.adjoint().target_kraus, kraus.conj().transpose(0, 2, 1))
        _assert_kernel_matches_row_major(ch, degree, blocks=(1, 0))


# name -> flat GEMM-pair channel: one stage, and powers whose stages are shared.
FLOAT32_PAIR_CASES = {
    f"{qubits}q D={degree} power {power}": (qubits, degree, power)
    for qubits in (5, 6)
    for degree in (1, 8)
    for power in (1, 2, 6)
}


def _float32_pair_case(name):
    qubits, degree, power = FLOAT32_PAIR_CASES[name]
    ch = channel_power(random_unitary_channel(qubits, degree, rng_from(140, qubits, degree)), power)
    assert channels.flat_gemm_pair(ch)
    return ch


def _float32_pair_matches_oracle(ch) -> bool:
    """True when ch.astype(np.float32) and its adjoint apply, bit for bit,
    the float32 GEMM operands that the oracle builds from the Kraus stacks."""
    low = ch.astype(np.float32)
    forward, backward = gram_operands(ch, np.float32)
    x = rng_from(141).standard_normal((ch.dim, ch.dim)).astype(np.float32)
    for channel, operands in ((low, forward), (low.adjoint(), backward)):
        got = channel.apply_real(x)
        assert got.dtype == np.float32
        if not np.array_equal(got, apply_operands(operands, x)):
            return False
    return True


@pytest.mark.parametrize("name", FLOAT32_PAIR_CASES)
def test_float32_flat_channel_is_bit_identical_to_its_operand_oracle(name):
    ch = _float32_pair_case(name)
    assert _float32_pair_matches_oracle(ch)
    low = ch.astype(np.float32)
    # Stages shared by a power stay shared, and every kernel array is float32 and read-only.
    assert len({id(s) for s in low.stages}) == len({id(s) for s in ch.stages}) == 1
    for s in (*low.stages, *low.adjoint().stages):
        for arr in (s._left, s._right):
            assert arr.dtype == np.float32 and not arr.flags.writeable


def _fused_controlled_run(active):
    (signed, _), (unsigned, _) = _controlled_stages(active)
    return Channel.staged((unsigned, unsigned, signed, unsigned))


FLOAT32_KERNEL_CASES = {
    "monomial, flat Paulis": lambda: _monomial_stage("flat Paulis")[0],
    "monomial, controlled, unsigned": lambda: _monomial_stage("controlled, unsigned")[0],
    "superoperator, flat": lambda: _super_stage("1 target of 3, no control"),
    "superoperator, signed, several rest states": lambda: _super_stage("2 targets of 5, signed, several rest states"),
    "superoperator, live cross terms": lambda: _super_stage("2 targets of 5, several rest states, live cross terms"),
    "GEMM pair, controlled, signed": lambda: _controlled_stages(3)[0][0],
    "GEMM pair, controlled, unsigned": lambda: _controlled_stages(3)[1][0],
    "GEMM pair, fused run": lambda: _fused_controlled_run(3),
    "corpus NO reduction": lambda: _corpus_reduction("no_2w2a"),
}


def _float32_error(ch) -> float:
    """The larger ||X'_32 - X'_64||_F / ||X||_F of ch and of its adjoint,
    X'_32 from ch.astype(np.float32) and its adjoint on X rounded to
    float32, X'_64 from ch and ch.adjoint() in float64."""
    low = ch.astype(np.float32)
    x = rng_from(143, ch.dim).standard_normal((ch.dim, ch.dim))
    worst = 0.0
    for high, single in ((ch, low), (ch.adjoint(), low.adjoint())):
        got = single.apply_real(x.astype(np.float32))
        assert got.dtype == np.float32
        worst = max(worst, frobenius(got - high.apply_real(x)) / frobenius(x))
    return worst


@pytest.mark.parametrize("name", FLOAT32_KERNEL_CASES)
def test_float32_channel_is_within_float32_rounding_of_float64(name):
    # A bound set from the dtype: 64 eps(float32).
    ch = FLOAT32_KERNEL_CASES[name]()
    assert _float32_error(ch) <= 64 * np.finfo(np.float32).eps
    low = ch.astype(np.float32)
    for high, single in zip(ch.stages, low.stages):
        assert (high._map is None, high._super is None, high._layout is None) == (
            single._map is None, single._super is None, single._layout is None
        )
        kernel = (single._left, single._right, single._super, single._map and single._map[2])
        assert all(a.dtype == np.float32 and not a.flags.writeable for a in kernel if a is not None)
    with pytest.raises(ValueError, match="one dtype"):
        Channel.staged((ch, low))
    with pytest.raises(ValueError, match="float32 or float64"):
        ch.astype(np.float16)


def test_float32_oracles_reject_a_channel_that_drops_the_weights(monkeypatch):
    build = Channel._build

    def unweighted(self, x, w, *args, **kwargs):
        return build(self, x, np.ones_like(w), *args, **kwargs)

    cases = {name: FLOAT32_KERNEL_CASES[name]() for name in FLOAT32_KERNEL_CASES}
    pair = _float32_pair_case("5q D=8 power 2")
    monkeypatch.setattr(Channel, "_build", unweighted)
    assert not _float32_pair_matches_oracle(pair)
    for name, ch in cases.items():
        assert _float32_error(ch) > 0.1, name


def _controlled_stages(active):
    """A signed and an unsigned stage on targets (3, 1) of 5 qubits whose
    control has `active` rest states on (r = active), the unsigned one with
    live cross terms, and their kraus and weights."""
    rng = rng_from(92, active)
    control = np.zeros(8)
    control[rng.permutation(8)[:active]] = 1.0
    out = []
    for signed in (True, False):
        kraus = random_unitary_channel(2, 3, rng).kraus
        w = rng.random(3)
        w /= w.sum()
        stage = Channel(kraus, w, qubits=5, targets=(3, 1), control=control, signed=signed)
        out.append((stage, kraus))
    return out


@pytest.mark.parametrize("active", [1, 3, 6])
def test_controlled_kernel_is_bit_identical_to_row_major(active):
    (signed, signed_kraus), (unsigned, unsigned_kraus) = _controlled_stages(active)
    assert unsigned._layout is None and zero_sum_defect(unsigned) > 0.1  # live cross terms: a flat kernel
    for stage, kraus in ((signed, signed_kraus), (unsigned, unsigned_kraus)):
        assert np.array_equal(stage.target_kraus, kraus)
        assert np.array_equal(stage.adjoint().target_kraus, kraus.conj().transpose(0, 2, 1))
    _assert_kernel_matches_row_major(signed, active, blocks=(1, 0) if active == 1 else (0, 1))
    _assert_kernel_matches_row_major(unsigned, active, blocks=(1, 0))  # one 32 x 32 block
    # the unsigned stages on their lifts, the signed one on its block, which zeroes the cross blocks
    run = Channel.staged((unsigned, unsigned, signed, unsigned))
    _assert_kernel_matches_row_major(run, active + 10, blocks=(4, 0) if active == 1 else (3, 1))


@pytest.mark.parametrize("key", ["no_2w2a", "yes_2w2a"])
def test_corpus_reduction_kernel_is_bit_identical_to_row_major(key):
    ch = _corpus_reduction(key)
    # the six-stage controlled-F run (r = 1); the two controlled depolarizers are monomial stages
    assert [s._map is not None for s in ch.stages] == [True, True] + [False] * 6
    _assert_kernel_matches_row_major(ch, len(key), blocks=(6, 0))


# --- the superoperator kernel ------------------------------------------------


SUPER_CASES = {
    # name: (qubits, targets, control qubits, pattern, negate, degree, signed, weighting)
    "1 target of 3, no control": (3, (1,), (), (), False, 4, False, "weighted"),
    "1 target of 6, controlled, live cross terms": (6, (4,), (2,), (1,), False, 2, False, "weighted"),
    "2 targets of 5, one active rest state, live cross terms": (5, (3, 1), (0, 2, 4), (1, 0, 1), False, 8, False,
                                                                "weighted"),
    "2 targets of 5, signed, several rest states": (5, (3, 1), (0, 2), (1, 0), False, 8, True, "weighted"),
    "2 targets of 5, several rest states, live cross terms": (5, (3, 1), (0, 2), (1, 0), False, 8, False, "weighted"),
    "2 targets of 7, signed, not-pattern": (7, (5, 0), (1, 3), (0, 0), True, 8, True, "uniform"),
    "3 targets of 8, controlled, live cross terms": (8, (6, 2, 4), (0,), (1,), False, 8, False, "weighted"),
    "3 targets of 8, no control": (8, (7, 1, 4), (), (), False, 16, False, "uniform"),
    "2 targets of 4, live cross terms, lifted onto L": (4, (3, 1), (0,), (1,), False, 16, False, "weighted"),
}


def _super_stage(name):
    m, targets, ctrl, pattern, negate, degree, signed, weighting = SUPER_CASES[name]
    rng = rng_from(110, sorted(SUPER_CASES).index(name))
    kraus = random_unitary_channel(len(targets), degree, rng).kraus
    w = np.full(degree, 1 / degree) if weighting == "uniform" else rng.random(degree)
    control = _control_vector(m, targets, ctrl, pattern, negate) if ctrl else None
    return Channel(kraus, w / w.sum(), qubits=m, targets=targets, control=control, signed=signed)


def _assert_matches_oracles(stage, channel, x, adjoint=False):
    """channel.apply_real(x) within 1e-13 ||x|| of the GEMM kernel on the same
    stages and of the lifted Kraus sum of `stage` (its adjoint if `adjoint`)."""
    got = channel.apply_real(x)
    assert frobenius(got - row_major_apply_real(gemm_stages(channel), x)) <= 1e-13 * frobenius(x)
    assert frobenius(got - kraus_sum_real(stage, x, adjoint)) <= 1e-13 * frobenius(x)


@pytest.mark.parametrize("name", sorted(SUPER_CASES))
def test_superoperator_kernel_matches_oracles(name):
    # A stage with live cross terms takes its kernel by the rule for its
    # lift, a flat stage on all its qubits: L only for the 4-qubit D = 16 case.
    stage = _super_stage(name)
    crossed = stage.control is not None and not stage.signed
    assert (stage._layout is None) == crossed and (not crossed or zero_sum_defect(stage) > 0.1)
    on_super = takes_superoperator(len(stage.target_weights), stage.qubits if crossed else len(stage.targets))
    assert on_super == (not crossed or stage.qubits == 4)
    assert (stage._super is not None, stage._left is None, stage._right is None) == (on_super,) * 3
    rng = rng_from(111, sorted(SUPER_CASES).index(name))
    for adjoint in (False, True):
        x = rng.standard_normal((stage.dim, stage.dim))
        _assert_matches_oracles(stage, stage.adjoint() if adjoint else stage, x, adjoint)
    if not crossed:
        doubled = sign_double(stage)
        x = rng.standard_normal((stage.dim, stage.dim))
        _assert_matches_oracles(doubled, doubled, x)
        assert frobenius(doubled.apply_real(x) - stage.apply_real(x)) <= 1e-13 * frobenius(x)


# The flat cases of test_flat_kernel_is_bit_identical_to_row_major that the
# kernel rule puts on the superoperator: (qubits, degree).
SUPER_FLAT = [(1, 2), (1, 3), (1, 8), (1, 32), (2, 8), (2, 32), (3, 8), (3, 32), (4, 32)]


@pytest.mark.parametrize("weighting", ["uniform", "weighted"])
@pytest.mark.parametrize("qubits, degree", SUPER_FLAT)
def test_flat_superoperator_kernel_matches_oracles(qubits, degree, weighting):
    rng = rng_from(112, qubits, degree, weighting == "weighted")
    kraus = random_unitary_channel(qubits, degree, rng).kraus
    w = np.full(degree, 1 / degree) if weighting == "uniform" else rng.random(degree)
    ch = Channel(kraus, w / w.sum())
    assert takes_superoperator(degree, qubits) and ch._super is not None and ch._left is None
    assert np.array_equal(ch.adjoint().target_kraus, kraus.conj().transpose(0, 2, 1))
    for adjoint in (False, True):
        x = rng.standard_normal((ch.dim, ch.dim))
        _assert_matches_oracles(ch, ch.adjoint() if adjoint else ch, x, adjoint)


def test_adjoint_and_sign_double_share_the_superoperator():
    for name in ("1 target of 3, no control", "2 targets of 5, signed, several rest states"):
        stage = _super_stage(name)
        adjoint, doubled = stage.adjoint(), sign_double(stage)
        assert np.shares_memory(adjoint._super, stage._super) and np.array_equal(adjoint._super, stage._super.T)
        assert np.shares_memory(doubled._super, stage._super) and doubled._left is None
        assert np.shares_memory(sign_double(adjoint)._super, stage._super)
        assert not any(s._super.flags.writeable for s in (stage, adjoint, doubled))


def test_kernel_rule_pins_the_benchmark_stage_shapes():
    from qexpander.channels import kernel_bytes

    rng = rng_from(114)
    verify = random_unitary_channel(4, 32, rng)  # verify_protocol
    four = random_unitary_channel(4, 8, rng)  # thermalize, and the reduction's G and controlled F
    five = random_unitary_channel(5, 8, rng)  # matrix_free_gap
    pauli = Channel(np.array([np.kron(a, b) for a in (I, X, Y, Z) for b in (I, X, Y, Z)]), np.full(16, 1 / 16))
    control = _control_vector(7, (2, 3), (6,), (1,), False)  # no_3w3a_local's controlled F
    local = Channel(random_unitary_channel(2, 8, rng).kraus, np.full(8, 1 / 8), qubits=7, targets=(2, 3),
                    control=control, signed=True)
    for ch in (verify, local):
        assert ch._super is not None and ch._left is None and ch._right is None and ch._map is None
    for ch in (four, five):
        assert ch._super is None and ch._left is not None and ch._map is None
    assert pauli._map is not None and pauli._super is None and pauli._left is None
    assert [kernel_bytes(d, k) for d, k in ((32, 4), (8, 4), (8, 5), (8, 2))] == [
        8 * 16**4, 48 * 8 * 4**4, 48 * 8 * 4**5, 8 * 16**2]
    assert not takes_superoperator(64, 5)  # L of 5 qubits is over the byte cap


def _pair_transposition(k):
    """The permutation (i, j) -> (j, i) of the k^2 entries of a k x k block."""
    return np.arange(k * k).reshape(k, k).T.ravel()


def _superoperator_mutant(stage, kind):
    """A stage's superoperator L = S_R + S_I P, rebuilt wrongly."""
    lsup = stage._super
    k = math.isqrt(len(lsup))
    p = _pair_transposition(k)
    plp = lsup[p][:, p]  # P L P = S_R - S_I P
    s_r, s_i = (lsup + plp) / 2, ((lsup - plp) / 2)[:, p]
    if kind == "S_R and S_I swapped":
        return s_i + s_r[:, p]
    if kind == "X in place of X^T":
        return s_r + s_i
    bits = int(np.log2(k))  # reversed target-axis order: qubit order flipped on both indices
    flip = np.array([int(format(i, f"0{bits}b")[::-1], 2) for i in range(k)])
    q = np.arange(k * k).reshape(k, k)[flip][:, flip].ravel()
    return lsup[q][:, q]


@pytest.mark.parametrize("kind", ["S_R and S_I swapped", "X in place of X^T", "reversed target-axis order"])
def test_superoperator_oracle_rejects_mutants(kind):
    for name in ("2 targets of 5, signed, several rest states", "3 targets of 8, no control",
                 "2 targets of 4, live cross terms, lifted onto L"):
        stage = _super_stage(name)
        mutant = object.__new__(Channel)._build(
            stage._kraus, stage._weights, stage.qubits, stage.targets, stage.control, stage.signed, False,
            _superoperator_mutant(stage, kind),
        )
        x = rng_from(116).standard_normal((stage.dim, stage.dim))
        want = kraus_sum_real(stage, x)
        assert frobenius(stage.apply_real(x) - want) <= 1e-13 * frobenius(x)
        assert frobenius(mutant.apply_real(x) - want) > 1e-3 * frobenius(x)


def test_runs_group_by_kernel_kind():
    # Superoperator (D = 8) and GEMM (D = 2) stages on the same targets and
    # control, two active rest states: runs never mix the two kinds.  The
    # unsigned stages hold pairs {U, -U} of equal weight, so they are
    # zero-sum and keep their structured kernels.
    m, targets, ctrl, pattern = 5, (3, 1), (0, 2), (1, 0)
    control = _control_vector(m, targets, ctrl, pattern, False)
    rng = rng_from(117)

    def stage(degree, signed):
        half = degree if signed else degree // 2
        kraus, w = random_unitary_channel(2, half, rng).kraus, rng.random(half)
        if not signed:
            kraus, w = np.concatenate((kraus, -kraus)), np.concatenate((w, w))
        return Channel(kraus, w / w.sum(), qubits=m, targets=targets, control=control, signed=signed)

    lu, ls, gu, gs = stage(8, False), stage(8, True), stage(2, False), stage(2, True)
    assert lu._super is not None and ls._super is not None and gu._super is None and gs._super is None
    ch = Channel.staged((lu, lu, gu, ls, lu, gs, gs, lu, gu))
    assert [len(run) for run in ch._runs] == [2, 1, 2, 2, 1, 1]
    assert [run[0]._super is None for run in ch._runs] == [False, True, False, True, False, True]
    a = random_operator(ch.dim, rng_from(118))
    assert frobenius(ch.apply(a) - lifted_kraus_sum(ch, a)) < 1e-12
    assert frobenius(ch.adjoint().apply(a) - lifted_kraus_sum(ch, a, adjoint=True)) < 1e-12
    x = rng_from(119).standard_normal((ch.dim, ch.dim))
    assert frobenius(ch.apply_real(x) - row_major_apply_real(gemm_stages(ch), x)) <= 1e-13 * frobenius(x)


def test_runs_on_one_control_subspace_zero_the_cross_blocks_once():
    # Signed stages on different targets but one full-space P, as a
    # controlled brickwork makes them: the first zeroes the cross blocks,
    # the next find them zero; a stage on another P (qubit 4 set, not
    # qubit 3) zeroes its own.
    from qexpander.reduction import controlled_channel

    rng = rng_from(120)

    def brick(degree):
        return Channel.staged(
            Channel(random_unitary_channel(2, degree, rng).kraus, np.full(degree, 1 / degree),
                    qubits=3, targets=pair, signed=True)
            for pair in ((0, 1), (1, 2), (2, 0))
        )

    for degree in (8, 2):  # superoperator and GEMM stages
        on_three = controlled_channel(brick(degree), (0, 1, 2), [0, 0, 1, 1], 5)
        on_four = controlled_channel(brick(degree), (0, 1, 2), [0, 1, 0, 1], 5)
        ch = Channel.staged((on_three, on_four.stages[0], on_three))
        assert len(ch._runs) == 7 and all(s._super is not None for s in ch.stages) == (degree == 8)
        a = random_operator(32, rng)
        assert frobenius(ch.apply(a) - lifted_kraus_sum(ch, a)) < 1e-12
        assert frobenius(ch.adjoint().apply(a) - lifted_kraus_sum(ch, a, adjoint=True)) < 1e-12


# --- monomial stages: Pauli strings and phased permutations -----------------


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
S_GATE = np.diag([1, 1j])


def _phased_permutations(k, count, rng):
    """`count` random k-qubit permutation matrices with random phases."""
    out = np.zeros((count, 2**k, 2**k), dtype=complex)
    for u in out:
        u[rng.permutation(2**k), np.arange(2**k)] = np.exp(2j * np.pi * rng.random(2**k))
    return out


def _monomial_stage(kind):
    """A monomial stage of each kind, on random weights."""
    rng = rng_from(100, sorted(MONOMIAL_KINDS).index(kind))
    paulis2 = np.array([np.kron(a, b) for a in (I, X, Y, Z) for b in (I, X, Y, Z)])
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    kraus, placement, signed = {
        "flat Paulis": (paulis2, {}, False),
        "flat CNOT.S and Y (x) S": (np.array([CNOT @ np.kron(S_GATE, I), np.kron(Y, S_GATE), np.eye(4)]), {}, False),
        "targeted phased permutations": (_phased_permutations(2, 3, rng), {"qubits": 4, "targets": (3, 1)}, False),
        "controlled, signed": (_phased_permutations(2, 3, rng), {"qubits": m, "targets": targets, "control": control}, True),
        "controlled, unsigned": (_phased_permutations(2, 3, rng), {"qubits": m, "targets": targets, "control": control}, False),
        "controlled Paulis, unsigned": (paulis2[[0, 5, 10]], {"qubits": m, "targets": targets, "control": control}, False),
        "one target, Y and S": (np.array([Y, S_GATE]), {"qubits": 3, "targets": (1,)}, False),
    }[kind]
    w = rng.random(len(kraus))
    return Channel(kraus, w / w.sum(), signed=signed, **placement), kraus


MONOMIAL_KINDS = (
    "flat Paulis",
    "flat CNOT.S and Y (x) S",
    "targeted phased permutations",
    "controlled, signed",
    "controlled, unsigned",
    "controlled Paulis, unsigned",
    "one target, Y and S",
)


def _real_matrix(channel):
    """The (N^2, N^2) real matrix of channel.apply_real, column by column."""
    n = channel.dim
    return np.stack([channel.apply_real(e.reshape(n, n)).ravel() for e in np.eye(n * n)], axis=1)


@pytest.mark.parametrize("kind", MONOMIAL_KINDS)
def test_monomial_stage_matches_lifted_kraus_oracles(kind):
    stage, kraus = _monomial_stage(kind)
    assert stage._map is not None and stage._left is None  # selected from the Kraus data alone
    assert not any(arr.flags.writeable for arr in stage._map + stage.adjoint()._map)
    assert np.array_equal(stage.target_kraus, kraus) and not stage.target_kraus.flags.writeable
    assert np.array_equal(stage.adjoint().target_kraus, kraus.conj().transpose(0, 2, 1))
    lifted, weights = doubled_lift(stage)
    assert np.array_equal(stage.kraus, lifted) and np.array_equal(stage.weights, weights)
    assert stage.degree == len(kraus) << stage.signed
    rng = rng_from(101, MONOMIAL_KINDS.index(kind))
    n = stage.dim
    for adjoint in (False, True):
        channel = stage.adjoint() if adjoint else stage
        x = rng.standard_normal((n, n))
        assert frobenius(channel.apply_real(x) - kraus_sum_real(stage, x, adjoint)) <= 1e-13 * frobenius(x)
        a = random_operator(n, rng)
        assert frobenius(channel.apply(a) - lifted_kraus_sum(stage, a, adjoint)) <= 1e-13 * frobenius(a)
    a = random_operator(n, rng)
    assert frobenius(superoperator(stage) @ a.ravel() - stage.apply(a).ravel()) <= 1e-13 * frobenius(a)
    eye = np.eye(n)
    assert frobenius(stage.apply_real(eye) - eye) <= 1e-14


def test_unsigned_controlled_monomial_stage_has_live_cross_terms():
    # Its map is built on its lift, for the whole register.
    stage, _ = _monomial_stage("controlled, unsigned")
    assert zero_sum_defect(stage) > 0.1 and stage._layout is None and stage._map is not None
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    n = stage.dim
    x = rng_from(102).standard_normal((n, n))
    p = np.diag(pattern_projector(m, ctrl, pattern)).real == 1  # the controlled subspace
    cross = stage.apply_real(x)[np.ix_(p, ~p)]
    assert frobenius(cross) > 0.1 and frobenius(cross - kraus_sum_real(stage, x)[np.ix_(p, ~p)]) < 1e-13


@pytest.mark.parametrize("kind", MONOMIAL_KINDS)
def test_monomial_adjoint_is_the_transposed_map(kind):
    stage, _ = _monomial_stage(kind)
    adjoint = stage.adjoint()
    dst, src, coef = stage._map
    assert adjoint._map[0] is src and adjoint._map[1] is dst and adjoint._map[2] is coef  # no operands built
    assert np.array_equal(_real_matrix(adjoint), _real_matrix(stage).T)
    assert np.array_equal(adjoint.adjoint().apply_real(np.eye(stage.dim)), stage.apply_real(np.eye(stage.dim)))


def test_pauli_stage_map_merges_duplicates_and_drops_zeros():
    # I and Z share a permutation, as do X and Y: two groups, and on P X P
    # each keeps only the target pairs (t, u) whose coefficient survives.
    from qexpander.reduction import controlled_depolarizer

    control = np.zeros(16)
    control[:12] = 1  # 24 of the 32 basis states controlled
    stage = controlled_depolarizer(5, 4, control)
    assert stage.signed and stage._map is not None
    assert stage._map[0].size == 2 * 24 * 24 // 2 + 8 * 8  # 288 per group on P X P, Q X Q once
    assert np.all(stage._map[2] != 0)
    a = random_operator(32, rng_from(103))
    assert frobenius(stage.apply(a) - lifted_kraus_sum(stage, a)) < 1e-13


MONOMIAL_MUTANTS = {
    # name: (kind, the mutant's map from the stage's kraus, weights and layout)
    "wrong phase sign": ("flat CNOT.S and Y (x) S", lambda s: channels._monomial_map(
        s._kraus.conj(), s._weights, s._layout, s.dim)),
    "dropped weight": ("targeted phased permutations", lambda s: channels._monomial_map(
        s._kraus, np.full(len(s._weights), 1 / len(s._weights)), s._layout, s.dim)),
    # the map of the signed stage on the same record, which has no cross terms
    "dropped cross term": ("controlled, unsigned", lambda s: Channel(
        s.target_kraus, s.target_weights, qubits=s.qubits, targets=s.targets, control=s.control, signed=True)._map),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_MUTANTS))
def test_monomial_oracle_rejects_mutants(name):
    kind, mutate = MONOMIAL_MUTANTS[name]
    stage, _ = _monomial_stage(kind)
    mutant = object.__new__(Channel)._build(
        stage._kraus, stage._weights, stage.qubits, stage.targets, stage.control, stage.signed, True, mutate(stage)
    )
    x = rng_from(104).standard_normal((stage.dim, stage.dim))
    want = kraus_sum_real(stage, x)
    assert frobenius(stage.apply_real(x) - want) <= 1e-13 * frobenius(x)
    assert frobenius(mutant.apply_real(x) - want) > 1e-3 * frobenius(x)


def test_stage_record_is_the_kraus_stack_it_was_built_from(tmp_path):
    # target_kraus is bit for bit the constructor input for every kernel
    # kind, the adjoint's is U_d^dag, and sign doubling shares the stack.
    rng = rng_from(106)
    haar = np.array([random_unitary_channel(2, 1, rng).target_kraus[0] for _ in range(3)])
    pauli = np.array([np.kron(X, Z), np.kron(Y, I), np.kron(Z, Z)])
    w = np.array([0.5, 0.3, 0.2])
    stages = {
        "flat": (Channel(haar, w), haar),
        "structured": (Channel(haar, w, qubits=3, targets=(2, 0), control=[0, 1]), haar),
        "monomial": (Channel(pauli, w, qubits=3, targets=(1, 2)), pauli),
        "signed": (Channel(haar, w, qubits=3, targets=(0, 2), signed=True), haar),
    }
    for name, (stage, given) in stages.items():
        assert stage.target_kraus.tobytes() == given.tobytes(), name
        assert stage.adjoint().target_kraus.tobytes() == given.conj().transpose(0, 2, 1).tobytes(), name
        assert not stage.target_kraus.flags.writeable
    assert stages["monomial"][0]._map is not None and stages["flat"][0]._map is None
    for name in ("flat", "monomial"):
        stage = stages[name][0]
        assert sign_double(stage)._kraus is stage._kraus and sign_double(stage).signed
    three = Channel.staged(stage for name, (stage, _) in stages.items() if name != "flat")
    packed, pairs = tmp_path / "packed.json", tmp_path / "pairs.json"
    save_channel(three, packed)
    doc = json.loads(packed.read_text())
    for entry, stage in zip(doc["stages"], three.stages):
        entry["kraus"] = [matrix_to_json(u) for u in stage.target_kraus]
        del entry["kraus_base64"]
    pairs.write_text(json.dumps(doc))
    for path in (packed, pairs):
        loaded = load_channel(path).stages
        for stage, given in zip(loaded, (haar, pauli, haar)):
            assert stage.target_kraus.tobytes() == given.tobytes(), path.name


def test_dense_and_nearly_monomial_stacks_take_the_gemm_kernel():
    rng = rng_from(105)
    haar = random_unitary_channel(3, 2, rng)
    assert haar._map is None and haar._left is not None
    mixed = Channel(np.array([np.kron(X, Z), random_unitary_channel(2, 1, rng).kraus[0]]), [0.5, 0.5])
    assert mixed._map is None  # one dense operator makes the whole stage dense
    nearly = np.kron(X, Y)
    nearly[0, 0] = 1e-17  # an exact zero is required, not a small one
    ch = Channel((nearly, np.eye(4)), [0.5, 0.5])
    assert ch._map is None
    a = random_operator(4, rng)
    assert frobenius(ch.apply(a) - lifted_kraus_sum(ch, a)) < 1e-13


def test_monomial_stages_never_join_gemm_runs():
    stage, _ = _monomial_stage("controlled, signed")
    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    dense = Channel(random_unitary_channel(2, 2, rng_from(106)).kraus, [0.5, 0.5], qubits=m, targets=targets,
                    control=control, signed=True)
    ch = Channel.staged((dense, stage, stage, dense, dense))
    assert [len(run) for run in ch._runs] == [1, 1, 1, 2]
    a = random_operator(ch.dim, rng_from(107))
    assert frobenius(ch.apply(a) - lifted_kraus_sum(ch, a)) < 1e-12
    assert frobenius(ch.adjoint().apply(a) - lifted_kraus_sum(ch, a, adjoint=True)) < 1e-12


def test_sign_double_and_control_of_monomial_stages():
    from qexpander.channels import sign_double
    from qexpander.reduction import controlled_channel

    flat, _ = _monomial_stage("flat CNOT.S and Y (x) S")
    doubled = sign_double(flat)
    assert doubled.signed and doubled._map is not None and doubled.degree == 6
    assert np.array_equal(doubled.target_kraus, flat.target_kraus)
    a = random_operator(4, rng_from(108))
    assert frobenius(doubled.apply(a) - flat.apply(a)) < 1e-13
    # controlled on qubits (0, 2) of 4 where qubit 1 is 1: a signed monomial stage with P X P mixing only
    control = [0, 1, 0, 1]
    ctrl = controlled_channel(Channel.staged((doubled, doubled)), (3, 1), control, 4)
    assert len({id(s) for s in ctrl.stages}) == 1 and ctrl.stages[0]._map is not None
    b = random_operator(16, rng_from(109))
    assert frobenius(ctrl.apply(b) - lifted_kraus_sum(ctrl, b)) < 1e-12
    with pytest.raises(ValueError, match="cross terms"):
        sign_double(_monomial_stage("controlled, unsigned")[0])


# --- stages with live cross terms: one flat kernel on the lift --------------


def test_nearly_zero_sum_stage_keeps_its_structured_kernel():
    # {U, -e^{i eps} U} at equal weights: ||M||_F = |1 - e^{i eps}| ||U||_F / 2,
    # about eps for two qubits.  At or below ATOL the stage keeps its layout and
    # zeroes the cross blocks, which moves the action by at most ATOL ||X||_F.
    from qexpander.linalg import ATOL

    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    p = np.diag(pattern_projector(m, ctrl, pattern)).real == 1  # the controlled subspace
    u = random_unitary_channel(2, 1, rng_from(150)).target_kraus[0]
    x = rng_from(151).standard_normal((2**m, 2**m))
    for eps, structured in ((0.5 * ATOL, True), (3 * ATOL, False)):
        stage = Channel([u, -np.exp(1j * eps) * u], [0.5, 0.5], qubits=m, targets=targets, control=control)
        assert 0.0 < zero_sum_defect(stage) and (zero_sum_defect(stage) <= ATOL) == structured
        assert (stage._layout is not None) == structured
        out = stage.apply_real(x)
        assert frobenius(out - kraus_sum_real(stage, x)) <= (ATOL if structured else 1e-13) * frobenius(x)
        assert out[np.ix_(p, ~p)].any() != structured  # only the structured kernel zeroes the cross blocks


def _live_cross_need(degree, qubits):
    """The bytes the lift of a stage with live cross terms is checked for:
    its (D, N, N) complex stack and the kernel its rule picks on all qubits."""
    return 16 * degree * 4**qubits + channels.kernel_bytes(degree, qubits)


def test_lift_checks_the_memory_budget_before_it_allocates(monkeypatch):
    from qexpander import linalg

    m, targets, ctrl, pattern, negate = STRUCTURED_CASES["non-contiguous, pattern"]
    control = _control_vector(m, targets, ctrl, pattern, negate)
    kraus = random_unitary_channel(2, 2, rng_from(152)).target_kraus
    need = _live_cross_need(2, m)
    lifts = []
    lift = channels._lift
    monkeypatch.setattr(channels, "_lift", lambda *args: lifts.append(1) or lift(*args))
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need))
    assert Channel(kraus, [0.3, 0.7], qubits=m, targets=targets, control=control)._layout is None and lifts
    lifts.clear()
    monkeypatch.setattr(linalg, "memory_budget", lambda: float(need - 1))
    message = rf"^2 lifted Kraus operators of 16 x 16 and their kernel needs {need} bytes, over the memory budget"
    with pytest.raises(ValueError, match=message):
        Channel(kraus, [0.3, 0.7], qubits=m, targets=targets, control=control)
    assert not lifts


def test_live_cross_stage_round_trips_through_a_channel_file(tmp_path):
    # The record is kept as given: stack, targets and control, bit for bit.
    stage, _ = _monomial_stage("controlled, unsigned")
    dense = _live_cross_stage()
    for ch in (stage, dense, Channel.staged((dense, stage, dense))):
        path = tmp_path / "live.json"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert len(loaded.stages) == len(ch.stages)
        for got, want in zip(loaded.stages, ch.stages):
            assert want._layout is None and got._layout is None and not got.signed
            assert got.target_kraus.tobytes() == want.target_kraus.tobytes()
            assert got.target_weights.tobytes() == want.target_weights.tobytes()
            assert got.targets == want.targets and np.array_equal(got.control, want.control)
        x = rng_from(153).standard_normal((ch.dim, ch.dim))
        assert np.array_equal(loaded.apply_real(x), ch.apply_real(x))
        with pytest.raises(ValueError, match="cross terms"):
            sign_double(loaded)


def _lift_negated_control(x, qubits, targets, control, lift=channels._lift):
    return lift(x, qubits, targets, None if control is None else ~control)


def _lift_without_q(x, qubits, targets, control):
    idx = split_index(qubits, targets)
    on = idx if control is None else idx[control]
    lifted = np.zeros((len(x), 2**qubits, 2**qubits), dtype=complex)
    lifted[:, on[:, :, None], on[:, None, :]] = x[:, None]
    return lifted


@pytest.mark.parametrize("mutant", [_lift_negated_control, _lift_without_q])
def test_lift_oracle_rejects_mutants(monkeypatch, mutant):
    # A stage built on a wrong lift must fail the lifted Kraus sum, whose
    # elements the oracle builds from the record alone.
    for make in (_live_cross_stage, lambda: _monomial_stage("controlled, unsigned")[0]):
        stage = make()
        x = rng_from(154).standard_normal((stage.dim, stage.dim))
        want = kraus_sum_real(stage, x)
        assert frobenius(stage.apply_real(x) - want) <= 1e-13 * frobenius(x)
        with monkeypatch.context() as patch:
            patch.setattr(channels, "_lift", mutant)
            wrong = object.__new__(Channel)._build(
                stage._kraus, stage._weights, stage.qubits, stage.targets, stage.control, False, stage._map is not None
            )
        assert frobenius(wrong.apply_real(x) - want) > 1e-3 * frobenius(x)
