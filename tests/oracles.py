"""Test-only fixtures and dense oracles.

The library computes kappa only matrix-free; the dense superoperator W and
the SVD of Pi W Pi live here, as the oracle the engine is checked against.
The channel helpers (identity, materialized composition, tensor product)
and the random operators build test inputs; the doubled lift rebuilds a
stage's full-space elements from its stored parts.  The Kraus-pair Gram
matrix and a per-shot random-pair Hadamard-test sampler are the oracle
for Arthur's contraction estimate.  The dense qubit embedding, pattern
projector and gate product are the oracle for the row-wise circuit
simulator and the reduction's control vectors; the three-stage witness
verifier is the oracle for its folded one-stage form.  The per-step
Rayleigh-Ritz Lanczos solver and the per-term uniformization series are
the bit-for-bit oracles for the engine's lean loops; the lifted Kraus
sum, also in real coordinates, is the complex oracle for the engine's
real-arithmetic stage kernel.  The row-major kernel, whose left operand
is ordered (d, half, target row) and whose first product is copied side
by side before the second GEMM, is its bit-for-bit oracle; on the same
stages rebuilt for the GEMM kernel, it is the oracle for the
superoperator kernel.  GEMM operands cast from the Kraus stacks and
applied stage by stage are the bit-for-bit oracle for a float32 flat
channel and its adjoint.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from qexpander import channels, spectral
from qexpander.channels import Channel, per_stage
from qexpander.circuits import GateCircuit, simulate_unitary
from qexpander.linalg import (
    check_square,
    frobenius,
    hermitian_from_real,
    phi_state,
    real_coordinates,
    rng_from,
    split_index,
)
from qexpander.reduction import controlled_depolarizer, rest_bits
from qexpander.spectral import GapReport, _deflate, _iterative_report, _unit_traceless
from qexpander.thermalization import MAX_SERIES_TERMS, SERIES_TOL


def bitwise_split_index(num_qubits: int, qubits) -> np.ndarray:
    """The oracle for :func:`qexpander.linalg.split_index`: each register's
    values spread bit by bit onto its qubits' positions (qubit 0 most
    significant), rest states down the rows and `qubits` across."""
    rest = [q for q in range(num_qubits) if q not in qubits]

    def spread(register):
        values = np.arange(2 ** len(register))
        out = np.zeros_like(values)
        for pos, q in enumerate(register):
            out |= ((values >> (len(register) - 1 - pos)) & 1) << (num_qubits - 1 - q)
        return out

    return spread(rest)[:, None] | spread(list(qubits))[None, :]


def embed(op: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    """Lift an operator acting on the given qubits to the full m-qubit space.

    `op` is a 2^k x 2^k matrix whose tensor factors correspond, in order, to
    `qubits` (each an index in [0, num_qubits), qubit 0 = most significant bit).
    """
    idx = split_index(num_qubits, qubits)
    op = check_square(op)
    if op.shape[0] != idx.shape[1]:
        raise ValueError(f"operator shape {op.shape} does not match {len(qubits)} qubits")
    full = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    full[idx[:, :, None], idx[:, None, :]] = op
    return full


def pattern_projector(num_qubits: int, qubits, values) -> np.ndarray:
    """Projector onto basis states whose bits on `qubits` spell `values`."""
    if len(qubits) != len(values):
        raise ValueError("qubits and values must have equal length")
    n = 2**num_qubits
    mask = np.ones(n, dtype=bool)
    for q, v in zip(qubits, values):
        bits = (np.arange(n) >> (num_qubits - 1 - q)) & 1
        mask &= bits == v
    return np.diag(mask.astype(complex))


def dense_unitary(circuit: GateCircuit) -> np.ndarray:
    """Product of the full 2^m x 2^m gate matrices in circuit order, each
    P embed(base) + (I - P) with P the projector onto its control pattern."""
    n = 2**circuit.num_qubits
    u = np.eye(n, dtype=complex)
    for gate in circuit.gates:
        if gate.kind == "GLOBAL_PHASE":
            g = complex(gate.phase) * np.eye(n, dtype=complex)
        else:
            p = pattern_projector(circuit.num_qubits, gate.controls, gate.polarities)
            g = p @ embed(gate.base_matrix(), gate.targets, circuit.num_qubits) + (np.eye(n) - p)
        u = g @ u
    return u


def random_operator(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_traceless(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = random_operator(dim, rng)
    return a - np.trace(a) / dim * np.eye(dim)


def identity_channel(qubits: int = 1) -> Channel:
    return Channel.uniform((np.eye(2**qubits, dtype=complex),))


def compose(outer: Channel, inner: Channel) -> Channel:
    """Materialized composition (outer . inner)(A) = outer(inner(A)): the
    weighted Kraus products {U_o U_i}."""
    n = outer.dim
    kraus = (outer.kraus[:, None] @ inner.kraus[None]).reshape(-1, n, n)
    return Channel(kraus, np.outer(outer.weights, inner.weights).reshape(-1))


def flatten(channel: Channel) -> Channel:
    """A staged channel as one flat stage holding every weighted Kraus
    product, materialized by :func:`compose`."""
    out = channel.stages[0]
    for s in channel.stages[1:]:
        out = compose(s, out)
    return out


def tensor(left: Channel, right: Channel) -> Channel:
    """Tensor product channel acting on the combined space."""
    n = left.dim * right.dim
    kraus = np.einsum("iac,jbd->ijabcd", left.kraus, right.kraus).reshape(-1, n, n)
    return Channel(kraus, np.outer(left.weights, right.weights).reshape(-1))


def doubled_lift(stage: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The full-space elements and weights of one stage, built from its
    stored parts alone: P embed(U) + Q for each target element U, with a
    signed stage's half set doubled to {+U, -U} at weights w / 2."""
    x, w = stage.target_kraus, stage.target_weights
    if stage.signed:
        x, w = np.concatenate([x, -x]), np.concatenate([w, w]) / 2.0
    m, n = stage.qubits, stage.dim
    on = np.ones(n)
    if stage.control is not None:
        on[split_index(m, stage.targets)] = stage.control[:, None]
    p, q = np.diag(on), np.diag(1.0 - on)
    return np.array([p @ embed(u, stage.targets, m) + q for u in x]), w


def lifted_kraus_sum(channel: Channel, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Phi(A) stage by stage as sum_d w_d U_d A U_d^dag over the
    :func:`doubled_lift` elements; with `adjoint`, Phi^dag(A), the stages
    in reverse as sum_d w_d U_d^dag A U_d over the same elements."""
    for s in reversed(channel.stages) if adjoint else channel.stages:
        x, w = doubled_lift(s)
        if adjoint:
            x = x.conj().transpose(0, 2, 1)
        a = sum(wd * (u @ a @ u.conj().T) for wd, u in zip(w, x))
    return a


def kraus_sum_real(channel: Channel, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The complex oracle in real coordinates: Re B + Im B for
    B = :func:`lifted_kraus_sum` of the Hermitian A with real coordinates x."""
    return real_coordinates(lifted_kraus_sum(channel, hermitian_from_real(x), adjoint))


def row_major_left(stage: Channel) -> np.ndarray:
    """A stage's left kernel operand in row-major order, rebuilt from the
    Kraus operators U_d = R_d + i J_d its kernel acts with: rows (d, h, i)
    of the blocks [[R_d, J_d], [J_d, -R_d]].  Those are its target
    operators, or the :func:`doubled_lift` elements of an unsigned stage
    with live cross terms, which has a control and no layout."""
    x = stage.target_kraus if stage._layout is not None or stage.control is None else doubled_lift(stage)[0]
    d, k = x.shape[:2]
    left = np.empty((d, 2, k, 2, k))
    for h, g, block in ((0, 0, x.real), (0, 1, x.imag), (1, 0, x.imag), (1, 1, -x.real)):
        left[:, h, :, g, :] = block
    return left.reshape(2 * d * k, 2 * k)


def row_major_mix(left: np.ndarray, right: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The stage kernel on :func:`row_major_left` and the stage's right
    operand (the stack of [w_d R_d^T; w_d J_d^T]), for the target-major
    (k, r r k) block t: [X; X^T] stacked through a 4-axis transpose, the
    first GEMM's (2 D k, cols) product copied side by side into a
    (cols, 2 D k) operand, then the second GEMM."""
    k = right.shape[1]
    cols = t.shape[1]
    r = math.isqrt(cols // k)
    stacked = np.empty((2 * k, cols))
    stacked[:k] = t
    stacked[k:].reshape(k, r, r, k)[...] = t.reshape(k, r, r, k).transpose(3, 2, 1, 0)
    halves = len(left) // k
    side_by_side = (left @ stacked).reshape(halves, cols, k).transpose(1, 0, 2).reshape(cols, halves * k)
    return (side_by_side @ right).reshape(k, cols)


def row_major_apply_real(channel: Channel, x: np.ndarray) -> np.ndarray:
    """`channel.apply_real(x)` with every stage kernel call made by
    :func:`row_major_mix` on :func:`row_major_left`: the same BLAS calls
    on the same operand values, so bit for bit the same result."""
    lefts = {}

    def mix(stage, t):
        if id(stage) not in lefts:
            lefts[id(stage)] = row_major_left(stage)
        return row_major_mix(lefts[id(stage)], stage._right, t)

    with mock.patch.object(channels, "_mix_real", mix):
        return channel.apply_real(x)


def gram_operands(channel: Channel, dtype) -> tuple[list, list]:
    """The GEMM-pair operands (left, right) of Phi^dag Phi for a channel Phi
    of flat GEMM-pair stages: a list for its stages, first to last, and one
    for its adjoint's, built by the stage operand builder in `dtype` from
    each distinct stage's Kraus stack {U_d} and from {U_d^dag}, cast once."""
    made = {}
    for s in channel.stages:
        if id(s) not in made:
            re, im, w = (a.astype(dtype) for a in (s._kraus.real, s._kraus.imag, s._weights))
            adjoint = channels._operands(re.transpose(0, 2, 1), -im.transpose(0, 2, 1), w)
            made[id(s)] = channels._operands(re, im, w), adjoint
    pairs = [made[id(s)] for s in channel.stages]
    return [forward for forward, _ in pairs], [adjoint for _, adjoint in reversed(pairs)]


def apply_operands(operands: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Phi in real coordinates for flat stages with GEMM-pair `operands`
    (see :func:`gram_operands`), at their dtype: per stage, the left
    operand times [X; X^T], read as a (k, 2 D k) matrix, times the right."""
    for left, right in operands:
        x = (left @ np.concatenate((x, x.T))).reshape(len(x), -1) @ right
    return x


def gemm_stages(channel: Channel) -> Channel:
    """`channel` with every superoperator stage rebuilt from its record on
    the GEMM kernel, so that :func:`row_major_apply_real` of the result is
    an oracle for the superoperator kernel."""

    def rebuild(stage: Channel) -> Channel:
        if stage._super is None:
            return stage
        with mock.patch.object(channels, "takes_superoperator", lambda degree, qubits: False):
            return object.__new__(Channel)._build(
                stage._kraus, stage._weights, stage._qubits, stage._targets, stage._control, stage._signed, False
            )

    return per_stage(channel, rebuild)


def is_regular(channel: Channel) -> bool:
    """True iff every stage has all weights equal to 1/D."""
    return all(np.allclose(s.weights, 1.0 / len(s.weights), rtol=0, atol=1e-12) for s in channel.stages)


def superoperator(channel: Channel) -> np.ndarray:
    """Kron-sum oracle W with W vec(A) = vec(Phi(A)): the product over the
    stages of sum_d w_d U_d (x) conj(U_d), with U_d the lifted Kraus operators."""
    out = None
    for s in channel.stages:
        w = sum(wd * np.kron(u, u.conj()) for wd, u in zip(s.weights, s.kraus))
        out = w if out is None else w @ out
    return out


def dense_kappa(channel: Channel) -> float:
    """Oracle kappa: the top singular value of Pi W Pi, Pi the projector onto
    the traceless subspace; exact to dense_rounding(channel)."""
    phi = phi_state(channel.dim)
    pi = np.eye(channel.dim**2) - np.outer(phi, phi.conj())
    return float(np.linalg.svd(pi @ superoperator(channel) @ pi, compute_uv=False)[0])


def dense_rounding(channel: Channel) -> float:
    """N^2 eps.  The SVD is backward stable: its singular values are exact
    for a matrix within p eps ||Pi W Pi||_2 of the input, so by Weyl's
    inequality each moves by at most that; ||Pi W Pi||_2 <= 1 for a
    mixed-unitary channel, and p = N^2, the order of the matrix, is the
    customary growth factor."""
    return channel.dim**2 * float(np.finfo(float).eps)


def pair_overlaps(channel: Channel, psi: np.ndarray) -> np.ndarray:
    """The D x D Gram matrix G_{de} = <psi|V_{d,e}|psi> = tr(B_d^dag B_e),
    B_d = U_d A U_d^dag with A = unvec(psi), over a single-stage channel's
    lifted Kraus operators; V_{d,e} is the pair unitary
    (U_d (x) conj(U_d))^dag (U_e (x) conj(U_e))."""
    n = channel.dim
    kraus = channel.kraus
    images = kraus @ np.asarray(psi).reshape(n, n) @ kraus.conj().transpose(0, 2, 1)
    images = images.reshape(len(kraus), n * n)
    return images.conj() @ images.T


def gram_contraction_sq(channel: Channel, psi: np.ndarray) -> float:
    """||Phi(unvec psi)||_F^2 = sum_{d,e} w_d w_e Re G_{de}."""
    w = channel.weights
    return float(w @ pair_overlaps(channel, psi).real @ w)


def random_pair_p0(channel: Channel, psi: np.ndarray) -> float:
    """Pr(0) of one Hadamard test of V_{d,e} with (d, e) drawn from w (x) w:
    the w (x) w average of the pair probabilities (1 + Re G_{de})/2, the
    d = e pairs (V_{d,d} = I, probability 1) included."""
    w = channel.weights
    return float(w @ (0.5 * (1.0 + pair_overlaps(channel, psi).real)) @ w)


def sample_random_pair_tests(channel: Channel, psi: np.ndarray, shots: int, rng: np.random.Generator) -> float:
    """Per-shot oracle for sampled Arthur: each of `shots` Hadamard tests
    draws its own pair (d, e) from w (x) w and its own outcome from that
    pair's probability; returns 2k/shots - 1 for k zero outcomes."""
    w = channel.weights
    p0 = 0.5 * (1.0 + pair_overlaps(channel, psi).real)
    d = rng.choice(len(w), size=shots, p=w)
    e = rng.choice(len(w), size=shots, p=w)
    k = np.count_nonzero(rng.random(shots) < p0[d, e])
    return 2.0 * k / shots - 1.0


def suggested_shots(instance) -> int:
    """Shot budget 100/s^2 from the squared-threshold separation
    s = alpha^2 - beta^2."""
    s = instance.alpha**2 - instance.beta**2
    return max(1, math.ceil(100.0 / s**2))


def yes_witness(spec, psi: np.ndarray) -> np.ndarray:
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


def three_stage_witness_verifier(spec) -> Channel:
    """The witness verifier of `spec` for any V, as three stages:
    conjugation by V on the verifier qubits, the controlled depolarizer on
    the indicator where the top qubit is 0, and conjugation by V^dag."""
    layout = spec.layout
    m = layout.total_qubits
    verifier = tuple(range(layout.verifier_qubits))
    v = simulate_unitary(spec.verifier)
    top_is_zero = rest_bits(m, (layout.indicator_qubit,))[:, layout.top_qubit] == 0
    return Channel.staged(
        (
            Channel((v,), (1.0,), qubits=m, targets=verifier),
            controlled_depolarizer(m, layout.indicator_qubit, top_is_zero),
            Channel((v.conj().T,), (1.0,), qubits=m, targets=verifier),
        )
    )


def lanczos_oracle(
    channel, tol: float = 1e-9, max_iter: int = 10000, seed: int = 0, kraus_sum: bool = False
) -> GapReport:
    """Thick-restart Lanczos with a full eigendecomposition of the Ritz
    matrix on every step (so `ritz_solves` = `matvecs`), the stop test
    |s_last| ||q|| <= target read off it; otherwise the engine's
    algorithm, start vector, stop rule and restart (see
    spectral_gap_iterative).  M is applied by the engine's
    Channel.apply_real, or with `kraus_sum` by the complex oracle
    :func:`kraus_sum_real`, then deflated once."""
    dim = channel.dim
    adjoint = channel.adjoint()
    n = dim * dim
    rng = rng_from(seed, 0)

    def m_apply(x):
        x = x.reshape(dim, dim)
        if kraus_sum:
            y = kraus_sum_real(channel, kraus_sum_real(channel, x), adjoint=True)
        else:
            y = adjoint.apply_real(channel.apply_real(x))
        return _deflate(y.ravel(), dim)

    v = _unit_traceless(rng.standard_normal(n), dim)
    mv = m_apply(v)
    action = float(np.linalg.norm(mv))
    if action <= 1e-14:
        return _iterative_report(0.0, v, dim, 1, action, True, 1, 0)
    size = min(spectral.LANCZOS_BASIS, n - 1)
    keep = min(spectral.LANCZOS_KEEP, size - 1)
    basis = np.empty((size, n))
    images = np.empty((size, n))
    ritz = np.zeros((size, size))
    basis[0], images[0] = v, mv
    k, cycles, matvecs = 0, 1, 1
    while True:
        ritz[k, : k + 1] = basis[: k + 1] @ images[k]
        k += 1
        thetas, vecs = np.linalg.eigh(ritz[:k, :k])
        theta, s = float(thetas[-1]), vecs[:, -1]
        target = tol * max(2.0 * float(np.sqrt(max(theta, 0.0))), tol)
        q = images[k - 1] - ritz[k - 1, :k] @ basis[:k]
        q = _deflate(q - (basis[:k] @ q) @ basis[:k], dim)
        beta = float(np.linalg.norm(q))
        invariant = beta <= 1e-12
        stop = invariant or matvecs >= max_iter
        if stop or abs(s[-1]) * beta <= target:
            y = s @ basis[:k]
            resid = float(np.linalg.norm(s @ images[:k] - theta * y))
            if stop or resid <= target:
                converged = invariant or resid <= target
                return _iterative_report(theta, y, dim, cycles, resid, converged, matvecs, matvecs)
        if k == size:
            top = vecs[:, ::-1][:, :keep]
            basis[:keep], images[:keep] = top.T @ basis[:k], top.T @ images[:k]
            ritz[:keep, :keep] = np.diag(thetas[::-1][:keep])
            k = keep
            cycles += 1
        basis[k] = q / beta
        images[k] = m_apply(basis[k])
        matvecs += 1


def series_oracle(model, rho0: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Uniformization term by term, in the real coordinates of
    Channel.apply_real: each power's Poisson weights from their own exp,
    powers collected in lists and summed by one GEMM per block of
    min(J, 32); the stop rule tau(K) r_{K-1} <= SERIES_TOL, the I/N tail
    and the cap of thermalization._evolve_series, without its early exits.
    Returns the states, the applications and tau(K) r_{K-1}."""
    channel = model.channel
    n = model.dim
    x = model.rate * times
    x_max = float(x[-1])
    log_x = np.log(np.where(x > 0, x, 1.0))
    mixed = np.eye(n) / n
    states = np.zeros((len(times), n * n))
    mass = np.zeros(len(times))
    block = min(len(times), 32)
    pending_w, pending_t = [], []

    def tail(count: int) -> float:  # the Chernoff bound on P(Pois(x_max) >= count)
        if x_max == 0:
            return 0.0
        return 1.0 if count <= x_max else math.exp(count * (1 + math.log(x_max / count)) - x_max)

    term = real_coordinates(rho0)
    k = 0
    while True:
        weights = np.exp(k * log_x - x - math.lgamma(k + 1))
        weights[x == 0] = float(k == 0)
        mass += weights
        pending_w.append(weights)
        pending_t.append(term)
        bound = tail(k + 1) * frobenius(term - mixed)
        done = bound <= SERIES_TOL
        if done or len(pending_t) == block:
            terms = np.reshape(pending_t, (len(pending_t), n * n))
            states += np.stack(pending_w, axis=1) @ terms
            pending_w, pending_t = [], []
        if done:
            break
        if k == MAX_SERIES_TERMS:
            raise ValueError("the series reached its term cap")
        term = channel.apply_real(term)
        k += 1
    states = states.reshape(len(times), n, n)
    diag = np.arange(n)
    states[:, diag, diag] += (1.0 - mass)[:, None] / n
    return hermitian_from_real(states), k, bound
