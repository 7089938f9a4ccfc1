"""Unital channels built from unitary Kraus operators.

A channel here is a weighted mixture of unitary conjugations,

    Phi(A) = sum_d w_d U_d A U_d^dag,      sum_d w_d = 1,  w_d >= 0,

acting on operators over m qubits.  The D-regular case (all weights 1/D)
is the quantum-expander form; non-uniform weights arise from weak-coupling
thermalization models.  Every such channel is trace preserving and unital.

:class:`Channel` is a tuple of such mixtures (stages), applied
first-to-last.  A stage's record is its read-only (D, 2^k, 2^k) stack of
Kraus operators on k target qubits T, its weights as a read-only (D,)
array, and optionally a 0/1 control vector c over the computational
basis of the other m - k qubits; its kernel (one of the three below) is
derived from the stack once.  Its
elements on the full space are P (U_d (x) I) + Q with P = diag(c) (x) I_T
and Q = I - P; P commutes with every lifted U_d by construction.  A flat stage has T = all
qubits and no control.  A *signed* stage stores only a half set {U_d}
with weights w_d and stands for the 2D elements {+U_d, -U_d}, each of
weight w_d / 2: the action is that of the half set, and the element sum
M = sum w_d U_d over the 2D elements is zero by construction.

A structured stage applies on P X P alone and zeroes the cross blocks
P X Q and Q X P, as a zero-sum stage does: signed, with P or Q empty, or
with ||M||_F <= ATOL for M = sum_d w_d U_d.  A stage with live cross terms
(any other) keeps its record, but its kernel is derived from its elements
on the whole register (:func:`_lift`), so it applies as a flat stage:
cross terms live only in the lift.

Every stage maps Hermitian operators to Hermitian operators and is
C-linear, so it acts on real coordinates: a Hermitian A has coordinates
X = Re A + Im A (an isometry; A = (X + X^T)/2 + i (X - X^T)/2), and
Phi(A) has X' = Re Phi(X) - (Im Phi(X))^T, with X taken as a real matrix.
For Kraus operators U_d = R_d + i J_d that is

    X' = sum_d w_d (R_d X R_d^T + J_d X J_d^T + J_d X^T R_d^T - R_d X^T J_d^T),

two real GEMMs at 6 D k^3 multiply-adds for D operators on k dimensions,
where the complex form sum_d w_d U_d A U_d^dag takes two complex GEMMs at
8 D k^3.  :meth:`Channel.apply_real` runs every stage on one of three
kernels, derived once, read-only, from the stage's Kraus stack;
:meth:`Channel.apply` runs on it.  The input check is one type, dtype
and shape comparison; only an input that fails it gets the full check
and conversion.  Power compositions of expanders and the hardness
reduction are multi-stage, since their flattened degree grows
geometrically: the Kraus products are never materialized.

- **GEMM pair.**  The left operand stacks the rows of
  [[R_d, J_d], [J_d, -R_d]] ordered by target row first, the right one
  [w_d R_d^T; w_d J_d^T].  On one k x k block (every flat stage, and
  every controlled run with one active rest state), [X; X^T] is one
  concatenate and, by this row order, the first GEMM's product read as a
  (k, 2 D k) matrix is the second GEMM's left operand as it stands.  A
  block of r > 1 rest states (r^2 blocks of k x k) reorders the first
  product once for the second.
- **Superoperator.**  The real k^2 x k^2 matrix L = S_R + S_I P of
  :func:`_superoperator`, S = sum_d w_d U_d (x) conj(U_d) and P the
  transpose permutation: X' = L X on a block read as a vector, k^2
  multiply-adds per entry whatever D.  A flat stage is one GEMV.  The
  P X P block of a structured stage, r active rest states, is folded over
  its rest pairs (:func:`_fold`), multiplied by L as one (k^2, r^2) GEMM
  and unfolded.
  The adjoint stage uses L^T, a view.
- **Monomial map.**  A stage whose Kraus operators each have one nonzero
  entry per column (Pauli strings, permutations with phases), chosen from
  the Kraus data alone, derives a sparse real-coordinate map
  (:func:`_monomial_map`), run as one gather and one ``np.bincount`` in
  time linear in its entries.  Its adjoint is the transposed map.

Between the first two, :func:`takes_superoperator` decides from D and the
number of target qubits alone: L when the GEMM pair's 6 D 2^k multiply-adds
per entry are at least SUPER_FACTOR = 6 times L's 4^k and L takes at most
SUPER_MAX_BYTES (512 kB, 4 qubits).  Measured per application (one BLAS
thread, 2-core x86_64, numpy 2.4): a flat 4-qubit stage of D = 32 takes
55 us on the GEMM pair and 15 us on L; at D = 8, 21 us against 12 us
alone, but in the thermalize benchmark, where other data evicts L's
512 kB from cache between applications, L gave no gain and 0.9 MB more
peak memory, so D = 8 stays on the GEMM pair.  A signed 2-qubit D = 8
stage controlled by one qubit of 7 takes 0.90 ms on the GEMM pair and
0.09 ms on L, and of 9 qubits 17.3 ms and 1.8 ms.

Kernels are float64, or float32 in the copy :meth:`Channel.astype`
derives from the same Kraus stacks for the gap engine's float32 phases.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import (
    ATOL,
    check_memory,
    check_unitary,
    frobenius,
    haar_unitary,
    hermitian_from_real,
    paulis,
    qubits_for_dim,
    real_coordinates,
    split_index,
)

#: NumPy's float64 descriptor, a channel's dtype unless :meth:`Channel.astype`
#: sets float32.  Builtin descriptors are singletons, so `is` tests them.
_REAL = np.dtype(float)

_EXPLICIT_KRAUS = (
    "a multi-stage channel exposes no explicit Kraus operators or weights; "
    "its Kraus products are never materialized"
)

#: The kernel rule's factor: a stage takes its superoperator L when the
#: GEMM pair's multiply-adds per entry reach this many times L's.
SUPER_FACTOR = 6
#: The kernel rule's cap on L's bytes: a stage on 4 qubits at most.
SUPER_MAX_BYTES = 8 * 16**4


def takes_superoperator(degree: int, qubits: int) -> bool:
    """The kernel rule for a non-monomial stage of `degree` Kraus operators
    on `qubits` target qubits: True when it applies its superoperator L
    (see :func:`_superoperator`), whose 4^k multiply-adds per entry are at
    most 1/SUPER_FACTOR of the GEMM pair's 6 D 2^k and whose 8 16^k bytes
    are at most SUPER_MAX_BYTES; else it applies the GEMM pair."""
    return SUPER_FACTOR * 4**qubits <= 6 * degree * 2**qubits and 8 * 16**qubits <= SUPER_MAX_BYTES


def kernel_bytes(degree: int, qubits: int) -> int:
    """The bytes of the kernel :func:`takes_superoperator` picks for a
    stage of `degree` Kraus operators on `qubits` target qubits: 8 16^k for
    L, 48 D 4^k for the GEMM operands."""
    return 8 * 16**qubits if takes_superoperator(degree, qubits) else 48 * degree * 4**qubits


class Channel:
    """Stages of weighted unitary mixtures on an m-qubit space, applied
    first-to-last.

    ``Channel(kraus, weights)`` is a flat stage on log2(N) qubits.  With
    ``qubits=m, targets=T`` the (D, 2^k, 2^k) `kraus` act on the k qubits
    T (tensor factors in that order) of an m-qubit space, and a 0/1
    `control` vector over the basis of the other qubits (ascending, qubit
    0 most significant) switches them on only where it is 1.  With
    ``signed=True`` the `kraus` and `weights` given are a half set: the
    stage's elements are {+U_d, -U_d}, each of weight w_d / 2.

    Invariants checked at construction of each stage: all elements finite
    and unitary (||U^dag U - I||_F <= 1e-10 * 2^k), weights nonnegative and
    summing to 1 within 1e-12, and unitality ||Phi(I) - I||_F <= 1e-10
    (automatic for unitary Kraus mixtures, asserted anyway).  Unitality is
    checked on the kernel the stage derived: a structured GEMM-pair or
    superoperator kernel on I_k alone, since Phi(I) - I repeats that
    k-qubit block's defect in each active rest-state block and is zero
    elsewhere, and every other kernel (flat, lifted, or a monomial map) on
    the whole register, for which it is built.
    """

    __slots__ = ("_left", "_right", "_weights", "_signed", "_stages", "_runs", "_qubits", "_dim", "_real",
                 "_targets", "_control", "_layout", "_kraus", "_map", "_super")

    def __init__(self, kraus, weights, *, qubits=None, targets=None, control=None, signed=False):
        try:
            x = np.array(kraus, dtype=complex)
        except ValueError as exc:
            raise ValueError("all Kraus operators must share one dimension") from exc
        if x.size == 0:
            raise ValueError("channel needs at least one Kraus operator")
        if x.ndim != 3 or x.shape[1] != x.shape[2]:
            raise ValueError(f"expected a stack of square Kraus operators, got shape {x.shape}")
        dim = x.shape[1]
        k = qubits_for_dim(dim)
        check_unitary(x)
        w = np.array(weights, dtype=float).reshape(-1)
        if w.size != len(x):
            raise ValueError(f"{w.size} weights for {len(x)} Kraus operators")
        if not np.all((w >= 0) & np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        m = k if qubits is None else int(qubits)
        targets = tuple(range(m)) if targets is None else tuple(int(q) for q in targets)
        if len(targets) != k:
            raise ValueError(f"{k}-qubit Kraus operators on {len(targets)} target qubits")
        if control is not None:
            control = np.array(control, dtype=float).reshape(-1)
            if control.size != 2 ** (m - k) or np.any((control != 0) & (control != 1)):
                raise ValueError(f"control must be a 0/1 vector of length {2 ** (m - k)}")
            control = control == 1
        # Monomial: no column of a unitary is zero, so this is one nonzero
        # entry per column, of unit modulus.
        self._build(x, w, m, targets, control, bool(signed), np.count_nonzero(x) == len(x) * dim)
        if self._layout is None or self._map is not None:
            eye = np.eye(2**m)  # a kernel built for the whole register
            image = self.apply_real(eye)
        else:
            eye = np.eye(dim)
            image = _mix_real(self, eye) if self._super is None else (self._super @ eye.ravel()).reshape(dim, dim)
        defect = frobenius(image - eye)
        if not defect <= ATOL:
            raise ValueError(f"channel is not unital: ||Phi(I) - I||_F = {defect:.3e}")

    def _build(self, x, w, qubits, targets, control, signed, monomial, kernel=None, real=_REAL) -> "Channel":
        """Store a validated stage, made read-only, and return it: its record,
        the Kraus stack `x` (the half set of a signed stage) with weights `w`,
        `targets` among `qubits` and `control`, and the kernel derived from
        the record once, at the float dtype `real`.  That is the map of
        :func:`_monomial_map` when `monomial`, else the superoperator of
        :func:`_superoperator` or the operands of :func:`_operands`, as
        :func:`takes_superoperator` picks.  A map, superoperator or operand
        pair already derived from the same data at `real` is passed as
        `kernel`.  A stage with live cross terms gets no layout, and its
        kernel is derived from :func:`_lift` of `x`, once the lifted stack
        and kernel fit the memory budget."""
        layout, stack = None, x
        if targets != tuple(range(qubits)) or control is not None:
            # The controlled subspace as on[i, a], the basis index of
            # target state i and active rest state a (there the elements
            # are U_d (x) I), the other basis indices, and the 0/1 vector
            # of the latter (the diagonal of Q).
            idx = split_index(qubits, targets)
            on, off = (idx, idx[:0]) if control is None else (idx[control], idx[~control])
            if signed or not (on.size and off.size) or frobenius(np.tensordot(w, x, axes=1)) <= ATOL:
                q = np.ones(2**qubits)
                q[on] = 0.0
                layout = on.T.copy(), off.ravel(), q
            elif kernel is None:
                need = 16 * len(x) * 4**qubits + kernel_bytes(len(x), qubits)
                check_memory(need, f"{len(x)} lifted Kraus operators of {2**qubits} x {2**qubits} and their kernel")
                stack = _lift(x, qubits, targets, control)
        left = right = sparse = sup = None
        if monomial:
            sparse = kernel or _monomial_map(stack, w, layout, 2**qubits, real)
        else:
            re, im, wr = (a.astype(real, copy=False) for a in (stack.real, stack.imag, w))
            if takes_superoperator(len(x), len(targets) if layout else qubits):
                sup = _superoperator(re, im, wr) if kernel is None else kernel
            else:
                left, right = kernel or _operands(re, im, wr)
        for arr in (x, w, control, left, right, sup, *(layout or ()), *(sparse or ())):
            if arr is not None:
                arr.setflags(write=False)
        self._kraus, self._weights, self._signed, self._stages, self._runs = x, w, signed, (), None
        self._qubits, self._dim, self._real, self._targets, self._control = qubits, 2**qubits, real, targets, control
        self._layout, self._left, self._right, self._map, self._super = layout, left, right, sparse, sup
        return self

    @classmethod
    def uniform(cls, kraus) -> "Channel":
        """D-regular channel: uniform weights 1/D."""
        kraus = tuple(kraus)
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        return cls(kraus, np.full(len(kraus), 1.0 / len(kraus)))

    @classmethod
    def staged(cls, channels) -> "Channel":
        """The composition of `channels`, applied first-to-last, as one
        channel whose stages are theirs concatenated, grouped once into the
        runs that :meth:`apply` fuses."""
        stages = tuple(s for ch in channels for s in ch.stages)
        if not stages:
            raise ValueError("staged channel needs at least one stage")
        if any(s.dim != stages[0].dim or s._real is not stages[0]._real for s in stages):
            raise ValueError("all stages must share one dimension and one dtype")
        if len(stages) == 1:
            return stages[0]
        runs = []
        for s in stages:
            if runs and _shares_layout(runs[-1][0], s):
                runs[-1].append(s)
            else:
                runs.append([s])
        out = object.__new__(cls)
        out._weights = None
        out._dim, out._real = stages[0]._dim, stages[0]._real
        out._stages, out._runs = stages, tuple(map(tuple, runs))
        return out

    @property
    def stages(self) -> tuple["Channel", ...]:
        """The single-stage channels applied first-to-last; ``(self,)`` for
        a flat channel."""
        return self._stages or (self,)

    def _single(self) -> "Channel":
        if self._stages:
            raise ValueError(_EXPLICIT_KRAUS)
        return self

    @property
    def kraus(self) -> np.ndarray:
        """The (D, N, N) Kraus array of a single-stage channel, lifted to
        the full space P (U_d (x) I) + Q when the stage is structured; a
        signed stage gives its 2D elements [U_1..U_D, -U_1..-U_D]."""
        x = self.target_kraus
        if self._signed:
            x = np.concatenate([x, -x])
        return _lift(x, self._qubits, self._targets, self._control)

    @property
    def target_kraus(self) -> np.ndarray:
        """The (D, 2^k, 2^k) Kraus array of a single-stage channel on its
        target qubits, the half set of a signed stage: a new read-only copy
        of the stage's stack, bit for bit the operators it was built from."""
        x = self._single()._kraus.copy()
        x.setflags(write=False)
        return x

    @property
    def target_weights(self) -> np.ndarray:
        """The (D,) weights of :attr:`target_kraus`."""
        return self._single()._weights

    @property
    def signed(self) -> bool:
        """True for a single stage that stands for {+U_d, -U_d}."""
        return self._single()._signed

    @property
    def targets(self) -> tuple[int, ...]:
        """The target qubits of a single-stage channel (all, if flat)."""
        return self._single()._targets

    @property
    def control(self) -> np.ndarray | None:
        """The boolean control vector of a single-stage channel, or None."""
        return self._single()._control

    @property
    def weights(self) -> np.ndarray:
        """The (D,) weights of :attr:`kraus`: w_d / 2 twice over for a
        signed stage."""
        w = self._single()._weights
        return np.concatenate([w, w]) / 2.0 if self._signed else w

    @property
    def qubits(self) -> int:
        return self.stages[0]._qubits

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def degree(self) -> int:
        """Number of (flattened) Kraus terms: the product of stage degrees,
        a plain Python int, possibly huge."""
        d = 1
        for s in self.stages:
            d *= len(s._weights) << s._signed
        return d

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """Phi in real coordinates, stage by stage: the real (N, N) matrix
        X' = Re Phi(A) + Im Phi(A) for the Hermitian A with X = Re A + Im A
        (see the module docstring).

        An array that is exactly an ndarray of the channel's dtype (float64,
        or float32 after :meth:`astype`) and shape (N, N) passes with one
        comparison, whatever its strides; anything else (integers, other
        float types, subclasses, nested lists) is checked in full and
        converted to that dtype, and complex or mis-shaped input raises
        ValueError.  The result has the channel's dtype.

        A flat GEMM-pair stage is two real GEMMs after one concatenate.  The
        stacked [[R_d, J_d], [J_d, -R_d]], its rows ordered (target row i,
        d, half), times [X; X^T] gives row i of R_d X + J_d X^T and of
        J_d X - R_d X^T for every d.  Read as a (k, 2 D k) matrix, which by
        this row order is a view, that product times the stacked
        [w_d R_d^T; w_d J_d^T] gives X', the sum over d included.  A flat
        superoperator stage is L times X read as a vector.
        A structured stage gathers the controlled subspace as (target,
        active rest state) pairs and computes Phi_T(P A P) + Q A Q: the
        stage's kernel acts on the target indices of P X P, whose transpose
        is that of the whole P block, and the cross blocks P X Q and Q X P
        are zeroed.  That is the action of a zero-sum stage, as every
        structured stage is (see the module docstring); an unsigned one
        with 0 < ||M||_F <= ATOL, M = sum_d w_d U_d, drops cross terms
        P M A Q + Q A M^dag P of at most ATOL ||X||_F.  A stage with live
        cross terms has no layout and applies as a flat stage, on its
        lifted elements.

        Consecutive structured stages that share a layout (equal targets
        and control) and a kernel kind form a run, applied in one pass:
        P X P is gathered once into the run and scattered once out of it,
        and stays in the kind's layout (target-major for the GEMM pair,
        folded for L) from the run's first stage to its last.  A run
        zeroes the cross blocks of its Q, unless the run before it left
        those of the same Q zero (the stages of a controlled brickwork,
        say); Q X Q is never touched.  A run works in place on the array
        the previous stage returned, and on a copy of the caller's.

        A monomial stage is never part of a run: it adds coef * X.flat[src]
        into X'.flat[dst] over its map, one gather and one ``np.bincount``,
        whose float64 sum a float32 channel casts back.
        """
        if type(x) is not np.ndarray or x.dtype is not self._real or x.shape != (self._dim, self._dim):
            if np.iscomplexobj(x) or np.shape(x) != (self._dim, self._dim):
                got = f"{np.asarray(x).dtype} {np.shape(x)}"
                raise ValueError(f"expected real coordinates of shape {(self._dim, self._dim)}, got {got}")
            x = np.asarray(x, dtype=self._real)
        owned = False  # x is the caller's array until a stage returns a new one
        clean = None  # the Q whose cross blocks with P the last run left zero
        for run in self._runs or ((self,),):
            s = run[0]
            if s._map is not None:
                dst, src, coef = s._map
                x = np.bincount(dst, coef * x.ravel()[src], x.size).astype(self._real, copy=False).reshape(x.shape)
            elif s._layout is not None:
                x = _apply_run(run, x if owned else x.copy(), clean)
            elif s._super is not None:
                x = (s._super @ x.ravel()).reshape(x.shape)
            else:
                x = _mix_real(s, x)
            owned = True
            clean = None if s._layout is None else s._layout[2]
        return x

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Phi(A) for any complex (N, N) operator A = H + i K, with H and K
        Hermitian: Phi(H) by one :meth:`apply_real` pass, plus i Phi(K) by a
        second pass only when A is not exactly Hermitian."""
        a = np.asarray(a, dtype=complex)
        if a.shape != (self._dim, self._dim):
            raise ValueError(f"operator shape {a.shape} does not match channel dimension {self._dim}")
        out = hermitian_from_real(self.apply_real(real_coordinates(a)))
        if not np.array_equal(a, a.conj().T):
            out += 1j * hermitian_from_real(self.apply_real(real_coordinates(-1j * a)))
        return out

    def astype(self, dtype) -> "Channel":
        """The channel with its kernels at `dtype`, float32 or float64: each
        distinct stage object (see :func:`per_stage`) rebuilt once, without
        checks, from its float64 record cast to `dtype`.  Its
        :meth:`apply_real` takes and returns arrays of `dtype`."""
        real = np.dtype(dtype)
        if real not in (np.float32, np.float64):
            raise ValueError(f"a channel's dtype is float32 or float64, got {real}")
        return per_stage(self, lambda s: object.__new__(Channel)._build(
            s._kraus, s._weights, s._qubits, s._targets, s._control, s._signed, s._map is not None, real=real,
        ))

    def adjoint(self) -> "Channel":
        """The Hilbert-Schmidt adjoint, at the channel's dtype: stages
        reversed, each with the same weights, targets and control and the
        Kraus stack {U_d^dag}, one adjoint per distinct stage object (see
        :func:`per_stage`).  The stages are already validated, so they are
        not checked again, and each keeps its kernel kind: a monomial map is
        transposed, a superoperator L is used as the view L^T, and GEMM
        operands come from U_d^dag, lifted for a stage with live cross
        terms."""
        if self._stages:
            return per_stage(Channel.staged(reversed(self._stages)), Channel.adjoint)
        if self._map is not None:
            kernel = self._map[1], self._map[0], self._map[2]  # dst <-> src
        else:
            kernel = None if self._super is None else self._super.T
        return object.__new__(Channel)._build(
            self._kraus.conj().transpose(0, 2, 1), self._weights, self._qubits, self._targets, self._control,
            self._signed, self._map is not None, kernel, self._real,
        )


def _shares_layout(s: Channel, t: Channel) -> bool:
    """True when s and t are structured stages with equal targets and
    control, so they reorder the basis alike, and one kernel kind, so
    they hold P X P alike between stages."""
    return (
        s._layout is not None
        and t._layout is not None
        and s._map is None
        and t._map is None
        and (s._super is None) == (t._super is None)
        and (s._qubits, s._targets) == (t._qubits, t._targets)
        and np.array_equal(s._control, t._control)
    )


def _apply_run(run: tuple[Channel, ...], x: np.ndarray, clean: np.ndarray | None) -> np.ndarray:
    """A run of structured stages sharing one layout and kernel kind, in
    real coordinates (see :meth:`Channel.apply_real`), written into the
    C-contiguous x: P X P is gathered once into the kind's layout, every
    stage of the run acts on it there, and it is scattered back; the cross
    blocks are zeroed, unless x came from a run that zeroed those of the
    same Q (`clean`), and Q X Q is never touched."""
    on, off, q = run[0]._layout
    k = len(on)
    flat, rows = x.reshape(-1), on * len(x)  # X[on[i, a], on[j, b]] is flat[rows[i, a] + on[j, b]]
    if run[0]._super is None:
        idx = rows[:, :, None, None] + on.T  # target-major: [i, (a, b, j)]
        pxp = flat[idx].reshape(k, -1)
    else:
        idx = rows[:, None, :, None] + on[:, None, :]  # [(i, j), (a, b)]
        pxp = _fold(flat[idx]).reshape(k * k, -1)
    for s in run:
        pxp = _mix_real(s, pxp) if s._super is None else s._super @ pxp
    if off.size and not (clean is not None and (clean == q).all()):
        x *= q[:, None]
        x *= q
    if run[0]._super is not None:
        pxp = _fold(pxp.reshape(idx.shape))
        pxp *= 0.25
    flat[idx] = pxp.reshape(idx.shape)
    return x


def _fold(z: np.ndarray) -> np.ndarray:
    """The rest-pair fold F of a P X P block z[i, j, a, b] = X[on[i, a],
    on[j, b]] (targets i, j and active rest states a, b):
    F(X) = (X - X^T) + s(X + X^T), where s exchanges i and j.  F(F(X)) = 4 X,
    and F commutes with every stage superoperator L, so L F(X) = F(X') for
    the stage's X' (see :func:`_superoperator`)."""
    out = z - z.transpose(1, 0, 3, 2)
    out += z.transpose(1, 0, 2, 3)
    out += z.transpose(0, 1, 3, 2)
    return out


def _lift(x: np.ndarray, qubits: int, targets: tuple[int, ...], control) -> np.ndarray:
    """The elements P (U_d (x) I) + Q on the whole `qubits`-qubit register of
    the (D, 2^k, 2^k) stack x on `targets` with `control` (see
    :class:`Channel`): a new (D, N, N) complex array, or x itself for a
    flat stage."""
    if targets == tuple(range(qubits)) and control is None:
        return x
    idx = split_index(qubits, targets)
    on, off = (idx, idx[:0]) if control is None else (idx[control], idx[~control])
    lifted = np.zeros((len(x), 2**qubits, 2**qubits), dtype=complex)
    lifted[:, on[:, :, None], on[:, None, :]] = x[:, None]
    lifted[:, off, off] = 1.0
    return lifted


def _monomial_map(x: np.ndarray, w: np.ndarray, layout, n: int, real=_REAL):
    """The real-coordinate map (dst, src, coef) of a monomial stage on an
    n-dimensional space, coef at the dtype `real`: X' is zero plus
    coef * X.flat[src] at X'.flat[dst].

    An element E = P (U_d (x) I) + Q sends |j> to phi(j) |pi(j)>, so
    E A E^dag carries A[i, j] to [pi(i), pi(j)] times phi(i) conj(phi(j))
    = C + i S, which in real coordinates reads
    X'[pi(i), pi(j)] = C X[i, j] + S X[j, i].  The elements are grouped by
    target permutation and each group's weighted C + i S summed, so
    duplicates merge (I with Z, X with Y for a Pauli stage) and exact zeros
    drop.  On P X P that sum depends on the target pair (t, u) alone, and a
    full index there is rest[a] + target[t] (disjoint bits), so each
    nonzero spreads over every pair of active rest states by one addition.
    Q X Q is mapped once with coefficient 1, and the cross blocks are left
    out: the stage is zero-sum (see the module docstring), so its signed
    and unsigned forms share one map."""
    k = x.shape[1]
    rows = (x != 0).argmax(axis=1)  # U_d |t> = phase[d, t] |rows[d, t]>
    phase = x.sum(axis=1)
    group: dict[bytes, int] = {}
    gid = np.array([group.setdefault(r.tobytes(), len(group)) for r in rows])
    perm = np.empty((len(group), k), dtype=np.intp)
    perm[gid] = rows
    share = (gid == np.arange(len(group))[:, None]) * w  # share[g, d] = w_d for U_d in group g
    if layout is None:
        on, off = np.arange(n)[None], np.arange(0)
    else:
        on, off = layout[0].T, layout[1]
    stride = np.array((n, 1))  # row strides of the sources: X[i, j] for C, X[j, i] for S
    sums = (share[:, :, None] * phase).transpose(0, 2, 1) @ phase.conj()  # (G, k, k)
    parts = sums.view(float).reshape(*sums.shape, 2)  # [..., 0] is C, [..., 1] is S
    g, t, u, h = np.nonzero(parts)
    rest = on[:, 0]
    target = on[0] - rest[0] if len(on) else np.zeros(k, dtype=int)
    pairs = rest[:, None] * n + rest
    moved = target[perm[g, t]] * n + target[perm[g, u]]
    read = target[t] * stride[h] + target[u] * stride[1 - h]
    swapped = np.array((pairs.ravel(), pairs.T.ravel()))  # rest offsets of X[i, j] and of X[j, i]
    still = (off[:, None] * n + off).ravel()
    return (
        np.concatenate(((moved[:, None] + pairs.ravel()).ravel(), still)),
        np.concatenate(((read[:, None] + swapped[h]).ravel(), still)),
        np.concatenate((parts[g, t, u, h].repeat(pairs.size), np.ones(still.size))).astype(real, copy=False),
    )


def _operands(re: np.ndarray, im: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real apply operands of a stage with Kraus operators
    U_d = R_d + i J_d (`re`, `im`) and weights w, at their dtype, 48 D k^2
    bytes together at float64:
    the (2 D k, 2 k) rows of the blocks [[R_d, J_d], [J_d, -R_d]], ordered
    by target row i, then d, then half h (row (i, d, h) is row i of
    [R_d, J_d] for h = 0 and of [J_d, -R_d] for h = 1), and the
    (2 D k, k) stack of [w_d R_d^T; w_d J_d^T], rows ordered (d, h, j)."""
    d, k = re.shape[:2]
    # Both filled in place, so building them takes no temporary copies.
    left = np.empty((k, d, 2, 2, k), re.dtype)
    for h, g, block in ((0, 0, re), (0, 1, im), (1, 0, im)):
        left[:, :, h, g] = block.transpose(1, 0, 2)
    np.negative(re.transpose(1, 0, 2), out=left[:, :, 1, 1])
    right = np.empty((d, 2, k, k), re.dtype)
    right[:, 0], right[:, 1] = re.transpose(0, 2, 1), im.transpose(0, 2, 1)
    right *= w[:, None, None, None]
    return left.reshape(2 * d * k, 2 * k), right.reshape(2 * d * k, k)


def _superoperator(re: np.ndarray, im: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The real (k^2, k^2) superoperator L of a stage with Kraus operators
    U_d = R_d + i J_d (`re`, `im`) and weights w, at their dtype: X' = L X
    for the real coordinates X of a k x k block, both read row-major as
    vectors.  With S = sum_d w_d U_d (x) conj(U_d) = S_R + i S_I and P the
    transpose permutation, L = S_R + S_I P, entry by entry

        L[(i, j), (i', j')] = sum_d w_d (R_d[i, i'] R_d[j, j'] + J_d[i, i'] J_d[j, j']
                                         + J_d[i, j'] R_d[j, i'] - R_d[i, j'] J_d[j, i']).

    Each line is one real GEMM over (d, h), rows [w_d R_d, w_d J_d] and
    then [w_d J_d, -w_d R_d] against the columns [R_d; J_d], into one
    preallocated product that is added, transposed, into L.  The adjoint
    stage's L is L^T.  S_R commutes with P and S_I anticommutes with it,
    so P L P = S_R - S_I P."""
    d, k = re.shape[:2]
    cols = np.stack((re, im), axis=1).reshape(2 * d, k * k)  # [(d, h), (j, j' or i')]
    rows = np.empty((k, k, d, 2), re.dtype)  # [i, i' or j', d, h]
    product = np.empty((k, k, k, k), re.dtype)  # [i, i' or j', j, j' or i']
    out = np.empty((k, k, k, k), re.dtype)  # [i, j, i', j']
    for line, (first, second) in enumerate(((re, im), (im, -re))):
        np.multiply(first.transpose(1, 2, 0), w, out=rows[..., 0])
        np.multiply(second.transpose(1, 2, 0), w, out=rows[..., 1])
        np.matmul(rows.reshape(k * k, 2 * d), cols, out=product.reshape(k * k, k * k))
        if line == 0:
            out[...] = product.transpose(0, 2, 1, 3)
        else:
            out += product.transpose(0, 2, 3, 1)
    return out.reshape(k * k, k * k)


def _mix_real(stage: Channel, t: np.ndarray) -> np.ndarray:
    """The GEMM-pair kernel: real coordinates X' of sum_d w_d U_d A U_d^dag for
    the real coordinates X of a square block A of r k rows, given
    target-major as the (k, r r k) matrix t, t[i, (a, b, j)] = X[(a, i), (b, j)];
    a flat stage has r = 1 and t = X.

    The left operand's rows are ordered (i, d, h), so its product with
    [X; X^T] has rows (i, d, h) and columns (a, b, j), and one
    transposition brings it to the second GEMM's ((i, a, b), (d, h, j)).
    At r = 1 there is no (a, b) axis to move: [X; X^T] is one concatenate
    and the product is read as (k, 2 D k) by a reshape that returns a
    view, so a one-block application is one concatenate and two GEMMs.
    At r > 1, [X; X^T] is filled in place through a 4-axis
    transpose and the product is transposed once, a copy."""
    k = stage._right.shape[1]
    cols = t.shape[1]
    if cols == k:
        return (stage._left @ np.concatenate((t, t.T))).reshape(k, -1) @ stage._right
    r = math.isqrt(cols // k)
    stacked = np.empty((2 * k, cols), t.dtype)  # [X; X^T], both target-major
    stacked[:k] = t
    stacked[k:].reshape(k, r, r, k)[...] = t.reshape(k, r, r, k).transpose(3, 2, 1, 0)
    halves = len(stage._left) // k  # 2 D rows per target row
    product = (stage._left @ stacked).reshape(k, halves, r * r, k).transpose(0, 2, 1, 3).reshape(cols, halves * k)
    return (product @ stage._right).reshape(k, cols)


def stage_bytes(channel: Channel) -> tuple[int, int, int]:
    """The bytes of the Kraus records of the distinct stages of `channel`,
    of their GEMM-pair operands, on all qubits for a stage with live cross
    terms, and of the lifted Kraus stacks that such a stage on the GEMM pair
    builds again for its adjoint or :meth:`Channel.astype` copy."""
    distinct = {id(s): s for s in channel.stages}.values()
    gemm = [s for s in distinct if s._left is not None]
    return (
        sum(s._kraus.nbytes for s in distinct),
        sum(s._left.nbytes + s._right.nbytes for s in gemm),
        sum(16 * len(s._kraus) * s._dim**2 for s in gemm if s._layout is None and s._control is not None),
    )


def flat_gemm_pair(channel: Channel) -> bool:
    """True when every stage of `channel` applies the GEMM pair as a flat
    stage, a stage with live cross terms on its lift included: none has a
    layout, a monomial map or a superoperator."""
    return all(s._layout is None and s._left is not None for s in channel.stages)


def channel_power(channel: Channel, r: int) -> Channel:
    """The r-fold composition Phi^r as a staged channel."""
    if r < 1:
        raise ValueError(f"power must be >= 1, got {r}")
    return Channel.staged((channel,) * r)


@functools.cache
def complete_depolarizer() -> Channel:
    """The single-qubit complete depolarizer, D(sigma) = I tr(sigma)/2, as
    the signed stage over {I, X, Y, Z}: the operation elements are
    {I, X, Y, Z, -I, -X, -Y, -Z}/8, which additionally satisfy the
    zero-sum condition sum_d U_d = 0 needed for controlled use.  A stage
    is immutable, so the one instance is built once and shared.
    """
    return Channel(paulis(), np.full(4, 0.25), signed=True)


def random_unitary_channel(qubits: int, degree: int, rng: np.random.Generator) -> Channel:
    """D-regular channel with Haar-random elements."""
    dim = 2**qubits
    return Channel.uniform(tuple(haar_unitary(dim, rng) for _ in range(degree)))


def zero_sum_defect(channel: Channel) -> float:
    """||M||_F for M = sum_d w_d U_d over a stage's target elements: the
    operator behind the cross terms P M A Q of a controlled stage.

    Zero for signed stages; multi-stage channels report the worst stage.
    """
    return max(
        0.0 if s._signed else frobenius(np.tensordot(s._weights, s._kraus, axes=1)) for s in channel.stages
    )


def per_stage(channel: Channel, make) -> Channel:
    """`channel` with each distinct stage object replaced by make(stage)
    once, so stages shared by a power composition stay shared."""
    made: dict[int, Channel] = {}
    for s in channel.stages:
        if id(s) not in made:
            made[id(s)] = make(s)
    return Channel.staged(made[id(s)] for s in channel.stages)


def _sign_stage(stage: Channel) -> Channel:
    if stage._signed:
        return stage
    if stage._layout is None and stage._control is not None:  # a controlled stage with live cross terms
        raise ValueError(
            "sign-doubling the target elements of a controlled stage would drop its cross terms; "
            "sign-double the target channel before controlling it"
        )
    kernel = stage._map or ((stage._left, stage._right) if stage._super is None else stage._super)
    return object.__new__(Channel)._build(
        stage._kraus, stage._weights, stage._qubits, stage._targets, stage._control, True, stage._map is not None,
        kernel, stage._real,
    )


def sign_double(channel: Channel) -> Channel:
    """Extend each stage's target elements {U_d} to {U_d} u {-U_d}, halving
    the weights: the signed stage over the same set, with the same targets
    and control, sharing its Kraus stacks.

    Each term is invariant under U -> -U, so the action of a flat or
    uncontrolled stage is unchanged, and the element sum becomes exactly
    zero.  Signed stages are kept as they are, and every other stage shares
    its kernel with its signed form.  A controlled stage whose cross terms
    are live (||M||_F > ATOL) is refused: doubling its target elements
    would drop them.
    """
    return per_stage(channel, _sign_stage)
