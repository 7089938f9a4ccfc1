"""Contraction coefficients and spectral gaps of unital channels.

A channel is kappa-contractive when ||Phi(A)||_F <= kappa ||A||_F for every
traceless A; the spectral gap is 1 - kappa.  In vectorized form, kappa is
the largest singular value of Pi W Pi, where W is the channel superoperator
and Pi = I - |phi><phi| projects onto the orthogonal complement of
|phi> = vec(I)/sqrt(N) (the traceless subspace).  Singular values, not
eigenvalues: W need not be normal.

Two routes are provided: a dense SVD (exact, capped by memory) and a
matrix-free restarted power iteration on the map v -> Pi W^dag W Pi v,
realized as two channel applications per step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import frobenius, phi_state, rng_from, unvec, vec

#: Dense-path cap on N^2 (the superoperator is N^2 x N^2).
DENSE_CAP = 2**14


class Decision(str, enum.Enum):
    YES = "YES"  # not alpha-contractive
    NO = "NO"  # beta-contractive
    PROMISE_VIOLATED = "PROMISE_VIOLATED"

    def __str__(self) -> str:  # plain value in CLI output
        return self.value


@dataclass(frozen=True)
class GapReport:
    """Result of a contraction-coefficient computation.

    `witness` is a unit vector in the traceless subspace achieving (within
    tolerance) ||Phi(unvec(witness))||_F = kappa.
    """

    kappa: float
    witness: np.ndarray
    method: str
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True

    @property
    def gap(self) -> float:
        return 1.0 - self.kappa


@dataclass(frozen=True)
class NonExpanderInstance:
    """One instance of the non-expander decision problem: (Phi, alpha, beta).

    The promise is that exactly one of "kappa > alpha" (YES) and
    "kappa <= beta" (NO) holds; `separation` records the declared
    polynomial gap alpha - beta.
    """

    channel: object
    alpha: float
    beta: float
    separation: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.beta < self.alpha <= 1.0 + 1e-12:
            raise ValueError(f"need 0 <= beta < alpha <= 1, got alpha={self.alpha}, beta={self.beta}")
        object.__setattr__(self, "separation", float(self.alpha - self.beta))


def build_w(channel, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense superoperator W with W vec(A) = vec(Phi(A)).

    Raises when N^2 exceeds `cap`; callers should fall back to the
    iterative path in that regime.
    """
    n2 = channel.dim**2
    if n2 > cap:
        raise ValueError(
            f"superoperator size {n2} exceeds dense cap {cap}; use spectral_gap_iterative"
        )
    return channel.superoperator()


def _deflate(v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return v - np.vdot(phi, v) * phi


def _canonical_traceless(dim: int) -> np.ndarray:
    """A fixed traceless unit direction, used when the maximizer is degenerate."""
    a = np.zeros((dim, dim), dtype=complex)
    a[0, 0], a[1, 1] = 1.0, -1.0
    return vec(a) / np.sqrt(2.0)


def _unit_traceless(v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Project onto the traceless subspace and normalize, reorthogonalizing
    to avoid catastrophic cancellation when v is nearly parallel to phi."""
    for _ in range(2):
        v = _deflate(v, phi)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return _canonical_traceless(int(round(np.sqrt(phi.size))))
        v = v / norm
    return v


def spectral_gap_dense(channel, cap: int = DENSE_CAP) -> GapReport:
    """kappa and a maximizing traceless witness via SVD of W - |phi><phi|.

    W fixes |phi> on both sides (unital: W|phi> = |phi>; trace preserving:
    <phi|W = <phi|), so Pi W Pi = W - |phi><phi| exactly.
    """
    n = channel.dim
    w = build_w(channel, cap=cap)
    # |phi><phi| has the entry 1/N at (iN + i, jN + j) and zeros elsewhere.
    diag = np.arange(n) * (n + 1)
    w[np.ix_(diag, diag)] -= 1.0 / n
    _, s, vh = np.linalg.svd(w)
    kappa = float(s[0])
    phi = phi_state(n)
    # The right singular vector can pick up a |phi> component through
    # rounding (entirely so when W - |phi><phi| is numerically zero).
    witness = _unit_traceless(vh[0].conj(), phi)
    achieved = frobenius(channel.apply(unvec(witness)))
    return GapReport(
        kappa=kappa,
        witness=witness,
        method="dense",
        iterations=0,
        residual=abs(achieved - kappa),
        converged=True,
    )


def _wdag_w_apply(channel, adjoint, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One application of Pi W^dag W Pi, via Phi then its adjoint channel."""
    v = _deflate(v, phi)
    mid = vec(channel.apply(unvec(v)))
    mid = _deflate(mid, phi)
    out = vec(adjoint.apply(unvec(mid)))
    return _deflate(out, phi)


def spectral_gap_iterative(
    channel,
    tol: float = 1e-9,
    max_iter: int = 10000,
    seed: int = 0,
    restarts: int = 3,
    min_iter: int = 10,
) -> GapReport:
    """Matrix-free kappa via restarted power iteration on Pi W^dag W Pi.

    Each step costs two channel applications (Phi, then the adjoint channel
    with Kraus {U_d^dag} and the same weights).  Convergence is declared
    (after at least `min_iter` steps) when the relative change of the
    Rayleigh quotient drops below `tol` *and* the eigen-residual
    ||Mv - lambda v|| certifies a kappa error below tol -- the change
    criterion alone stalls one order short on closely spaced singular
    values.  `restarts` independent random starts are run and the largest
    kappa kept, to defend against starting vectors orthogonal to the top
    singular space.  Deterministic given `seed`.

    Non-convergence is reported through `converged`/`residual`, never as a
    silent wrong answer.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    adjoint = channel.adjoint()
    n2 = channel.dim**2
    phi = phi_state(channel.dim)

    best: GapReport | None = None
    for restart in range(restarts):
        rng = rng_from(seed, restart)
        v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        v = _deflate(v, phi)
        v /= np.linalg.norm(v)
        rayleigh = 0.0
        iterations = 0
        converged = False
        for iterations in range(1, max_iter + 1):
            u = _wdag_w_apply(channel, adjoint, v, phi)
            new_rayleigh = float(np.real(np.vdot(v, u)))
            norm_u = float(np.linalg.norm(u))
            if norm_u <= 1e-14:
                # The action on this (generic) start is numerically zero;
                # with independent restarts this certifies kappa ~ 0.
                rayleigh = max(new_rayleigh, 0.0)
                converged = True
                break
            change = abs(new_rayleigh - rayleigh)
            rayleigh = new_rayleigh
            # For Hermitian M the Rayleigh quotient sits within
            # ||Mv - lambda v|| of an eigenvalue, so this certifies
            # |kappa_est - kappa| <= resid/(2 kappa) once locked on.
            resid = float(np.linalg.norm(u - new_rayleigh * v))
            v = u / norm_u
            if (
                iterations >= min_iter
                and change <= tol * max(rayleigh, tol)
                and resid <= tol * max(2.0 * np.sqrt(max(rayleigh, 0.0)), tol)
            ):
                converged = True
                break
        kappa = float(np.sqrt(max(rayleigh, 0.0)))
        achieved = frobenius(channel.apply(unvec(v)))
        report = GapReport(
            kappa=kappa,
            witness=v,
            method="iterative",
            iterations=iterations,
            residual=abs(achieved - kappa),
            converged=converged,
        )
        if best is None or report.kappa > best.kappa:
            best = report
    return best


def spectral_gap(channel, method: str = "auto", cap: int = DENSE_CAP, **kwargs) -> GapReport:
    """Dispatch between the dense and iterative routes."""
    if method == "auto":
        method = "dense" if channel.dim**2 <= cap else "iterative"
    if method == "dense":
        return spectral_gap_dense(channel, cap=cap)
    if method == "iterative":
        return spectral_gap_iterative(channel, **kwargs)
    raise ValueError(f"unknown method {method!r}")


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
    """kappa restricted to traceless *Hermitian* inputs.

    Maximizes ||Phi(A)||_F over the real-linear span of an orthonormal
    traceless Hermitian basis, via the top eigenvalue of the real Gram
    matrix G_kl = Re tr(Phi(B_k)^dag Phi(B_l)).  For Hermiticity-preserving
    channels this equals the unrestricted kappa.
    """
    basis = hermitian_basis(channel.dim)
    images = [channel.apply(b) for b in basis]
    k = len(basis)
    gram = np.empty((k, k), dtype=float)
    for i in range(k):
        for j in range(i, k):
            val = float(np.real(np.vdot(images[i], images[j])))
            gram[i, j] = gram[j, i] = val
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)))


def decide(
    instance: NonExpanderInstance,
    method: str = "auto",
    tie_tol: float = 1e-9,
    **kwargs,
) -> tuple[Decision, GapReport]:
    """Decide a non-expander instance from the computed kappa.

    YES requires kappa > alpha strictly (beyond `tie_tol`); kappa at or
    below beta (plus `tie_tol`) gives NO; anything between breaks the
    promise and is reported as PROMISE_VIOLATED rather than arbitrated.
    """
    report = spectral_gap(instance.channel, method=method, **kwargs)
    if report.kappa > instance.alpha + tie_tol:
        return Decision.YES, report
    if report.kappa <= instance.beta + tie_tol:
        return Decision.NO, report
    return Decision.PROMISE_VIOLATED, report
