"""Merlin-Arthur verification of non-expander instances.

Merlin encodes a traceless matrix A (with ||A||_F = 1) as the state
|psi_A> = sum_ij a_ij |i>|j> on the doubled space.  Arthur runs two checks:

1. Orthogonality to |phi> = vec(I)/sqrt(N), which certifies tr A = 0
   (tr A = sqrt(N) <phi|psi_A>).
2. An estimate of <psi_A| W^dag W |psi_A> = ||Phi(A)||_F^2, assembled from
   Hadamard tests of the pair unitaries

       V_{d,e} = (U_d (x) conj(U_d))^dag (U_e (x) conj(U_e))

   through the identity, for weights w_d,

       <psi|W^dag W|psi> = sum_d w_d^2 + 2 sum_{d<e} w_d w_e Re <psi|V_{d,e}|psi>,

   which for a D-regular channel reads 1/D + (2/D^2) sum_{d<e} Re <.>.

Arthur accepts when the estimate exceeds alpha^2 minus a margin of three
propagated standard errors.  Only real parts enter the identity, so the
plain (no S-gate) Hadamard test suffices.  Sampled checks draw from one
stream per purpose: rng_from(seed) for the orthogonality measurement and
rng_from(seed, 1) for every Hadamard-test shot, drawn in one call.

The pair unitaries are never built.  With B_d = U_d A U_d^dag,

    <psi_A|V_{d,e}|psi_A> = tr(B_d^dag B_e) = G_{de},

so one batched conjugation of the stacked (D, N, N) Kraus array and one
D x N^2 Gram product give every pair's Hadamard-test probability
p0 = (1 + Re G_{de})/2, in O(D N^3 + D^2 N^2) time and O(D N^2) memory
(building each N^2 x N^2 pair unitary would cost O(D^2 N^6) and N^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import phi_state, rng_from
from .spectral import NonExpanderInstance, spectral_gap

#: Sentinel shot counts meaning "exact expectation values".
EXACT = None


def _check_unit_vector(psi: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
    return psi


def _check_witness(channel: Channel, psi: np.ndarray) -> np.ndarray:
    psi = _check_unit_vector(psi)
    if psi.size != channel.dim**2:
        raise ValueError(f"state length {psi.size} does not match channel dimension {channel.dim}")
    return psi


def _check_shots(shots: int | None) -> None:
    if shots is not EXACT and shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


def _pair_overlaps(channel: Channel, psi: np.ndarray) -> np.ndarray:
    """The D x D Gram matrix G_{de} = <psi|V_{d,e}|psi> = tr(B_d^dag B_e)."""
    n = channel.dim
    kraus = channel.kraus
    images = kraus @ psi.reshape(n, n) @ kraus.conj().transpose(0, 2, 1)
    images = images.reshape(len(kraus), n * n)
    return images.conj() @ images.T


def estimate_contraction_sq(
    channel: Channel,
    psi: np.ndarray,
    shots_per_pair: int | None = EXACT,
    seed: int = 0,
) -> float:
    """Estimate <psi|W^dag W|psi> for a channel with explicit Kraus operators.

    With ``shots_per_pair=None`` the D(D-1)/2 Hadamard tests are evaluated
    exactly, and the result equals ||Phi(unvec(psi))||_F^2 to rounding.
    Sampled mode draws every pair's 0-outcome count in one binomial call
    on the stream rng_from(seed, 1), pairs in np.triu_indices order.
    Multi-stage channels, which expose no Kraus operators, raise ValueError.
    """
    _check_shots(shots_per_pair)
    w = channel.weights
    psi = _check_witness(channel, psi)
    rows, cols = np.triu_indices(channel.degree, 1)
    pair_re = _pair_overlaps(channel, psi).real[rows, cols]
    if shots_per_pair is not EXACT:
        p0 = np.clip(0.5 * (1.0 + pair_re), 0.0, 1.0)
        pair_re = 2.0 * (rng_from(seed, 1).binomial(shots_per_pair, p0) / shots_per_pair) - 1.0
    return float(w @ w + (2.0 * w[rows] * w[cols]) @ pair_re)


def check_orthogonality(psi: np.ndarray, tol: float = 1e-9) -> bool:
    """Exact check |<phi|psi>| <= tol certifying tr(unvec(psi)) = 0."""
    psi = _check_unit_vector(psi)
    phi = phi_state(int(round(np.sqrt(psi.size))))
    return bool(abs(np.vdot(phi, psi)) <= tol)


def sample_orthogonality(psi: np.ndarray, seed: int = 0) -> tuple[bool, np.ndarray]:
    """Projective measurement of |phi><phi| versus its complement, drawn
    from the stream rng_from(seed).

    Accepts (returns True) on the complement outcome, with probability
    1 - |<phi|psi>|^2, and returns the renormalized post-measurement state.
    On the |phi> outcome the check fails and |phi> itself is returned.
    """
    psi = _check_unit_vector(psi)
    phi = phi_state(int(round(np.sqrt(psi.size))))
    overlap = np.vdot(phi, psi)
    p_reject = min(max(abs(overlap) ** 2, 0.0), 1.0)
    if rng_from(seed).random() < p_reject:
        return False, phi.copy()
    post = psi - overlap * phi
    norm = np.linalg.norm(post)
    if norm < 1e-15:
        return False, phi.copy()
    return True, post / norm


@dataclass(frozen=True)
class VerifierOutcome:
    accepted: bool
    estimated_contraction_sq: float
    orthogonality_passed: bool
    samples_used: int
    confidence: float


def contraction_standard_error(weights: np.ndarray, shots_per_pair: int) -> float:
    """Worst-case standard error of the assembled estimate.

    Each pair contributes 2 w_d w_e Re_{d,e} with Var(Re) <= 1/shots, so
    Var(estimate) <= 4 sum_{d<e} w_d^2 w_e^2 / shots, which is
    2(D-1)/(D^3 shots) for uniform weights 1/D.
    """
    sq = np.asarray(weights, dtype=float) ** 2
    pair_sum = (sq.sum() ** 2 - sq @ sq) / 2.0
    return math.sqrt(4.0 * max(pair_sum, 0.0) / shots_per_pair)


def arthur_verify(
    instance: NonExpanderInstance,
    psi: np.ndarray,
    shots: int | None = EXACT,
    seed: int = 0,
) -> VerifierOutcome:
    """Run Arthur's full check on a claimed witness state.

    Accepts iff the (sampled) orthogonality projection succeeds and the
    contraction estimate exceeds alpha^2 - margin, where margin is three
    propagated standard errors (zero in exact mode).  `shots` counts
    Hadamard-test shots per Kraus pair; `samples_used` counts the
    measurements actually made (the orthogonality draw, then the shots).
    """
    channel = instance.channel
    _check_shots(shots)
    psi = _check_witness(channel, psi)
    if shots is EXACT:
        orth, post, samples, margin, confidence = check_orthogonality(psi), psi, 0, 0.0, 1.0
    else:
        orth, post = sample_orthogonality(psi, seed=seed)
        samples = 1
        margin = 3.0 * contraction_standard_error(channel.weights, shots)
        confidence = 0.9973  # two-sided 3-sigma normal level
    estimate = 0.0
    if orth:
        estimate = estimate_contraction_sq(channel, post, shots_per_pair=shots, seed=seed)
        if shots is not EXACT:
            samples += shots * channel.degree * (channel.degree - 1) // 2
    return VerifierOutcome(
        accepted=orth and estimate > instance.alpha**2 - margin,
        estimated_contraction_sq=estimate,
        orthogonality_passed=orth,
        samples_used=samples,
        confidence=confidence,
    )


def merlin_witness(channel, **kwargs) -> np.ndarray:
    """The optimal honest Merlin: the spectral module's gap witness."""
    return spectral_gap(channel, **kwargs).witness
