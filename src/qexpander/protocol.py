"""Merlin-Arthur verification of non-expander instances.

Merlin encodes a traceless matrix A (with ||A||_F = 1) as the state
|psi_A> = sum_ij a_ij |i>|j> on the doubled space.  Arthur runs two checks:

1. Orthogonality to |phi> = vec(I)/sqrt(N), which certifies tr A = 0
   (tr A = sqrt(N) <phi|psi_A>).
2. An estimate of c = <psi_A| W^dag W |psi_A> = ||Phi(A)||_F^2 from
   Hadamard tests of the pair unitaries

       V_{d,e} = (U_d (x) conj(U_d))^dag (U_e (x) conj(U_e)),

   with (d, e) drawn from w (x) w over the channel's flattened Kraus
   terms.  Since <psi_A|V_{d,e}|psi_A> = tr(B_d^dag B_e) for
   B_d = U_d A U_d^dag, the w (x) w average of Re <psi_A|V_{d,e}|psi_A>
   is ||sum_d w_d B_d||_F^2 = c, so one such random-pair test returns 0
   with probability exactly (1 + c)/2.  Only real parts enter, so the
   plain (no S-gate) Hadamard test suffices.

S independent random-pair tests are therefore one Binomial(S, (1 + c)/2)
draw, and 2k/S - 1 estimates c with standard deviation at most 1/sqrt(S).
Arthur accepts when the estimate exceeds alpha^2 minus a margin of
3/sqrt(S) (zero in exact mode).  c itself comes from one application of
the channel, so every channel the toolkit builds, staged ones included,
can be verified; no Kraus product or pair unitary is ever formed.
Sampled checks draw from one stream per purpose: rng_from(seed) for the
orthogonality measurement and rng_from(seed, 1) for the Hadamard tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import frobenius, phi_state, rng_from
from .spectral import NonExpanderInstance, spectral_gap

#: Sentinel shot counts meaning "exact expectation values".
EXACT = None

#: Most shots one binomial draw takes (numpy's int64 count).
_MAX_SHOTS = int(np.iinfo(np.int64).max)


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
    if shots is not EXACT and shots > _MAX_SHOTS:
        raise ValueError(f"shots must be <= {_MAX_SHOTS}, got {shots}")


def estimate_contraction_sq(
    channel: Channel,
    psi: np.ndarray,
    shots: int | None = EXACT,
    seed: int = 0,
) -> float:
    """Estimate c = <psi|W^dag W|psi> = ||Phi(unvec(psi))||_F^2.

    With ``shots=None`` this is c itself, from one application of the
    channel.  Otherwise it is 2k/shots - 1 for k ~ Binomial(shots,
    (1 + c)/2), the 0-outcome count of that many random-pair Hadamard
    tests, drawn on the stream rng_from(seed, 1).
    """
    _check_shots(shots)
    psi = _check_witness(channel, psi)
    c = frobenius(channel.apply(psi.reshape(channel.dim, channel.dim))) ** 2
    if shots is EXACT:
        return c
    p0 = min(max(0.5 * (1.0 + c), 0.0), 1.0)
    return 2.0 * (rng_from(seed, 1).binomial(shots, p0) / shots) - 1.0


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


def arthur_verify(
    instance: NonExpanderInstance,
    psi: np.ndarray,
    shots: int | None = EXACT,
    seed: int = 0,
) -> VerifierOutcome:
    """Run Arthur's full check on a claimed witness state.

    Accepts iff the (sampled) orthogonality projection succeeds and the
    contraction estimate exceeds alpha^2 - margin, where margin is
    3/sqrt(shots), three standard deviations at most (zero in exact mode).
    `shots` counts Hadamard tests in total; `samples_used` counts the
    measurements actually made (the orthogonality draw, then the shots).
    With alpha = 1 exact mode never accepts, since c <= 1.
    """
    channel = instance.channel
    _check_shots(shots)
    psi = _check_witness(channel, psi)
    if shots is EXACT:
        orth, post, samples, margin, confidence = check_orthogonality(psi), psi, 0, 0.0, 1.0
    else:
        orth, post = sample_orthogonality(psi, seed=seed)
        samples = 1
        margin = 3.0 / math.sqrt(shots)
        confidence = 0.9973  # two-sided 3-sigma normal level
    estimate = 0.0
    if orth:
        estimate = estimate_contraction_sq(channel, post, shots=shots, seed=seed)
        if shots is not EXACT:
            samples += shots
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
