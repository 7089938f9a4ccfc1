"""Weak-coupling thermalization driven by a unitary-mixture channel.

A system of m qubits coupled to a thermal oscillator bath through a set of
unitaries U_1..U_D relaxes, in the weak-coupling limit, under the master
equation

    d/dt rho = R0 sum_a (U_a rho U_a^dag - rho) + R1 sum_a (U_a^dag rho U_a - rho)

with positive rates R0, R1.  Collecting both terms into the channel

    Phi(rho) = sum_a [R0 U_a rho U_a^dag + R1 U_a^dag rho U_a] / ((R0+R1) D)

this reads d/dt rho = gamma (Phi - I)(rho) with gamma = (R0 + R1) D, solved
by rho(t) = exp(t gamma (Phi - I)) rho(0).  `evolve` computes that action
matrix-free, with a substepped Taylor series in Phi whose coefficients are
all positive; its cost is linear in gamma t.  The maximally mixed state is
the fixed point, and the traceless part A(t) = rho(t) - I/N decays as

    ||A(t)||_F <= exp(-gamma (1 - kappa) t) ||A(0)||_F,

with kappa the contraction coefficient of Phi.  When the unitary set is
closed under adjoints the channel reduces to the uniform D-regular mixture,
independent of R0/R1.

The bath-side derivation (correlation integrals, Lamb-shift cancellation)
is analytic input: R0 and R1 here are user-supplied rates, corresponding
to Q0 + Q0* and Q1 + Q1* of that derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Channel
from .linalg import check_unitary, frobenius
from .spectral import spectral_gap


@dataclass(frozen=True, eq=False)
class ThermalModel:
    """Unitary coupling set plus the two weak-coupling rates."""

    unitaries: tuple[np.ndarray, ...]
    r0: float
    r1: float

    def __post_init__(self):
        object.__setattr__(self, "unitaries", tuple(check_unitary(u) for u in self.unitaries))
        if not self.unitaries:
            raise ValueError("model needs at least one coupling unitary")
        if self.r0 <= 0 or self.r1 <= 0:
            raise ValueError(f"rates must be positive, got R0={self.r0}, R1={self.r1}")

    @property
    def degree(self) -> int:
        return len(self.unitaries)

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def rate(self) -> float:
        """The generator rate constant gamma = (R0 + R1) D."""
        return (self.r0 + self.r1) * self.degree

    @cached_property
    def channel(self) -> Channel:
        d = self.degree
        w0 = self.r0 / ((self.r0 + self.r1) * d)
        w1 = self.r1 / ((self.r0 + self.r1) * d)
        kraus = self.unitaries + tuple(u.conj().T for u in self.unitaries)
        weights = np.array([w0] * d + [w1] * d)
        return Channel(kraus, weights)


@dataclass(frozen=True)
class Trajectory:
    """States rho(t) at the sampled times, with ||rho(t) - I/N||_F.

    `applications` counts the Channel.apply calls the series made.
    """

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    residuals: np.ndarray
    applications: int

    def __len__(self) -> int:
        return len(self.times)


def _check_density(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix has trace {np.trace(rho)!r}, expected 1")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    lowest = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lowest < -tol:
        raise ValueError(f"density matrix is not positive semidefinite (lowest eigenvalue {lowest})")
    return rho


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("need at least one time point")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be nondecreasing")
    return times


def _evolve_series(
    model: ThermalModel,
    rho0: np.ndarray,
    times: np.ndarray,
    series_tol: float = 1e-12,
) -> tuple[list[np.ndarray], int]:
    """Substepped Taylor action of exp(t gamma (Phi - I)) on the state.

    Each substep keeps gamma*dt <= 1/2, where the expansion
    e^{-gamma dt} sum_k (gamma dt)^k/k! Phi^k(rho) has only positive,
    rapidly decaying coefficients.  Returns the states and the number of
    channel applications.
    """
    channel = model.channel
    gamma = model.rate
    max_step = 0.5 / gamma
    out = []
    rho = rho0.copy()
    reached = 0.0
    applications = 0
    for t in times:
        remaining = t - reached
        while remaining > 1e-15 * max(t, 1.0):
            dt = min(remaining, max_step)
            x = gamma * dt
            term = rho.copy()
            acc = rho.copy()
            k = 0
            while frobenius(term) > series_tol * max(frobenius(acc), 1e-300):
                k += 1
                term = channel.apply(term) * (x / k)
                acc += term
            applications += k
            rho = np.exp(-x) * acc
            remaining -= dt
        reached = t
        out.append(rho.copy())
    return out, applications


def evolve(model: ThermalModel, rho0: np.ndarray, times) -> Trajectory:
    """Solve rho(t) = exp(t gamma (Phi - I)) rho(0) at the sampled times."""
    rho0 = _check_density(rho0)
    if rho0.shape[0] != model.dim:
        raise ValueError(f"state dimension {rho0.shape[0]} does not match model dimension {model.dim}")
    times = _check_times(times)
    states, applications = _evolve_series(model, rho0, times)
    eye = np.eye(model.dim) / model.dim
    residuals = np.array([frobenius(s - eye) for s in states])
    return Trajectory(times=times, states=tuple(states), residuals=residuals, applications=applications)


@dataclass(frozen=True)
class DecayReport:
    """Residuals versus the spectral-gap decay envelope.

    `kappa` is the solver's estimate and `error_bound` its error bar (0.0
    for a supplied kappa); the envelope uses min(1, kappa + error_bound).
    """

    times: np.ndarray
    residuals: np.ndarray
    bounds: np.ndarray
    kappa: float
    error_bound: float
    rate: float
    worst_margin: float
    satisfied: bool


def decay_bound_check(
    model: ThermalModel,
    rho0: np.ndarray,
    times,
    kappa: float | None = None,
    slack: float = 1e-8,
    strict: bool = True,
) -> DecayReport:
    """Check ||A(t)||_F <= exp(-gamma (1-kappa) t) ||A(0)||_F at each time.

    kappa is computed with the spectral module unless supplied, keeping the
    bound independent of the evolution it checks; the envelope takes kappa
    at the top of its error bar, so an underestimate cannot report a false
    violation.  The worst margin is min_t (bound - residual); `strict`
    raises if any point exceeds the bound by more than `slack`.
    """
    rho0 = _check_density(rho0)
    traj = evolve(model, rho0, times)
    if kappa is None:
        gap = spectral_gap(model.channel)
        kappa, error_bound = gap.kappa, gap.error_bound
    else:
        error_bound = 0.0
    a0 = frobenius(rho0 - np.eye(model.dim) / model.dim)
    bounds = np.exp(-model.rate * (1.0 - min(1.0, kappa + error_bound)) * traj.times) * a0
    margins = bounds - traj.residuals
    worst = float(margins.min())
    satisfied = bool(np.all(traj.residuals <= bounds + slack))
    if strict and not satisfied:
        raise ValueError(
            f"decay bound violated: worst margin {worst:.3e} at "
            f"t = {traj.times[int(margins.argmin())]}"
        )
    return DecayReport(
        times=traj.times,
        residuals=traj.residuals,
        bounds=bounds,
        kappa=float(kappa),
        error_bound=float(error_bound),
        rate=model.rate,
        worst_margin=worst,
        satisfied=satisfied,
    )
