"""Weak-coupling thermalization driven by a unitary-mixture channel.

A system of m qubits coupled to a thermal oscillator bath through a set of
unitaries U_1..U_D relaxes, in the weak-coupling limit, under the master
equation

    d/dt rho = R0 sum_a (U_a rho U_a^dag - rho) + R1 sum_a (U_a^dag rho U_a - rho)

with positive rates R0, R1.  Collecting both terms into the channel

    Phi(rho) = sum_a [R0 U_a rho U_a^dag + R1 U_a^dag rho U_a] / ((R0+R1) D)

this reads d/dt rho = gamma (Phi - I)(rho) with gamma = (R0 + R1) D.  The
maximally mixed state is the fixed point, and the traceless part
A(t) = rho(t) - I/N decays as

    ||A(t)||_F <= exp(-gamma (1 - kappa) t) ||A(0)||_F,

with kappa the contraction coefficient of Phi.  When the unitary set is
closed under adjoints the channel reduces to the uniform D-regular mixture,
independent of R0/R1.

`evolve` solves the equation by uniformization (Jensen 1953; Fox and Glynn,
CACM 31, 1988): with T_k = Phi^k(rho(0)) and the Poisson weights
pi_k(x) = e^{-x} x^k / k!,

    rho(t) = sum_k pi_k(gamma t) T_k.

The weights are positive and are evaluated in log space, so they do not
underflow at large gamma t, and every sample time shares the same powers
T_k, so each power costs one channel application whatever the number of
times.  The powers, and the sums X_j of the series at each time, are kept
in the real coordinates X = Re T + Im T of :meth:`Channel.apply_real`,
an isometry of the Hermitian matrices, so every norm below is the same in
either form.  The residuals ||rho(t_j) - I/N||_F are the row norms
||X_j - vec(I/N)|| of the real sums, for `evolve` and `decay_bound_check`
alike; only `evolve` makes the states complex, once, at the end.  So the
check holds 8 J N^2 bytes of sums for J times on N x N states, plus one
temporary of their size, where `evolve` adds 16 J N^2 bytes of complex
states.  Before it allocates, the series compares its byte estimate with
the memory budget of :func:`qexpander.linalg.memory_budget` and raises
ValueError, naming both, when the estimate exceeds it.
The sum stops after the first K terms at the first K with

    tau(K) r_{K-1} <= SERIES_TOL,    r_k = ||T_k - I/N||_F,

where tau(K) = e^{-x} (e x / K)^K is the Chernoff bound on the Poisson
tail P(Pois(x) >= K) at the largest x = gamma t_max (it holds for K > x;
tau = 1 for K <= x and tau = 0 at x = 0), and the remaining Poisson mass
1 - sum_{k<K} pi_k is put on I/N.  Phi is a unital contraction of the
Frobenius norm, so r_k does not grow, and the error of every state,
sum_{k>=K} pi_k (T_k - I/N), is at most tau(K) r_{K-1}: the
`Trajectory.truncation_bound`, with rounding on top.  Since r_k <= 1 and
tau <= 1, this stops no later than either the tail rule tau(K) <=
SERIES_TOL or the mixing rule r_{K-1} <= SERIES_TOL alone.  The cost
stays bounded as t grows when Phi mixes (kappa < 1).  A model that mixes
slowly or not at all (kappa = 1) would need about gamma t_max
applications; the series raises ValueError rather than make more than
MAX_SERIES_TERMS of them.  When tau(MAX_SERIES_TERMS + 1) > SERIES_TOL,
so that the residuals must fall for the series to end by that cap, it
raises as soon as they cannot: Phi contracts the Frobenius norm, so the
steps s_k = ||T_k - T_{k-1}||_F do not grow and every r_j up to the cap
is at least r_k - (MAX_SERIES_TERMS - k) s_k.  Two steps apart likewise:
T_k - T_{k-2} = Phi(T_{k-1} - T_{k-3}), so s2_k = ||T_k - T_{k-2}||_F
does not grow, and every r_j up to the cap is at least
min(r_k, r_{k-1}) - ceil((MAX_SERIES_TERMS - k + 1) / 2) s2_k.  tau is
at least tau(MAX_SERIES_TERMS + 1) up to the cap, so it raises once that
factor times either lower bound exceeds SERIES_TOL, and a series that
the rule ends within the cap is never refused.  A model whose powers
alternate stops after two applications; orbits of period 3 or more
still reach the cap.

The bath-side derivation (correlation integrals, Lamb-shift cancellation)
is analytic input: R0 and R1 here are user-supplied rates, corresponding
to Q0 + Q0* and Q1 + Q1* of that derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel
from .linalg import check_memory, frobenius, hermitian_from_real, real_coordinates
from .spectral import spectral_gap

#: Truncation tolerance of the uniformization series: the bound tau(K) r_{K-1} it stops at.
SERIES_TOL = 1e-12

#: Most channel applications one `evolve` call may make.
MAX_SERIES_TERMS = 100_000

#: Rounding slack `decay_bound_check` allows above the envelope.
DECAY_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class ThermalModel:
    """Unitary coupling set plus the two weak-coupling rates.

    `channel` is built once, at construction, and its constructor is the
    one unitarity check of the couplings.
    """

    unitaries: tuple[np.ndarray, ...]
    r0: float
    r1: float
    channel: Channel = field(init=False, repr=False)

    def __post_init__(self):
        d = len(self.unitaries)
        if not d:
            raise ValueError("model needs at least one coupling unitary")
        if not (0 < self.r0 < math.inf and 0 < self.r1 < math.inf and self.rate < math.inf):
            raise ValueError(f"rates must be positive and finite, got R0={self.r0}, R1={self.r1}")
        w0 = self.r0 / ((self.r0 + self.r1) * d)
        w1 = self.r1 / ((self.r0 + self.r1) * d)
        kraus = [*self.unitaries, *(np.conj(u).T for u in self.unitaries)]
        channel = Channel(kraus, np.array([w0] * d + [w1] * d))
        object.__setattr__(self, "unitaries", tuple(channel.target_kraus[:d]))
        object.__setattr__(self, "channel", channel)

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


@dataclass(frozen=True)
class Trajectory:
    """States rho(t) at the sampled times, with ||rho(t) - I/N||_F.

    `applications` counts the channel applications the series made, and
    `truncation_bound` = tau(K) ||T_{K-1} - I/N||_F bounds the Frobenius
    distance of every state from the exact one, rounding aside (see the
    module docstring).
    """

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    residuals: np.ndarray
    applications: int
    truncation_bound: float

    def __len__(self) -> int:
        return len(self.times)


def _check_density(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
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


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a real array, sqrt(d . d) over its raveled entries,
    without the overhead of np.linalg.norm."""
    d = a.ravel()
    return math.sqrt(d @ d)


def _tail(terms: int, x: float) -> float:
    """tau(K) for K = `terms`: the Chernoff bound e^{-x} (e x / K)^K on
    P(Pois(x) >= K), which holds for K > x; 1 for K <= x and 0 at x = 0."""
    if x == 0:
        return 0.0
    if terms <= x:
        return 1.0
    return math.exp(terms * (1 + math.log(x / terms)) - x)


def _evolve_series(
    model: ThermalModel, rho0: np.ndarray, times: np.ndarray, extra_bytes: int = 0
) -> tuple[np.ndarray, int, float]:
    """Uniformization sum_k pi_k(gamma t_j) Phi^k(rho0) at every time t_j,
    in real coordinates.

    Stops after K terms at the first K with tau(K) r_{K-1} <= SERIES_TOL
    and puts the remaining Poisson mass on I/N (see the module docstring).
    When that cannot happen within MAX_SERIES_TERMS applications whatever
    the residuals (tau(MAX_SERIES_TERMS + 1) > SERIES_TOL), it raises as
    soon as the one-step or the two-step bound of the module docstring
    shows that it cannot happen at all; otherwise neither bound is
    computed.  Returns the (J, N^2) real sums X_j, row j the raveled real
    coordinates of rho(t_j), the number of channel applications and the
    truncation bound tau(K) r_{K-1}.  The series runs on the real
    coordinates of the Hermitian part of rho0 (which the caller has
    checked to lie within 1e-9 of rho0) by Channel.apply_real.  Powers are
    taken in blocks of up to min(J, 32): the block's Poisson weights come
    from one exp, its powers are stored in one preallocated buffer, and
    one real GEMM adds them to the sums, so the buffer never outgrows the
    output.  The weights' mass is summed power by power.

    Before it allocates, it checks 8 (2 J N^2 + block N^2 + J block)
    bytes (the sums, the GEMM's temporary, the block of powers and its
    weights) plus the caller's `extra_bytes` against the memory budget.
    """
    channel = model.channel
    n = model.dim
    count = len(times)
    block = min(count, 32)
    check_memory(
        8 * (2 * count * n * n + block * n * n + count * block) + extra_bytes,
        f"the uniformization series over {count} times on {n} x {n} states",
    )
    x = model.rate * times
    x_max = float(x[-1])
    log_x = np.log(np.where(x > 0, x, 1.0))[:, None]
    at_zero = x == 0
    mixed = np.eye(n) / n
    sums = np.zeros((count, n * n))
    mass = np.zeros(count)
    terms = np.empty((block, n, n))
    flat_terms = terms.reshape(block, n * n)
    tail_cap = _tail(MAX_SERIES_TERMS + 1, x_max)
    capped = tail_cap > SERIES_TOL
    # s_k = ||T_k - T_{k-1}||_F and s2 = ||T_k - T_{k-2}||_F, unbounded
    # before there are powers to compare; r_{k-1} likewise.
    step = step2 = last_residual = math.inf
    older = None
    term = real_coordinates(rho0)
    k = 0
    while True:
        j = k % block
        if j == 0:
            ks = np.arange(k, k + block)
            weights = np.exp(log_x * ks - x[:, None] - np.array([math.lgamma(i + 1) for i in ks]))
            weights[at_zero] = ks == 0
        mass += weights[:, j]
        terms[j] = term
        residual = _norm(term - mixed)
        bound = _tail(k + 1, x_max) * residual
        done = bound <= SERIES_TOL
        if done or j == block - 1:
            sums += weights[:, : j + 1] @ flat_terms[: j + 1]
        if done:
            break
        # At k = MAX_SERIES_TERMS the first bound is the product just refused: the cap.
        if capped and tail_cap * max(
            residual - (MAX_SERIES_TERMS - k) * step,
            min(residual, last_residual) - (MAX_SERIES_TERMS - k + 2) // 2 * step2,
        ) > SERIES_TOL:
            raise ValueError(
                f"gamma * t_max = {x_max:.6g} needs more than {MAX_SERIES_TERMS} channel "
                "applications: the model does not mix within that horizon"
            )
        nxt = channel.apply_real(term)
        if capped:
            step = _norm(nxt - term)
            if older is not None:
                step2 = _norm(nxt - older)
            older, last_residual = term, residual
        term = nxt
        k += 1
    sums[:, :: n + 1] += (1.0 - mass)[:, None] / n
    return sums, k, bound


def _residuals(sums: np.ndarray, n: int) -> np.ndarray:
    """||rho(t_j) - I/N||_F for the (J, N^2) real sums of `_evolve_series`:
    the row norms ||X_j - vec(I/N)||, each the root of a sum of squares.
    The real coordinates are an isometry, and those of I/N are I/N.  Takes
    one temporary of the sums' size."""
    d = sums - np.eye(n).reshape(-1) / n
    d *= d
    return np.sqrt(d.sum(axis=1))


def _check_inputs(model: ThermalModel, rho0, times) -> tuple[np.ndarray, np.ndarray]:
    """rho0 as a complex density matrix of the model's dimension and times
    as a finite, nonnegative, nondecreasing array with gamma t_max finite."""
    rho0 = _check_density(rho0)
    if rho0.shape[0] != model.dim:
        raise ValueError(f"state dimension {rho0.shape[0]} does not match model dimension {model.dim}")
    times = _check_times(times)
    if not math.isfinite(model.rate * float(times[-1])):
        raise ValueError(f"gamma * t overflows: gamma = {model.rate!r}, t = {times[-1]!r}")
    return rho0, times


def evolve(model: ThermalModel, rho0: np.ndarray, times) -> Trajectory:
    """Solve rho(t) = exp(t gamma (Phi - I)) rho(0) at the sampled times.

    The states are the series' real sums made complex, whose 16 J N^2
    bytes the series' memory check also counts."""
    rho0, times = _check_inputs(model, rho0, times)
    count, n = len(times), model.dim
    sums, applications, bound = _evolve_series(model, rho0, times, 16 * count * n * n)
    residuals = _residuals(sums, n)
    states = hermitian_from_real(sums.reshape(count, n, n))
    return Trajectory(
        times=times, states=tuple(states), residuals=residuals, applications=applications, truncation_bound=bound
    )


@dataclass(frozen=True)
class DecayReport:
    """Residuals versus the spectral-gap decay envelope.

    `kappa` is the solver's estimate and `error_bound` its error bar; the
    envelope uses min(1, kappa + error_bound).
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
    strict: bool = True,
) -> DecayReport:
    """Check ||A(t)||_F <= exp(-gamma (1-kappa) t) ||A(0)||_F at each time.

    kappa is computed with the spectral module, keeping the bound
    independent of the evolution it checks; the envelope takes kappa at
    the top of its error bar, so an underestimate cannot report a false
    violation.  The worst margin is min_t (bound - residual); `strict`
    raises if any point exceeds the bound by more than DECAY_SLACK.

    The residuals come from the series' real sums, as in `evolve`, but no
    state is made complex (see the module docstring for the memory held).
    """
    rho0, times = _check_inputs(model, rho0, times)
    residuals = _residuals(_evolve_series(model, rho0, times)[0], model.dim)
    gap = spectral_gap(model.channel)
    a0 = frobenius(rho0 - np.eye(model.dim) / model.dim)
    bounds = np.exp(-model.rate * (1.0 - min(1.0, gap.kappa + gap.error_bound)) * times) * a0
    margins = bounds - residuals
    worst = float(margins.min())
    satisfied = bool(np.all(residuals <= bounds + DECAY_SLACK))
    if strict and not satisfied:
        raise ValueError(
            f"decay bound violated: worst margin {worst:.3e} at "
            f"t = {times[int(margins.argmin())]}"
        )
    return DecayReport(
        times=times,
        residuals=residuals,
        bounds=bounds,
        kappa=float(gap.kappa),
        error_bound=float(gap.error_bound),
        rate=model.rate,
        worst_margin=worst,
        satisfied=satisfied,
    )
