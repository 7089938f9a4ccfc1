"""Contraction coefficients and spectral gaps of unital channels.

A channel is kappa-contractive when ||Phi(A)||_F <= kappa ||A||_F for every
traceless A; the spectral gap is 1 - kappa.  In vectorized form, kappa is
the largest singular value of Pi W Pi, where W vec(A) = vec(Phi(A))
and Pi = I - |phi><phi| projects onto the orthogonal complement of
|phi> = vec(I)/sqrt(N) (the traceless subspace).  Singular values, not
eigenvalues: W need not be normal.

kappa is computed matrix-free, at every N, by a thick-restart Lanczos
solver for the top eigenvalue kappa^2 of the Hermitian map
M = Pi W^dag W Pi, realized as two channel applications per application
of M; W is never formed.  The solve runs in real coordinates on the
traceless Hermitian matrices, a real space of dimension N^2 - 1: a
Hermitian A has coordinates x = vec(Re A + Im A), an isometry, and
A = (X + X^T)/2 + i (X - X^T)/2.  This loses nothing.  Phi and Phi^dag
preserve Hermiticity, and M commutes with A -> A^dag and with
multiplication by i, so M on all operators is two copies of M on the
Hermitian ones (A = H + iK with H, K Hermitian); the spectrum, hence
kappa, is unchanged, and the witness comes out Hermitian.  Phi and its
adjoint act on these coordinates directly (:meth:`Channel.apply_real`, two
real GEMMs per stage at 6 D k^3 multiply-adds for D Kraus operators on k
dimensions, against 8 D k^3 for the complex form), so no complex matrix is
formed until the witness is reported.  On a channel of flat GEMM-pair
stages from 5 qubits up, a float32 Lanczos phase runs first on the
channel's float32 copy (:meth:`Channel.astype`), and float64 residuals
with float32 correction solves, deflated by its next Ritz vectors, refine
its top Ritz vector or hand it over to the float64 engine.  Every report
carries an error bar on kappa from float64 arithmetic, and `decide` answers
YES or NO only when convergence and that error bar back the answer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import flat_gemm_pair, stage_bytes
from .linalg import check_memory, hermitian_from_real, rng_from, vec

#: Thick-restart Lanczos: vectors in the basis, Ritz pairs kept on restart.
LANCZOS_BASIS = 24
LANCZOS_KEEP = 6

#: Most Lanczos steps from one Ritz solve to the next scheduled one.
RITZ_LOOKAHEAD = 4

#: Rounding slack in `decide`: kappa up to TIE_TOL above a threshold counts as on it.
TIE_TOL = 1e-9

#: Least error bar on kappa, four units of double-precision rounding: the
#: Ritz value, its residual and any evaluation of ||Phi(A)||_F for the
#: witness all round at about this level, so no smaller bar can be backed.
KAPPA_ROUNDING = 4 * float(np.finfo(float).eps)

#: The two-precision rule (see spectral_gap_iterative): a channel on N >= SINGLE_MIN_DIM
#: whose every stage is flat on the GEMM pair runs a float32 phase first.  Set from
#: measurement: at N = 16 a solve is bound by per-call overhead, not by its GEMMs.
SINGLE_MIN_DIM = 32
#: Phase 1's least stop tolerance, eight units of float32 rounding.  Set from
#: measurement: the best of 4-16 units on the benchmark's flat Haar channels.
SINGLE_TOL = 8 * float(np.finfo(np.float32).eps)
#: Phase 1's rounding floor (see spectral_gap_iterative): a top residual of at
#: most STALL_FLOOR N theta for a basis on N^2 coordinates.
STALL_FLOOR = 64 * float(np.finfo(np.float32).eps)
#: Phase 2's refinement (see spectral_gap_iterative): the float32 correction
#: solve's relative residual tolerance and its most applications of M.  Set
#: from measurement: one step to 1e-3 takes 12-58 applications on flat Haar
#: channels at 5-7 qubits and meets the stop rule from phase 1's usual residual.
REFINE_TOL = 1e-3
REFINE_MATVECS = 64
#: The refinement hands over before its first correction solve unless theta
#: exceeds phase 1's first Ritz value outside the deflated pairs by more than
#: this many float64 residuals.  Set from measurement on flat Haar channels at
#: 5-6 qubits: that margin is 8.2-8.8 residuals where kappa ~ 1.6e-5 and
#: float32 cannot resolve the correction, and 990 or more where one
#: correction solve converges.
REFINE_GAP = 10


class Decision(str, enum.Enum):
    YES = "YES"  # not alpha-contractive
    NO = "NO"  # beta-contractive
    PROMISE_VIOLATED = "PROMISE_VIOLATED"
    UNCERTIFIED = "UNCERTIFIED"  # unconverged, or the error bar reaches a threshold

    def __str__(self) -> str:  # plain value in CLI output
        return self.value


@dataclass(frozen=True)
class GapReport:
    """Result of a contraction-coefficient computation.

    `witness` is a Hermitian traceless unit vector, vec(A) for a Hermitian
    A with tr A = 0 and ||A||_F = 1, achieving (within tolerance)
    ||Phi(unvec(witness))||_F = kappa.  `error_bound` bounds
    |kappa - true kappa| (see spectral_gap_iterative); it is never below
    KAPPA_ROUNDING.  `residual` is the
    final eigen-residual ||M y - kappa^2 y|| of the top Ritz pair.
    `matvecs` counts applications of M = Pi W^dag W Pi in either
    precision, `iterations` the Lanczos restart cycles plus the refinement
    steps of a two-precision solve (see spectral_gap_iterative), and
    `ritz_solves` the eigendecompositions of the Rayleigh-Ritz matrix.
    Every other field comes from float64 arithmetic alone.
    """

    kappa: float
    witness: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    error_bound: float = 0.0
    matvecs: int = 0
    ritz_solves: int = 0

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


def _deflate(x: np.ndarray, dim: int) -> np.ndarray:
    """Remove, in place, the component of real coordinates x along vec(I)/sqrt(N):
    subtract tr(X)/N from the diagonal of X = unvec(x)."""
    diag = x[:: dim + 1]
    diag -= np.add.reduce(diag) / dim
    return x


def _unit_traceless(x: np.ndarray, dim: int) -> np.ndarray:
    """Project onto the traceless subspace and normalize, twice, to avoid
    catastrophic cancellation when x is nearly parallel to vec(I); a fixed
    traceless direction stands in when x is numerically zero there."""
    x = x.copy()
    for _ in range(2):
        norm = np.linalg.norm(_deflate(x, dim))
        if norm < 1e-8:
            x = np.zeros(dim * dim)
            x[0], x[dim + 1] = 1.0, -1.0
            return x / np.sqrt(2.0)
        x /= norm
    return x


def _iterative_report(theta, y, dim, cycles, resid, converged, matvecs, solves) -> GapReport:
    # For symmetric M the Ritz value lies within resid of an eigenvalue, so
    # |kappa_est^2 - kappa^2| <= resid and |kappa_est - kappa| <= min(resid/kappa, sqrt(resid)),
    # up to rounding, which KAPPA_ROUNDING covers.
    kappa = float(np.sqrt(max(theta, 0.0)))
    bound = float(np.sqrt(resid))
    if kappa > 0.0:
        bound = min(resid / kappa, bound)
    bound = max(bound, KAPPA_ROUNDING)
    return GapReport(
        kappa=kappa,
        witness=vec(hermitian_from_real(_unit_traceless(y, dim).reshape(dim, dim))),
        iterations=cycles,
        residual=float(resid),
        converged=converged,
        error_bound=bound,
        matvecs=matvecs,
        ritz_solves=solves,
    )


def spectral_gap_iterative(
    channel,
    tol: float = 1e-9,
    max_iter: int = 10000,
    seed: int = 0,
) -> GapReport:
    """Matrix-free kappa by thick-restart Lanczos on M = Pi W^dag W Pi,
    restricted to the traceless Hermitian matrices in the real coordinates
    x = vec(Re A + Im A) (see the module docstring: kappa is unchanged).

    The basis V holds at most LANCZOS_BASIS orthonormal traceless vectors
    (and at most N^2 - 1); each new one is M times the last,
    reorthogonalized against V twice.  M V is stored next to V, so the
    Rayleigh-Ritz matrix V^T (M V) needs no extra application of M, and
    neither does a restart, which keeps the top LANCZOS_KEEP Ritz pairs (Wu &
    Simon, SIAM J. Matrix Anal. Appl. 22, 2000).  Each application of M
    costs two channel applications (Phi, then the adjoint channel with Kraus
    {U_d^dag} and the same weights).

    The solve is converged when the top Ritz pair (theta, y) satisfies
    ||M y - theta y|| <= tol max(2 sqrt(theta), tol), which certifies
    |kappa_est - kappa| below about tol, or when the Krylov space becomes
    invariant (then the Ritz values are eigenvalues).  The residual is
    estimated as e = |s_last| ||q||, with s the top Ritz vector of the
    Rayleigh-Ritz matrix T_k and q the next Lanczos direction; y and its
    true residual are formed only when that estimate passes, and the true
    residual decides.

    T_k is solved (`ritz_solves` counts these eigendecompositions) only at
    a restart, at the `max_iter` or invariant stop, and at scheduled
    checks.  After a solve whose estimate e misses the target t, the next
    check comes h = clamp(floor(ln(e/t) / (2 rho)), 1, RITZ_LOOKAHEAD)
    steps later, with rho the mean drop of ln(e/t) per step since the
    previous solve; h = 1 when there is no previous miss or no drop.  The
    Lanczos vectors do not depend on the solves skipped in between, so
    whenever the first step whose top pair passes the stop test is a
    checked step, the report is bit for bit that of solving T_k on every
    step, `ritz_solves` aside.  Otherwise it stops at a later check (the
    next one comes at most RITZ_LOOKAHEAD - 1 matvecs after that step),
    still certified by the true residual.

    **Two precisions.**  When N >= SINGLE_MIN_DIM and every stage of the
    channel is flat on the GEMM pair (:func:`flat_gemm_pair`), the stage
    GEMMs bound the solve and a float32 GEMM pair takes half the time of a
    float64 one (5 qubits, D = 8, one BLAS thread: 34-36 us against 62-66 us),
    so the solve is a mixed-precision refinement (Higham & Mary, Acta
    Numerica 31, 2022): residuals in float64, the work in float32.

    Phase 1 is the same engine in float32: its basis and images, and the
    channel and adjoint it applies (:meth:`Channel.astype`, built once per
    solve).  It stops when its top Ritz pair passes the stop rule at
    max(tol, SINGLE_TOL), one application of M short of `max_iter` (at
    max_iter = 1 it does not run), or unconverged at a restart where its
    rounding floor is plausible: one whose top pair neither halved its
    residual nor raised theta by more than that residual since the restart
    before, with a residual of at most STALL_FLOOR N theta, or the second
    of two restarts in a row whose top residual did not fall.  A residual
    that falls slowly but steadily above that floor (as at 7 qubits) keeps
    it running.  It ends as a restart would begin: its top LANCZOS_KEEP
    Ritz vectors and their images fill the first rows of its basis.

    Phase 2 refines phase 1's top Ritz vector y.  Each step applies M to y
    in float64, with the one float64 adjoint of the solve, and forms
    theta = y^T M y and the true residual r = M y - theta y; the solve is
    converged when r passes the stop rule.  Otherwise float32 conjugate
    gradients on phase 1's channels solve the Jacobi-Davidson correction
    equation (theta - M) t = r / ||r|| for t orthogonal to y and vec(I)
    (Sleijpen & van der Vorst, SIAM J. Matrix Anal. Appl. 17, 1996),
    deflated by phase 1's kept Ritz pairs after the top one (see
    :func:`_correct`), to relative residual REFINE_TOL or REFINE_MATVECS
    applications of M, and y becomes the unit vector along y + ||r|| t.
    The deflated operator is positive definite when theta exceeds the top
    eigenvalue of M orthogonal to y and the deflation vectors, which is at
    least phase 1's first Ritz value outside them, theta_out.  So the
    refinement hands over to the float64 engine, started from the current
    y, on one of three failures: theta - theta_out of at most REFINE_GAP
    float64 residuals before the first correction solve, a step that does
    not halve the float64 residual (as at a cluster at the top, which no
    correction separates), or fewer than two of the `max_iter` applications
    of M left.  Only float64 arithmetic reaches the report: kappa, the
    witness, `residual`, `error_bound` and `converged` come from the last
    float64 residual, or from the float64 engine after a hand-over.  On
    flat Haar channels at 5-7 qubits (D = 8 and 64, powers 1, 2 and 6,
    kappa above 1e-3) phase 1 runs to its target and one step of 10-53
    float32 applications of M and two float64 ones meets the stop rule:
    0.95-1.11 times the applications of M of the float64 engine alone, most
    of them at float32 cost.

    Phase 1 fills its own float32 rows for the basis and images; the
    refinement adds three float64 vectors (y, M y and r) and keeps its
    correction solve in phase 1's image rows past the deflation pairs.  A
    hand-over drops phase 1's rows and channels before it allocates the
    float64 basis, which outweighs them.  `matvecs` counts the
    applications of M in either precision, `iterations` the restart cycles
    plus the refinement steps, and `ritz_solves` the eigendecompositions of
    both engines.  Every other channel (N = 16 and below, a structured,
    monomial or superoperator stage) runs the float64 engine alone, from
    the random start.

    Before it builds anything, it checks the 2 size N^2 8 bytes of the
    float64 basis and its images, plus what the float64 adjoint builds and
    on the two-precision path phase 1's two float32 channels, against the
    memory budget (:func:`qexpander.linalg.check_memory`).  The adjoint
    builds a conjugated Kraus record per distinct stage and new GEMM-pair
    operands, and a GEMM-pair stage with live cross terms lifts its Kraus
    stack again on the way, 16 D N^2 bytes counted once per distinct stage
    (:func:`qexpander.channels.stage_bytes`); its L^T is a view and its
    monomial maps are shared.  It builds the adjoint and phase 1's channels
    before either basis, so no lift is built beside one.

    If M annihilates the start vector, kappa = 0 and the solve is
    converged.  `max_iter`, a positive int, caps the applications of M over
    all phases; reaching it returns converged=False and never raises.  The
    one start vector comes from rng_from(seed, 0), so the result is
    deterministic given `seed`.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if type(max_iter) is not int or max_iter < 1:
        raise ValueError(f"max_iter must be a positive int, got {max_iter!r}")
    dim = channel.dim
    if dim < 2:
        raise ValueError("a 1 x 1 channel has no traceless direction, so kappa is undefined")
    n = dim * dim
    size = min(LANCZOS_BASIS, n - 1)
    what = f"the Lanczos basis and its images, {size} vectors each on {dim} x {dim} operators"
    single = dim >= SINGLE_MIN_DIM and max_iter > 1 and flat_gemm_pair(channel)
    # The float64 adjoint's Kraus records and operands, the lifted stacks
    # its stages with live cross terms build on the way, and phase 1's two
    # float32 channels at half the operands' bytes each.
    records, operands, lifts = stage_bytes(channel)
    need = 2 * size * n * 8 + records + lifts + operands * (1 + single)
    what += ", the float64 adjoint" + " with its lifts" * bool(lifts) + " and the float32 GEMM operands" * single
    check_memory(need, what)
    # The channels come first, so no lift is built beside a basis.
    adjoint = channel.adjoint()
    gram = _gram(channel.apply_real, adjoint.apply_real)
    start = _unit_traceless(rng_from(seed, 0).standard_normal(n), dim)
    cycles = matvecs = solves = 0
    if single:
        # adjoint.astype is the float32 channel's adjoint, without a second conjugated Kraus stack.
        gram32 = _gram(channel.astype(np.float32).apply_real, adjoint.astype(np.float32).apply_real)
        # Rows: phase 1's orthonormal basis vectors v_i, then their images M v_i.
        basis32, images32 = np.empty((2, size, n), np.float32)
        theta, y, resid, _, cycles, matvecs, solves, ritz = _lanczos(
            gram32, start, basis32, images32, max(tol, SINGLE_TOL), max_iter - 1
        )
        # Phase 1 left its top Ritz pairs in its first rows, as a restart
        # would; those after the top one deflate the correction solves, short
        # of its last Ritz value, which the hand-over test reads.
        deflate = max(min(LANCZOS_KEEP - 1, len(ritz) - 2), 0)
        outside = float(ritz[deflate + 1]) if len(ritz) > deflate + 1 else -math.inf
        theta, y, resid, converged, steps, used = _refine(
            gram, gram32, _unit_traceless(y.astype(float), dim), outside,
            (basis32[1 : deflate + 1], images32[1 : deflate + 1]), images32[deflate + 1 :], tol, max_iter - matvecs,
        )
        cycles, matvecs = cycles + steps, matvecs + used
        if converged or matvecs >= max_iter:
            return _iterative_report(theta, y, dim, cycles, resid, converged, matvecs, solves)
        # The hand-over drops phase 1's rows and channels before the float64 basis.
        del gram32, basis32, images32
        start = y
    basis, images = np.empty((2, size, n))
    theta, y, resid, converged, *counts, _ = _lanczos(gram, start, basis, images, tol, max_iter - matvecs)
    cycles, matvecs, solves = (a + b for a, b in zip((cycles, matvecs, solves), counts))
    return _iterative_report(theta, y, dim, cycles, resid, converged, matvecs, solves)


def _gram(phi, adjoint):
    """M x into `out`, as gram(x, out), for phi(X) and adjoint(X) applying
    Phi and its adjoint to the real coordinates X of an N x N Hermitian
    matrix, at the dtype of `out`.  Phi and its adjoint are unital and
    trace preserving, so a traceless x stays traceless and one deflation
    of the output removes the rounding along vec(I)."""

    def gram(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        dim = math.isqrt(len(x))
        np.copyto(out.reshape(dim, dim), adjoint(phi(x.reshape(dim, dim))))
        return _deflate(out, dim)

    return gram


def _refine(gram, gram32, y, outside, pairs, low, tol, max_iter):
    """Phase 2 of a two-precision solve (see spectral_gap_iterative):
    mixed-precision refinement, in place, of the unit traceless float64 `y`,
    with gram and gram32 applying M in float64 and float32 (see
    :func:`_gram`), phase 1's deflation `pairs` and its first Ritz value
    `outside` them (see :func:`_correct`), and the float32 correction solve
    in the rows `low`.

    Returns (theta, y, resid, converged, steps, matvecs) for the last
    float64 pair: converged when it passed the stop rule for `tol`; else it
    stopped before the first correction solve, where theta - `outside` is at
    most REFINE_GAP float64 residuals (the deflated correction equation may
    then be indefinite), at a step that did not halve the float64 residual,
    or with fewer than two of its `max_iter` applications of M left."""
    dim = math.isqrt(len(y))
    image, r = np.empty((2, len(y)))
    steps = matvecs = 0
    last = math.inf  # the float64 residual before the last step
    while True:
        gram(y, image)
        matvecs += 1
        theta = float(y @ image)
        np.subtract(image, np.multiply(y, theta, out=r), out=r)
        resid = math.sqrt(r @ r)
        target = tol * max(2.0 * math.sqrt(max(theta, 0.0)), tol)
        indefinite = steps == 0 and theta - outside <= REFINE_GAP * resid
        if resid <= target or indefinite or resid > 0.5 * last or matvecs + 2 > max_iter:
            return theta, y, resid, resid <= target, steps, matvecs
        r /= resid
        t, used = _correct(gram32, theta, y, r, low, pairs, min(REFINE_MATVECS, max_iter - matvecs - 1))
        t *= resid
        y += t
        y /= math.sqrt(_deflate(y, dim) @ y)
        last = resid
        steps, matvecs = steps + 1, matvecs + used


def _correct(gram32, theta, y, b, low, pairs, most):
    """The correction t of one refinement step, in float32: conjugate
    gradients on A t = b, A = theta - M, for t orthogonal to y and to
    vec(I), with gram32 applying M (see :func:`_gram`), in the rows `low`
    (six, then one per deflation pair).  For the top Ritz pair (theta, y)
    A is positive definite there when theta exceeds the second eigenvalue
    of M (the Jacobi-Davidson correction equation; Sleijpen & van der
    Vorst, SIAM J. Matrix Anal. Appl. 17, 1996).

    The solve is deflated (Saad, Yeung, Erhel & Guyomarc'h, SIAM J. Sci.
    Comput. 21, 2000) by `pairs` = (Z, M Z), phase 1's next Ritz vectors
    and their float32 images: A Z = theta Z - M Z needs no application of
    M.  t starts as the solution on span Z, and each search direction is
    kept A-conjugate to Z, so the iterations see A only outside span Z,
    where it is positive definite once theta exceeds the top eigenvalue of
    M there.  It stops when its residual is below REFINE_TOL times ||b||,
    after `most` applications of M, or where A is not positive along the
    search direction.  Returns the row holding t and the applications of
    M."""
    t, res, p, q, y32, tmp = low[:6]
    z, mz = pairs
    az = low[6 : 6 + len(z)]
    np.subtract(np.multiply(z, theta, out=az), mz, out=az)  # A Z
    # Ritz vectors are M-orthogonal, so Z^T A Z is diagonal.
    inverse = 1.0 / np.einsum("ij,ij->i", z, az)
    np.copyto(y32, y, casting="same_kind")
    np.copyto(res, b, casting="same_kind")
    stop = REFINE_TOL**2 * float(res @ res)
    # t = Z (Z^T A Z)^-1 Z^T b, its residual b - A t, and p = res minus its
    # A-projection onto span Z.
    c = inverse * (z @ res)
    np.matmul(c, z, out=t)
    res -= np.matmul(c, az, out=tmp)
    np.subtract(res, np.matmul(inverse * (az @ res), z, out=tmp), out=p)
    rr = float(res @ res)
    used = 0
    while used < most and rr > stop:
        gram32(p, q)
        used += 1
        # q = -A p, orthogonal to y.
        q -= np.multiply(p, theta, out=tmp)
        q -= np.multiply(y32, y32 @ q, out=tmp)
        curve = -float(p @ q)
        if curve <= 0.0:
            break
        alpha = rr / curve
        t += np.multiply(p, alpha, out=tmp)
        res += np.multiply(q, alpha, out=tmp)
        rr, previous = float(res @ res), rr
        if rr <= stop:
            break
        p *= rr / previous
        p += res
        p -= np.matmul(inverse * (az @ res), z, out=tmp)
    return t, used


def _lanczos(gram, start, basis, images, tol, max_iter):
    """The engine of :func:`spectral_gap_iterative` at the dtype of `basis`
    and `images`, the (size, N^2) rows it fills, from the unit traceless
    `start`, with gram(x, out) applying M (see :func:`_gram`).

    Returns (theta, y, resid, converged, cycles, matvecs, solves, ritz):
    the top Ritz pair and its residual, whether it passed the stop rule for
    `tol` (or the Krylov space became invariant), the counts, and the Ritz
    values of the last Ritz solve in descending order ([0.0] if it had
    none).  It stops as spectral_gap_iterative describes, after at most
    `max_iter` applications of M.  A float32 run is phase 1: it also stops,
    unconverged, at its rounding floor, and wherever it stops after a Ritz
    solve, rows [:LANCZOS_KEEP] of `basis` and `images` hold the top Ritz
    vectors of that solve and their images, as after a restart, as many as
    it had."""
    size, n = basis.shape
    dim = math.isqrt(n)
    keep = min(LANCZOS_KEEP, size - 1)
    phase1 = basis.dtype == np.float32
    ritz = np.zeros((size, size), basis.dtype)  # lower triangle of V^T M V
    q = np.empty(n, basis.dtype)  # the next Lanczos direction
    row = np.empty(n, basis.dtype)  # a combination of basis rows, subtracted from q
    coef = np.empty(size, basis.dtype)  # V^T q
    basis[0] = start
    action = math.sqrt(gram(basis[0], images[0]) @ images[0])
    if action <= 1e-14:
        # The action on a generic start is numerically zero: kappa ~ 0.
        return 0.0, basis[0].copy(), action, True, 1, 1, 0, np.zeros(1)

    k, cycles, matvecs, solves = 0, 1, 1, 0
    check = 1  # matvecs at the next scheduled Ritz solve
    last = None  # (matvecs, ln(estimate / target)) at the last solve whose estimate missed
    previous = None  # the top Ritz pair's (theta, residual) at the last restart
    rises = 0  # consecutive restarts whose top residual did not fall
    while True:
        k += 1
        v, image, ritz_row, c = basis[:k], images[k - 1], ritz[k - 1, :k], coef[:k]
        np.matmul(v, image, out=ritz_row)
        # The next Lanczos direction: M v_last, orthogonal to V.  The first
        # pass reuses the Ritz row V^T M v_last; the deflation keeps the
        # rounding along vec(I) from growing when beta is small.
        np.subtract(image, np.matmul(ritz_row, v, out=row), out=q)
        np.matmul(v, q, out=c)
        np.subtract(q, np.matmul(c, v, out=row), out=q)
        _deflate(q, dim)
        beta = math.sqrt(q @ q)
        invariant = beta <= 1e-12  # then the Ritz values are eigenvalues
        stop = invariant or matvecs >= max_iter
        if stop or k == size or matvecs >= check:
            thetas, vecs = np.linalg.eigh(ritz[:k, :k])  # eigh reads the lower triangle
            solves += 1
            theta, s = float(thetas[-1]), vecs[:, -1]
            target = tol * max(2.0 * math.sqrt(max(theta, 0.0)), tol)
            estimate = abs(s[-1]) * beta
            if stop or estimate <= target:
                y = s @ v
                r = s @ images[:k] - theta * y
                resid = math.sqrt(r @ r)
                if stop or resid <= target:
                    if phase1:  # as a restart would
                        top = vecs[:, ::-1][:, :keep]
                        basis[: top.shape[1]], images[: top.shape[1]] = top.T @ v, top.T @ images[:k]
                    converged = invariant or resid <= target
                    return theta, y, resid, converged, cycles, matvecs, solves, thetas[::-1]
            # Schedule the next solve halfway to where ln(estimate / target)
            # reaches 0 at its mean drop per step since the last miss.
            ahead, miss = 1, None
            if estimate > target:
                miss = (matvecs, math.log(estimate / target))
                if last is not None and last[1] > miss[1]:
                    drop = (last[1] - miss[1]) / (matvecs - last[0])
                    ahead = min(max(int(0.5 * miss[1] / drop), 1), RITZ_LOOKAHEAD)
            last, check = miss, matvecs + ahead
            if k == size:
                # Thick restart on the top `keep` Ritz vectors: q is orthogonal
                # to them already, and V^T M V becomes diagonal.
                top = vecs[:, ::-1][:, :keep]
                basis[:keep], images[:keep] = top.T @ v, top.T @ images[:k]
                ritz[:keep, :keep] = np.diag(thetas[::-1][:keep])
                k = keep
                cycles += 1
                if phase1:
                    # The restart's top pair is (theta, basis[0]) with image
                    # images[0].  Its rounding floor is plausible at a restart
                    # that neither halved the top residual nor raised theta by
                    # more than the residual of the restart before, with the
                    # residual within STALL_FLOOR N theta; the second of two
                    # restarts in a row whose residual did not fall stops
                    # phase 1 wherever its floor lies.
                    r = images[0] - theta * basis[0]
                    resid = math.sqrt(r @ r)
                    if previous is not None:
                        rises = 0 if resid < previous[1] else rises + 1
                        flat = resid > 0.5 * previous[1] and theta <= previous[0] + previous[1]
                        if rises == 2 or flat and resid <= STALL_FLOOR * dim * theta:
                            return theta, basis[0].copy(), resid, False, cycles, matvecs, solves, thetas[::-1]
                    previous = theta, resid
        gram(np.divide(q, beta, out=basis[k]), images[k])
        matvecs += 1


def spectral_gap(channel, method: str = "iterative", **kwargs) -> GapReport:
    """kappa of `channel` by spectral_gap_iterative, the one gap route;
    solver options in `kwargs` (`tol`, `max_iter`, `seed`) pass through.
    `method` accepts only "iterative"."""
    if method != "iterative":
        raise ValueError(f"unknown method {method!r}; the only gap route is 'iterative'")
    return spectral_gap_iterative(channel, **kwargs)


def decide(instance: NonExpanderInstance, **kwargs) -> tuple[Decision, GapReport]:
    """Decide a non-expander instance from the computed kappa.

    YES requires kappa > alpha strictly (beyond `TIE_TOL`); kappa at or
    below beta (plus `TIE_TOL`) gives NO; anything between breaks the
    promise and is reported as PROMISE_VIOLATED rather than arbitrated.
    Every answer needs a converged solve, else it is UNCERTIFIED.  So is a
    YES or NO whose threshold lies within the report's `error_bound` e of
    kappa, and a PROMISE_VIOLATED unless the whole bar
    [kappa - e, min(1, kappa + e)] lies between the thresholds (kappa <= 1
    for every unital channel).
    """
    report = spectral_gap(instance.channel, **kwargs)
    if report.kappa > instance.alpha + TIE_TOL:
        decision, threshold = Decision.YES, instance.alpha
    elif report.kappa <= instance.beta + TIE_TOL:
        decision, threshold = Decision.NO, instance.beta
    else:
        low, high = report.kappa - report.error_bound, min(1.0, report.kappa + report.error_bound)
        inside = instance.beta + TIE_TOL < low and high <= instance.alpha + TIE_TOL
        return (Decision.PROMISE_VIOLATED if report.converged and inside else Decision.UNCERTIFIED), report
    if not report.converged or abs(report.kappa - threshold) <= report.error_bound:
        return Decision.UNCERTIFIED, report
    return decision, report
