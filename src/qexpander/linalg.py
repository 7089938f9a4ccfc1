"""Dense complex linear algebra helpers shared across the toolkit.

Conventions used everywhere:

* Operators on m qubits are dense (2^m x 2^m) complex128 arrays.
* Vectorization is row-major: the amplitude at index i*N + j of vec(A)
  equals A[i, j], i.e. vec(A) pairs |i> (x) |j> with the entry a_ij.
  With this choice, vec(U A V^T) = (U (x) V) vec(A), so a unitary
  conjugation A -> U A U^dag acts on vec(A) as U (x) conj(U).
* Qubit 0 is the most significant bit of a basis-state index.
"""

from __future__ import annotations

import functools
import os

import numpy as np

#: Default absolute tolerance on Frobenius-norm checks.  Chosen for
#: double-precision accumulation over sums of at most ~2^14 terms.
ATOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)


def paulis() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the single-qubit Pauli basis (sigma_0..sigma_3) = (I, X, Y, Z)."""
    return PAULI_I, PAULI_X, PAULI_Y, PAULI_Z


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm sqrt(sum_ij |a_ij|^2) = sqrt(tr(A^dag A))."""
    return float(np.linalg.norm(np.asarray(a)))


def check_unitary(u: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate that a square matrix, or each of a (..., N, N) stack, is
    finite and unitary; returns it as complex128.

    The largest ||U^dag U - I||_F must be at most `tol`, by default
    1e-10 * N.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("matrix entries must be finite")
    n = u.shape[-1]
    if tol is None:
        tol = 1e-10 * n
    gram = u.conj().swapaxes(-1, -2) @ u - np.eye(n)
    defect = np.linalg.norm(gram, axis=(-2, -1)).max(initial=0.0)
    if not defect <= tol:
        raise ValueError(f"matrix is not unitary: ||U^dag U - I||_F = {defect:.3e}")
    return u


def check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def qubits_for_dim(dim: int) -> int:
    """Number of qubits m with 2^m = dim; raises if dim is not a power of two."""
    m = int(dim).bit_length() - 1
    if dim <= 0 or (1 << m) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return m


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec(A)[i*N + j] = A[i, j]."""
    return check_square(a).reshape(-1).copy()


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; rejects vectors of non-square length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(n, n).copy()


def real_coordinates(a: np.ndarray) -> np.ndarray:
    """Real coordinates X = Re H + Im H of the Hermitian part H = (A + A^dag)/2
    of a square A (or of each matrix of a (..., N, N) stack), computed as
    (S + D^T)/2 with S = Re A + Im A and D = Re A - Im A.  For a Hermitian
    A this is Re A + Im A exactly.  The map is an isometry from the
    Hermitian matrices onto the real ones: ||X||_F = ||H||_F."""
    a = np.asarray(a, dtype=complex)
    s, d = a.real + a.imag, a.real - a.imag
    s += d.swapaxes(-1, -2)
    s *= 0.5
    return s


def hermitian_from_real(x: np.ndarray) -> np.ndarray:
    """The Hermitian A = (X + X^T)/2 + i (X - X^T)/2 with real coordinates
    X (or each of a (..., N, N) stack); inverse of :func:`real_coordinates`."""
    x = np.asarray(x, dtype=float)
    xt = x.swapaxes(-1, -2)
    a = np.empty(x.shape, dtype=complex)
    np.add(x, xt, out=a.real)
    np.subtract(x, xt, out=a.imag)
    a *= 0.5
    return a


def phi_state(dim: int) -> np.ndarray:
    """The maximally entangled unit vector |phi> = vec(I)/sqrt(N)."""
    return vec(np.eye(dim, dtype=complex)) / np.sqrt(dim)


def split_index(num_qubits: int, qubits) -> np.ndarray:
    """Basis-state indices grouped by register, shape (2^(m-k), 2^k).

    Entry [r, i] is the index whose bits on `qubits` (in the given order,
    the first most significant) spell i and whose bits on the remaining
    qubits (ascending) spell r.
    """
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices in {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {num_qubits} qubits")
    rest = tuple(q for q in range(num_qubits) if q not in qubits)
    # The basis indices with one axis per qubit, reordered to (rest, qubits).
    grid = np.arange(2**num_qubits).reshape((2,) * num_qubits).transpose(rest + qubits)
    return grid.reshape(2 ** len(rest), 2 ** len(qubits))


# ---------------------------------------------------------------------------
# Memory budget.  An allocation that grows with the input is compared with
# the memory this process may use before it is made: the least of
# MemAvailable in /proc/meminfo and the memory limits of the process's
# cgroups, each where it can be read: memory.max for the unified (v2)
# hierarchy, memory.limit_in_bytes for a v1 memory controller.  The budget
# is read, never set, once per process; when nothing can be read there is
# no limit.
# ---------------------------------------------------------------------------


@functools.cache
def memory_budget(meminfo="/proc/meminfo", cgroup="/proc/self/cgroup", cgroup_root="/sys/fs/cgroup") -> float:
    """Bytes an allocation may take: min(MemAvailable, cgroup limits), or inf.

    A /proc/self/cgroup line is hierarchy:controllers:path.  The v2 line
    "0::path" is limited by <cgroup_root>/path/memory.max ("max" for none),
    and a v1 line whose controllers include memory by
    <cgroup_root>/memory/path/memory.limit_in_bytes (a huge number for
    none).  A hybrid host lists both, and the least limit counts."""
    limits = [float("inf")]
    try:
        with open(meminfo, encoding="utf-8") as fh:
            limits += [1024 * int(line.split()[1]) for line in fh if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(cgroup, encoding="utf-8") as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        entries = []
    for hierarchy, controllers, path in (entry for entry in entries if len(entry) == 3):
        if hierarchy == "0" and not controllers:
            limit = os.path.join(cgroup_root, path.lstrip("/"), "memory.max")
        elif "memory" in controllers.split(","):
            limit = os.path.join(cgroup_root, "memory", path.lstrip("/"), "memory.limit_in_bytes")
        else:
            continue
        try:
            with open(limit, encoding="utf-8") as fh:
                value = fh.read().strip()
            if value != "max":
                limits.append(int(value))
        except (OSError, ValueError):
            pass
    return float(min(limits))


def check_memory(need: int, what: str) -> None:
    """Raise ValueError, naming both figures, when `need` bytes for `what`
    exceed :func:`memory_budget`: in GiB to 3 significant digits, or in
    whole bytes when those would print alike."""
    budget = memory_budget()
    if need > budget:
        figures = [f"{b / 2**30:.3g} GiB" for b in (need, budget)]
        if figures[0] == figures[1]:
            figures = [f"{int(b)} bytes" for b in (need, budget)]
        raise ValueError(f"{what} needs {figures[0]}, over the memory budget of {figures[1]}")


# ---------------------------------------------------------------------------
# Seeded randomness.  All randomness in the toolkit flows from a single
# 64-bit seed through numpy's SeedSequence into the counter-based Philox
# generator.  Each purpose draws from one stream, named by integer context
# appended to the entropy: Arthur's orthogonality measurement uses
# rng_from(seed) and all of his Hadamard-test shots rng_from(seed, 1).
# ---------------------------------------------------------------------------


def rng_from(seed: int, *context: int) -> np.random.Generator:
    """Derive a reproducible generator from a root seed plus integer context."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, context)])))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
