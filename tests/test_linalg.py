import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpander.linalg import (
    check_memory,
    check_unitary,
    frobenius,
    haar_unitary,
    memory_budget,
    paulis,
    phi_state,
    qubits_for_dim,
    rng_from,
    split_index,
    unvec,
    vec,
)

from oracles import bitwise_split_index, embed, pattern_projector, random_operator, random_traceless

I, X, Y, Z = paulis()


def test_vec_convention_identity():
    # vec pairs |i>|j> with a_ij: identity on one qubit -> (1, 0, 0, 1)
    assert np.allclose(vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_index_order():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(a), [1, 2, 3, 4])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**9), st.sampled_from([2, 4, 8]))
def test_vec_unvec_round_trip(seed, dim):
    a = random_operator(dim, rng_from(seed))
    assert np.allclose(unvec(vec(a)), a)
    assert abs(np.linalg.norm(vec(a)) - frobenius(a)) <= 1e-12 * max(frobenius(a), 1)


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError, match="not a vectorized square"):
        unvec(np.zeros(3))


def test_trace_inner_product_with_phi():
    # tr A = sqrt(N) <phi|vec(A)> for random A
    rng = rng_from(7)
    for dim in (2, 4, 8):
        a = random_operator(dim, rng)
        lhs = np.trace(a)
        rhs = np.sqrt(dim) * np.vdot(phi_state(dim), vec(a))
        assert abs(lhs - rhs) < 1e-10


def test_frobenius_matches_trace_form():
    rng = rng_from(3)
    a = random_operator(8, rng)
    assert abs(frobenius(a) - np.sqrt(np.trace(a.conj().T @ a).real)) < 1e-12 * frobenius(a)


def test_qubits_for_dim():
    assert qubits_for_dim(8) == 3
    with pytest.raises(ValueError):
        qubits_for_dim(6)


def test_haar_unitary_is_unitary():
    rng = rng_from(0)
    for dim in (2, 4, 16):
        check_unitary(haar_unitary(dim, rng))


def test_check_unitary_rejects():
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.array([[1, 0], [0, 2]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            check_unitary(np.array([[bad, 0], [0, 1]]))


def test_check_unitary_checks_every_matrix_of_a_stack():
    rng = rng_from(5)
    stack = np.array([haar_unitary(4, rng) for _ in range(3)])
    assert check_unitary(stack).shape == (3, 4, 4)
    stack[1, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(stack)
    check_unitary(stack, tol=1e-5)


def test_embed_single_qubit_positions():
    assert np.allclose(embed(X, (0,), 2), np.kron(X, I))
    assert np.allclose(embed(X, (1,), 2), np.kron(I, X))


def test_embed_permutes_factors():
    # op ordered (q1, q0) must land as kron(second, first)
    op = np.kron(X, Z)
    assert np.allclose(embed(op, (1, 0), 2), np.kron(Z, X))


def test_embed_matches_kron_for_contiguous_prefix():
    rng = rng_from(5)
    u = haar_unitary(4, rng)
    assert np.allclose(embed(u, (0, 1), 3), np.kron(u, I))


def test_embed_rejects_bad_indices():
    with pytest.raises(ValueError, match="out of range"):
        embed(X, (3,), 2)
    with pytest.raises(ValueError, match="duplicate"):
        embed(np.kron(X, X), (0, 0), 2)


def test_projectors():
    # qubit 0 is the most significant bit
    p = pattern_projector(2, (0,), (1,))
    assert np.allclose(np.diag(p), [0, 0, 1, 1])
    p = pattern_projector(3, (0, 2), (1, 0))
    expect = [(i >> 2) & 1 == 1 and i & 1 == 0 for i in range(8)]
    assert np.allclose(np.diag(p), np.array(expect, dtype=float))


@pytest.mark.parametrize(
    "num_qubits, qubits",
    [(0, ()), (1, (0,)), (1, ()), (3, (2, 0, 1)), (4, ()), (5, (4,)), (5, (0, 1, 2, 3)), (6, (3, 1)), (8, (7, 0, 4))],
)
def test_split_index_matches_the_bitwise_oracle(num_qubits, qubits):
    got = split_index(num_qubits, qubits)
    want = bitwise_split_index(num_qubits, qubits)
    assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


def test_split_index_rejects_bad_qubits():
    with pytest.raises(ValueError, match="duplicate"):
        split_index(3, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        split_index(3, (3,))


def test_random_traceless():
    a = random_traceless(8, rng_from(2))
    assert abs(np.trace(a)) < 1e-12


def test_rng_streams_are_stable_and_distinct():
    a = rng_from(1, 2, 3).standard_normal(4)
    b = rng_from(1, 2, 3).standard_normal(4)
    c = rng_from(1, 2, 4).standard_normal(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def _budget_files(tmp_path, meminfo=None, cgroup=None, limit=None, v1_limit=None):
    """Fake /proc/meminfo, /proc/self/cgroup and cgroup root under tmp_path:
    `limit` is the v2 memory.max of cgroup /app, `v1_limit` the v1
    memory.limit_in_bytes of the memory controller's /app; a file left as
    None does not exist."""
    paths = {"meminfo": tmp_path / "meminfo", "cgroup": tmp_path / "cgroup", "cgroup_root": tmp_path / "fs"}
    if meminfo is not None:
        paths["meminfo"].write_text(meminfo)
    if cgroup is not None:
        paths["cgroup"].write_text(cgroup)
    for value, where, name in ((limit, "app", "memory.max"), (v1_limit, "memory/app", "memory.limit_in_bytes")):
        if value is not None:
            (paths["cgroup_root"] / where).mkdir(parents=True)
            (paths["cgroup_root"] / where / name).write_text(value)
    return {key: str(path) for key, path in paths.items()}


MEMINFO = "MemTotal:        8000000 kB\nMemFree:         1000000 kB\nMemAvailable:    6000000 kB\n"

#: The limit a v1 memory controller reports when none is set: 2^63 - 4096.
V1_UNLIMITED = "9223372036854771712\n"

#: /proc/self/cgroup of a hybrid host: v1 controllers beside the v2 line.
HYBRID = "9:name=systemd:/\n4:memory:/app\n1:cpu:/\n0::/\n"


@pytest.mark.parametrize(
    "meminfo, cgroup, limit, want",
    [
        (MEMINFO, "0::/app\n", "4096000000\n", 4096000000.0),
        (MEMINFO, "0::/app\n", "9000000000\n", 6000000 * 1024.0),
        (MEMINFO, "0::/app\n", "max\n", 6000000 * 1024.0),
        (None, "0::/app\n", "4096000000\n", 4096000000.0),
        (MEMINFO, None, None, 6000000 * 1024.0),
        ("MemTotal: 8000000 kB\n", "0::/app\n", "max\n", float("inf")),
        (None, None, None, float("inf")),
        ("MemAvailable: lots\n", "1:name=systemd:/app\n", None, float("inf")),
    ],
)
def test_memory_budget_reads_meminfo_and_cgroup_limit(tmp_path, meminfo, cgroup, limit, want):
    assert memory_budget(**_budget_files(tmp_path, meminfo, cgroup, limit)) == want


@pytest.mark.parametrize(
    "meminfo, cgroup, limit, v1_limit, want",
    [
        # v1 only, the memory controller alone or beside another on its line
        (MEMINFO, "4:memory:/app\n", None, "2048000000\n", 2048000000.0),
        (MEMINFO, "3:cpuacct,memory:/app\n", None, "2048000000\n", 2048000000.0),
        (MEMINFO, "4:memory:/app\n", None, "9000000000\n", 6000000 * 1024.0),
        (MEMINFO, "4:memory:/app\n", None, V1_UNLIMITED, 6000000 * 1024.0),
        (None, "4:memory:/app\n", None, V1_UNLIMITED, 9223372036854771712.0),
        (MEMINFO, "4:memory:/app\n", None, "lots\n", 6000000 * 1024.0),
        # hybrid: the v2 line names the root, which has no memory.max
        (MEMINFO, HYBRID, None, "2048000000\n", 2048000000.0),
        (MEMINFO, HYBRID, None, V1_UNLIMITED, 6000000 * 1024.0),
        # both limits readable: the least counts
        (MEMINFO, "4:memory:/app\n0::/app\n", "3000000000\n", "2048000000\n", 2048000000.0),
        (MEMINFO, "4:memory:/app\n0::/app\n", "1024000000\n", "2048000000\n", 1024000000.0),
        (MEMINFO, "4:memory:/app\n0::/app\n", "max\n", V1_UNLIMITED, 6000000 * 1024.0),
    ],
)
def test_memory_budget_reads_cgroup_v1_and_hybrid_limits(tmp_path, meminfo, cgroup, limit, v1_limit, want):
    assert memory_budget(**_budget_files(tmp_path, meminfo, cgroup, limit, v1_limit)) == want


def test_memory_budget_is_read_once_and_checked_against(monkeypatch):
    budget = memory_budget()
    hits = memory_budget.cache_info().hits
    assert memory_budget() == budget > 0
    assert memory_budget.cache_info().hits == hits + 1
    monkeypatch.setattr("qexpander.linalg.memory_budget", lambda: 2.0**30)
    check_memory(2**30, "a block")
    with pytest.raises(ValueError, match=r"^a block needs 1\.5 GiB, over the memory budget of 1 GiB$"):
        check_memory(3 * 2**29, "a block")


def test_memory_check_prints_bytes_when_the_gib_figures_tie(monkeypatch):
    # One byte over a 1 GiB budget prints as 1 GiB against 1 GiB in .3g.
    monkeypatch.setattr("qexpander.linalg.memory_budget", lambda: 2.0**30)
    message = r"^a block needs 1073741825 bytes, over the memory budget of 1073741824 bytes$"
    with pytest.raises(ValueError, match=message):
        check_memory(2**30 + 1, "a block")
    with pytest.raises(ValueError, match=r"needs 1\.01 GiB, over the memory budget of 1 GiB$"):
        check_memory(2**30 + 2**23, "a block")
