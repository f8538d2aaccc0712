import numpy as np
import pytest

from axmaxwell import linalg, mesh, modal_ops
from axmaxwell.cli_io import RHS_BUILTINS
from axmaxwell.femcore import SPACE_Y, MeshQuadrature
from axmaxwell.linalg import (
    STALL_WINDOW,
    HermitianSparse,
    SolverError,
    augmented,
    scatter,
    solve_bordered,
    solve_hpd,
)
from axmaxwell.solver import analyze_rhs


def _from_coo(rows, cols, vals, n):
    """HermitianSparse from coordinate triplets; duplicates add up."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.where(new)[0]
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return HermitianSparse(indptr, cols, vals, n)


def _random_hpd(n, rng):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = M.conj().T @ M + n * np.eye(n)
    rows, cols = np.nonzero(np.ones((n, n)))
    return _from_coo(rows, cols, A.ravel(), n), A


def test_from_coo_accumulates_duplicates():
    A = _from_coo([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], 2)
    assert A.nnz == 2
    dense = A.to_dense()
    assert dense[0, 0] == 3.0
    assert dense[1, 1] == 5.0


def test_matvec_with_empty_rows():
    A = _from_coo([0, 2], [0, 2], [2.0, 3.0], 3)
    x = np.array([1.0, 5.0, 2.0], dtype=complex)
    assert np.allclose(A.matvec(x), [2.0, 0.0, 6.0])


def test_matvec_matches_dense(rng):
    A, dense = _random_hpd(17, rng)
    x = rng.normal(size=17) + 1j * rng.normal(size=17)
    assert np.allclose(A.matvec(x), dense @ x, rtol=1e-13)


def test_matvec_with_trailing_empty_rows():
    """The last row with entries sums all of them when empty rows follow it."""
    A = HermitianSparse([0, 2, 2, 2], [0, 1], [1.0, 2.0], 3)
    assert A.matvec(np.ones(3)).tolist() == [3.0, 0.0, 0.0]


def _whole_matvec(A, x):
    """A x as one gather, one multiply (data first) and one reduceat over
    every row with entries."""
    prod = x[A.indices]
    np.multiply(A.data, prod, out=prod)
    out = np.zeros(A.n, dtype=complex)
    rows = np.flatnonzero(np.diff(A.indptr))
    if len(rows):
        out[rows] = np.add.reduceat(prod, A.indptr[rows])
    return out


@pytest.mark.parametrize("block", [None, 5])
def test_blocked_matvec_equals_the_whole_array_product_bit_for_bit(monkeypatch, block):
    """The matvec, _BLOCK_ROWS rows at a time, holds the bits of the
    whole-array product: with empty rows spread out, a block's worth of
    them, the last rows or every row empty, for n below, at and above the
    block size, and for an augmented matrix with its dense last row."""
    if block is not None:
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", block)
    size, rng = linalg._BLOCK_ROWS, np.random.default_rng(42)
    for n in (1, size - 1, size, size + 1, 3 * size + 2):
        for empty in ((), range(0, n, 3), range(size, min(2 * size, n)), range(max(n - 2, 0), n),
                      range(n)):
            counts = rng.integers(1, 30, n)
            counts[list(empty)] = 0
            rows = np.repeat(np.arange(n), counts)
            vals = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
            A = _from_coo(rows, rng.integers(0, n, len(rows)), vals, n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            for M in (A, augmented(A, y, 2.0 + n)):
                x = rng.normal(size=M.n) + 1j * rng.normal(size=M.n)
                got = M.matvec(x)
                assert got.tobytes() == _whole_matvec(M, x).tobytes(), (n, empty)
                if M.n <= 100:
                    assert np.allclose(got, M.to_dense() @ x, rtol=1e-12, atol=1e-12)


def test_identity_converges_immediately():
    A = _from_coo(range(5), range(5), np.ones(5), 5)
    b = np.arange(1.0, 6.0, dtype=complex)
    x, info = solve_hpd(A, b)
    assert np.allclose(x, b)
    assert info.iterations == 1


def test_zero_rhs_needs_no_iterations():
    A = _from_coo(range(4), range(4), 2 * np.ones(4), 4)
    x, info = solve_hpd(A, np.zeros(4))
    assert np.all(x == 0.0)
    assert info.iterations == 0


def test_cg_scales_a_right_hand_side_whose_norm_underflows():
    """s b for s in [1e-300, 1e-140], on the 10x10 _random_hpd matrix (seed
    0): a norm of s b, or of its residuals near round-off, would underflow,
    so CG solves 2^-e s b, its largest entry in [0.5, 1), and returns that
    solution times 2^e, bit for bit.  Each scale converges with a nonzero
    true residual to s times the solution of b."""
    rng = np.random.default_rng(0)
    A, _ = _random_hpd(10, rng)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    x1, _ = solve_hpd(A, b, tol=1e-10)
    for s in 10.0 ** np.arange(-300, -139, 5):
        x, info = solve_hpd(A, s * b, tol=1e-10)
        e = np.frexp(np.abs(s * b).max())[1]
        ref_x, ref_info = solve_hpd(A, s * b * 2.0 ** -e, tol=1e-10)
        assert info == ref_info and 0.0 < info.residual <= 1e-10, s
        assert x.tobytes() == (ref_x * 2.0 ** e).tobytes(), s
        assert np.abs(x / s - x1).max() <= 1e-8 * np.abs(x1).max(), s


def test_cg_raises_on_a_solution_that_overflows():
    """A finite b near the top of the floats and eigenvalues near 1e-12:
    the scaled solve converges, but its solution times 2^e overflows, and
    that is a SolverError, not an infinite x reported as converged."""
    rng = np.random.default_rng(0)
    A, _ = _random_hpd(10, rng)
    A.data *= 1e-12
    b = 1e300 * (rng.normal(size=10) + 1j * rng.normal(size=10))
    with pytest.raises(SolverError, match="overflows"):
        solve_hpd(A, b, tol=1e-10)


def test_cg_rounds_a_solution_below_the_normal_range_once():
    """With b near the normal range's floor and eigenvalues near 1e13 the
    solution lies among the subnormals: its entries round once, in the
    scaling back by 2^e, so x is 2^e times the solve of 2^-e b bit for bit
    and within half a subnormal spacing of that solve's exact scaling; the
    CGInfo is the scaled solve's and does not show the rounding."""
    rng = np.random.default_rng(0)
    A, _ = _random_hpd(10, rng)
    A.data *= 1e12
    b = 1e-307 * (rng.normal(size=10) + 1j * rng.normal(size=10))
    x, info = solve_hpd(A, b, tol=1e-10)
    e = np.frexp(np.abs(b).max())[1]
    ref_x, ref_info = solve_hpd(A, b * 2.0 ** -e, tol=1e-10)
    assert info == ref_info and 0.0 < info.residual <= 1e-10
    assert x.tobytes() == np.ldexp(ref_x.view(float), e).view(complex).tobytes()
    tiny, sub = np.finfo(float).tiny, np.finfo(float).smallest_subnormal
    assert np.all(np.abs(x.view(float)) < tiny) and x.any()  # every part subnormal or zero
    up = 2.0 ** 200  # both sides scaled into the normal range exactly
    assert np.abs(x.view(float) * up - ref_x.view(float) * (2.0 ** e * up)).max() <= sub * up / 2


def test_cg_matches_dense_solve(rng):
    A, dense = _random_hpd(30, rng)
    b = rng.normal(size=30) + 1j * rng.normal(size=30)
    x, info = solve_hpd(A, b, tol=1e-12)
    xd = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - xd) <= 1e-8 * np.linalg.norm(xd)
    assert info.residual <= 1e-12


def test_converged_solve_reports_its_stall_margin(lshape, lshape_quad, rng):
    """CGInfo.longest_stall, the longest run without a new residual minimum,
    stays below STALL_WINDOW on a converged solve, and counts the runs of an
    ill-conditioned one (kappa = 1e4) whose residual rises on the way."""
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    b = rng.normal(size=system.matrix.n) + 1j * rng.normal(size=system.matrix.n)
    _, info = solve_hpd(system.matrix, b, tol=1e-11)
    assert 0 <= info.longest_stall < STALL_WINDOW
    n = 40
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense = (Q * np.logspace(0, -4, n)) @ Q.conj().T
    rows, cols = np.nonzero(np.ones((n, n)))
    A = _from_coo(rows, cols, (0.5 * (dense + dense.conj().T)).ravel(), n)
    _, info = solve_hpd(A, rng.normal(size=n) + 1j * rng.normal(size=n), tol=1e-10)
    assert 0 < info.longest_stall < STALL_WINDOW


def test_nonconvergence_reports_residual():
    rng = np.random.default_rng(0)
    A, _ = _random_hpd(40, rng)
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    with pytest.raises(SolverError) as err:
        solve_hpd(A, b, tol=1e-14, maxit=2)
    assert err.value.residual is not None
    assert err.value.iterations == 2


def test_converged_means_true_residual_below_tol(rng):
    A, dense = _random_hpd(30, rng)
    b = rng.normal(size=30) + 1j * rng.normal(size=30)
    x, info = solve_hpd(A, b, tol=1e-12)
    true = np.linalg.norm(b - dense @ x) / np.linalg.norm(b)
    assert info.residual == pytest.approx(true, rel=1e-6)
    assert info.residual <= 1e-12


class LoggedJacobi:
    """Jacobi as a solve_hpd hierarchy that keeps a copy of every residual
    CG preconditions: each pass's first residual, then one per iteration,
    so a solve's passes are len(residuals) - iterations."""

    def __init__(self):
        self.residuals = []

    def cycle(self, A, inv_diag, r):
        self.residuals.append(r.copy())
        return inv_diag * r


def test_a_pass_that_reached_tol_restarts():
    """At tol = 3e-16 the first pass reaches tol on its recursive residual
    while the true residual is above it: that pass did not end at round-off,
    so CG restarts from x, and the second pass converges."""
    rng = np.random.default_rng(0)
    A, dense = _random_hpd(10, rng)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    jacobi = LoggedJacobi()
    x, info = solve_hpd(A, b, tol=3e-16, hierarchy=jacobi)
    assert len(jacobi.residuals) - info.iterations == 2
    assert info.residual <= 3e-16
    assert np.linalg.norm(b - dense @ x) <= 1e-15 * np.linalg.norm(b)


def test_recursive_residual_below_round_off_raises():
    """At tol = 1e-17 CG's recursive residual reaches tol, but the true
    residual of x stays near 1e-14: a restart cannot reach tol either."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    quad = MeshQuadrature(msh, corner)
    system = modal_ops.assemble_a_k(msh, 0, SPACE_Y, quad=quad)
    fmodes = analyze_rhs(RHS_BUILTINS["bandlimited"], 1, quad.xy)
    b = system.functional(np.column_stack([fmodes[0], np.zeros(len(quad.xy))]))
    with pytest.raises(SolverError) as err:
        solve_hpd(system.matrix, b, tol=1e-17)
    assert 1e-17 < err.value.residual < 1e-12  # the true residual, at round-off


def test_round_off_tolerance_fails_within_the_stall_window():
    """tol = 1e-17 is below round-off: the solve fails on the true residual
    or on a stalled one, within a window of the iterations that reach
    round-off, not after maxit = 20 n."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    quad = MeshQuadrature(msh, corner)
    system = modal_ops.assemble_a_k(msh, 0, SPACE_Y, quad=quad)
    f = analyze_rhs(RHS_BUILTINS["bandlimited"], 1, quad.xy)[0]
    b = system.functional(np.column_stack([f, np.zeros(len(f))]))
    _, info = solve_hpd(system.matrix, b, tol=1e-13)
    with pytest.raises(SolverError) as err:
        solve_hpd(system.matrix, b, tol=1e-17)
    assert err.value.iterations <= info.iterations + STALL_WINDOW < 20 * system.matrix.n


def test_stalled_residual_raises(rng):
    """With kappa = 1e16 the residual never falls below its start: CG raises
    after STALL_WINDOW iterations without a new minimum, not after maxit."""
    n = 40
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense = (Q * np.logspace(0, -16, n)) @ Q.conj().T
    rows, cols = np.nonzero(np.ones((n, n)))
    A = _from_coo(rows, cols, (0.5 * (dense + dense.conj().T)).ravel(), n)
    with pytest.raises(SolverError, match="stalled") as err:
        solve_hpd(A, rng.normal(size=n) + 1j * rng.normal(size=n), tol=1e-12)
    assert err.value.iterations == STALL_WINDOW < 20 * n


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, 1.0])
def test_cg_rejects_tolerance_outside_unit_interval(tol):
    A, _ = _random_hpd(5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        solve_hpd(A, np.ones(5), tol=tol)


def test_indefinite_matrix_breaks_down():
    """[[1, 2], [2, 1]] has eigenvalues 3 and -1: with b = (1, -1) the first
    search direction has p^H A p = -2 at a residual far above round-off."""
    A = _from_coo([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0], 2)
    with pytest.raises(SolverError, match="^CG breakdown: matrix is not positive definite"):
        solve_hpd(A, np.array([1.0, -1.0]))


def test_zero_diagonal_is_rejected():
    A = _from_coo([0, 1], [1, 0], [1.0, 1.0], 2)
    with pytest.raises(SolverError):
        solve_hpd(A, np.ones(2))


def test_bordered_decouples_without_coupling(rng):
    A, _ = _random_hpd(12, rng)
    F = rng.normal(size=12) + 1j * rng.normal(size=12)
    x, c, info = solve_bordered(A, np.zeros(12, dtype=complex), 2.0, F, 3.0 + 1.0j, tol=1e-12)
    xd, _ = solve_hpd(A, F, tol=1e-12)
    assert info.residual <= 1e-12
    assert np.allclose(x, xd, atol=1e-9)
    assert c == pytest.approx((3.0 + 1.0j) / 2.0)


def test_bordered_zero_data(rng):
    A, _ = _random_hpd(9, rng)
    y = rng.normal(size=9) + 1j * rng.normal(size=9)
    x, c, info = solve_bordered(A, y, 5.0, np.zeros(9, dtype=complex), 0.0, tol=1e-12)
    assert np.linalg.norm(x) <= 1e-12
    assert abs(c) <= 1e-12
    assert info.iterations == 0


def test_bordered_manufactured_recovery(rng):
    A, dense = _random_hpd(25, rng)
    y = rng.normal(size=25) + 1j * rng.normal(size=25)
    alpha = 40.0
    x0 = rng.normal(size=25) + 1j * rng.normal(size=25)
    c0 = 0.8 - 0.3j
    F = dense @ x0 + c0 * y
    f = np.vdot(y, x0) + alpha * c0
    x, c, _ = solve_bordered(A, y, alpha, F, f, tol=1e-13)
    assert abs(c - c0) <= 1e-8 * abs(c0)
    assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)


def _dense_augmented(K, y, alpha):
    n = K.n
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = K.to_dense()
    aug[:n, n] = y
    aug[n, :n] = np.conj(y)
    aug[n, n] = alpha
    return aug


def test_bordered_matches_dense_augmented(lshape, lshape_quad, rng):
    """The augmented matrix is [[K, y], [y^H, alpha]], also for a K with
    empty rows, the last one included, where the border is inserted at
    repeated row offsets; one CG solve on it meets tol."""
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    assert system.matrix.n <= 300  # keep the dense oracle cheap
    with_empty_rows = _from_coo([0, 0, 2, 3], [0, 3, 2, 0], [2.0, 1j, 3.0, -1j], 5)
    alpha = 30.0
    for K in (with_empty_rows, system.matrix):
        y = rng.normal(size=K.n) + 1j * rng.normal(size=K.n)
        aug = _dense_augmented(K, y, alpha)
        A = augmented(K, y, alpha)
        assert A.n == K.n + 1 and A.nnz == K.nnz + 2 * K.n + 1
        assert np.array_equal(A.to_dense(), aug)
        v = rng.normal(size=K.n + 1) + 1j * rng.normal(size=K.n + 1)
        assert np.allclose(A.matvec(v), aug @ v, rtol=1e-14, atol=1e-12)
    # the augmented matrix is HPD once alpha exceeds y^H K^-1 y
    alpha += np.vdot(y, np.linalg.solve(system.matrix.to_dense(), y)).real
    aug = _dense_augmented(system.matrix, y, alpha)
    n = system.matrix.n
    F = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = 1.5 - 0.5j
    x, c, info = solve_bordered(system.matrix, y, alpha, F, f, tol=1e-13)
    assert info.residual <= 1e-13
    b = np.concatenate([F, [f]])
    got = np.concatenate([x, [c]])
    assert np.linalg.norm(b - aug @ got) <= 1e-13 * np.linalg.norm(b)
    ref = np.linalg.solve(aug, b)
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


# K = I, y = e1 and alpha = 1 make alpha - y^H K^-1 y vanish: the augmented
# matrix is singular, with null vector (e1, -1)
_DEGENERATE = (
    _from_coo(range(3), range(3), np.ones(3), 3),
    np.array([1.0, 0.0, 0.0], dtype=complex),
    1.0,
)


def test_degenerate_coupling_raises():
    """Data with a component along the null vector: CG breaks down."""
    with pytest.raises(SolverError):
        solve_bordered(*_DEGENERATE, np.ones(3, dtype=complex), 0.0, tol=1e-13)


def test_degenerate_coupling_with_consistent_data_solves():
    """Data in the range of the singular augmented matrix: CG finds a
    solution whose true residual meets tol."""
    K, y, alpha = _DEGENERATE
    F, f = np.ones(3, dtype=complex), 1.0
    x, c, info = solve_bordered(K, y, alpha, F, f, tol=1e-13)
    assert info.residual <= 1e-13
    b = np.concatenate([F, [f]])
    resid = b - _dense_augmented(K, y, alpha) @ np.concatenate([x, [c]])
    assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(b)


def test_scatter_adds_each_slot_in_order():
    """scatter gives the bits of the sequential loop out[slot] += value, from
    +0.0 and signed zeros included, and drops the values of slot == size."""
    rng = np.random.default_rng(7)
    size, count = 40, 3000
    slots = rng.integers(0, size + 1, count).astype(np.int32)
    vals = (rng.normal(size=count) + 1j * rng.normal(size=count)) * 10.0 ** rng.integers(-9, 9, count)
    vals[slots == 3] = complex(-0.0, -0.0)
    want = np.zeros((size + 1, 2))
    for slot, value in zip(slots.tolist(), vals.tolist()):
        want[slot, 0] += value.real
        want[slot, 1] += value.imag
    got = scatter(slots, vals, size)
    assert got.shape == (size,) and got.tobytes() == want[:size].tobytes()
