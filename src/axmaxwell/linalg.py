"""Complex sparse matrices, conjugate gradients preconditioned by Jacobi or
by a geometric multigrid V-cycle, and the bordered solve used when the
mode-2 singular basis is reused for higher modes: one CG solve on the
augmented matrix, the Galerkin matrix of the regular space plus the basis.

Everything here assumes Hermitian positive definite matrices on the free
degrees of freedom, which the constrained weighted div-curl forms provide.
"""

from dataclasses import dataclass

import numpy as np

# CG raises once its residual has made no new minimum for this many
# iterations; healthy Jacobi solves stalled for up to 110 (h = 0.00625)
STALL_WINDOW = 200
_EPS = np.finfo(float).eps  # a relative residual below it is round-off
# damping of the Jacobi smoother of the V-cycle, and its sweeps per side;
# the smoother contracts, and the cycle stays positive definite, while
# _OMEGA times the largest eigenvalue of D^-1 A stays below 2.  That
# eigenvalue is below 2 for the mode forms, and at most 2.30 (h = 0.1) and
# 1.99 (h = 0.05) for the bordered matrices of k = 3..24, both spaces
_OMEGA = 0.6
_SWEEPS = 2
_BLOCK_ROWS = 2048  # rows per block of a matvec: its products exist one block at a time
_SMALL_NORM = np.sqrt(np.finfo(float).tiny) / _EPS  # below it, eps ||b|| squares to a subnormal
_LARGE_NORM = np.sqrt(np.finfo(float).max) * _EPS  # above it, ||b|| / eps squares beyond the floats


class SolverError(RuntimeError):
    """Iterative solve failed; carries the final residual and iteration count."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class HermitianSparse:
    """Compressed-row complex matrix with a structurally symmetric pattern."""

    def __init__(self, indptr, indices, data, n):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=complex)
        self.n = int(n)
        # matvec's blocks of _BLOCK_ROWS rows with entries: entries, offsets, rows
        rows, ptr = np.flatnonzero(np.diff(self.indptr)), self.indptr
        self._blocks = [(slice(ptr[r[0]], ptr[r[-1] + 1]), ptr[r] - ptr[r[0]], r)
                        for r in np.split(rows, np.arange(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)) if len(r)]

    @property
    def nnz(self):
        return len(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=complex)
        out = np.zeros(self.n, dtype=complex)
        for entries, offsets, rows in self._blocks:
            prod = x[self.indices[entries]]
            np.multiply(self.data[entries], prod, out=prod)  # data * x, not x * data, keeps the bits
            out[rows] = np.add.reduceat(prod, offsets)
        return out

    def diagonal(self):
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        diag = np.zeros(self.n, dtype=complex)
        on_diag = rows == self.indices
        diag[rows[on_diag]] = self.data[on_diag]
        return diag

    def to_dense(self):
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dense = np.zeros((self.n, self.n), dtype=complex)
        np.add.at(dense, (rows, self.indices), self.data)
        return dense


def scatter(slots, vals, size):
    """Sums of the complex vals per slot in [0, size); slot == size drops
    a value.  Values add in their order (np.add.at, which copies neither
    slots nor vals), so the result is reproducible."""
    out = np.zeros(size + 1, dtype=complex)
    np.add.at(out, slots, vals)
    return out[:size]


def _inverse_diagonal(A):
    diag = A.diagonal().real
    if np.any(diag <= 0.0):
        raise SolverError("zero or negative diagonal entry; matrix is not HPD")
    return 1.0 / diag


class Transfer:
    """Prolongation P from the free dofs of a coarse level to those of the
    next finer one: (P x)[i] = weight[i, 0] x[index[i, 0]] + weight[i, 1]
    x[index[i, 1]], with index (n_fine, 2) coarse free dofs and complex
    weight (n_fine, 2).  Restriction is the conjugate transpose P^H."""

    def __init__(self, index, weight, n_coarse):
        self.index = index
        self.weight = weight
        self.n_coarse = n_coarse

    def prolong(self, xc):
        return self.weight[:, 0] * xc[self.index[:, 0]] + self.weight[:, 1] * xc[self.index[:, 1]]

    def restrict(self, r):
        return scatter(self.index.ravel(), (np.conj(self.weight) * r[:, None]).ravel(),
                       self.n_coarse)


class Level:
    """One coarse level of a multigrid hierarchy: its matrix with its
    inverse diagonal, and the transfer from it to the next finer level."""

    def __init__(self, matrix, transfer):
        self.matrix = matrix
        self.transfer = transfer
        self.inv_diag = _inverse_diagonal(matrix)


class Multigrid:
    """V(2,2)-cycle with damped Jacobi smoothing over coarse levels, finest
    first; the coarsest level is solved exactly through its dense inverse,
    computed once.  The finest level is the matrix being solved, which the
    caller supplies with its inverse diagonal.  The cycle is a fixed
    Hermitian positive definite operator, so it preconditions CG.

    The finest matrix may have rows past those of its transfer, like the
    border of a bordered matrix: the smoother treats them as fine dofs
    and no coarse correction reaches them."""

    def __init__(self, levels):
        self.levels = list(levels)
        inverse = np.linalg.inv(self.levels[-1].matrix.to_dense())
        self.coarsest_inverse = 0.5 * (inverse + inverse.conj().T)

    def cycle(self, A, inv_diag, r, depth=0):
        """Approximate solution of A x = r by one V-cycle from x = 0; A is
        the matrix of level depth (depth 0: the finest)."""
        x = _OMEGA * inv_diag * r
        for _ in range(_SWEEPS - 1):
            x += _OMEGA * inv_diag * (r - A.matvec(x))
        level = self.levels[depth]
        n = len(level.transfer.index)
        rc = level.transfer.restrict((r - A.matvec(x))[:n])
        if depth + 1 == len(self.levels):
            ec = self.coarsest_inverse @ rc
        else:
            ec = self.cycle(level.matrix, level.inv_diag, rc, depth + 1)
        x[:n] += level.transfer.prolong(ec)
        for _ in range(_SWEEPS):
            x += _OMEGA * inv_diag * (r - A.matvec(x))
        return x


@dataclass
class CGInfo:
    """What a converged solve reports (a failed one raises SolverError):
    its iterations, its true relative residual, and longest_stall, the most
    consecutive iterations of one pass without a new residual minimum,
    which stayed below STALL_WINDOW."""

    iterations: int
    residual: float
    longest_stall: int = 0


def solve_hpd(A, b, tol=1e-10, maxit=None, *, hierarchy=None):
    """Preconditioned conjugate gradients for Hermitian positive definite A;
    converged means true relative residual ||b - Ax|| / ||b|| <= tol.

    The preconditioner is one V-cycle of hierarchy (a Multigrid whose
    coarse levels discretise the same form as A) or, with hierarchy None,
    Jacobi.  Once the recursive residual reaches tol the true one is
    recomputed; if it is above tol, CG restarts once from x with r = b - Ax,
    and raises SolverError carrying the true residual if that pass ends
    above tol too.  A pass ends at round-off, and no restart follows, when
    p^H A p <= 0 with the recursive residual below _EPS, or when rho or that
    residual underflows to 0.  A b with ||b|| < _SMALL_NORM or > _LARGE_NORM
    (inf included) is solved as 2^-e b, its largest real or imaginary part
    in [0.5, 1), and x scaled back by 2^e, exact unless an entry of x is
    subnormal (it rounds, unseen in the CGInfo of the scaled solve) or
    overflows (SolverError).  Returns (x, CGInfo) with the true residual;
    raises ValueError, before any matvec, unless 0 < tol < 1 (NaN included)
    and b is finite, and SolverError when maxit iterations (both passes
    together) are exhausted or when the recursive residual has made no new
    minimum for STALL_WINDOW iterations of a pass; CGInfo.longest_stall is
    the longest such run over both passes.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite and lie in (0, 1), got {tol!r}")
    b = np.ascontiguousarray(b, dtype=complex)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side is not finite")
    n = A.n
    if maxit is None:
        maxit = 20 * max(n, 1)
    with np.errstate(over="ignore"):  # inf: scaled below
        bnorm = np.linalg.norm(b)
    if bnorm < _SMALL_NORM or bnorm > _LARGE_NORM:  # residual norms under/overflow
        if not b.any():
            return np.zeros(n, dtype=complex), CGInfo(0, 0.0)
        e = int(np.frexp(np.abs(b.view(float)).max())[1])  # 2^-e b's largest part is in [0.5, 1)
        x, info = solve_hpd(A, np.ldexp(b.view(float), -e).view(complex), tol, maxit, hierarchy=hierarchy)
        if e > 0 and np.abs(x.view(float)).max() >= np.ldexp(1.0, np.finfo(float).maxexp - e):
            raise SolverError("CG solution overflows", residual=info.residual, iterations=info.iterations)
        return np.ldexp(x.view(float), e).view(complex), info
    inv_diag = _inverse_diagonal(A)
    if hierarchy is None:
        def precondition(r):
            return inv_diag * r
    else:
        def precondition(r):
            return hierarchy.cycle(A, inv_diag, r)
    x = np.zeros(n, dtype=complex)
    r = b.copy()
    it = longest_stall = 0
    for restarted in (False, True):
        z = precondition(r)
        rho = np.vdot(r, z).real
        p = z.copy()
        resid = best = np.linalg.norm(r) / bnorm
        since_best = 0
        round_off = rho == 0.0  # a step would divide by it
        while resid > tol and not round_off:
            if it >= maxit:
                raise SolverError(
                    f"CG did not converge in {maxit} iterations (residual {resid:.3e})",
                    residual=resid,
                    iterations=it,
                )
            if since_best >= STALL_WINDOW:
                raise SolverError(
                    f"CG stalled: no new residual minimum in {STALL_WINDOW} iterations "
                    f"(residual {resid:.3e}, minimum {best:.3e}, tol {tol:.3e})",
                    residual=resid,
                    iterations=it,
                )
            q = A.matvec(p)
            denom = np.vdot(p, q).real
            if denom <= 0.0:
                if resid < _EPS:  # round-off, not indefiniteness: the true residual decides
                    round_off = True
                    break
                raise SolverError(
                    "CG breakdown: matrix is not positive definite on the free dofs",
                    residual=resid,
                    iterations=it,
                )
            step = rho / denom
            x += step * p
            r -= step * q
            z = precondition(r)
            rho_next = np.vdot(r, z).real
            p = z + (rho_next / rho) * p
            rho = rho_next
            recursive = np.linalg.norm(r) / bnorm
            round_off = rho == 0.0 or recursive == 0.0  # underflow; resid stays the last nonzero
            resid = recursive or resid
            it += 1
            if resid < best:
                best, since_best = resid, 0
            else:
                since_best += 1
                longest_stall = max(longest_stall, since_best)
        r = b - A.matvec(x)
        recursive, resid = resid, float(np.linalg.norm(r) / bnorm)
        if resid <= tol:
            return x, CGInfo(it, resid, longest_stall)
        if round_off:  # a restart cannot do better
            break
    ended = f"stopped at round-off ({recursive:.3e})" if round_off else f"reached tol {tol:.3e}"
    raise SolverError(
        f"CG {ended} on its recursive residual, but the true residual is {resid:.3e} "
        f"(tol {tol:.3e})" + (" after a restart" if restarted else ""),
        residual=resid,
        iterations=it,
    )


def augmented(K, y, alpha):
    """The Hermitian matrix [[K, y], [y^H, alpha]]: y becomes column n at
    the end of each row of K, and [y^H, alpha] its dense last row."""
    n = K.n
    y = np.asarray(y, dtype=complex)
    at = K.indptr[1:]
    indices = np.append(np.insert(K.indices, at, n), np.arange(n + 1))
    data = np.append(np.insert(K.data, at, y), np.append(np.conj(y), alpha))
    indptr = np.append(K.indptr + np.arange(n + 1), K.nnz + 2 * n + 1)
    return HermitianSparse(indptr, indices, data, n + 1)


def solve_bordered(K, y, alpha, F, f, tol=1e-10, hierarchy=None):
    """Solve K x + c y = F,  <y, x> + alpha c = f  by one CG solve on the
    augmented matrix [[K, y], [y^H, alpha]], Hermitian positive definite
    whenever alpha > y^H K^-1 y; the border row pairs with vectors by the
    conjugate inner product.  hierarchy (see solve_hpd) is that of K: its
    cycle leaves the border to the smoother.  Returns (x, c, CGInfo).
    """
    b = np.append(np.asarray(F, dtype=complex), f)
    z, info = solve_hpd(augmented(K, y, alpha), b, tol=tol, hierarchy=hierarchy)
    return z[:-1], complex(z[-1]), info
