"""Complex sparse matrices, preconditioned conjugate gradients, and the
rank-one bordered solve used when the mode-2 singular basis is reused for
higher modes.

Everything here assumes Hermitian positive definite matrices on the free
degrees of freedom, which the constrained weighted div-curl forms provide.
"""

from dataclasses import dataclass, field

import numpy as np


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

    @classmethod
    def from_coo(cls, rows, cols, vals, n):
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
        return cls(indptr, cols, vals, n)

    @property
    def nnz(self):
        return len(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=complex)
        if self.nnz == 0:
            return np.zeros(self.n, dtype=complex)
        prod = self.data * x[self.indices]
        counts = np.diff(self.indptr)
        starts = np.minimum(self.indptr[:-1], self.nnz - 1)
        out = np.add.reduceat(prod, starts)
        out[counts == 0] = 0.0
        return out

    def __matmul__(self, x):
        return self.matvec(x)

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


@dataclass
class CGInfo:
    iterations: int
    residual: float
    converged: bool
    history: list = field(default_factory=list)


def solve_hpd(A, b, tol=1e-10, maxit=None, x0=None):
    """Jacobi-preconditioned conjugate gradients for Hermitian positive
    definite A; converged means true relative residual ||b - Ax|| / ||b||
    <= tol.

    Once the recursive residual reaches tol the true one is recomputed; if
    it is above tol, CG restarts once from x with r = b - Ax, and raises
    SolverError carrying the true residual if that pass ends above tol too.
    Returns (x, CGInfo), CGInfo.residual being the true residual; raises
    ValueError unless 0 < tol < 1 (NaN included) and SolverError when maxit
    iterations (both passes together) are exhausted.  The info history
    records the preconditioned residual norm sqrt(r^H M^-1 r) at the start
    of each pass and once per iteration.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite and lie in (0, 1), got {tol!r}")
    b = np.asarray(b, dtype=complex)
    n = A.n
    if maxit is None:
        maxit = 20 * max(n, 1)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n, dtype=complex), CGInfo(0, 0.0, True)
    diag = A.diagonal().real
    if np.any(diag <= 0.0):
        raise SolverError("zero or negative diagonal entry; matrix is not HPD")
    inv_diag = 1.0 / diag
    x = np.zeros(n, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex).copy()
    r = b - A.matvec(x) if x.any() else b.copy()
    history = []
    it = 0
    for _ in range(2):
        z = inv_diag * r
        rho = np.vdot(r, z).real
        p = z.copy()
        history.append(np.sqrt(max(rho, 0.0)))
        resid = np.linalg.norm(r) / bnorm
        while resid > tol:
            if it >= maxit:
                raise SolverError(
                    f"CG did not converge in {maxit} iterations (residual {resid:.3e})",
                    residual=resid,
                    iterations=it,
                )
            q = A.matvec(p)
            denom = np.vdot(p, q).real
            if denom <= 0.0:
                raise SolverError(
                    "CG breakdown: matrix is not positive definite on the free dofs",
                    residual=resid,
                    iterations=it,
                )
            step = rho / denom
            x += step * p
            r -= step * q
            z = inv_diag * r
            rho_next = np.vdot(r, z).real
            p = z + (rho_next / rho) * p
            rho = rho_next
            history.append(np.sqrt(max(rho, 0.0)))
            resid = np.linalg.norm(r) / bnorm
            it += 1
        r = b - A.matvec(x)
        resid = float(np.linalg.norm(r) / bnorm)
        if resid <= tol:
            return x, CGInfo(it, resid, True, history)
    raise SolverError(
        f"CG reached tol {tol:.3e} on its recursive residual, but the true "
        f"residual is {resid:.3e} after a restart",
        residual=resid,
        iterations=it,
    )


@dataclass
class BorderedSystem:
    """K x + c y = F,  <y, x> + alpha c = f  with Hermitian positive K.

    y is the discrete coupling of the reused singular basis against the
    regular test functions, alpha its self-coupling, (F, f) the loads.
    """

    K: HermitianSparse
    y: np.ndarray
    alpha: complex
    F: np.ndarray
    f: complex


def solve_bordered(system, tol=1e-10):
    """Schur-complement solve of the bordered system; the border row pairs
    with vectors by the conjugate inner product, which keeps the augmented
    matrix Hermitian.

    Returns (x, c, (info_w, info_v)), the CGInfo of the solves K w = y and
    K v = F.
    """
    y = np.asarray(system.y, dtype=complex)
    F = np.asarray(system.F, dtype=complex)
    w, info_w = solve_hpd(system.K, y, tol=tol)
    v, info_v = solve_hpd(system.K, F, tol=tol)
    denom = system.alpha - complex(np.vdot(y, w))
    if abs(denom) < 1e-14 * abs(system.alpha):
        raise SolverError(
            f"degenerate coupling: Schur denominator {denom:.3e} "
            f"against alpha {system.alpha:.3e}"
        )
    c = (system.f - complex(np.vdot(y, v))) / denom
    x = v - c * w
    return x, c, (info_w, info_v)
