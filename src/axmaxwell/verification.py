"""Acceptance property suite.

Each criterion is a function returning a CriterionResult; run_all executes
all of them.  The pytest acceptance module and the `verify` subcommand both
drive this code, so the gate is identical in both entry points.

Shared meshes, systems and bases are cached per process: the suite is a
fixed set of deterministic checks, not a benchmark.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import femcore, manufactured, mesh as meshmod, modal_ops, singular, solver, special
from .cli_io import RHS_BUILTINS
from .femcore import MeshQuadrature, ModeField
from .linalg import STALL_WINDOW
from .mesh import ConicalDescriptor

# all tolerances fixed here, straight from the acceptance statement
BETA_REF = 1.3771
BETA_TOL = 5e-4
PI_BETA_REF = 2.2816  # 130 deg 43 min
PI_BETA_TOL = 1e-3
OPERATOR_TOL = 1e-5
ASSEMBLY_TOL = 1e-10
CONVERGENCE_L2_RATE = 1.8
CONVERGENCE_ENERGY_RATE = 0.9
HOMOGENEITY_TOL = 1e-6
SINGULAR_COEFF_TOL = 1e-4
SINGULAR_ENERGY_RATIO = 1e-4
BORDERED_DIFF_TOL = 0.05
# two orthogonality-equivalent discrete paths agree to solver accuracy; the
# "non-increasing under refinement" comparison carries this noise floor
BORDERED_NOISE_FLOOR = 1e-8
ROUNDTRIP_TOL = 1e-10
CONJUGATE_TOL = 1e-8
SOLVER_TOL = 1e-10


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _lshape(h):
    return meshmod.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)


@lru_cache(maxsize=None)
def _lshape_quad(h):
    msh, corner = _lshape(h)
    return MeshQuadrature(msh, corner)


@lru_cache(maxsize=None)
def _lshape_system(h, k, space):
    msh, _ = _lshape(h)
    return modal_ops.assemble_a_k(msh, k, space, quad=_lshape_quad(h))


@lru_cache(maxsize=None)
def _lshape_basis(h, k, space):
    return singular.compute_basis(_lshape_system(h, k, space), tol=SOLVER_TOL)


def _random_constrained(system, rng):
    raw = ModeField(
        system.mesh,
        system.k,
        rng.normal(size=(system.mesh.num_vertices, 3))
        + 1j * rng.normal(size=(system.mesh.num_vertices, 3)),
    )
    return system.constraints.apply(raw)


def criterion_1_beta_threshold():
    t0 = time.time()
    beta = special.find_beta()
    elapsed = time.time() - t0
    pi_beta = math.pi / beta
    resid = abs(special.legendre_p(0.5, math.cos(pi_beta)))
    ok = (
        abs(beta - BETA_REF) <= BETA_TOL
        and abs(pi_beta - PI_BETA_REF) <= PI_BETA_TOL
        and resid <= 1e-8
        and elapsed < 1.0
    )
    return CriterionResult(
        1,
        "beta threshold",
        ok,
        f"beta={beta:.6f}, pi/beta={pi_beta:.5f} rad, residual={resid:.1e}, {elapsed:.3f}s",
    )


def fd_ops(u, pt, k, h):
    """D_k rows (curl_r, curl_theta, curl_z, div) of a field u(pt) -> (u_r,
    u_theta, u_z) at an (r, z) point pt, or along the first axis at (..., 2)
    points pt, with derivatives as central differences of step h."""
    d_r = (u(pt + [h, 0]) - u(pt - [h, 0])) / (2 * h)
    d_z = (u(pt + [0, h]) - u(pt - [0, h])) / (2 * h)
    v, r, ik = u(pt), pt[..., 0], 1j * k
    return np.array([ik * v[2] / r - d_z[1], d_z[0] - d_r[2], d_r[1] + v[1] / r - ik * v[0] / r,
                     d_r[0] + v[0] / r + ik * v[1] / r + d_z[2]])


def criterion_2_operator_oracle():
    """The D_k rows of OperatorWorkspace.op_values, the kernel every solve
    runs, against central differences of the interpolated field at random
    quadrature points (plain and corner-subdivided triangles).  D_k of the
    field (0, 0, w) holds grad_k w, so this also covers the scalar grad_k."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    quad = _lshape_quad(0.2)
    msh, ws = quad.mesh, modal_ops.workspace(quad)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(-3, 4))
        fld = ModeField(msh, k, rng.normal(size=(msh.num_vertices, 3))
                        + 1j * rng.normal(size=(msh.num_vertices, 3)))
        q = int(rng.integers(len(quad.xy)))
        fd = fd_ops(lambda p: femcore.interpolate(fld, p), quad.xy[q], k, 1e-6)
        scale = max(1.0, np.abs(femcore.interpolate(fld, quad.xy[q])).max())
        worst = max(worst, np.abs(ws.op_values(fld.values, k)[q] - fd).max() / scale)
    elapsed = time.time() - t0
    ok = worst <= OPERATOR_TOL and elapsed < 10.0
    return CriterionResult(
        2, "mode-k operator oracle", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s"
    )


def criterion_3_assembly_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1)
    h = 0.1
    quad = _lshape_quad(h)
    worst_dec = worst_shift = 0.0
    for k in range(-2, 6):
        for space in (femcore.SPACE_X, femcore.SPACE_Y):
            system = _lshape_system(h, k, space)
            for _ in range(10):
                u = _random_constrained(system, rng)
                v = _random_constrained(system, rng)
                direct = modal_ops.a_k_direct(u, v, k, quad)
                dec = modal_ops.a_k_via_decomposition(u, v, k, quad)
                worst_dec = max(worst_dec, abs(direct - dec) / abs(direct))
                if k in (3, 4, 5):
                    shifted = modal_ops.a_k_by_shift(u, v, k, quad)
                    worst_shift = max(worst_shift, abs(direct - shifted) / abs(direct))
    elapsed = time.time() - t0
    ok = worst_dec <= ASSEMBLY_TOL and worst_shift <= ASSEMBLY_TOL and elapsed < 60.0
    return CriterionResult(
        3,
        "assembly equivalence",
        ok,
        f"decomposition {worst_dec:.2e}, mode shift {worst_shift:.2e}, {elapsed:.1f}s",
    )


def criterion_4_hpd():
    worst = np.inf
    nmax = 0
    for k in (0, 1, 2):
        for space in (femcore.SPACE_X, femcore.SPACE_Y):
            system = _lshape_system(0.1, k, space)
            n = system.matrix.n
            if n > 300:
                return CriterionResult(4, "HPD property", False, f"n={n} exceeds 300")
            nmax = max(nmax, n)
            eigs = np.linalg.eigvalsh(system.matrix.to_dense())
            worst = min(worst, float(eigs.min()))
    ok = worst > 0.0
    return CriterionResult(
        4, "HPD property", ok, f"min eigenvalue {worst:.3e} over n <= {nmax}"
    )


def criterion_5_convergence():
    t0 = time.time()
    worst_l2 = worst_en = np.inf
    for space in (femcore.SPACE_X, femcore.SPACE_Y):
        study = manufactured.convergence_study(
            space, (0, 1, -1, 2, -2, 3), [0.2, 0.1, 0.05], SOLVER_TOL
        )
        for _, rate_l2, rate_en in study.values():
            worst_l2 = min(worst_l2, rate_l2)
            worst_en = min(worst_en, rate_en)
    elapsed = time.time() - t0
    ok = worst_l2 >= CONVERGENCE_L2_RATE and worst_en >= CONVERGENCE_ENERGY_RATE and elapsed < 300.0
    return CriterionResult(
        5,
        "manufactured smooth convergence",
        ok,
        f"min L2 rate {worst_l2:.2f} (>=1.8), min energy rate {worst_en:.2f} (>=0.9), {elapsed:.1f}s",
    )


def criterion_6_homogeneity():
    rng = np.random.default_rng(2)
    h = 0.1
    worst = 0.0
    for space in (femcore.SPACE_X, femcore.SPACE_Y):
        for k in (0, 1, -1, 2, -2):
            system = _lshape_system(h, k, space)
            basis = _lshape_basis(h, k, space)
            bop = basis.op_arrays(system.ws, k)
            resid = system.functional(bop)
            bnorm = math.sqrt(float(system.ws.norm_sq(bop)))
            for _ in range(50):
                v = _random_constrained(system, rng)
                vnorm = math.sqrt(abs(modal_ops.a_k_direct(v, v, k, system.quad)))
                val = abs(np.vdot(system.constraints.free_values(v), resid))
                worst = max(worst, val / (bnorm * vnorm))
    ok = worst <= HOMOGENEITY_TOL
    return CriterionResult(
        6, "singular basis homogeneity", ok, f"worst |a_k(basis, v)| ratio {worst:.2e}"
    )


def criterion_7_singular_only():
    h = 0.1
    worst_c = worst_e = 0.0
    for space in (femcore.SPACE_X, femcore.SPACE_Y):
        for k in (0, 1, -1, 2, -2):
            system = _lshape_system(h, k, space)
            basis = _lshape_basis(h, k, space)
            rec = solver.solve_mode_orthogonal(
                system, basis.op_arrays(system.ws, k), basis, tol=SOLVER_TOL
            )
            reg_energy = abs(modal_ops.a_k_direct(rec.field, rec.field, k, system.quad))
            worst_c = max(worst_c, abs(rec.coeff - 1.0))
            worst_e = max(worst_e, reg_energy / rec.energy)
    ok = worst_c <= SINGULAR_COEFF_TOL and worst_e <= SINGULAR_ENERGY_RATIO
    return CriterionResult(
        7,
        "singular-only manufactured solve",
        ok,
        f"|C-1| <= {worst_c:.2e}, regular/basis energy <= {worst_e:.2e}",
    )


def _bordered_vs_orthogonal(h):
    quad = _lshape_quad(h)
    mf = manufactured.lshape_magnetic()
    b2 = _lshape_basis(h, 2, femcore.SPACE_Y)
    b3 = _lshape_basis(h, 3, femcore.SPACE_Y)
    sys2 = _lshape_system(h, 2, femcore.SPACE_Y)
    sys3 = _lshape_system(h, 3, femcore.SPACE_Y)
    c0 = 0.7 - 0.2j
    data = mf.ops(quad.xy, 3) + c0 * b2.principal.ops(quad.xy, 3)
    sysk = sys2.shifted(3)
    rec_b = solver.solve_mode_bordered(sysk, data, b2, tol=SOLVER_TOL)
    rec_o = solver.solve_mode_orthogonal(sys3, data, b3, tol=SOLVER_TOL)
    pv_b = rec_b.point_values(sys3.ws)
    pv_o = rec_o.point_values(sys3.ws)
    num = math.sqrt(abs(sys3.ws.norm_sq(pv_b - pv_o)))
    den = math.sqrt(abs(sys3.ws.norm_sq(pv_o)))
    return num / den, rec_b.cg


def criterion_8_bordered_vs_orthogonal():
    d_coarse, cg_coarse = _bordered_vs_orthogonal(0.1)
    d_fine, cg_fine = _bordered_vs_orthogonal(0.05)
    ok = d_coarse <= BORDERED_DIFF_TOL and d_fine <= max(d_coarse, BORDERED_NOISE_FLOOR)
    return CriterionResult(
        8,
        "bordered vs orthogonal at k=3",
        ok,
        f"rel diff {d_coarse:.2e} (h=0.1) -> {d_fine:.2e} (h=0.05); bordered CG "
        f"{cg_coarse.iterations} its, true residual {cg_coarse.residual:.1e}, longest "
        f"stall {cg_coarse.longest_stall}/{STALL_WINDOW} (h=0.1), {cg_fine.iterations} its, "
        f"{cg_fine.residual:.1e}, {cg_fine.longest_stall}/{STALL_WINDOW} (h=0.05)",
    )


def criterion_9_fourier_roundtrip():
    N = 3
    msh = meshmod.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.125)
    sol = solver.solve_axisymmetric(
        msh, femcore.SPACE_Y, RHS_BUILTINS["bandlimited"], N=N, tol=SOLVER_TOL,
    )
    M = 4 * N + 1
    thetas = np.arange(M) * (2.0 * math.pi / M)
    samples = np.array([solver.synthesize(sol, th) for th in thetas], dtype=complex)
    modes = solver.analyze_samples(samples, N)
    scale = max(np.abs(rec.total_nodal()).max() for rec in sol.records.values())
    worst = max(np.abs(modes[k] - sol.records[k].total_nodal()).max() for k in range(N + 1))
    worst_imag = np.abs(samples.imag).max()
    ok = worst <= ROUNDTRIP_TOL * scale and worst_imag <= ROUNDTRIP_TOL * scale
    return CriterionResult(
        9,
        "Fourier round trip",
        ok,
        f"mode defect {worst:.2e}, imaginary residue {worst_imag:.2e} (scale {scale:.2e})",
    )


def criterion_10_conjugate_symmetry():
    h = 0.1
    quad = _lshape_quad(h)
    worst = 0.0
    for k, space in ((1, femcore.SPACE_Y), (2, femcore.SPACE_X)):
        fm = solver.analyze_rhs(RHS_BUILTINS["bandlimited"], 3, quad.xy)
        data = np.column_stack([fm[k], np.zeros(len(fm[k]))])  # no divergence data
        sys_p = _lshape_system(h, k, space)
        sys_m = _lshape_system(h, -k, space)
        b_p = _lshape_basis(h, k, space)
        b_m = _lshape_basis(h, -k, space)
        rec_p = solver.solve_mode_orthogonal(sys_p, data, b_p, tol=SOLVER_TOL)
        rec_m = solver.solve_mode_orthogonal(sys_m, np.conj(data), b_m, tol=SOLVER_TOL)
        tot_p = rec_p.total_nodal()
        tot_m = rec_m.total_nodal()
        scale = max(np.abs(tot_p).max(), 1e-30)
        worst = max(worst, np.abs(tot_m - np.conj(tot_p)).max() / scale)
        worst = max(worst, abs(rec_m.coeff - np.conj(rec_p.coeff)) / max(abs(rec_p.coeff), 1e-30))
    ok = worst <= CONJUGATE_TOL
    return CriterionResult(
        10, "conjugate mode symmetry", ok, f"worst relative asymmetry {worst:.2e}"
    )


def criterion_11_dimension_bookkeeping():
    beta = special.find_beta()
    _, corner = _lshape(0.1)
    cone = ConicalDescriptor(z=0.0, aperture=2.5)
    checks = []
    for space in (femcore.SPACE_X, femcore.SPACE_Y):
        for k in (-2, -1, 0, 1, 2):
            checks.append(singular.singular_dimensions([corner], [], k, space, beta) == 1)
    with_cone = {
        (space, k): singular.singular_dimensions([corner], [cone], k, space, beta)
        for space in (femcore.SPACE_X, femcore.SPACE_Y)
        for k in (-1, 0, 1)
    }
    checks.append(with_cone[(femcore.SPACE_X, 0)] == 2)
    checks.append(with_cone[(femcore.SPACE_Y, 0)] == 1)
    checks.append(with_cone[(femcore.SPACE_X, 1)] == 1)
    checks.append(with_cone[(femcore.SPACE_X, -1)] == 1)
    nu = special.find_nu(2.5)
    checks.append(nu is not None and 0.0 < nu < 0.5)
    ok = all(checks)
    return CriterionResult(
        11,
        "singular dimension bookkeeping",
        ok,
        f"edge count 1 everywhere, cone adds electric k=0 only (nu={nu:.4f})",
    )


ALL_CRITERIA = [
    criterion_1_beta_threshold,
    criterion_2_operator_oracle,
    criterion_3_assembly_equivalence,
    criterion_4_hpd,
    criterion_5_convergence,
    criterion_6_homogeneity,
    criterion_7_singular_only,
    criterion_8_bordered_vs_orthogonal,
    criterion_9_fourier_roundtrip,
    criterion_10_conjugate_symmetry,
    criterion_11_dimension_bookkeeping,
]


def run_all():
    return [fn() for fn in ALL_CRITERIA]
