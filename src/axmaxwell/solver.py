"""Per-mode solution of the electric and magnetic div-curl problems with
regular/singular splitting, Fourier analysis of 3D data, and synthesis of
the 3D field from the solved modes.

Each azimuthal mode k yields a coercive problem on the constrained P1
space.  On a domain with a reentrant edge the solution carries a singular
component: for |k| <= 2 the dedicated basis of that mode decouples the
scalar coefficient C^k from the regular part,

  C^k = [(f, curl_k s) + (g, div_k s)] / [(curl_k s, curl_k s) + (div_k s, div_k s)]

with s the total basis (discrete regular curl plus analytic principal
curl), after which the regular part solves the plain constrained system.
For |k| > 2 the singular subspace of mode sign(k)*2 is reused; the lost
orthogonality couples C^k to the regular unknowns through a rank-one
border, and one CG solve on the bordered matrix, the Galerkin matrix of
a_k on the regular space plus the basis, gives both.  The mode-k matrix
is E(k) of the quadrature's operator workspace reduced on the constraint
class of the mode-2 system, which all |k| >= 2 modes share.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modal_ops, singular
from .femcore import MeshQuadrature, ModeField, build_constraints
from .linalg import CGInfo, solve_bordered, solve_hpd

_TWO_PI = 2.0 * math.pi
_NORM = 1.0 / math.sqrt(_TWO_PI)


@dataclass
class ModeRecord:
    """Solution of one mode k >= 0: regular field, singular coefficient,
    basis.  For real data mode -k is the conjugate of this one.

    coeff is always complex (0j without a basis), so that conj(coeff) of
    mode -k carries the sign of its zero imaginary part.  cg is the CGInfo
    of the one CG solve of the mode, on the bordered matrix for the
    bordered path; a mode whose right-hand side meets the stopping rule at
    x = 0 makes no CG call, and its CGInfo has 0 iterations and residual
    ||rhs|| / F (bound / F, and no basis, for a mode k <= 2 skipped before
    its system exists; see solve_axisymmetric).  energy is the basis energy
    a_k(s, s) at this mode (0.0 without a basis), paired from the one
    evaluation of the basis operators in the mode solve; the basis itself
    stores none.
    """

    field: ModeField
    coeff: complex = 0j
    basis: object = None
    cg: object = None
    energy: float = 0.0

    def total_nodal(self):
        vals = self.field.values.copy()
        if self.basis is not None and self.coeff != 0.0:
            vals = vals + self.coeff * self.basis.total_nodal()
        return vals

    def point_values(self, ws):
        """Total field values at the quadrature points of the workspace ws."""
        out = ws.point_values(self.field.values)
        if self.basis is not None and self.coeff != 0.0:
            out = out + self.coeff * self.basis.point_arrays(ws)
        return out


@dataclass
class FourierSolution:
    """Solved modes of one field kind: records holds exactly the modes
    k = 0..N.  The data are real, so mode -k is the conjugate of mode k and
    is written out only where it is used."""

    mesh: object
    space: str
    N: int
    records: dict

    def __post_init__(self):
        if set(self.records) != set(range(self.N + 1)):
            raise ValueError(f"records must hold modes 0..{self.N}, got {sorted(self.records)}")


# -- Fourier analysis ------------------------------------------------------------


def theta_samples(N, samples=None):
    """The analysis sample count M: samples, by default 4 max(N, 1) + 1.
    Fewer than 4N + 1 samples raise ValueError."""
    # 5 samples at N = 0: mode 0 is the mean, not the value at theta = 0
    M = 4 * max(N, 1) + 1 if samples is None else int(samples)
    if M < 4 * N + 1:
        raise ValueError(f"need at least 4N+1 = {4 * N + 1} theta samples, got {M}")
    return M


def _theta_grid(N, samples):
    M = theta_samples(N, samples)
    return np.arange(M) * (_TWO_PI / M)


def _real(values, what):
    """values as a real array; a nonzero imaginary part raises ValueError."""
    if np.iscomplexobj(values) and np.any(np.imag(values)):
        raise ValueError(f"{what} must be real: nonzero imaginary part")
    return np.real(values)


def _project(x, N):
    """Modes 0..N of real samples x, shape (M, n), on the uniform theta grid:
    the (N+1, n) complex scale*(C @ x) - 1j*scale*(S @ x), with C and S the
    (N+1, M) matrices cos(k theta_j), sin(k theta_j), scale = sqrt(2 pi)/M."""
    kt = np.outer(np.arange(N + 1), _theta_grid(N, len(x)))
    out = np.empty((N + 1, x.shape[1]), dtype=complex)
    out.real = np.cos(kt) @ x
    out.imag = np.sin(-kt) @ x  # exactly -(S @ x): sine is odd
    out *= math.sqrt(_TWO_PI) / len(x)
    return out


def analyze_samples(values, N):
    """Mode coefficients of real values sampled on the uniform theta grid.

    values has shape (M, ...), M >= 4N + 1, and is projected as one real
    (M, -1) array by two real matrix products; complex values with a
    nonzero imaginary part raise ValueError.  Returns {k: (...) complex
    array} for k = 0..N with the 1/sqrt(2 pi) convention.
    """
    values = _real(np.asarray(values), "samples")
    modes = _project(values.reshape(len(values), -1), N)
    return {k: modes[k].reshape(values.shape[1:]) for k in range(N + 1)}


def _analyze_data(data, N, points, samples, vector):
    """Sample data(r, theta, z) on the theta grid at meridian points in one
    call and analyze the samples; vector data returns three components,
    scalar data one.  The data must be real (mode -k is taken as the
    conjugate of mode k): a component with a nonzero imaginary part raises
    ValueError.  Each component is projected as a real (M, P) array and
    dropped; every mode gets its own array, which its solve can free."""
    theta = _theta_grid(N, samples)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    comps = data(pts[None, :, 0], theta[:, None], pts[None, :, 1])
    if vector and len(comps) != 3:
        raise ValueError(f"vector data must return 3 components, got {len(comps)}")
    comps = list(comps) if vector else [comps]
    out = [np.empty((len(pts), len(comps)), dtype=complex) for _ in range(N + 1)]
    for c in range(len(comps)):
        x = _real(comps[c], f"data component {c}")
        comps[c] = None  # drop our reference: the component dies once projected
        x = np.ascontiguousarray(np.broadcast_to(x, (len(theta), len(pts))), dtype=float)
        modes = _project(x, N)
        del x
        for k in range(N + 1):
            out[k][:, c] = modes[k]
    return {k: out[k] if vector else out[k][:, 0] for k in range(N + 1)}


def analyze_rhs(f, N, points, samples=None):
    """Fourier coefficients of vector data f(r, theta, z) at meridian points.

    f is called once, with r and z of shape (1, P) and theta of shape
    (M, 1), and returns three real components that broadcast to (M, P);
    each is projected onto the modes by two real matrix products, and no
    complex sample array is built.  Returns {k: (P, 3) complex array}, one
    array per mode.  M must meet the anti-aliasing bound M >= 4N + 1; the
    default is M = 4 max(N, 1) + 1, which is 5 at N = 0.
    """
    return _analyze_data(f, N, points, samples, True)


def analyze_scalar_rhs(g, N, points, samples=None):
    """Fourier coefficients of scalar data g(r, theta, z), called as f in
    analyze_rhs and returning one array that broadcasts to (M, P); returns
    {k: (P,) complex array}."""
    return _analyze_data(g, N, points, samples, False)


def synthesize(solution, theta):
    """Field on the meridian plane at azimuth theta, nodal values (nv, 3);
    an array of azimuths of shape (T,) gives (T, nv, 3).

    The data are real, so mode -k adds the conjugate of mode k and the
    result is real; the imaginary residue is asserted tiny and dropped.
    """
    theta = np.asarray(theta, dtype=float)
    acc = np.zeros(theta.shape + (solution.mesh.num_vertices, 3), dtype=complex)
    for k in range(0, solution.N + 1):
        phase = np.exp(1j * k * theta)[..., None, None]
        total = solution.records[k].total_nodal()
        acc += total * (_NORM * phase)
        if k > 0:
            acc += np.conj(total) * (_NORM * np.conj(phase))
    scale = np.abs(acc).max(axis=(-2, -1))
    if np.any(np.abs(acc.imag).max(axis=(-2, -1)) > 1e-10 * scale):
        raise AssertionError("synthesized field of real data is not real")
    return acc.real


def sample_3d(solution, n_theta):
    """Volumetric samples on the revolved mesh: cartesian points plus the
    cylindrical field components per vertex and azimuth."""
    thetas = np.arange(n_theta) * (_TWO_PI / n_theta)
    verts = solution.mesh.vertices
    points = np.empty((n_theta, len(verts), 3))
    points[:, :, 0] = verts[:, 0] * np.cos(thetas)[:, None]
    points[:, :, 1] = verts[:, 0] * np.sin(thetas)[:, None]
    points[:, :, 2] = verts[:, 1]
    return thetas, points, synthesize(solution, thetas)


# -- single-mode solvers ----------------------------------------------------------


class ModeData:
    """Mode data (f_r, f_theta, f_z, g) of shape (Q, 4) from the analysed f (Q, 3)
    and g (Q,) or None (zero): data[points] packs the (P, 4) rows there."""

    def __init__(self, f, g=None):
        self.f, self.g, self.shape = f, g, (len(f), 4)

    def __getitem__(self, points):
        f = self.f[points]
        return np.concatenate([f, np.zeros((len(f), 1)) if self.g is None else self.g[points, None]], axis=1)


def _pair(system, data, basis, load=None):
    """What both mode solves share: check the data's shape, build the
    system's load (unless given) and pair the data with the basis operators.

    data holds the mode's samples (f_r, f_theta, f_z, g) at the quadrature
    points of the system, a (Q, 4) array or a ModeData; forming the load
    reads and checks them (system.functional), so the pairing reads
    data[points] unchecked.  Returns (load, energy, numer): energy =
    a_k(s, s) and numer the data paired with the mode-k (curl, div) of the
    basis, both summed chunk by chunk over its rows (see
    SingularBasis.op_chunks); without a basis (load, 0.0, 0.0).
    """
    shape = (len(system.ws.wr), 4)
    if data.shape != shape:
        raise ValueError(f"mode data must have shape {shape}, got {data.shape}")
    if load is None:
        load = system.functional(data)
    if basis is None:
        return load, 0.0, 0.0
    if basis.space != system.space:
        raise ValueError("basis space does not match the system")
    ws, energy, numer = system.ws, 0.0, 0j
    for points, rows in basis.op_chunks(ws, system.k):
        energy += ws.norm_sq(rows, points)
        numer += np.einsum("q,qa,qa->", ws.wr[points], data[points], rows.conj())
    if energy <= 0.0 or not np.isfinite(energy):
        raise ArithmeticError("singular basis has no energy; basis is broken")
    return load, float(energy), complex(numer)


def _unsolved(norm, floor, tol):
    """CGInfo of x = 0 for a CG system whose right-hand side has norm norm
    when x = 0 meets the stopping rule ||rhs - A x|| <= tol * max(||rhs||,
    floor), else None.  Its residual is the true residual of x = 0 over the
    floor, norm / floor (0.0 for norm = 0)."""
    if norm == 0.0:
        return CGInfo(0, 0.0)
    resid = norm / floor if floor > 0.0 else math.inf
    return CGInfo(0, float(resid)) if resid <= tol else None


def solve_mode_orthogonal(system, data, basis=None, tol=1e-10, *, load=None, floor=0.0):
    """Mode solve for |k| <= 2 (or any mode without a singular basis) on the
    assembled mode system, with the data of the mode (see _pair); basis may
    be None, and load is the system's load of data when the caller has
    formed it already: forming it read and checked the data, so they are
    not checked again (see _pair).

    The singular coefficient comes from pairing the data against the basis
    operators; the regular part solves the constrained system with the full
    (f, g) load.  The mode stops at ||b - A x|| <= tol * max(||b||, floor):
    a load of norm at most tol * floor makes no CG call and gives an exactly
    zero regular part, while the coefficient is still the pairing; any other
    load is solved by CG to tol * ||b||.  A basis of another mode is not
    a_k-orthogonal to the regular space and raises ValueError.  Returns a
    ModeRecord.
    """
    if basis is not None and basis.k != system.k:
        raise ValueError(f"expected the mode {system.k} basis, got mode {basis.k}")
    load, energy, numer = _pair(system, data, basis, load)
    del data  # none of the mode's data lives through its CG
    coeff = numer / energy if basis is not None else 0j
    info = _unsolved(np.linalg.norm(load), floor, tol)
    if info is not None:
        return ModeRecord(ModeField(system.mesh, system.k), coeff, basis, info, energy)
    x, info = solve_hpd(system.matrix, load, tol=tol, hierarchy=system.hierarchy)
    return ModeRecord(system.constraints.expand(x), coeff, basis, info, energy)


def solve_mode_bordered(system, data, basis, tol=1e-10, *, load=None, floor=0.0):
    """Mode solve for |k| > 2 reusing the mode sign(k)*2 singular basis.

    system is the mode-k system on the constraint class of the mode-2
    system (system2.shifted(k)), data the mode's data (see _pair) and load,
    optionally, the system's load of data; the non-orthogonal coupling of
    the reused basis enters as a rank-one border, and one CG solve on the
    bordered matrix [[K, y], [y^H, alpha]], with alpha = a_k(s, s), gives
    the regular part and C^k together.  When the bordered right-hand side
    [b; f_s] has norm at most tol * floor, x = 0 meets the stopping rule
    (see solve_mode_orthogonal): no CG call, a zero regular part and C^k = 0j.
    """
    k = system.k
    if abs(k) <= 2:
        raise ValueError("bordered solves serve |k| > 2")
    base_k = 2 if k > 0 else -2
    if basis.k != base_k:
        raise ValueError(f"expected the mode {base_k} basis, got mode {basis.k}")
    load, alpha, f_s = _pair(system, data, basis, load)
    del data  # none of the mode's data lives through its CG
    info = _unsolved(np.linalg.norm(np.append(load, f_s)), floor, tol)
    if info is not None:
        return ModeRecord(ModeField(system.mesh, k), 0j, basis, info, alpha)
    # coupling a_k(s, v) of the reused basis s with the regular test fields:
    # the mode-k (curl, div) of s (discrete regular part plus analytic
    # principal part) paired, chunk by chunk, with those of the test fields
    coupling = system.constraints.functional(system.ws.adjoint_chunks(
        (rows for _, rows in basis.op_chunks(system.ws, k)), k))
    x, coeff, info = solve_bordered(
        system.matrix, coupling, alpha, load, f_s, tol=tol, hierarchy=system.hierarchy
    )
    return ModeRecord(system.constraints.expand(x), coeff, basis, info, alpha)


# -- full solve --------------------------------------------------------------------


def compute_bases(systems, lifted, tol=1e-10):
    """Singular basis of every assembled |k| <= 2 system from its lift_basis, keyed by k."""
    return {k: singular.compute_basis(s, tol, lifted[k]) for k, s in systems.items()}


def solve_axisymmetric(mesh, space, f, g=None, N=5, corner=None, tol=1e-10, samples=None):
    """Solve the 3D problem by modes: analyze the data, solve each mode,
    and collect a FourierSolution.

    f is the real 3D vector data and g the optional real scalar divergence
    data, each called once on broadcastable arrays (r, theta, z) (see
    analyze_rhs).  Modes k = 0..N are analysed and solved; the data are
    real, so mode -k is the conjugate of mode k and is not stored.

    Every mode stops against the whole data: ||b_k - A_k x_k|| <=
    tol * max(||b_k||, F), with F = ||b|| / sqrt(2N + 1) the fair share of
    the Parseval norm ||b||^2 = ||b_0||^2 + 2 sum_{k=1..N} ||b_k||^2 of the
    regular loads of all 2N + 1 modes, each formed once, before any matrix,
    by the constraint set of its class (mode 2's for |k| > 2).  A mode whose
    CG right-hand side has norm at most tol * F makes no CG call; every
    other mode is solved by CG to tol * ||rhs|| (see the mode solvers).
    The basis solves keep tol per solve, since C^k depends on them.  The
    loads read the data first, and data that are not finite raise
    ValueError there, before any lift or assembly.

    A mode k <= 2 is skipped before its system exists when the bound
    sqrt(||b_k||^2 + ||d_k||^2 E_up) of its bordered right-hand side
    [b_k; f_s] is at most tol * F: |f_s| <= ||d_k|| sqrt(E_up), with ||d_k||
    the r-weighted norm of its (Q, 4) data (Cauchy-Schwarz; E_up from
    singular.lift_basis, 0 without a corner).  Its data, load and (unless
    N > 2 and k = 2) constraint set are dropped there: it gets no system, basis
    or basis right-hand side, but a zero field, C^k = 0j, energy 0.0 and
    CGInfo(0, bound / F).
    Every other system k <= 2, and the mode-2 one whenever N > 2, is
    assembled once, with its multigrid hierarchy on a large mesh that nests
    (see modal_ops.assemble_systems), and serves its basis and its mode
    solve; each k > 2 system is shifted from the mode-2 system in its
    mode's solve.  The modes are solved in order of k.
    """
    quad = MeshQuadrature(mesh, corner)
    fmodes = analyze_rhs(f, N, quad.xy, samples)
    gmodes = analyze_scalar_rhs(g, N, quad.xy, samples) if g is not None else {}
    ws = modal_ops.workspace(quad)  # after the analysis: none of its temporaries coexist
    low = range(min(N, 2) + 1)
    classes = {k: build_constraints(mesh, k, space) for k in low}
    loads, dnorms = {}, {k: [] for k in low if corner is not None}
    for k in range(N + 1):  # packed and checked per chunk for the load and, for a bound, ||d_k||^2
        loads[k] = classes[min(k, 2)].functional(
            ws.op_adjoint(ModeData(fmodes[k], gmodes.get(k)), k, dnorms.get(k)))
    norms = [np.linalg.norm(loads[k]) for k in range(N + 1)]
    floor = math.sqrt((norms[0] ** 2 + 2.0 * sum(n * n for n in norms[1:])) / (2 * N + 1))
    skipped, lifted = {}, {}
    for k in low:
        pairings, fs_bound = None, 0.0
        if corner is not None:
            start, pairings, e_up = singular.lift_basis(classes[k], quad)
            fs_bound = math.sqrt(sum(dnorms[k]) * e_up)
        skipped[k] = _unsolved(math.hypot(norms[k], fs_bound), floor, tol)
        if skipped[k] is not None:  # nothing of the mode's data is read again
            del fmodes[k], loads[k]
            gmodes.pop(k, None)
        if skipped[k] is not None and not (k == 2 and N > 2):  # mode 2's basis serves k > 2
            del classes[k]  # no system of its class is built
        elif pairings is not None:  # the basis right-hand side, for solved modes only
            lifted[k] = start, -classes[k].functional(pairings)
    del pairings  # none reaches the assembly
    systems = modal_ops.assemble_systems(classes, quad, N > 2)
    bases = compute_bases(systems, lifted, tol=tol) if corner is not None else {}
    del lifted

    def solve_one(k):
        if k <= 2 and skipped[k] is not None:
            return ModeRecord(ModeField(mesh, k), 0j, None, skipped[k], 0.0)
        system = systems[k] if k <= 2 else systems[2].shifted(k)
        solve = solve_mode_bordered if k > 2 and corner is not None else solve_mode_orthogonal
        # data and load leave their dicts, and the data go unbound: the solve frees them before its CG
        return solve(system, ModeData(fmodes.pop(k), gmodes.pop(k, None)), bases.get(min(k, 2)),
                     tol=tol, load=loads.pop(k), floor=floor)

    return FourierSolution(mesh, space, N, {k: solve_one(k) for k in range(N + 1)})


# -- error measurement ---------------------------------------------------------------


def error_norms(fld, exact, quad, exact_ops=None):
    """Weighted L2 and a_k-energy distance of a nodal field of mode k to an
    exact one, on the quadrature quad.

    exact holds the exact field values at the quadrature points, (Q, 3),
    and exact_ops the exact mode-k rows (curl_k, div_k) there, (Q, 4) (zero
    when omitted, so passing exact=0 measures the field's own norms).
    Returns (l2, energy).
    """
    ws = modal_ops.workspace(quad)
    pv = ws.point_values(fld.values) - exact
    l2 = math.sqrt(abs(ws.norm_sq(pv)))
    opv = ws.op_values(fld.values, fld.k)
    if exact_ops is not None:
        opv -= exact_ops
    energy = math.sqrt(abs(ws.norm_sq(opv)))
    return l2, energy
