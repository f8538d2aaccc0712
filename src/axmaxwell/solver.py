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
is the mode-2 matrix shifted by the shift identity on the constraint
class that all |k| >= 2 modes share (modal_ops.shifted_system).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import modal_ops, singular
from .femcore import MeshQuadrature, ModeField, build_constraints
from .linalg import CGInfo, solve_bordered, solve_hpd

_TWO_PI = 2.0 * math.pi
_NORM = 1.0 / math.sqrt(_TWO_PI)
_ANALYSIS_ENTRIES = 1 << 17  # the most samples, M x block, of one data call of the analysis


@dataclass
class ModeRecord:
    """Solution of one mode k >= 0: regular field, singular coefficient,
    basis.  For real data mode -k is the conjugate of this one.

    coeff is always complex (0j without a basis), so that conj(coeff) of
    mode -k carries the sign of its zero imaginary part.  cg is the CGInfo
    of the one CG solve of the mode, on the bordered matrix for the
    bordered path; a mode whose right-hand side meets the stopping rule at
    x = 0 makes no CG call: 0 iterations and residual ||rhs|| / F (bound / F
    for a mode k <= 2 skipped before its system exists; see
    solve_axisymmetric).  A mode that the rule skips whole has a zero field,
    coeff 0j, no basis and energy 0.0; else energy is a_k(s, s) of the basis
    at this mode (0.0 without one), paired from the one evaluation of the
    basis operators in the mode solve; the basis itself stores none.
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
    """The grid of theta_samples(N, samples) points, its (N+1, M) cos(k theta) and -sin(k theta)."""
    M = theta_samples(N, samples)
    theta = np.arange(M) * (_TWO_PI / M)
    kt = np.outer(np.arange(N + 1), theta)
    return theta, np.cos(kt), np.sin(-kt)  # exactly -sin(k theta): sine is odd


def _real(values, what):
    """values as a real array; a nonzero imaginary part raises ValueError."""
    if np.iscomplexobj(values) and np.any(np.imag(values)):
        raise ValueError(f"{what} must be real: nonzero imaginary part")
    return np.real(values)


def _project(x, C, S):
    """Modes 0..N of real samples x, shape (M, n), on the uniform theta grid:
    the (N+1, n) complex scale*(C @ x) + 1j*scale*(S @ x), with C and S the
    matrices of _theta_grid and scale = sqrt(2 pi)/M."""
    out = np.empty((len(C), x.shape[1]), dtype=complex)
    out.real = C @ x
    out.imag = S @ x
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
    modes = _project(values.reshape(len(values), -1), *_theta_grid(N, len(values))[1:])
    return {k: modes[k].reshape(values.shape[1:]) for k in range(N + 1)}


def _analyze_data(data, N, points, samples, vector):
    """Sample data(r, theta, z) on the theta grid at meridian points, once per
    block of points in point order, and analyze the samples; vector data
    returns three components, scalar data one.  A block is the most points,
    a power of two (which kept the workloads' modes bit for bit against one
    call on all points), whose M x block samples fit _ANALYSIS_ENTRIES, and
    at least one.  The data must be real (mode -k is taken as the conjugate
    of mode k): a component with a nonzero imaginary part raises ValueError.
    Each component of a block is projected as a real (M, block) array into
    the mode arrays, one per mode, which its solve can free."""
    theta, C, S = _theta_grid(N, samples)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    block = 1 << (max(1, _ANALYSIS_ENTRIES // len(theta)).bit_length() - 1)
    out = [np.empty((len(pts), 3 if vector else 1), dtype=complex) for _ in range(N + 1)]
    for start in range(0, len(pts), block):
        part = pts[start:start + block]
        comps = data(part[None, :, 0], theta[:, None], part[None, :, 1])
        if vector and len(comps) != 3:
            raise ValueError(f"vector data must return 3 components, got {len(comps)}")
        comps = list(comps) if vector else [comps]
        for c in range(len(comps)):
            x = _real(comps[c], f"data component {c}")
            comps[c] = None  # drop our reference: the component dies once projected
            x = np.ascontiguousarray(np.broadcast_to(x, (len(theta), len(part))), dtype=float)
            modes = _project(x, C, S)
            for k in range(N + 1):
                out[k][start:start + block, c] = modes[k]
    return {k: out[k] if vector else out[k][:, 0] for k in range(N + 1)}


def analyze_rhs(f, N, points, samples=None):
    """Fourier coefficients of vector data f(r, theta, z) at meridian points.

    f is called once per block of points (see _analyze_data), in point
    order, with r and z of shape (1, B) and theta of shape (M, 1), and
    returns three real components that broadcast to (M, B); each is
    projected onto the modes by two real matrix products, and no complex
    sample array is built.  Returns {k: (P, 3) complex array}, one array
    per mode.  M must meet the anti-aliasing bound M >= 4N + 1; the
    default is M = 4 max(N, 1) + 1, which is 5 at N = 0.
    """
    return _analyze_data(f, N, points, samples, True)


def analyze_scalar_rhs(g, N, points, samples=None):
    """Fourier coefficients of scalar data g(r, theta, z), called as f in
    analyze_rhs, once per block of points, and returning one array that
    broadcasts to (M, B); returns {k: (P,) complex array}."""
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
    """Mode data (f_r, f_theta, f_z, g) from the analysed f (Q, 3) and g (Q,) or None
    (zero): data[points] packs the (P, 4) rows there, for the load and f_s0 only."""

    def __init__(self, f, g=None):
        self.f, self.g = f, g

    def __getitem__(self, points):
        f = self.f[points]
        return np.concatenate([f, np.zeros((len(f), 1)) if self.g is None else self.g[points, None]], axis=1)


def _pair(ws, data, basis, k, constraints=None):
    """The rows D_k s of the basis s at mode k, read once, chunk by chunk, paired with data d_k
    (a (Q, 4) array or a ModeData) into (d_k, D_k s), or with themselves for data None into
    a_k(s, s) > 0, one term per chunk added in chunk order; with constraints, (sum, a_k(s, v))
    with constraints.functional(basis.pairings(ws, k)) of the same rows.  Data meet a basis here only."""
    terms = []

    def read(points, rows):
        terms.append(ws.norm_sq(rows, points) if data is None else
                     np.einsum("q,qa,qa->", ws.wr[points], data[points], rows.conj()))

    if constraints is not None:
        coupling = constraints.functional(basis.pairings(ws, k, read))
    else:
        for points, rows in basis.op_chunks(ws, k):
            read(points, rows)
    total = (float if data is None else complex)(sum(terms))
    if data is None and not 0.0 < total < math.inf:
        raise ArithmeticError("singular basis has no energy; basis is broken")
    return total if constraints is None else (total, coupling)


def _paired(system, data, basis, paired):
    """What both mode solves share: the load b_k and f_s = (d_k, D_k s) = f_s0 + vdot(x, b_k)
    for the basis s = S + lift + x, x its free dofs (0j without a basis), from paired =
    (b_k, f_s0) or, formed alike with S + lift = s - x, from the mode's (Q, 4) data, which
    must be finite."""
    if basis is not None and basis.space != system.space:
        raise ValueError("basis space does not match the system")
    x = None if basis is None else system.constraints.free_values(basis.regular)
    if paired is None:
        shape = (len(system.ws.wr), 4)
        if data.shape != shape:
            raise ValueError(f"mode data must have shape {shape}, got {data.shape}")
        s0 = None if basis is None else replace(basis, regular=basis.regular + system.constraints.expand(-x))
        paired = system.functional(data), 0j if basis is None else _pair(system.ws, data, s0, system.k)
    return paired[0], 0j if basis is None else complex(paired[1] + np.vdot(x, paired[0]))


def _unsolved(norm, floor, tol):
    """CGInfo of x = 0 for a CG system whose right-hand side has norm norm
    when x = 0 meets the stopping rule ||rhs - A x|| <= tol * max(||rhs||,
    floor), else None.  Its residual is the true residual of x = 0 over the
    floor, norm / floor (0.0 for norm = 0)."""
    if norm == 0.0:
        return CGInfo(0, 0.0)
    resid = norm / floor if floor > 0.0 else math.inf
    return CGInfo(0, float(resid)) if resid <= tol else None


def solve_mode_orthogonal(system, data, basis=None, tol=1e-10, *, paired=None, floor=0.0):
    """Mode solve for |k| <= 2 (or any mode without a singular basis) on the
    assembled mode system, with the (Q, 4) data of the mode or, for data
    None, paired = (b_k, f_s0) as the driver forms them (see _paired); basis
    may be None.  C^k = f_s / a_k(s, s), a_k(s, s) summed over one pass of
    the basis rows; the regular part solves the constrained system with the
    full (f, g) load.  The mode stops at ||b - A x|| <= tol * max(||b||, floor):
    a load of norm at most tol * floor makes no CG call and gives an exactly
    zero regular part, while the coefficient is still the pairing; any other
    load is solved by CG to tol * ||b||.  A basis of another mode is not
    a_k-orthogonal to the regular space and raises ValueError.  Returns a
    ModeRecord.
    """
    if basis is not None and basis.k != system.k:
        raise ValueError(f"expected the mode {system.k} basis, got mode {basis.k}")
    load, f_s = _paired(system, data, basis, paired)
    energy = _pair(system.ws, None, basis, system.k) if basis is not None else 0.0
    coeff = f_s / energy if basis is not None else 0j
    info = _unsolved(np.linalg.norm(load), floor, tol)
    if info is not None:
        return ModeRecord(ModeField(system.mesh, system.k), coeff, basis, info, energy)
    x, info = solve_hpd(system.matrix, load, tol=tol, hierarchy=system.hierarchy)
    return ModeRecord(system.constraints.expand(x), coeff, basis, info, energy)


def solve_mode_bordered(system, data, basis, tol=1e-10, *, paired=None, floor=0.0):
    """Mode solve for |k| > 2 reusing the mode sign(k)*2 singular basis.

    system is the mode-k system on the constraint class of the mode-2
    system (system2.shifted(k)), data or paired as in solve_mode_orthogonal;
    the non-orthogonal coupling y of the reused basis enters as a rank-one
    border, and one CG solve on the bordered matrix [[K, y], [y^H, alpha]],
    with alpha = a_k(s, s) (both from one pass of the basis rows), gives
    the regular part and C^k together.  When the bordered right-hand side
    [b; f_s] has norm at most tol * floor, x = 0 meets the stopping rule
    (see solve_mode_orthogonal) and the mode is skipped whole (see ModeRecord).
    """
    k = system.k
    if abs(k) <= 2:
        raise ValueError("bordered solves serve |k| > 2")
    base_k = 2 if k > 0 else -2
    if basis.k != base_k:
        raise ValueError(f"expected the mode {base_k} basis, got mode {basis.k}")
    load, f_s = _paired(system, data, basis, paired)
    info = _unsolved(np.linalg.norm(np.append(load, f_s)), floor, tol)
    if info is not None:
        return ModeRecord(ModeField(system.mesh, k), 0j, None, info, 0.0)  # reads no basis rows
    alpha, y = _pair(system.ws, None, basis, k, system.constraints)
    x, coeff, info = solve_bordered(system.matrix, y, alpha, load, f_s, tol=tol, hierarchy=system.hierarchy)
    return ModeRecord(system.constraints.expand(x), coeff, basis, info, alpha)


# -- full solve --------------------------------------------------------------------


def compute_bases(systems, lifted, tol=1e-10):
    """Singular basis of every assembled |k| <= 2 system, keyed by k, from lifted.get(k)."""
    return {k: singular.compute_basis(s, tol, lifted.get(k)) for k, s in systems.items()}


def solve_axisymmetric(mesh, space, f, g=None, N=5, corner=None, tol=1e-10, samples=None):
    """Solve the 3D problem by modes: analyze the data, solve each mode,
    and collect a FourierSolution.

    f is the real 3D vector data and g the optional real scalar divergence
    data, each called once per block of points on broadcastable arrays
    (r, theta, z) (see analyze_rhs).  Modes k = 0..N are analysed and
    solved; the data are real, so mode -k is the conjugate of mode k and is
    not stored.

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

    A mode k <= 2 whose load alone meets the rule is skipped before its
    system exists if the bound sqrt(||b_k||^2 + ||d_k||^2 E_up) of its
    bordered right-hand side [b_k; f_s] is at most tol * F too: |f_s| <=
    ||d_k|| sqrt(E_up) (Cauchy-Schwarz), with ||d_k|| the r-weighted norm of
    its data and E_up = a_k(S + lift, S + lift) >= a_k(s, s), 0 without a
    corner.  Its data, load, lift and (unless N > 2 and k = 2) constraint
    set are dropped there: it gets no system, basis or basis right-hand
    side, but the record of a mode skipped whole (see ModeRecord) with
    CGInfo(0, bound / F).  Every other mode pairs its data with S + lift of
    its class (mode 2's for k > 2) into f_s0 (see _paired): no data are
    alive from the assembly on.  Every other system k <= 2, and the mode-2
    one whenever N > 2 (compute_basis lifts its basis if mode 2 is skipped), is
    assembled once, with its multigrid hierarchy on a large mesh that nests
    (see modal_ops.assemble_systems), and serves its basis and its mode
    solve.  Modes are solved in order of k, a k > 2 one on a shift of mode 2's.
    """
    quad = MeshQuadrature(mesh, corner)
    fmodes = analyze_rhs(f, N, quad.xy, samples)
    gmodes = analyze_scalar_rhs(g, N, quad.xy, samples) if g is not None else {}
    data = {k: ModeData(fmodes.pop(k), gmodes.pop(k, None)) for k in range(N + 1)}  # packed per chunk
    ws = modal_ops.workspace(quad)  # after the analysis: none of its temporaries coexist
    low = range(min(N, 2) + 1)
    classes = {k: build_constraints(mesh, k, space) for k in low}
    loads = {k: classes[min(k, 2)].functional(ws.op_adjoint(data[k], k)) for k in range(N + 1)}  # checked
    norms = [np.linalg.norm(loads[k]) for k in range(N + 1)]
    floor = math.sqrt((norms[0] ** 2 + 2.0 * sum(n * n for n in norms[1:])) / (2 * N + 1))
    skipped, lifted, f_s0 = {}, {}, {}
    for k in low:
        start = singular.lift_basis(classes[k], quad) if corner is not None else None
        start2 = start if k == 2 else None  # mode 2's S + lift: the k > 2 modes pair with it too
        skipped[k] = _unsolved(norms[k], floor, tol)
        if skipped[k] is not None and start is not None:  # the load alone meets the rule
            d_sq = sum(ws.norm_sq(data[k][points], points) for _, points, _ in ws.chunks)  # ||d_k||^2
            bound = math.hypot(norms[k], math.sqrt(d_sq * _pair(ws, None, start, k)))  # E_up of S + lift
            skipped[k] = _unsolved(bound, floor, tol)
        if skipped[k] is not None:  # nothing of the mode's data is read again
            del data[k], loads[k]
            if not (k == 2 and N > 2):  # mode 2's basis serves k > 2; compute_basis lifts it
                del classes[k]  # no system of its class is built
        elif start is not None:  # the basis right-hand side, and f_s0 from the same rows
            f_s0[k], y = _pair(ws, data.pop(k), start, k, classes[k])
            lifted[k] = start, -y
            del y
    f_s0.update((k, _pair(ws, data.pop(k), start2, k)) for k in range(3, N + 1) if corner is not None)
    del start, start2, data  # no dropped lift and no data reach the assembly
    systems = modal_ops.assemble_systems(classes, quad)
    bases = compute_bases(systems, lifted, tol=tol) if corner is not None else {}
    del lifted

    def solve_one(k):
        if k <= 2 and skipped[k] is not None:
            return ModeRecord(ModeField(mesh, k), 0j, None, skipped[k], 0.0)
        system = systems[k] if k <= 2 else systems[2].shifted(k)
        solve = solve_mode_bordered if k > 2 and corner is not None else solve_mode_orthogonal
        paired = loads.pop(k), f_s0.pop(k, 0j)  # the load leaves its dict with the mode's solve
        return solve(system, None, bases.get(min(k, 2)), tol=tol, paired=paired, floor=floor)

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
