import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from axmaxwell import (cli_io, femcore, linalg, manufactured, mesh, modal_ops, singular, solver,
                       verification)
from axmaxwell.cli_io import RHS_BUILTINS
from axmaxwell.femcore import SPACE_X, SPACE_Y, MeshQuadrature, ModeField

TWO_PI = 2.0 * math.pi


def _chunked_sum(ws, term):
    """term(points) of each chunk of the workspace ws, added in chunk order:
    how a_k(s, s), E_up, ||d_k||^2 and the pairing of the data with the
    basis are summed."""
    return sum(term(points) for _, points, _ in ws.chunks)


def _chunked_norm_sq(ws, rows):
    """sum_q w r |rows_q|^2 of (Q, m) rows, summed chunk by chunk."""
    return float(_chunked_sum(ws, lambda p: np.sum(ws.wr[p, None] * np.abs(rows[p]) ** 2)))


def test_analyze_single_harmonic():
    # f = cos(theta) e_z: only modes +-1, coefficient pi / sqrt(2 pi)
    calls = []

    def f(r, th, z):
        calls.append(1)
        return (0.0, 0.0, np.cos(th))

    pts = [(0.5, 0.5)]
    modes = solver.analyze_rhs(f, 2, pts)
    assert len(calls) == 1  # one call on the whole theta grid
    expect = math.pi / math.sqrt(TWO_PI)
    assert set(modes) == {0, 1, 2}
    assert modes[1][0, 2] == pytest.approx(expect, abs=1e-13)
    assert np.conj(modes[1][0, 2]) == pytest.approx(expect, abs=1e-13)  # mode -1
    for k in (0, 2):
        assert np.abs(modes[k]).max() <= 1e-14


def test_analyze_axisymmetric_data():
    def f(r, th, z):
        return (r, 0.0, z)

    modes = solver.analyze_rhs(f, 3, [(0.3, 0.8)])
    assert modes[0][0, 0] == pytest.approx(0.3 * math.sqrt(TWO_PI), rel=1e-13)
    for k in range(1, 4):
        assert np.abs(modes[k]).max() <= 1e-14


def test_analyze_roundtrip_trig_polynomial(rng):
    coeffs = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    coeffs[3] = coeffs[3].real  # k = 0 term
    for k in range(1, 4):
        coeffs[3 + k] = np.conj(coeffs[3 - k])  # real field

    def f(r, th, z):
        acc = np.zeros((3,) + th.shape, dtype=complex)
        for k in range(-3, 4):
            acc += coeffs[3 + k][:, None, None] * np.exp(1j * k * th) / math.sqrt(TWO_PI)
        return acc.real

    pts = [(0.4, 0.2)]
    modes = solver.analyze_rhs(f, 5, pts)
    assert set(modes) == set(range(6))
    for k in range(-5, 6):
        want = coeffs[3 + k] if abs(k) <= 3 else np.zeros(3)
        got = modes[k][0] if k >= 0 else np.conj(modes[-k][0])  # real data
        assert np.abs(got - want).max() <= 1e-12


def test_analyze_samples_returns_modes_zero_to_n(rng):
    values = rng.normal(size=(13, 4, 3))
    modes = solver.analyze_samples(values, 3)
    assert set(modes) == {0, 1, 2, 3}
    assert all(modes[k].shape == (4, 3) for k in modes)


def test_analyze_aliasing_guard():
    with pytest.raises(ValueError):
        solver.analyze_rhs(lambda r, th, z: (0, 0, 0), 3, [(0.5, 0.5)], samples=10)
    with pytest.raises(ValueError, match="4N"):
        solver.theta_samples(3, 12)
    assert solver.theta_samples(3, 13) == solver.theta_samples(3) == 13


@pytest.mark.parametrize("name", ["cos_theta_ez", "bandlimited"])
def test_default_grid_gives_the_mean_as_mode_zero(name):
    """At N = 0 the default grid still has 5 samples, so mode 0 is the
    theta-mean of the data, as a 64-sample analysis gives it, and not the
    data at theta = 0."""
    pts = [(0.3, 0.4), (0.7, 0.2)]
    got = solver.analyze_rhs(RHS_BUILTINS[name], 0, pts)[0]
    want = solver.analyze_rhs(RHS_BUILTINS[name], 0, pts, samples=64)[0]
    assert np.abs(got - want).max() <= 1e-15


def test_analyze_samples_rejects_complex_samples(rng):
    values = rng.normal(size=(13, 4, 3)).astype(complex)
    solver.analyze_samples(values, 3)  # a zero imaginary part is accepted
    values[5, 2, 1] += 1e-300j
    with pytest.raises(ValueError, match="real"):
        solver.analyze_samples(values, 3)


def _einsum_analysis(values, N):
    """The complex per-mode analysis the real matrix products replaced."""
    M = values.shape[0]
    theta = np.arange(M) * (TWO_PI / M)
    scale = math.sqrt(TWO_PI) / M
    return {
        k: scale * np.einsum("j,j...->...", np.exp(-1j * k * theta), values)
        for k in range(N + 1)
    }


def test_analysis_matches_complex_einsum(rng):
    # coarse_highmode's shape: M = 97 samples, N = 24, P = 4,536 points
    M, N, P = 97, 24, 4536
    values = rng.normal(size=(M, P, 3))
    want = _einsum_analysis(values, N)
    from_samples = solver.analyze_samples(values, N)
    from_data = solver.analyze_rhs(
        lambda r, th, z: tuple(values[:, :, c] for c in range(3)), N,
        rng.uniform(size=(P, 2)), samples=M,
    )
    for k in range(N + 1):
        bound = 1e-14 * np.abs(want[k]).max()
        assert np.abs(from_samples[k] - want[k]).max() <= bound
        assert np.abs(from_data[k] - want[k]).max() <= bound


def test_analysis_peak_memory_and_separate_mode_arrays():
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    quad = MeshQuadrature(msh, corner)
    N = 24
    components = 3 * (4 * N + 1) * len(quad.xy) * 8  # three real (M, P) arrays
    tracemalloc.start()
    try:
        modes = solver.analyze_rhs(RHS_BUILTINS["bandlimited"], N, quad.xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * components
    arrays = [modes[k] for k in range(N + 1)]
    for i, a in enumerate(arrays):
        assert a.shape == (len(quad.xy), 3)
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_zero_data_gives_zero_solution(lshape, lshape_quad):
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    basis = singular.compute_basis(system)
    zero = np.zeros((len(lshape_quad.xy), 4), dtype=complex)
    rec = solver.solve_mode_orthogonal(system, zero, basis)
    assert np.all(rec.field.values == 0.0)
    assert rec.coeff == 0.0


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_singular_only_manufactured(lshape, lshape_quad, space):
    msh, _ = lshape
    k = -1
    system = modal_ops.assemble_a_k(msh, k, space, quad=lshape_quad)
    basis = singular.compute_basis(system)
    bop = basis.op_arrays(system.ws, k)
    rec = solver.solve_mode_orthogonal(system, bop, basis)
    assert abs(rec.coeff - 1.0) <= 1e-6
    reg_energy = abs(modal_ops.a_k_direct(rec.field, rec.field, k, lshape_quad))
    assert reg_energy <= 1e-6 * rec.energy
    # the record: one CG solve, C^k over the basis energy
    assert rec.energy == _chunked_norm_sq(system.ws, bop)
    assert rec.cg.iterations > 0
    assert rec.cg.residual <= 1e-10
    # a posteriori orthogonality used to decouple the coefficient
    bcurl = bop[:, :3]
    rcurl = system.ws.op_values(rec.field.values, k)[:, :3]
    cross = abs(np.sum(system.ws.wr[:, None] * rcurl * bcurl.conj()))
    curl_norm = float(np.sum(system.ws.wr[:, None] * np.abs(bop[:, :3]) ** 2))
    assert cross <= 1e-6 * curl_norm


def test_regular_only_manufactured(lshape, lshape_quad, rng):
    msh, _ = lshape
    k, space = 1, SPACE_Y
    system = modal_ops.assemble_a_k(msh, k, space, quad=lshape_quad)
    basis = singular.compute_basis(system)
    raw = ModeField(
        msh, k, rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3))
    )
    w = system.constraints.apply(raw)
    wop = system.ws.op_values(w.values, k)
    rec = solver.solve_mode_orthogonal(system, wop, basis)
    assert abs(rec.coeff) <= 1e-8
    scale = np.abs(w.values).max()
    assert np.abs(rec.field.values - w.values).max() <= 1e-8 * scale


def test_bordered_zero_data(lshape, lshape_quad):
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    sys4 = sys2.shifted(4)
    zero = np.zeros((len(lshape_quad.xy), 4), dtype=complex)
    rec = solver.solve_mode_bordered(sys4, zero, b2)
    assert np.all(np.abs(rec.field.values) <= 1e-14)
    assert abs(rec.coeff) <= 1e-14


def test_bordered_recovers_known_combination(lshape, lshape_quad, rng):
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    sysk = modal_ops.assemble_a_k(msh, 3, SPACE_Y, quad=lshape_quad)
    raw = ModeField(
        msh, 3, rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3))
    )
    w = sysk.constraints.apply(raw)
    c0 = -0.4 + 1.1j
    vec = sysk.ws.op_values(w.values, 3) + c0 * b2.op_arrays(sysk.ws, 3)
    rec = solver.solve_mode_bordered(sys2.shifted(3), vec, b2)
    assert abs(rec.coeff - c0) <= 0.02 * abs(c0)
    # the record: one CG solve on the bordered matrix, whose last diagonal
    # entry alpha is the energy a_3(s, s) of the reused mode-2 basis
    assert rec.cg.iterations > 0
    assert rec.cg.residual <= 1e-10
    assert rec.energy == _chunked_norm_sq(sysk.ws, b2.op_arrays(sysk.ws, 3))
    scale = np.abs(w.values).max()
    assert np.abs(rec.field.values - w.values).max() <= 1e-6 * scale


def test_bordered_rejects_low_modes(lshape, lshape_quad):
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    with pytest.raises(ValueError):
        solver.solve_mode_bordered(sys2, np.zeros((len(lshape_quad.xy), 4)), b2)


def test_orthogonal_rejects_a_basis_of_another_mode(lshape, lshape_quad):
    """A basis is a_k-orthogonal to the regular space of its own mode only,
    so pairing the data with another mode's basis gives a wrong C^k."""
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    sys3 = sys2.shifted(3)
    sys1 = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    sys_m1 = modal_ops.assemble_a_k(msh, -1, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    b_m1 = singular.compute_basis(sys_m1)
    zero = np.zeros((len(lshape_quad.xy), 4), dtype=complex)
    for system, basis in ((sys3, b2), (sys1, b_m1)):
        match = f"expected the mode {system.k} basis, got mode {basis.k}"
        with pytest.raises(ValueError, match=match):
            solver.solve_mode_orthogonal(system, zero, basis)


def test_mode_solves_reject_malformed_data(lshape, lshape_quad):
    """Mode data are one (Q, 4) array of finite samples at the system's
    quadrature points: data sampled on another quadrature or split into
    (f, g) would otherwise be read in part, and NaN would solve to NaN."""
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    sys3 = sys2.shifted(3)
    Q = len(lshape_quad.xy)
    bad_nan = np.zeros((Q, 4), dtype=complex)
    bad_nan[Q // 2, 3] = np.nan
    for data, match in (
        (np.zeros((Q + 1, 4)), "shape"),
        (np.zeros((Q, 3)), "shape"),
        (np.zeros(4 * Q), "shape"),
        (bad_nan, "not finite"),
    ):
        with pytest.raises(ValueError, match=match):
            solver.solve_mode_orthogonal(sys2, data, b2)
        with pytest.raises(ValueError, match=match):
            solver.solve_mode_bordered(sys3, data, b2)


def test_a_solve_reads_the_data_of_each_mode_once(monkeypatch):
    """The loads loop reads and checks each mode's data, once per mode; a
    mode solve given its load pairs the data with its basis unchecked, so
    samples runs once per mode (the L-shape at h = 0.2, N = 3 with the
    corner: four calls, where a second reading in each pairing made eight)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    calls, samples = [], modal_ops.OperatorWorkspace.samples

    def counted(self, vec):
        calls.append(1)
        return samples(self, vec)

    monkeypatch.setattr(modal_ops.OperatorWorkspace, "samples", counted)
    sol = solver.solve_axisymmetric(msh, SPACE_Y, RHS_BUILTINS["bandlimited"], N=3, corner=corner)
    assert all(sol.records[k].basis is not None for k in range(4))
    assert len(calls) == 4


def test_conjugate_mode_symmetry(lshape, lshape_quad):
    msh, _ = lshape
    k, space = 1, SPACE_Y

    def f(r, th, z):
        return (r * z * np.cos(th), (1 - r) * np.sin(th), r * (1 - z))

    fm = solver.analyze_rhs(f, 2, lshape_quad.xy)
    # no divergence data; real data: mode -k is the conjugate of mode k
    data = {k: np.column_stack([fm[k], np.zeros(len(fm[k]))])}
    data[-k] = np.conj(data[k])
    recs = {}
    for kk in (k, -k):
        system = modal_ops.assemble_a_k(msh, kk, space, quad=lshape_quad)
        basis = singular.compute_basis(system)
        recs[kk] = solver.solve_mode_orthogonal(system, data[kk], basis)
    tot_p = recs[k].total_nodal()
    tot_m = recs[-k].total_nodal()
    scale = np.abs(tot_p).max()
    assert np.abs(tot_m - np.conj(tot_p)).max() <= 1e-8 * scale


_bandlimited = RHS_BUILTINS["bandlimited"]


def test_full_solve_and_synthesis_roundtrip():
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.2)
    N = 3
    sol = solver.solve_axisymmetric(msh, SPACE_Y, _bandlimited, N=N)
    assert set(sol.records) == set(range(N + 1))
    # N = 0 synthesis equals the mode-0 slice
    sol0 = solver.FourierSolution(msh, SPACE_Y, 0, {0: sol.records[0]})
    slice0 = solver.synthesize(sol0, 1.234)
    assert np.allclose(slice0, sol.records[0].total_nodal().real / math.sqrt(TWO_PI))
    # full round trip: synthesize on the uniform grid, re-analyze
    M = 4 * N + 1
    thetas = np.arange(M) * (TWO_PI / M)
    samples = np.array([solver.synthesize(sol, th) for th in thetas], dtype=complex)
    assert np.abs(samples.imag).max() == 0.0  # synthesis of real data returns reals
    # one call on all azimuths gives the same stack, bit for bit
    assert np.array_equal(solver.synthesize(sol, thetas), samples.real)
    modes = solver.analyze_samples(samples, N)
    for k in range(N + 1):
        assert np.abs(modes[k] - sol.records[k].total_nodal()).max() <= 1e-12


def _divergence_data(r, th, z):
    return r * z * (1.0 + np.cos(th) - np.sin(2 * th) + 0.5 * np.cos(3 * th))


def test_full_solve_with_divergence_data(rect):
    """With divergence data g, each record is the orthogonal mode solve on
    the (Q, 4) rows packed from analyze_rhs(f)[k] and analyze_scalar_rhs(g)[k],
    bit for bit: on the k <= 2 systems and on the k = 3 one built from the
    mode-2 system.  A nonzero g changes every record."""
    N = 3
    sol = solver.solve_axisymmetric(rect, SPACE_Y, _bandlimited, g=_divergence_data, N=N)
    plain = solver.solve_axisymmetric(rect, SPACE_Y, _bandlimited, N=N)
    quad = MeshQuadrature(rect)
    fmodes = solver.analyze_rhs(_bandlimited, N, quad.xy)
    gmodes = solver.analyze_scalar_rhs(_divergence_data, N, quad.xy)
    systems = modal_ops.assemble_systems({k: femcore.build_constraints(rect, k, SPACE_Y) for k in range(3)},
                                         quad, shift=True)
    systems[3] = systems[2].shifted(3)
    for k in range(N + 1):
        data = np.zeros((len(quad.xy), 4), dtype=complex)
        data[:, :3] = fmodes[k]
        data[:, 3] = gmodes[k]
        want = solver.solve_mode_orthogonal(systems[k], data)
        rec = sol.records[k]
        assert rec.field.values.tobytes() == want.field.values.tobytes(), k
        assert rec.cg == want.cg
        assert not np.array_equal(rec.field.values, plain.records[k].field.values), k


def test_full_solve_rejects_complex_data(rect):
    """Mode -k is the conjugate of mode k only for real data, so data with
    an imaginary part is rejected instead of giving wrong negative modes."""
    def f(r, th, z):
        return (0.0, 0.0, np.exp(1j * th))

    with pytest.raises(ValueError, match="real"):
        solver.solve_axisymmetric(rect, SPACE_Y, f, N=2)


def test_full_solve_rejects_data_not_finite(rect):
    """Real data that is NaN at some points fails the sampling of the mode
    loads instead of giving a NaN solution."""
    def f(r, th, z):
        return (np.where(r > 0.5, np.nan, 0.0), 0.0, np.cos(th))

    with pytest.raises(ValueError, match="not finite"):
        solver.solve_axisymmetric(rect, SPACE_Y, f, N=2)


def test_data_not_finite_fail_before_any_lift_or_assembly(lshape, monkeypatch, tmp_path, capsys):
    """The analysed modes are checked once, right after the analysis: NaN
    data raise ValueError "not finite" before any basis is lifted or any
    system assembled, and the command line exits 1 on them."""
    msh, corner = lshape

    def f(r, th, z):
        return (np.where(r > 0.5, np.nan, 0.0), 0.0, np.cos(th))

    def unreachable(*args, **kwargs):
        raise AssertionError("reached with data that are not finite")

    monkeypatch.setattr(singular, "lift_basis", unreachable)
    monkeypatch.setattr(modal_ops, "assemble_systems", unreachable)
    with pytest.raises(ValueError, match="not finite"):
        solver.solve_axisymmetric(msh, SPACE_Y, f, N=3, corner=corner)
    monkeypatch.setitem(RHS_BUILTINS, "bandlimited", f)
    argv = ["solve", "--h", "0.1", "--rhs", "bandlimited", "--modes", "3", "--outdir", str(tmp_path)]
    assert cli_io.main(argv) == 1
    assert "not finite" in capsys.readouterr().err


def _spy_cg(monkeypatch):
    """Record the right-hand side of every linalg.solve_hpd call, bordered
    solves included."""
    calls = []
    plain = linalg.solve_hpd

    def spy(A, b, *args, **kwargs):
        calls.append(np.array(b))
        return plain(A, b, *args, **kwargs)

    monkeypatch.setattr(linalg, "solve_hpd", spy)
    monkeypatch.setattr(solver, "solve_hpd", spy)
    return calls


def test_zero_and_round_off_modes_make_no_cg_call(rect, monkeypatch):
    """cos(theta) e_z data fill mode 1 only: modes 0 and 2 are round-off of
    the analysis, and their loads meet the stopping rule at x = 0 against
    the whole data.  Only mode 1 calls CG; the others report 0 iterations,
    a residual ||b_k|| / F <= tol and an exactly zero field."""
    tol = 1e-10
    calls = _spy_cg(monkeypatch)
    sol = solver.solve_axisymmetric(
        rect, SPACE_Y, lambda r, th, z: (0.0, 0.0, r * np.cos(th)), N=2, tol=tol
    )
    assert len(calls) == 1
    assert sol.records[1].cg.iterations > 0
    # F = ||b|| / sqrt(5), ||b||^2 = ||b_0||^2 + 2 ||b_1||^2 + 2 ||b_2||^2
    quad = MeshQuadrature(rect)
    systems = modal_ops.assemble_systems({k: femcore.build_constraints(rect, k, SPACE_Y) for k in range(3)}, quad)
    fmodes = solver.analyze_rhs(lambda r, th, z: (0.0, 0.0, r * np.cos(th)), 2, quad.xy)
    norms = [np.linalg.norm(systems[k].functional(np.c_[fmodes[k], np.zeros(len(quad.xy))]))
             for k in range(3)]
    floor = math.sqrt((norms[0] ** 2 + 2 * norms[1] ** 2 + 2 * norms[2] ** 2) / 5)
    for k in (0, 2):
        rec = sol.records[k]
        assert rec.cg.iterations == 0
        assert rec.cg.residual == pytest.approx(norms[k] / floor, rel=1e-9, abs=0.0)
        assert 0.0 < rec.cg.residual <= tol
        assert np.all(rec.field.values == 0.0) and not np.signbit(rec.field.values.real).any()
    # a mode of exactly zero data next to a mode of real data
    data = np.zeros((len(quad.xy), 4), dtype=complex)
    data[:, 2] = quad.xy[:, 0]
    floor = np.linalg.norm(systems[1].functional(data))
    calls.clear()
    rec = solver.solve_mode_orthogonal(systems[0], np.zeros_like(data), tol=tol, floor=floor)
    assert calls == [] and rec.cg == linalg.CGInfo(0, 0.0)
    assert np.all(rec.field.values == 0.0) and rec.coeff == 0j


@pytest.mark.parametrize("share", [1.0, 1e-3])
def test_mode_with_its_share_solves_as_plain_cg(lshape, lshape_quad, rng, share):
    """A mode whose load is at least tol times the floor is solved by the
    same CG call as without the rule, bit for bit: at its fair share and
    well below it, from its data and from its load given as paired."""
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    data = rng.normal(size=(len(lshape_quad.xy), 4)) + 1j * rng.normal(size=(len(lshape_quad.xy), 4))
    load = system.functional(data)
    floor = np.linalg.norm(load) / share
    rec = solver.solve_mode_orthogonal(system, data, tol=1e-10, floor=floor)
    paired = solver.solve_mode_orthogonal(system, None, tol=1e-10, paired=(load, 0j), floor=floor)
    assert paired.field.values.tobytes() == rec.field.values.tobytes() and paired.cg == rec.cg
    x, info = linalg.solve_hpd(system.matrix, load, tol=1e-10, hierarchy=system.hierarchy)
    assert rec.cg == info and info.iterations > 0
    assert rec.field.values.tobytes() == system.constraints.expand(x).values.tobytes()


def test_skipped_bordered_mode_is_zero(lshape, lshape_quad, monkeypatch):
    """A bordered mode whose right-hand side [b; f_s] is round-off against
    the floor makes no CG call and returns a zero field and C^k = 0j.  f_s
    is f_s0 + vdot(x, b), f_s0 the data paired with S + lift chunk by chunk
    and x the free dofs of the basis, within 1e-13 of the data paired with
    the basis itself."""
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    b2 = singular.compute_basis(sys2)
    sys4 = sys2.shifted(4)
    bop = b2.op_arrays(sys4.ws, 4)
    data = 1e-13 * bop
    start = singular.lift_basis(sys2.constraints, lshape_quad).op_arrays(sys4.ws, 4)
    load, x = sys4.functional(data), sys2.constraints.free_values(b2.regular)
    f_s = _chunked_sum(sys4.ws, lambda p: np.einsum("q,qa,qa->", sys4.ws.wr[p], data[p], start[p].conj()))
    f_s += np.vdot(x, load)
    direct = _chunked_sum(sys4.ws, lambda p: np.einsum("q,qa,qa->", sys4.ws.wr[p], data[p], bop[p].conj()))
    assert abs(f_s - direct) <= 1e-13 * abs(direct)
    rhs = np.append(load, f_s)
    calls = _spy_cg(monkeypatch)
    rec = solver.solve_mode_bordered(sys4, data, b2, tol=1e-10, floor=1.0)
    assert calls == []
    assert np.all(rec.field.values == 0.0)
    assert type(rec.coeff) is complex and rec.coeff == 0j
    assert rec.cg == linalg.CGInfo(0, float(np.linalg.norm(rhs)))
    assert 0.0 < rec.cg.residual <= 1e-10
    # the same data against a floor it exceeds is solved
    rec = solver.solve_mode_bordered(sys4, data, b2, tol=1e-10, floor=1e-6)
    assert len(calls) == 1 and rec.cg.iterations > 0 and abs(rec.coeff - 1e-13) <= 1e-15


def test_full_solve_assembles_each_system_once(lshape, rect, monkeypatch):
    """The bases and the mode solves share the k = 0, 1, 2 systems, and the
    k-independent operator workspace is built once; with or without a
    corner, |k| > 2 modes assemble nothing anew."""
    msh, corner = lshape
    calls = {}

    def counted(name):
        fn = getattr(modal_ops, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(modal_ops, name, wrapper)

    for name in ("assemble_a_k", "OperatorWorkspace"):
        counted(name)
    for case_mesh, case_corner in ((msh, corner), (rect, None)):
        calls.clear()
        solver.solve_axisymmetric(case_mesh, SPACE_Y, _bandlimited, N=5, corner=case_corner)
        assert calls == {"assemble_a_k": 3, "OperatorWorkspace": 1}


def test_full_solve_forms_each_basis_once_per_use(lshape, lshape_quad, monkeypatch):
    """An N = 2 solve evaluates each lift's operators once, for the pairings
    of its basis right-hand side and the f_s0 of its mode's data, and each
    solved basis's operators once, for its a_k(s, s) in the mode solve,
    chunk by chunk; the record keeps that a_k(s, s), and the basis itself is
    frozen and stores no energy."""
    msh, corner = lshape
    op_chunks, calls = singular.SingularBasis.op_chunks, []

    def counted(self, ws, k):
        calls.append(k)
        return op_chunks(self, ws, k)

    monkeypatch.setattr(singular.SingularBasis, "op_chunks", counted)
    sol = solver.solve_axisymmetric(msh, SPACE_Y, _bandlimited, N=2, corner=corner)
    assert calls == [0, 1, 2, 0, 1, 2]
    monkeypatch.undo()
    ws = modal_ops.workspace(lshape_quad)
    for k, rec in sol.records.items():
        basis = rec.basis
        assert basis.k == k
        assert rec.energy == _chunked_norm_sq(ws, basis.op_arrays(ws, k))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.records[1].basis.cg = None


_cos_theta_ez = RHS_BUILTINS["cos_theta_ez"]


def _axisymmetric(r, th, z):
    return (r * z, r * (1.0 - r), 1.0 - r * r)


def _rule_bounds(msh, corner, space, f, N):
    """bound / F of the skip rule for every mode k <= 2, formed here from
    the loads, the data and the lifted principal parts: bound^2 =
    ||b_k||^2 + ||d_k||^2 a_k(S + lift, S + lift), F the fair share of the
    Parseval norm of all loads."""
    quad = MeshQuadrature(msh, corner)
    ws = modal_ops.workspace(quad)
    fmodes = solver.analyze_rhs(f, N, quad.xy)
    kind = singular.EDGE_ELECTRIC if space == SPACE_X else singular.EDGE_MAGNETIC
    pp = singular.PrincipalPart(kind, corner)
    systems = {k: modal_ops.assemble_a_k(msh, k, space, quad) for k in range(min(N, 2) + 1)}
    bounds, norms = {}, []
    for k in range(N + 1):
        system = systems[k] if k <= 2 else systems[2].shifted(k)
        data = np.c_[fmodes[k], np.zeros(len(quad.xy))]
        norms.append(np.linalg.norm(system.functional(data)))
        if k <= 2:
            lift = femcore.lift_boundary(
                system.constraints, lambda pts: -singular._guarded_values(pp, msh, pts))
            ops = singular.SingularBasis(k, space, pp, lift).op_arrays(ws, k)
            e_up = np.sum(ws.wr[:, None] * np.abs(ops) ** 2)
            bounds[k] = math.sqrt(norms[k] ** 2 + np.sum(ws.wr[:, None] * np.abs(data) ** 2) * e_up)
    F = math.sqrt((norms[0] ** 2 + 2 * sum(b * b for b in norms[1:])) / (2 * N + 1))
    return {k: b / F for k, b in bounds.items()}, F


def _spy_build(monkeypatch):
    """Record the mode of every assembly and basis solve and count the
    evaluations of basis operators (op_chunks) and the free-dof functionals
    of the constraint sets, through which every load, basis right-hand side
    and bordered coupling is formed."""
    calls = {"assemble_a_k": [], "compute_basis": [], "op_chunks": 0, "functional": 0}
    assemble, basis, op_chunks, functional = (
        modal_ops.assemble_a_k, singular.compute_basis, singular.SingularBasis.op_chunks,
        femcore.ConstraintSet.functional)

    def assembled(msh, k, *args, **kwargs):
        calls["assemble_a_k"].append(k)
        return assemble(msh, k, *args, **kwargs)

    def based(system, *args, **kwargs):
        calls["compute_basis"].append(system.k)
        return basis(system, *args, **kwargs)

    def evaluated(self, ws, k):
        calls["op_chunks"] += 1
        return op_chunks(self, ws, k)

    def reduced(self, per_dof_local):
        calls["functional"] += 1
        return functional(self, per_dof_local)

    monkeypatch.setattr(modal_ops, "assemble_a_k", assembled)
    monkeypatch.setattr(singular, "compute_basis", based)
    monkeypatch.setattr(singular.SingularBasis, "op_chunks", evaluated)
    monkeypatch.setattr(femcore.ConstraintSet, "functional", reduced)
    return calls


def _assert_skipped(rec, resid):
    assert type(rec.coeff) is complex and rec.coeff == 0j
    assert not rec.field.values.any() and not np.signbit(rec.field.values.real).any()
    assert rec.basis is None and rec.energy == 0.0
    assert rec.cg.iterations == 0 and rec.cg.residual == pytest.approx(resid, rel=1e-9, abs=0.0)


def test_round_off_modes_are_skipped_before_their_system(lshape, lshape_quad, monkeypatch):
    """cos(theta) e_z data fill mode 1 only.  Modes 0 and 2 meet the rule
    before any matrix exists: one assembly, one basis solve and four
    evaluations of basis operators (the lifts of modes 0 and 2 for their
    bounds, mode 1's for its right-hand side and f_s0, and mode 1's basis
    for its a_k(s, s)).  The constraint sets form the N + 1 loads and the
    basis right-hand side of mode 1 only: a skipped mode whose basis nobody
    reads gets none.
    Mode 1 is solved bit for bit as on its own system and basis from its
    data, with the same floor.  With N = 3 the mode-2 system and basis are built
    for the bordered mode 3, and mode 2 is still skipped; exactly zero data
    build nothing but the mode-2 basis that N = 3 needs."""
    msh, corner = lshape
    tol = 1e-10
    resid, F = _rule_bounds(msh, corner, SPACE_X, _cos_theta_ez, 2)
    calls = _spy_build(monkeypatch)
    sol = solver.solve_axisymmetric(msh, SPACE_X, _cos_theta_ez, N=2, corner=corner, tol=tol)
    assert calls == {"assemble_a_k": [1], "compute_basis": [1], "op_chunks": calls["op_chunks"],
                     "functional": 3 + 1}
    assert calls["op_chunks"] == 4
    monkeypatch.undo()
    for k in (0, 2):
        assert resid[k] <= tol
        _assert_skipped(sol.records[k], resid[k])
    system = modal_ops.assemble_a_k(msh, 1, SPACE_X, quad=lshape_quad)
    basis = singular.compute_basis(system, tol=tol)
    fmode = solver.analyze_rhs(_cos_theta_ez, 2, lshape_quad.xy)[1]
    data = np.c_[fmode, np.zeros(len(fmode))]
    ref = solver.solve_mode_orthogonal(system, data, basis, tol=tol, floor=F)
    rec = sol.records[1]
    assert rec.cg == ref.cg and rec.cg.iterations > 0
    assert rec.coeff == ref.coeff and rec.energy == ref.energy
    assert rec.field.values.tobytes() == ref.field.values.tobytes()
    assert rec.basis.regular.values.tobytes() == basis.regular.values.tobytes()

    calls = _spy_build(monkeypatch)
    sol = solver.solve_axisymmetric(msh, SPACE_X, _cos_theta_ez, N=3, corner=corner, tol=tol)
    assert calls["assemble_a_k"] == [1, 2] and calls["compute_basis"] == [1, 2]
    assert calls["functional"] == 4 + 2  # mode 3 is round-off: no coupling is formed
    _assert_skipped(sol.records[2], _rule_bounds(msh, corner, SPACE_X, _cos_theta_ez, 3)[0][2])
    assert sol.records[3].basis.k == 2

    for N in (2, 3):
        monkeypatch.undo()
        calls = _spy_build(monkeypatch)
        sol = solver.solve_axisymmetric(msh, SPACE_X, lambda r, th, z: (0.0, 0.0, 0.0), N=N,
                                        corner=corner, tol=tol)
        assert calls["assemble_a_k"] == [2] * (N > 2)
        assert calls["functional"] == (N + 1) + (N > 2)
        for rec in sol.records.values():
            assert rec.cg == linalg.CGInfo(0, 0.0) and rec.coeff == 0j
            assert not rec.field.values.any()


@pytest.mark.parametrize("share", [10.0, 0.1])
def test_skip_rule_edge(lshape, monkeypatch, share):
    """eps times axisymmetric data added to cos(theta) e_z data, with eps
    set so that mode 0's bound / F is share * tol: at 10 tol mode 0 is
    assembled and solved, at 0.1 tol it is skipped.  A rule that skips a
    mode with real data fails the first case."""
    msh, corner = lshape
    tol = 1e-10
    ax_resid, ax_F = _rule_bounds(msh, corner, SPACE_X, _axisymmetric, 2)
    cos_F = _rule_bounds(msh, corner, SPACE_X, _cos_theta_ez, 2)[1]
    # mode 0's bound grows as eps, while F stays about that of the cos data
    eps = share * tol / (ax_resid[0] * ax_F / cos_F)

    def f(r, th, z):
        return tuple(c + eps * a for c, a in zip(_cos_theta_ez(r, th, z), _axisymmetric(r, th, z)))

    resid = _rule_bounds(msh, corner, SPACE_X, f, 2)[0]
    assert resid[0] == pytest.approx(share * tol, rel=0.05)
    calls = _spy_build(monkeypatch)
    sol = solver.solve_axisymmetric(msh, SPACE_X, f, N=2, corner=corner, tol=tol)
    if share > 1.0:
        assert calls["assemble_a_k"] == [0, 1] and calls["compute_basis"] == [0, 1]
        assert sol.records[0].basis.k == 0 and sol.records[0].energy > 0.0
        assert sol.records[0].coeff != 0.0  # the data pair with the basis
    else:
        assert calls["assemble_a_k"] == [1] and calls["compute_basis"] == [1]
        _assert_skipped(sol.records[0], resid[0])


def _count_calls(monkeypatch, owner, name, calls):
    """Count the calls of the method owner.name in calls[name]."""
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("rhs, N, counts", [
    ("cos_theta_ez", 2, {"adjoint_chunks": 4, "op_chunks": 4, "pairings": 1}),
    ("bandlimited", 3, {"adjoint_chunks": 8, "op_chunks": 8, "pairings": 4}),
])
def test_only_a_basis_that_is_solved_for_is_paired(monkeypatch, rhs, N, counts):
    """The lift of a |k| <= 2 mode is paired with the test fields only for a
    mode that gets a basis: with cos(theta) e_z data (the L-shape at h = 0.2,
    N = 2) modes 0 and 2 are skipped, so adjoint_chunks runs for the 3 loads
    and mode 1's basis right-hand side, and the basis rows are read for the
    bounds of modes 0 and 2, mode 1's pairings, which give its f_s0 too, and
    its a_k(s, s).  With bandlimited data and N = 3 every mode is solved: 4
    loads, 3 basis right-hand sides and the coupling of mode 3, each basis
    right-hand side and the coupling through SingularBasis.pairings; the rows
    are read 8 times: 3 pairings with f_s0, S + lift of mode 2 at k = 3 for
    mode 3's f_s0, a_k(s, s) of modes 0 to 2, and mode 3's coupling with its
    a_k(s, s)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    calls = {}
    _count_calls(monkeypatch, modal_ops.OperatorWorkspace, "adjoint_chunks", calls)
    for name in ("op_chunks", "pairings"):
        _count_calls(monkeypatch, singular.SingularBasis, name, calls)
    sol = solver.solve_axisymmetric(msh, SPACE_X, RHS_BUILTINS[rhs], N=N, corner=corner)
    assert calls == counts
    solved = [k for k, rec in sol.records.items() if rec.cg.iterations > 0]
    assert solved == ([1] if N == 2 else list(range(N + 1)))


def _at_assembly(monkeypatch, check):
    """Call check(classes) when modal_ops.assemble_systems starts, with the
    constraint classes it is given."""
    assemble, seen = modal_ops.assemble_systems, []

    def checking(classes, *args, **kwargs):
        seen.append(check(classes))
        return assemble(classes, *args, **kwargs)

    monkeypatch.setattr(modal_ops, "assemble_systems", checking)
    return seen


def test_no_lift_of_a_dropped_class_reaches_the_assembly(lshape, monkeypatch):
    """cos(theta) e_z data skip modes 0 and 2 (N = 2), and their classes are
    dropped: when assemble_systems starts, neither of their lifts is alive,
    while mode 1's, which its basis solve starts from, is."""
    msh, corner = lshape
    lift_basis, lifts = singular.lift_basis, {}

    def recording(constraints, quad):
        lifted = lift_basis(constraints, quad)
        lifts[constraints.k] = weakref.ref(lifted)
        return lifted

    monkeypatch.setattr(singular, "lift_basis", recording)
    seen = _at_assembly(monkeypatch, lambda classes: (
        sorted(classes), {k: ref() is not None for k, ref in lifts.items()}))
    solver.solve_axisymmetric(msh, SPACE_X, _cos_theta_ez, N=2, corner=corner)
    assert seen == [([1], {0: False, 1: True, 2: False})]


def test_the_data_of_a_skipped_mode_die_before_the_assembly(lshape, monkeypatch):
    """The bound that skips modes 0 and 2 of cos(theta) e_z data, with
    r cos(theta) divergence data (N = 2), reads their data chunk by chunk
    and keeps nothing, and mode 1 pairs its data into its load and f_s0:
    when assemble_systems starts, no analysed f or g of any mode is alive."""
    msh, corner = lshape
    modes = {}

    def recording(analyze, name):
        def analyzed(*args, **kwargs):
            out = analyze(*args, **kwargs)
            modes.update({(name, k): weakref.ref(a) for k, a in out.items()})
            return out
        return analyzed

    monkeypatch.setattr(solver, "analyze_rhs", recording(solver.analyze_rhs, "f"))
    monkeypatch.setattr(solver, "analyze_scalar_rhs", recording(solver.analyze_scalar_rhs, "g"))
    seen = _at_assembly(monkeypatch, lambda classes: {
        key: ref() is not None for key, ref in modes.items()})
    sol = solver.solve_axisymmetric(msh, SPACE_X, _cos_theta_ez, lambda r, th, z: r * np.cos(th),
                                    N=2, corner=corner)
    assert [sol.records[k].cg.iterations > 0 for k in range(3)] == [False, True, False]
    assert seen == [{(name, k): False for name in "fg" for k in range(3)}]


@pytest.mark.parametrize("space, h", [(SPACE_X, 0.05), (SPACE_Y, 0.025)])
def test_the_pairing_formed_at_the_load_is_the_pairing_with_the_basis(monkeypatch, space, h):
    """Each solved mode pairs its data with S + lift at its load, into f_s0,
    and its solve forms f_s = f_s0 + vdot(x, b_k) with x the free dofs of
    the basis: that is (d_k, D_k s), the data paired with the solved basis
    s at the quadrature points, within 1e-13 relative, for bandlimited f and
    g = r z cos(2 theta) on every mode k = 0..5, the orthogonal k <= 2 and
    the bordered k > 2 alike."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)

    def g(r, th, z):
        return r * z * np.cos(2 * th)

    paired, seen = solver._paired, {}

    def recording(system, data, basis, given):
        load, f_s = paired(system, data, basis, given)
        seen[system.k] = data, f_s, basis
        return load, f_s

    monkeypatch.setattr(solver, "_paired", recording)
    solver.solve_axisymmetric(msh, space, _bandlimited, g, N=5, corner=corner)
    monkeypatch.undo()
    assert sorted(seen) == list(range(6))
    ws = modal_ops.workspace(MeshQuadrature(msh, corner))
    fmodes, gmodes = solver.analyze_rhs(_bandlimited, 5, ws.xy), solver.analyze_scalar_rhs(g, 5, ws.xy)
    for k, (data, f_s, basis) in seen.items():
        assert data is None and basis.k == min(k, 2)
        direct = np.sum(ws.wr[:, None] * np.c_[fmodes[k], gmodes[k]] * basis.op_arrays(ws, k).conj())
        assert abs(f_s - direct) <= 1e-13 * abs(direct), (k, abs(f_s - direct) / abs(direct))


def _odd_data(r, th, z):
    """bandlimited-like data with only modes +-1 and +-3: modes 0, 2 and 4
    are round-off of the analysis."""
    return (
        0.5 * r * r * (1 - r) * z * (1 - z) * np.cos(th),
        r * (1 - r) * (0.3 * np.sin(th) + 0.1 * np.cos(3 * th)),
        0.4 * z * (1 - z) * np.cos(3 * th),
    )


@pytest.mark.parametrize("h", [0.2, 0.1])
@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_full_solve_matches_the_dense_bordered_galerkin_solution(h, space):
    """Path-independent oracle: each mode's Galerkin solution on V_reg +
    span(S + lift), from one dense bordered solve, against the C^k and total
    field of solve_axisymmetric, whichever path it took (orthogonal,
    bordered or skipped).

    The dense system is M z = rhs, M = [[K, y], [y^H, alpha]], with K the
    free-dof matrix of a_k, y = a_k(S + lift, v), alpha = a_k(S + lift,
    S + lift), rhs = [b_k; f_s] and S + lift the lifted principal part of
    the mode (of mode 2 for k > 2).  A solution u = u_reg + C s, with s =
    S + lift + x_b, is z = [u_reg + C x_b; C].  The solver stops every CG
    solve at tol times its right-hand side or tol * F: the regular part at
    ||b_k - K u_reg|| <= tol max(||b_k||, F), the basis at ||y + K x_b||
    <= tol ||y||, a bordered mode at tol max(||rhs||, F) in the basis s,
    whose change of coordinates has norm at most 1 + ||x_b||, and a skipped
    mode has ||rhs|| <= tol F.  Writing out the residual of z in M for
    each path bounds all of them by

      rho = tol (1 + ||x_b||)^2 (max(||rhs||, F) + ||y|| (|C| + ||u_reg||)),

    so ||z - z*|| <= rho ||M^-1|| = rho kappa(M) / ||M||.  C^k differs by
    at most that, and the total nodal field by at most that times
    1 + max |S + lift| (expand has coefficients of modulus <= 1).  A mode
    returned as exactly zero must meet the rule with its true [b_k; f_s].
    """
    tol, N = 1e-10, 4
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
    quad = MeshQuadrature(msh, corner)
    ws = modal_ops.workspace(quad)
    kind = singular.EDGE_ELECTRIC if space == SPACE_X else singular.EDGE_MAGNETIC
    pp = singular.PrincipalPart(kind, corner)
    dense = {}
    for k in range(N + 1):
        system = modal_ops.assemble_a_k(msh, k, space, quad)
        lift = femcore.lift_boundary(  # of mode 2 for k > 2: the class of |k| >= 2
            system.constraints, lambda pts: -singular._guarded_values(pp, msh, pts))
        s0 = singular.SingularBasis(min(k, 2), space, pp, lift)
        ops = s0.op_arrays(ws, k)
        K, y = system.matrix.to_dense(), system.functional(ops)
        n = len(y)
        M = np.empty((n + 1, n + 1), dtype=complex)
        M[:n, :n], M[:n, n], M[n, :n] = K, y, y.conj()
        M[n, n] = np.sum(ws.wr[:, None] * np.abs(ops) ** 2)
        lam_min = np.abs(np.linalg.eigvalsh(M)).min()  # ||M^-1|| = kappa(M) / ||M||
        dense[k] = (M, lam_min, np.linalg.solve(K, -y), y, s0, ops, system)
    for f in (_bandlimited, _odd_data):
        sol = solver.solve_axisymmetric(msh, space, f, N=N, corner=corner, tol=tol)
        fmodes = solver.analyze_rhs(f, N, quad.xy)
        rhs = {}
        for k, (M, lam_min, x_b, y, s0, ops, system) in dense.items():
            data = np.c_[fmodes[k], np.zeros(len(quad.xy))]
            f_s = np.einsum("q,qa,qa->", ws.wr, data, ops.conj())
            rhs[k] = np.append(system.functional(data), f_s)
        norms = [np.linalg.norm(rhs[k][:-1]) for k in range(N + 1)]
        F = math.sqrt((norms[0] ** 2 + 2 * sum(b * b for b in norms[1:])) / (2 * N + 1))
        for k, (M, lam_min, x_b, y, s0, ops, system) in dense.items():
            rec = sol.records[k]
            z = np.linalg.solve(M, rhs[k])
            u_reg = np.linalg.norm(system.constraints.free_values(rec.field))
            rho = tol * (1 + np.linalg.norm(x_b)) ** 2 * (
                max(np.linalg.norm(rhs[k]), F) + np.linalg.norm(y) * (abs(rec.coeff) + u_reg))
            bound = rho / lam_min
            assert abs(rec.coeff - z[-1]) <= bound, (f.__name__, k)
            exact = system.constraints.expand(z[:-1]).values + z[-1] * s0.total_nodal()
            err = np.abs(rec.total_nodal() - exact).max()
            assert err <= bound * (1 + np.abs(s0.total_nodal()).max()), (f.__name__, k)
            if rec.coeff == 0 and not rec.field.values.any():
                assert np.linalg.norm(rhs[k]) <= tol * F, (f.__name__, k)


def test_fourier_solution_requires_all_modes(rect):
    rec = solver.ModeRecord(ModeField(rect, 0))
    with pytest.raises(ValueError):
        solver.FourierSolution(rect, SPACE_Y, 1, {0: rec})


def test_fourier_solution_holds_no_negative_modes(rect):
    """Mode -k of real data is the conjugate of mode k and is not stored."""
    recs = {k: solver.ModeRecord(ModeField(rect, k)) for k in (-1, 0, 1)}
    with pytest.raises(ValueError):
        solver.FourierSolution(rect, SPACE_Y, 1, recs)
    solver.FourierSolution(rect, SPACE_Y, 1, {0: recs[0], 1: recs[1]})


def test_error_norms_of_zero_exact(rect, rng):
    vals = rng.normal(size=(rect.num_vertices, 3))
    fld = ModeField(rect, 1, vals)
    quad = MeshQuadrature(rect)
    l2, energy = solver.error_norms(fld, 0, quad)
    ws = modal_ops.workspace(quad)
    pv = ws.point_values(fld.values)
    want_l2 = math.sqrt(abs(np.sum(ws.wr[:, None] * np.abs(pv) ** 2)))
    assert l2 == pytest.approx(want_l2, rel=1e-12)
    want_energy = math.sqrt(abs(modal_ops.a_k_direct(fld, fld, 1, quad)))
    assert energy == pytest.approx(want_energy, rel=1e-12)


@pytest.mark.parametrize("name", ["rectangle_electric", "rectangle_magnetic", "lshape_magnetic"])
def test_manufactured_ops_are_d_k_of_u(name):
    """ops(points, k) matches central differences of u, with its u / r
    terms, at interior quadrature points of the field's domain."""
    mf = getattr(manufactured, name)()
    if name.startswith("lshape"):
        msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.25)
    else:
        msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.25)
    pts = MeshQuadrature(msh).xy
    assert len(pts) >= 50
    for k in range(-3, 4):
        ops = mf.ops(pts, k)
        fd = verification.fd_ops(lambda p: mf.u(p).T, pts, k, 1e-5).T
        assert np.abs(ops - fd).max() <= 1e-6 * np.abs(ops).max()


def test_interpolation_error_ratio():
    mf = manufactured.rectangle_magnetic()
    errs = []
    for h in (0.1, 0.05):
        msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, h)
        quad = MeshQuadrature(msh)
        fld = ModeField(msh, 0, mf.u(msh.vertices))
        l2, _ = solver.error_norms(fld, mf.u(quad.xy), quad)
        errs.append(l2)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_convergence_spot_check():
    # one (space, mode) pair; the acceptance suite covers the full matrix
    study = manufactured.convergence_study(SPACE_X, [1], [0.2, 0.1], tol=1e-10)
    assert list(study) == [1]
    errs, rate_l2, rate_en = study[1]
    assert len(errs) == 2
    assert rate_l2 == pytest.approx(math.log2(errs[0][0] / errs[1][0]), rel=1e-12)
    assert rate_en == pytest.approx(math.log2(errs[0][1] / errs[1][1]), rel=1e-12)
    assert rate_l2 >= 1.8
    assert rate_en >= 0.9


def _numpy_buffer_sizes():
    """The byte sizes of the numpy data buffers alive now, as tracemalloc
    traces them."""
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return {t.size for t in tracemalloc.take_snapshot().filter_traces([domain]).traces}


def test_a_mode_cg_starts_without_the_point_arrays_of_its_mode(lshape, monkeypatch):
    """When the CG of a mode starts, the data of every mode and every chunk
    of basis rows are dead, on the orthogonal path (k = 1) and the bordered
    one (k = 3).  The data reach _pair once per solved mode, for its f_s0,
    as a solver.ModeData, packed per chunk: no (Q, 4) complex array is
    alive there or when a CG starts.
    The mode-1 system, which is not shifted, holds no mass, the mode-2 one
    keeps it for its shifts, neither keeps its pattern, and the constraint
    set of mode 0, skipped and serving no |k| > 2 mode, is released."""
    msh, corner = lshape
    classes, rows, starts, whole = {}, [], [], []
    Q4 = len(MeshQuadrature(msh, corner).tri) * 4 * np.dtype(complex).itemsize

    def recording_constraints(*args):
        constraints = build(*args)
        classes.setdefault(constraints.k, weakref.ref(constraints))
        return constraints

    pair, solve_hpd, assemble = solver._pair, linalg.solve_hpd, modal_ops.assemble_systems
    op_chunks, data, build = singular.SingularBasis.op_chunks, [], solver.build_constraints

    def recording_pair(ws, mode_data, basis, k, constraints=None):
        if mode_data is not None:  # None pairs the basis rows with themselves: a_k(s, s)
            data.append(weakref.ref(mode_data))
            whole.append(isinstance(mode_data, solver.ModeData) and Q4 not in _numpy_buffer_sizes())
        return pair(ws, mode_data, basis, k, constraints)

    def recording_chunks(self, ws, k):
        for points, chunk in op_chunks(self, ws, k):
            rows.append(weakref.ref(chunk))
            yield points, chunk

    def checking_solve_hpd(A, b, **kw):
        starts.append((all(d() is None for d in data), all(r() is None for r in rows), classes[0]() is None))
        whole.append(Q4 not in _numpy_buffer_sizes())
        return solve_hpd(A, b, **kw)

    systems = {}
    monkeypatch.setattr(solver, "build_constraints", recording_constraints)
    monkeypatch.setattr(modal_ops, "assemble_systems",
                        lambda *a: systems.update(assemble(*a)) or systems)
    monkeypatch.setattr(solver, "_pair", recording_pair)
    monkeypatch.setattr(singular.SingularBasis, "op_chunks", recording_chunks)
    monkeypatch.setattr(solver, "solve_hpd", checking_solve_hpd)
    monkeypatch.setattr(linalg, "solve_hpd", checking_solve_hpd)
    tracemalloc.start()
    try:
        sol = solver.solve_axisymmetric(msh, SPACE_Y, _odd_data, N=3, corner=corner)
    finally:
        tracemalloc.stop()
    assert [sol.records[k].cg.iterations > 0 for k in range(4)] == [False, True, False, True]
    assert starts == [(True, True, True)] * 2 and len(data) == 2
    assert whole == [True] * 4  # the f_s0 and the CG of modes 1 and 3
    assert sorted(systems) == [1, 2] and systems[1].mass is None
    assert systems[2].mass is not None and classes[2]() is not None
    assert not any(hasattr(system, "pattern") for system in systems.values())


class _Stop(Exception):
    pass


def test_lift_and_pair_hold_no_whole_basis_rows():
    """lift_basis with the pairings of its lift, and _pair, which forms them
    with the f_s0 of the data as the driver does, form the basis rows chunk
    by chunk: each peaks less than one (Q, 4) complex array above its inputs
    (the L-shape at h = 0.0125, 67,536 points), output included."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    quad = MeshQuadrature(msh, corner)
    constraints = femcore.build_constraints(msh, 1, SPACE_X)
    system = modal_ops.ModeSystem(constraints, quad)
    data = np.ones((len(quad.xy), 4), dtype=complex)

    def traced(step):
        tracemalloc.start()
        try:
            return step(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def lift_and_pair():
        lifted = singular.lift_basis(constraints, quad)
        return lifted, lifted.pairings(system.ws, 1)

    (lifted, _), lift = traced(lift_and_pair)
    _, pair = traced(lambda: solver._pair(system.ws, data, lifted, 1, constraints))
    assert lift < data.nbytes and pair < data.nbytes, (lift, pair)


def test_the_loads_form_no_whole_mode_rows(monkeypatch):
    """The loads of all modes are formed from each mode's data packed chunk
    by chunk: from the workspace to the first lift, the traced
    peak stays less than one (Q, 4) complex array above what is then kept
    (the L-shape at h = 0.0125, N = 2)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    workspace, seen = modal_ops.workspace, []

    def tracing_workspace(quad):
        ws = workspace(quad)
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return ws

    def stop(constraints, quad):
        seen.append((tracemalloc.get_traced_memory(), len(quad.xy)))
        raise _Stop

    monkeypatch.setattr(modal_ops, "workspace", tracing_workspace)
    monkeypatch.setattr(singular, "lift_basis", stop)
    try:
        with pytest.raises(_Stop):
            solver.solve_axisymmetric(msh, SPACE_X, _bandlimited, N=2, corner=corner)
    finally:
        tracemalloc.stop()
    [((kept, peak), Q)] = seen
    assert peak - kept < Q * 4 * np.dtype(complex).itemsize
