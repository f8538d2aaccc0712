"""Nested meshes, the transfers between their constrained spaces, and the
multigrid-preconditioned CG built on them."""

import numpy as np
import pytest

from axmaxwell import mesh, modal_ops, solver
from axmaxwell.cli_io import RHS_BUILTINS
from axmaxwell.femcore import SPACE_X, SPACE_Y, MeshQuadrature, build_constraints
from axmaxwell.linalg import solve_hpd


@pytest.fixture(scope="module")
def lshape05():
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    quad = MeshQuadrature(msh, corner)
    return msh, corner, quad, modal_ops.coarse_levels(quad)


def test_lshape_coarsens_onto_the_generated_coarse_mesh():
    fine, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    coarse, parents = mesh.coarsen(fine)
    assert coarse == mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)[0]
    assert coarse.h == 0.1
    midpoints = 0.5 * (coarse.vertices[parents[:, 0]] + coarse.vertices[parents[:, 1]])
    assert np.abs(midpoints - fine.vertices).max() <= 1e-15


def test_meshes_that_do_not_nest_give_no_coarsening(tmp_path):
    # the h = 0.1 grid does not halve onto the corner at r = z = 0.5
    assert mesh.coarsen(mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)[0]) is None
    # an odd number of cells
    assert mesh.coarsen(mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 1.0 / 45)) is None
    # the other diagonal in every cell
    rect = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.1)
    assert mesh.coarsen(rect) is not None
    tri = rect.triangles.reshape(-1, 2, 3)  # (v00, v10, v11), (v00, v11, v01)
    flipped = np.stack([
        np.stack([tri[:, 0, 0], tri[:, 0, 1], tri[:, 1, 2]], axis=1),
        np.stack([tri[:, 0, 1], tri[:, 0, 2], tri[:, 1, 2]], axis=1),
    ], axis=1).reshape(-1, 3)
    other = mesh.TriangleMesh(rect.vertices, flipped, rect.h)
    assert mesh.coarsen(other) is None
    # a saved generated mesh nests like the generated one
    path = tmp_path / "mesh.axmesh"
    mesh.save_mesh(rect, path)
    assert mesh.coarsen(mesh.load_mesh(path)) is not None


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
@pytest.mark.parametrize("k", [0, 1, -1, 2, -2, 3])
def test_transfer_embeds_constrained_coarse_fields(space, k, rng):
    fine, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    coarse, parents = mesh.coarsen(fine)
    fine_cs = build_constraints(fine, k, space)
    coarse_cs = build_constraints(coarse, k, space)
    T = modal_ops.transfer(fine_cs, coarse_cs, parents)
    xc = rng.normal(size=coarse_cs.n_free) + 1j * rng.normal(size=coarse_cs.n_free)
    field_c = coarse_cs.expand(xc).values
    interpolated = 0.5 * (field_c[parents[:, 0]] + field_c[parents[:, 1]])
    field_f = fine_cs.expand(T.prolong(xc))
    assert np.abs(field_f.values - fine_cs.apply(field_f).values).max() <= 1e-12
    assert np.abs(field_f.values - interpolated).max() <= 1e-15 * np.abs(field_c).max()
    # restriction is the conjugate transpose of the prolongation
    rf = rng.normal(size=fine_cs.n_free) + 1j * rng.normal(size=fine_cs.n_free)
    assert np.vdot(rf, T.prolong(xc)) == pytest.approx(np.vdot(T.restrict(rf), xc), rel=1e-13)


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_multigrid_cg_matches_jacobi_cg(lshape05, space, k):
    """Both solutions meet tol in their true residual, so they differ by at
    most kappa * 2 tol relative to the solution; the V-cycle needs far fewer
    iterations."""
    msh, _, quad, levels = lshape05
    system = modal_ops.assemble_a_k(msh, k, space, quad=quad)
    hierarchy, _ = modal_ops.multigrid(system, levels)
    assert len(hierarchy.levels) == 1
    fmodes = solver.analyze_rhs(RHS_BUILTINS["bandlimited"], 2, quad.xy)
    b = system.functional(np.column_stack([fmodes[k], np.zeros(len(quad.xy))]))
    tol = 1e-10
    x_j, info_j = solve_hpd(system.matrix, b, tol=tol)
    x_mg, info_mg = solve_hpd(system.matrix, b, tol=tol, hierarchy=hierarchy)
    eig = np.linalg.eigvalsh(system.matrix.to_dense())
    kappa = eig[-1] / eig[0]
    assert info_mg.residual <= tol
    assert np.linalg.norm(x_mg - x_j) <= kappa * 2 * tol * np.linalg.norm(x_j)
    assert info_mg.iterations <= 20 < info_j.iterations


def test_shifted_system_shifts_every_level(lshape05, monkeypatch):
    """A |k| > 2 system on a mode-2 base that kept its coarse systems has the
    base's transfers and, per level, the coarse mode-k matrix."""
    _, _, quad, levels = lshape05
    monkeypatch.setattr(modal_ops, "MULTIGRID_MIN_DOFS", 0)
    system2 = modal_ops.assemble_systems({2: build_constraints(quad.mesh, 2, SPACE_Y)}, quad, shift=True)[2]
    assert len(system2.coarse) == 1
    # the shifted levels form E(k) from blocks kept once
    assert system2.ws.blocks is not None and system2.coarse[0].ws.blocks is not None
    system5 = system2.shifted(5)
    assert len(system5.hierarchy.levels) == 1
    level = system5.hierarchy.levels[0]
    coarse_mesh, _, coarse_quad = levels[0]
    fresh = modal_ops.assemble_a_k(coarse_mesh, 5, SPACE_Y, quad=coarse_quad)
    assert np.array_equal(level.matrix.data, fresh.matrix.data)
    assert level.transfer is system2.hierarchy.levels[0].transfer
    b = np.ones(system5.matrix.n, dtype=complex)
    _, info = solve_hpd(system5.matrix, b, hierarchy=system5.hierarchy)
    assert info.iterations <= 20


def test_small_or_unnested_meshes_keep_jacobi(lshape05):
    """Below MULTIGRID_MIN_DOFS, or on a mesh that does not nest, a system
    has no hierarchy and solves exactly as Jacobi-CG."""
    msh, corner, quad, _ = lshape05
    system = modal_ops.assemble_systems({1: build_constraints(msh, 1, SPACE_X)}, quad)[1]
    assert system.matrix.n < modal_ops.MULTIGRID_MIN_DOFS
    assert system.hierarchy is None
    rect = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 1.0 / 29)
    unnested = modal_ops.assemble_systems({0: build_constraints(rect, 0, SPACE_Y)}, MeshQuadrature(rect))[0]
    assert unnested.matrix.n >= modal_ops.MULTIGRID_MIN_DOFS
    assert unnested.hierarchy is None
    sol = solver.solve_axisymmetric(
        msh, SPACE_X, RHS_BUILTINS["bandlimited"], N=1, corner=corner
    )
    f = solver.analyze_rhs(RHS_BUILTINS["bandlimited"], 1, quad.xy)[1]
    load = system.functional(np.column_stack([f, np.zeros(len(f))]))
    x, _ = solve_hpd(system.matrix, load)
    assert np.array_equal(sol.records[1].field.values, system.constraints.expand(x).values)


def test_large_nested_mesh_builds_one_hierarchy_per_system():
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.025)
    quad = MeshQuadrature(msh, corner)
    assert [m.num_vertices for m, _, _ in modal_ops.coarse_levels(quad)] == [341, 96]
    system = modal_ops.assemble_systems({1: build_constraints(msh, 1, SPACE_X)}, quad)[1]
    assert system.matrix.n >= modal_ops.MULTIGRID_MIN_DOFS
    assert len(system.hierarchy.levels) == 2
    assert system.coarse == [] and system.ws.blocks is None
    assert system.hierarchy.coarsest_inverse.shape == (system.hierarchy.levels[-1].matrix.n,) * 2


def test_multigrid_full_solve_converges_fast(monkeypatch):
    """Every mode, the |k| > 2 ones on the shifted coarse mode-2 systems
    included, is solved under multigrid in at most 20 iterations."""
    monkeypatch.setattr(modal_ops, "MULTIGRID_MIN_DOFS", 0)
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05)
    sol = solver.solve_axisymmetric(msh, SPACE_Y, RHS_BUILTINS["bandlimited"], N=5, corner=corner)
    for k in range(6):
        assert sol.records[k].cg.iterations <= 20
