"""Command-line drivers and exporters (legacy VTK, CSV).

Subcommands: meshgen, singular, solve, synthesize, convergence, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure or memory
exhausted, 3 I/O failure.
Every failure prints a single machine-readable line on stderr.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import femcore, mesh as meshmod, modal_ops, singular, solver
from .femcore import MeshQuadrature
from .linalg import SolverError
from .mesh import MeshError

_FLOAT_FMT = "%.17g"
_WRITE_ROWS = 4096  # rows _row_blocks formats per block of text
_MATCH_PAIRS = 1 << 14  # row-vertex pairs resolve_rhs compares at once
_TABLE_COLUMNS = ["r", "z", "f_r", "f_theta", "f_z"]
_COMPONENTS = ("r", "theta", "z")
_CELL_TYPES = {3: 5, 6: 13}  # VTK triangle and wedge, by node count


class UsageError(ValueError):
    pass


# -- writers ------------------------------------------------------------------


def _vtk_scalar_arrays(name, values):
    """Split nodal data into named real scalar arrays.

    (n,) arrays give <name>_re / _im; (n, 3) arrays give
    <name>_<r|theta|z>_<re|im>.  Imaginary parts are kept only when nonzero
    somewhere (mode-0 quantities stay compact).
    """
    values = np.asarray(values)
    if values.ndim == 1:
        comps = [("", values)]
    else:
        comps = [(f"_{c}", values[:, i]) for i, c in enumerate(_COMPONENTS)]
    for suffix, col in comps:
        col = np.asarray(col, dtype=complex)
        yield f"{name}{suffix}_re", col.real
        if np.any(col.imag != 0.0):
            yield f"{name}{suffix}_im", col.imag


def _check_vtk_fields(sections):
    """Check the data of a VTK file before the file is opened: sections are
    (keyword, count, {name: values}) triples; each field must have shape
    (count,) or (count, 3), and the scalar arrays the fields split into (see
    _vtk_scalar_arrays) must have distinct names across the file.  A failed
    check raises ValueError."""
    stems = set()
    for _, count, field_map in sections:
        for name, values in (field_map or {}).items():
            shape = np.shape(values)
            if shape not in ((count,), (count, 3)):
                raise ValueError(f"field {name!r} has shape {shape}, expected "
                                 f"({count},) or ({count}, 3)")
            for stem in [name] if len(shape) == 1 else [f"{name}_{c}" for c in _COMPONENTS]:
                if stem in stems:
                    raise ValueError(f"duplicate VTK array name {stem + '_re'!r}")
                stems.add(stem)


def write_vtk(msh, point_fields, path, cell_fields=None, title="axmaxwell export", *,
              geometry=None, data=None):
    """Legacy ASCII VTK unstructured grid of the meridian mesh; returns its data text.

    point_fields/cell_fields map names to (n,) or (n, 3) arrays (complex
    allowed; split into _re/_im scalar arrays).  geometry, when given, is
    the mesh's text "".join(_grid(msh.vertices, msh.triangles)), and data
    the text of the data sections, written instead of that of the fields.
    """
    sections = [("POINT_DATA", msh.num_vertices, point_fields),
                ("CELL_DATA", msh.num_triangles, cell_fields)]
    _check_vtk_fields(sections)
    data = "".join(_data_text(sections)) if data is None else data
    grid = _grid(msh.vertices, msh.triangles) if geometry is None else [geometry]
    _write_grid(path, title, grid, [data])
    return data


def write_vtk_wedges(points, wedges, point_fields, path):
    """Legacy ASCII VTK of a revolved grid; cells are 6-node wedges.
    point_fields is as in write_vtk."""
    sections = [("POINT_DATA", len(points), point_fields)]
    _check_vtk_fields(sections)
    _write_grid(path, "axmaxwell 3d export", _grid(points, wedges), _data_text(sections))


def _grid(points, cells):
    """The POINTS, CELLS and CELL_TYPES sections of a legacy VTK grid as text
    blocks; (n, 2) meridian points (r, z) are written as (r, z, 0), and the
    cells are triangles or wedges."""
    dim, (m, size) = points.shape[1], cells.shape
    yield f"POINTS {len(points)} double\n"
    yield from _row_blocks(" ".join([_FLOAT_FMT] * dim + ["0"] * (3 - dim)) + "\n", points)
    yield f"CELLS {m} {(1 + size) * m}\n"
    yield from _row_blocks(f"{size}" + " %d" * size + "\n", cells)
    yield f"CELL_TYPES {m}\n" + f"{_CELL_TYPES[size]}\n" * m


def _row_blocks(fmt, rows):
    """Text of the rows of an (n, m) array, each row as fmt, which holds m
    conversions, in blocks of _WRITE_ROWS rows; the values pass through
    tolist(), so the text equals that of formatting each row on its own."""
    for start in range(0, len(rows), _WRITE_ROWS):
        block = rows[start:start + _WRITE_ROWS]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


def _write_grid(path, title, geometry, data):
    """Write a legacy VTK file of geometry and data text blocks."""
    with open(path, "w") as fp:
        fp.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.writelines(geometry)
        fp.writelines(data)


def _data_text(sections):
    """Text blocks of the scalar arrays of each (keyword, count, fields) section;
    a +0.0 column is "0" rows, unformatted (-0.0 formats as -0)."""
    for keyword, count, field_map in sections:
        if not field_map:
            continue
        yield f"{keyword} {count}\n"
        for name, values in field_map.items():
            for arr_name, col in _vtk_scalar_arrays(name, values):
                yield f"SCALARS {arr_name} double 1\nLOOKUP_TABLE default\n"
                zero = not col.any() and not np.signbit(col).any()
                yield from ["0\n" * count] if zero else _row_blocks(f"{_FLOAT_FMT}\n", col)


def _conjugate_text(data):
    """Data text of the conjugates of the point fields whose data text is data:
    each _im row with its leading '-' toggled (%.17g of -v is '-' + v's text)."""
    head, *arrays = data.split("SCALARS ")
    for i, arr in enumerate(arrays):
        top, rows = arr.split("\nLOOKUP_TABLE default")
        if top.split()[0].endswith("_im"):
            rows = rows[:-1].replace("\n-", "\n+").replace("\n", "\n-").replace("\n-+", "\n")
            arrays[i] = f"{top}\nLOOKUP_TABLE default{rows}\n"
    return "SCALARS ".join([head, *arrays])


def write_csv(path, header, rows):
    """CSV with a header row; floats are written with %.17g (round-trip)."""
    with open(path, "w") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    cells.append(_FLOAT_FMT % v)
                elif isinstance(v, (complex, np.complexfloating)):
                    cells.append((_FLOAT_FMT + "%+" + _FLOAT_FMT[1:] + "j") % (v.real, v.imag))
                else:
                    cells.append(str(v))
            fp.write(",".join(cells) + "\n")


# -- run configuration -----------------------------------------------------------


_SPACES = {"electric": femcore.SPACE_X, "magnetic": femcore.SPACE_Y}
# the mesh settings each mesh source reads; every other one keeps its default
_MESH_SOURCES = {
    "--mesh-file": ("mesh_file",),
    "--domain rectangle": ("domain", "h", "rmin", "rmax", "zmin", "zmax"),
    "--domain lshape": ("domain", "h", "rmax", "zmin", "zmax", "corner_r", "corner_z"),
}
_MESH_SETTINGS = set().union(*_MESH_SOURCES.values())
# flags without a config key: the file itself, an output name, the
# parse-only thread count and the azimuths of synthesize
_FLAG_ONLY = ("help", "config", "out", "threads", "azimuths")


def load_config(path):
    """The key = value pairs of a config file, '-' in a key read as '_'.  A
    file that cannot be opened raises OSError; a non-UTF-8 file or a line
    without '=' is a usage error."""
    out = {}
    try:
        with open(path) as fp:
            for lineno, raw in enumerate(fp, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                out[key.replace("-", "_")] = val
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def _config_keys(command):
    """{key: flag} of the settings the config file of a command's parser may
    hold: every flag but the flag-only ones and a required one, whose value
    always comes from the command line."""
    return {a.dest: a.option_strings[0] for a in command._actions
            if a.option_strings and not a.required and a.dest not in _FLAG_ONLY}


def parse_args(argv=None):
    """The checked settings of a command line.  The values of its --config
    file pass through the command's parser as flags placed before the
    command line's own, so argparse converts and checks them and the flags
    win.  A key the command does not read, a value out of range and a mesh
    setting its mesh source does not read are usage errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    if getattr(args, "config", None):
        keys, settings = _config_keys(command), []
        for key, val in load_config(args.config).items():
            if key not in keys:
                raise UsageError(f"unknown config key {key!r} for {args.command}")
            settings.append(f"{keys[key]}={val}")
        try:
            args = parser.parse_args([args.command, *settings, *argv[1:]])
        except UsageError as exc:
            raise UsageError(f"{args.config}: {exc}") from None
    _check_values(args)
    if "mesh_file" in args:
        source = "--mesh-file" if args.mesh_file else f"--domain {args.domain}"
        unread = [a.option_strings[0] for a in command._actions
                  if a.dest in _MESH_SETTINGS and a.dest not in _MESH_SOURCES[source]
                  and getattr(args, a.dest) != a.default]
        if unread:
            raise UsageError(f"{source} does not read {', '.join(unread)}")
    return args


def _check_values(args):
    """The value checks argparse does not make, of the settings args has."""
    for key, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise UsageError(f"{key} must be finite, got {val!r}")
    if "rhs" in args and args.rhs not in RHS_BUILTINS and not args.rhs.startswith("file:"):
        raise UsageError(f"unknown rhs {args.rhs!r}; builtins: "
                         f"{', '.join(sorted(RHS_BUILTINS))} or file:<csv>")
    if "modes" in args:
        if args.modes < 0:
            raise UsageError(f"modes must be >= 0, got {args.modes}")
        try:
            solver.theta_samples(args.modes, getattr(args, "theta_samples", None))
        except ValueError as exc:
            raise UsageError(f"theta-samples: {exc}") from None
    if "tol" in args and not 0.0 < args.tol < 1.0:
        raise UsageError(f"tol must lie in (0, 1), got {args.tol!r}")
    if "levels" in args:
        if args.levels < 2:
            raise UsageError(f"levels must be >= 2 to fit a rate, got {args.levels}")
        try:  # convergence_study meshes the unit square at every h of the ladder
            meshmod.grid_segments(_ladder_h(args.levels - 1), (0.0, 1.0), (0.0, 1.0))
        except MeshError as exc:
            raise UsageError(f"levels too large: the finest mesh of the ladder: {exc}") from None
    # synthesize --theta-samples: fewer than 3 azimuths give wedges of zero volume
    if getattr(args, "azimuths", 3) < 3:
        raise UsageError(f"theta-samples must be >= 3, got {args.azimuths}")


def build_mesh(args):
    """(mesh, reentrant corner or None) of the mesh source of args."""
    if not args.mesh_file:
        if args.domain == "rectangle":
            return meshmod.gen_rectangle(args.rmin, args.rmax, args.zmin, args.zmax, args.h), None
        return meshmod.gen_lshape(args.corner_r, args.corner_z, args.rmax, args.zmin, args.zmax,
                                  args.h)
    msh = meshmod.load_mesh(args.mesh_file)
    try:
        femcore.wall_components(msh)
    except MeshError as exc:
        raise MeshError(f"{args.mesh_file}: {exc}") from exc
    corners = meshmod.classify_boundary(msh)
    if len(corners) > 1:
        raise UsageError("meshes with more than one reentrant corner are not supported")
    return msh, (corners[0] if corners else None)


def _check_sizes(args, msh):
    """Check against mesh.MAX_ENTRIES, before any of them exists, the largest
    arrays of a run's analysis, M x Q samples (Q <= nt times
    femcore.MAX_TRIANGLE_POINTS) and the (N + 1) x M projection, and of the
    synthesis at T azimuths, T x nv x 3 values and T x nt x 6 wedge
    indices."""
    M = solver.theta_samples(args.modes, getattr(args, "theta_samples", None))
    sizes = {"analysis samples M x Q": M * femcore.MAX_TRIANGLE_POINTS * msh.num_triangles,
             "projection (N + 1) x M": (args.modes + 1) * M,
             "synthesis T x max(3 nv, 6 nt)":
                 getattr(args, "azimuths", 0) * max(3 * msh.num_vertices, 6 * msh.num_triangles)}
    for what, entries in sizes.items():
        if entries > meshmod.MAX_ENTRIES:
            raise UsageError(f"{what} = {entries} entries, more than MAX_ENTRIES = "
                             f"{meshmod.MAX_ENTRIES}")


# -- built-in right-hand sides -----------------------------------------------------


# built-ins take broadcastable arrays (r, theta, z), return (f_r, f_theta, f_z)
def _rhs_bandlimited(r, th, z):
    base = r * r * (1 - r) * z * (1 - z)
    return (
        base * (1.0 + 0.5 * np.cos(th) - 0.25 * np.sin(2 * th)),
        r * (1 - r) * (0.3 * np.sin(th) + 0.1 * np.cos(3 * th)),
        z * (1 - z) * (0.2 + 0.4 * np.cos(2 * th)),
    )


def _rhs_cos_theta_ez(r, th, z):
    return (0.0, 0.0, np.cos(th))


def _rhs_uniform_ez(r, th, z):
    return (0.0, 0.0, 1.0)


RHS_BUILTINS = {
    "bandlimited": _rhs_bandlimited,
    "cos_theta_ez": _rhs_cos_theta_ez,
    "uniform_ez": _rhs_uniform_ez,
}


def resolve_rhs(spec, msh):
    """Named built-in data, or 'file:<csv>' with nodal axisymmetric values.

    The tabulated form expects columns r,z,f_r,f_theta,f_z with exactly
    one row per mesh vertex (any order); values are interpolated as a P1
    field and used as theta-independent data, one interpolation per call.
    """
    if spec in RHS_BUILTINS:
        return RHS_BUILTINS[spec]
    path = spec.removeprefix("file:")
    data = _read_table(path)
    idx = _match_vertices(msh, data[:, :2], path)
    nodal = np.zeros((msh.num_vertices, 3))
    nodal[idx] = data[:, 2:]
    fld = femcore.ModeField(msh, 0, nodal.astype(complex))

    def f(r, th, z):
        vals = femcore.interpolate(fld, np.stack(np.broadcast_arrays(r, z), axis=-1)).real
        return vals[..., 0], vals[..., 1], vals[..., 2]

    return f


def _read_table(path):
    """The rows of a file: table as an (n, 5) float array; a missing header,
    a row without exactly 5 finite numbers or a non-UTF-8 file is a usage
    error naming the file and, for a row, its line."""
    try:
        with open(path) as fp:
            lines = [(lineno, ln.strip()) for lineno, ln in enumerate(fp, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from exc
    if not lines or [h.strip() for h in lines[0][1].split(",")] != _TABLE_COLUMNS:
        raise UsageError(f"{path}: expected columns {','.join(_TABLE_COLUMNS)}")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(_TABLE_COLUMNS):
                raise ValueError(f"expected {len(_TABLE_COLUMNS)} cells, got {len(cells)}")
            row = [float(c) for c in cells]
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(_TABLE_COLUMNS))


def _match_vertices(msh, points, path):
    """Index of the vertex within 1e-9 of each table row, compared in blocks
    of _MATCH_PAIRS row-vertex pairs; every vertex must have exactly one row."""
    nv = msh.num_vertices
    idx = np.empty(len(points), dtype=np.int64)
    step = max(1, _MATCH_PAIRS // nv)
    for start in range(0, len(points), step):
        dist = np.linalg.norm(msh.vertices - points[start:start + step, None, :], axis=2)
        idx[start:start + step] = near = dist.argmin(axis=1)
        if dist[np.arange(len(near)), near].max() > 1e-9:
            raise UsageError(f"{path}: rows do not match mesh vertices")
    counts = np.bincount(idx, minlength=nv)
    if np.any(counts != 1):
        raise UsageError(f"{path}: of {nv} mesh vertices, {np.sum(counts == 0)} have "
                         f"no row and {np.sum(counts > 1)} more than one")
    return idx


# -- subcommand implementations ------------------------------------------------------


def _corner_report(corner):
    if corner is None:
        return "no reentrant corner"
    return (
        f"reentrant corner at (r={corner.position[0]:g}, z={corner.position[1]:g}): "
        f"interior angle {corner.interior_angle:.12g} rad, alpha {corner.alpha:.12g}, "
        f"phi0 {corner.phi0:.12g}, cutoff a {corner.a:g}"
    )


def cmd_meshgen(args, msh, corner):
    path = os.path.join(args.outdir, args.out)
    meshmod.save_mesh(msh, path)
    print(f"wrote {path}: {msh.num_vertices} vertices, {msh.num_triangles} triangles")
    print(_corner_report(corner))
    return 0


def cmd_singular(args, msh, corner):
    quad = MeshQuadrature(msh, corner)
    constraints = femcore.build_constraints(msh, args.k, _SPACES[args.field])
    system = modal_ops.assemble_systems({args.k: constraints}, quad)[args.k]
    basis = singular.compute_basis(system, tol=args.tol)
    prefix = os.path.join(args.outdir, args.out or f"basis_k{args.k}_{args.field}")
    principal_cells = basis.principal.values(msh.vertices[msh.triangles].mean(axis=1))
    write_vtk(msh, {"basis_total": basis.total_nodal(), "basis_regular": basis.regular.values},
              prefix + ".vtk", cell_fields={"principal": principal_cells},
              title=f"singular basis k={args.k} {args.field}")
    # a_k(s, s) and its curl part (curl_k s, curl_k s), summed as the solve sums them
    ws, energy, curl = system.ws, 0.0, 0.0
    for points, rows in basis.op_chunks(ws, args.k):
        energy += ws.norm_sq(rows, points)
        curl += ws.norm_sq(rows[:, :3], points)
    write_csv(
        prefix + "_diag.csv",
        ["k", "field", "iterations", "residual", "energy", "curl_norm_sq"],
        [[args.k, args.field, basis.cg.iterations, basis.cg.residual, float(energy), float(curl)]],
    )
    print(f"wrote {prefix}.vtk and {prefix}_diag.csv")
    print(_corner_report(corner))
    return 0


def _solve(args, msh, corner, f):
    return solver.solve_axisymmetric(msh, _SPACES[args.field], f, N=args.modes, corner=corner,
                                     tol=args.tol, samples=getattr(args, "theta_samples", None))


def cmd_solve(args, msh, corner, f):
    sol = _solve(args, msh, corner, f)
    geometry = "".join(_grid(msh.vertices, msh.triangles))  # once for all 2N + 1 files
    rows = {}
    for k, rec in sol.records.items():
        data = write_vtk(msh, {"field": rec.total_nodal()}, os.path.join(args.outdir, f"mode_p{k}.vtk"),
                         title=f"mode {k} {args.field}", geometry=geometry)
        rows[k] = [k, complex(rec.coeff), rec.cg.iterations, rec.cg.residual, rec.energy]
        if k > 0:  # the data are real: mode -k is the conjugate of mode k, written from its text
            write_vtk(msh, None, os.path.join(args.outdir, f"mode_m{k}.vtk"),
                      title=f"mode {-k} {args.field}", geometry=geometry, data=_conjugate_text(data))
            rows[-k] = [-k, complex(np.conj(rec.coeff)), *rows[k][2:]]
    write_csv(os.path.join(args.outdir, "summary.csv"),
              ["k", "C_k", "iterations", "residual", "basis_energy"], [rows[j] for j in sorted(rows)])
    print(f"wrote {2 * args.modes + 1} mode files and summary.csv in {args.outdir}")
    return 0


def cmd_synthesize(args, msh, corner, f):
    sol = _solve(args, msh, corner, f)
    T, nv = args.azimuths, msh.num_vertices
    _, points, fields_cyl = solver.sample_3d(sol, T)
    pts = points.reshape(-1, 3)
    ring = (np.arange(T) * nv)[:, None, None]  # ring t's wedges join it to ring (t + 1) mod T
    wedges = np.concatenate([ring + msh.triangles, (ring + nv) % (T * nv) + msh.triangles],
                            axis=2).reshape(-1, 6)
    path = os.path.join(args.outdir, "field3d.vtk")
    write_vtk_wedges(pts, wedges, {"field": fields_cyl.reshape(-1, 3)}, path)
    print(f"wrote {path}: {len(pts)} points, {len(wedges)} wedges")
    return 0


def _ladder_h(level):
    """Mesh size of the convergence ladder at level (0 coarsest): 0.2 / 2**level."""
    return math.ldexp(0.2, -level)


def cmd_convergence(args):
    from . import manufactured

    ks = [args.k] if args.k is not None else [0, 1, 2]
    hs = [_ladder_h(lev) for lev in range(args.levels)]
    study = manufactured.convergence_study(_SPACES[args.field], ks, hs, args.tol)
    rows = []
    for k, (errs, rate_l2, rate_en) in study.items():
        for h, (l2, en) in zip(hs, errs):
            rows.append([k, h, l2, en, rate_l2, rate_en])
        print(f"k={k}: fitted L2 rate {rate_l2:.3f}, energy rate {rate_en:.3f}")
    path = os.path.join(args.outdir, "convergence.csv")
    write_csv(path, ["k", "h", "l2_error", "energy_error", "l2_rate", "energy_rate"], rows)
    print(f"wrote {path}")
    return 0


def cmd_verify():
    from . import verification

    results = verification.run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name} ({res.detail})")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 2


# -- argument parsing ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Help(argparse.HelpFormatter):
    """Help text ending in the declared default of a flag that has one."""

    def _get_help_string(self, action):
        return action.help + ("" if action.default in (None, argparse.SUPPRESS) else
                              " (default %(default)s)")


def _add_mesh(p):
    p.add_argument("--domain", choices=("rectangle", "lshape"), default="lshape",
                   help="built-in domain")
    p.add_argument("--mesh-file", help="load the mesh from this file instead")
    for name, default, what in (
            ("h", 0.1, "nominal mesh size"), ("rmin", 0.0, "rectangle: inner radius"),
            ("rmax", 1.0, "outer radius"), ("zmin", 0.0, "bottom"), ("zmax", 1.0, "top"),
            ("corner-r", 0.5, "L-shape: corner radius"),
            ("corner-z", 0.5, "L-shape: corner height")):
        p.add_argument(f"--{name}", type=float, default=default, help=what)


def _add_field(p):
    p.add_argument("--field", choices=tuple(_SPACES), default="magnetic", help="field kind")
    p.add_argument("--tol", type=float, default=1e-10, help="iterative solver tolerance")


def _add_solve(p):
    p.add_argument("--rhs", default="bandlimited", help="named built-in data or file:<csv>")
    p.add_argument("--modes", type=int, default=5, help="truncation order N")
    p.add_argument("--threads", type=int, choices=[1], default=1, help="1 only: serial solve")


def make_parser():
    """The parser of every command, each declaring exactly the flags it reads;
    parser.commands maps a command's name to its parser."""
    parser = _Parser(prog="axmaxwell", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, help, *groups):
        p = sub.add_parser(name, help=help, allow_abbrev=False, formatter_class=_Help)
        p.add_argument("--config", help="key = value file of this command's settings; flags win")
        p.add_argument("--outdir", default=".", help="output directory")
        for add in groups:
            add(p)
        return p

    p = command("meshgen", "generate a meridian mesh file", _add_mesh)
    p.add_argument("--out", default="mesh.txt", help="mesh file name")
    p = command("singular", "compute and export a singular basis", _add_mesh, _add_field)
    # every mode |k| > 2 reuses the basis of mode +-2
    p.add_argument("--k", type=int, required=True, choices=range(-2, 3),
                   help="Fourier mode, |k| <= 2")
    p.add_argument("--out", help="output prefix (default basis_k<k>_<field>)")
    p = command("solve", "solve all modes and export fields", _add_mesh, _add_field, _add_solve)
    p.add_argument("--theta-samples", type=int, help="analysis samples (default 4 max(N, 1) + 1)")
    p = command("synthesize", "solve and export the revolved 3D field", _add_mesh, _add_field,
                _add_solve)
    # sets the output azimuths only; the analysis keeps its default grid
    p.add_argument("--theta-samples", dest="azimuths", type=int, default=16,
                   help="azimuths of the revolved output")
    p = command("convergence", "manufactured convergence study", _add_field)
    p.add_argument("--levels", type=int, default=3, help="number of meshes of the ladder")
    p.add_argument("--k", type=int, help="single mode (default 0, 1 and 2)")
    sub.add_parser("verify", help="run the acceptance property suite", allow_abbrev=False)
    return parser


def main(argv=None):
    try:
        args = parse_args(argv)
        if args.command == "verify":
            return cmd_verify()
        # every input is read before outdir exists, so a bad one leaves no
        # directory behind; an unusable outdir fails next, before any work
        inputs = build_mesh(args) if "mesh_file" in args else ()
        if args.command == "singular" and inputs[1] is None:
            raise UsageError("singular bases need a domain with a reentrant corner")
        if "rhs" in args:
            _check_sizes(args, inputs[0])
            inputs += (resolve_rhs(args.rhs, inputs[0]),)
        os.makedirs(args.outdir, exist_ok=True)
        run = {"meshgen": cmd_meshgen, "singular": cmd_singular, "solve": cmd_solve,
               "synthesize": cmd_synthesize, "convergence": cmd_convergence}[args.command]
        return run(args, *inputs)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except (MeshError, ValueError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
