"""Per-layer tracing of axmaxwell from outside the package.

`Tracer.install()` replaces the public functions of the solve path with
wrappers that record a span (name, start, end, parent, run id) per call and
counts at the same boundary.  A function is replaced under every name that
holds it in any `axmaxwell` module, because `from .linalg import solve_hpd`
binds the name at import time: `solver.solve_hpd`, `singular.solve_hpd` and
`linalg.solve_hpd` are the same function reached through three names.
Methods are replaced once, on their class.

`special`, `manufactured` and `verification` are not on the path of `solve`
or `synthesize`, so nothing in them is wrapped.

Spans and counts live in memory until `summary()` turns them into the
per-layer metrics; times are self times (span duration minus the part of it
covered by child spans).  Work the tracer does itself (the true-residual
check, file sizes) runs inside spans named `trace.*`, which are children of
the caller and so are subtracted from its self time and reported nowhere.
"""

import functools
import inspect
import os
import sys
import threading
import time

import numpy as np

WRAPPED_ATTR = "__perfbench_wrapped__"

# (metric name, unit, source); source "self:<span>" is the summed self time
# of a span name, "calls:<span>" its call count, anything else a counter.
METRICS = (
    ("mesh.build_s", "s", "self:mesh.build"),
    ("mesh.vertices", "count", "mesh.vertices"),
    ("mesh.triangles", "count", "mesh.triangles"),
    ("femcore.quadrature_s", "s", "self:femcore.quadrature"),
    ("femcore.quad_points", "count", "femcore.quad_points"),
    ("femcore.interpolate_s", "s", "self:femcore.interpolate"),
    ("femcore.interpolate_calls", "count", "calls:femcore.interpolate"),
    ("solver.analyze_s", "s", "self:solver.analyze"),
    ("solver.rhs_evals", "count", "solver.rhs_evals"),
    ("solver.modes_orthogonal", "count", "calls:solver.mode_orthogonal"),
    ("solver.modes_bordered", "count", "calls:solver.mode_bordered"),
    ("solver.synthesize_s", "s", "self:solver.synthesize"),
    ("modal_ops.assemble_s", "s", "self:modal_ops.assemble"),
    ("modal_ops.assemble_calls", "count", "calls:modal_ops.assemble"),
    ("modal_ops.shift_s", "s", "self:modal_ops.shift"),
    ("modal_ops.shift_calls", "count", "calls:modal_ops.shift"),
    ("modal_ops.nnz_max", "count", "modal_ops.nnz_max"),
    ("linalg.cg_s", "s", "self:linalg.cg"),
    ("linalg.cg_calls", "count", "calls:linalg.cg"),
    ("linalg.cg_iterations", "count", "linalg.cg_iterations"),
    ("linalg.matvecs", "count", "linalg.matvecs"),
    ("linalg.matvec_bytes", "bytes_computed", "linalg.matvec_bytes"),
    ("linalg.bordered_s", "s", "self:linalg.bordered"),
    ("linalg.bordered_calls", "count", "calls:linalg.bordered"),
    ("linalg.true_resid_max", "1", "linalg.true_resid_max"),
    ("singular.bases_s", "s", "self:singular.bases"),
    ("singular.basis_cg_iterations", "count", "singular.basis_cg_iterations"),
    ("cli_io.resolve_rhs_s", "s", "self:cli_io.resolve_rhs"),
    ("cli_io.export_s", "s", "self:cli_io.export"),
    ("cli_io.export_bytes", "bytes", "cli_io.export_bytes"),
    ("cli_io.unattributed_s", "s", "self:cli_io.main"),
)


def matvec_bytes(nnz, n):
    """Bytes one CSR matvec moves, computed (not measured) from its shape:
    complex data, int64 column index and gathered complex x per nonzero,
    int64 row pointer and complex result per row."""
    return nnz * (16 + 8 + 16) + (n + 1) * 8 + n * 16


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent index or None]
        self.counters = {}
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original dict entry)

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, stack[-1] if stack else None])
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def span(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack())

    # -- wrapping --------------------------------------------------------------

    def _wrapper(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                tracer.span("trace.hook", after, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_ATTR, fn)
        return wrapper

    def _patch_function(self, modules, fn, wrapper):
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{fn.__qualname__} is not bound in any axmaxwell module")

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap the public functions of the solve path; see `uninstall`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from axmaxwell import cli_io, femcore, linalg, mesh, modal_ops, singular, solver

        modules = _axmaxwell_modules()
        orig_matvec = linalg.HermitianSparse.matvec

        def wrap(module, name, span, before=None, after=None):
            f = getattr(module, name)
            self._patch_function(modules, f, self._wrapper(f, span, before, after))

        def mesh_sizes(args, kwargs, result):
            msh = result[0] if isinstance(result, tuple) else result
            self.counters["mesh.vertices"] = msh.num_vertices
            self.counters["mesh.triangles"] = msh.num_triangles

        for name in ("gen_lshape", "gen_rectangle", "load_mesh"):
            wrap(mesh, name, "mesh.build", after=mesh_sizes)
        wrap(mesh, "classify_boundary", "mesh.build")

        def quad_points(args, kwargs, result):
            self.add("femcore.quad_points", len(args[0].tri))

        init = femcore.MeshQuadrature.__init__
        self._patch_method(femcore.MeshQuadrature, "__init__",
                           self._wrapper(init, "femcore.quadrature", after=quad_points))
        wrap(femcore, "interpolate", "femcore.interpolate")
        wrap(femcore, "interpolate_scalar", "femcore.interpolate")

        def count_rhs(args, kwargs):
            data = args[0]

            def counted(*a):
                self.counters["solver.rhs_evals"] = self.counters.get("solver.rhs_evals", 0) + 1
                return data(*a)

            return (counted,) + tuple(args[1:]), kwargs

        wrap(solver, "analyze_rhs", "solver.analyze", before=count_rhs)
        wrap(solver, "analyze_scalar_rhs", "solver.analyze", before=count_rhs)
        wrap(solver, "solve_axisymmetric", "solver.solve_axisymmetric")
        wrap(solver, "compute_bases", "solver.compute_bases")
        wrap(solver, "solve_mode_orthogonal", "solver.mode_orthogonal")
        wrap(solver, "solve_mode_bordered", "solver.mode_bordered")
        wrap(solver, "sample_3d", "solver.synthesize")
        wrap(solver, "synthesize", "solver.synthesize")

        def assembled(args, kwargs, result):
            self.maximum("modal_ops.nnz_max", result.matrix.nnz)

        def shifted(args, kwargs, result):
            self.maximum("modal_ops.nnz_max", result.nnz)

        wrap(modal_ops, "assemble_a_k", "modal_ops.assemble", after=assembled)
        wrap(modal_ops, "shifted_system", "modal_ops.shift", after=shifted)

        def cg_done(args, kwargs, result):
            A, b = args[0], np.asarray(args[1], dtype=complex)
            x, info = result
            self.add("linalg.cg_iterations", info.iterations)
            if self.inside("singular.bases"):
                self.add("singular.basis_cg_iterations", info.iterations)
            bnorm = np.linalg.norm(b)
            resid = np.linalg.norm(b - orig_matvec(A, x)) / bnorm if bnorm > 0.0 else 0.0
            self.maximum("linalg.true_resid_max", float(resid))

        wrap(linalg, "solve_hpd", "linalg.cg", after=cg_done)
        wrap(linalg, "solve_bordered", "linalg.bordered")

        def counted_matvec(matrix, x):
            self.add("linalg.matvecs", 1)
            self.add("linalg.matvec_bytes", matvec_bytes(matrix.nnz, matrix.n))
            return orig_matvec(matrix, x)

        setattr(counted_matvec, WRAPPED_ATTR, orig_matvec)
        self._patch_method(linalg.HermitianSparse, "matvec", counted_matvec)

        wrap(singular, "compute_basis", "singular.bases")
        wrap(cli_io, "resolve_rhs", "cli_io.resolve_rhs")
        for name in ("write_vtk", "write_vtk_wedges", "write_csv"):
            sig = inspect.signature(getattr(cli_io, name))

            def written(args, kwargs, result, sig=sig):
                path = sig.bind(*args, **kwargs).arguments["path"]
                self.add("cli_io.export_bytes", os.path.getsize(path))

            wrap(cli_io, name, "cli_io.export", after=written)

    def uninstall(self):
        """Restore every name `install` replaced, in reverse order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Summed self time in seconds per span name."""
        children = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] = out.get(name, 0.0) + (end - start - covered) * 1e-9
        return out

    def calls(self):
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def summary(self):
        """Per-layer metric values, keyed by metric name."""
        selfs, calls = self.self_times(), self.calls()
        out = {}
        for metric, _, source in METRICS:
            kind, _, key = source.partition(":")
            if kind == "self":
                out[metric] = selfs.get(key, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(key, 0)
            else:
                out[metric] = self.counters.get(source, 0)
        return out

    def span_records(self):
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]


def _axmaxwell_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "axmaxwell" or n.startswith("axmaxwell.")) and m is not None]


def count_wrappers():
    """Number of tracer wrappers reachable from the loaded axmaxwell modules."""
    found = 0
    for mod in _axmaxwell_modules():
        for value in vars(mod).values():
            if hasattr(value, WRAPPED_ATTR):
                found += 1
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                found += sum(hasattr(v, WRAPPED_ATTR) for v in vars(value).values())
    return found
