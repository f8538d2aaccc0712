"""Output check of one benchmark run, against reference.json.

What is checked, for every run, timed or traced:

* `solve`: every mode file mode_{m,p}<|k|>.vtk for |k| <= N exists, has the
  reference mesh's vertex and triangle counts, and holds only finite values;
  summary.csv lists each k once with a finite C_k; C_{-k} equals conj(C_k)
  bit for bit; C_k matches the reference.  The `iterations` and `residual`
  columns are not read: the program writes 0 for every bordered (|k| > 2)
  mode, so they are not data.  Iteration counts come from the trace.
* `synthesize` writes no summary.csv: field3d.vtk has nv*T points and nt*T
  wedges, only finite values, no imaginary arrays (the data are real), and
  matches reference samples of the field.

Tolerance.  The reference was computed by make_reference.py with
tol_ref = 1e-12, the timed run uses tol = 1e-10.  A CG solve stopped at
relative residual t has relative forward error at most kappa * t, with kappa
the spectral condition number of the mode matrix; reference.json records,
per workload, the largest kappa over the matrices the workload solves with
(dense eigenvalues at h = 0.1 and 0.05, extrapolated to the workload's h by
the measured growth per halving).  C_k is a ratio of inner products of such
solutions with fixed data, so to first order its error is at most twice the
solution's, in both runs:

    |C_k - C_ref_k| <= SAFETY * 2 * kappa * (tol + tol_ref) * scale

with scale = max_j |C_ref_j| (the round-off modes are compared against the
size of the data, not against their own noise) and SAFETY = 10 for the
first-order and norm-equivalence steps.  The 3D field sums 2N + 1 such
modes, so its samples use (2N + 1) times that bound with scale = the
largest reference field value.
"""

import math
import os
import struct

import numpy as np

import workloads

SAFETY = 10.0


def coefficient_tolerance(ref, tol_ref):
    return SAFETY * 2.0 * ref["kappa"] * (workloads.TOL + tol_ref)


def read_vtk(path):
    """Counts and arrays of a legacy ASCII VTK file written by axmaxwell
    (one point, cell or value per line after each section header)."""
    with open(path) as fp:
        lines = fp.read().splitlines()
    i = next((j for j, ln in enumerate(lines) if ln.startswith("POINTS ")), None)
    if i is None:
        raise ValueError(f"{path}: no POINTS section")
    n = int(lines[i].split()[1])
    coords = np.array(" ".join(lines[i + 1:i + 1 + n]).split(), dtype=float)
    i += 1 + n
    head = lines[i].split()
    if head[0] != "CELLS":
        raise ValueError(f"{path}: expected CELLS after the points")
    cells = int(head[1])
    i += 1 + cells
    if lines[i].split() != ["CELL_TYPES", str(cells)]:
        raise ValueError(f"{path}: malformed CELLS section")
    i += 1 + cells
    arrays = {}
    if i < len(lines):
        if lines[i].split() != ["POINT_DATA", str(n)]:
            raise ValueError(f"{path}: expected POINT_DATA {n}")
        i += 1
        while i < len(lines) and lines[i].startswith("SCALARS "):
            arrays[lines[i].split()[1]] = np.array(lines[i + 2:i + 2 + n], dtype=float)
            i += 2 + n
    if i != len(lines) or len(coords) != 3 * n or any(len(a) != n for a in arrays.values()):
        raise ValueError(f"{path}: truncated or unexpected content at line {i + 1}")
    return {"points": n, "cells": cells, "coords": coords, "arrays": arrays}


def _finite(vtk):
    return bool(np.all(np.isfinite(vtk["coords"]))
                and all(np.all(np.isfinite(a)) for a in vtk["arrays"].values()))


def _same_bits(a, b):
    return struct.pack("<dd", a.real, a.imag) == struct.pack("<dd", b.real, b.imag)


def read_summary(path):
    """{k: C_k} from summary.csv; only the k and C_k columns are used."""
    with open(path) as fp:
        lines = [ln.strip() for ln in fp if ln.strip()]
    header = lines[0].split(",")
    if header[:2] != ["k", "C_k"]:
        raise ValueError(f"{path}: unexpected header {header}")
    out = {}
    for line in lines[1:]:
        cells = line.split(",")
        k = int(cells[0])
        if k in out:
            raise ValueError(f"{path}: mode {k} listed twice")
        out[k] = complex(cells[1])
    return out


def reference_coefficients(ref, weights=None):
    """{k: C_ref_k} and the scale its tolerance is relative to."""
    if weights is None:
        coeffs = {int(k): complex(*v) for k, v in ref["C"].items()}
        return coeffs, max(abs(c) for c in coeffs.values())
    per_field = [{int(k): complex(*v) for k, v in f.items()} for f in ref["C_fields"]]
    coeffs = {k: sum(w * f[k] for w, f in zip(weights, per_field)) for k in per_field[0]}
    scale = sum(abs(w) * max(abs(c) for c in f.values()) for w, f in zip(weights, per_field))
    return coeffs, scale


def check_solve(workload, outdir, ref, tol_ref, weights=None):
    problems = []
    N = workloads.modes(workload)
    for k in range(-N, N + 1):
        path = os.path.join(outdir, f"mode_{'m' if k < 0 else 'p'}{abs(k)}.vtk")
        if not os.path.exists(path):
            problems.append(f"missing {os.path.basename(path)}")
            continue
        vtk = read_vtk(path)
        if (vtk["points"], vtk["cells"]) != (ref["nv"], ref["nt"]):
            problems.append(f"{os.path.basename(path)}: {vtk['points']} points, "
                            f"{vtk['cells']} cells, expected {ref['nv']}, {ref['nt']}")
        if not _finite(vtk):
            problems.append(f"{os.path.basename(path)}: non-finite values")
    coeffs = read_summary(os.path.join(outdir, "summary.csv"))
    if sorted(coeffs) != list(range(-N, N + 1)):
        return problems + [f"summary.csv lists modes {sorted(coeffs)}"]
    if not all(math.isfinite(abs(c)) for c in coeffs.values()):
        return problems + ["summary.csv: non-finite C_k"]
    for k in range(1, N + 1):
        if not _same_bits(coeffs[-k], coeffs[k].conjugate()):
            problems.append(f"C_{-k} = {coeffs[-k]!r} is not conj(C_{k}) = {coeffs[k].conjugate()!r}")
    expected, scale = reference_coefficients(ref, weights)
    bound = coefficient_tolerance(ref, tol_ref) * scale
    for k in range(-N, N + 1):
        err = abs(coeffs[k] - expected[k])
        if not err <= bound:
            problems.append(f"C_{k} = {coeffs[k]!r} differs from the reference "
                            f"{expected[k]!r} by {err:.3e} > {bound:.3e}")
    return problems


def check_synthesize(workload, outdir, ref, tol_ref):
    path = os.path.join(outdir, "field3d.vtk")
    if not os.path.exists(path):
        return ["missing field3d.vtk"]
    vtk = read_vtk(path)
    T = int(workloads.option("--theta-samples", workload))
    problems = []
    if (vtk["points"], vtk["cells"]) != (ref["nv"] * T, ref["nt"] * T):
        problems.append(f"field3d.vtk: {vtk['points']} points, {vtk['cells']} wedges, "
                        f"expected {ref['nv'] * T}, {ref['nt'] * T}")
    if not _finite(vtk):
        problems.append("field3d.vtk: non-finite values")
    names = sorted(vtk["arrays"])
    if names != sorted(ref["samples"]):
        return problems + [f"field3d.vtk: arrays {names}, expected {sorted(ref['samples'])}"]
    N = workloads.modes(workload)
    bound = (2 * N + 1) * coefficient_tolerance(ref, tol_ref) * ref["max_abs"]
    index = np.asarray(ref["index"])
    for name, expected in ref["samples"].items():
        values = vtk["arrays"][name]
        if len(values) <= index.max():
            problems.append(f"field3d.vtk: {name} is too short")
            continue
        err = float(np.max(np.abs(values[index] - np.asarray(expected))))
        if not err <= bound:
            problems.append(f"field3d.vtk: {name} differs from the reference by "
                            f"{err:.3e} > {bound:.3e}")
    return problems


def check_run(workload, outdir, reference, weights=None):
    """Problems found in one run's outputs; empty when the run is correct."""
    ref = reference["workloads"][workload]
    try:
        if workloads.WORKLOADS[workload][0] == "synthesize":
            return check_synthesize(workload, outdir, ref, reference["tol_ref"])
        return check_solve(workload, outdir, ref, reference["tol_ref"], weights)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
