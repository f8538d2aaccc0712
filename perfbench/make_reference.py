"""Regenerate perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/make_reference.py

from the root of the checkout (scratch files go to .perfbench/).  Runs every workload once at tol_ref = 1e-12 (100 times tighter than the
benchmark's tol = 1e-10) and records what outputs.py checks against: mesh
sizes, C_k per mode (per basis field for `file_rhs`, whose seeded table is
a combination of them), samples of the 3D field for `synth_export`, and the
condition-number bound kappa the tolerance is derived from.  Run it only on
a commit whose results are trusted; the benchmark never writes this file.
"""

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import outputs  # noqa: E402
import workloads  # noqa: E402
from axmaxwell import cli_io, femcore, mesh, modal_ops  # noqa: E402

TOL_REF = 1e-12
SAMPLES = 97


def run(argv):
    argv = list(argv)
    argv[argv.index("--tol") + 1] = repr(TOL_REF)
    code = cli_io.main(argv)
    if code != 0:
        raise SystemExit(f"reference run failed with exit code {code}: {argv}")


def condition_number(h, field, N):
    """Largest spectral condition number of the mode matrices a solve with
    modes |k| <= N uses on the L-shape mesh of size h (dense eigenvalues)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
    space = femcore.SPACE_X if field == "electric" else femcore.SPACE_Y
    quad = femcore.MeshQuadrature(msh, corner)
    worst = 0.0
    system2 = None
    for k in range(0, N + 1):
        if k <= 2:
            system = modal_ops.assemble_a_k(msh, k, space, quad=quad)
            matrix = system.matrix
            system2 = system if k == 2 else system2
        else:
            matrix = modal_ops.shifted_system(system2, k)
        eig = np.linalg.eigvalsh(matrix.to_dense())
        worst = max(worst, eig[-1] / eig[0])
    return worst


def kappa(workload):
    h = float(workloads.option("--h", workload))
    field = workloads.option("--field", workload)
    N = workloads.modes(workload)
    coarse, fine = condition_number(0.1, field, N), condition_number(0.05, field, N)
    growth = max(fine / coarse, 1.0)
    return fine * growth ** max(np.log2(0.05 / h), 0.0)


def reference_mesh(workload):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, float(workloads.option("--h", workload)))
    return msh


def main():
    out = {"tol_ref": TOL_REF, "workloads": {}}
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.WORKLOADS:
            msh = reference_mesh(name)
            ref = {"nv": msh.num_vertices, "nt": msh.num_triangles, "kappa": kappa(name)}
            outdir = os.path.join(tmp, name)
            if name == "file_rhs":
                ref["vertices"] = msh.vertices.tolist()
                ref["C_fields"] = []
                for j in range(workloads.N_FIELDS):
                    table = os.path.join(tmp, f"field{j}.csv")
                    workloads.write_table(table, msh.vertices, np.eye(workloads.N_FIELDS)[j])
                    run(workloads.argv_for(name, outdir, table))
                    coeffs = outputs.read_summary(os.path.join(outdir, "summary.csv"))
                    ref["C_fields"].append({str(k): [c.real, c.imag] for k, c in coeffs.items()})
            elif workloads.WORKLOADS[name][0] == "synthesize":
                run(workloads.argv_for(name, outdir))
                vtk = outputs.read_vtk(os.path.join(outdir, "field3d.vtk"))
                n = vtk["points"]
                index = np.linspace(0, n - 1, SAMPLES).astype(int)
                ref["index"] = index.tolist()
                ref["samples"] = {a: v[index].tolist() for a, v in vtk["arrays"].items()}
                ref["max_abs"] = max(float(np.abs(v).max()) for v in vtk["arrays"].values())
            else:
                run(workloads.argv_for(name, outdir))
                coeffs = outputs.read_summary(os.path.join(outdir, "summary.csv"))
                ref["C"] = {str(k): [c.real, c.imag] for k, c in coeffs.items()}
            out["workloads"][name] = ref
            print(f"{name}: kappa {ref['kappa']:.3e}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fp:
        json.dump(out, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
