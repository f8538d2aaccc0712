"""The four benchmark workloads and the generated input of `file_rhs`.

Every workload is one `axmaxwell` command on the L-shaped meridian domain,
single threaded, at the CLI default tolerance written out.  Only `file_rhs`
reads generated input: a table of a smooth axisymmetric field at the mesh
vertices, made from the workload seed.  The other three are fixed by their
command line and the seed does not reach them.
"""

import numpy as np

TOL = 1e-10
COMMON = ["--domain", "lshape", "--threads", "1", "--tol", repr(TOL)]
TABLE = "rhs_table.csv"

WORKLOADS = {
    "fine_lowmode": ["solve", "--h", "0.0125", "--field", "electric",
                     "--rhs", "cos_theta_ez", "--modes", "2"],
    "coarse_highmode": ["solve", "--h", "0.05", "--field", "magnetic",
                        "--rhs", "bandlimited", "--modes", "24"],
    "synth_export": ["synthesize", "--h", "0.025", "--field", "magnetic",
                     "--rhs", "bandlimited", "--modes", "3", "--theta-samples", "64"],
    "file_rhs": ["solve", "--h", "0.05", "--field", "electric",
                 "--rhs", "file:" + TABLE, "--modes", "2"],
}


def option(name, workload):
    argv = WORKLOADS[workload]
    return argv[argv.index(name) + 1]


def modes(workload):
    return int(option("--modes", workload))


def argv_for(workload, outdir, table_path=None):
    """Command line of one run; `file:` data points at `table_path`."""
    argv = list(WORKLOADS[workload]) + COMMON + ["--outdir", outdir]
    return [("file:" + table_path) if a == "file:" + TABLE else a for a in argv]


# -- file_rhs input --------------------------------------------------------------

def table_fields(r, z):
    """Smooth axisymmetric basis fields at meridian points, shape (J, P, 3).

    The table is a seeded combination of these; the solver is linear in its
    data, so the reference coefficients of the combination are the same
    combination of the per-field references in reference.json.
    """
    zero = np.zeros_like(r)
    return np.array([
        np.stack([zero, zero, np.ones_like(r)], axis=1),
        np.stack([r * z, zero, 1.0 - r * r], axis=1),
        np.stack([zero, r * (1.0 - z), zero], axis=1),
        np.stack([r * np.sin(np.pi * z), zero, np.cos(np.pi * r)], axis=1),
    ])


N_FIELDS = len(table_fields(np.zeros(1), np.zeros(1)))


def write_table(path, vertices, weights, order=None):
    """CSV r,z,f_r,f_theta,f_z at the vertices, values written with %.17g."""
    v = np.asarray(vertices, dtype=float)
    values = np.tensordot(weights, table_fields(v[:, 0], v[:, 1]), axes=1)
    rows = np.arange(len(v)) if order is None else order
    with open(path, "w") as fp:
        fp.write("r,z,f_r,f_theta,f_z\n")
        for i in rows:
            fp.write(",".join("%.17g" % x for x in (*v[i], *values[i])) + "\n")


def make_table(path, vertices, seed):
    """Seeded table: random weights of the basis fields, shuffled rows.
    Returns the weights."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, N_FIELDS) * rng.choice([-1.0, 1.0], N_FIELDS)
    write_table(path, vertices, weights, rng.permutation(len(vertices)))
    return weights
