import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import axmaxwell


def test_every_exported_name_resolves():
    for name in axmaxwell.__all__:
        assert getattr(axmaxwell, name) is not None, name


def test_import_loads_only_numpy_and_the_standard_library():
    """Importing the package and its command line, in a fresh interpreter,
    loads no third-party module but numpy, and no thread pool; the
    manufactured fields and the acceptance suite, with numpy.polynomial,
    load only when the convergence and verify commands run."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import axmaxwell, axmaxwell.cli_io\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    loaded = set(out.stdout.split())
    added = {m.split(".")[0] for m in loaded}
    assert {"axmaxwell", "numpy"} <= added
    assert not added - sys.stdlib_module_names - {"axmaxwell", "numpy"}
    assert "concurrent" not in added
    assert not loaded & {"axmaxwell.manufactured", "axmaxwell.verification", "numpy.polynomial"}


def test_a_solve_loads_no_masked_arrays(tmp_path):
    """A small solve, in a fresh interpreter, never imports numpy.ma (with
    numpy 2.4, np.unique without a return_* flag would)."""
    probe = (
        "import sys\n"
        "from axmaxwell.cli_io import main\n"
        "assert main(['solve', '--h', '0.2', '--outdir', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.split()[-1] == "False"


_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module, name", [
    ("cli_io", "write_vtk"), ("cli_io", "write_vtk_wedges"), ("solver", "solve_axisymmetric"),
    ("solver", "error_norms"), ("femcore", "lift_boundary"), ("singular", "singular_dimensions"),
    ("modal_ops", "OperatorWorkspace.adjoint_chunks"), ("modal_ops", "OperatorWorkspace.op_adjoint"),
    ("singular", "SingularBasis.pairings"), ("singular", "lift_basis"),
    ("modal_ops", "assemble_a_k"), ("modal_ops", "assemble_systems"), ("modal_ops", "coarse_levels"),
    ("modal_ops", "shifted_system"),
])
def test_readme_signatures_match_the_code(module, name):
    """Every `name(...)` span of README spells the function's signature as
    inspect.signature gives it, up to whitespace; a method `Class.name` may
    be spelled with or without its class, and is compared without self."""
    owner, _, attr = name.rpartition(".")
    fn = importlib.import_module(f"axmaxwell.{module}")
    for part in name.split("."):
        fn = getattr(fn, part)
    sig = inspect.signature(fn)
    if owner:
        sig = sig.replace(parameters=list(sig.parameters.values())[1:])
    prefix = rf"(?:{owner}\.)?" if owner else ""
    spans = re.findall(rf"`{prefix}({attr}\([^`]*\))`", _README.read_text())
    assert spans, f"README does not spell out {name}"
    want = attr + str(sig)
    for span in spans:
        assert " ".join(span.split()) == want


_SRC = pathlib.Path(axmaxwell.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(p.name for p in _SRC.glob("*.py") if p.name != "__init__.py"))
def test_modules_use_every_name_they_import(path):
    """No module of the package imports a name it never reads (the package's
    __init__ re-exports names and is exempt): read from its syntax tree,
    a name counts as used where it is loaded, as a name or as the base of
    an attribute, anywhere in the module."""
    tree = ast.parse((_SRC / path).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path} imports names it never uses: {unused}"
