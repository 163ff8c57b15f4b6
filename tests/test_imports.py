"""What each entry point loads: the CLI loads a verb's layers only when the
verb runs, and the package namespace imports each public name on first use;
and that each public name has a caller in the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import popa_algebra

SRC = str(Path(popa_algebra.__file__).resolve().parent.parent)

#: the package's public names, by the module that defines them
EXPORTS = {
    "algebra": "AlgebraDescriptor AlgebraKind Element complex_plane grid_interval hadamard",
    "errors": "ConstraintViolated DimensionMismatch DomainExhausted InvalidTriple "
              "LogBranchViolation NoConvergence NotDifferentiable NotInGroup NotInRange "
              "NotOmegaHomogeneous NotOrthogonalIdempotents PopaAlgebraError "
              "UnitNotInGroup UnsupportedDimension",
    "solutions": "CanonicalSolution ComplexReImSolution DegenerateExpSolution DegenerateForm "
                 "GoldieResidualReport GsSolution IdempotentSolution LinearCandidate "
                 "LinearSolution PartitionSolution PartitionSpec gamma rho_of "
                 "solution_from_json verify_gs",
    "roots": "StSolution st_roots xi_root",
    "special": "WjSolutionOracle WjTriple wj_extract",
    "structure": "SigmaMatrix StructureReport TwoDClass TwoDClassification analyse_sigma",
    "tilting": "Direction TiltResult UnboundednessVerdict radiality_check tilt_T "
               "tilt_inverse tilt_solve_fixed_point unboundedness_direction",
}
PUBLIC = sorted(name for names in EXPORTS.values() for name in names.split())


def _loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; report its exit code and the modules it loaded."""
    probe = (f"import json, sys\ncode = 0\n{code}\n"
             "print(json.dumps([code, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return {"code": code, "modules": set(modules)}


def test_cli_import_loads_no_layer_and_no_numpy():
    loaded = _loaded_after("import popa_algebra.cli")["modules"]
    layers = {f"popa_algebra.{m}" for m in ("solutions", "structure", "tilting", "special",
                                            "algebra", "roots")}
    assert not loaded & (layers | {"numpy"})


@pytest.mark.parametrize("argv", [["xi"], ["solve-st", "--n-roots", "30"]])
def test_transcendental_verbs_run_without_numpy(argv):
    run = _loaded_after("import contextlib, io\nfrom popa_algebra.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    code = main({argv!r})")
    assert run["code"] == 0
    assert "popa_algebra.roots" in run["modules"]
    assert "numpy" not in run["modules"]


@pytest.mark.parametrize("verb", ["xi", "solve-st", "tilt"])
def test_verbs_load_no_dataclasses(verb, tmp_path):
    case = tmp_path / "tilt.json"
    case.write_text(json.dumps({"solution": {"variant": "Canonical", "rho": [0.5, -0.25],
                                             "algebra": {"kind": "HadamardRd", "dim": 2}},
                                "u": [0.1, 0.2]}), encoding="utf-8")
    argv = {"xi": ["xi"], "solve-st": ["solve-st", "--n-roots", "30"],
            "tilt": ["tilt", "--input", str(case)]}[verb]
    run = _loaded_after("import contextlib, io\nfrom popa_algebra.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    code = main({argv!r})")
    assert run["code"] == 0
    assert "dataclasses" not in run["modules"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_names_resolve_to_their_module_objects(module):
    mod = importlib.import_module(f"popa_algebra.{module}")
    for name in EXPORTS[module].split():
        assert getattr(popa_algebra, name) is getattr(mod, name), name
    assert getattr(popa_algebra, module) is mod


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from popa_algebra import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    assert dir(popa_algebra) == PUBLIC
    assert sorted(popa_algebra.__all__) == PUBLIC


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        popa_algebra.no_such_name


#: public names that only the benchmark calls, not the program
BENCHMARK_ONLY = {
    "grid_interval",             # tilt-grid's GridCInterval families
    "radiality_check",           # tilt-grid's radiality operation
    "unboundedness_direction",   # tilt-grid's unboundedness operation
}


def test_every_public_name_has_a_caller_in_the_package():
    # the public names are those in __all__ and the public methods and
    # properties of the package's classes.  A reference is a name, an
    # imported name or an attribute access in the code of a package module
    # other than __init__.py, except an attribute of a module brought in by
    # an import statement (np.exp calls no Element.exp); a definition's own
    # name and the docstrings do not count
    package = Path(popa_algebra.__file__).parent
    referenced, methods = set(), set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in imported):
                referenced.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods |= {(node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    assert not BENCHMARK_ONLY & referenced   # the list holds no name the program calls
    assert sorted(set(popa_algebra.__all__) - referenced - BENCHMARK_ONLY) == []
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in referenced) == []
