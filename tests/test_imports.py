"""No numrad module reaches into another numrad module's private names,
the modules import one another without a cycle, only linalg calls
numpy's Hermitian eigensolvers, and every numrad name the benchmark's
traced run hooks exists."""

import ast
import importlib
import importlib.util
import pathlib

import numrad

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "numrad"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_accesses(source: str) -> list[str]:
    """`from .mod import _x` imports and `mod._x` accesses to numrad modules."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.module or ""
            if node.level == 0 and package.split(".")[0] != "numrad":
                continue
            for alias in node.names:
                if _private(alias.name):
                    where = "." * node.level + package
                    found.append(f"line {node.lineno}: from {where} import {alias.name}")
                elif package in ("", "numrad"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numrad":
                    modules.add(alias.asname or "numrad")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is not None and base.split(".")[0] in modules:
                found.append(f"line {node.lineno}: {base}.{node.attr}")
    return found


def test_checker_catches_both_forms():
    source = (
        "from . import bounds\n"
        "from .linalg import _eigh_desc\n"
        "import numrad.radius as rad\n"
        "x = bounds._Workspace\n"
        "y = rad._EVAL_CHUNK\n"
        "z = self._own\n"
    )
    assert len(private_accesses(source)) == 3


def test_no_private_cross_module_access():
    offences = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := private_accesses(path.read_text(encoding="utf-8")))
    }
    assert offences == {}


def relative_imports(source: str) -> set[str]:
    """Sibling modules a source imports relatively, at module level or inside functions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph as [m, ..., m], or [] when it is acyclic."""
    done: set[str] = set()

    def visit(path: list[str]) -> list[str]:
        for dep in sorted(graph.get(path[-1], ())):
            if dep in path:
                return path[path.index(dep) :] + [dep]
            if dep not in done and (cycle := visit(path + [dep])):
                return cycle
        done.add(path[-1])
        return []

    for module in sorted(graph):
        if module not in done and (cycle := visit([module])):
            return cycle
    return []


def test_cycle_check_catches_function_level_imports():
    graph = {
        "sweep": relative_imports("from .linalg import eigh_desc\nfrom .cache import Cache\n"),
        "cache": relative_imports("def norm():\n    from . import sweep\n    return sweep.f()\n"),
        "linalg": relative_imports("import numpy as np\nfrom numrad import errors\n"),
    }
    assert graph["linalg"] == set()
    assert import_cycle(graph) == ["cache", "sweep", "cache"]
    graph["cache"] = set()
    assert import_cycle(graph) == []


def test_relative_imports_are_acyclic():
    graph = {path.stem: relative_imports(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert import_cycle(graph) == []


SOLVERS = tuple(f"{module}.linalg.{name}" for module in ("np", "numpy") for name in ("eigh", "eigvalsh", "svd"))


def eigen_solver_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each reference to np.linalg.eigh, np.linalg.eigvalsh or
    np.linalg.svd, called or not, and of each `from numpy.linalg import` of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (name := _dotted(node)) in SOLVERS:
            found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                if (name := f"numpy.linalg.{alias.name}") in SOLVERS:
                    found.append((node.lineno, name))
    return sorted(found)


def test_solver_check_catches_a_direct_call():
    source = (
        "import numpy as np\n"
        "def top(h):\n"
        "    return np.linalg.eigvalsh(h)[-1]\n"
        "solve = np.linalg.eigh\n"
        "other = np.linalg.eig(h)\n"
        "from numpy.linalg import eigvalsh, norm\n"
        "sigma = np.linalg.svd(h, compute_uv=False)\n"
        "from numpy.linalg import svd\n"
    )
    assert eigen_solver_uses(source) == [
        (3, "np.linalg.eigvalsh"),
        (4, "np.linalg.eigh"),
        (6, "numpy.linalg.eigvalsh"),
        (7, "np.linalg.svd"),
        (8, "numpy.linalg.svd"),
    ]


def test_only_linalg_calls_the_hermitian_eigensolvers():
    # eigh_desc (eigenpairs), herm_eigvals (eigenvalues) and svd_desc
    # (singular triplets) are the three checked routes, each refusing a
    # non-finite result; nothing else in linalg, and nothing outside it,
    # references the solvers.
    offences = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py" and (found := eigen_solver_uses(path.read_text(encoding="utf-8")))
    }
    assert offences == {}
    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    owners = {
        next((f.name for f in functions if f.lineno <= line <= f.end_lineno), None)
        for line, _ in eigen_solver_uses(source)
    }
    assert owners == {"eigh_desc", "herm_eigvals", "svd_desc"}


def test_benchmark_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"numrad.{module}"), name, None))
    ]
    assert missing == []
    assert numrad.fuzzing.DEFAULT_PROPERTIES
