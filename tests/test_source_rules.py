"""Rules on the package source itself.

Self-checks must survive ``python -O``, which strips ``assert`` statements:
the package signals a failed self-check with ``RuntimeError`` instead, so
neither ``assert`` nor ``raise AssertionError`` may appear under
``src/absnormal``.

Verdicts are exact: no float literal and no ``float(...)`` call may appear
under ``src/absnormal`` either.  Naming ``float`` to reject it, as
``ratmath.rat`` does, stays allowed.

No module imports a name it never uses; an ``__init__`` re-exports what it
imports, so it is exempt.  ``UNUSED_IMPORTS_ALLOWED`` lists the exceptions,
each with its reason.

The double description kernel ``ratmath/dd.py`` takes and gives integer
vectors, so it imports nothing that makes a ``Fraction``.
"""

import ast
from pathlib import Path

import absnormal


def _assertion_sites(path: Path) -> list[str]:
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Assert):
            sites.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                sites.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return sites


def _float_sites(path: Path) -> list[str]:
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            sites.append(f"{path.name}:{node.lineno}: float() call")
    return sites


# (module file, imported name) -> why the module keeps an import it never uses
UNUSED_IMPORTS_ALLOWED = {
    ("cq.py", "dual_cone"): "bench/test_bench.py asserts that the tracer rebinds absnormal.cq.dual_cone",
}


def _unused_import_sites(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: unused import {name}"
        for name, line in imported.items()
        if name not in used and (path.name, name) not in UNUSED_IMPORTS_ALLOWED
    ]


def _modules() -> list[Path]:
    modules = sorted(Path(absnormal.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    return modules


def test_package_source_has_no_assertions():
    sites = [site for path in _modules() for site in _assertion_sites(path)]
    assert sites == []


def test_package_source_has_no_floats():
    sites = [site for path in _modules() for site in _float_sites(path)]
    assert sites == []


def test_package_source_imports_only_what_it_uses():
    sites = [site for path in _modules() if path.name != "__init__.py" for site in _unused_import_sites(path)]
    assert sites == []


# what the integer double description kernel must not import
RATIONAL_IMPORTS = {"fractions", "rat", "vec", "primitive"}


def _imported_names(path: Path) -> set[str]:
    """Every module and name the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_double_description_kernel_imports_no_rationals():
    path = Path(absnormal.__file__).parent / "ratmath" / "dd.py"
    assert _imported_names(path) & RATIONAL_IMPORTS == set()


def test_imported_names_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import fractions\nfrom .matrix import vec, integer_rank as rank\nfrom fractions import Fraction\n")
    assert _imported_names(probe) & RATIONAL_IMPORTS == {"fractions", "vec"}


def test_assertion_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert x\nraise AssertionError('no')\nraise AssertionError\nraise RuntimeError('ok')\n")
    assert _assertion_sites(probe) == [
        "probe.py:1: assert",
        "probe.py:2: raise AssertionError",
        "probe.py:3: raise AssertionError",
    ]


def test_float_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 0.5\ny = float('1')\nz = 1e-9 + 2\nok = isinstance(v, float) or 3\n")
    assert _float_sites(probe) == [
        "probe.py:1: float literal 0.5",
        "probe.py:2: float() call",
        "probe.py:3: float literal 1e-09",
    ]


def test_unused_import_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom json import dumps, loads as read\nfrom math import gcd\n"
        "print(system.argv, read, os.sep)\n"
    )
    assert _unused_import_sites(probe) == ["probe.py:4: unused import dumps", "probe.py:5: unused import gcd"]
