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

Every function, method and class defined under ``src/absnormal`` is named in
the package beyond its own definition, or listed in an ``__all__``: code
that nothing reads leaves, or moves to the tests that read it.
``UNREFERENCED_ALLOWED`` lists the exceptions, each with its reader outside
the package and the reason.
"""

import ast
from collections import Counter
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


# (module file, defined name) -> (its reader outside the package, why it stays)
UNREFERENCED_ALLOWED = {
    ("cones.py", "certified"): (
        "bench/tracer.py",
        "TangentCertificate.certified: the tracer counts certified tangent cones for cones.tangent_certified_ratio",
    ),
}


def _names(node: ast.AST) -> Counter:
    """Each name the node reads, bare or as an attribute, with its count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _exported(tree: ast.AST) -> set[str]:
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _unreferenced_definition_sites(paths: list[Path], allowed=UNREFERENCED_ALLOWED) -> list[str]:
    """The functions, methods and classes of ``paths`` that no file of
    ``paths`` names outside their own definition, no ``__all__`` lists and
    ``allowed`` does not name; dunder methods are called by Python itself
    and are skipped."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    named, exported = Counter(), set()
    for tree in trees.values():
        named.update(_names(tree))
        exported |= _exported(tree)
    return [
        f"{path.name}:{node.lineno}: {node.name} is named nowhere else"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and named[node.name] == _names(node)[node.name]
        and (path.name, node.name) not in allowed
    ]


def test_package_source_defines_only_what_it_names():
    assert _unreferenced_definition_sites(_modules()) == []


def test_each_unreferenced_allowance_is_needed_and_read():
    # without the allowances exactly their names are flagged, and each
    # reader outside the package names its entry
    flagged = _unreferenced_definition_sites(_modules(), allowed={})
    assert [site.split(": ", 1)[1] for site in flagged] == [f"{name} is named nowhere else" for _, name in UNREFERENCED_ALLOWED]
    repo = Path(absnormal.__file__).resolve().parents[2]
    for (_, name), (reader, _) in UNREFERENCED_ALLOWED.items():
        assert _names(ast.parse((repo / reader).read_text(encoding="utf-8")))[name] > 0, (reader, name)


def test_unreferenced_definition_sites_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Box:\n"
        "    def __init__(self): self.size = 0\n"
        "    def read(self): return self.size\n"
        "    def unread(self): return self.read()\n"
    )
    (tmp_path / "b.py").write_text("from a import Box, used\nused(Box())\n")
    assert _unreferenced_definition_sites([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:5: recursive is named nowhere else",
        "a.py:9: unread is named nowhere else",
    ]


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
