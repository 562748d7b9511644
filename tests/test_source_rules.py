"""Rules on the package source itself.

Self-checks must survive ``python -O``, which strips ``assert`` statements:
the package signals a failed self-check with ``RuntimeError`` instead, so
neither ``assert`` nor ``raise AssertionError`` may appear under
``src/absnormal``.
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


def test_package_source_has_no_assertions():
    root = Path(absnormal.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10
    sites = [site for path in modules for site in _assertion_sites(path)]
    assert sites == []


def test_assertion_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert x\nraise AssertionError('no')\nraise AssertionError\nraise RuntimeError('ok')\n")
    assert _assertion_sites(probe) == [
        "probe.py:1: assert",
        "probe.py:2: raise AssertionError",
        "probe.py:3: raise AssertionError",
    ]
