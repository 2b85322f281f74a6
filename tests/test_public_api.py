"""Every exported name has a user outside the tests.

A name in the `__all__` of `semiwave`, `semiwave.asymptotics` or
`semiwave.harness` must be read, as an AST Name or Attribute, somewhere in
the library outside its `__init__` files or in the benchmark scripts under
`perfbench/` (its tests excluded).  A public path that only tests reach is
either given a user or removed; the allowlist names the few kept on purpose.
Reference code that only tests call lives in tests/oracles.py, which in
turn reads only public names, so an oracle cannot share a formula with the
code it checks.
"""

import ast
from pathlib import Path

import pytest

import semiwave
import semiwave.asymptotics
import semiwave.harness

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays public with no user outside the tests
ALLOWED: dict[str, str] = {}


def _sources():
    lib = [p for p in (ROOT / "src" / "semiwave").rglob("*.py") if p.name != "__init__.py"]
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    return lib + bench


def _referenced() -> set[str]:
    names = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_user():
    exported = {*semiwave.__all__, *semiwave.asymptotics.__all__, *semiwave.harness.__all__}
    unused = sorted(exported - _referenced() - set(ALLOWED))
    assert unused == [], f"exported but used only by tests: {unused}"


@pytest.mark.parametrize("module", [semiwave, semiwave.asymptotics, semiwave.harness],
                         ids=lambda m: m.__name__)
def test_every_name_an_init_imports_from_its_package_is_exported(module):
    """A name that an `__init__` takes from its own package is listed in
    its `__all__`, so `import *` and the check above both see it."""
    package = module.__name__
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module == package
                    or (node.module or "").startswith(package + "."))
                for a in node.names}
    assert sorted(imported - set(module.__all__)) == []


def test_allowlist_names_only_unused_exports():
    """An allowlisted name that gains a user, or stops being exported,
    leaves the allowlist."""
    exported = {*semiwave.__all__, *semiwave.asymptotics.__all__, *semiwave.harness.__all__}
    assert set(ALLOWED) <= exported
    assert not set(ALLOWED) & _referenced()


def _private_semiwave_imports(tree: ast.AST) -> list[str]:
    """Underscore-prefixed names that a module takes from semiwave: a
    private module or name in an import, or a private attribute of a name
    bound to a semiwave module."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semiwave":
            found += [f"{node.module}.{a.name}" for a in node.names
                      if any(part.startswith("_") for part in [*node.module.split("."), a.name])]
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "semiwave":
                    found += [a.name] if any(p.startswith("_") for p in a.name.split(".")) else []
                    modules.add(a.asname or a.name.split(".")[0])
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return found


def test_oracles_read_only_public_names():
    """tests/oracles.py takes nothing private from semiwave, so its central
    differences, sech and phase factor are its own."""
    path = ROOT / "tests" / "oracles.py"
    assert _private_semiwave_imports(ast.parse(path.read_text())) == []


def test_private_import_check_sees_each_form():
    for source in ("from semiwave.core import _diff",
                   "from semiwave.asymptotics.fields import _sech",
                   "import semiwave.core as core\ncore._expi(0.0)",
                   "from semiwave import core\ncore._diff"):
        assert _private_semiwave_imports(ast.parse(source)), source
    assert _private_semiwave_imports(ast.parse("from semiwave.core import PhysParams")) == []
