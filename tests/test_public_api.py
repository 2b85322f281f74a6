"""Every exported name has a user outside the tests.

A name in the `__all__` of `semiwave`, `semiwave.asymptotics` or
`semiwave.harness` must be read, as an AST Name or Attribute, somewhere in
the library outside its `__init__` files or in the benchmark scripts under
`perfbench/` (its tests excluded).  A public path that only tests reach is
either given a user or removed; the allowlist names the few kept on purpose.
"""

import ast
from pathlib import Path

import semiwave
import semiwave.asymptotics
import semiwave.harness

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays public with no user outside the tests
ALLOWED = {
    "CallableWkbFields": "finite-difference reference jet that the family tests "
                         "compare the closed-form jets against",
    "cylindrical_special": "closed-form radial solution that the ring family is "
                           "checked against",
    "first_correction_uv": "the correction tests read u and v, which "
                           "corrected_term_with_dt returns only multiplied into psi",
}


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


def test_allowlist_names_only_unused_exports():
    """An allowlisted name that gains a user, or stops being exported,
    leaves the allowlist."""
    exported = {*semiwave.__all__, *semiwave.asymptotics.__all__, *semiwave.harness.__all__}
    assert set(ALLOWED) <= exported
    assert not set(ALLOWED) & _referenced()
