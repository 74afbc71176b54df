"""Layout rules of the package.

Product code that only tests call stays out of the package: every
function, method and class defined in src/heisencheck must be referred to
by code outside the tests (the package itself or perfbench/), or be listed
in ALLOWED with the reason it stays.  References are matched by name, so
the check can miss dead code whose name is reused elsewhere, but it never
reports a name that is used.

The modulus rule of the F_q kernels (a prime below 2^31) has one owner,
exactnum.check_modulus, and exact elimination has one owner, linalg.
The README's --config example names exactly the RunConfig fields.
"""

import ast
import dataclasses
import re
from pathlib import Path

from heisencheck.checks import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heisencheck"
CALLERS = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "mpoly.graded_monomials": "perfbench/tracer.py traces it by name, and with no generators "
                              "hilbert's standard monomials are its output packed (tests "
                              "compare the two)",
}


def _definitions() -> set[str]:
    """module.qualname of every function, method and class in the package."""
    found = set()

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.add(f"{prefix}.{node.name}")
                walk(node.body, f"{prefix}.{node.name}")

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")).body, path.stem)
    return found


class _References(ast.NodeVisitor):
    """Names loaded or attributes read, except from inside the definition itself."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._scope: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node) -> None:
        if node.id not in self._scope:
            self.names.add(node.id)

    def visit_Attribute(self, node) -> None:
        if node.attr not in self._scope:
            self.names.add(node.attr)
        self.generic_visit(node)


def _referenced() -> set[str]:
    refs = _References()
    for folder in CALLERS:
        for path in folder.glob("*.py"):
            if not path.name.startswith("test_"):
                refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs.names


def test_no_product_code_is_only_called_by_tests():
    referenced = _referenced()
    unused = {name for name in _definitions() if name.rsplit(".", 1)[-1] not in referenced}
    assert unused == set(ALLOWED)


def test_only_exactnum_encodes_the_modulus_bound():
    bound = re.compile(r"\b2\s*\*\*\s*31\b|\b1\s*<<\s*31\b")
    holders = {path.name for path in PACKAGE.glob("*.py")
               if bound.search(path.read_text(encoding="utf-8"))}
    assert holders == {"exactnum.py"}


def test_only_linalg_eliminates():
    holders = {path.name for path in PACKAGE.glob("*.py")
               if "pivot" in path.read_text(encoding="utf-8")}
    assert holders == {"linalg.py"}


def test_readme_config_example_names_the_run_config_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    after = readme[readme.index("via `--config`"):]
    block = after.split("```")[1]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}
