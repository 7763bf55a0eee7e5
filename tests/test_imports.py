"""Every module under src/transfercluster uses each name it imports, and
every private module-level function or class is used somewhere in it.
Importing the package and its CLI loads no scipy module: numpy is the
only runtime dependency.

There is no linter in the toolchain, so these standard-library checks
guard against imports and helpers left behind when code moves.
``__init__.py`` is exempt from the import check: its imports are the
package's public re-exports.  Tests do not count as uses of a private
helper, so a helper kept alive only by its tests is reported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "transfercluster"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detects_unused_names():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level function or class that no
    source in ``sources`` (module name -> text) refers to."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(d for d in defined if d.split(".", 1)[1] not in referenced)


def test_detects_unreferenced_private_names():
    sources = {
        "encoder": "class _SgdMomentum:\n    pass\ndef _helper():\n    pass\n",
        "trainer": "from . import encoder\nfrom .encoder import _SgdMomentum\n"
                   "class _Adam:\n    pass\nopt = _SgdMomentum()\nencoder._helper()\n",
    }
    assert unreferenced_private(sources) == ["trainer._Adam"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private(sources) == []


def object_uses(source: str) -> list[int]:
    """Lines that use the name ``object`` other than as an attribute's
    base, as in ``object.__setattr__``: an ``object`` dtype, a base class
    or a sentinel."""
    tree = ast.parse(source)
    bases = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "object" and id(node) not in bases)


def test_detects_object_uses():
    source = ("object.__setattr__(self, 'a', 1)\nnp.empty(3, dtype=object)\n"
              "class A(object):\n    pass\n")
    assert object_uses(source) == [2, 3]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_object_arrays(module):
    """numpy ``object`` arrays hold Python objects, one pointer and one
    allocation per element, so no module builds one."""
    assert object_uses(module.read_text(encoding="utf-8")) == []


def test_package_and_cli_load_no_scipy():
    script = (
        "import sys\n"
        "import transfercluster, transfercluster.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
