"""Every name a permspec module imports is used by that module, and every
top-level definition is used somewhere in the package.

``__init__.py`` is skipped by the import check: its imports are the
package's re-exports, and they count as uses of what they name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "permspec"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_detection():
    src = "import os\nimport json\nfrom .a import b, c as d\nprint(json, d)\n"
    assert unused_imports(src) == ["b", "os"]


def test_no_unused_imports():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert found == []


# top-level definitions no other code in the package names, with the reason
# each stays
KEPT = {
    "map_c": "planned: the odd classes c_N of the odd-p Dirac presentation",
    "nullspace": "planned: relations as kernels in hom_dim's invariant-cycle spaces",
    "weyl": "planned: the Part I x Quillen point count of a glued skeleton",
    "res_hom": "checked against _ref_res_hom in test_induced.py",
    "center": "the Z(G) fixture of the group and section tests",
}


def _names_in(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def uncalled_definitions(sources):
    """Top-level functions and classes of the given module sources whose name
    appears in no other top-level statement of any of them (so recursion is
    not a use, and an import or re-export is)."""
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    names = [_names_in(stmt) for stmt in statements]
    return sorted(
        stmt.name
        for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(
            stmt.name in used
            for other, used in zip(statements, names)
            if other is not stmt
        )
    )


def test_uncalled_definition_detection():
    a = (
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Lonely: pass\n"
        "def exported(): pass\n"
        "def method_named(): pass\n"
    )
    b = "from .a import exported\nused()\nobj.method_named()\n"
    assert uncalled_definitions([a, b]) == ["Lonely", "recursive"]


def test_every_definition_has_a_caller():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncalled_definitions(sources) == sorted(KEPT)
