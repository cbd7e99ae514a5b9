"""The public surface rule: every public module-level def or class of
src/hyperlab is reached by the program or by an acceptance criterion.

Reached means referenced from another src module, from its own module
outside its own definition, or from tests/test_acceptance.py.  The
package __init__ does not count: re-exporting a name does not use it.
A reference is a name, an attribute or an imported name, read from the
syntax tree, so the check needs no linter.

The import rule: every name a module of src/hyperlab or tests/ imports
is read in that module, also from the syntax tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperlab"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"

# Public names no path reaches yet, each with the reason it stays.
ALLOWED = {
    "dynamics_lab.weighted_shift_system":
        "the weighted-shift rows of the known-answer linear zoo build on it",
    "gauss_model.indicator_field":
        "the raw arc-indicator field, the reference the corrected field is "
        "tested against",
}


def _references(tree, skip=None) -> set:
    """Every name tree references, leaving out the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreached() -> list:
    """module.name of every public def or class that nothing reaches."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    seen = {stem: _references(tree) for stem, tree in modules.items()}
    acceptance = _references(ast.parse(ACCEPTANCE.read_text()))
    out = []
    for stem, tree in modules.items():
        elsewhere = acceptance.union(*(s for other, s in seen.items() if other != stem))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and node.name not in _references(tree, skip=node)):
                out.append(f"{stem}.{node.name}")
    return out


def test_every_public_name_is_reached_or_allowed():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unreached():
    # a name that gains a caller leaves the allowlist
    assert set(ALLOWED) <= set(unreached())


def unused_imports() -> list:
    """file:line name of every imported name its module never reads.  An
    import on a `# noqa` line (a binding kept on purpose), the re-exports
    of an __init__.py and the names of __all__ are exempt."""
    out = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", "") == "__all__" for t in node.targets)):
                read.update(elt.value for elt in node.value.elts)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", "") == "__future__"
                    or any("# noqa" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    out.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    return out


def test_every_import_is_read():
    assert unused_imports() == []
