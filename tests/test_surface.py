"""The public surface rule: every public module-level def or class of
src/hyperlab, and every public method of such a class, is reached by the
program or by an acceptance criterion.

Reached means referenced from another src module, from its own module
outside its own definition, or from tests/test_acceptance.py.  The
package __init__ does not count: re-exporting a name does not use it.
A def or class is referenced by a name, an attribute or an imported name;
a method only by an attribute x.name whose receiver x is not a module
alias, so neither np.full nor a local named empty reaches a method full
or empty.  References are read from the syntax tree, so the check needs
no linter.

The import rule: every name a module of src/hyperlab or tests/ imports
is read in that module, also from the syntax tree.

The field rule: every field of a src/hyperlab dataclass is read as an
attribute off a receiver that is not a module alias, in src/hyperlab or
tests/test_acceptance.py, unless the class's to_dict is record_dict,
which writes every field by name.

The parameter rule: every optional parameter of a public def or public
method is passed somewhere in src/hyperlab or tests/test_acceptance.py, by
keyword or by position past the required ones, at a call of the def's
name or of a name bound to it; a knob only the tests set is a constant.

The thread rule: no module of src/hyperlab imports threading or
concurrent.futures, so the package starts no thread; parallel work
belongs to BLAS, inside one product.

The CLI rule: cli.py imports no numpy, so no command computes on its
own; a command is a one-probe run of the runner or one library call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperlab"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"
MODULES = {path.stem for path in SRC.glob("*.py")}

# Public names no path reaches yet, each with the reason it stays.
ALLOWED = {
    "dynamics_lab.weighted_shift_system":
        "the weighted-shift rows of the known-answer linear zoo build on it",
    "gauss_model.indicator_field":
        "the raw arc-indicator field, the reference the corrected field is "
        "tested against",
    "config.ExperimentConfig.to_text":
        "the canonical text that parse -> serialize -> parse round-trips, "
        "as the config docstring promises",
}


# Optional parameters nothing passes yet, each with the reason it stays.
ALLOWED_PARAMETERS = {
    "gauss_model.intertwine_residual(transport)":
        "the seam the tests use to hand in a transport with a known residual",
    "dynamics_lab.return_set_identity_check(verify_ball)":
        "the seam the tests use to check the identity on a ball of their own",
    "cli.main(argv)":
        "the seam the tests use to run a command line in process",
    "dynamics_lab.weighted_shift_system(name)":
        "the weighted-shift rows of the known-answer linear zoo name their systems",
}


def _module_aliases(tree) -> set:
    """The names tree binds to a module: import x [as y], and
    from p import m [as y] for a module m of src/hyperlab."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return aliases


def _references(tree, skip=None) -> tuple:
    """(every name tree references, every attribute it reads off a receiver
    that is not a module alias), leaving out the subtree skip."""
    modules = _module_aliases(tree)
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if getattr(node.value, "id", None) not in modules:
                attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _public_members(tree):
    """(qualified name, node, whether it binds self or cls) of every public
    module-level def or class and every public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not static


def _unreached(modules: dict, acceptance) -> list:
    """module.name of every public def, class or method of the syntax
    trees modules (module stem -> tree) that nothing reaches."""
    seen = {stem: _references(tree) for stem, tree in modules.items()}
    outside = _references(acceptance)
    out = []
    for stem, tree in modules.items():
        for qualified, node, _ in _public_members(tree):
            kind = int("." in qualified)  # a method is reached by attributes only
            refs = [outside, _references(tree, skip=node),
                    *(s for other, s in seen.items() if other != stem)]
            if not any(node.name in r[kind] for r in refs):
                out.append(f"{stem}.{qualified}")
    return out


def unreached() -> list:
    """module.name of every public def, class or method nothing reaches."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    return _unreached(modules, ast.parse(ACCEPTANCE.read_text()))


def test_every_public_name_is_reached_or_allowed():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unreached():
    # a name that gains a caller leaves the allowlist
    assert set(ALLOWED) <= set(unreached())


def test_a_method_is_reached_only_by_an_attribute_off_a_value():
    # np.full and a local named empty share the methods' names, not a use
    module = ast.parse(
        "import numpy as np\n"
        "class C:\n"
        "    def full(self): ...\n"
        "    def empty(self): ...\n"
        "    def size(self): ...\n"
        "def f(c):\n"
        "    empty = np.full(3, 0)\n"
        "    return c.size(), empty\n"
        "f(C())\n")
    assert _unreached({"m": module}, ast.parse("")) == ["m.C.full", "m.C.empty"]


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


def _program() -> dict:
    """module stem -> syntax tree of every src/hyperlab module and of the
    acceptance file, the places where the program reads and passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees[ACCEPTANCE.stem] = ast.parse(ACCEPTANCE.read_text())
    return trees


def _is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", "") == "dataclass"
               for d in node.decorator_list)


def _writes_every_field(node) -> bool:
    """The class's to_dict is record_dict, which reads every field."""
    return any(isinstance(item, ast.FunctionDef) and item.name == "to_dict"
               and any(getattr(n, "id", "") == "record_dict" for n in ast.walk(item))
               for item in node.body)


def unread_fields() -> list:
    """module.Class.field of every dataclass field nothing reads."""
    trees = _program()
    read = set().union(*(_references(tree)[1] for tree in trees.values()))
    return [f"{stem}.{node.name}.{item.target.id}"
            for stem, tree in trees.items() if stem != ACCEPTANCE.stem
            for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and not _writes_every_field(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def unpassed_parameters() -> list:
    """module.def(parameter) of every optional parameter nothing passes."""
    trees = _program()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    aliases = {}  # a name bound to a def, as in maker = random_atomic_measure
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(node.value.id, []).append(target.id)
    out = []
    for stem, tree in trees.items():
        if stem in ("__init__", ACCEPTANCE.stem):
            continue
        for qualified, fn, bound in _public_members(tree):
            if isinstance(fn, ast.ClassDef):
                continue
            args = fn.args
            positional = [*args.posonlyargs, *args.args][int(bound):]
            first = len(positional) - len(args.defaults)
            optional = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            optional += [(None, p.arg) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            sites = [call for name in (fn.name, *aliases.get(fn.name, ()))
                     for call in calls.get(name, ())]
            for i, arg in optional:
                if not any(any(k.arg == arg for k in call.keywords)
                           or (i is not None and len(call.args) > i) for call in sites):
                    out.append(f"{stem}.{qualified}({arg})")
    return out


def test_every_optional_parameter_is_passed_or_allowed():
    assert [p for p in unpassed_parameters() if p not in ALLOWED_PARAMETERS] == []


def test_every_allowed_parameter_is_still_unpassed():
    # a parameter that gains a caller leaves the allowlist
    assert set(ALLOWED_PARAMETERS) <= set(unpassed_parameters())


_KIND_NAMES = {"kalish", "scalar_multiple_shift", "weighted_shift", "torus_rotation"}


def _reads_a_kind(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "kind")
            or (isinstance(node, ast.Attribute) and node.attr == "kind")
            or (isinstance(node, ast.Constant) and node.value in _KIND_NAMES))


def kind_comparisons() -> list:
    """line: source of every comparison in dynamics_lab.py that reads a
    system kind or names one, except the membership test of SystemSpec's
    lookup in the kind table _KINDS."""
    tree = ast.parse((SRC / "dynamics_lab.py").read_text())
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(_reads_a_kind(o) for o in (node.left, *node.comparators)):
            continue
        lookup = (all(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                  and getattr(node.comparators[-1], "id", "") == "_KINDS")
        if not lookup:
            out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


def test_only_the_kind_table_compares_a_system_kind():
    # each kind's rules live in its class in dynamics_lab._KINDS; a
    # function that branches on spec.kind would give a kind a second home
    assert kind_comparisons() == []


THREAD_MODULES = ("threading", "concurrent")


def _imports_of(tree, modules) -> list:
    """The line of every import in tree of a top-level package in modules."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in modules for name in names):
            out.append(node.lineno)
    return out


def threading_imports() -> list:
    """file:line of every import of threading or concurrent.futures (any
    concurrent module) in a src/hyperlab module."""
    return [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _imports_of(ast.parse(path.read_text()), THREAD_MODULES)]


def test_no_module_imports_threading():
    # the Gram products run on the calling thread; BLAS, not the package,
    # spreads a product over cores
    assert threading_imports() == []


def test_cli_imports_no_numpy():
    # a command that needs numpy computes on its own; its compute belongs
    # in the runner or the library, where a config probe reaches it too
    assert _imports_of(ast.parse((SRC / "cli.py").read_text()), {"numpy"}) == []


def test_the_cli_rule_finds_every_form_of_a_numpy_import():
    module = ast.parse(
        "import json\n"
        "import numpy as np\n"
        "from numpy import linalg\n"
        "def f():\n"
        "    import numpy.random\n")
    assert _imports_of(module, {"numpy"}) == [2, 3, 5]
