"""The package ships only what the product uses.

Every public top-level function, class and module-level name (a type
alias or a constant) of `src/doublealg` must be referenced somewhere
outside its own definition or assignment: by another part of the
package, by a file of the benchmark harness in `perfbench/`, or by an
import in the README's Library snippet.  Every public method of a package
class must have its name read as an attribute somewhere in those sources
outside the method's own definition, where a read written on a class, as
`Klass.method`, counts for that class only; so must every operator method,
read by an expression with its operator.  Helpers that only the tests call
live in `tests/` (`catalog`, `dvb_model`, `support` and the test modules).
Every package module also imports on its own in a fresh interpreter, so
no import between package modules depends on which one a caller loads
first.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import tomllib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "doublealg"

# Names that no package code uses and that stay public for the harness or
# the README.  Keep this short: each entry is a promise to outside callers.
EXTERNAL_ONLY = {
    "algebroid.change_frames",
    "algebroid.cotangent_algebroid",
    "algebroid.lie_algebra_to_algebroid",
    "algebroid.tangent_algebroid",
}


# The operator methods an expression may call, reflected and in-place forms
# included: `a + b` reads __add__ and __radd__, `a += b` also __iadd__.
_BINARY = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.MatMult: "matmul",
    ast.Div: "truediv",
    ast.FloorDiv: "floordiv",
    ast.Mod: "mod",
    ast.Pow: "pow",
    ast.LShift: "lshift",
    ast.RShift: "rshift",
    ast.BitOr: "or",
    ast.BitXor: "xor",
    ast.BitAnd: "and",
}
_UNARY = {ast.USub: ("__neg__",), ast.UAdd: ("__pos__",), ast.Invert: ("__invert__",)}
_COMPARE = {
    ast.Eq: ("__eq__",),
    ast.NotEq: ("__ne__", "__eq__"),
    ast.Lt: ("__lt__", "__gt__"),
    ast.LtE: ("__le__", "__ge__"),
    ast.Gt: ("__gt__", "__lt__"),
    ast.GtE: ("__ge__", "__le__"),
    ast.In: ("__contains__",),
    ast.NotIn: ("__contains__",),
}
OPERATOR_METHODS = (
    {f"__{p}{name}__" for name in _BINARY.values() for p in ("", "r", "i")}
    | {name for names in _UNARY.values() for name in names}
    | {name for names in _COMPARE.values() for name in names}
)


def operator_reads(node):
    """The operator methods that the expression `node` may call."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        name = _BINARY[type(node.op)]
        return (f"__{name}__", f"__r{name}__")
    if isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
        name = _BINARY[type(node.op)]
        return (f"__i{name}__", f"__{name}__", f"__r{name}__")
    if isinstance(node, ast.UnaryOp):
        return _UNARY.get(type(node.op), ())
    if isinstance(node, ast.Compare):
        return tuple(name for op in node.ops for name in _COMPARE.get(type(op), ()))
    return ()


def defined_names(statement):
    """The names a top-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def public_definitions(trees=None):
    """(module, name) of every public top-level function, class and
    module-level name of `trees`, (module, tree) pairs that default to the
    package."""
    return {
        (module, name)
        for module, tree in (package_trees() if trees is None else trees)
        for statement in tree.body
        for name in defined_names(statement)
        if not name.startswith("_")
    }


def _package_module(module, level):
    """The package module an import names, '' for the package itself, or
    None when the import is not from the package."""
    if level == 1:
        return module or ""
    if module == "doublealg":
        return ""
    if module and module.startswith("doublealg."):
        return module.split(".", 1)[1]
    return None


def references(tree, own_module=None):
    """(module, name) pairs of package definitions that `tree` refers to,
    each with the top-level statement it occurs in."""
    modules = {}  # local alias -> package module
    names = {}  # local alias -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = _package_module(alias.name, 0)
                if source and alias.asname:
                    modules[alias.asname] = source
    out = []
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom):
                source = _package_module(node.module, node.level)
                if source:
                    out.extend(((source, a.name), statement) for a in node.names)
            elif isinstance(node, ast.Name):
                if node.id in names:
                    out.append((names[node.id], statement))
                elif own_module is not None:
                    out.append(((own_module, node.id), statement))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    out.append(((modules[node.value.id], node.attr), statement))
    return out


def outside_own_definition(refs, module):
    """The references of `refs`, a `references` result for `module`, that
    do not sit inside the definition or assignment they name."""
    return {
        ref
        for ref, statement in refs
        if not (ref[0] == module and ref[1] in defined_names(statement))
    }


def package_references():
    out = set()
    for path in PACKAGE.glob("*.py"):
        refs = references(ast.parse(path.read_text()), path.stem)
        out |= outside_own_definition(refs, path.stem)
    return out


def harness_references():
    out = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        out.update(ref for ref, _ in references(ast.parse(path.read_text())))
    return out


def library_snippet():
    """The python block under the README's `## Library` heading."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def readme_references():
    tree = ast.parse(library_snippet())
    return {
        (_package_module(node.module, node.level), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _package_module(node.module, node.level)
        for alias in node.names
    }


def public_methods(tree, module):
    """(module, class, name) of every public method and every operator
    method of a top-level class."""
    return {
        (module, node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and (not item.name.startswith("_") or item.name in OPERATOR_METHODS)
    }


def attribute_reads(tree, module):
    """(attribute name, enclosing definition path, receiver) of every
    attribute read in `tree`, an operator's methods counting as read by its
    expression; the path starts with `module`, then the names of the
    enclosing classes and functions.  The receiver is the name a read is
    written on, as `Klass` in `Klass.method`, else None."""
    out = set()

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path = path + (node.name,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            out.add((node.attr, path, receiver))
        out.update((name, path, None) for name in operator_reads(node))
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, (module,))
    return out


def unread_methods(methods, reads):
    """The methods of `methods` whose name no read of `reads` takes outside
    the method's own definition.  A read written on a class of `methods`,
    as `Klass.method`, counts for that class only; a read through any other
    receiver counts for every class with a method of that name."""
    classes = {cls for _, cls, _ in methods}
    return {
        method
        for method in methods
        if not any(
            name == method[2]
            and path[:3] != method
            and (receiver not in classes or receiver == method[1])
            for name, path, receiver in reads
        )
    }


def package_trees():
    return [(path.stem, ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")]


def product_trees():
    """(label, tree) of every package module, every perfbench file and the
    README's Library snippet."""
    out = package_trees()
    out += [
        (f"perfbench/{path.name}", ast.parse(path.read_text()))
        for path in (ROOT / "perfbench").rglob("*.py")
    ]
    out.append(("README.md", ast.parse(library_snippet())))
    return out


def dotted(pairs):
    return sorted(f"{module}.{name}" for module, name in pairs)


def test_every_public_definition_is_used_by_the_product():
    used = package_references() | harness_references() | readme_references()
    assert dotted(public_definitions() - used) == []


def test_only_the_listed_names_are_kept_for_outside_callers():
    outside_only = public_definitions() - package_references()
    assert set(dotted(outside_only)) == EXTERNAL_ONLY


def module_attribute_reads(tree):
    """Every `module.name` that `tree` reads as an attribute of a plain name,
    as "module.name"."""
    return {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def test_each_outside_only_name_has_a_harness_caller():
    """Each name kept for outside callers is read as `algebroid.<name>` by a
    harness file, so the change that drops its last harness call fails
    here until it deletes the name."""
    files = (ROOT / "perfbench").glob("*.py")
    reads = set().union(*(module_attribute_reads(ast.parse(path.read_text())) for path in files))
    assert sorted(EXTERNAL_ONLY - reads) == []


def test_the_outside_caller_guard_sees_only_qualified_reads():
    """A read through the module counts; an imported name, a string and a
    comment do not."""
    tree = ast.parse(
        "from doublealg import algebroid\n"
        "from doublealg.algebroid import tangent_algebroid\n"
        "# algebroid.lie_algebra_to_algebroid\n"
        "def rung(chart):\n"
        "    note = 'algebroid.cotangent_algebroid'\n"
        "    return algebroid.change_frames(tangent_algebroid(chart), [[1]], ('v',))\n"
    )
    assert sorted(EXTERNAL_ONLY - module_attribute_reads(tree)) == [
        "algebroid.cotangent_algebroid",
        "algebroid.lie_algebra_to_algebroid",
        "algebroid.tangent_algebroid",
    ]


def test_the_guard_sees_an_unused_definition():
    """A definition that only its own body mentions is reported; one that
    another module imports is not."""
    tree = ast.parse(
        "from .exact import Chart\n"
        "def lonely(n):\n    return lonely(n - 1)\n"
        "def used():\n    return Chart(())\n"
        "def caller():\n    return used()\n"
    )
    refs = outside_own_definition(references(tree, "m"), "m")
    assert ("m", "used") in refs and ("exact", "Chart") in refs
    assert ("m", "lonely") not in refs


def test_the_guard_sees_an_unread_module_level_name():
    """A type alias or constant that only its own assignment mentions is
    reported; one that another statement reads is not, and private names
    are not checked."""
    tree = ast.parse(
        "from typing import Tuple\n"
        "Lonely = Tuple[int, ...]\n"
        "LIMIT: int = 3\n"
        "COUNT = COUNT_BASE = 2\n"
        "_private = 1\n"
        "def sized(n: int = LIMIT):\n    return (n,) * COUNT\n"
    )
    assert public_definitions([("m", tree)]) == {
        ("m", "Lonely"), ("m", "LIMIT"), ("m", "COUNT"), ("m", "COUNT_BASE"), ("m", "sized")
    }
    refs = outside_own_definition(references(tree, "m"), "m")
    unread = public_definitions([("m", tree)]) - refs
    assert unread == {("m", "Lonely"), ("m", "COUNT_BASE"), ("m", "sized")}


def test_every_public_method_is_used_by_the_product():
    methods = set().union(*(public_methods(tree, module) for module, tree in package_trees()))
    reads = set().union(*(attribute_reads(tree, label) for label, tree in product_trees()))
    assert sorted(".".join(m) for m in unread_methods(methods, reads)) == []


def test_the_guard_sees_an_unused_method():
    """A method that only its own body reads is reported; one that another
    method or a module function reads is not."""
    tree = ast.parse(
        "class Thing:\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1)\n"
        "    def used(self):\n        return 1\n"
        "    def caller(self):\n        return self.used()\n"
        "def outside(thing):\n    return thing.caller()\n"
    )
    methods = public_methods(tree, "m")
    assert methods == {("m", "Thing", "lonely"), ("m", "Thing", "used"), ("m", "Thing", "caller")}
    assert unread_methods(methods, attribute_reads(tree, "m")) == {("m", "Thing", "lonely")}


def test_the_guard_reads_a_class_qualified_method_for_its_class_only():
    """`Thing.zero` reads the `zero` of Thing and not that of Other; a read
    of `one` through an instance counts for both classes."""
    tree = ast.parse(
        "class Thing:\n"
        "    def zero(self):\n        return Thing()\n"
        "    def one(self):\n        return 1\n"
        "class Other:\n"
        "    def zero(self):\n        return Other()\n"
        "    def one(self):\n        return 1\n"
        "def outside(x):\n    return Thing.zero(x), x.one()\n"
    )
    methods = public_methods(tree, "m")
    assert unread_methods(methods, attribute_reads(tree, "m")) == {("m", "Other", "zero")}


def test_the_guard_sees_an_unused_operator_method():
    """An operator method that only its own body calls is reported; one that
    an operator outside it calls, in any form, is not; other dunder methods
    are not checked."""
    tree = ast.parse(
        "class Thing:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    def __mul__(self, other):\n        return self * other.n\n"
        "    def __neg__(self):\n        return Thing(-self.n)\n"
        "    def __sub__(self, other):\n        return -other\n"
        "    def __lt__(self, other):\n        return self.n < other.n\n"
        "def outside(a, b):\n    a -= b\n    return b > a\n"
    )
    methods = public_methods(tree, "m")
    assert {name for _, _, name in methods} == {"__mul__", "__neg__", "__sub__", "__lt__"}
    assert unread_methods(methods, attribute_reads(tree, "m")) == {("m", "Thing", "__mul__")}


# The packed exponent layout of a polynomial and the constructors that trust
# their input to be in it: `exact` defines them, and the inner loops of
# `algebroid` read them; every other module goes through `Polynomial` and
# `Chart`, whose `Polynomial(chart, terms)` validates its terms.
LAYOUT_NAMES = {"EXPONENT_BITS", "_MASK", "_shifts", "_units", "_limit", "_pack", "_unpack"}
TRUSTED_CONSTRUCTORS = {"_from_terms", "_from_canonical"}
LAYOUT_MODULES = {"exact", "algebroid"}


def kernel_reads(tree, names):
    """The names of `names` that `tree` reads, as a name, an attribute or
    an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            out.add(name)
    return out


def assert_only_exact_and_algebroid_read(names):
    readers = {module: kernel_reads(tree, names) for module, tree in package_trees()}
    assert {m: found for m, found in readers.items() if found and m not in LAYOUT_MODULES} == {}
    assert readers["exact"] and readers["algebroid"]


def test_only_exact_and_algebroid_read_the_exponent_layout():
    assert_only_exact_and_algebroid_read(LAYOUT_NAMES)


def test_only_exact_and_algebroid_call_the_trusted_constructors():
    assert_only_exact_and_algebroid_read(TRUSTED_CONSTRUCTORS)


def test_the_layout_guard_sees_a_reader():
    tree = ast.parse(
        "from .exact import EXPONENT_BITS\n"
        "def width(p):\n    return p.chart._limit >> EXPONENT_BITS\n"
    )
    assert kernel_reads(tree, LAYOUT_NAMES) == {"EXPONENT_BITS", "_limit"}


def test_the_trusted_constructor_guard_sees_a_reader():
    tree = ast.parse(
        "from .exact import Polynomial\n"
        "def build(chart, acc):\n    return Polynomial._from_terms(chart, acc)\n"
    )
    assert kernel_reads(tree, TRUSTED_CONSTRUCTORS) == {"_from_terms"}
    assert kernel_reads(tree, LAYOUT_NAMES) == set()


# Model-file input goes through the validating constructors; the trusted
# ones are for the structures the package derives itself.
DERIVED_CONSTRUCTORS = {"_from_store", "_from_stored"}


def test_model_input_never_meets_the_derived_structure_constructors():
    readers = {module: kernel_reads(tree, DERIVED_CONSTRUCTORS) for module, tree in package_trees()}
    assert readers["model"] == readers["parsing"] == set()
    assert readers["lavb"] == readers["doublela"] == readers["matched"] == DERIVED_CONSTRUCTORS


# The validating constructors of algebroids and LA-vector bundles serve
# outside input only: the model file, `LieAlgebra` and the tangent and
# cotangent algebroids of a chart and of a Poisson chart.  Every structure
# the package derives, the bowtie and the vacant double's bundles among
# them, goes through `_from_store` and `_from_stored`.
VALIDATING_CONSTRUCTORS = {"LieAlgebroid", "LAVBundle"}
VALIDATING_CALLERS = {
    ("algebroid", "cotangent_algebroid", "LieAlgebroid"),
    ("algebroid", "tangent_algebroid", "LieAlgebroid"),
    ("liealg", "LieAlgebra", "LieAlgebroid"),
    ("model", "parse_model", "LAVBundle"),
    ("model", "parse_model", "LieAlgebroid"),
}


def calling_definitions(trees, names):
    """(module, top-level definition, name) for each name of `names` that a
    top-level definition of `trees`, (module, tree) pairs, calls."""
    return {
        (module, defined, name)
        for module, tree in trees
        for statement in tree.body
        for defined in defined_names(statement)
        for name in constructor_calls(statement, names)
    }


def test_only_outside_input_meets_the_validating_constructors():
    assert calling_definitions(package_trees(), VALIDATING_CONSTRUCTORS) == VALIDATING_CALLERS


def test_the_validating_constructor_guard_sees_each_caller():
    """A call in a function body, in a method and in a nested helper is
    reported under its top-level definition; the trusted constructors and
    a mere reference are not calls of the validating ones."""
    tree = ast.parse(
        "from .algebroid import LieAlgebroid\n"
        "from .lavb import LAVBundle\n"
        "def direct(chart):\n    return LieAlgebroid(chart, (), ())\n"
        "class Pair:\n"
        "    def bundle(self, side):\n"
        "        def vacant():\n            return LAVBundle(side, (), (), (), (), ())\n"
        "        return vacant()\n"
        "def trusted(chart, store):\n    return LieAlgebroid._from_store(chart, (), (), store)\n"
        "def named():\n    return LieAlgebroid\n"
    )
    assert calling_definitions([("m", tree)], VALIDATING_CONSTRUCTORS) == {
        ("m", "direct", "LieAlgebroid"), ("m", "Pair", "LAVBundle")
    }


# `VectorField` and `Multisection` trust their components: the package
# builds them only from anchor rows that `LieAlgebroid` checked and from
# values it computed.  The modules that read outside input never call them,
# and no class keeps a second constructor `_from_components` beside them.
TRUSTING_CONSTRUCTORS = {"VectorField", "Multisection"}


def constructor_calls(tree, names):
    """The names of `names` that `tree` calls, as a name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.add(name)
    return out


def classes_defining(tree, method):
    """The classes of `tree` that define `method`."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)
    }


def test_outside_input_never_meets_the_trusting_constructors():
    calls = {module: constructor_calls(tree, TRUSTING_CONSTRUCTORS) for module, tree in package_trees()}
    assert calls["model"] == calls["parsing"] == set()
    assert calls["algebroid"] == TRUSTING_CONSTRUCTORS
    twins = {module: classes_defining(tree, "_from_components") for module, tree in package_trees()}
    assert {module: found for module, found in twins.items() if found} == {}


def test_the_trusting_constructor_guard_sees_a_call_and_a_twin():
    tree = ast.parse(
        "from . import algebroid\n"
        "from .algebroid import Multisection\n"
        "class Field:\n"
        "    @classmethod\n    def _from_components(cls, chart, comps):\n"
        "        return algebroid.VectorField(chart, comps)\n"
        "def zero():\n    return Multisection(1, 0, {})\n"
    )
    assert constructor_calls(tree, TRUSTING_CONSTRUCTORS) == TRUSTING_CONSTRUCTORS
    assert classes_defining(tree, "_from_components") == {"Field"}


def _is_cache(decorator):
    """Whether a decorator is `functools.cache` or `lru_cache`, called or not."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in {"cache", "lru_cache"}


def self_calling_cached_closures(tree):
    """The cache-decorated functions nested in a function of `tree` that
    call themselves.  Such a closure holds its own cache wrapper in a cell,
    a reference cycle that keeps what it cached and what it closes over
    alive until the cyclic collector runs."""
    out = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, ast.FunctionDef):
                continue
            calls = {n.func.id for n in ast.walk(inner) if isinstance(n, ast.Call) and hasattr(n.func, "id")}
            if inner.name in calls and any(map(_is_cache, inner.decorator_list)):
                out.add(inner.name)
    return out


def test_no_cached_closure_calls_itself():
    found = {module: names for module, tree in package_trees() if (names := self_calling_cached_closures(tree))}
    assert found == {}


def test_the_cycle_guard_sees_a_self_calling_cached_closure():
    """Nested cached functions that call themselves are reported; a cached
    one that does not, an uncached recursive one and a cached recursive
    module-level function are not."""
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "def outer(n):\n"
        "    @functools.cache\n    def loop(k):\n        return loop(k - 1) if k else 0\n"
        "    @lru_cache(maxsize=None)\n    def spin(k):\n        return spin(k)\n"
        "    @functools.cache\n    def leaf(k):\n        return k\n"
        "    def plain(k):\n        return plain(k - 1) if k else leaf(k)\n"
        "    return loop(n) + spin(n) + plain(n)\n"
        "@functools.cache\ndef top(k):\n    return top(k - 1) if k else 0\n"
    )
    assert self_calling_cached_closures(tree) == {"loop", "spin"}


def id_calls(tree):
    """The lines of `tree` that call the builtin `id`.  A cache keyed by
    `id` outlives the objects it keys, and keeps them alive when it holds
    them; derived data is stored on its object instead (`LieAlgebroid.sparsity`)."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    }


def test_no_module_calls_id():
    found = {module: lines for module, tree in package_trees() if (lines := id_calls(tree))}
    assert found == {}


def test_the_id_guard_sees_a_call():
    """A call of `id` is reported; a method or attribute named `id` and a
    name `id` that is read without a call are not."""
    tree = ast.parse(
        "_CACHE = {}\n"
        "def pattern(L):\n"
        "    key = id(L)\n"
        "    return _CACHE.setdefault(key, L.id()) or L.id or id\n"
    )
    assert id_calls(tree) == {3}


def test_readme_library_snippet_runs():
    """The documented API still imports and its assertions hold."""
    exec(compile(library_snippet(), "README.md:Library", "exec"), {})


def test_every_module_name_the_readme_gives_resolves():
    """Each backticked `<module>.<name>` of the README whose module is a
    package module names something that module has."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    named = re.findall(r"`([a-z_]+)((?:\.\w+)+)`", (ROOT / "README.md").read_text())
    named = [(module, path) for module, path in named if module in modules]
    assert named
    for module, path in named:
        target = importlib.import_module(f"doublealg.{module}")
        for attribute in path[1:].split("."):
            assert hasattr(target, attribute), f"README names {module}{path}"
            target = getattr(target, attribute)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_each_module_imports_on_its_own(module):
    name = "doublealg" if module == "__init__" else f"doublealg.{module}"
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr


def test_the_version_is_stated_once():
    """`pyproject.toml` reads the package version off `doublealg.__version__`,
    the one every report prints, instead of repeating it; setuptools reads
    that attribute without importing the package while it is a literal."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {"version": {"attr": "doublealg.__version__"}}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (value,) = [
        node.value
        for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__version__"]
    ]
    assert isinstance(ast.literal_eval(value), str)
