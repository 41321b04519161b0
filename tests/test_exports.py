"""Every exported name, and every public method of an exported class, has a
caller in the package, the demos or the bench.

A name that only tests call belongs in ``tests/references.py``, not in
``src``. A reference is a use of the name (a load, an attribute or an import)
outside the ``def`` or ``class`` that defines it; ``__init__.py`` only
re-exports, so it does not count.

A reference matches a name, not its owner, so a method name that unrelated
package classes share is pinned per owner in ``SHARED``: each names a
function in ``src`` that calls it. A new shared name has to name its caller.

Every ``trace.aux`` key that ``src`` stores is read outside the function
that stores it, in ``src``, the demos or the bench: a key that only tests
read is a check that belongs in ``verify``.

The Euclidean norm has one home as well, ``metric.norm``, and so has the
power term that rho, f_reg and the augmented Taylor model add to their parts:
``bregman.AnchoredModel``, whose pass has one shape, ``bregman.Pass``.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path

import hiprox

ROOT = Path(__file__).resolve().parents[1]

# owner.method -> "module:function" in src/hiprox that calls that owner's method
SHARED = {
    "AnchoredModel.evaluate": "inner:exact_prox",
    "AnchoredModel.gradient": "verify:suite_tensor",
    "AnchoredModel.hessian_matrix": "verify:suite_sandwich",
    "AnchoredModel.value": "bregman:bregman_distance",
    "EstimatingState.value": "verify:_estseq_margins",
    "InnerTrace.to_csv": "cli:_write_trace",
    "OuterTrace.to_csv": "cli:_write_trace",
    "PowerProx.value": "outer:EstimatingState.value",
    "SmoothOracle.evaluate": "problems:newton_reference",
    "SmoothOracle.gradient": "inner:StepSolver.step",
    "SmoothOracle.hessian_matrix": "oracles:SmoothOracle.evaluate",
    "SmoothOracle.value": "outer:_start",
}


def _sources():
    package = ROOT / "src" / "hiprox"
    yield from (path for path in sorted(package.glob("*.py")) if path.name != "__init__.py")
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "bench").glob("*.py"))


def _references(tree):
    """Names used in tree, each outside the def or class of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _used():
    used = set()
    for path in _sources():
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    return used


def test_every_export_has_a_caller_outside_tests():
    assert sorted(set(hiprox.__all__) - _used()) == []


def _public_methods():
    """(class, name) of each public method of the exported classes and the package
    classes they inherit from."""
    classes = []
    for name in hiprox.__all__:
        obj = getattr(hiprox, name)
        if inspect.isclass(obj):
            classes += [cls for cls in obj.__mro__
                        if cls.__module__.startswith("hiprox.") and cls not in classes]
    kinds = (staticmethod, classmethod, property, cached_property)
    return [(cls, name) for cls in classes for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_every_public_method_of_an_exported_class_has_a_caller_outside_tests():
    methods, used = _public_methods(), _used()
    unused = ["%s.%s" % (cls.__name__, name) for cls, name in methods if name not in used]
    assert methods and unused == []


def _shared_owners():
    """owner.method for each public method name that unrelated classes define;
    the owners are the classes that define it and inherit it from none of the others."""
    defined = {}
    for cls, name in _public_methods():
        defined.setdefault(name, []).append(cls)
    owners = set()
    for name, classes in defined.items():
        roots = [cls for cls in classes
                 if not any(other is not cls and issubclass(cls, other) for other in classes)]
        if len(roots) > 1:
            owners.update("%s.%s" % (cls.__name__, name) for cls in roots)
    return owners


def _function(tree, qualname):
    """The def of a dotted name (Class.method) at the top of a module's tree, or None."""
    nodes = tree.body
    for part in qualname.split("."):
        found = [node for node in nodes
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part]
        if not found:
            return None
        nodes = found[0].body
    return found[0]


def test_every_shared_method_name_names_its_caller_in_src():
    assert sorted(_shared_owners()) == sorted(SHARED)
    for owner, caller in SHARED.items():
        method = owner.split(".")[1]
        module, qualname = caller.split(":")
        path = ROOT / "src" / "hiprox" / (module + ".py")
        node = _function(ast.parse(path.read_text(), filename=str(path)), qualname)
        assert node is not None, caller
        calls = {sub.func.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)}
        assert method in calls, (owner, caller)


def _aux_keys(tree, module):
    """(stores, reads) of ``aux["key"]`` subscripts and ``aux.get("key")`` calls in tree.

    Each is (key, where), where being the module and the dotted name of the
    def or class the subscript or call sits in. A store is an assignment to
    ``aux["key"]``; every other use is a read.
    """
    stores, reads = [], []

    def is_aux(node):
        return getattr(node, "attr", getattr(node, "id", None)) == "aux"

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if (isinstance(node, ast.Subscript) and is_aux(node.value)
                and isinstance(node.slice, ast.Constant)):
            found = stores if isinstance(node.ctx, ast.Store) else reads
            found.append((node.slice.value, where))
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
                and is_aux(node.func.value) and isinstance(node.args[0], ast.Constant)):
            reads.append((node.args[0].value, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, (module,))
    return stores, reads


def test_every_stored_aux_key_is_read_outside_the_function_that_stores_it():
    stores, reads = [], []
    for path in _sources():
        found = _aux_keys(ast.parse(path.read_text(), filename=str(path)), path.name)
        if path.parent.name == "hiprox":
            stores += found[0]
        reads += found[1]
    unread = sorted({key for key, where in stores
                     if not any(k == key and w != where for k, w in reads)})
    assert stores and unread == []


def test_the_euclidean_norm_has_one_home():
    # no module but metric.py spells |v| out, and the empty MetricSpace is
    # kept only as a name for the tracer: nothing builds one
    package = ROOT / "src" / "hiprox"
    spelled, built = [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name != "metric.py" and "math.sqrt(float(np.dot(" in text:
            spelled.append(path.name)
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "MetricSpace":
                    built.append("%s:%d" % (path.name, node.lineno))
    assert spelled == []
    assert built == []
    assert "MetricSpace" not in hiprox.__all__


def test_the_power_term_has_one_home():
    # PowerProx._terms is called outside metric.py only by the anchored
    # models' one pass and by a certificate that is given no pass; no module
    # reads a private power term of another object
    package = ROOT / "src" / "hiprox"
    calls, private = [], []

    def visit(node, where, path):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_terms":
            calls.append("%s:%s" % (path.name, ".".join(where)))
        if isinstance(node, ast.Attribute) and node.attr == "_pp":
            private.append("%s:%d" % (path.name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where, path)

    for path in sorted(package.glob("*.py")):
        if path.name != "metric.py":
            visit(ast.parse(path.read_text(), filename=str(path)), (), path)
    assert calls == ["acceptance.py:check_acceptable", "bregman.py:AnchoredModel.evaluate"]
    assert private == []


def test_a_pass_has_one_shape():
    # a model's pass is one ``bregman.Pass``: no module names the retired
    # method that returned it nested with its part (spelled in two pieces so
    # that this file does not name it either), and no certificate is handed a
    # tuple literal for its power term in place of the pass
    retired = "with" + "_part"
    named, literal = [], []
    for path in list(_sources()) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if retired in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None), getattr(node, "value", None)):
                named.append("%s:%d" % (path.name, node.lineno))
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == "check_acceptable":
                args = node.args + [k.value for k in node.keywords]
                if any(isinstance(arg, ast.Tuple) for arg in args):
                    literal.append("%s:%d" % (path.name, node.lineno))
    assert named == []
    assert literal == []
