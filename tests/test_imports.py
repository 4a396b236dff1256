"""Every module of the package and of the tests uses each name it imports,
every function or class the package defines has a user, every parameter
of the package's functions is read, and so is every field of its classes.

``meancert/__init__.py`` is left out of the import scan: its imports are
the package's re-exports, which ``test_readme`` checks against ``__all__``.
"""
import ast
import pathlib

import pytest

import meancert

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "meancert").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
# definitions that only callers outside the package use, and why
UNREFERENCED_OK = {
    "report.strip_volatile": "tests compare reports byte for byte with the timings removed",
}
# fields of the package's classes that only callers outside the package read, and why
UNREAD_FIELDS_OK = {
    "ScalarTrial.a": "a trial names the point it judged; library callers and tests read it",
    "ScalarTrial.b": "a trial names the point it judged; library callers and tests read it",
}


def unused_imports(source: str) -> list[str]:
    """The names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(a, os)\n"
    assert unused_imports(source) == ["math", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict[str, str], exported=()) -> list[str]:
    """``module.name`` of each module-level function or class in ``sources``
    (module name -> source) whose name no expression of any of them reads,
    as a name or as an attribute, and that ``exported`` does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def test_the_scan_sees_a_dead_definition():
    sources = {"a": "def used():\n    pass\nclass Dead:\n    pass\ndef exported():\n    pass\n",
               "b": "from .a import used\nused()\nx.attr_use\ndef attr_use():\n    pass\n"}
    assert dead_definitions(sources, exported=["exported"]) == ["a.Dead"]


def test_every_definition_has_a_user():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert sorted(dead_definitions(sources, meancert.__all__)) == sorted(UNREFERENCED_OK)


def unread_parameters(source: str) -> list[str]:
    """``name(parameter)`` for each parameter of a function or lambda in
    ``source``, other than ``self`` and ``cls``, that its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
        elif isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        else:
            continue
        a = node.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, [a.vararg, a.kwarg])]]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p})" for p in params
                   if p not in ("self", "cls") and p not in read]
    return unread


def test_the_scan_sees_an_unread_parameter():
    source = ("def f(self, a, b=0, *args, knob=1e-9, **kw):\n"
              "    def g(c):\n        return a + b\n"
              "    b = kw\n    return g, args\n"
              "key = lambda cls, row: 0\n")
    assert unread_parameters(source) == ["f(knob)", "g(c)", "lambda(row)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``Class.field`` for each annotated field of a class in ``sources``
    (module name -> source) that no expression of any of them reads as an
    attribute; assigning it does not count."""
    trees = [ast.parse(source) for source in sources.values()]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{stmt.target.id}" for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_the_scan_sees_an_unread_field():
    sources = {"a": "class C:\n    x: int\n    y: int = 0\n    z: ClassVar[str]\n"
                    "    def f(self):\n        self.y = self.x\n",
               "b": "def g(c):\n    return c.z\n"}
    assert unread_fields(sources) == ["C.y"]


def test_every_field_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert sorted(unread_fields(sources)) == sorted(UNREAD_FIELDS_OK)
