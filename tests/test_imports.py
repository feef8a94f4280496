"""Every top-level import of a package module is used in that module,
every module-level private name is read somewhere in the package, every
public name has a reader, and only the input boundary decodes JSON or
touches the garbage collector. The checks read the source with ``ast``: a
name bound by an import must be read somewhere in its module
(``__init__.py`` re-exports, so it is left out), a ``_private`` function,
class or constant must be read in some module of the package, by name or
as an attribute, a public function, class or method must be read the same
way by the package, a ``perfbench`` script or the acceptance tests (a
bare name that script binds itself does not count), or be named in the
README's code or be a command's entry point, and no module
but ``_json.py`` may call ``json.loads``, ``json.load`` or a ``read_text``
method, or import ``gc``. Only ``simulation.py`` and ``execution.py``
import numpy outside a function, so importing the rest never loads it.
The value types built per anchor or per input row store each field once
through its slot: they define no ``__post_init__`` and touch neither
``object.__setattr__`` nor ``__dict__``."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stackgrasp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module body's import statements bind and that no
    ``ast.Name`` in the module reads, in the order they are imported."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def _private_definitions(tree: ast.Module) -> list[str]:
    # module-level functions, classes and assigned names that start with
    # one underscore (dunders such as __all__ are the language's)
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    # names loaded anywhere, attributes taken of anything, and names that
    # another module imports
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every module-level ``_private`` name of the
    given sources (module name to text) that no source reads, in module
    then definition order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(_reads, trees.values())) if trees else set()
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]


def test_finds_an_unused_import():
    source = "import json\nimport math as m\nfrom typing import Mapping, Sequence\nx: Sequence = m.pi\n"
    assert unused_imports(source) == ["json", "Mapping"]


def test_future_import_is_not_a_name():
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_private_name():
    sources = {
        "a": "_LIMIT = 3\n_UNUSED: int = 4\n__all__ = []\n"
             "def _helper():\n    return _LIMIT\n"
             "def _left_behind(p):\n    return p\n"
             "class _Shape:\n    pass\n",
        "b": "from .a import _helper\nimport a\nx = _helper() + a._Shape\n",
    }
    assert unused_private_names(sources) == ["a._UNUSED", "a._left_behind"]


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def _public_definitions(tree: ast.Module) -> list[str]:
    # module-level functions and classes, and the methods of those classes
    # (``Class.method``), whose names do not start with an underscore
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{f.name}"
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [n for n in names if not n.rsplit(".", 1)[-1].startswith("_")]


def unused_public_names(sources: dict[str, str], readers: set[str]) -> list[str]:
    """``module.name`` or ``module.Class.method`` for every public function,
    class or method of the given sources (module name to text) whose name
    no source reads and ``readers`` does not hold, in module then
    definition order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set(readers).union(*map(_reads, trees.values()))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name.rsplit(".", 1)[-1] not in read
    ]


def _script_reads(tree: ast.Module) -> set[str]:
    # as _reads, less the bare names that the script binds itself (by
    # assignment, def, class or argument), unless it also takes them as
    # attributes or imports them: those are its own, not the package's
    own, taken = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            own.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.arg):
            own.add(node.arg)
        elif isinstance(node, ast.Attribute):
            taken.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            taken.update(a.name for a in node.names)
    return _reads(tree) - (own - taken)


def outside_readers(root: Path = ROOT) -> set[str]:
    """The names read outside the package of the checkout at ``root``: by a
    ``perfbench`` script or the acceptance tests, less the bare names that
    script binds itself, every identifier in a README code span or block,
    and the function of each ``module:function`` entry point in
    pyproject.toml."""
    scripts = [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    out = set().union(*(_script_reads(ast.parse(p.read_text())) for p in scripts))
    code = re.findall(r"```.*?```|`[^`]+`", (root / "README.md").read_text(), re.S)
    out.update(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))
    out.update(re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    return out


def test_finds_an_unused_public_name():
    sources = {
        "a": "def used():\n    pass\n"
             "def documented():\n    pass\n"
             "def left_behind():\n    pass\n"
             "class Shape:\n"
             "    def area(self):\n        return 1\n"
             "    def unread(self):\n        return 2\n"
             "    def _private(self):\n        return self.area()\n",
        "b": "from a import used\nimport a\nx = a.Shape().area\n",
    }
    assert unused_public_names(sources, {"documented"}) == ["a.left_behind", "a.Shape.unread"]


def test_finds_each_kind_of_outside_reader(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from pkg import timed\ntimed.call()\nlocal = 1\nprint(local)\n"
        "def helper(arg):\n    return arg\nhelper(2)\n"
    )
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "def test_a():\n    checked()\n    for item in checked.items:\n        item.size\n"
    )
    (tmp_path / "README.md").write_text(
        "Prose names unread.\n`spanned(x)`\n```python\nblocked.attr\n```\n"
    )
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\ntool = "pkg.cli:entry"\n')
    assert outside_readers(tmp_path) == {
        "timed", "call", "print", "checked", "items", "size",
        "spanned", "x", "python", "blocked", "attr", "entry",
    }


def test_no_unused_public_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_public_names(sources, outside_readers()) == []


def json_decode_calls(source: str) -> list[int]:
    """The line of every call of ``json.loads`` or ``json.load`` in the
    source, through the module (``json.loads(...)``, under any alias) or a
    name imported from it (``from json import loads``)."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name in ("load", "loads")}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
            and isinstance(f.value, ast.Name) and f.value.id in modules
        ) or (isinstance(f, ast.Name) and f.id in functions):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_a_json_decode_call():
    source = (
        "import json\nimport json as j\nfrom json import loads as parse, dumps\n"
        "a = json.loads('1')\nb = j.load(f)\nc = parse('2')\n"
        "d = json.dumps(a)\ne = dumps(b)\nf = other.loads(c)\n"
    )
    assert json_decode_calls(source) == [4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_boundary_decodes_json(path):
    if path.name == "_json.py":
        assert json_decode_calls(path.read_text()) != []
    else:
        assert json_decode_calls(path.read_text()) == []


def gc_imports(source: str) -> list[int]:
    """The line of every statement in the source that imports the ``gc``
    module or a name from it, at any depth (``import gc``,
    ``import os, gc as g``, ``from gc import disable``)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level)
    )


def test_finds_a_gc_import():
    source = (
        "import gc\nimport os, gc as collector\nfrom gc import disable\n"
        "import gcx\nfrom . import gc\nfrom .gc import x\n"
        "def f():\n    import gc\n"
    )
    assert gc_imports(source) == [1, 2, 3, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_boundary_imports_gc(path):
    # read_file pauses the collector; no other module may change its state
    if path.name == "_json.py":
        assert gc_imports(path.read_text()) != []
    else:
        assert gc_imports(path.read_text()) == []


def read_text_calls(source: str) -> list[int]:
    """The line of every call of a method named ``read_text`` in the source,
    on any object (``Path(p).read_text()``, ``path.read_text(...)``)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "read_text"
    )


def test_finds_a_read_text_call():
    source = (
        "from pathlib import Path\n"
        "a = Path(p).read_text()\nb = p.read_text(encoding='utf-8')\n"
        "c = p.read_bytes()\nd = p.write_text(a)\nread_text = 1\n"
    )
    assert read_text_calls(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_boundary_reads_text_files(path):
    if path.name == "_json.py":
        assert read_text_calls(path.read_text()) != []
    else:
        assert read_text_calls(path.read_text()) == []


def module_level_numpy_imports(source: str) -> list[int]:
    """The line of every statement that imports numpy, a numpy submodule or
    a name from either and that runs when the module is imported: any such
    import outside a function body (``import numpy as np``,
    ``from numpy.linalg import norm``, one under an ``if`` or a class)."""
    lines = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)) or (
            isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy"
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_finds_a_module_level_numpy_import():
    source = (
        "import numpy as np\nimport os, numpy.linalg\nfrom numpy import zeros\n"
        "import numpyx\nfrom . import numpy\nif True:\n    from numpy.random import default_rng\n"
        "class A:\n    import numpy\n"
        "def f():\n    import numpy as np\n    return np\n"
    )
    assert module_level_numpy_imports(source) == [1, 2, 3, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_array_modules_import_numpy(path):
    # the package loads these two on first use; plan, eval and augment
    # then start without numpy
    if path.name in ("simulation.py", "execution.py"):
        assert module_level_numpy_imports(path.read_text()) != []
    else:
        assert module_level_numpy_imports(path.read_text()) == []


def slow_constructor_parts(source: str, classes) -> list[int]:
    """The line of every ``__post_init__`` definition, ``object.__setattr__``
    reference and ``__dict__`` attribute, at any depth, in the module-level
    classes of the source whose names ``classes`` holds."""
    lines = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and node.name in classes):
            continue
        for n in ast.walk(node):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "__post_init__":
                lines.append(n.lineno)
            elif isinstance(n, ast.Attribute) and (
                n.attr == "__dict__"
                or (n.attr == "__setattr__" and isinstance(n.value, ast.Name) and n.value.id == "object")
            ):
                lines.append(n.lineno)
    return sorted(lines)


def test_finds_a_slow_constructor_part():
    source = (
        "class Fast:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"
        "class Slow:\n    def __post_init__(self):\n        pass\n"
        "    def __init__(self, x):\n        setter = object.__setattr__\n"
        "        self.__dict__['x'] = x\n        vars(self)\n        super().__setattr__('y', 2)\n"
    )
    assert slow_constructor_parts(source, {"Slow"}) == [5, 8, 9]


# built per anchor (OrientedAnchor, OrientedRect, GraspCandidate) or per
# input row (OrientedRect, AABox)
VALUE_TYPES = [
    ("geometry.py", "OrientedRect"),
    ("geometry.py", "AABox"),
    ("anchors.py", "OrientedAnchor"),
    ("perception.py", "GraspCandidate"),
]


@pytest.mark.parametrize("module, cls", VALUE_TYPES, ids=[c for _, c in VALUE_TYPES])
def test_value_types_store_each_field_once(module, cls):
    source = (PACKAGE / module).read_text()
    assert f"class {cls}:" in source
    assert slow_constructor_parts(source, {cls}) == []
