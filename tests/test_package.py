import ast
import dataclasses
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import treeshort
from treeshort.generators import FAMILIES
from treeshort.sim import NodeContext, NodeProgram

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_networkx():
    # networkx is a test-only dependency (the planarity oracle)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, treeshort; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@functools.cache
def readme_block_outputs():
    """Run every ```python block of README.md once per session, each in a
    fresh interpreter with only src on the path, and map it to its stdout."""
    readme = (SRC.parent / "README.md").read_text()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = {}
    with tempfile.TemporaryDirectory() as cwd:
        for code in re.findall(r"```python\n(.*?)```", readme, re.S):
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs[code] = proc.stdout
    return outputs


def readme_library_block():
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return code


def test_readme_python_blocks_run():
    """Every README Python block runs, so an API change cannot leave an
    example broken; the "Library use" block is among them."""
    assert readme_library_block() in readme_block_outputs()


def test_readme_family_table_lists_every_family():
    """README's family table has one row per `FAMILIES` entry, in order,
    with the family's param names, so a new family cannot land without one."""
    readme = (SRC.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, re.M)
    assert rows == [(name, " ".join(spec.params)) for name, spec in FAMILIES.items()]


def attributes(trees, outside=None):
    """The attribute names read in the syntax trees `trees`, leaving out the
    body of any class named `outside`."""
    names, stack = set(), list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == outside:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


@functools.cache
def program_trees():
    """The syntax trees of every library module but `__init__` and of
    perfbench's modules."""
    root = SRC.parent
    sources = [p.read_text() for p in (SRC / "treeshort").glob("*.py") if p.name != "__init__.py"]
    sources += [p.read_text() for p in (root / "perfbench").glob("*.py")]
    return [ast.parse(source) for source in sources]


@functools.cache
def caller_trees():
    """`program_trees` and the syntax trees of the README Python blocks: the
    code that counts as a caller outside the tests."""
    blocks = re.findall(r"```python\n(.*?)```", (SRC.parent / "README.md").read_text(), re.S)
    return program_trees() + [ast.parse(code) for code in blocks]


def test_every_public_name_has_a_caller_outside_the_tests():
    """No public symbol exists only for its tests: each non-module name in
    `treeshort.__all__` is read in another library module, in perfbench or
    in a README Python block, and so is each public member of the
    node-program interface (`NodeContext`, `NodeProgram`), as an attribute
    outside its own class's body."""
    trees = caller_trees()
    used = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= attributes(trees)
    public = {
        name
        for name in treeshort.__all__
        if not isinstance(getattr(treeshort, name), types.ModuleType)
    }
    unread = []
    for cls in (NodeContext, NodeProgram):
        read = attributes(trees, outside=cls.__name__)
        unread += sorted(name for name in vars(cls) if name[0] != "_" and name not in read)
    assert sorted(public - used) + unread == []


def test_every_dataclass_field_is_read_outside_the_tests():
    """No field exists only for its tests: each field of each public
    dataclass in `src/treeshort/` is read as an attribute in the library, in
    perfbench or in a README Python block.  The check goes by name, so it
    cannot see a field whose name is also another object's attribute: a
    `LowerBoundInstance.k` would pass on every `p.k` of a partition."""
    read = attributes(caller_trees())
    unread = []
    for path in sorted((SRC / "treeshort").glob("[!_]*.py")):
        module = importlib.import_module(f"treeshort.{path.stem}")
        for name, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if name[0] != "_" and cls.__module__ == module.__name__:
                fields = {f.name for f in dataclasses.fields(cls)}
                unread += sorted(f"{name}.{field}" for field in fields - read)
    assert unread == []


def test_every_slot_is_read():
    """No slot is only written: each `__slots__` entry of each class in
    `src/treeshort/`, private classes included, is loaded as an attribute in
    the library or in perfbench.  The check goes by name, as the dataclass
    lint does."""
    read = {
        node.attr
        for tree in program_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted((SRC / "treeshort").glob("[!_]*.py")):
        module = importlib.import_module(f"treeshort.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                slots = vars(cls).get("__slots__", ())
                unread += sorted(f"{name}.{slot}" for slot in set(slots) - read)
    assert unread == []


def exception_classes():
    """The exception classes defined in `src/treeshort/`, by name."""
    found = {}
    for path in sorted((SRC / "treeshort").glob("[!_]*.py")):
        module = importlib.import_module(f"treeshort.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[name] = cls
    return found


def test_exceptions_carry_only_their_message():
    """No exception class in `src/treeshort/` defines its own `__init__`, so
    none carries a payload beyond its message.  This covers what the
    name-based field lint cannot see: an exception attribute such as a
    `certificates` or a `trace` passes that lint whenever another object
    has an attribute of the same name."""
    with_init = [name for name, cls in exception_classes().items() if "__init__" in vars(cls)]
    assert with_init == []


def test_every_exception_class_is_caught_by_name():
    """Each exception class in `src/treeshort/` is named by an `except`
    clause in the library, in perfbench or in a README Python block, alone
    or in a tuple: a subclass that only the tests tell apart from its base
    is one more concept with no caller."""
    caught = set()
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id for t in named if isinstance(t, ast.Name)}
                caught |= {t.attr for t in named if isinstance(t, ast.Attribute)}
    assert sorted(exception_classes().keys() - caught) == []


def test_validators_return_none():
    """Each public module-level `validate_*` or `check_*` function in
    `src/treeshort/` is annotated `-> None`: a validator raises GraphError
    on invalid input rather than returning a result object for its caller
    to turn into an error."""
    returning = []
    for path in sorted((SRC / "treeshort").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("validate_", "check_")):
                if not (isinstance(node.returns, ast.Constant) and node.returns.value is None):
                    returning.append(node.name)
    assert returning == []


def test_only_graph_reads_the_adjacency_tuples():
    """No module in `src/treeshort/` but `graph.py` reads a graph's `_nbrs`
    or `_eids`: the rest of the library goes through `Graph.neighbors` and
    `Graph.adjacency`, so the stored layout can change in one module."""
    readers = []
    for path in sorted((SRC / "treeshort").glob("*.py")):
        if path.name != "graph.py":
            found = attributes([ast.parse(path.read_text())]) & {"_nbrs", "_eids"}
            readers += [f"{path.name}: {name}" for name in sorted(found)]
    assert readers == []


def test_no_module_imports_gc():
    """No module in `src/treeshort/` imports `gc`: the library keeps out of
    its caller's collector settings, so a cut in collections has to come from
    allocating fewer container objects."""
    importers = []
    for path in sorted((SRC / "treeshort").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "gc" for name in names):
                importers.append(path.name)
    assert importers == []
