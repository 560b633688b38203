"""Every imported name in src/ and tests/ is used in its module, every
module-level private name in src/ is read somewhere in src/, a private
name that one module of src/ defines is read in no other, every public
function, class, constant and method in src/ is read somewhere in src/
outside the package __init__.py, every dataclass field in src/ is read as
an attribute somewhere in src/, perfbench/ or the acceptance gate outside
an __init__.py, and every parameter of a function or lambda in src/ is
read by its body. The package exports no submodule through __all__,
importing it does not load scipy.sparse.linalg, and no module of src/
other than fem.py and linsolve.py reads an attribute named `matrix`:
every other product with a grid system is `K @ v`. No module of src/ but
fem.py compares a `.mesh` attribute with `is` or `is not`: every other
check that operands share a mesh is `fem.same_mesh`.

A package __init__.py is exempt from the import check: its imports are
the public API. Names in string annotations count as used. A name counts
as read where it is loaded, imported or taken as an attribute; a method
counts as read wherever its name is. A field counts as read only where
an attribute of its name is loaded, or fetched by getattr with a constant
name: a local variable of the same name is not a read of it. `self`,
`cls` and `_`-prefixed parameters are exempt from the parameter check:
an interface may need a slot its implementation does not read.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import obstacle_control

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(tree):
    """Names inside string annotations such as "MatrixControlField"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                expr = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(expr)
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """(line, name) of every import in source that nothing references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _read_names(tree):
    """Names a module reads: loads, imports, attributes and annotations."""
    names = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _attribute_reads(tree):
    """Attribute names a module loads, directly or by getattr with a
    constant name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
    return names


def _definitions(tree):
    """(line, name) of the module-level functions, classes and constants
    of a module, and of the methods of its classes as "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((sub.lineno, f"{node.name}.{sub.name}")
                            for sub in node.body
                            if isinstance(sub, (ast.FunctionDef,
                                                ast.AsyncFunctionDef)))
        elif isinstance(node, ast.Assign):
            yield from ((node.lineno, t.id) for t in node.targets
                        if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            yield node.lineno, node.target.id


def _dataclass_fields(tree):
    """(line, "Class.field") of the annotated fields of every class
    decorated with dataclass, called or not."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators):
            yield from ((sub.lineno, f"{node.name}.{sub.target.id}")
                        for sub in node.body
                        if isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Name))


def _unread(sources: dict, checked, definitions=_definitions,
            readers=None, read_names=_read_names) -> list:
    """(file, line, name) of every definition in the given {file: source}
    set that `checked` selects and that no reader file (by default the
    set itself) other than a package __init__.py reads, by the names
    `read_names` finds in it; a method is read wherever its name is."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    readers = sources if readers is None else readers
    read = set().union(*(read_names(ast.parse(source))
                         for path, source in readers.items()
                         if Path(path).name != "__init__.py"))
    return sorted((path, line, name) for path, tree in trees.items()
                  for line, name in definitions(tree)
                  if checked(name) and name.rpartition(".")[2] not in read)


def unread_private_names(sources: dict) -> list:
    """Module-level private definitions no file reads; dunder names are
    not private."""
    return _unread(sources, lambda name: name.startswith("_")
                   and not name.startswith("__") and "." not in name)


def _private_definitions(tree):
    """Private, non-dunder names a module defines: module-level functions,
    classes and constants, class members, and attributes it assigns."""
    names = {name.rpartition(".")[2] for _, name in _definitions(tree)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)}
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def foreign_private_reads(sources: dict) -> list:
    """(file, name) of every private name a file reads that another file
    of the set defines and it does not; names match by spelling, so a
    file that defines a private name of its own may read it."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    defined = {path: _private_definitions(tree)
               for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        foreign = set().union(*(names for other, names in defined.items()
                                if other != path)) - defined[path]
        found += [(path, name) for name in _read_names(tree) & foreign]
    return sorted(found)


def unread_public_names(sources: dict) -> list:
    """Public definitions and public methods no file reads."""
    return _unread(sources, lambda name:
                   not name.rpartition(".")[2].startswith("_"))


def unread_fields(sources: dict, readers: dict) -> list:
    """Dataclass fields of `sources` that no file of `readers` reads as
    an attribute."""
    return _unread(sources, lambda name: True, _dataclass_fields, readers,
                   _attribute_reads)


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of every parameter of a function or
    lambda in source that its body, nested scopes included, never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs \
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(a.lineno, name, a.arg) for a in params
                  if a.arg not in read and a.arg not in ("self", "cls")
                  and not a.arg.startswith("_")]
    return sorted(found)


# the modules that build an operator's assembled matrix and solve with it
_MATRIX_OWNERS = ("fem.py", "linsolve.py")
# an operator's assembled matrix, and the mesh's CSR builder of stencil
# data, whose product ignores a grid system's pins
_MATRIX_ATTRS = ("matrix", "csr")


def matrix_reads(sources: dict) -> list:
    """(file, line) of every load of an attribute named `matrix`, or of
    the mesh's CSR builder `csr`, in a file of the set other than fem.py
    and linsolve.py."""
    return sorted((path, node.lineno) for path, source in sources.items()
                  if Path(path).name not in _MATRIX_OWNERS
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in _MATRIX_ATTRS
                  and isinstance(node.ctx, ast.Load))


def mesh_comparisons(sources: dict) -> list:
    """(file, line) of every `is` or `is not` comparison with an attribute
    named `mesh` in a file of the set other than fem.py, whose same_mesh
    is the one check that operands share a mesh."""
    return sorted((path, node.lineno) for path, source in sources.items()
                  if Path(path).name != "fem.py"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot))
                          for op in node.ops)
                  and any(isinstance(side, ast.Attribute)
                          and side.attr == "mesh"
                          for side in (node.left, *node.comparators)))


def test_scanner_finds_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import TYPE_CHECKING\n"
              "from a import b, c as d\n"
              "if TYPE_CHECKING:\n"
              "    from f import G\n"
              "def h(x: \"G\") -> int:\n"
              "    return d(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_private_scanner_finds_unread_definitions():
    sources = {
        "a.py": ("_USED = 1\n"
                 "_UNREAD = 2\n"
                 "__version__ = '1'\n"
                 "def _helper():\n"
                 "    return _USED\n"
                 "def _orphan():\n"
                 "    return 0\n"
                 "class _Hint:\n"
                 "    pass\n"
                 "_OVERWRITTEN: int = 3\n"),
        "b.py": ("import a\n"
                 "from a import _helper\n"
                 "def f(x: \"_Hint\") -> int:\n"
                 "    return _helper() + a._OVERWRITTEN\n"
                 "_orphan = None\n"),
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_UNREAD"), ("a.py", 6, "_orphan"), ("b.py", 5, "_orphan")]


def test_every_private_name_in_src_is_read_in_src():
    files = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in files}
    assert unread_private_names(sources) == []


def test_foreign_private_scanner_finds_cross_module_reads():
    sources = {
        "pkg/a.py": ("_LIMIT = 3\n"
                     "class Mesh:\n"
                     "    def _cache(self):\n"
                     "        self._store = _LIMIT\n"
                     "        return self._store\n"
                     "def _check():\n"
                     "    return 1\n"),
        "pkg/b.py": ("from .a import _LIMIT, Mesh\n"
                     "def f(m: Mesh) -> int:\n"
                     "    return m._cache() + m._store + _LIMIT\n"),
        "pkg/c.py": ("def _check():\n"
                     "    return 2\n"
                     "def g(m) -> int:\n"
                     "    return _check() + m.__len__()\n"),
    }
    assert foreign_private_reads(sources) == [
        ("pkg/b.py", "_LIMIT"), ("pkg/b.py", "_cache"), ("pkg/b.py", "_store")]


def test_private_names_stay_in_their_module():
    """fem's quadrature data, the multigrid's coarsest level and the PDAS
    loop are read through public names outside their module."""
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert foreign_private_reads(sources) == []


def test_public_scanner_finds_unread_definitions():
    sources = {
        "pkg/__init__.py": "from .a import orphan, Shape\n",
        "pkg/a.py": ("LIMIT = 3\n"
                     "UNREAD = 4\n"
                     "def used():\n"
                     "    return LIMIT\n"
                     "def orphan():\n"
                     "    return 0\n"
                     "class Shape:\n"
                     "    def area(self):\n"
                     "        return used()\n"
                     "    def unread_method(self):\n"
                     "        return 1\n"
                     "    def __repr__(self):\n"
                     "        return ''\n"
                     "    def _hidden(self):\n"
                     "        return 2\n"),
        "pkg/b.py": ("from .a import Shape\n"
                     "def report(s: Shape) -> int:\n"
                     "    return s.area()\n"),
    }
    assert unread_public_names(sources) == [
        ("pkg/a.py", 2, "UNREAD"), ("pkg/a.py", 5, "orphan"),
        ("pkg/a.py", 10, "Shape.unread_method"), ("pkg/b.py", 2, "report")]


def test_every_public_name_in_src_is_read_in_src():
    """No public API is kept for users alone: the allow-list is empty."""
    files = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in files}
    assert unread_public_names(sources) == []


def test_field_scanner_finds_unread_fields():
    sources = {
        "pkg/a.py": ("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class Report:\n"
                     "    iterations: int\n"
                     "    method: str\n"
                     "    LIMIT = 3\n"
                     "@dataclass\n"
                     "class Run:\n"
                     "    notes: dict\n"
                     "    def count(self) -> int:\n"
                     "        return self.iterations\n"
                     "class Plain:\n"
                     "    hidden: int\n"),
        "pkg/__init__.py": "x.method\n",
    }
    readers = {**sources, "bench/run.py": "print(report.notes)\n"}
    assert unread_fields(sources, sources) == [
        ("pkg/a.py", 5, "Report.method"), ("pkg/a.py", 9, "Run.notes")]
    assert unread_fields(sources, readers) == [
        ("pkg/a.py", 5, "Report.method")]


def test_field_scanner_counts_only_attribute_reads():
    """A local of the field's name, a keyword of the constructor and an
    attribute store are no reads; getattr with a constant name is."""
    sources = {
        "pkg/a.py": ("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class Result:\n"
                     "    p: float\n"
                     "    meta: dict\n"
                     "    value: float\n"
                     "    margin: float\n"
                     "def run(meta):\n"
                     "    p = 1.0\n"
                     "    r = Result(p=p, meta=meta, value=p, margin=p)\n"
                     "    r.margin = 2.0\n"
                     "    return getattr(r, 'value'), meta\n"),
    }
    assert unread_fields(sources, sources) == [
        ("pkg/a.py", 4, "Result.p"), ("pkg/a.py", 5, "Result.meta"),
        ("pkg/a.py", 7, "Result.margin")]


def test_every_dataclass_field_in_src_is_read():
    """A field that only tests read is state nothing uses; the benchmark
    harness counts as a reader (it reads RunReport.notes), and so does
    the acceptance gate (it reads VISolution.f_norm)."""
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    reader_paths = sorted((ROOT / "perfbench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]
    readers = {**sources, **{str(path.relative_to(ROOT)): path.read_text()
                             for path in reader_paths}}
    assert unread_fields(sources, readers) == []


def test_all_exports_no_submodule():
    exported = [getattr(obstacle_control, name)
                for name in obstacle_control.__all__]
    assert len(exported) > 50
    assert not any(isinstance(v, types.ModuleType) for v in exported)


def test_import_does_not_load_sparse_linalg():
    """The package's solvers are its own; scipy's sparse solvers are test
    references only."""
    probe = ("import sys, obstacle_control; "
             "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"


def test_parameter_scanner_finds_unread_parameters():
    source = ("class A:\n"
              "    def f(self, x, y, _z, *args, key=1, **kw):\n"
              "        return x + sum(args)\n"
              "    @classmethod\n"
              "    def g(cls, v):\n"
              "        def inner():\n"
              "            return v\n"
              "        return inner\n"
              "h = lambda a, b: a\n"
              "def k(w=1, *, n):\n"
              "    w = 2\n"
              "    return n\n")
    assert unread_parameters(source) == [
        (2, "f", "key"), (2, "f", "kw"), (2, "f", "y"), (9, "<lambda>", "b"),
        (10, "k", "w")]


def test_every_parameter_in_src_is_read():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}({param})"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name, param in unread_parameters(path.read_text())]
    assert found == []


def test_matrix_scanner_finds_reads_outside_the_owners():
    sources = {
        "pkg/fem.py": ("class GridSystem:\n"
                       "    def __matmul__(self, v):\n"
                       "        return self.matrix @ v\n"),
        "pkg/linsolve.py": "def solve(A, b):\n    return A.matrix, b\n",
        "pkg/obstacle.py": ("def sweep(K, u, rhs):\n"
                            "    mat = K.matrix\n"
                            "    return rhs - mat @ u - K @ u\n"),
        "pkg/other.py": ("def f(q, matrix):\n"
                         "    q.matrix = matrix\n"
                         "    return getattr(q, 'data'), q.stiffness.matrix\n"),
        "pkg/penalty.py": ("def g(mesh, K, csr):\n"
                           "    a = mesh.csr(K.data)\n"
                           "    return a, K.data, csr\n"),
    }
    assert matrix_reads(sources) == [("pkg/obstacle.py", 2),
                                     ("pkg/other.py", 3),
                                     ("pkg/penalty.py", 2)]


def test_only_fem_and_linsolve_read_a_matrix():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert matrix_reads(sources) == []


def test_mesh_scanner_finds_comparisons_outside_fem():
    sources = {
        "pkg/fem.py": ("def same_mesh(a, b):\n"
                       "    return a.mesh if a.mesh is b.mesh else None\n"),
        "pkg/control.py": ("def add(a, b):\n"
                           "    if a.mesh is not b.mesh:\n"
                           "        raise ValueError\n"
                           "    return a.mesh == b.mesh\n"),
        "pkg/obstacle.py": ("def solve(q, f, mesh, n):\n"
                            "    ok = mesh is f.mesh\n"
                            "    return ok, q.mesh.level is n, mesh is q\n"),
    }
    assert mesh_comparisons(sources) == [("pkg/control.py", 2),
                                         ("pkg/obstacle.py", 2)]


def test_only_fem_compares_meshes():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert mesh_comparisons(sources) == []
