"""Every imported name is read somewhere in the module that imports it, every
module-level private name in the package is read somewhere in it, and every
module-level public name is exported or read somewhere in it.  Every
dataclass field and every property of a class in the package is read as an
attribute somewhere in it.  No module in the package reads an environment
variable, no module but __main__.py holds an `if __name__ == "__main__":`
block, and every module parses as the oldest Python that pyproject.toml's
requires-python admits.  Only graphs.py raises a refusal by a graph's
order, connectivity, full vertices or partition-search guard: every routine
states its input class through graphs.require.  Every module-level name in
the tests' shared modules, conftest.py and reference.py, is read somewhere
in tests/, and reference.py imports from the standard library only.

The repository has no linter, so these are its unused-import and dead-helper
checks, written with the standard library's ast module.  A package
__init__.py imports names to re-export them, so those files are exempt from
the import check.
"""

import ast
import pathlib
import re
import sys

import pytest

import coalitions

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_checker_flags_only_names_never_read():
    source = "import os, sys\nfrom json import dumps as d, loads\nprint(sys.argv, d)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "loads")]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in _unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def _read_names(node, params=False):
    """Names a syntax tree reads, as identifiers or as attributes, and with params as
    parameters, the way a test reads the pytest fixture it names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif params and isinstance(sub, ast.arg):
            out.add(sub.arg)
    return out


def _defined_names(stmt):
    """Non-dunder names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _unread_names(sources, private, exported=(), params=False):
    """(module, line, name) for each module-level name no other top-level statement reads.

    sources maps a module name to its source text.  private picks the
    single-underscore names or the public ones; names in exported are
    skipped.  A read inside the statement that defines the name, such as a
    recursive call, does not count; params goes on to _read_names.
    """
    stmts = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    reads = [_read_names(stmt, params) for _, stmt in stmts]
    found = []
    for k, (module, stmt) in enumerate(stmts):
        for name in _defined_names(stmt):
            if name.startswith("_") != private or name in exported:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != k):
                found.append((module, stmt.lineno, name))
    return found


def _src_sources():
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src").rglob("*.py"))}


def test_private_name_checker_on_a_tiny_package():
    sources = {
        "a": "_LIMIT = 3\n_dead = 1\ndef _rec(n):\n    return _rec(n - 1)\ndef _used():\n    return _LIMIT\n",
        "b": "from .a import _used\nprint(_used())\n",
    }
    assert _unread_names(sources, private=True) == [("a", 2, "_dead"), ("a", 3, "_rec")]


def test_every_module_level_private_name_is_read():
    assert _unread_names(_src_sources(), private=True) == []


def test_public_name_checker_on_a_tiny_package():
    sources = {
        "a": "LIMIT = 3\nDEAD = 1\ndef rec(n):\n    return rec(n - 1)\ndef used():\n    return LIMIT\n"
             "def api():\n    return 0\n",
        "b": "from .a import used\nprint(used())\n",
    }
    assert _unread_names(sources, private=False, exported={"api"}) == [("a", 2, "DEAD"), ("a", 3, "rec")]


def test_every_module_level_public_name_is_exported_or_read():
    assert _unread_names(_src_sources(), private=False, exported=set(coalitions.__all__)) == []


def test_fixture_reads_count_only_in_tests():
    sources = {
        "conftest": "import pytest\n@pytest.fixture\ndef house():\n    return 5\ndef dead():\n    return 0\n",
        "test_a": "print(lambda house: 0)\n",
    }
    assert _unread_names(sources, private=False) == [("conftest", 3, "house"), ("conftest", 5, "dead")]
    assert _unread_names(sources, private=False, params=True) == [("conftest", 5, "dead")]


def test_every_name_in_the_shared_test_modules_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))}
    found = [hit for private in (False, True) for hit in _unread_names(sources, private, params=True)
             if hit[0] in ("conftest.py", "reference.py")]
    assert found == []


def test_reference_imports_from_the_standard_library_only():
    # the judges share no code with the package they judge, so bench/ can import them as well
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules)


def _decorator_names(node):
    """Plain names of a definition's decorators, called or not."""
    names = set()
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _unread_fields(sources):
    """(module, line, Class.name) for each dataclass field or property no attribute read names.

    A read is an attribute loaded anywhere in the sources, such as rec.cc or
    self.cc_pair; a field that only its own class's constructor fills is
    dead weight.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            is_dataclass = "dataclass" in _decorator_names(cls)
            for stmt in cls.body:
                if is_dataclass and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                elif isinstance(stmt, ast.FunctionDef) and _decorator_names(stmt) & {"property", "cached_property"}:
                    name = stmt.name
                else:
                    continue
                if name not in read:
                    found.append((module, stmt.lineno, f"{cls.name}.{name}"))
    return found


def test_field_checker_on_a_tiny_package():
    sources = {
        "a": "from dataclasses import dataclass\nfrom functools import cached_property\n"
             "@dataclass(frozen=True)\nclass Row:\n    used: int\n    dead: str = ''\n"
             "class Box:\n    size: int\n    @property\n    def area(self):\n        return self.size\n"
             "    @cached_property\n    def stale(self):\n        return 2\n",
        "b": "from .a import Box, Row\nprint(Row(1).used, Box().area)\n",
    }
    assert _unread_fields(sources) == [("a", 6, "Row.dead"), ("a", 13, "Box.stale")]


def test_every_field_and_property_in_src_is_read():
    assert _unread_fields(_src_sources()) == []


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source):
    """Lines that read an environment variable through os, as an attribute or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENV_READERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_environment_checker_on_a_tiny_module():
    source = ("import os\nfrom os import getenv\nos.environ.get('A')\nos.getenv('B')\n"
              "os.dup2(1, 2)\nos.devnull\n")
    assert _environment_reads(source) == [2, 3, 4]


def test_no_src_module_reads_the_environment():
    # configuration travels through flags and parameters only
    found = [f"{module}:{line}" for module, source in _src_sources().items()
             for line in _environment_reads(source)]
    assert found == []


def _main_blocks(source):
    """Lines of each `if __name__ == "__main__":` test in a module, written either way round."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If):
            parts = list(ast.walk(node.test))
            if (any(isinstance(p, ast.Name) and p.id == "__name__" for p in parts)
                    and any(isinstance(p, ast.Constant) and p.value == "__main__" for p in parts)):
                lines.append(node.lineno)
    return lines


def test_main_block_checker_on_a_tiny_module():
    source = ("import sys\nif __name__ == '__main__':\n    sys.exit(0)\nif '__main__' == __name__:\n"
              "    pass\nif __name__ == 'x':\n    pass\nname = '__main__'\n")
    assert _main_blocks(source) == [2, 4]


def test_only_the_package_main_module_is_an_entry_point():
    # python -m coalitions runs __main__.py and the console script calls cli:main, so a
    # __main__ block anywhere else is a second entry point that nothing runs
    found = [f"{module}:{line}" for module, source in _src_sources().items()
             if not module.endswith("__main__.py") for line in _main_blocks(source)]
    assert found == []


def _python_floor():
    """The (major, minor) that pyproject.toml's requires-python names as its lower bound."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_floor_check_rejects_newer_syntax():
    # except* came in 3.11, one release above the floor
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_src_module_parses_at_the_python_floor():
    # the test interpreter may be newer than the floor, so importing the package cannot show this
    floor = _python_floor()
    for module, source in _src_sources().items():
        ast.parse(source, filename=module, feature_version=floor)


# the refusals graphs.require makes, in its wording and in the wordings it replaced
_SHAPE_REFUSAL = re.compile(r"order [<>]|connected graph|full vertex|(is|are) full|guarded")
_SHAPE_ERRORS = {"PreconditionError", "GuardExceededError"}


def _shape_refusals(source):
    """Lines that raise a PreconditionError or GuardExceededError whose message refuses a graph
    by its order, connectivity, full vertices or partition-search guard."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        text = " ".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
        if name in _SHAPE_ERRORS and _SHAPE_REFUSAL.search(text):
            lines.append(node.lineno)
    return lines


def test_refusal_checker_on_a_tiny_module():
    source = ("raise PreconditionError('gamma_c needs a graph of order >= 1')\n"
              "raise PreconditionError(f'{op} undefined for disconnected graphs')\n"
              "raise errors.PreconditionError(f'expansion: {sorted(fulls)} are full')\n"
              "raise GuardExceededError(f'search guarded at n <= {guard}, got n={n}')\n"
              "raise GuardExceededError(f'corpus graph of order {n} exceeds the oracle guard {guard}')\n"
              "raise PreconditionError('shrink needs a connected dominating set')\n"
              "raise ValueError('x needs a connected graph')\n")
    assert _shape_refusals(source) == [1, 2, 3, 4]


def test_only_graphs_require_refuses_a_graph_by_its_shape():
    sources = _src_sources()
    # the rule sees require's own four refusals, so it would see one written anywhere else
    assert len(_shape_refusals(sources["src/coalitions/graphs.py"])) == 4
    found = [f"{module}:{line}" for module, source in sources.items()
             if module != "src/coalitions/graphs.py" for line in _shape_refusals(source)]
    assert found == []
