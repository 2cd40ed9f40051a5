import ast
from collections import Counter
from pathlib import Path

import pytest

import pch
import pch.absorbing
import pch.exact
import pch.pipeline

MODULES = sorted(p for p in Path(pch.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_an_orphan():
    assert unused_imports("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_private_names(sources: list[str]) -> list[str]:
    """Top-level private functions, classes and constants (``_``-prefixed,
    not dunder) that none of the sources reads, by name or as an attribute,
    outside their own definition: a helper left behind by its last caller is
    unread even when it calls itself."""
    nodes = [node for s in sources for node in ast.parse(s).body]
    defined, read = [], set()
    for node in nodes:
        own = _top_level_names(node)
        defined += own
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            else:
                continue
            if name not in own:
                read.add(name)
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


def test_unread_private_names_finds_an_orphan():
    lib = (
        "_CAP = 3\n_LIMIT: int = 4\n__all__ = []\n"
        "def _used():\n    return _CAP\n"
        "class _Gone:\n    pass\n"
        "def _gone():\n    pass\n"
        "def _recur(n):\n    return _recur(n - 1) if n else 0\n"
    )
    user = "import lib\nlib._used()\n"
    assert unread_private_names([lib, user]) == ["_LIMIT", "_Gone", "_gone", "_recur"]


def test_no_unread_private_names():
    paths = sorted(Path(pch.__file__).parent.glob("*.py"))
    assert unread_private_names([p.read_text() for p in paths]) == []


def assert_lines(source: str) -> list[int]:
    """Lines of the source's assert statements."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_lines_finds_a_nested_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("path", sorted(Path(pch.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_asserts(path):
    # python -O strips asserts, so an invariant check in the library raises
    # instead (the RuntimeError after each verify_certificate call)
    assert assert_lines(path.read_text()) == []


def function_import_lines(source: str) -> list[int]:
    """Lines of the import statements inside the source's functions."""
    # a set: an import in a nested function is inside the outer one too
    return sorted({
        sub.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    })


def test_function_import_lines_finds_a_nested_import():
    source = (
        "import os\ndef f():\n    if os:\n        import itertools\n"
        "class C:\n    def g(self):\n        def h():\n            from a import b\n"
    )
    assert function_import_lines(source) == [4, 8]


@pytest.mark.parametrize("path", sorted(Path(pch.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_at_module_top(path):
    # every dependency of a module shows in its header
    assert function_import_lines(path.read_text()) == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def looped_colour_call_lines(source: str) -> list[int]:
    """Lines of the ``.colour(...)`` calls inside a loop or a comprehension."""
    # a set: a call in a nested loop is inside the outer one too
    return sorted({
        sub.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _LOOPS)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "colour"
    })


def test_looped_colour_call_lines_finds_loops_and_comprehensions():
    source = (
        "c = g.colour(0, 1)\n"
        "for u in vs:\n    while u:\n        u = g.colour(u, 0)\n"
        "xs = [g.colour(u, v) for u, v in pairs]\n"
        "ys = {g.rows[u][v] for u, v in pairs}\n"
        "def f(g):\n    return any(g.colour(u, 1) for u in range(2, g.n))\n"
    )
    assert looped_colour_call_lines(source) == [4, 5, 8]


@pytest.mark.parametrize("path", sorted(Path(pch.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_loops_read_rows(path):
    # `colour` checks its pair on every call; a loop checks its ids once at
    # its boundary and reads `g.rows`
    assert looped_colour_call_lines(path.read_text()) == []


def called_names(source: str) -> list[str]:
    """The names of the source's calls, a bare name or the last attribute."""
    return [
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    ]


def test_called_names_finds_bare_and_attribute_calls():
    assert sorted(called_names("f(x)\nm.g(h(1))\nobj.a.b()\ndef k():\n    return f()\n")) == ["b", "f", "f", "g", "h"]


def test_pipeline_checks_its_cycle_once():
    # steering splices the path in unchecked, and the verified exit checks
    # the whole cycle: a second properness check or a checked absorption
    # would repeat that work on every run
    calls = called_names(Path(pch.pipeline.__file__).read_text())
    assert [c for c in calls if c.startswith("is_properly_coloured_") or c == "absorb_path"] == []
    assert calls.count("_verified") == 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_certificates_are_verified_only_through_the_one_exit(path):
    # a producer hands its certificate to `ec_graph._verified`; only that
    # exit and the CLI's `verify` and `lemma-check` reports judge one directly
    calls = called_names(path.read_text())
    assert ("verify_certificate" in calls) == (path.name in ("ec_graph.py", "cli.py"))


def test_exact_asks_the_two_factor_test_in_one_place():
    # `_search` decides when the PC 2-factor test runs, on g or on g + z;
    # `exact_pc_two_factor` asks it only for its answer after the probe
    tree = ast.parse(Path(pch.exact.__file__).read_text())
    callers = {
        name: [node.name for node in tree.body if name in called_names(ast.unparse(node))]
        for name in ("pc_two_factor_matching", "_plus_z")
    }
    assert callers == {"pc_two_factor_matching": ["_search", "exact_pc_two_factor"], "_plus_z": ["_search"]}


def test_absorbing_walks_its_own_output():
    # join_ends and the build check ids they drew or already checked, so
    # they walk with `_proper_walk` and import no checked predicate for it
    tree = ast.parse(Path(pch.absorbing.__file__).read_text())
    names = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "is_properly_coloured_cycle" not in names
    funcs = {f.name: called_names(ast.unparse(f)) for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("join_ends", "build_absorbing_cycle"):
        assert "_proper_walk" in funcs[name]
        assert not any(c.startswith("is_properly_coloured_") for c in funcs[name])


# public functions that the library, the CLI and the bench do not call, kept
# as documented entry points for users
USER_ENTRY_POINTS = {
    "write_graph": "the I/O pair of read_graph",
    "monochromatic": "a generator of one of the paper's extremal families",
    "rainbow": "a generator of one of the paper's extremal families",
    "near_bollobas_erdos": "a generator of the paper's threshold family and of the test corpora",
    "random_colouring": "a generator of the test corpora",
    "check_barrier": "checks a barrier that a user holds",
}


def _functions(tree: ast.Module):
    """The top-level functions of a module and the methods of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(node: ast.AST) -> Counter:
    """How often each name is read under the node, by name or as an
    attribute; string literals are no references."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    )


def unreferenced_public_functions(lib_sources: list[str], user_sources: list[str]) -> list[str]:
    """Public functions and methods of the library sources that neither they,
    outside the definition itself, nor the user sources reference."""
    lib = [ast.parse(s) for s in lib_sources]
    read = sum((_references(t) for t in lib + [ast.parse(s) for s in user_sources]), Counter())
    return [
        f.name for t in lib for f in _functions(t)
        if not f.name.startswith("_") and read[f.name] == _references(f)[f.name]
    ]


def test_unreferenced_public_functions_finds_an_orphan():
    lib = (
        "def used():\n    pass\n"
        "def benched():\n    pass\n"
        "def _private():\n    used()\n"
        "def recur(n):\n    return recur(n - 1)\n"
        "def named():\n    return 'named'\n"
        "class C:\n    def method(self):\n        pass\n    def gone(self):\n        return self.gone\n"
    )
    bench = "import lib\nlib.benched()\nC().method()\n"
    assert unreferenced_public_functions([lib], [bench]) == ["recur", "named", "gone"]


def test_library_functions_have_library_or_bench_callers():
    # a function that only tests call is test code: it lives under tests/
    root = Path(pch.__file__).parents[2]
    lib = [p.read_text() for p in sorted(Path(pch.__file__).parent.glob("*.py"))]
    bench = [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))]
    unreferenced = unreferenced_public_functions(lib, bench)
    assert [name for name in unreferenced if name not in USER_ENTRY_POINTS] == []
    assert set(USER_ENTRY_POINTS) <= {f.name for s in lib for f in _functions(ast.parse(s))}
