"""Every public function and class in ``src/repro`` has a caller in ``src/repro``.

Library code that only tests reach belongs in ``tests/`` (a reference the
tests compare against goes to ``tests/oracles.py``) or nowhere.  The rules,
read off the source with :mod:`ast`:

* a public (no leading underscore) module-level function or class defined
  outside a package ``__init__`` must be referenced in code somewhere under
  ``src/repro``: a ``Name`` or ``Attribute`` node, or an import alias
  outside a package ``__init__``.  Strings and docstrings do not count, nor
  do references inside the definition itself; the defining module's other
  code does;
* the same holds for the public methods of :data:`METHOD_CLASSES` (the
  graph, forest, channel, metrics and simulator types, whose methods had
  grown callers only in tests),
  listed as ``Class.method``; a reference inside the method's own body does
  not count;
* a decorated definition (the ``@register_experiment`` sweeps) counts as
  used, and so does a name on :data:`ALLOWED`, each entry with the user
  that keeps it.  An entry that is no longer needed fails the test;
* each package ``__init__``'s ``__all__`` lists exactly the names it
  imports or assigns.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: public names with no caller in ``src/repro``, and who calls them instead
ALLOWED: Dict[str, str] = {
    "erdos_renyi_graph": "test input (generator digests, CSR and MST tests)",
    "hypercube_graph": "test input (generator digests)",
    "path_graph": "test input across the suite",
    "random_tree": "test input (generator digests, diameter tests)",
    "torus_graph": "examples/datacenter_mst.py",
    "ray_graph_for": "perfbench's tracer wraps it as a topology generator",
    "fit_exponents": "e12's MFPT-exponent fit: tested, and the planned claim check calls it",
    "ChannelContender.success_slot": "tests/test_skip_ahead.py: the distribution checks' observable",
    "FlyweightProtocol.channel_write": "tests/oracles.py: the per-node adapter forwards the "
                                       "oracles' channel writes (the v4 oracle protocols)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: classes whose public methods the guard covers as well
METHOD_CLASSES = (
    "WeightedGraph", "CSRView", "Edge", "SpanningForest",
    "SlottedChannel", "ChannelEvent", "ChannelContender", "MetcalfeBoggsContender",
    "CapetanakisContender", "MetricsRecorder", "MetricsSnapshot",
    "PointToPointNetwork", "MultimediaNetwork", "ChannelSynchronizer",
    "FlyweightProtocol", "FlyweightEnvironment",
)


def parse_tree(root: Path) -> List[Tuple[Path, ast.Module]]:
    """Every module under ``root``, parsed, with its path relative to ``root``."""
    return [
        (path.relative_to(root), ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(root.rglob("*.py"))
    ]


def public_definitions(modules) -> Dict[str, List[str]]:
    """Undecorated public top-level defs outside ``__init__``, and the public
    methods of :data:`METHOD_CLASSES` as ``Class.method``: name → modules."""
    found: Dict[str, List[str]] = {}
    for path, tree in modules:
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if not node.name.startswith("_") and not node.decorator_list:
                found.setdefault(node.name, []).append(str(path))
            if isinstance(node, ast.ClassDef) and node.name in METHOD_CLASSES:
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        found.setdefault(f"{node.name}.{item.name}", []).append(str(path))
    return found


def _references(tree, count_imports: bool) -> Set[str]:
    """Names ``tree`` refers to; an attribute reference counts as ``.name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
            found.add("." + node.attr)
        elif isinstance(node, ast.alias) and count_imports:
            found.add(node.name.rpartition(".")[2])
    return found


def referenced_names(modules) -> Set[str]:
    """Every name some module's code refers to, by the rules above."""
    names: Set[str] = set()
    for path, tree in modules:
        count_imports = path.name != "__init__.py"
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef):
                # each method's body on its own, so a method's reference to
                # itself does not count
                found = set()
                for item in [*statement.decorator_list, *statement.bases, *statement.body]:
                    inner = _references(item, count_imports)
                    if isinstance(item, FUNCTIONS):
                        inner.discard("." + item.name)
                    found |= inner
            else:
                found = _references(statement, count_imports)
            if isinstance(statement, DEFINITIONS):
                found.discard(statement.name)
            names |= found
    return names


def unreferenced(modules) -> Dict[str, List[str]]:
    """Public definitions that no code in ``modules`` refers to.

    A method is reached through an attribute, so only an attribute
    reference of its name counts for it.
    """
    used = referenced_names(modules)
    return {
        name: paths
        for name, paths in public_definitions(modules).items()
        if ("." + name.partition(".")[2] if "." in name else name) not in used
    }


def init_exports(path: Path) -> Tuple[List[str], Set[str]]:
    """Return an ``__init__``'s ``__all__`` and the names it imports or assigns."""
    exported: List[str] = []
    bound: Set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(
                alias.asname or alias.name.partition(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = list(ast.literal_eval(node.value))
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
    return exported, bound


@pytest.fixture(scope="module")
def src_modules():
    return parse_tree(SRC)


def test_every_public_definition_has_a_caller_in_src(src_modules):
    missing = {
        name: paths
        for name, paths in unreferenced(src_modules).items()
        if name not in ALLOWED
    }
    assert not missing, (
        "public definitions no src module uses — delete them, move a test "
        f"oracle to tests/oracles.py, or allow-list a real user: {missing}"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allow_list_entry_is_still_needed(src_modules, name):
    assert name in public_definitions(src_modules), f"{name} is gone from src"
    assert name in unreferenced(src_modules), f"{name} now has a caller in src"


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("__init__.py")), ids=lambda path: str(path.relative_to(SRC))
)
def test_package_all_lists_exactly_its_imports(path):
    exported, bound = init_exports(path)
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert set(exported) == bound


# ----------------------------------------------------------------------
# the rules themselves, on a throwaway package
# ----------------------------------------------------------------------
def flagged(tmp_path, files):
    """Write ``files`` (relative path → source) and return what the guard flags."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return set(unreferenced(parse_tree(tmp_path)))


RULE_CASES = {
    "unreferenced_function_flagged": (
        {"mod.py": "def orphan():\n    return 1\n"}, {"orphan"},
    ),
    "docstring_mention_does_not_count": (
        {"mod.py": 'def orphan():\n    pass\n\n'
                   'def user():\n    """Calls orphan."""\n\n'
                   'user()\n'},
        {"orphan"},
    ),
    "self_reference_does_not_count": (
        {"mod.py": "def loop(n):\n    return loop(n - 1) if n else 0\n"}, {"loop"},
    ),
    "init_reexport_does_not_count": (
        {"pkg/__init__.py": "from pkg.mod import helper\n__all__ = ['helper']\n",
         "pkg/mod.py": "def helper():\n    pass\n"},
        {"helper"},
    ),
    "call_in_same_module_counts": (
        {"mod.py": "def helper():\n    pass\n\nhelper()\n"}, set(),
    ),
    "attribute_reference_counts": (
        {"a.py": "class Box:\n    pass\n",
         "b.py": "import a\n\nVALUE = a.Box\n"},
        set(),
    ),
    "import_outside_init_counts": (
        {"a.py": "def helper():\n    pass\n",
         "b.py": "from a import helper as renamed\n"},
        set(),
    ),
    "decorated_definition_counts_as_used": (
        {"mod.py": "def register(f):\n    return f\n\n"
                   "@register\ndef sweep():\n    pass\n"},
        set(),
    ),
    "private_definition_ignored": (
        {"mod.py": "def _internal():\n    pass\n"}, set(),
    ),
    "unreferenced_method_of_a_covered_class_flagged": (
        {"mod.py": "class Edge:\n    def other(self):\n        return self.other()\n\n"
                   "    def key(self):\n        pass\n\n"
                   "Edge().key()\n"},
        {"Edge.other"},
    ),
    "method_of_an_uncovered_class_ignored": (
        {"mod.py": "class Box:\n    def orphan(self):\n        pass\n\nBox()\n"}, set(),
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_reachability_rule(tmp_path, case):
    files, expected = RULE_CASES[case]
    assert flagged(tmp_path, files) == expected


def test_init_export_mismatch_is_seen(tmp_path):
    path = tmp_path / "__init__.py"
    path.write_text("from pkg.mod import kept, dropped\n__all__ = ['kept', 'ghost']\n")
    exported, bound = init_exports(path)
    assert exported == ["kept", "ghost"]
    assert bound == {"kept", "dropped"}
