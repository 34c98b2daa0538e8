"""Every public function and method in ``src/repro`` runs when it is driven.

Library code that only tests reach belongs in ``tests/`` (a reference the
tests compare against goes to ``tests/oracles.py``) or nowhere.  The guard
finds out by running the code: a fresh interpreter imports every module of
``src/repro`` and drives it under :func:`sys.setprofile` (and
:func:`threading.setprofile`, for the worker and server threads) through

* every sweep of ``tests/test_experiment_registry.py::QUICK_SWEEPS`` — each
  spec's ``quick`` preset and the quick variants;
* ``repro list``, ``repro docs --check``, ``repro docs`` into a scratch
  directory, and one shard of a sharded ``repro run`` finished by a
  ``--resume --json`` run that prints its table;
* one distributed run whose single worker runs on a thread;
* one ``repro serve`` GET.

The rules:

* every public ``def`` (no leading underscore) — a module function, or a
  method, property accessor, static- or classmethod of a public class —
  must have run.  Import counts, so a decorator runs when it decorates.  An
  abstract body (a docstring, ``pass``, ``...`` or ``raise
  NotImplementedError``) counts as run when an override of it ran;
* a public top-level class without a public method (a dataclass of fields,
  an exception) gives the profiler nothing to see, so it must be referenced
  in code under ``src/repro`` instead: a ``Name`` or ``Attribute`` node, or
  an import alias outside a package ``__init__``.  Strings and docstrings
  do not count, nor do references inside the class itself;
* a name on :data:`ALLOWED`, each entry with the user that keeps it, is
  exempt.  An entry that is no longer needed fails the test;
* each package ``__init__``'s ``__all__`` lists exactly the names it
  imports or assigns;
* no ``random.Random`` is seeded from OS entropy by code under
  ``src/repro`` during the drive: every sweep point carries its own seeds,
  so a ``None`` seed whose nearest caller outside ``random.py`` lies under
  ``src/repro`` is a row that cannot be reproduced (``tempfile``'s own name
  generator, seeded from ``tempfile.py``, does not count);
* ``src/repro`` has at most :data:`MAX_SETTABLE_OPTIONS` settable options:
  parameters with a default in a public function, or in a public method
  (``__init__`` included) of a public class, counted statically.  An
  option no ``src`` caller sets belongs in a constant, or nowhere.

Names are qualified names (``path_graph``, ``FlyweightProtocol.send``).
Print what the drive flags, with each name's module, and the unseeded
generators' callers, with

    PYTHONPATH=src:tests python tests/test_src_reachability.py SCRATCH_DIR

and the settable-option count, then the count per callable, with

    PYTHONPATH=tests python -c "import test_src_reachability as t; \\
        o = t.settable_options(t.SRC); print(sum(o.values()), o)"
"""

from __future__ import annotations

import ast
import contextlib
import http.client
import importlib
import inspect
import io
import json
import multiprocessing
import os
import pkgutil
import random
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import CodeType, FunctionType
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"

#: the most settable options ``src/repro`` may have (see
#: :func:`settable_options`); lower it when a change removes some
MAX_SETTABLE_OPTIONS = 123

#: public definitions the drive does not run, and who uses them instead
ALLOWED: Dict[str, str] = {
    "complete_graph": "test input (collision, MST, sim tests)",
    "erdos_renyi_graph": "test input (generator digests, CSR and MST tests)",
    "hypercube_graph": "test input (generator digests)",
    "path_graph": "test input across the suite",
    "random_tree": "test input (generator digests, diameter tests)",
    "torus_graph": "examples/datacenter_mst.py",
    "ray_graph_for": "perfbench's tracer wraps it as a topology generator",
    "fit_exponents": "tests/test_walks.py: the e12 exponent-gap check (ROADMAP "
                     "item 4 gives it a row)",
    "fit_power_law": "tests/test_walks.py, through fit_exponents",
    "FlyweightProtocol.send": "tests/oracles.py: the per-node adapter forwards the "
                              "oracles' sends; the test flyweights",
    "FlyweightProtocol.channel_write": "tests/oracles.py: the per-node adapter forwards "
                                       "the oracles' channel writes (the v4 oracle "
                                       "protocols)",
    "Executor.execute": "the protocol's declaration: the serial, sharded and "
                        "distributed executors implement it",
    "AdversityState.counters": "golden v3's fault fingerprints "
                               "(tests/test_perf_equivalence.py), test_adversity",
    "CSRView.reverse_positions": "RandomizedPartitioner's link removal, which runs "
                                 "from an attempt's second iteration on; no driven "
                                 "graph leaves a node free after the first "
                                 "(test_partition_digests' chorded path does)",
}


# ----------------------------------------------------------------------
# the runtime rule
# ----------------------------------------------------------------------
def record_calls(drive: Callable[[], object]) -> Set[CodeType]:
    """Run ``drive()`` and return the code of every Python function that ran.

    Calls on the threads ``drive`` starts are recorded too.
    """
    ran: Set[CodeType] = set()
    add = ran.add

    def hook(frame, event, arg):
        add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return ran


def import_all(package: str) -> None:
    """Import ``package`` and every module under it."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def _functions(value) -> List[FunctionType]:
    """The Python functions behind a class or module attribute."""
    if isinstance(value, property):
        found = [value.fget, value.fset, value.fdel]
    elif isinstance(value, (staticmethod, classmethod)):
        found = [value.__func__]
    else:
        found = [value]
    found = [inspect.unwrap(item) for item in found if item is not None]
    return [item for item in found if inspect.isfunction(item)]


Bodies = Dict[str, List[Tuple[FunctionType, Optional[type]]]]


def _class_bodies(cls: type, found: Bodies) -> None:
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        qualname = f"{cls.__qualname__}.{name}"
        if inspect.isclass(value):
            if value.__qualname__ == qualname:
                _class_bodies(value, found)
            continue
        for function in _functions(value):
            if function.__qualname__ == qualname:
                found.setdefault(qualname, []).append((function, cls))


def public_bodies(package: str) -> Bodies:
    """Every public def of ``package``'s imported modules.

    Returns qualified name → ``(function, defining class or None)`` pairs;
    a name re-exported elsewhere is listed once, under its own module.
    """
    found: Bodies = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != package and not module_name.startswith(package + "."):
            continue
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                continue
            if inspect.isclass(value):
                if value.__qualname__ == name:
                    _class_bodies(value, found)
                continue
            for function in _functions(value):
                if function.__qualname__ == name:
                    found.setdefault(name, []).append((function, None))
    return found


def is_abstract(function: FunctionType) -> bool:
    """True when the body is only a docstring, ``pass``, ``...`` or a
    ``raise NotImplementedError``."""
    definition = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]
    for statement in definition.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
                continue
        return False
    return True


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _override_ran(function: FunctionType, owner: Optional[type], ran: Set[CodeType]) -> bool:
    if owner is None or not is_abstract(function):
        return False
    name = function.__name__
    return any(
        override.__code__ in ran
        for sub in _subclasses(owner)
        if name in vars(sub)
        for override in _functions(vars(sub)[name])
    )


def unrun(package: str, ran: Set[CodeType]) -> Dict[str, List[str]]:
    """Public defs of ``package`` whose body is not in ``ran``: name → modules."""
    missing: Dict[str, List[str]] = {}
    for name, bodies in public_bodies(package).items():
        for function, owner in bodies:
            if function.__code__ in ran or _override_ran(function, owner, ran):
                continue
            missing.setdefault(name, []).append(function.__module__)
    return missing


# ----------------------------------------------------------------------
# the runtime rule on seeds
# ----------------------------------------------------------------------
@contextlib.contextmanager
def entropy_seeds(root: Path) -> Iterator[List[str]]:
    """Record the ``random.Random`` generators code under ``root`` seeds
    from OS entropy while the block runs.

    Wraps ``random.Random.seed``; a ``None`` seed whose nearest frame
    outside ``random.py`` lies under ``root`` adds ``"path:line in
    function"`` (the path relative to ``root``) to the yielded list.
    """
    records: List[str] = []
    seed = random.Random.seed
    library = seed.__code__.co_filename
    root = root.resolve()

    def recording(self, *args, **kwargs):
        if (args[0] if args else kwargs.get("a")) is None:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_filename == library:
                frame = frame.f_back
            if frame is not None:
                path = Path(frame.f_code.co_filename).resolve()
                if path.is_relative_to(root):
                    records.append(f"{path.relative_to(root)}:{frame.f_lineno} "
                                   f"in {frame.f_code.co_name}")
        return seed(self, *args, **kwargs)

    random.Random.seed = recording
    try:
        yield records
    finally:
        random.Random.seed = seed


# ----------------------------------------------------------------------
# the static rule: classes without a public method
# ----------------------------------------------------------------------
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(tree: ast.AST, count_imports: bool) -> Set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias) and count_imports:
            found.add(node.name.rpartition(".")[2])
    return found


def unreferenced_classes(root: Path) -> Dict[str, List[str]]:
    """Public top-level classes without a public method that no code under
    ``root`` refers to: name → modules."""
    modules = [
        (path.relative_to(root), ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(root.rglob("*.py"))
    ]
    used: Set[str] = set()
    for path, tree in modules:
        for statement in tree.body:
            found = _references(statement, path.name != "__init__.py")
            if isinstance(statement, ast.ClassDef):
                found.discard(statement.name)
            used |= found
    missing: Dict[str, List[str]] = {}
    for path, tree in modules:
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and not node.name.startswith("_")
                and not any(
                    isinstance(item, FUNCTIONS) and not item.name.startswith("_")
                    for item in node.body
                )
                and node.name not in used
            ):
                missing.setdefault(node.name, []).append(str(path))
    return missing


# ----------------------------------------------------------------------
# the static count of settable options
# ----------------------------------------------------------------------
def _defaults(function: ast.AST) -> int:
    arguments = function.args
    return len(arguments.defaults) + sum(
        default is not None for default in arguments.kw_defaults
    )


def settable_options(root: Path) -> Dict[str, int]:
    """Count the settable options of the modules under ``root``.

    Returns ``module:qualified name`` → the number of its parameters with a
    default, for every public top-level function and every public method
    (``__init__`` included) of a public top-level class that has any.
    """
    found: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        module = str(path.relative_to(root))
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, FUNCTIONS):
                members = [(node.name, node)]
            else:
                members = [
                    (f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and (not item.name.startswith("_") or item.name == "__init__")
                ]
            for name, function in members:
                count = _defaults(function)
                if count:
                    found[f"{module}:{name}"] = count
    return found


def flagged(package: str, root: Path, ran: Set[CodeType]) -> Dict[str, List[str]]:
    """Everything the guard flags in ``package`` (source under ``root``)."""
    return {**unreferenced_classes(root), **unrun(package, ran)}


def check_allowed(found: Dict[str, List[str]], allowed: Dict[str, str]):
    """Return the flagged names not allowed, and the allowed names not flagged."""
    return (
        {name: where for name, where in found.items() if name not in allowed},
        sorted(name for name in allowed if name not in found),
    )


# ----------------------------------------------------------------------
# the drive of src/repro
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _WorkerThread(threading.Thread):
    """A worker "process" run as a thread, which cannot be killed."""

    def terminate(self) -> None:
        """Fail the drive plainly where the executor would kill a worker."""
        raise AssertionError(
            f"{self.name} still ran after the executor's join timeout")


class _ThreadContext:
    """A multiprocessing context whose worker "processes" are threads."""

    Process = _WorkerThread


def _distributed_run(scratch: Path) -> None:
    from repro.experiments.distributed import DistributedExecutor
    from repro.experiments.runner import run_experiment

    spawn = multiprocessing.get_context
    multiprocessing.get_context = lambda *args: _ThreadContext
    try:
        result = run_experiment("e2", preset="quick", executor=DistributedExecutor(
            workers=1, run_dir=scratch / "distributed"))
    finally:
        multiprocessing.get_context = spawn
    assert result.pending_points == 0


def _serve_one_get() -> None:
    from repro import cli, serve

    servers = []
    create = serve.create_server

    def keep(*args, **kwargs):
        servers.append(create(*args, **kwargs))
        return servers[-1]

    port = _free_port()
    serve.create_server = keep
    thread = threading.Thread(target=cli.main, args=(["serve", "--port", str(port)],))
    thread.start()
    try:
        deadline = time.monotonic() + 30
        while not servers:
            assert time.monotonic() < deadline, "repro serve did not start"
            time.sleep(0.01)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/runs")
        response = connection.getresponse()
        response.read()
        connection.close()
        assert response.status == 200
    finally:
        serve.create_server = create
        if servers:
            servers[0].shutdown()
        thread.join(30)
    assert not thread.is_alive(), "repro serve did not stop"


def drive_src(scratch: Path) -> None:
    """Import all of ``repro`` and drive it: sweeps, CLI, distributed, serve."""
    import_all("repro")
    from repro import cli
    from repro.experiments.runner import run_experiment
    from test_experiment_registry import QUICK_SWEEPS

    for experiment, overrides in QUICK_SWEEPS.values():
        run_experiment(experiment, preset="quick", overrides=overrides)
    run_dir = str(scratch / "sharded")
    for argv in (
        ["list"],
        ["docs", "--check"],
        ["docs", "--output-dir", str(scratch / "docs")],
        ["run", "e2", "--preset", "quick", "--shard", "1/2", "--run-dir", run_dir, "--quiet"],
        ["run", "e2", "--preset", "quick", "--resume", "--run-dir", run_dir,
         "--json", str(scratch / "e2.json")],
    ):
        assert cli.main(argv) == 0, argv
    _distributed_run(scratch)
    _serve_one_get()


def main(argv: List[str]) -> int:
    """Drive ``src/repro`` in scratch directory ``argv[1]``; print the flagged
    names and the generators seeded from OS entropy as JSON."""
    scratch = Path(argv[1])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), entropy_seeds(SRC) as unseeded:
        ran = record_calls(lambda: drive_src(scratch))
    print(json.dumps({"flagged": flagged("repro", SRC, ran), "unseeded": unseeded},
                     indent=1, sort_keys=True))
    return 0


@pytest.fixture(scope="module")
def src_drive(tmp_path_factory):
    """What the guard finds in ``src/repro``, driven in a fresh interpreter
    (so that import-time code runs under the profiler too): the flagged
    names, and the callers of generators seeded from OS entropy."""
    path = [str(SRC.parent), str(TESTS), *filter(None, [os.environ.get("PYTHONPATH")])]
    completed = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("drive"))],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_every_public_definition_has_a_caller_in_src(src_drive):
    missing, _ = check_allowed(src_drive["flagged"], ALLOWED)
    assert not missing, (
        "public definitions src/repro never runs — delete them, move a test "
        f"oracle to tests/oracles.py, or allow-list a real user: {missing}"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allow_list_entry_is_still_needed(src_drive, name):
    _, stale = check_allowed(src_drive["flagged"], {name: ALLOWED[name]})
    assert not stale, f"{name} now runs when src/repro is driven, or is gone"


def test_no_generator_in_src_is_seeded_from_os_entropy(src_drive):
    assert not src_drive["unseeded"], (
        "src/repro seeded random.Random from OS entropy — pass the sweep "
        f"point's seed: {src_drive['unseeded']}"
    )


def test_settable_options_stay_within_the_bound():
    options = settable_options(SRC)
    count = sum(options.values())
    assert count <= MAX_SETTABLE_OPTIONS, (
        f"src/repro has {count} settable options, over the bound "
        f"{MAX_SETTABLE_OPTIONS}: give each a caller in src that sets it, or "
        f"make it a constant ({options})"
    )


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
def flagged_in(tmp_path, files, drive):
    """Write package ``files`` (relative path → source), import and drive it
    under the profiler, and return what the guard flags.

    ``drive`` gets a loader: ``load("mod")`` imports the package's ``mod``.
    """
    package = f"throwaway_{tmp_path.name}"
    root = tmp_path / package
    for name, source in {"__init__.py": "", **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    sys.path.insert(0, str(tmp_path))
    importlib.invalidate_caches()
    try:
        def run():
            import_all(package)
            drive(lambda name: importlib.import_module(f"{package}.{name}"))

        return set(flagged(package, root, record_calls(run)))
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.split(".")[0] == package]:
            del sys.modules[name]


def _nothing(load):
    pass


RULE_CASES = {
    "unreferenced_function_flagged": (
        {"mod.py": "def orphan():\n    return 1\n\ndef used():\n    return 2\n"},
        lambda load: load("mod").used(),
        {"orphan"},
    ),
    "docstring_mention_does_not_count": (
        {"mod.py": 'def orphan():\n    pass\n\n'
                   'def user():\n    """Calls orphan."""\n\n'
                   'user()\n'},
        _nothing,
        {"orphan"},
    ),
    "self_reference_does_not_count": (
        {"mod.py": "def loop(n):\n    return loop(n - 1) if n else 0\n"},
        _nothing,
        {"loop"},
    ),
    "init_reexport_does_not_count": (
        {"__init__.py": "from .mod import helper\n__all__ = ['helper']\n",
         "mod.py": "def helper():\n    pass\n"},
        _nothing,
        {"helper"},
    ),
    "call_in_same_module_counts": (
        {"mod.py": "def helper():\n    pass\n\nhelper()\n"},
        _nothing,
        set(),
    ),
    "decorator_runs_at_import": (
        {"mod.py": "def register(f):\n    return f\n\n"
                   "@register\ndef sweep():\n    pass\n"},
        _nothing,
        {"sweep"},
    ),
    "private_definition_ignored": (
        {"mod.py": "def _internal():\n    pass\n\nclass _Box:\n    def size(self):\n"
                   "        pass\n"},
        _nothing,
        set(),
    ),
    "called_method_passes": (
        {"mod.py": "class Box:\n    def size(self):\n        return 1\n"},
        lambda load: load("mod").Box().size(),
        set(),
    ),
    "unreferenced_method_of_a_covered_class_flagged": (
        {"mod.py": "class Edge:\n    def other(self):\n        return self.other()\n\n"
                   "    def key(self):\n        pass\n"},
        lambda load: load("mod").Edge().key(),
        {"Edge.other"},
    ),
    "method_reached_only_through_a_shared_name_flagged": (
        {"mod.py": "class Channel:\n    def reset(self):\n        pass\n\n"
                   "class Recorder:\n    def reset(self):\n        pass\n\n"
                   "def clear(channel):\n    channel.reset()\n"},
        lambda load: load("mod").clear(load("mod").Channel()),
        {"Recorder.reset"},
    ),
    "abstract_method_passes_through_an_override": (
        {"mod.py": "class Base:\n    def step(self):\n        \"\"\"Advance.\"\"\"\n"
                   "        raise NotImplementedError\n\n"
                   "class Impl(Base):\n    def step(self):\n        return 1\n"},
        lambda load: load("mod").Impl().step(),
        set(),
    ),
    "abstract_method_flagged_while_no_override_runs": (
        {"mod.py": "class Base:\n    def step(self):\n        \"\"\"Advance.\"\"\"\n\n"
                   "class Impl(Base):\n    def step(self):\n        return 1\n"},
        lambda load: load("mod").Impl(),
        {"Base.step", "Impl.step"},
    ),
    "accessors_and_static_methods_are_bodies": (
        {"mod.py": "class Box:\n    @property\n    def size(self):\n        return 1\n\n"
                   "    @staticmethod\n    def make():\n        return Box()\n"},
        lambda load: load("mod").Box().size,
        {"Box.make"},
    ),
    "attribute_reference_counts": (
        {"a.py": "class Box:\n    pass\n",
         "b.py": "from . import a\n\nVALUE = a.Box\n"},
        _nothing,
        set(),
    ),
    "import_outside_init_counts": (
        {"a.py": "class Failure(Exception):\n    pass\n",
         "b.py": "from .a import Failure as Renamed\n"},
        _nothing,
        set(),
    ),
    "unreferenced_class_without_methods_flagged": (
        {"mod.py": "class Record:\n    '''Mentions Record.'''\n\n    size: int = 0\n"},
        _nothing,
        {"Record"},
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_reachability_rule(tmp_path, case):
    files, drive, expected = RULE_CASES[case]
    assert flagged_in(tmp_path, files, drive) == expected


def test_stale_allow_list_entry_is_seen(tmp_path):
    found = flagged_in(
        tmp_path, {"mod.py": "def orphan():\n    pass\n\ndef used():\n    pass\n"},
        lambda load: load("mod").used(),
    )
    missing, stale = check_allowed(
        {name: ["mod"] for name in found},
        {"orphan": "a user", "used": "no longer needed", "gone": "deleted"},
    )
    assert not missing
    assert stale == ["gone", "used"]


def test_unseeded_generators_are_attributed_to_their_nearest_caller(tmp_path):
    # a None seed counts where the code under the root asks for it, not
    # where a library outside the root does on the root's behalf
    root = tmp_path / "root"
    root.mkdir()
    (tmp_path / "entropy_library.py").write_text(
        "import random\n\ndef fresh():\n    return random.Random()\n"
    )
    (root / "entropy_user.py").write_text(
        "import random\n\nimport entropy_library\n\n"
        "def unseeded():\n    return random.Random()\n\n"
        "def seeded():\n    return random.Random(7)\n\n"
        "def through_a_library():\n    return entropy_library.fresh()\n"
    )
    sys.path[:0] = [str(tmp_path), str(root)]
    try:
        user = importlib.import_module("entropy_user")
        with entropy_seeds(root) as records:
            user.seeded()
            user.through_a_library()
            user.unseeded()
    finally:
        sys.path.remove(str(tmp_path))
        sys.path.remove(str(root))
        sys.modules.pop("entropy_user", None)
        sys.modules.pop("entropy_library", None)
    assert records == ["entropy_user.py:6 in unseeded"]


def test_settable_options_follow_the_counting_rule(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent("""\
        def public(a, b=1, *, c, d=2):
            pass

        def _private(a=1):
            pass

        class Public:
            def __init__(self, a=1):
                pass

            def method(self, a, b=None):
                pass

            def _helper(self, a=1):
                pass

            def __repr__(self, a=1):
                pass

        class _Private:
            def method(self, a=1):
                pass
    """))
    assert settable_options(tmp_path) == {
        "mod.py:public": 2, "mod.py:Public.__init__": 1, "mod.py:Public.method": 1,
    }


def test_init_export_mismatch_is_seen(tmp_path):
    path = tmp_path / "__init__.py"
    path.write_text("from pkg.mod import kept, dropped\n__all__ = ['kept', 'ghost']\n")
    exported, bound = init_exports(path)
    assert exported == ["kept", "ghost"]
    assert bound == {"kept", "dropped"}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
