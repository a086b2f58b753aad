"""Import hygiene: lazy package exports and what a process pays for at start-up."""

import ast
import importlib
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))


def _run_python(code, cwd=None, **env_overrides):
    """Run *code* in a fresh interpreter; return its parsed JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    completed = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def test_cli_parser_loads_neither_numpy_nor_networkx():
    loaded = _run_python(
        "import json, sys\n"
        "import repro.workcraft.cli\n"
        "repro.workcraft.cli.build_parser()\n"
        "print(json.dumps([name for name in ('numpy', 'networkx') if name in sys.modules]))\n")
    assert loaded == []


def _cli_loads(argv, packages, cwd=None):
    """Run the CLI on *argv* in a fresh interpreter.

    Returns ``[exit code, sorted loaded modules of *packages*]``, where a
    module counts when it is one of *packages* or lies under one.
    """
    return _run_python(
        "import json, sys\n"
        "from repro.workcraft.cli import main\n"
        "code = main({!r})\n"
        "packages = {!r}\n"
        "print(json.dumps([code, sorted(\n"
        "    name for name in sys.modules\n"
        "    if any(name == p or name.startswith(p + '.') for p in packages))]))\n"
        .format(list(argv), list(packages)), cwd=cwd)


def test_truncated_verify_does_not_load_numpy_ma():
    """The cut-level frontier is deduplicated without ``np.unique``."""
    code, loaded = _cli_loads(
        ["verify", "--example", "ring", "--max-states", "20"], ["numpy.ma"])
    assert code == 1  # truncated: inconclusive properties
    assert loaded == []


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert exported
    listed = dir(module)
    for name in exported:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_lazy_exports_keep_aliases_and_star_imports():
    from repro.service import ClientBusy
    from repro.service.client import ServiceBusy

    assert ClientBusy is ServiceBusy
    namespace = {}
    exec("from repro import *", namespace)
    assert {"Verifier", "PetriNet", "__version__"} <= set(namespace)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_workers_inherit_the_exploration_stack():
    loaded = _run_python(
        "import json, sys\n"
        "from repro.service import VerificationService\n"
        "service = VerificationService(parallelism=1)\n"
        "try:\n"
        "    print(json.dumps([name for name in ('numpy', 'repro.petri.batch')\n"
        "                      if name in sys.modules]))\n"
        "finally:\n"
        "    service.close()\n",
        REPRO_MP_START_METHOD="fork")
    assert loaded == ["numpy", "repro.petri.batch"]


def test_no_src_module_imports_the_test_oracles():
    """Oracles live in ``tests/``: the library must never depend on them."""
    offenders = []
    for root, _, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    if module.split(".")[0] in ("oracles", "tests"):
                        offenders.append("{}:{}: {}".format(
                            os.path.relpath(path, SRC_DIR), node.lineno, module))
    assert not offenders, offenders


def test_no_function_in_the_batch_engine_exceeds_100_lines():
    """The exploration stays split into a start, a level step and a finish."""
    path = os.path.join(SRC_DIR, "repro", "petri", "batch.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    long_functions = [
        "{} ({} lines)".format(node.name, node.end_lineno - node.lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > 100]
    assert not long_functions, long_functions
