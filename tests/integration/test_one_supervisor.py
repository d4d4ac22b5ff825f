"""``repro.runx.supervisor`` is the only code that launches a worker.

The sweep runner and the serve worker agent (remote, or one of the
daemon's own ``--workers``) drive ``repro.runx.workproc`` children
through ``WorkerChild``, so the spawn, handshake, watchdog, heartbeat
and teardown rules exist once.  These checks keep a second supervisor
or a second dispatcher from growing back: the serve package starts no
subprocess of its own, only its agent constructs a ``WorkerChild``, and
only the supervisor names the worker module as something to run.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
_SPAWNERS = {"create_subprocess_exec", "create_subprocess_shell", "Popen"}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_serve_package_spawns_no_subprocess():
    offenders = []
    for path in sorted((SRC / "repro" / "serve").rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and _called_name(node) in _SPAWNERS:
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno} "
                    f"{_called_name(node)}")
    assert not offenders, (
        "spawn workers through repro.runx.supervisor.WorkerChild, not a "
        "second supervisor: " + ", ".join(offenders))


def test_only_the_agent_drives_a_worker_in_the_serve_package():
    """Local and remote workers are both agents: a daemon-side pool that
    drives its own children is the second dispatch path this guards."""
    drivers = sorted({
        str(path.relative_to(SRC))
        for path in (SRC / "repro" / "serve").rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called_name(node) == "WorkerChild"
    })
    assert drivers == ["repro/serve/agent.py"]


def test_only_the_supervisor_names_the_worker_module_to_run():
    """Docstrings may describe the worker; only code that runs it names
    it in a string literal (the ``-m`` argument)."""
    namers = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = _tree(path)
        docs = {id(n.value) for n in ast.walk(tree)
                if isinstance(n, ast.Expr)}
        if any(isinstance(n, ast.Constant) and id(n) not in docs
               and n.value == "repro.runx.workproc" for n in ast.walk(tree)):
            namers.append(str(path.relative_to(SRC)))
    assert namers == ["repro/runx/supervisor.py"]
