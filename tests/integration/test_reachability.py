"""Every module and every definition under ``src/repro`` is reachable.

Modules: the shipped entry points are the ``repro-smm`` CLI
(``repro.cli``) and the sweep worker it spawns (``repro.runx.workproc``).
The walk follows ``import``/``from ... import`` statements and the string
literals (not docstrings) that name a ``repro.*`` module, since spec and
worker tables refer to code that way.  Importing a module also reaches the
packages above it.  A module nothing reaches is machinery no command uses:
delete it, or ship it.

Definitions: every function, class and method must be named somewhere in
``src/repro``, ``examples/`` or ``scripts/`` outside its own body.  Package
``__init__`` imports and ``__all__`` lists do not count: a re-export is not
a use.  A ``"module:function"`` executor string names its function, and an
attribute of a non-``repro`` module (``threading.Lock``) names nothing of
ours.  Dunder methods and overrides of a stdlib base class's methods are
exempt, and so is :data:`ALLOWED`.
"""

import ast
import builtins
import importlib
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
USERS = (SRC / "repro", REPO / "examples", REPO / "scripts")
ROOTS = ("repro.cli", "repro.runx.workproc")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_EXECUTOR = re.compile(r"\brepro(?:\.\w+)+:(\w+)")

#: Definitions only tests name, each kept for the tier-1 tests that need
#: it: test seams on shipped classes, the reference the fused rate pass is
#: pinned against, and the paper-claim measurements.  At most ten entries.
ALLOWED = {
    # the fleet tests dial the daemon's ephemeral TCP port
    # (tests/serve/test_fleet.py::test_agent_runs_cells_end_to_end_pure_fleet)
    "repro/serve/daemon.py:ServeDaemon.tcp_endpoint",
    # the per-CPU reference of Node._settle: tests/machine/
    # test_cpu_exec.py::test_integer_sum_rates_equal_list_sum_rates_bit_for_bit
    # and tests/faults/test_machine_faults.py::test_degrade_scales_cpu_rate
    "repro/machine/cpu.py:LogicalCpu.gross_hz",
    # finding 7, SMM time charged to the victim task: tests/integration/
    # test_paper_shapes.py::test_claim_smm_time_invisible_to_tools(_inflation_bands)
    # and tests/sched/test_accounting.py
    "repro/sched/accounting.py:TaskTimes.inflation_pct",
    "repro/sched/accounting.py:AccountingReport.conservation_error",
}


# -- module walk -------------------------------------------------------------

def _modules():
    """Module name → source path for every module in the package."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _docstrings(tree):
    return {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}


def _references(name, path, modules):
    """Modules named by one module's imports and string literals."""
    here = name if path.name == "__init__.py" else name.rpartition(".")[0]
    dotted = []
    tree = ast.parse(path.read_text(), str(path))
    # docstrings mention modules without using them
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = here.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            dotted.append(base)
            dotted += [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            dotted += _DOTTED.findall(node.value)
    refs = set()
    for ref in dotted:
        # the longest module prefix, plus every package above it
        parts = ref.split(".")
        for i in range(len(parts), 0, -1):
            if ".".join(parts[:i]) in modules:
                refs.update(".".join(parts[:j]) for j in range(1, i + 1))
                break
    return refs


def unreached():
    modules = _modules()
    seen = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += _references(name, modules[name], modules) - seen
    return sorted(set(modules) - seen)


# -- definition scan -----------------------------------------------------------

def _is_ours(module):
    return module.split(".")[0] == "repro"


def _foreign_bindings(tree):
    """Local name → dotted path, for everything imported from outside repro."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if not _is_ours(a.name):
                    out[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not _is_ours(node.module or ""):
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def _names(path, tree):
    """(name, line) of every use of one of our names in one file.  A string
    counts only as a ``"module:function"`` executor, so ``__all__`` lists
    name nothing; neither do a package ``__init__``'s imports."""
    init = path.name == "__init__.py"
    docs = _docstrings(tree)
    # a name imported from outside repro, and its attributes, are not ours
    foreign = set(_foreign_bindings(tree))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in foreign:
                out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if not init and (node.level or _is_ours(node.module or "")):
                out += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            out += [(fn, node.lineno) for fn in _EXECUTOR.findall(node.value)]
    return out


def _resolve_foreign(base, bindings):
    """The stdlib class a base-class expression names, or None."""
    parts = []
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if not isinstance(base, ast.Name):
        return None
    if base.id in bindings:
        dotted = bindings[base.id].split(".")
    elif not parts and hasattr(builtins, base.id):
        return getattr(builtins, base.id)
    else:
        return None
    dotted += reversed(parts)
    for i in range(len(dotted), 0, -1):
        try:
            obj = importlib.import_module(".".join(dotted[:i]))
        except ImportError:
            continue
        for attr in dotted[i:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def _overrides_stdlib(cls, method, bindings):
    """``method`` is defined by one of ``cls``'s stdlib bases."""
    bases = (_resolve_foreign(b, bindings) for b in cls.bases)
    return any(isinstance(b, type) and hasattr(b, method) for b in bases)


def _definitions(tree):
    """(node, qualified name, enclosing class or None) of every def."""
    out = []

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = scope + [child.name]
                out.append((child, ".".join(qual), cls))
                visit(child, qual,
                      child if isinstance(child, ast.ClassDef) else None)
            else:
                visit(child, scope, cls)

    visit(tree, [], None)
    return out


def unnamed():
    """``path:qualname`` of every definition under src/repro nothing names."""
    files = {}
    for base in USERS:
        for path in sorted(base.rglob("*.py")):
            files[path] = ast.parse(path.read_text(), str(path))
    uses = {}
    for path, tree in files.items():
        for name, line in _names(path, tree):
            uses.setdefault(name, []).append((path, line))
    ours = {p: t for p, t in files.items() if (SRC / "repro") in p.parents}
    missing = []
    for path, tree in ours.items():
        bindings = _foreign_bindings(tree)
        rel = path.relative_to(SRC).as_posix()
        for node, qual, cls in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if cls is not None and _overrides_stdlib(cls, name, bindings):
                continue
            lo = min([node.lineno] + [d.lineno for d in node.decorator_list])
            hi = node.end_lineno
            if any(p != path or not lo <= line <= hi
                   for p, line in uses.get(name, ())):
                continue
            missing.append(f"{rel}:{qual}")
    return sorted(missing)


# -- tests ---------------------------------------------------------------------

def test_every_module_reached_from_a_shipped_entry_point():
    missing = unreached()
    assert missing == [], f"{len(missing)} modules no shipped command reaches: {missing}"


def test_every_definition_named_by_a_user():
    missing = [d for d in unnamed() if d not in ALLOWED]
    assert missing == [], (
        f"{len(missing)} definitions nothing in src/, examples/ or scripts/ "
        f"names (delete them, or use them): {missing}")


def test_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 10
    stale = ALLOWED - set(unnamed())
    assert not stale, f"allowlisted but named (or gone): {sorted(stale)}"


def test_entry_points_do_not_import_numpy():
    code = (
        "import sys, repro.cli, repro.runx.workproc; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
