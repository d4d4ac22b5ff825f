"""Every module under ``src/repro`` is reachable from a shipped entry point.

The shipped entry points are the ``repro-smm`` CLI (``repro.cli``) and the
sweep worker it spawns (``repro.runx.workproc``).  The walk follows
``import``/``from ... import`` statements and the string literals (not
docstrings) that name a ``repro.*`` module, since spec and worker tables
refer to code that way.  Importing a module also reaches the packages
above it.  A module nothing reaches is machinery no command uses: delete
it, or ship it.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
ROOTS = ("repro.cli", "repro.runx.workproc")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def _modules():
    """Module name → source path for every module in the package."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _references(name, path, modules):
    """Modules named by one module's imports and string literals."""
    here = name if path.name == "__init__.py" else name.rpartition(".")[0]
    dotted = []
    tree = ast.parse(path.read_text(), str(path))
    # docstrings mention modules without using them
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
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


def test_every_module_reached_from_a_shipped_entry_point():
    missing = unreached()
    assert missing == [], f"{len(missing)} modules no shipped command reaches: {missing}"


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
