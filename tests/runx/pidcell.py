"""A cell executor that reports which worker process ran it.

Tests name it as ``"tests.runx.pidcell:pid_cell"`` so they can tell a
persistent worker that kept serving from one that was respawned.
"""

import os


def pid_cell(params, seed, metrics=None):
    if params.get("raise"):
        raise RuntimeError(str(params["raise"]))
    return {"pid": os.getpid(), "seed": seed}
