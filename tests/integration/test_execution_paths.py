"""One determinism contract across the three execution paths.

A small Table-2 (EP) sweep runs in-process, on the sweep runner's
persistent worker processes with ``jobs=2``, and through a ``serve``
daemon.  The canonical projection ``{id, status, value, seed}`` of every
cell must be byte-identical across all three.
"""

import asyncio
import json

from repro.harness.mpi_tables import table_cell_specs
from repro.runx import SweepRunner
from repro.serve import ServeClient
from repro.serve.daemon import ServeDaemon
from tests.serve.test_daemon import _call, _cfg, _submit_records

SPECS = table_cell_specs("EP", quick=True, reps=1, seed=1)[:4]


def _project(rows) -> str:
    return json.dumps(sorted(rows, key=lambda r: r["id"]), sort_keys=True)


def _runner_projection(**runner_kw) -> str:
    with SweepRunner(**runner_kw) as runner:
        results = runner.run(SPECS)
    return _project(
        {"id": r.id, "status": r.status, "value": r.value, "seed": r.seed}
        for r in results.values())


def _served_projection(tmp_path) -> str:
    cfg = _cfg(tmp_path, workers=2)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        try:
            client = ServeClient(socket_path=cfg.resolved_socket())
            return await _call(client, client.submit, _submit_records(SPECS))
        finally:
            await daemon.drain()

    rep = asyncio.run(scenario())
    seeds = {s.id: s.base_seed for s in SPECS}
    # The daemon runs every attempt on the spec's base_seed.
    return _project(
        {"id": c["id"], "status": c["status"], "value": c.get("value"),
         "seed": seeds[c["id"]]}
        for c in rep["cells"])


def test_inline_runner_and_served_sweeps_are_byte_identical(tmp_path):
    assert len(SPECS) == 4 and len({s.base_seed for s in SPECS}) > 1
    inline = _runner_projection(isolation="inline")
    assert all(r["status"] == "ok" for r in json.loads(inline))
    assert _runner_projection(isolation="process", jobs=2) == inline
    assert _served_projection(tmp_path) == inline
