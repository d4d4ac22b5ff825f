"""One determinism contract across the three execution paths.

A small Table-2 (EP) sweep runs in-process, on the sweep runner's
persistent worker processes with ``jobs=2``, and through a ``serve``
daemon, once plain and once with ``attr`` (the attribution engine's
``--attr``).  The canonical projection ``{id, status, value, seed}`` of
every cell, after :func:`repro.runx.join_attribution` has joined each
noisy cell with its row's smm=0 cell, must be byte-identical across all
three, ``attribution`` blocks included.
"""

import asyncio
import json

import pytest

from repro.harness.mpi_tables import table_cell_specs
from repro.runx import CellResult, CellSpec, SweepRunner, join_attribution
from repro.serve import ServeClient
from repro.serve.daemon import ServeDaemon
from tests.serve.test_daemon import _call, _cfg, _submit_records

#: The n=1 smm 0/1/2 group plus n=2 smm 0.
SPECS = table_cell_specs("EP", quick=True, reps=1, seed=1)[:4]


def _with_attr(specs):
    return [CellSpec(id=s.id, fn=s.fn, base_seed=s.base_seed,
                     params={**s.params, "attr": True}) for s in specs]


def _project(specs, results) -> str:
    """The joined ``{id, status, value, seed}`` rows of ``results``."""
    joined, unpaired = join_attribution(specs, results)
    assert unpaired == []
    rows = ({"id": r.id, "status": r.status, "value": r.value,
             "seed": r.seed} for r in joined.values())
    return json.dumps(sorted(rows, key=lambda r: r["id"]), sort_keys=True)


def _runner_projection(specs, **runner_kw) -> str:
    with SweepRunner(**runner_kw) as runner:
        return _project(specs, runner.run(specs))


def _served_projection(tmp_path, specs):
    """The served projection and the daemon's status counters."""
    cfg = _cfg(tmp_path, workers=2)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        try:
            client = ServeClient(socket_path=cfg.resolved_socket())
            rep = await _call(client, client.submit, _submit_records(specs))
            return rep, (await _call(client, client.status))["counters"]
        finally:
            await daemon.drain()

    rep, counters = asyncio.run(scenario())
    seeds = {s.id: s.base_seed for s in specs}
    # The daemon runs every attempt on the spec's base_seed.
    return _project(specs, {
        c["id"]: CellResult(id=c["id"], status=c["status"],
                            value=c.get("value"), seed=seeds[c["id"]])
        for c in rep["cells"]}), counters


@pytest.mark.parametrize("attr", [False, True], ids=["plain", "attr"])
def test_inline_runner_and_served_sweeps_are_byte_identical(tmp_path, attr):
    specs = _with_attr(SPECS) if attr else SPECS
    assert len(specs) == 4 and len({s.base_seed for s in specs}) > 1
    inline = _runner_projection(specs, isolation="inline")
    rows = json.loads(inline)
    assert all(r["status"] == "ok" for r in rows)
    # Only the noisy cells (smm 1 and 2) carry an attribution block.
    assert sum("attribution" in r["value"] for r in rows) == (2 if attr else 0)
    assert _runner_projection(specs, isolation="process", jobs=2) == inline
    served, counters = _served_projection(tmp_path, specs)
    assert served == inline
    assert counters["serve.jobs.completed"] == 4
