"""Run manifests: provenance completeness and re-runnability."""

import json

from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest, calibration_constants


def test_calibration_constants_cover_every_subsystem():
    c = calibration_constants()
    assert set(c) == {"network", "scheduler", "smm", "machine", "work_units"}
    assert c["network"]["latency_ns"] > 0
    assert c["smm"]["entry_latency_ns"] > 0
    assert c["work_units"]["EP"]["A"] > 0
    json.dumps(c)  # JSON-able


def test_manifest_records_environment_and_cells(tmp_path):
    m = RunManifest(command="table2", params={"seed": 1, "quick": True})
    m.plan_cell(bench="EP", cls="A", nodes=2, smm=0, base_seed=1)
    m.add_cell("EP.A n=2 smm=0", mean_s=2.89, values_s=[2.89])
    d = m.to_dict()
    assert d["schema"] == MANIFEST_SCHEMA
    assert d["command"] == "table2"
    assert d["params"] == {"seed": 1, "quick": True}
    assert d["version"] and d["python"] and d["platform"]
    assert d["created_unix"] > 0
    assert d["matrix"] == [
        {"bench": "EP", "cls": "A", "nodes": 2, "smm": 0, "base_seed": 1}
    ]
    cell = d["cells"][0]
    assert cell["label"] == "EP.A n=2 smm=0"
    assert cell["mean_s"] == 2.89
    assert cell["at_wall_s"] >= 0
    assert d["wall_s"] >= cell["at_wall_s"]

    path = tmp_path / "m.json"
    m.write(str(path))
    written = json.loads(path.read_text())
    # wall_s / elapsed_monotonic_s are sampled at serialization time;
    # everything else round-trips
    live = json.loads(m.to_json())
    assert written.pop("wall_s") <= live.pop("wall_s")
    assert written.pop("elapsed_monotonic_s") <= live.pop("elapsed_monotonic_s")
    assert written == live


def test_manifest_v2_mode_durations_and_atomicity(tmp_path):
    m = RunManifest(command="table2", params={}, mode="journal")
    m.add_cell("EP.A n=2 rpn=1 smm=0", id="EP.A n=2 rpn=1 smm=0",
               status="ok", attempts=2, duration_s=0.25, seed=32)
    d = m.to_dict()
    assert d["schema"] == 2
    assert d["mode"] == "journal"
    cell = d["cells"][0]
    assert cell["status"] == "ok" and cell["attempts"] == 2
    assert cell["duration_s"] == 0.25
    assert d["elapsed_monotonic_s"] >= 0

    # write is atomic: a failure mid-serialization must not clobber the
    # previous manifest (a later --resume reads this file)
    path = tmp_path / "m.json"
    m.write(str(path))
    before = path.read_text()
    import repro.obs.manifest as mod

    original = mod.calibration_constants
    mod.calibration_constants = lambda: (_ for _ in ()).throw(RuntimeError())
    try:
        try:
            m.write(str(path))
        except RuntimeError:
            pass
        assert path.read_text() == before
    finally:
        mod.calibration_constants = original


def test_manifest_matrix_is_sufficient_to_rerun_a_cell():
    """The acceptance criterion: re-running from the manifest's matrix
    reproduces the recorded result exactly (the simulation is
    deterministic given the recorded seed)."""
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    m = RunManifest(command="test", params={})
    spec = dict(bench="EP", cls="A", nodes=2, ranks_per_node=1, smm=2,
                base_seed=42)
    m.plan_cell(**spec)
    cfg = NasConfig(spec["bench"], NasClass(spec["cls"]), nodes=spec["nodes"],
                    ranks_per_node=spec["ranks_per_node"])
    first = run_nas_config(cfg, smm=spec["smm"], seed=spec["base_seed"])
    m.add_cell("EP.A n=2 rpn=1 smm=2", mean_s=first)

    # ... later, someone re-runs purely from the manifest JSON:
    rec = json.loads(m.to_json())
    cell = rec["matrix"][0]
    cfg2 = NasConfig(cell["bench"], NasClass(cell["cls"]), nodes=cell["nodes"],
                     ranks_per_node=cell["ranks_per_node"])
    again = run_nas_config(cfg2, smm=cell["smm"], seed=cell["base_seed"])
    assert again == rec["cells"][0]["mean_s"]


def test_harness_builder_fills_manifest_and_metrics():
    from repro.harness.mpi_tables import assemble_table, table_cell_specs
    from repro.obs import MetricsRegistry
    from repro.runx import SweepRunner

    m = RunManifest(command="table2", params={"quick": True})
    reg = MetricsRegistry()
    specs = table_cell_specs("EP", quick=True, reps=1, seed=1)
    for spec in specs:
        m.plan_cell(id=spec.id, fn=spec.fn, base_seed=spec.base_seed,
                    **spec.params)
    with SweepRunner(jobs=2, metrics=reg, manifest=m) as runner:
        results = runner.run(specs)
    halves = assemble_table("EP", True, results)
    assert set(halves) == {1, 4}
    n_cells = sum(3 * len(rows) for rows in halves.values())
    assert len(m.matrix) == n_cells
    assert len(m.cells) == n_cells
    assert all("base_seed" in c for c in m.matrix)
    # Simulation counters arrive as worker snapshots merged into reg.
    assert reg.get("smm.entries").value > 0
    assert reg.get("net.messages").value > 0
    assert reg.get("engine.events.fired").value > 0
