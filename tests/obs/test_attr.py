"""Unit tests for the noise-attribution engine (repro.obs.attr)."""

import json

import pytest

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.obs import MetricsRegistry
from repro.obs.attr import (
    AttrCapture,
    attribute_cell,
    build_profile,
    projection,
    render_explain,
)
from repro.obs.attr.capture import SendRec, WaitRec
from repro.obs.attr.profile import (
    COLLECTIVE,
    LATE_RECEIVER,
    LATE_SENDER,
    _classify,
)
from repro.simx.timeline import Timeline


def _run(cfg, smm, attr=None):
    return run_nas_config(cfg, smm=smm, seed=1, timeline=Timeline(), attr=attr)


def test_capture_is_inert():
    """Attaching the capture layer must not perturb the simulation: the
    hooks record, they never schedule — elapsed times are bit-identical."""
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)
    plain = _run(cfg, smm=2)
    cap = AttrCapture()
    observed = _run(cfg, smm=2, attr=cap)
    assert observed == plain


def test_capture_requires_enabled_timeline():
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)
    cap = AttrCapture()
    with pytest.raises(ValueError, match="timeline"):
        run_nas_config(cfg, smm=2, seed=1, attr=cap,
                       timeline=Timeline(enabled=False))


def test_build_profile_requires_finalized_capture():
    cap = AttrCapture()
    with pytest.raises(ValueError):
        build_profile(cap)


def test_attribute_cell_rejects_smm_zero():
    with pytest.raises(ValueError, match="smm"):
        attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=0)


def test_attribute_cell_infeasible_returns_none():
    # BT needs a square rank count; 2 ranks is infeasible.
    assert attribute_cell("BT", cls="A", nodes=2, rpn=1, smm=2) is None


# -- wait classification ------------------------------------------------------

def _send(seq, inject, queue, eta, visible):
    return {seq: SendRec(seq=seq, src=1, dst=0, tag=7, nbytes=64,
                         inject_ns=inject, queue_ns=queue, eta_ns=eta,
                         visible_ns=visible)}


def test_classify_late_sender():
    w = WaitRec(rank=0, begin_ns=100, end_ns=900, src=1, tag=7, coll=None,
                seq=5, msg_src=1, post_ns=90)
    cw = _classify(w, _send(5, 200, 50, 800, 850))
    assert cw.cls == LATE_SENDER
    # The message queued on the NIC 200..250, inside the wait span.
    assert cw.queue_ns == 50
    # Physically arrived at 800 but visible only at 850 (receiver gate).
    assert cw.gate_ns == 50


def test_classify_late_receiver():
    w = WaitRec(rank=0, begin_ns=500, end_ns=500, src=1, tag=7, coll=None,
                seq=5, msg_src=1, post_ns=490)
    cw = _classify(w, _send(5, 100, 0, 300, 300))
    assert cw.cls == LATE_RECEIVER
    assert cw.dur_ns == 0


def test_classify_collective():
    w = WaitRec(rank=0, begin_ns=100, end_ns=200, src=1, tag=1 << 20,
                coll="allreduce", seq=None, msg_src=1, post_ns=90)
    cw = _classify(w, {})
    assert cw.cls == COLLECTIVE
    assert cw.op == "allreduce"


def test_classify_unmatched_message_is_late_sender():
    w = WaitRec(rank=0, begin_ns=100, end_ns=900, src=1, tag=7, coll=None,
                seq=5, msg_src=1, post_ns=90)
    cw = _classify(w, {})
    assert cw.cls == LATE_SENDER


# -- end-to-end report shape --------------------------------------------------

def test_attribute_cell_report_and_rendering():
    reg = MetricsRegistry()
    a = attribute_cell("EP", cls="A", nodes=2, rpn=1, smm=2, seed=1,
                       metrics=reg)
    r = a.report
    assert r["bench"] == "EP" and r["nodes"] == 2 and r["smm"] == 2
    comp = r["components"]
    total = (comp["direct_smi_s"] + comp["induced_wait_s"]
             + comp["contention_s"] + comp["residual_s"])
    assert total == pytest.approx(r["slowdown_s"], abs=1e-6)
    assert r["conservation"]["ok"]
    assert len(r["per_rank"]) == 2
    assert reg.counter("attr.cells").value == 1
    assert reg.counter("attr.captures").value == 2  # baseline + noisy
    text = render_explain(r)
    assert "noise attribution" in text
    assert "direct SMI theft" in text
    assert "conservation" in text and "OK" in text
    assert "critical path" in text


# -- the zero-SMI projection --------------------------------------------------

def _baseline_record(seed, interval):
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)
    cap = AttrCapture()
    elapsed = run_nas_config(cfg, smm=0, seed=seed,
                             interval_jiffies=interval,
                             timeline=Timeline(), attr=cap)
    return elapsed, projection(build_profile(cap))


def test_zero_smi_baseline_is_seed_and_interval_invariant():
    """The invariant that lets one smm=0 cell serve every SMI class of
    its row: with no SMIs the RNG is never drawn, so seed and interval
    are inert — the run (and its whole projection) is bit-identical."""
    e1, r1 = _baseline_record(seed=1, interval=1000)
    e2, r2 = _baseline_record(seed=424243, interval=500)
    assert e1 == e2
    assert r1 == r2


def test_projection_round_trip_is_exact():
    """A projection crosses a worker pipe and a journal line as JSON;
    every number must come back bit-exact, not approximately."""
    _, proj = _baseline_record(seed=1, interval=1000)
    proj["elapsed_app_s"] = 0.1 + 0.2  # 0.30000000000000004
    assert json.loads(json.dumps(proj)) == proj
    assert set(proj) == {"elapsed_app_s", "span_ns", "ranks"}
    assert all(len(v) == 5 for v in proj["ranks"].values())
