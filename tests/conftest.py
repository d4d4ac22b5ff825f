"""Suite-wide isolation for process-global state.

The shared-baseline memo (``repro.obs.attr.baseline.global_store``) is
process-global by design — a persistent worker keeps it across the cells
it runs, so every attribution cell in the process reuses the zero-SMI
runs of the ones before it.  Tests, though, must not see each other's
baselines: a leaked hit silently skips the zero-SMI replay and changes
capture counts and metrics.  Reset the store around every test
(cheaply, via ``sys.modules`` so tests that never touch attribution
never import it).
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _fresh_baseline_store():
    mod = sys.modules.get("repro.obs.attr.baseline")
    if mod is not None:
        mod.reset_global_store()
    yield
    mod = sys.modules.get("repro.obs.attr.baseline")
    if mod is not None:
        mod.reset_global_store()

