"""The examples must run: they are the documented public-API surface."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", timeout=120)
    assert "long-SMI slowdown" in out
    assert "stolen" in out


def test_smi_detection():
    out = run_example("smi_detection.py", timeout=180)
    assert "BIOSBITS" in out
    assert "detector:" in out


def test_rim_inspection_cost():
    out = run_example("rim_inspection_cost.py", timeout=180)
    assert "UnixBench idx" in out and "FT.A @4 nodes" in out
    assert "250 ms" in out


@pytest.mark.slow
def test_mpi_noise_study():
    out = run_example("mpi_noise_study.py", timeout=400)
    assert "EP.A" in out and "FT.A" in out
    assert "paper %" in out


@pytest.mark.slow
def test_convolve_htt():
    out = run_example("convolve_htt.py", timeout=500)
    assert "CacheFriendly" in out and "CacheUnfriendly" in out
