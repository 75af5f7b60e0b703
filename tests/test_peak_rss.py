"""Tests for ``tools/peak_rss.py``, the peak-RSS ceiling CI runs commands under."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def run_under(ceiling_mb: float, *command: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--ceiling-mb", str(ceiling_mb), "--", *command],
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("ceiling_mb, code", [(10_000, 0), (1, 1)])
def test_exit_code_follows_the_ceiling(ceiling_mb, code):
    # A child that touches 64 MiB cannot peak below 1 MiB.
    result = run_under(ceiling_mb, sys.executable, "-c", "bytearray(64 << 20)")
    assert result.returncode == code, result.stderr
    peak = float(result.stderr.split("peak RSS: ")[1].split(" MiB")[0])
    assert peak > 64


def test_a_failing_child_keeps_its_exit_code():
    result = run_under(10_000, sys.executable, "-c", "raise SystemExit(3)")
    assert result.returncode == 3
    assert "peak RSS: " in result.stderr
