"""Every demo script runs in-process, so drift in the public API the demos
use (``catalog()``, ``spec.kind``, ``evaluate_all``, ``equality_census``,
``mine_random`` ...) fails here. The demos assert their own closed forms."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
