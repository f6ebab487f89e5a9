"""Each demo script runs to completion against the current API."""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert [p.name for p in DEMOS] == [
        "catalog.py",
        "expressions.py",
        "orbits.py",
        "relations.py",
        "rendering.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where demos write files
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
