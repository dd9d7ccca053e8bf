"""Smoke tests: the demos that call the public solver API run to the end."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["multiuser_designs.py", "single_user_link.py",
                                  "sectorization_cdf.py"])
def test_demo_runs(name, capsys, monkeypatch, tmp_path):
    # run from a scratch directory: sectorization_cdf.py writes its CSV there
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
