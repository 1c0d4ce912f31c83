"""Every demo, and the README's library quick start, runs to the end against the current API."""

import pathlib
import runpy

import pytest

from reach_audit import quickstart_source

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs():
    source = quickstart_source()
    assert "reduce_to_normal_form" in source and "assert" in source
    exec(compile(source, "README quick start", "exec"), {})
