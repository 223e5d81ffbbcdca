"""The scripts load against the package's current API."""

import pathlib
import runpy

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).parent.parent / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])
