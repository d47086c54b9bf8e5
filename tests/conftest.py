"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def child_env() -> dict:
    """Environment for a child interpreter that imports the package from
    this checkout's src/, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env
