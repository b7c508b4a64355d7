"""Fixtures and helpers shared by the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3lat

GOLDEN = Path(__file__).parent / "golden"
# The directory that holds the k3lat under test: the checkout's src, or the
# site-packages of an installed copy.
SRC = str(Path(k3lat.__file__).resolve().parents[1])


def start_python(*args, env=(), unbuffered=False, **kwargs):
    """A fresh interpreter on args, not yet waited for, that imports the
    k3lat under test and writes no bytecode: the inherited environment with
    env added, its output buffered unless unbuffered. It runs in text mode,
    with stdout and stderr piped unless kwargs name them."""
    variables = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **dict(env)}
    variables.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        variables["PYTHONUNBUFFERED"] = "1"
    variables["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=variables, text=True,
                            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs})


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """The pinned CLI output corpus, with the working directory moved to a
    scratch directory that holds its witness files."""
    golden = json.loads((GOLDEN / "cli_outputs.json").read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return golden
