"""The package runs on the standard library alone.

Importing numpy costs over 10 MiB of resident memory per process (every
sweep worker and service shard pays it), and the compiler has no use for
it, so no entry point may pull it in — not even transitively, and no
configuration selects an alternative implementation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler import CompilerConfig

ENTRY_MODULES = (
    "repro.cli",
    "repro.compiler.pipeline",
    "repro.verify",
    "repro.sweep",
    "repro.service",
    "repro.gateway",
)


def test_entry_points_never_import_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    probe = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False", out.stdout + out.stderr


def test_config_has_no_backend_field():
    with pytest.raises(TypeError):
        CompilerConfig(backend="pure")
