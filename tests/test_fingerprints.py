"""The physics output is byte-identical to the committed fingerprints.

``tests/fingerprints.json`` is what ``python3 tools/fingerprints.py`` printed
when it was last committed.  This test computes the same object with the
tool's own code, but runs the ``sweep`` and ``verify`` commands in-process
through click's ``CliRunner`` instead of in fresh interpreters.  A change
that means to move the physics output regenerates the file with the tool
and names the fingerprints that changed.

The hashes are of ``repr`` of doubles that come from the C library and
numpy, so another host or numpy build may print other bytes; the failure
message names this one.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from photonherald import cli

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "tests" / "fingerprints.json").read_text(encoding="utf-8"))


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprints_tool", ROOT / "tools" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_process_cli(*args):
    """``photonherald ARGS`` in this interpreter."""
    result = CliRunner().invoke(cli.main, list(args))
    return result.exit_code, result.stdout_bytes, result.stderr_bytes


def test_physics_output_matches_the_committed_fingerprints():
    got = load_tool().fingerprints(in_process_cli)
    changed = sorted(key for key in EXPECTED.keys() | got.keys() if got.get(key) != EXPECTED.get(key))
    host = f"{platform.platform()}, Python {platform.python_version()}, numpy {np.__version__}"
    assert not changed, f"fingerprints {changed} differ from tests/fingerprints.json on {host}"
