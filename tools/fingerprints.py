"""Fingerprints of photonherald's physics output, printed as one JSON object.

Usage, from the root of a checkout::

    python3 tools/fingerprints.py

It prints the sha256 of

* the CSV that ``photonherald sweep`` writes for the README example spec;
* the stdout of ``photonherald verify`` for both suites at seeds 1 and 2,
  next to each exit code (paper-values exits 1: criterion 09 fails by design);
* the newline join of ``json.dumps(result.to_dict(), sort_keys=True)`` over
  the first 1500 runs of the benchmark's scheme-mix workload at seed 13;
* the newline join of ``repr(rows)`` over the first 12 calls of its
  sweep-grid workload at seed 77;
* the newline join of ``repr(sweep_rows(...))`` over the edge grid of
  ``tests/test_analysis.py::test_sweep_rows_match_single_runs_on_edge_grid``
  (four theta0 values, null angles, a vanishing source), for every case at
  cutoffs 2 and 4.
* the sorted-key JSON of the run manifests, without their ``timestamp``,
  of the eight ``photonherald run`` inputs of the benchmark's cli-cold
  workload at seed 13, each followed by the manifest of ``run --config`` on
  a file holding that manifest: this pins each canonical config record and
  its ``config_hash`` on both run paths.

Run it in two checkouts and compare the outputs: equal objects mean equal
bytes on all of these inputs.  The package comes from the checkout's
``src/`` and the inputs from ``perfbench/workloads.py``, which is only
imported.  The command-line runs go through fresh interpreters, without
``FOCK_CUTOFF``; :func:`fingerprints` takes the runner as an argument, so
``tests/test_fingerprints.py`` computes the same object with the commands
run in-process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (needs the paths above)
from photonherald import CaseId, SweepSpec, sweep_rows  # noqa: E402

#: The spec of the ``photonherald sweep`` example in the README.
README_SWEEP_SPEC = {
    "theta1": {"start": 10, "stop": 50, "steps": 41, "unit": "deg"},
    "beta": [0, [0.3, 0.4], "0.1+0.2j"],
    "p": [0.5, 1.0],
}

#: The axes of the edge grid; ``test_sweep_rows_match_single_runs_on_edge_grid`` sweeps these.
EDGE_SWEEP_AXES = {
    "theta0": (0.0, 0.3, math.pi / 4, math.pi / 2),
    "theta1": (0.0, 1e-9, math.pi / 6, math.pi / 2, math.pi / 2 + 1e-7, math.pi, 4.0),
    "beta": (0j, 1 + 0j, -1 + 0j, 0.5j, 0.6 + 0.8j),
    "p": (0.0, 1e-150, 1e-12, 0.3, 1.0),
}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def fresh_cli(*args: str) -> tuple[int, bytes, bytes]:
    """``photonherald ARGS`` in a fresh interpreter on this checkout's ``src/``,
    as (exit code, stdout, stderr); stdout stays bytes, so the sweep's CRLF
    line ends are hashed as written."""
    env = {k: v for k, v in os.environ.items() if k != "FOCK_CUTOFF"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    cmd = [sys.executable, "-c", workloads.CliCold.ENTRY, *args]
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_manifest(cli: Callable[..., tuple[int, bytes, bytes]], *args: str) -> dict[str, object]:
    """The manifest ``photonherald ARGS`` prints, a ``run``, without its timestamp."""
    code, stdout, stderr = cli(*args)
    if code != 0:
        raise SystemExit(f"photonherald {' '.join(args)} failed: {stderr.decode().strip()}")
    manifest = json.loads(stdout)
    del manifest["timestamp"]
    return manifest


def first_results(workload, calls: int) -> list:
    return [workload.call(x) for x in itertools.islice(workload.ops(), calls)]


def fingerprints(cli: Callable[..., tuple[int, bytes, bytes]] = fresh_cli) -> dict[str, object]:
    """The fingerprints, with ``cli(*args)`` running ``photonherald ARGS`` as
    :func:`fresh_cli` does."""
    out: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(README_SWEEP_SPEC), encoding="utf-8")
        code, stdout, stderr = cli("sweep", str(spec))
        manifests, config = [], Path(tmp) / "manifest.json"
        for args, _ in workloads.CliCold(13).inputs:
            manifests.append(run_manifest(cli, *args))
            config.write_text(json.dumps(manifests[-1]), encoding="utf-8")
            manifests.append(run_manifest(cli, "run", "--config", str(config)))
    if code != 0:
        raise SystemExit(f"photonherald sweep failed: {stderr.decode().strip()}")
    out["readme_sweep_csv_sha256"] = sha256(stdout)
    for suite, seed in itertools.product(("paper-values", "invariants"), (1, 2)):
        code, stdout, _ = cli("verify", "--suite", suite, "--seed", str(seed))
        out[f"verify_{suite}_seed{seed}_stdout_sha256"] = sha256(stdout)
        out[f"verify_{suite}_seed{seed}_exit"] = code
    mix = first_results(workloads.SchemeMix(13), 1500)
    out["scheme_mix_1500_seed13_to_dict_sha256"] = sha256(
        "\n".join(json.dumps(result.to_dict(), sort_keys=True) for result in mix)
    )
    grids = first_results(workloads.SweepGrid(77), 12)
    out["sweep_grid_12_seed77_sha256"] = sha256("\n".join(repr(rows) for rows in grids))
    edges = (sweep_rows(SweepSpec(**EDGE_SWEEP_AXES, case=case), cutoff=cutoff) for case in CaseId for cutoff in (2, 4))
    out["edge_sweep_sha256"] = sha256("\n".join(repr(rows) for rows in edges))
    out["cli_cold_seed13_run_and_config_manifests_sha256"] = sha256(json.dumps(manifests, sort_keys=True))
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprints(), indent=2))
