"""photonherald benchmark: one workload, every output checked, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1                  # every workload in turn

With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report (environment, per-pass medians, tail percentile and
sample count, error rate).  The full record, and in the traced run the
spans, are written under ``.perfbench_out/`` in the checkout.

Each workload runs in its own fresh interpreter (``worker.py``) with a fixed
``PYTHONHASHSEED``, against the package sources in ``src/``.  Set-up time is
the median over six fresh interpreters, the measuring one and one probe
after every second of its ten passes, because one sample of an import is too
noisy to compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("sweep-grid", "scheme-mix", "verify-suites", "cli-cold")

#: ``python -X importtime`` samples for the import metrics of the traced run.
IMPORT_PROBES = 3
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FOCK_CUTOFF"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[:4])} ...") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _worker(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--out-dir", str(OUT_DIR),
    ]
    proc = _run(cmd, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import time of ``photonherald.cli`` and of numpy."""
    samples: dict[str, list[float]] = {"photonherald.cli": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import photonherald.cli"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-2000:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.strip() in samples:
                samples[name.strip()].append(int(cumulative) / 1e6)
    return {
        "cli.import_s": statistics.median(samples["photonherald.cli"]),
        "cli.import_numpy_s": statistics.median(samples["numpy"]),
    }


def environment() -> dict[str, object]:
    """Where and on what the result was measured."""
    commit = "unknown (no .git in checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "photonherald").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool, declared: dict, deadline: float) -> dict:
    if traced:
        result = _worker(workload, seed, seconds, "trace", deadline)
        values = {**result["layers"], **_import_times(deadline)}
        wanted = declared["per_layer"]
    else:
        result = _worker(workload, seed, seconds, "measure", deadline)
        result["setup_samples_s"] = [result["setup_s"], *result.pop("setup_probes_s")]
        values = {
            key: result[key] for key in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(result["setup_samples_s"])
        values["error_rate"] = result["failed"] / max(result["attempted"], 1)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": {**environment(), "numpy": result["numpy"]},
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "errors": result["errors"], "metrics": metrics, "values": values,
        "detail": {k: v for k, v in result.items() if k not in ("layers", "errors")},
    }
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Readable lines ahead of the JSON result line."""
    detail = record["detail"]
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  trace={record['trace']}")
    print("   " + "  ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for name, metric in record["metrics"].items():
        print(f"   {name:<48s} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        print(f"   error_rate {record['values']['error_rate']:.6g} ({record['failed']}/{record['attempted']} ops failed)")
        if detail["tail_groups"] == 1:
            where = f"of {detail['tail_samples']} pooled samples"
        else:
            where = f"per pass, median of {detail['tail_groups']} passes of at least {detail['tail_samples']} samples"
        print(f"   latency_tail_ms is p{detail['tail_percentile']:g} {where}, at least {detail['tail_beyond']} beyond it")
        for i, p in enumerate(detail["passes"]):
            print(f"   pass {i}: {p['ops']} ops  {p['ops_per_s']:.6g} ops/s  p50 {p['p50_ms']:.6g} ms")
        print("   setup samples s: " + " ".join(f"{s:.4f}" for s in detail["setup_samples_s"]))
    else:
        print(f"   traced ops {detail['trace_ops']}; spans in {detail['spans_file']}")
    for err in record["errors"]:
        print(f"   error: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description="photonherald benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "photonherald" / "__init__.py").is_file():
        print(f"benchmark: no photonherald sources under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        OUT_DIR.mkdir(exist_ok=True)
        deadline = monotonic() + DEADLINE_S
        build = _run([sys.executable, "-m", "compileall", "-q", str(SRC)], deadline)
        if build.returncode != 0:
            raise BenchError(f"build failed: {build.stdout.strip()[-2000:]}")
        for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), declared, deadline)
            report(record)
            print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
            deadline = monotonic() + DEADLINE_S
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
