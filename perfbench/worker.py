"""One workload in one fresh interpreter; prints its measurements as one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and a fixed ``PYTHONHASHSEED``, so caches and imports never carry over from
one workload or mode to the next.  Modes:

* ``setup``   — import photonherald, build the inputs, warm up, report set-up time;
* ``measure`` — the same set-up, then ``--seconds`` of timed calls in passes,
  with one ``setup`` probe started after every second pass;
* ``trace``   — the same set-up, then a fixed number of calls with the tracer
  installed and as many without it, for per-layer numbers and the overhead.

Set-up time runs from the start of ``import photonherald`` to the first timed
call, warm-up included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

#: Timed passes per run.  On a shared host each CPU switches between a fast
#: and a slow state that lasts seconds to minutes, independently of the other
#: CPUs, and stalls come in bursts.  Passes therefore alternate between the
#: CPUs the process may use, and each metric is the median over passes of the
#: pass's own value, so that a few disturbed passes do not set it.
PASSES = 10
CPUS = sorted(os.sched_getaffinity(0))
#: Tail percentiles, highest first.  The ladder stops at p95: with thousands
#: of samples a higher percentile is set by stalls of a shared host (steal
#: time), not by the program.
TAIL_LADDER = (95.0, 90.0, 80.0, 75.0)
#: A pass ends after its share of ``--seconds`` and at least this many calls,
#: so that a run of a slow workload still has ten samples beyond p75.
MIN_PASS_CALLS = 4
#: Passes with at least this many samples each get their own tail.
PASS_TAIL_SAMPLES = 200


def pin(k: int) -> None:
    """Run this process (and the processes it starts) on the k-th allowed CPU, cyclically."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def tail(pass_latencies: list[list[float]]) -> dict | None:
    """The latency tail: the highest ladder percentile with at least ten
    samples beyond it, by nearest rank.

    When every pass has ``PASS_TAIL_SAMPLES`` samples, the percentile is
    chosen for the smallest pass and the value is the median of the passes'
    own tails; otherwise both come from the pooled samples.  ``None`` when
    there are too few samples for any percentile of the ladder.
    """
    smallest = min(map(len, pass_latencies))
    groups = pass_latencies if smallest >= PASS_TAIL_SAMPLES else [[x for lat in pass_latencies for x in lat]]
    n = min(map(len, groups))
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return {
                "tail_percentile": q,
                "tail_groups": len(groups),
                "tail_samples": n,
                "tail_beyond": n - rank,
                "tail_s": statistics.median(sorted(lat)[math.ceil(q / 100.0 * len(lat)) - 1] for lat in groups),
            }
    return None


class Loop:
    """Runs calls of one workload, gating each outside its timed span."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.stream = workload.ops()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def step(self, call=None) -> tuple[float, int] | None:
        """One call; returns (seconds, ops) when it succeeded."""
        wl = self.workload
        x = next(self.stream)
        n = wl.size(x)
        self.attempted += n
        start = perf_counter()
        try:
            out = (call or wl.call)(x)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.failed += n
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        try:
            bad = wl.check(x, out)
        except Exception as exc:
            bad = n
            self.errors.append(f"gate {type(exc).__name__}: {exc}")
        self.failed += bad
        return elapsed, n

    def status(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0,
            "errors": self.errors[:5],
        }


def _peak_rss_mb(workload) -> float:
    # cli-cold measures the photonherald processes it starts, not itself.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(args: argparse.Namespace, cpu: int) -> float:
    """Set-up time of a fresh interpreter that only sets up, on the given CPU."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--mode", "setup", "--out-dir", args.out_dir, "--cpu", str(cpu),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(loop: Loop, args: argparse.Namespace) -> dict:
    """Timed passes; every second one is followed by a set-up probe, on
    alternating CPUs, so that set-up is sampled across the whole run.  Peak RSS is read once
    ``rss_ops`` ops have run, so that memory is compared per amount of work,
    not per second."""
    wl = loop.workload
    start_ops = loop.attempted
    rss_mb = None
    passes = []
    pass_latencies: list[list[float]] = []
    setups: list[float] = []
    for k in range(PASSES):
        pin(k)
        end = perf_counter() + args.seconds / PASSES
        ops, busy, pass_lat, calls = 0, 0.0, [], 0
        while perf_counter() < end or calls < MIN_PASS_CALLS:
            calls += 1
            done = loop.step()
            if done is not None:
                elapsed, n = done
                ops += n
                busy += elapsed
                pass_lat.append(elapsed / n)
            if rss_mb is None and loop.attempted - start_ops >= wl.rss_ops:
                rss_mb = _peak_rss_mb(wl)
        passes.append(
            {
                "ops": ops,
                "busy_s": busy,
                "ops_per_s": ops / busy if busy else 0.0,
                "p50_ms": statistics.median(pass_lat) * 1e3 if pass_lat else 0.0,
            }
        )
        pass_latencies.append(pass_lat)
        if k % 2:
            setups.append(setup_probe(args, k // 2))
    while loop.attempted - start_ops < wl.rss_ops:  # a slow program still does the same work
        loop.step()
    if rss_mb is None:
        rss_mb = _peak_rss_mb(wl)
    latencies = [x for lat in pass_latencies for x in lat]
    found = tail(pass_latencies)
    if found is None:  # only when ops failed: every pass makes MIN_PASS_CALLS calls
        loop.errors.append(f"{len(latencies)} latency samples, too few for a tail; reporting the maximum")
        found = {"tail_percentile": 100.0, "tail_groups": 1, "tail_samples": len(latencies), "tail_beyond": 0,
                 "tail_s": max(latencies, default=0.0)}
    return {
        "passes": passes,
        "ops_per_s": statistics.median(p["ops_per_s"] for p in passes),
        "latency_p50_ms": statistics.median(p["p50_ms"] for p in passes),
        "latency_tail_ms": found.pop("tail_s") * 1e3,
        **found,
        "latency_samples": len(latencies),
        "setup_probes_s": setups,
        "peak_rss_mb": rss_mb,
        "rss_ops": wl.rss_ops,
    }


def trace(loop: Loop, seed: int, out_dir: str) -> dict:
    """Traced calls, then as many untraced ones for the overhead ratio."""
    import tracer
    from photonherald import elements

    wl = loop.workload
    before = elements._mixing_row.cache_info()
    dumps, traced_s, ops = [], 0.0, 0
    if wl.name == "cli-cold":
        hits = misses = entries = 0
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            for i in range(wl.trace_calls):
                path = os.path.join(tmp, f"{i}.json")
                done = loop.step(lambda x: wl.call(x, [os.path.join(os.path.dirname(__file__), "tracer.py"), path]))
                if done is None or not os.path.exists(path):
                    continue
                traced_s += done[0]
                ops += done[1]
                with open(path, encoding="utf-8") as fh:
                    dump = json.load(fh)
                for span in dump["spans"]:
                    span[0] = i
                dumps.append(dump)
                hits, misses, entries = hits + dump["cache"][0], misses + dump["cache"][1], entries + dump["cache"][2]
        entries /= max(len(dumps), 1)
    else:
        tr = tracer.Tracer()
        tr.install()
        try:
            for i in range(wl.trace_calls):
                tr.op = i
                done = loop.step()
                if done is not None:
                    traced_s += done[0]
                    ops += done[1]
        finally:
            tr.uninstall()
        dumps.append(tr.dump())
        after = elements._mixing_row.cache_info()
        hits, misses, entries = after.hits - before.hits, after.misses - before.misses, after.currsize
    untraced_s = 0.0
    for _ in range(wl.trace_calls):
        done = loop.step()
        if done is not None:
            untraced_s += done[0]
    metrics = tracer.summarize(dumps, max(ops, 1))
    metrics["elements.mixing_row.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["elements.mixing_row.entries"] = float(entries)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([dump["spans"] for dump in dumps], fh)
    return {"layers": metrics, "trace_ops": ops, "spans_file": spans_path}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--cpu", type=int, default=0, help="index of the allowed CPU to start on")
    args = parser.parse_args()
    pin(args.cpu)

    start = perf_counter()
    import numpy
    import photonherald

    import workloads

    loop = Loop(workloads.WORKLOADS[args.workload](args.seed))
    for _ in range(loop.workload.warmup):
        loop.step()
    result = {"setup_s": perf_counter() - start, "numpy": numpy.__version__, "photonherald": photonherald.__version__}
    if args.mode == "measure":
        result.update(measure(loop, args))
    elif args.mode == "trace":
        result.update(trace(loop, args.seed, args.out_dir))
    result.update(loop.status())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
