"""Spans and counts at the layer boundaries of photonherald, for the traced run.

The tracer measures each layer from outside.  It replaces the public
functions listed in :data:`SPANS` with timing wrappers wherever a module of
the package holds a name for them (``photonherald.schemes.project_number``
as well as ``photonherald.fock.project_number``), and wraps a few class
methods to count work.  It is installed for the traced run only and removed
afterwards, so the untraced measurements run the package untouched.

Spans are kept in memory as ``[op, id, parent, name, start, end]`` rows and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children; calls nest strictly in one thread, so the
children never overlap.

Run as a script, this file is the traced ``photonherald`` entry point used
by the ``cli-cold`` workload::

    python3 perfbench/tracer.py OUT.json run --scheme main --p 0.9

It runs the CLI in-process with the tracer installed and writes the trace to
``OUT.json``.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Functions to time, by module: name in the module -> span name.
SPANS = {
    "fock": {
        "project_number": "fock.project_number",
        "partial_trace_discard": "fock.partial_trace_discard",
        "tensor": "fock.tensor",
    },
    "elements": {
        "apply_beam_splitter": "elements.apply_beam_splitter",
        "unitarity_check": "elements.unitarity_check",
    },
    "tpam": {
        "apply_generic_tpam": "tpam.apply_generic_tpam",
        "fwm_evolve": "tpam.fwm_evolve",
        "fwm_conditioned_channel": "tpam.fwm_conditioned_channel",
    },
    "schemes": {
        "reduce_through_bs0": "schemes.reduce_through_bs0",
        "run_main_scheme": "schemes.run_main",
        "run_doubled_scheme": "schemes.run_doubled",
        "run_pair_herald_scheme": "schemes.run_pair_herald",
        "run_filter_split_scheme": "schemes.run_filter_split",
    },
    "analysis": {
        "sweep_rows": "analysis.sweep_rows",
        "optimize_ps": "analysis.optimize_ps",
        "jf_length_scan": "analysis.jf_length_scan",
    },
    "verify": {
        "paper_value_checks": "verify.paper_value_checks",
        "invariant_checks": "verify.invariant_checks",
    },
    "cli": {
        "run_from_config": "cli.run_from_config",
        "build_manifest": "cli.build_manifest",
    },
}

#: Arguments that make up a call's parameter key, for the distinct-key ratio.
KEYS = {
    "schemes.reduce_through_bs0": ("p", "theta0", "phi0", "cutoff"),
    "tpam.fwm_conditioned_channel": ("params", "condition"),
}


class Tracer:
    """Records spans and counts while installed on the photonherald modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set[str]] = defaultdict(set)
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, name, fn, args, kwargs):
        record = [self.op, len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        key_names = KEYS.get(name)
        signature = inspect.signature(fn) if key_names else None

        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys[name].add(repr(tuple(bound.arguments[k] for k in key_names)))
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every module-level name that refers to a traced function,
        and the counted class methods."""
        from photonherald import fock

        modules = [m for n, m in list(sys.modules.items()) if n == "photonherald" or n.startswith("photonherald.")]
        wrappers = {}
        for short, names in SPANS.items():
            module = sys.modules.get(f"photonherald.{short}")
            if module is None:
                continue
            for attr, span in names.items():
                fn = getattr(module, attr)
                wrappers[id(fn)] = self._span_wrapper(span, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

        counts, timed = self.counts, self._timed
        init, validate, consolidated = fock.PureState.__init__, fock.ModeRegister.validate_ket, fock.Ensemble.consolidated

        def counted_init(state, *args, **kwargs):
            counts["fock.PureState.constructed"] += 1
            init(state, *args, **kwargs)

        def counted_validate(register, ket):
            counts["fock.ModeRegister.validate_ket.calls"] += 1
            return validate(register, ket)

        def timed_consolidated(ensemble, *args, **kwargs):
            out = timed("fock.Ensemble.consolidated", consolidated, (ensemble, *args), kwargs)
            counts["fock.Ensemble.consolidated.branches_in"] += len(ensemble.branches)
            counts["fock.Ensemble.consolidated.branches_out"] += len(out.branches)
            return out

        self._set(fock.PureState, "__init__", counted_init)
        self._set(fock.ModeRegister, "validate_ket", counted_validate)
        self._set(fock.Ensemble, "consolidated", timed_consolidated)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        """Everything recorded, in JSON types."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
        }


def summarize(dumps: list[dict], n_ops: int) -> dict[str, float]:
    """Per-op calls, self time and inclusive time per span name, plus the
    counted quantities and key ratios, over one or more tracer dumps."""
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    counts: Counter[str] = Counter()
    keys: defaultdict[str, set[str]] = defaultdict(set)
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for (_, sid, _, name, start, end) in spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child[sid]
        counts.update(dump["counts"])
        for name, values in dump["keys"].items():
            keys[name].update(values)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for names in SPANS.values():
        for span in names.values():
            out[f"{span}.calls"] = calls[span] / n_ops
            out[f"{span}.self_s"] = self_s[span] / n_ops
            out[f"{span}.s"] = total_s[span] / n_ops
    consolidated = "fock.Ensemble.consolidated"
    out[f"{consolidated}.calls"] = calls[consolidated] / n_ops
    out[f"{consolidated}.self_s"] = self_s[consolidated] / n_ops
    out[f"{consolidated}.merge_ratio"] = ratio(counts[f"{consolidated}.branches_out"], counts[f"{consolidated}.branches_in"])
    out["fock.PureState.constructed"] = counts["fock.PureState.constructed"] / n_ops
    out["fock.ModeRegister.validate_ket.calls"] = counts["fock.ModeRegister.validate_ket.calls"] / n_ops
    for span in KEYS:
        out[f"{span}.distinct_ratio"] = ratio(len(keys[span]), calls[span])
    return out


def _traced_cli(out_path: str, argv: list[str]) -> int:
    """Run ``photonherald`` with the tracer installed; write the trace."""
    from photonherald import cli, elements

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args=argv, prog_name="photonherald", standalone_mode=False)
    finally:
        tracer.uninstall()
    info = elements._mixing_row.cache_info()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "cache": [info.hits, info.misses, info.currsize]}, fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
