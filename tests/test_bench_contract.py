"""The traced benchmark run wraps package functions by name; they must exist.

``perfbench/tracer.py`` is loaded by path and only read.  A rename or removal
of a traced function then fails here instead of breaking the traced run.
"""

import importlib
import importlib.util
import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photonherald import FwmParams, FwmTpamSpec, GenericTpam, SchemeConfig, SourceSpec, run_scheme

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load("perfbench_tracer", TRACER_PATH)
WORKLOADS = load("perfbench_workloads", WORKLOADS_PATH)
TRACED = [
    (module, attr, span)
    for module, names in TRACER.SPANS.items()
    for attr, span in names.items()
]


def traced_function(module: str, attr: str):
    return getattr(importlib.import_module(f"photonherald.{module}"), attr, None)


@pytest.mark.parametrize("module,attr,span", TRACED)
def test_every_span_names_a_package_callable(module, attr, span):
    assert callable(traced_function(module, attr)), f"span {span!r} wraps photonherald.{module}.{attr}"


@pytest.mark.parametrize("span,keys", sorted(TRACER.KEYS.items()))
def test_every_key_argument_is_a_parameter(span, keys):
    (module, attr), = [(module, attr) for module, attr, name in TRACED if name == span]
    parameters = inspect.signature(traced_function(module, attr)).parameters
    assert set(keys) <= set(parameters)


@pytest.mark.parametrize("name,calls", [("sweep-grid", 4), ("scheme-mix", 200), ("verify-suites", 1)])
def test_in_process_workloads_pass_their_own_gates(name, calls):
    # the benchmark rejects a change whose results fail a workload's check;
    # the first calls of the benchmark's seed must fail none of it here
    workload = WORKLOADS.WORKLOADS[name](1)
    for x in itertools.islice(workload.ops(), calls):
        assert workload.check(x, workload.call(x)) == 0, (name, x)


SPLIT_AND_DETECT = {"fock.tensor", "fock.project_number", "elements.apply_beam_splitter"}
GENERIC = GenericTpam(0.6, 0.8)


@pytest.mark.parametrize(
    "variant, tpam, kernels",
    [
        pytest.param("main", GENERIC, SPLIT_AND_DETECT | {"tpam.apply_generic_tpam"}, id="main-generic"),
        pytest.param("main", FwmTpamSpec(FwmParams(2.0)), SPLIT_AND_DETECT, id="main-mixer"),
        pytest.param(
            "doubled", GENERIC, SPLIT_AND_DETECT | {"tpam.apply_generic_tpam", "fock.partial_trace_discard"}, id="doubled-generic"
        ),
        pytest.param("doubled", FwmTpamSpec(FwmParams(3.0)), SPLIT_AND_DETECT | {"fock.partial_trace_discard"}, id="doubled-mixer"),
        pytest.param(
            "pair_herald", FwmTpamSpec(FwmParams(2.0), (1, 1)), {"fock.tensor", "fock.project_number", "tpam.fwm_evolve"}, id="pair-herald"
        ),
        pytest.param("filter_split", FwmTpamSpec(FwmParams(1.5)), SPLIT_AND_DETECT | {"tpam.fwm_evolve"}, id="filter-split"),
    ],
)
def test_every_stage_kernel_is_traced(variant, tpam, kernels):
    # the tracer wraps kernels by name once the package is imported and has
    # run; a circuit must look its kernels up when it is built, per run, or
    # its stages call the unwrapped functions and the layer spans vanish
    cfg = SchemeConfig(SourceSpec(0.9), tpam, variant=variant)
    run_scheme(cfg)
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        run_scheme(cfg)
    finally:
        tracer.uninstall()
    summary = TRACER.summarize([tracer.dump()], 1)
    assert sorted(k for k in kernels if summary[f"{k}.calls"] == 0) == []


def test_mixing_row_cache_is_inspectable():
    from photonherald import elements

    assert callable(elements._mixing_row.cache_info)


@pytest.mark.parametrize("use_config", [False, True], ids=["flags", "config"])
def test_run_goes_through_the_traced_cli_layer_once(tmp_path, use_config):
    # the cli-cold trace times `run` as cli.run_from_config; both inputs
    # must reach it, and only once
    from click.testing import CliRunner

    from photonherald import cli

    args = ["run", "--theta1", "30deg"]
    if use_config:
        path = tmp_path / "config.json"
        path.write_text('{"theta1": 0.5}', encoding="utf-8")
        args = ["run", "--config", str(path)]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    assert TRACER.summarize([tracer.dump()], 1)["cli.run_from_config.calls"] == 1


def test_cli_import_loads_the_modules_the_traced_run_times():
    """``perfbench/run.py:_import_times`` reports the median of the cumulative
    ``-X importtime`` samples of ``photonherald.cli`` and of ``numpy``.  With
    no numpy sample that median raises, and the traced run exits 3, as it did
    for a change that kept numpy off this import.  Until ``_import_times``
    reports 0 for a module the import never loads (planned in ROADMAP.md),
    both must appear."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import photonherald.cli"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"photonherald.cli", "numpy"} <= imported
