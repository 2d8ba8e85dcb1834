"""Command-line interface: tokens, manifests, sweeps, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import photonherald
from photonherald import DEFAULT_TPAM, MAX_CUTOFF, SWEEP_COLUMNS, FwmTpamSpec, GenericTpam, cli, verify
from photonherald.cli import (
    SCHEME_TOKENS,
    config_hash,
    format_tpam_spec,
    main,
    parse_angle,
    parse_tpam_spec,
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def manifest_of(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_angle_forms_agree():
    assert parse_angle("30deg") == pytest.approx(math.pi / 6, abs=1e-15)
    assert parse_angle("0.5235987755982988rad") == pytest.approx(math.pi / 6, abs=1e-15)
    assert parse_angle("0.5235987755982988") == pytest.approx(math.pi / 6, abs=1e-15)
    assert parse_angle("-45deg") == pytest.approx(-math.pi / 4, abs=1e-15)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("thirty degrees")


def test_parse_tpam_generic():
    tpam = parse_tpam_spec("generic:alpha=1,beta=0")
    assert isinstance(tpam, GenericTpam)
    assert tpam.alpha == 1.0 + 0j
    assert tpam.beta == 0j


def test_parse_tpam_generic_complex_values():
    tpam = parse_tpam_spec("generic:alpha=0.6j,beta=-0.8")
    assert tpam.alpha == 0.6j
    assert tpam.beta == -0.8 + 0j


def test_parse_tpam_mixer_with_fraction_and_condition():
    spec = parse_tpam_spec("jf:M=3/2,condition=(0,0)")
    assert isinstance(spec, FwmTpamSpec)
    assert spec.params.length_multiple == 1.5
    assert spec.condition == (0, 0)


def test_parse_tpam_fwm_alias():
    spec = parse_tpam_spec("fwm:M=2,condition=(1,1)")
    assert spec.params.length_multiple == 2.0
    assert spec.condition == (1, 1)


def test_parse_tpam_rejects_unknown_forms():
    for bad in ("nonsense:foo=1", "generic:alpha=1", "jf:condition=(0,0)", "jf:M=2,M=3"):
        with pytest.raises(ValueError):
            parse_tpam_spec(bad)


def test_format_tpam_round_trips():
    for text in (
        "generic:alpha=1.0,beta=0.0",
        "jf:M=2,condition=(1,1)",
        "jf:M=1.5,condition=(0,0)",
    ):
        parsed = parse_tpam_spec(text)
        assert parse_tpam_spec(format_tpam_spec(parsed)) == parsed


def test_run_tpam_help_states_each_schemes_default_absorber():
    """The defaults the ``--tpam`` help names, read back with the CLI's own
    parser, are the schemes' ``DEFAULT_TPAM`` entries."""
    (option,) = [param for param in main.commands["run"].params if param.name == "tpam"]
    defaults = re.fullmatch(r"Absorber spec \[default: (.*)\]\.", option.help).group(1)
    stated = {
        SCHEME_TOKENS[token]: parse_tpam_spec(spec)
        for spec, tokens in re.findall(r"(\S+) for ([a-z-]+(?: and [a-z-]+)*)", defaults)
        for token in tokens.split(" and ")
    }
    assert stated == DEFAULT_TPAM


# ---------------------------------------------------------------------------
# run command


def test_run_peak_configuration(runner):
    result = invoke(
        runner,
        "run", "--scheme", "main", "--p", "1",
        "--tpam", "generic:alpha=1,beta=0", "--theta1", "30deg",
    )
    manifest = manifest_of(result)
    assert abs(manifest["result"]["p_success"] - 0.10547) < 1e-5
    assert manifest["result"]["fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_run_filter_split_token(runner):
    result = invoke(runner, "run", "--scheme", "appendix-b", "--p", "1")
    manifest = manifest_of(result)
    assert abs(manifest["result"]["p_success"] - 0.2291) < 5e-4


def test_run_dead_source(runner):
    manifest = manifest_of(invoke(runner, "run", "--scheme", "main", "--p", "0"))
    assert manifest["result"]["p_success"] == 0.0
    assert manifest["result"]["fidelity"] == 0.0


def test_run_angle_forms_equivalent(runner):
    by_deg = manifest_of(invoke(runner, "run", "--theta1", "30deg"))
    by_rad = manifest_of(invoke(runner, "run", "--theta1", "0.5235987755982988rad"))
    assert by_deg["result"]["p_success"] == pytest.approx(
        by_rad["result"]["p_success"], abs=1e-12
    )


def test_run_manifest_shape_and_hash(runner):
    manifest = manifest_of(invoke(runner, "run", "--theta1", "30deg"))
    for key in ("schema_version", "tool", "tool_version", "timestamp", "command", "config", "config_hash", "result"):
        assert key in manifest
    assert manifest["tool"] == "photonherald"
    assert manifest["command"] == "run"
    assert manifest["config_hash"].startswith("sha256:")
    # the hash covers the config payload, not the timestamp
    assert manifest["config_hash"] == config_hash(manifest["config"])


def test_run_is_deterministic_modulo_timestamp(runner):
    a = manifest_of(invoke(runner, "run", "--theta1", "30deg", "--p", "0.8"))
    b = manifest_of(invoke(runner, "run", "--theta1", "30deg", "--p", "0.8"))
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


ROUND_TRIP_FLAGS = {
    "main": ["--p", "0.6", "--theta0", "40deg", "--tpam", "generic:alpha=0.6,beta=0.8", "--theta1", "25deg"],
    "doubled": ["--p", "0.7", "--tpam", "generic:alpha=0,beta=-1", "--theta1", "30deg"],
    "pair-herald": ["--p", "0.8", "--theta0", "0.7", "--tpam", "jf:M=3,condition=(1,1)"],
    "filter-split": ["--p", "0.9", "--tpam", "fwm:M=5/2"],
}


@pytest.mark.parametrize("scheme", ["main", "doubled", "pair-herald", "filter-split"])
def test_run_config_round_trip(runner, tmp_path, scheme):
    first = manifest_of(invoke(runner, "run", "--scheme", scheme, *ROUND_TRIP_FLAGS[scheme]))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(first), encoding="utf-8")
    second = manifest_of(invoke(runner, "run", "--config", str(path)))
    assert second["config"] == first["config"]
    assert second["config_hash"] == first["config_hash"]
    assert second["result"] == first["result"]


def test_run_accepts_bare_config_file(runner, tmp_path):
    first = manifest_of(invoke(runner, "run", "--theta1", "30deg"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(first["config"]), encoding="utf-8")
    second = manifest_of(invoke(runner, "run", "--config", str(path)))
    assert second["result"] == first["result"]


def test_run_points_format(runner):
    result = invoke(runner, "run", "--theta1", "30deg", "--points")
    lines = result.output.splitlines()
    assert lines[0] == "# p_success fidelity"
    ps, fid = (float(tok) for tok in lines[1].split())
    assert ps == pytest.approx(27.0 / 256.0, abs=1e-10)
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_run_gnuplot_is_an_alias(runner):
    a = invoke(runner, "run", "--theta1", "30deg", "--points").output
    b = invoke(runner, "run", "--theta1", "30deg", "--gnuplot").output
    assert a == b


def test_run_output_file(runner, tmp_path):
    path = tmp_path / "run.json"
    result = invoke(runner, "run", "--theta1", "30deg", "--output", str(path))
    assert result.exit_code == 0
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["result"]["p_success"] == pytest.approx(27.0 / 256.0, abs=1e-10)


# ---------------------------------------------------------------------------
# exit codes


def test_unusable_tpam_string_is_usage_error(runner):
    result = runner.invoke(main, ["run", "--tpam", "nonsense:foo=1"])
    assert result.exit_code == 2


def test_generic_absorber_on_conversion_scheme_is_usage_error(runner):
    result = runner.invoke(
        main, ["run", "--scheme", "appendix-a", "--tpam", "generic:alpha=1,beta=0"]
    )
    assert result.exit_code == 2


def test_wrong_length_parity_is_usage_error(runner):
    result = runner.invoke(
        main, ["run", "--scheme", "appendix-a", "--tpam", "jf:M=1.5,condition=(1,1)"]
    )
    assert result.exit_code == 2


def test_unknown_scheme_token_is_usage_error(runner):
    assert runner.invoke(main, ["run", "--scheme", "imaginary"]).exit_code == 2


def test_source_efficiency_out_of_range_is_usage_error(runner):
    assert runner.invoke(main, ["run", "--p", "1.5"]).exit_code == 2


def assert_one_line_usage_error(result, exit_code=2):
    """The failure prints exactly one ``Error:`` line on stderr and nothing on stdout."""
    assert result.exit_code == exit_code, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr


def test_null_config_field_is_usage_error(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": None}), encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(path)])
    assert_one_line_usage_error(result)
    assert "null" in result.output


def run_config(runner, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return runner.invoke(main, ["run", "--config", str(path)])


def test_unknown_config_field_is_usage_error(runner, tmp_path):
    result = run_config(runner, tmp_path, {"scheme": "main", "thetal": 0.3})
    assert_one_line_usage_error(result)
    assert "'thetal'" in result.output


def test_splitter_field_on_conversion_scheme_is_usage_error(runner, tmp_path):
    result = run_config(runner, tmp_path, {"scheme": "pair-herald", "theta1": 0.3})
    assert_one_line_usage_error(result)
    assert "'theta1'" in result.output


@pytest.mark.parametrize("cutoff", [4.7, "4.5", MAX_CUTOFF + 1, 1, 2, 4])
def test_bad_config_cutoff_is_usage_error(runner, tmp_path, cutoff):
    # the circuits hold two photons per mode, so a manifest's cutoff is an
    # unknown field whatever its value, the circuits' own bound of 2 included
    result = run_config(runner, tmp_path, {"cutoff": cutoff})
    assert_one_line_usage_error(result)
    assert "unknown config fields: 'cutoff'" in result.stderr


@pytest.mark.parametrize("command", [["run"], ["sweep", "{spec}"]])
def test_run_and_sweep_take_no_cutoff_flag(runner, tmp_path, command):
    spec = write_spec(tmp_path, {"theta1": [0.5], "p": [0.5]})
    args = [arg.replace("{spec}", spec) for arg in command]
    assert invoke(runner, *args).exit_code == 0
    for value in ("2", "4"):
        result = runner.invoke(main, [*args, "--cutoff", value])
        assert_one_line_usage_error(result)
        assert "--cutoff" in result.stderr


def test_verify_cutoff_flag_reads_a_whole_float(runner):
    args = ["verify", "--suite", "invariants"]
    whole = invoke(runner, *args, "--cutoff", "6").output
    assert invoke(runner, *args, "--cutoff", "6.0").output == whole
    for bad in ("1", "17", "4.5", "1e9", "nan"):
        assert_one_line_usage_error(runner.invoke(main, [*args, "--cutoff", bad]))


@pytest.mark.parametrize(
    "scheme,spec",
    [("filter-split", "jf:M=1.5,condition=(2,1)"), ("pair-herald", "jf:M=2")],
)
def test_absorber_condition_mismatch_is_usage_error(runner, scheme, spec):
    assert_one_line_usage_error(runner.invoke(main, ["run", "--scheme", scheme, "--tpam", spec]))


@pytest.mark.parametrize(
    "args",
    [["--theta1", "nan"], ["--tpam", "generic:alpha=nan,beta=0", "--theta1", "30deg"]],
)
def test_non_finite_parameter_is_usage_error(runner, args):
    assert_one_line_usage_error(runner.invoke(main, ["run", *args]))


HUGE = "1" + "0" * 400
LONG = "x" * 400
ONES = "1" * 400


@pytest.mark.parametrize(
    "field, command, spec",
    [
        pytest.param("p", ["run", "--config", "{spec}"], '{"p": %s}' % HUGE, id="run-config-huge-p"),
        pytest.param("p", ["sweep", "{spec}"], '{"p": [%s]}' % HUGE, id="sweep-huge-p"),
        pytest.param("beta", ["sweep", "{spec}"], '{"beta": ["abc"]}', id="sweep-text-beta"),
        pytest.param(
            "length_multiple",
            ["run", "--scheme", "pair-herald", "--tpam", f"jf:M={HUGE}/3,condition=(1,1)"],
            None,
            id="tpam-huge-length",
        ),
        pytest.param("condition", ["run", "--tpam", "jf:M=2,condition=(1" + "0" * 300 + ",1)"], None, id="tpam-huge-condition"),
        pytest.param("alpha", ["run", "--tpam", f"generic:alpha={LONG},beta=0"], None, id="tpam-text-alpha"),
        pytest.param("alpha", ["run", "--tpam", "generic:alpha=1e75,beta=0"], None, id="tpam-alpha-1e75"),
        pytest.param("alpha", ["run", "--tpam", "generic:alpha=1e154,beta=0"], None, id="tpam-alpha-1e154"),
        pytest.param("alpha", ["run", "--tpam", "generic:alpha=1e155,beta=0"], None, id="tpam-alpha-square-overflows"),
        pytest.param("beta", ["run", "--tpam", "generic:alpha=0,beta=1e200j"], None, id="tpam-beta-square-overflows"),
        pytest.param(
            "beta", ["run", "--config", "{spec}"], '{"tpam": "generic:alpha=0.5,beta=1e+308"}', id="run-config-beta-square-overflows"
        ),
        pytest.param("length_multiple", ["run", "--tpam", f"jf:M={LONG}"], None, id="tpam-text-length"),
        pytest.param("condition", ["run", "--tpam", f"jf:M=2,condition=({LONG},1)"], None, id="tpam-text-condition"),
        pytest.param("condition", ["run", "--tpam", f"jf:M=2,condition=[{ONES}]"], None, id="tpam-condition-brackets"),
        pytest.param("absorber kind", ["run", "--tpam", f"{LONG}:a=1"], None, id="tpam-long-kind"),
        pytest.param("absorber spec", ["run", "--tpam", f"generic:alpha=1,{LONG}=0"], None, id="tpam-long-key"),
        pytest.param("theta1", ["run", "--theta1", LONG], None, id="run-text-theta1"),
        pytest.param("scheme", ["run", "--scheme", LONG], None, id="run-long-scheme"),
        pytest.param("config fields", ["run", "--config", "{spec}"], json.dumps({LONG: 1}), id="run-config-long-key"),
        pytest.param("case", ["sweep", "{spec}"], json.dumps({"case": LONG}), id="sweep-long-case"),
        pytest.param("sweep axes", ["sweep", "{spec}"], json.dumps({LONG: 1}), id="sweep-long-key"),
        pytest.param("theta1", ["sweep", "{spec}"], json.dumps({"theta1": LONG}), id="sweep-text-axis"),
        pytest.param(
            "theta1",
            ["sweep", "{spec}"],
            json.dumps({"theta1": {"start": 0, "stop": 1, "steps": 2, "unit": LONG}}),
            id="sweep-long-unit",
        ),
        pytest.param("beta", ["sweep", "{spec}"], json.dumps({"beta": [[1, 2, ONES]]}), id="sweep-long-beta-pair"),
    ],
)
def test_a_refusal_is_short_and_names_the_field(runner, tmp_path, field, command, spec):
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    result = runner.invoke(main, [arg.replace("{spec}", str(tmp_path / "spec.json")) for arg in command])
    assert_one_line_usage_error(result)
    assert len(result.stderr.rstrip("\n")) <= 200 and field in result.stderr, result.stderr


@pytest.fixture()
def failure_files(tmp_path):
    """Inputs for the one-line failure cases; ``{tmp}`` in their arguments is ``tmp_path``."""
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe" + '{"p": 0.5}'.encode("utf-16-le"))
    (tmp_path / "typo.json").write_text(json.dumps({"thetal": 1}), encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "decreasing.json").write_text(json.dumps({"p": [1.0, 0.5]}), encoding="utf-8")
    (tmp_path / "grid.json").write_text(json.dumps({"theta1": [0.5], "p": [1.0]}), encoding="utf-8")
    return tmp_path


#: Failures that must print one ``Error:`` line, by exit code.
ONE_LINE_FAILURES = {
    "run --p 2": (2, ["run", "--p", "2"]),
    "run --scheme imaginary": (2, ["run", "--scheme", "imaginary"]),
    "run --theta1 abc": (2, ["run", "--theta1", "abc"]),
    "run --tpam bad": (2, ["run", "--tpam", "bad"]),
    "run --bogus": (2, ["run", "--bogus"]),
    "run --cutoff 1": (2, ["run", "--cutoff", "1"]),
    "--bogus": (2, ["--bogus"]),
    "frob": (2, ["frob"]),
    "run --config missing file": (2, ["run", "--config", "{tmp}/absent.json"]),
    "run --config non-UTF-8 file": (2, ["run", "--config", "{tmp}/utf16.json"]),
    "run --config unknown field": (2, ["run", "--config", "{tmp}/typo.json"]),
    "sweep list spec": (2, ["sweep", "{tmp}/list.json"]),
    "sweep decreasing p": (2, ["sweep", "{tmp}/decreasing.json"]),
    "verify --suite made-up": (2, ["verify", "--suite", "made-up"]),
    "verify without --suite": (2, ["verify"]),
    "run --output missing dir": (3, ["run", "--output", "{tmp}/missing/x.json"]),
    "sweep --output missing dir": (3, ["sweep", "{tmp}/grid.json", "--output", "{tmp}/missing/x.csv"]),
}


def failure_args(case, tmp_path):
    code, args = ONE_LINE_FAILURES[case]
    return code, [arg.replace("{tmp}", str(tmp_path)) for arg in args]


@pytest.mark.parametrize("case", ONE_LINE_FAILURES)
def test_every_failure_is_one_error_line(runner, failure_files, case):
    code, args = failure_args(case, failure_files)
    assert_one_line_usage_error(runner.invoke(main, args), exit_code=code)


@pytest.mark.parametrize("case", ["run --output missing dir", "run --config non-UTF-8 file"])
def test_failure_is_one_error_line_in_a_real_process(failure_files, case):
    code, args = failure_args(case, failure_files)
    src = str(Path(photonherald.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "photonherald.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("Error: "), proc.stderr


def test_help_version_and_bare_group_keep_their_click_behaviour(runner):
    bare = runner.invoke(main, [])
    assert bare.exit_code == 2 and bare.stdout == ""
    assert bare.stderr.startswith("Usage: ") and "Commands:" in bare.stderr
    helped = runner.invoke(main, ["--help"])
    assert helped.exit_code == 0 and helped.stdout == bare.stderr
    version = runner.invoke(main, ["--version"])
    assert version.exit_code == 0 and version.stdout == f"photonherald, version {photonherald.__version__}\n"


# ---------------------------------------------------------------------------
# sweep command


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_sweep_csv_shape(runner, tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "theta1": {"start": 10, "stop": 50, "steps": 41, "unit": "deg"},
            "beta": [0],
            "p": [1.0],
        },
    )
    result = invoke(runner, "sweep", spec)
    assert result.exit_code == 0
    # RFC 4180 line endings, header first (Result.output normalizes newlines,
    # so check the raw byte stream)
    raw = result.stdout_bytes.decode("utf-8")
    assert "\r\n" in raw
    lines = raw.split("\r\n")
    assert lines[0] == (
        "theta0_rad,theta1_rad,theta2_rad,beta_re,beta_im,p,"
        "p_success,p_success_over_p2,fidelity"
    )
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 41
    header = lines[0].split(",")
    i_theta1, i_ps = header.index("theta1_rad"), header.index("p_success")
    best = max(rows, key=lambda r: float(r[i_ps]))
    assert float(best[i_theta1]) == pytest.approx(math.radians(30.0), abs=1e-12)
    assert float(best[i_ps]) == pytest.approx(27.0 / 256.0, abs=1e-10)


def test_sweep_points_format(runner, tmp_path):
    spec = write_spec(tmp_path, {"theta1": [0.5], "beta": [0], "p": [1.0]})
    result = invoke(runner, "sweep", spec, "--points")
    lines = result.output.splitlines()
    assert lines[0].startswith("# theta0_rad theta1_rad")
    assert len(lines) == 2
    assert len(lines[1].split()) == 9


def test_sweep_output_file_is_byte_stable(runner, tmp_path):
    spec = write_spec(tmp_path, {"theta1": [0.4, 0.6], "beta": [0, [0.3, 0.1]], "p": [0.5, 1.0]})
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert invoke(runner, "sweep", spec, "--output", str(path_a)).exit_code == 0
    assert invoke(runner, "sweep", spec, "--output", str(path_b)).exit_code == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_sweep_malformed_json_is_usage_error(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert runner.invoke(main, ["sweep", str(path)]).exit_code == 2


def test_sweep_unknown_axis_is_usage_error(runner, tmp_path):
    spec = write_spec(tmp_path, {"theta9": [0.1]})
    assert runner.invoke(main, ["sweep", spec]).exit_code == 2


def test_sweep_unphysical_beta_is_usage_error(runner, tmp_path):
    spec = write_spec(tmp_path, {"beta": [2.0]})
    assert runner.invoke(main, ["sweep", spec]).exit_code == 2


def test_sweep_nan_axis_is_usage_error(runner, tmp_path):
    spec = write_spec(tmp_path, {"theta1": [0.3, float("nan")], "beta": [0], "p": [1.0]})
    assert_one_line_usage_error(runner.invoke(main, ["sweep", spec]))


@pytest.mark.parametrize("steps", [4.5, 1e9])
def test_sweep_bad_steps_is_usage_error(runner, tmp_path, steps):
    spec = write_spec(tmp_path, {"theta1": {"start": 0, "stop": 1, "steps": steps}})
    assert_one_line_usage_error(runner.invoke(main, ["sweep", spec]))


def test_sweep_violated_case_is_malformed_spec(runner, tmp_path):
    result = runner.invoke(main, ["sweep", write_spec(tmp_path, {"case": "violated"})])
    assert_one_line_usage_error(result)
    assert "malformed sweep spec" in result.output


def test_sweep_missing_file_is_usage_error(runner, tmp_path):
    assert runner.invoke(main, ["sweep", str(tmp_path / "absent.json")]).exit_code == 2


# ---------------------------------------------------------------------------
# canonical --config manifests and bad numbers


@pytest.mark.parametrize("field,first,second", [("p", 1, 1.0), ("theta0", 1, 1.0), ("theta1", 0, 0.0)])
def test_config_numbers_of_equal_value_record_one_config(runner, tmp_path, field, first, second):
    a = manifest_of(run_config(runner, tmp_path, {field: first}))
    b = manifest_of(run_config(runner, tmp_path, {field: second}))
    assert json.dumps(a["config"]) == json.dumps(b["config"])
    assert a["config_hash"] == b["config_hash"]


def test_config_field_beside_a_manifests_config_is_usage_error(runner, tmp_path):
    manifest = manifest_of(invoke(runner, "run", "--p", "0.5"))
    result = run_config(runner, tmp_path, {**manifest, "p": 0.7})
    assert_one_line_usage_error(result)
    assert "'p'" in result.stderr


def test_config_file_records_the_flag_path_config(runner, tmp_path):
    flags = manifest_of(invoke(runner, "run", "--theta1", "0.5", "--tpam", "jf:M=3"))
    config = manifest_of(run_config(runner, tmp_path, {"theta1": 0.5, "tpam": "fwm:M=3", "p": 1}))
    assert json.dumps(config["config"]) == json.dumps(flags["config"])
    assert config["config_hash"] == flags["config_hash"]


@pytest.mark.parametrize("config", [{"p": True}, {"theta1": False}, {"p": True, "theta1": False}, {"theta0": True}])
def test_boolean_config_field_is_usage_error(runner, tmp_path, config):
    assert_one_line_usage_error(run_config(runner, tmp_path, config))


@pytest.mark.parametrize("tpam", ["jf:M=1/0", "fwm:M=3/0,condition=(1,1)"])
def test_zero_denominator_mixer_length_is_usage_error(runner, tmp_path, tpam):
    assert_one_line_usage_error(runner.invoke(main, ["run", "--tpam", tpam]))
    assert_one_line_usage_error(run_config(runner, tmp_path, {"tpam": tpam}))


@pytest.mark.parametrize(
    "scheme,tpam",
    [("main", "jf:M=1e17"), ("pair-herald", "jf:M=1e17,condition=(1,1)"), pytest.param("main", f"jf:M={10**400}/3", id="main-jf:M=10**400/3")],
)
def test_mixer_length_beyond_double_phase_is_usage_error(runner, scheme, tpam):
    result = runner.invoke(main, ["run", "--scheme", scheme, "--tpam", tpam])
    assert_one_line_usage_error(result)
    assert "length_multiple" in result.output


@pytest.mark.parametrize(
    "spec",
    [
        {"p": [True]},
        {"beta": [True]},
        {"beta": [[0.1, False]]},
        {"theta1": {"start": 0, "stop": True, "steps": 3}},
        {"theta1": {"start": 0.3, "stop": float("nan"), "steps": 1}},
    ],
)
def test_boolean_or_unused_bad_sweep_value_is_usage_error(runner, tmp_path, spec):
    assert_one_line_usage_error(runner.invoke(main, ["sweep", write_spec(tmp_path, spec)]))


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("sweep", {"beta": []}, "sweep axis 'beta' is empty"),
        ("sweep", {"theta1": {"start": 0, "stop": 1, "steps": 2, "step": 1}}, "unknown keys in axis spec: ['step']"),
        ("sweep", {"theta1": {"start": 0, "stop": 1}}, "axis spec needs start/stop/steps, missing 'steps'"),
        ("sweep", {"theta1": {"start": 0, "stop": 1, "steps": 0}}, "axis spec needs steps >= 1"),
        ("sweep", {"theta1": {"start": 0, "stop": 1, "steps": 2, "unit": "grad"}}, "unknown unit 'grad'"),
        ("sweep", {"p": {"start": 0.2, "stop": 1, "steps": 3, "unit": "rad"}}, "'unit' only applies to angle axes"),
        ("sweep", {"p": {"start": 0.2, "stop": 1, "steps": 3, "unit": "deg"}}, "'unit' only applies to angle axes"),
        ("sweep", {"beta": [[0.1, 0.2, 0.3]]}, "beta pair must be [re, im]"),
        ("tpam", "generic:alpha=1),beta=0", "unbalanced brackets"),
        ("tpam", "jf:M=2,condition=(1,1", "unbalanced brackets"),
        ("tpam", "generic:alpha=1,beta", "expected key=value, got 'beta'"),
        ("tpam", "generic:alpha=1,beta=0,gamma=0", "unknown field 'gamma'"),
        ("tpam", "generic:alpha=one,beta=0", "generic TPAM alpha must be a finite complex number"),
        ("tpam", "jf:M=2,condition=[1,1]", "condition must look like (i,j)"),
        ("config", {"config": [0.5]}, "manifest 'config' field must be an object"),
    ],
)
def test_each_input_rejection_is_one_usage_error_line(runner, tmp_path, command, payload, message):
    # One case per rejecting branch of the sweep spec, absorber and manifest parsers.
    if command == "sweep":
        result = runner.invoke(main, ["sweep", write_spec(tmp_path, payload)])
    elif command == "tpam":
        result = runner.invoke(main, ["run", "--tpam", payload])
    else:
        result = run_config(runner, tmp_path, payload)
    assert_one_line_usage_error(result)
    assert message in result.stderr


# ---------------------------------------------------------------------------
# one run path: flags and --config files are validated alike


@pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--phi1", "--phi2"])
@pytest.mark.parametrize("scheme", ["pair-herald", "filter-split"])
def test_splitter_flag_on_conversion_scheme_is_usage_error(runner, scheme, flag):
    result = runner.invoke(main, ["run", "--scheme", scheme, flag, "30deg"])
    assert_one_line_usage_error(result)
    assert repr(flag[2:]) in result.output


#: Per run field: a value it accepts and one it rejects, as flag text.
FIELD_VALUES = [
    ("scheme", "appendix-a", "imaginary"),
    ("p", "0.25", "2"),
    ("tpam", "jf:M=3", "jf:M=1/0"),
    ("theta0", "30deg", "abc"),
    ("theta1", "0.5236rad", "nan"),
    ("theta2", "1.1", "1/0"),
    ("phi1", "-45deg", "inf"),
    ("phi2", "0.3", ""),
]


@pytest.mark.parametrize("field,valid,invalid", FIELD_VALUES)
def test_flag_and_config_file_accept_and_reject_alike(runner, tmp_path, field, valid, invalid):
    by_flag = manifest_of(invoke(runner, "run", f"--{field}", valid))
    by_file = manifest_of(run_config(runner, tmp_path, {field: valid}))
    assert by_file["config_hash"] == by_flag["config_hash"]
    bad_flag = runner.invoke(main, ["run", f"--{field}", invalid])
    bad_file = run_config(runner, tmp_path, {field: invalid})
    assert_one_line_usage_error(bad_flag)
    assert bad_file.exit_code == bad_flag.exit_code
    assert bad_file.stderr == bad_flag.stderr


@pytest.mark.parametrize(
    "command,text,key",
    [
        ("run", '{"p": 0.5, "p": 0.7}', "p"),
        ("run", '{"command": "run", "config": {"theta1": 0.3, "theta1": 0.4}}', "theta1"),
        ("sweep", '{"p": [0.5], "theta1": [0.3], "p": [0.7]}', "p"),
        ("sweep", '{"theta1": {"start": 0, "start": 1, "stop": 1, "steps": 2}}', "start"),
    ],
)
def test_duplicate_key_in_config_or_spec_is_usage_error(runner, tmp_path, command, text, key):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(path)] if command == "run" else ["sweep", str(path)])
    assert_one_line_usage_error(result)
    assert f"duplicate key {key!r}" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--p", "0.5", "--theta1", "1e16"],
        ["run", "--scheme", "doubled", "--theta1", "-1e9"],
        ["sweep", "{spec}"],
    ],
)
def test_completion_a_double_cannot_hold_is_usage_error(runner, tmp_path, args):
    spec = write_spec(tmp_path, {"theta1": [1e9, 1e16], "p": [0.5]})
    result = runner.invoke(main, [arg.replace("{spec}", spec) for arg in args])
    assert_one_line_usage_error(result)
    assert "too large" in result.stderr


@pytest.mark.parametrize(
    "flags", [["--p", "0.5"], ["--scheme", "doubled"], ["--theta0", "30deg"], ["--theta1", "30deg", "--tpam", "jf:M=3"]]
)
def test_physics_flag_beside_config_is_usage_error(runner, tmp_path, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 0.7}), encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(path), *flags])
    assert_one_line_usage_error(result)
    for flag in flags[::2]:
        assert flag in result.output


def test_fock_cutoff_environment_variable_is_not_read(runner, tmp_path):
    # no cutoff reaches a run: a value the cutoff rule would refuse changes nothing
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 0.7}), encoding="utf-8")
    for args in (["run", "--p", "0.7"], ["run", "--config", str(path)]):
        plain = manifest_of(invoke(runner, *args))
        with_env = manifest_of(invoke(runner, *args, env={"FOCK_CUTOFF": "1"}))
        assert {**with_env, "timestamp": None} == {**plain, "timestamp": None}


@pytest.mark.parametrize("p", ["1e-155", "1e-200", "5e-324"])
def test_source_efficiency_with_subnormal_square_runs(runner, tmp_path, p):
    assert runner.invoke(main, ["run", "--p", p]).exit_code == 0
    assert runner.invoke(main, ["sweep", write_spec(tmp_path, {"p": [float(p)]})]).exit_code == 0


@pytest.mark.parametrize("p", ["1e-150", "1e-200", "5e-324"])
def test_smallest_source_efficiency_keeps_the_unit_source_ratio(runner, tmp_path, p):
    unit = manifest_of(invoke(runner, "run", "--theta1", "30deg"))["result"]["p_success"]
    weak = manifest_of(invoke(runner, "run", "--theta1", "30deg", "--p", p))["result"]
    assert weak["details"]["p_success_over_p2"] == pytest.approx(unit, rel=1e-12)
    spec = write_spec(tmp_path, {"theta1": [math.pi / 6], "beta": [0], "p": [float(p), 1.0]})
    lines = invoke(runner, "sweep", spec).output.splitlines()
    column = lines[0].split(",").index("p_success_over_p2")
    weak_row, unit_row = (float(line.split(",")[column]) for line in lines[1:3])
    assert weak_row == pytest.approx(unit_row, rel=1e-12)
    assert unit_row == pytest.approx(unit, rel=1e-12)


BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, True, False])
BAD_TEXT = st.sampled_from(["nan", "inf", "-inf", "true", "True", "1/0"])
ANY_SCHEME = ["main", "doubled", "pair-herald", "filter-split"]


@st.composite
def bad_run_configs(draw):
    """A run config with NaN, +-inf or a boolean in exactly one numeric field."""
    field = draw(st.sampled_from(["p", "theta0", "theta1", "theta2", "phi1", "phi2", "alpha", "beta", "M"]))
    if field == "M":
        scheme = draw(st.sampled_from(["pair-herald", "filter-split"]))
        return {"scheme": scheme, "tpam": f"jf:M={draw(BAD_TEXT)}" + (",condition=(1,1)" if scheme == "pair-herald" else "")}
    scheme = draw(st.sampled_from(ANY_SCHEME if field in ("p", "theta0") else ANY_SCHEME[:2]))
    if field in ("alpha", "beta"):
        coefficients = {"alpha": "0.6", "beta": "0.8", field: draw(BAD_TEXT)}
        return {"scheme": scheme, "tpam": "generic:alpha={alpha},beta={beta}".format(**coefficients)}
    return {"scheme": scheme, field: draw(BAD_NUMBERS)}


@st.composite
def bad_sweep_specs(draw):
    """A sweep spec with NaN, +-inf or a boolean in exactly one numeric field."""
    spec: dict[str, object] = {"theta1": [0.4, 0.6], "beta": [0.0, [0.1, 0.2]], "p": [0.5, 1.0]}
    place = draw(st.sampled_from(["entry", "start", "stop", "steps", "beta", "beta-pair", "beta-text"]))
    axis = draw(st.sampled_from(["theta0", "theta1", "p"]))
    if place == "entry":
        values = [0.4, 0.6]
        values.insert(draw(st.integers(0, 2)), draw(BAD_NUMBERS))
        spec[axis] = values
    elif place in ("start", "stop", "steps"):
        spec[axis] = {"start": 0.2, "stop": 0.8, "steps": draw(st.integers(1, 3)), place: draw(BAD_NUMBERS)}
    elif place == "beta":
        spec["beta"] = [0.1, draw(BAD_NUMBERS)]
    elif place == "beta-pair":
        spec["beta"] = [[0.1, draw(BAD_NUMBERS)]] if draw(st.booleans()) else [[draw(BAD_NUMBERS), 0.1]]
    else:
        spec["beta"] = [draw(BAD_TEXT)]
    return spec


#: Values no field should turn into a plausible number: JSON's odd corners,
#: text that float() or the wire formats half accept, unicode and structure.
HOSTILE = st.one_of(
    BAD_NUMBERS,
    BAD_TEXT,
    st.none(),
    st.sampled_from(
        [10**400, -(10**400), 5e-324, -5e-324, -0.0, -1.0, 1e308, "1e400", "30deg", "-1e16rad", "", " ", "\u00e9",
         "\u0661", "\x00", "\ud800", "jf:M=1e400", "jf:M=2,condition=(1,1,1)", "generic:alpha=1e400,beta=0"]
    ),
    st.floats(),
    st.integers(-3, 3),
    st.text(max_size=6),
    st.lists(st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.none() | st.integers(-2, 2), max_size=2),
)

#: Values a run field may accept, so that some draws run and print a result.
ANGLE_VALUES = st.floats(-7.0, 7.0) | st.sampled_from(["30deg", "-45deg", "0.5236rad", "1e6", 1e16])
PLAUSIBLE_RUN = {
    "scheme": st.sampled_from([*ANY_SCHEME, "appendix-a", "appendix-b"]),
    "p": st.floats(0.0, 1.0) | st.sampled_from(["0.5", "1e-12", 1]),
    "tpam": st.sampled_from(
        ["generic:alpha=0.6,beta=0.8j", "generic:alpha=0.5,beta=0.5", "jf:M=2,condition=(1,1)", "jf:M=1.5", "fwm:M=5/2"]
    ),
    **dict.fromkeys(["theta0", "theta1", "theta2", "phi1", "phi2"], ANGLE_VALUES),
}


def plausible_or_hostile(draw, plausible):
    """Mostly a plausible value, so that some draws succeed; else a hostile one."""
    return draw(HOSTILE) if plausible is None or draw(st.integers(0, 3)) == 0 else draw(plausible)


@st.composite
def hostile_run_configs(draw):
    """(config, must_fail): half the configs hold one bad number
    (:func:`bad_run_configs`); known and unknown fields come on top."""
    must_fail = draw(st.booleans())
    config = draw(bad_run_configs()) if must_fail else {}
    names = draw(st.lists(st.sampled_from([*PLAUSIBLE_RUN, "thetal", "P", "", "config", "cutoff"]), unique=True, max_size=4))
    for name in names:
        config.setdefault(name, plausible_or_hostile(draw, PLAUSIBLE_RUN.get(name)))
    return config, must_fail


def sorted_values(elements):
    return st.lists(elements, min_size=1, max_size=3).map(sorted)


ANGLE_AXIS = sorted_values(st.floats(-4.0, 4.0)) | st.builds(
    lambda start, stop, steps, unit: {"start": start, "stop": stop, "steps": steps, "unit": unit},
    st.floats(-90.0, 90.0), st.floats(-90.0, 90.0), st.integers(1, 3), st.sampled_from(["deg", "rad"]),
)
PLAUSIBLE_SWEEP = {
    "theta0": ANGLE_AXIS,
    "theta1": ANGLE_AXIS | st.just([1e9, 1e16]),
    "p": sorted_values(st.floats(0.0, 1.0)),
    "beta": st.lists(st.floats(-1.0, 1.0) | st.just([0.3, 0.4]) | st.just("0.1+0.2j"), min_size=1, max_size=2),
    "case": st.sampled_from(["sum_plus", "sum_minus", "diff_plus", "diff_minus", "violated"]),
}


@st.composite
def hostile_sweep_specs(draw):
    """(spec, must_fail) with the same mix as :func:`hostile_run_configs`."""
    must_fail = draw(st.booleans())
    spec = draw(bad_sweep_specs()) if must_fail else {}
    names = draw(st.lists(st.sampled_from([*PLAUSIBLE_SWEEP, "thetal", "steps", ""]), unique=True, max_size=4))
    for name in names:
        spec.setdefault(name, plausible_or_hostile(draw, PLAUSIBLE_SWEEP.get(name)))
    return spec, must_fail


def numbers_in(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from numbers_in(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def assert_one_line_or_exit_0(result, must_fail):
    """No exception but ``SystemExit`` escapes; a failure exits 2 with one line."""
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code in ((2,) if must_fail else (0, 2)), result.output
    if result.exit_code:
        assert_one_line_usage_error(result)


@given(draw=hostile_run_configs())
@settings(max_examples=150, deadline=None)
def test_bad_number_in_run_config_never_prints_a_result(draw):
    config, must_fail = draw
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        result = runner.invoke(main, ["run", "--config", "config.json"])
    assert_one_line_or_exit_0(result, must_fail)
    if result.exit_code == 0:
        out = json.loads(result.stdout)["result"]
        assert all(math.isfinite(x) for x in numbers_in(out))
        assert 0.0 <= out["p_success"] <= 1.0 and 0.0 <= out["fidelity"] <= 1.0
        assert math.isclose(math.fsum(out["branch_log"].values()), out["p_success"], rel_tol=1e-12)


@given(draw=hostile_sweep_specs())
@settings(max_examples=150, deadline=None)
def test_bad_number_in_sweep_spec_never_prints_a_row(draw):
    spec, must_fail = draw
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        result = runner.invoke(main, ["sweep", "spec.json"])
    assert_one_line_or_exit_0(result, must_fail)
    if result.exit_code == 0:
        header, *lines = result.stdout.splitlines()
        for line in lines:
            row = dict(zip(header.split(","), map(float, line.split(","))))
            for column, value in row.items():
                assert math.isnan(value) == (column == "p_success_over_p2" and row["p"] == 0.0), (column, row)
            assert 0.0 <= row["p_success"] <= 1.0 and 0.0 <= row["fidelity"] <= 1.0


# ---------------------------------------------------------------------------
# verify command


def test_verify_invariants_all_pass(runner):
    result = runner.invoke(main, ["verify", "--suite", "invariants"])
    assert result.exit_code == 0
    assert "0 failed" in result.output.splitlines()[-1]


def test_verify_paper_values_reports_known_discrepancy(runner):
    result = runner.invoke(main, ["verify", "--suite", "paper-values"])
    lines = [line for line in result.output.splitlines() if line]
    fails = [line for line in lines if line.startswith("FAIL")]
    passes = [line for line in lines if line.startswith("PASS")]
    # one tabulated value sits just outside its own tolerance; everything
    # else must hold, so the suite flags exactly that check and exits 1
    assert result.exit_code == 1
    assert len(fails) == 1 and "pair-herald-two-cycles" in fails[0]
    assert len(passes) >= 10


def test_verify_unknown_suite_is_usage_error(runner):
    assert runner.invoke(main, ["verify", "--suite", "made-up"]).exit_code == 2


def test_verify_is_seed_stable(runner):
    a = runner.invoke(main, ["verify", "--suite", "invariants", "--seed", "11"]).output
    b = runner.invoke(main, ["verify", "--suite", "invariants", "--seed", "11"]).output
    assert a == b


CUTOFF_RULE = f"the invariant checks need an integer cutoff in [2, {MAX_CUTOFF}]"


@pytest.mark.parametrize("cutoff", [17, 2.5, "4", True])
def test_verify_suites_check_their_cutoff_before_any_work(monkeypatch, cutoff):
    def work(*args, **kwargs):
        pytest.fail(f"invariant_checks started work at cutoff {cutoff!r}")

    monkeypatch.setattr(verify, "unitarity_check", work)
    with pytest.raises(ValueError, match=re.escape(CUTOFF_RULE)):
        verify.invariant_checks(cutoff=cutoff)


@pytest.mark.parametrize("cutoff", ["2", "4", "4.0", str(MAX_CUTOFF)])
def test_paper_values_suite_refuses_an_explicit_cutoff_before_any_work(runner, monkeypatch, cutoff):
    # a cutoff the invariants suite would take: the paper values run circuits, which take none
    def work(*args, **kwargs):
        pytest.fail(f"paper_value_checks started work at cutoff {cutoff!r}")

    monkeypatch.setattr(cli, "paper_value_checks", work)
    result = runner.invoke(main, ["verify", "--suite", "paper-values", "--cutoff", cutoff])
    assert_one_line_usage_error(result)
    assert "--cutoff applies to the invariants suite only" in result.stderr


def test_cutoff_flag_is_refused_by_the_cutoff_rule(runner):
    result = runner.invoke(main, ["verify", "--suite", "invariants", "--cutoff", str(MAX_CUTOFF + 1)])
    assert_one_line_usage_error(result)
    assert CUTOFF_RULE in result.stderr
