"""Command-line interface: tokens, manifests, sweeps, exit codes."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from photonherald import MAX_CUTOFF, SWEEP_COLUMNS, FwmTpamSpec, GenericTpam
from photonherald.cli import (
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


def test_cutoff_env_variable(runner):
    manifest = manifest_of(invoke(runner, "run", env={"FOCK_CUTOFF": "6"}))
    assert manifest["config"]["cutoff"] == 6


def test_cutoff_flag_beats_default(runner):
    manifest = manifest_of(invoke(runner, "run", "--cutoff", "5"))
    assert manifest["config"]["cutoff"] == 5


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


def test_cutoff_below_two_is_usage_error(runner):
    result = runner.invoke(main, ["run"], env={"FOCK_CUTOFF": "1"})
    assert result.exit_code == 2


def assert_one_line_usage_error(result):
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.output.strip().splitlines()[-1].startswith("Error: ")


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


@pytest.mark.parametrize("cutoff", [4.7, "4.5", MAX_CUTOFF + 1, 1])
def test_bad_config_cutoff_is_usage_error(runner, tmp_path, cutoff):
    assert_one_line_usage_error(run_config(runner, tmp_path, {"cutoff": cutoff}))


def test_cutoff_above_ceiling_is_usage_error(runner):
    too_big = str(MAX_CUTOFF + 1)
    assert_one_line_usage_error(runner.invoke(main, ["run", "--cutoff", too_big]))
    assert_one_line_usage_error(runner.invoke(main, ["run"], env={"FOCK_CUTOFF": too_big}))


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


@pytest.mark.parametrize("field,first,second", [("cutoff", 6.0, 6), ("p", 1, 1.0)])
def test_config_numbers_of_equal_value_record_one_config(runner, tmp_path, field, first, second):
    a = manifest_of(run_config(runner, tmp_path, {field: first}))
    b = manifest_of(run_config(runner, tmp_path, {field: second}))
    assert json.dumps(a["config"]) == json.dumps(b["config"])
    assert a["config_hash"] == b["config_hash"]


def test_config_file_records_the_flag_path_config(runner, tmp_path):
    flags = manifest_of(invoke(runner, "run", "--theta1", "0.5", "--tpam", "jf:M=3"))
    config = manifest_of(run_config(runner, tmp_path, {"theta1": 0.5, "tpam": "fwm:M=3", "cutoff": 4.0}))
    assert json.dumps(config["config"]) == json.dumps(flags["config"])
    assert config["config_hash"] == flags["config_hash"]


@pytest.mark.parametrize("config", [{"p": True}, {"theta1": False}, {"p": True, "theta1": False}, {"cutoff": True}])
def test_boolean_config_field_is_usage_error(runner, tmp_path, config):
    assert_one_line_usage_error(run_config(runner, tmp_path, config))


@pytest.mark.parametrize("tpam", ["jf:M=1/0", "fwm:M=3/0,condition=(1,1)"])
def test_zero_denominator_mixer_length_is_usage_error(runner, tmp_path, tpam):
    assert_one_line_usage_error(runner.invoke(main, ["run", "--tpam", tpam]))
    assert_one_line_usage_error(run_config(runner, tmp_path, {"tpam": tpam}))


@pytest.mark.parametrize("scheme,tpam", [("main", "jf:M=1e17"), ("pair-herald", "jf:M=1e17,condition=(1,1)")])
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


# ---------------------------------------------------------------------------
# one run path: flags and --config files are validated alike


@pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--phi1", "--phi2"])
@pytest.mark.parametrize("scheme", ["pair-herald", "filter-split"])
def test_splitter_flag_on_conversion_scheme_is_usage_error(runner, scheme, flag):
    result = runner.invoke(main, ["run", "--scheme", scheme, flag, "30deg"])
    assert_one_line_usage_error(result)
    assert repr(flag[2:]) in result.output


@pytest.mark.parametrize(
    "flags", [["--p", "0.5"], ["--scheme", "doubled"], ["--cutoff", "6"], ["--theta1", "30deg", "--tpam", "jf:M=3"]]
)
def test_physics_flag_beside_config_is_usage_error(runner, tmp_path, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 0.7}), encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(path), *flags])
    assert_one_line_usage_error(result)
    for flag in flags[::2]:
        assert flag in result.output


def test_cutoff_env_variable_beside_config_is_ignored(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 0.7}), encoding="utf-8")
    plain = manifest_of(invoke(runner, "run", "--config", str(path)))
    with_env = manifest_of(invoke(runner, "run", "--config", str(path), env={"FOCK_CUTOFF": "6"}))
    assert with_env["config"] == plain["config"]
    assert with_env["result"] == plain["result"]


@pytest.mark.parametrize("p", ["1e-155", "1e-200", "5e-324"])
def test_source_efficiency_with_subnormal_square_is_usage_error(runner, tmp_path, p):
    assert_one_line_usage_error(runner.invoke(main, ["run", "--p", p]))
    assert_one_line_usage_error(runner.invoke(main, ["sweep", write_spec(tmp_path, {"p": [float(p)]})]))


def test_smallest_source_efficiency_keeps_the_unit_source_ratio(runner, tmp_path):
    unit = manifest_of(invoke(runner, "run", "--theta1", "30deg"))["result"]["p_success"]
    weak = manifest_of(invoke(runner, "run", "--theta1", "30deg", "--p", "1e-150"))["result"]
    assert weak["details"]["p_success_over_p2"] == pytest.approx(unit, rel=1e-12)
    spec = write_spec(tmp_path, {"theta1": [math.pi / 6], "beta": [0], "p": [1e-150, 1.0]})
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
    field = draw(st.sampled_from(["p", "theta0", "cutoff", "theta1", "theta2", "phi1", "phi2", "alpha", "beta", "M"]))
    if field == "M":
        scheme = draw(st.sampled_from(["pair-herald", "filter-split"]))
        return {"scheme": scheme, "tpam": f"jf:M={draw(BAD_TEXT)}" + (",condition=(1,1)" if scheme == "pair-herald" else "")}
    scheme = draw(st.sampled_from(ANY_SCHEME if field in ("p", "theta0", "cutoff") else ANY_SCHEME[:2]))
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


def assert_no_number_printed(result):
    assert_one_line_usage_error(result)
    assert "p_success" not in result.output
    assert not any(line.count(",") == len(SWEEP_COLUMNS) - 1 for line in result.output.splitlines())


@given(config=bad_run_configs())
@settings(max_examples=60, deadline=None)
def test_bad_number_in_run_config_never_prints_a_result(config):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert_no_number_printed(runner.invoke(main, ["run", "--config", "config.json"]))


@given(spec=bad_sweep_specs())
@settings(max_examples=60, deadline=None)
def test_bad_number_in_sweep_spec_never_prints_a_row(spec):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        assert_no_number_printed(runner.invoke(main, ["sweep", "spec.json"]))


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
