"""Fuzz of the inputs that ``photonherald`` reads as text.

The absorber wire format of ``run --tpam``: each draw is a prefix
(``generic:``, ``jf:``, ``fwm:`` or junk) and field values from the shapes
that once slipped past a check: ints, ints too large for a float, floats
whose square overflows, subnormals, ``nan``/``inf`` text, complex text,
fractions (``1/0`` among them), booleans and junk.  A run either prints a
finite result or refuses with one short ``Error:`` line and exit code 2 or
3; no draw may crash or print a plausible number.

A cutoff wherever a run or sweep would read one: the circuits hold two
photons per mode, so ``run --cutoff``, ``sweep --cutoff``, a config file's
``cutoff`` and ``verify --suite paper-values --cutoff`` are refused with
one short ``Error:`` line and exit code 2, whatever the value.
"""

import json
import math
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from photonherald.cli import SCHEME_TOKENS, main

signs = st.sampled_from(["", "-", "+"])
plausible = st.one_of(
    st.sampled_from(["0", "1", "2", "0.6", "0.8", "0.8j", "(0.6+0.8j)", "3/2", "5/2"]),
    st.floats(-1.0, 1.0).map(repr),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(str),
)
hostile = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(signs, st.integers(10**300, 10**400).map(str)).map("".join),
    st.tuples(signs, st.floats(150.0, 308.25).map(lambda e: repr(10.0**e))).map("".join),
    st.floats(5e-324, 2.2e-308).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN"]),
    st.sampled_from(["0.6-0.8j", "1e200j", "(1e160+1e160j)", "(nan+1j)"]),
    st.tuples(st.integers(-5, 5), st.integers(0, 3)).map(lambda f: f"{f[0]}/{f[1]}"),
    st.sampled_from(["True", "False", "true", "none", "null"]),
    st.text(st.sampled_from("0123456789.eEj+-()/=,:xM "), max_size=8),
)
values = st.one_of(plausible, hostile)
junk = st.sampled_from(["GENERIC:", "junk:", "generic", ":", "", "jf:M=2,"])
specs = st.one_of(
    st.builds("generic:alpha={},beta={}".format, values, values),
    st.builds("{}:M={}".format, st.sampled_from(["jf", "fwm"]), values),
    st.builds("{}:M={},condition=({},{})".format, st.sampled_from(["jf", "fwm"]), values, values, values),
    st.builds("{}{}={}".format, junk, st.sampled_from(["alpha", "beta", "M", "condition", "gamma"]), values),
)


@seed(30)
@given(spec=specs, scheme=st.sampled_from(sorted(SCHEME_TOKENS)))
@settings(max_examples=250, deadline=None, database=None)
def test_absorber_text_runs_or_refuses_in_one_line(spec, scheme):
    result = CliRunner().invoke(main, ["run", "--scheme", scheme, "--tpam", spec])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        lines = result.stderr.splitlines()
        assert result.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("Error: ") and len(lines[0]) <= 200, result.stderr
    else:
        out = json.loads(result.stdout)["result"]
        assert math.isfinite(out["p_success"]) and math.isfinite(out["fidelity"])


#: A config file's cutoff: a JSON number, string, boolean, null or list.
json_values = st.one_of(values, st.integers(), st.floats(), st.booleans(), st.none(), st.lists(values, max_size=2))
cutoff_inputs = st.one_of(
    st.builds(lambda value: (["run", "--cutoff", value], None), values),
    st.builds(lambda value: (["sweep", "spec.json", "--cutoff", value], None), values),
    st.builds(lambda value: (["run", "--config", "config.json"], {"cutoff": value}), json_values),
    st.just((["verify", "--suite", "paper-values", "--cutoff", "4"], None)),
)


@seed(31)
@given(case=cutoff_inputs)
@settings(max_examples=120, deadline=None, database=None)
def test_a_cutoff_for_the_circuits_is_refused_in_one_line(case):
    args, config = case
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("spec.json").write_text(json.dumps({"theta1": [0.5], "p": [0.5]}), encoding="utf-8")
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert result.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("Error: ") and len(lines[0]) <= 200, result.stderr
