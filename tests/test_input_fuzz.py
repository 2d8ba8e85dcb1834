"""Fuzz of the inputs that ``photonherald`` reads as text.

The absorber wire format of ``run --tpam``: each draw is a prefix
(``generic:``, ``jf:``, ``fwm:`` or junk) and field values from the shapes
that once slipped past a check: ints, ints too large for a float, floats
whose square overflows, subnormals, ``nan``/``inf`` text, complex text,
fractions (``1/0`` among them), booleans and junk.  A run either prints a
finite result or refuses with one short ``Error:`` line and exit code 2 or
3; no draw may crash or print a plausible number.

A cutoff wherever a command would read one: the circuits hold two photons
per mode and the invariants suite draws its states up to a fixed bound, so
``run --cutoff``, ``sweep --cutoff``, a config file's ``cutoff`` and
``verify --cutoff`` (as ``--cutoff V`` or ``--cutoff=V``, under either
suite) are refused with one short ``Error:`` line and exit code 2, whatever
the value.

The spec file of ``photonherald sweep``: each draw is a JSON object of
axes, each a list or a range object, with values from the same shapes as
JSON (numbers, ints too large for a float, floats near the overflow and
subnormal edges, text, booleans, null, lists and objects), beside unknown
keys and units and ``steps`` beyond ``MAX_SWEEP_POINTS``.  A sweep either
prints its header and one row of finite values per grid point, or refuses
with one short ``Error:`` line and exit code 2 or 3.
"""

import json
import math
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from photonherald.analysis import MAX_SWEEP_POINTS, SWEEP_COLUMNS
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
    st.builds(
        lambda suite, flag: (["verify", "--suite", suite, *flag], None),
        st.sampled_from(["paper-values", "invariants"]),
        st.one_of(values.map(lambda value: ["--cutoff", value]), values.map(lambda value: [f"--cutoff={value}"])),
    ),
)


@seed(31)
@given(case=cutoff_inputs)
@settings(max_examples=120, deadline=None, database=None)
def test_a_cutoff_is_refused_in_one_line(case):
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


#: A value in a sweep spec: the JSON shapes, numbers at the float edges among them.
spec_numbers = st.one_of(
    st.sampled_from([0, 1, 2, 3, 0.5, 30, 90, -1, 1e-9, 2.0]),
    st.tuples(st.sampled_from([1, -1]), st.integers(10**300, 10**400)).map(lambda s: s[0] * s[1]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1e307, 1.7976931348623157e308)).map(lambda s: s[0] * s[1]),
    st.floats(5e-324, 2.2e-308),
)
spec_values = st.one_of(
    spec_numbers,
    values,
    st.booleans(),
    st.none(),
    st.lists(st.one_of(spec_numbers, values), max_size=2),
    st.dictionaries(st.sampled_from(["re", "im", "start"]), spec_numbers, max_size=1),
)
#: A range's steps: a small grid, one past the limit, or a value the rule refuses.
spec_steps = st.sampled_from(["small", "edge", "any"]).flatmap(
    lambda kind: {
        "small": st.integers(-1, 4),
        "edge": st.sampled_from([2.0, "3", 2.5, MAX_SWEEP_POINTS + 1, 10**9, 1e300, 10**400]),
        "any": spec_values,
    }[kind]
)


def spec_axes(plausible, *, numeric=True):
    """An axis that sweeps, as a list of ``plausible`` values (sorted, for a
    ``numeric`` axis) or a range of them, and one in any shape: unsorted or
    mixed lists, ranges with any steps, values, keys or units, or no axis
    shape at all.  Only the lists sweep beta."""
    values_list = st.lists(plausible, min_size=1, max_size=3)
    ranges = st.fixed_dictionaries({"start": plausible, "stop": plausible, "steps": st.integers(1, 4)})
    sweeps = st.one_of(values_list.map(sorted), ranges) if numeric else values_list
    units = st.sampled_from(["deg", "rad", "grad", "", None])
    steps_and_units = st.fixed_dictionaries({"start": plausible, "stop": plausible, "steps": spec_steps}, optional={"unit": units})
    shapes = st.one_of(
        st.lists(st.one_of(plausible, spec_values), max_size=3),
        st.fixed_dictionaries(
            {"start": st.one_of(plausible, spec_values), "stop": st.one_of(plausible, spec_values), "steps": spec_steps},
            optional={"unit": units, "step": spec_numbers},
        ),
        spec_values,
    )
    # Half of them probe a range's steps and unit: one_of would weigh each of spec_values' shapes as much.
    anything = st.booleans().flatmap(lambda probe: steps_and_units if probe else shapes)
    return sweeps, anything


angles = st.one_of(st.floats(-7.0, 7.0), st.sampled_from([0, 30, 1e-9, -0.0]))
axes = {
    "theta0": spec_axes(angles),
    "theta1": spec_axes(angles),
    "p": spec_axes(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, 5e-324]))),
    "beta": spec_axes(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([[0.3, 0.4], "0.1+0.2j", "-1"])), numeric=False),
    "case": (st.sampled_from(["sum_plus", "sum_minus", "diff_plus", "diff_minus"]), spec_values),
}
#: A spec that sweeps, half the time with one or two keys redrawn in any
#: shape (an unknown key among them).
sweep_specs = st.builds(
    lambda spec, changes: spec | changes,
    st.fixed_dictionaries({}, optional={key: sweeps for key, (sweeps, _) in axes.items()}),
    st.one_of(
        st.just({}),
        st.lists(
            st.one_of(*(st.tuples(st.just(key), anything) for key, (_, anything) in axes.items()), st.tuples(st.just("gamma"), spec_values)),
            min_size=1,
            max_size=2,
        ).map(dict),
    ),
)


def grid_points(spec):
    """The points of an accepted spec's grid, counted from the file as written."""
    ranged = [spec.get(name, [0]) for name in ("theta0", "theta1", "p")]
    sizes = [len(axis) if isinstance(axis, list) else int(float(axis["steps"])) for axis in ranged]
    return math.prod(sizes) * len(spec.get("beta", [0]))


@seed(34)
@given(spec=sweep_specs)
@settings(max_examples=200, deadline=None, database=None)
def test_a_sweep_spec_sweeps_or_refuses_in_one_line(spec):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("spec.json").write_text(json.dumps(spec), encoding="utf-8")
        result = runner.invoke(main, ["sweep", "spec.json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        lines = result.stderr.splitlines()
        assert result.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("Error: ") and len(lines[0]) <= 200, result.stderr
    else:
        header, *rows, end = result.stdout_bytes.decode().split("\r\n")
        assert header == ",".join(SWEEP_COLUMNS) and end == ""
        assert len(rows) == grid_points(spec)
        for row in rows:
            fields = dict(zip(SWEEP_COLUMNS, map(float, row.split(","))))
            assert 0.0 <= fields["p_success"] <= 1.0 and 0.0 <= fields["fidelity"] <= 1.0, row
