"""Command-line front-end: run circuits, sweep parameters, self-verify.

Three subcommands:

* ``run`` — execute one scheme and emit a JSON run manifest (command echo,
  canonical config, config hash, result payload).  The flags that carry a
  value, or else a ``--config`` file, form one config mapping that
  :func:`run_from_config` validates once, records canonically and runs; a
  physics flag typed beside ``--config`` is an error.
* ``sweep`` — evaluate a grid of main-scheme configurations from a JSON spec
  file and emit an RFC-4180 CSV table (or gnuplot-style columns).
* ``verify`` — run the built-in check suites and exit nonzero on failure.

Every failure prints one ``Error:`` line on stderr and nothing on stdout.
Exit codes: 0 success, 1 a ``verify`` check failed, 2 usage/parse errors
(bad flags, malformed config or spec files, values the model rejects),
3 physics errors (cutoff overflow, photon numbers outside the model) and
files that cannot be read or written.

Angles, as flags or in a config file, are accepted as ``30deg``,
``0.5236rad``, or bare radians.  Absorber specifications use the wire format
``generic:alpha=1,beta=0`` or ``jf:M=2,condition=(1,1)`` (``fwm:`` is
accepted as an alias for ``jf:``; M may be a fraction like ``3/2``).  The
circuits hold every mode at two photons, the most two single-photon sources
can put there, and the invariants suite draws its Fock states up to
``fock.DEFAULT_CUTOFF`` (4), so no command takes a cutoff and each refuses
``--cutoff`` saying so.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import math
import numbers
import reprlib
import sys
from collections.abc import Iterator, Mapping
from fractions import Fraction
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .analysis import SWEEP_COLUMNS, SweepSpec, _number, _whole, manifold_config, sweep_rows
from .fock import DEFAULT_CUTOFF, FockError
from .schemes import DEFAULT_TPAM, DOUBLED, FILTER_SPLIT, MAIN, PAIR_HERALD, SchemeConfig, SchemeResult, run_scheme
from .tpam import FwmParams, FwmTpamSpec, GenericTpam
from .verify import DEFAULT_SEED, invariant_checks, paper_value_checks

SCHEMA_VERSION = 1

#: CLI scheme tokens -> internal variant names.  The appendix-style aliases
#: are kept for script compatibility.
SCHEME_TOKENS = {
    "main": MAIN,
    "doubled": DOUBLED,
    "pair-herald": PAIR_HERALD,
    "appendix-a": PAIR_HERALD,
    "filter-split": FILTER_SPLIT,
    "appendix-b": FILTER_SPLIT,
}

#: Internal variant names -> their first (canonical) CLI token.
_CANONICAL_TOKEN = {variant: token for token, variant in reversed(SCHEME_TOKENS.items())}

#: Fields of a run config.  The interferometer splitters exist in main and
#: doubled only.  Angle fields also take the ``30deg`` forms of :func:`parse_angle`.
_SPLITTER_FIELDS = ("theta1", "theta2", "phi1", "phi2")
_ANGLE_FIELDS = ("theta0", *_SPLITTER_FIELDS)
_CONFIG_FIELDS = ("scheme", "p", "tpam", *_ANGLE_FIELDS)


# --------------------------------------------------------------------------
# Wire-format parsing


def parse_angle(text: str, name: str = "angle") -> float:
    """``30deg`` / ``0.5236rad`` / bare number (radians) -> radians; the
    number passes the number rule under the field ``name``."""
    raw = text.strip().lower()
    factor = 1.0
    if raw.endswith("deg"):
        raw, factor = raw[:-3], math.pi / 180.0
    elif raw.endswith("rad"):
        raw = raw[:-3]
    return _number(name, raw) * factor


def _split_top_level(body: str) -> list[str]:
    """Split on commas that are not nested inside (), [] brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {reprlib.repr(body)}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {reprlib.repr(body)}")
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_fields(body: str, allowed: set[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in _split_top_level(body):
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not eq or not key or not value.strip():
            raise ValueError(f"expected key=value, got {reprlib.repr(chunk)} in an absorber spec")
        if key not in allowed:
            raise ValueError(f"unknown field {reprlib.repr(key)} in an absorber spec (allowed: {sorted(allowed)})")
        if key in fields:
            raise ValueError(f"duplicate field {key!r} in an absorber spec")
        fields[key] = value.strip()
    return fields


def _parse_length(text: str) -> float | Fraction:
    """A mixer length as typed; ``FwmParams`` reads a fraction through the number rule."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"mixer length_multiple {reprlib.repr(text)} divides by zero") from None
        except ValueError:
            pass  # no fraction: the number rule refuses it
    return _number("mixer length_multiple", text)


def parse_tpam_spec(text: str) -> GenericTpam | FwmTpamSpec:
    """Parse the absorber wire format.

    ``generic:alpha=<complex>,beta=<complex>`` or
    ``jf:M=<length multiple>[,condition=(i,j)]``; ``fwm:`` aliases ``jf:``.
    """
    kind, sep, body = text.partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise ValueError(f"absorber spec {reprlib.repr(text)} needs a 'generic:' or 'jf:' prefix")
    if kind == "generic":
        fields = _parse_fields(body, {"alpha", "beta"})
        for required in ("alpha", "beta"):
            if required not in fields:
                raise ValueError(f"generic absorber spec needs {required}=")
        return GenericTpam(*(_number(f"generic TPAM {key}", fields[key], numbers.Complex) for key in ("alpha", "beta")))
    if kind in ("jf", "fwm"):
        fields = _parse_fields(body, {"M", "condition"})
        if "M" not in fields:
            raise ValueError("mixer spec needs M= (medium length in cycle units)")
        length = _parse_length(fields["M"])
        condition = (0, 0)
        if "condition" in fields:
            raw = fields["condition"].strip()
            if not (raw.startswith("(") and raw.endswith(")")):
                raise ValueError(f"condition must look like (i,j), got {reprlib.repr(raw)}")
            condition = tuple(_whole("condition", entry) for entry in raw[1:-1].split(","))
        return FwmTpamSpec(FwmParams(length), condition)
    raise ValueError(f"unknown absorber kind {reprlib.repr(kind)} (expected generic, jf, or fwm)")


def _format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    return str(z)  # '(re+imj)' — round-trips through complex()


def format_tpam_spec(tpam: GenericTpam | FwmTpamSpec) -> str:
    """Canonical wire form of an absorber (inverse of :func:`parse_tpam_spec`)."""
    if isinstance(tpam, GenericTpam):
        return f"generic:alpha={_format_complex(tpam.alpha)},beta={_format_complex(tpam.beta)}"
    m = tpam.params.length_multiple
    m_text = repr(int(m)) if m == int(m) else repr(m)
    i, j = tpam.condition
    return f"jf:M={m_text},condition=({i},{j})"


def _default_tpam_help() -> str:
    """Each scheme's :data:`~photonherald.schemes.DEFAULT_TPAM` entry in wire
    form, schemes that share one named together."""
    tokens: dict[str, list[str]] = {}
    for variant, tpam in DEFAULT_TPAM.items():
        tokens.setdefault(format_tpam_spec(tpam), []).append(_CANONICAL_TOKEN[variant])
    return ", ".join(f"{spec} for {' and '.join(names)}" for spec, names in tokens.items())


# --------------------------------------------------------------------------
# Config canonicalization and execution


def _scheme_config(config: Mapping[str, object]) -> SchemeConfig:
    """Validate a run config mapping (a manifest's, a config file's or the flags').

    Every field is optional; :func:`manifold_config` holds the defaults, the
    absorber's in :data:`~photonherald.schemes.DEFAULT_TPAM`.  An angle given
    as text (every flag is text) goes through :func:`parse_angle`, so
    ``30deg`` works in a file too.

    Raises:
        ValueError: on unknown, null or non-numeric fields, fields the scheme
            does not use, unknown scheme tokens, or unparsable or
            incompatible absorber specs.
    """
    unknown = sorted(set(config) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown config fields: {', '.join(map(reprlib.repr, unknown))} (known: {', '.join(_CONFIG_FIELDS)})"
        )
    nulls = sorted(key for key, value in config.items() if value is None)
    if nulls:
        raise ValueError(f"config fields must not be null: {', '.join(nulls)}")
    fields = dict(config)
    token = str(fields.pop("scheme", "main"))
    variant = SCHEME_TOKENS.get(token)
    if variant is None:
        raise ValueError(f"unknown scheme {reprlib.repr(token)} (expected one of {sorted(SCHEME_TOKENS)})")
    unused = sorted(set(fields) & set(_SPLITTER_FIELDS))
    if unused and variant not in (MAIN, DOUBLED):
        raise ValueError(f"config fields {', '.join(map(repr, unused))} do not apply to scheme {token!r}")
    for name in _ANGLE_FIELDS:
        if isinstance(fields.get(name), str):
            fields[name] = parse_angle(fields[name], name)
    tpam = parse_tpam_spec(str(fields.pop("tpam"))) if "tpam" in fields else None
    return manifold_config(**fields, tpam=tpam, variant=variant)


def _config_record(cfg: SchemeConfig) -> dict[str, object]:
    """Canonical config mapping of ``cfg`` (plain JSON types only), so equal
    physics records and hashes alike (a p of 1 and 1.0, say)."""
    record: dict[str, object] = {
        "scheme": _CANONICAL_TOKEN[cfg.variant],
        "p": cfg.source.p,
        "tpam": format_tpam_spec(cfg.tpam),
        "theta0": cfg.bs0.theta,
    }
    if cfg.variant in (MAIN, DOUBLED):
        record |= {"theta1": cfg.bs1.theta, "theta2": cfg.bs2.theta, "phi1": cfg.bs1.phi, "phi2": cfg.bs2.phi}
    return record


def run_from_config(config: Mapping[str, object]) -> tuple[dict[str, object], SchemeResult]:
    """Validate a config mapping once, run it, and return its canonical
    record with the result.  Every ``run`` goes through here.

    Raises:
        ValueError: on a config :func:`_scheme_config` rejects.
        FockError: on physics-level failures (propagated from the simulator).
    """
    cfg = _scheme_config(config)
    return _config_record(cfg), run_scheme(cfg)


def config_hash(config: Mapping[str, object]) -> str:
    """sha256 over the canonical (sorted-key, compact) JSON form of a config."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_manifest(
    command: str, config: Mapping[str, object], result: SchemeResult
) -> dict[str, object]:
    """Run manifest: everything needed to audit and re-run this invocation.

    The timestamp is informational only and excluded from the config hash,
    so repeated runs differ in nothing but that one field.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "photonherald",
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": command,
        "config": dict(config),
        "config_hash": config_hash(config),
        "result": result.to_dict(),
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """``object_pairs_hook`` for config and spec files: a key given twice
    would silently drop its first value, so it is an error."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {reprlib.repr(key)} in a JSON object")
        data[key] = value
    return data


def _read_object(path: str, what: str) -> dict[str, object]:
    """The JSON object in the UTF-8 file ``path``; ``what`` names the file in errors."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object")
    return data


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}", err=True)


# --------------------------------------------------------------------------
# Commands


@contextlib.contextmanager
def _one_line_errors() -> Iterator[None]:
    """Re-raise a failure as a :class:`click.ClickException`, which click
    prints as one ``Error:`` line on stderr: exit 2 for a usage error or a
    ``ValueError``, 3 for a ``FockError`` or an ``OSError``.  Click's help
    for a bare ``photonherald`` and its broken-pipe exit pass through.  No
    command takes a ``--cutoff``, and one is refused with the reason, in
    place of click's hint at the nearest option name."""
    try:
        yield
    except (click.UsageError, ValueError, FockError, OSError) as exc:
        if isinstance(exc, (click.exceptions.NoArgsIsHelpError, BrokenPipeError)):
            raise
        message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
        if isinstance(exc, click.NoSuchOption) and exc.option_name == "--cutoff":
            message = f"{exc.message} No command takes a cutoff: the circuits hold every mode at two photons, and the invariants suite draws its states up to {DEFAULT_CUTOFF}, so there is no cutoff to set."
        failure = click.ClickException(" ".join(message.split()))
        failure.exit_code = 3 if isinstance(exc, (FockError, OSError)) else 2
        raise failure from None


class _Group(click.Group):
    """The ``photonherald`` group: parsing and every command run inside
    :func:`_one_line_errors`, so every failure is reported the same way."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _one_line_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="photonherald")
def main() -> None:
    """Few-mode Fock-space simulator for heralded single-photon schemes."""


@main.command("run")
@click.option(
    "--scheme",
    metavar="SCHEME",
    help="Circuit to run: main, doubled, pair-herald (alias appendix-a) or filter-split (alias appendix-b) "
    "[default: main].",
)
@click.option("--p", metavar="FLOAT", help="Source efficiency in [0, 1] [default: 1].")
@click.option(
    "--tpam",
    metavar="TPAM",
    help=f"Absorber spec [default: {_default_tpam_help()}].",
)
@click.option("--theta0", metavar="ANGLE", help="Front-splitter angle [default: 45deg].")
@click.option("--theta1", metavar="ANGLE", help="First interferometer splitter angle [default: 45deg].")
@click.option("--theta2", metavar="ANGLE", help="Second interferometer splitter angle [default: 90deg - theta1].")
@click.option("--phi1", metavar="ANGLE", help="First splitter phase [default: 0].")
@click.option("--phi2", metavar="ANGLE", help="Second splitter phase [default: 0].")
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Re-run the config from a previous manifest (or bare config) JSON; "
    "a physics flag typed beside it exits 2.",
)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout.")
@click.option(
    "--gnuplot",
    "--points",
    "points",
    is_flag=True,
    help="Emit plot-ready columns (p_success, fidelity) instead of JSON.",
)
def cmd_run(config_path, output, points, **flags) -> None:
    """Run one scheme and emit a JSON run manifest."""
    if config_path is None:
        config = {name: value for name, value in flags.items() if value is not None}
    else:
        ctx = click.get_current_context()
        typed = [f"--{name}" for name in flags if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
        if typed:
            raise ValueError(f"--config sets every physics field; drop {', '.join(typed)}")
        loaded = _read_object(config_path, "config file")
        ignored = sorted(set(loaded) & set(_CONFIG_FIELDS)) if "config" in loaded else []
        if ignored:
            raise ValueError(f"fields {', '.join(map(repr, ignored))} beside a manifest's 'config' would be ignored")
        config = loaded.get("config", loaded)
        if not isinstance(config, dict):
            raise ValueError("manifest 'config' field must be an object")
    config, result = run_from_config(config)
    if points:
        lines = ["# p_success fidelity", f"{result.p_success!r} {result.fidelity!r}"]
        _emit("\n".join(lines) + "\n", output)
        return
    manifest = build_manifest("run", config, result)
    _emit(json.dumps(manifest, indent=2) + "\n", output)


@main.command("sweep")
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout.")
@click.option(
    "--gnuplot",
    "--points",
    "points",
    is_flag=True,
    help="Emit whitespace-separated columns with a # header instead of CSV.",
)
def cmd_sweep(spec_file, output, points) -> None:
    """Evaluate a main-scheme parameter grid from a JSON SPEC_FILE.

    The spec maps axis names (theta0, theta1, beta, p, case) to explicit
    value lists or {"start", "stop", "steps", "unit"} ranges.  Output is an
    RFC-4180 CSV with one row per grid point, in deterministic grid order.
    """
    try:
        spec = SweepSpec.from_mapping(_read_object(spec_file, "sweep spec"))
    except ValueError as exc:
        raise ValueError(f"malformed sweep spec: {exc}") from None
    rows = sweep_rows(spec)
    # RFC 4180: header row first, commas, CRLF line endings; the columns: a # header, spaces, LF.
    header, sep, end = ("# ", " ", "\n") if points else ("", ",", "\r\n")
    lines = [header + sep.join(SWEEP_COLUMNS)]
    lines.extend(sep.join(repr(row[col]) for col in SWEEP_COLUMNS) for row in rows)
    _emit(end.join(lines) + end, output)


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(["paper-values", "invariants"]),
    required=True,
    help="Which check suite to run.",
)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True, help="RNG seed for randomized checks.")
def cmd_verify(suite, seed) -> None:
    """Run a verification suite; exit 0 iff every check passes."""
    if suite == "paper-values":
        checks = paper_value_checks(seed=seed)
    else:
        checks = invariant_checks(seed=seed)
    for check in checks:
        click.echo(check.format_line())
    failed = sum(1 for c in checks if not c.passed)
    click.echo(f"{len(checks)} checks: {len(checks) - failed} passed, {failed} failed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
