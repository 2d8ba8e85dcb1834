"""The four benchmark workloads: seeded inputs, the timed call, and its gate.

Every workload is a closed loop with one client in one process: the next
call is issued only after the previous one returned.  Inputs come only from
the seed.  Each workload object provides

* ``ops()`` — an endless, seed-determined stream of call inputs;
* ``call(x)`` — the timed call into photonherald, looked up on the module at
  call time so the traced run's wrappers see it;
* ``size(x)`` — how many ops one call counts as (grid points for a sweep);
* ``check(x, out)`` — the correctness gate, run outside the timed span.  It
  returns the number of failed ops in the call.

``warmup`` calls precede timing, ``trace_calls`` calls make the traced run,
and peak RSS is read after ``rss_ops`` timed ops.

The gates compare against closed forms written out here, not against the
package's own coefficient helpers, so a change to the package cannot move
the reference along with the result.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys

from photonherald import analysis, schemes, tpam, verify
from photonherald.elements import BeamSplitterParams

TOL = 1e-12
_SQRT_3_2 = math.sqrt(1.5)
_CASES = ("sum_plus", "sum_minus", "diff_plus", "diff_minus")


def fwm_alpha1_beta(length: float, pump_phase: float = 0.0) -> tuple[complex, complex]:
    """Four-wave-mixer single-conversion and survival amplitudes (alpha1, beta)."""
    phase = length * math.pi * _SQRT_3_2
    alpha1 = -(1j / math.sqrt(3.0)) * cmath.exp(1j * pump_phase) * math.sin(phase)
    return alpha1, complex((2.0 + math.cos(phase)) / 3.0)


def main_ps(p: float, theta0: float, beta: complex, theta1: float) -> float:
    """Main-scheme heralding probability on the null-condition manifold."""
    return (
        p * p * math.sin(2.0 * theta0) ** 2 * abs(1.0 - beta) ** 2
        * math.cos(theta1) ** 6 * math.sin(theta1) ** 2
    )


def pair_herald_ps(p: float, theta0: float, length: float, pump_phase: float = 0.0) -> float:
    alpha1, _ = fwm_alpha1_beta(length, pump_phase)
    return p * p * math.sin(2.0 * theta0) ** 2 * abs(alpha1) ** 2 / 2.0


def filter_split_ps(p: float, theta0: float, length: float, pump_phase: float = 0.0) -> float:
    _, beta = fwm_alpha1_beta(length, pump_phase)
    return p * p * math.sin(2.0 * theta0) ** 2 * abs(beta) ** 2 / 4.0


def result_ok(p_success: float, fidelity: float, expected: float) -> bool:
    """Closed-form probability, and fidelity 1 wherever the circuit heralds."""
    if abs(p_success - expected) > TOL:
        return False
    return p_success == 0.0 or abs(fidelity - 1.0) <= TOL


def _theta1(rng: random.Random) -> float:
    # Away from multiples of pi/2, where nothing heralds and the gate on
    # fidelity would have nothing to check.
    while True:
        theta1 = rng.uniform(0.0, 2.0 * math.pi)
        if abs(math.sin(2.0 * theta1)) > 0.1:
            return theta1


def _theta0(rng: random.Random) -> float:
    return rng.uniform(0.15, math.pi / 2 - 0.15)


def _unit_phase(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


class SweepGrid:
    """``analysis.sweep_rows`` over main-scheme grids; an op is one grid point.

    Chosen because sweeps and scans are where users spend most calls, and
    because their points repeat work.  Every call has the shape of the
    ``photonherald sweep`` example in the README: one theta0, a regular
    41-step theta1 range of whole degrees (10..50 deg there; here the start
    is drawn from 5..45 deg), three betas and two p values, 246 points in
    all.  theta0 and p come from pools of two and three, so thousands of
    points share six (p, theta0) front-splitter keys, and the whole-degree
    theta1 grid repeats angles across betas and calls.  Per-point overhead,
    memoising ``reduce_through_bs0``, reuse of the splitter rows and a
    batched engine all show here.  A call's latency is its time divided by
    its points.
    """

    name = "sweep-grid"
    rss_ops = 4096
    warmup = 1
    trace_calls = 4
    THETA1_STEPS = 41

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        rng = self.rng
        self.theta0_pool = [_theta0(rng) for _ in range(2)]
        self.p_pool = sorted(rng.uniform(0.2, 1.0) for _ in range(3))
        self.beta_pool = [rng.uniform(0.0, 0.95) * _unit_phase(rng) for _ in range(8)]

    def ops(self):
        rng = self.rng
        while True:
            start_deg = rng.randint(5, 45)
            yield analysis.SweepSpec(
                theta0=(rng.choice(self.theta0_pool),),
                theta1=tuple(math.radians(start_deg + i) for i in range(self.THETA1_STEPS)),
                beta=tuple(rng.sample(self.beta_pool, 3)),
                p=tuple(sorted(rng.sample(self.p_pool, 2))),
                case=analysis.CaseId(rng.choice(_CASES)),
            )

    def call(self, spec):
        return analysis.sweep_rows(spec)

    def size(self, spec) -> int:
        return len(spec.theta0) * len(spec.theta1) * len(spec.beta) * len(spec.p)

    def check(self, spec, rows) -> int:
        """Rows must be the requested grid in theta0, theta1, beta, p order,
        each with the closed-form probability of its own point."""
        expected = [
            (theta0, theta1, beta, p)
            for theta0 in spec.theta0
            for theta1 in spec.theta1
            for beta in spec.beta
            for p in spec.p
        ]
        if len(rows) != len(expected):
            return len(expected)
        return sum(
            (row["theta0_rad"], row["theta1_rad"], complex(row["beta_re"], row["beta_im"]), row["p"]) != point
            or not result_ok(row["p_success"], row["fidelity"], main_ps(point[3], point[0], point[2], point[1]))
            for row, point in zip(rows, expected)
        )


class SchemeMix:
    """Single-point runs of all four schemes; an op is one scheme run.

    Chosen as the counterpart of ``sweep-grid``: every run draws its own p,
    theta0, phi0, theta1 and absorber (unitary or lossy generic absorber,
    integer-length mixer with its own pump phase for main/doubled and
    pair-herald, half-odd-length mixer for filter-split), so no two runs share
    a parameter key and any parameter-keyed cache misses.  A memoisation
    change should leave it unchanged.  ``doubled`` is the slowest variant and
    sets the latency tail.
    """

    name = "scheme-mix"
    rss_ops = 4000
    warmup = 40
    trace_calls = 400

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def ops(self):
        rng = self.rng
        while True:
            variant = rng.choice(schemes.VARIANTS)
            p, theta0, phi0 = rng.uniform(0.2, 1.0), _theta0(rng), rng.uniform(0.0, 2.0 * math.pi)
            pump_phase = rng.uniform(0.0, 2.0 * math.pi)
            if variant == schemes.PAIR_HERALD:
                length = float(rng.randint(1, 8))
                kwargs = dict(pump_phase=pump_phase, theta0=theta0, phi0=phi0)
                yield variant, (p, length), kwargs, pair_herald_ps(p, theta0, length, pump_phase)
            elif variant == schemes.FILTER_SPLIT:
                length = rng.randint(0, 7) + 0.5
                kwargs = dict(pump_phase=pump_phase, theta0=theta0, phi0=phi0)
                yield variant, (p, length), kwargs, filter_split_ps(p, theta0, length, pump_phase)
            else:
                yield variant, (self._config(variant, p, theta0, phi0, pump_phase),), {}, None

    def _config(self, variant, p, theta0, phi0, pump_phase):
        rng = self.rng
        theta1 = _theta1(rng)
        theta2, phi1, phi2 = analysis.manifold_completion(theta1, rng.choice(_CASES))
        kind = rng.randrange(3)
        if kind == 0:  # unitary generic absorber
            m = rng.uniform(0.0, 0.95)
            absorber = tpam.GenericTpam(math.sqrt(1.0 - m * m) * _unit_phase(rng), m * _unit_phase(rng))
        elif kind == 1:  # lossy generic absorber, |alpha|^2 + |beta|^2 < 1
            scale, m = rng.uniform(0.3, 0.95), rng.uniform(0.0, 0.95)
            absorber = tpam.GenericTpam(scale * math.sqrt(1.0 - m * m), scale * m * _unit_phase(rng))
        else:  # integer-length mixer conditioned on (0, 0)
            absorber = tpam.FwmTpamSpec(tpam.FwmParams(float(rng.randint(1, 8)), pump_phase))
        return schemes.SchemeConfig(
            source=schemes.SourceSpec(p),
            tpam=absorber,
            bs0=BeamSplitterParams(theta0, phi0),
            bs1=BeamSplitterParams(theta1, phi1),
            bs2=BeamSplitterParams(theta2, phi2),
            variant=variant,
        )

    def call(self, x):
        variant, args, kwargs, _ = x
        if variant == schemes.PAIR_HERALD:
            return schemes.run_pair_herald_scheme(*args, **kwargs)
        if variant == schemes.FILTER_SPLIT:
            return schemes.run_filter_split_scheme(*args, **kwargs)
        return schemes.run_scheme(*args)

    def size(self, x) -> int:
        return 1

    def check(self, x, result) -> int:
        variant, args, _, expected = x
        if expected is None:
            cfg = args[0]
            if isinstance(cfg.tpam, tpam.FwmTpamSpec):
                _, beta = fwm_alpha1_beta(cfg.tpam.params.length_multiple)
            else:
                beta = cfg.tpam.beta
            expected = main_ps(cfg.source.p, cfg.bs0.theta, beta, cfg.bs1.theta)
            if variant == schemes.DOUBLED:
                expected *= 2.0
        return int(not result_ok(result.p_success, result.fidelity, expected))


class VerifySuites:
    """``verify.paper_value_checks`` then ``verify.invariant_checks``; an op is
    one pass over both suites with its own suite seed.

    Chosen because it drives the same layers through other entry points:
    closed-form optimisation (``optimize_ps``, ``jf_length_scan``), the numpy
    ``unitarity_check`` and repeated ``fwm_conditioned_channel`` builds.
    """

    name = "verify-suites"
    rss_ops = 8
    warmup = 1
    trace_calls = 3

    #: The one check that fails at the seed commit, on purpose.
    EXPECTED_FAILURES = frozenset({"pair-herald-two-cycles"})
    EXPECTED_COUNTS = (17, 8)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def ops(self):
        while True:
            yield self.rng.randrange(2**31)

    def call(self, suite_seed):
        return verify.paper_value_checks(seed=suite_seed), verify.invariant_checks(seed=suite_seed)

    def size(self, suite_seed) -> int:
        return 1

    def check(self, suite_seed, out) -> int:
        paper, invariants = out
        failed = {c.name for c in paper + invariants if not c.passed}
        counts = (len(paper), len(invariants))
        return int(failed != self.EXPECTED_FAILURES or counts != self.EXPECTED_COUNTS)


class CliCold:
    """``photonherald run`` in a fresh interpreter; an op is one invocation.

    Chosen because it is the only workload that reaches ``cli`` (parsing,
    ``run_from_config``, the manifest) and pays cold import, which dominates
    the wall time of ``run``.  Invocations cycle through eight seeded inputs,
    two per scheme, so reruns of one input can be compared.
    """

    name = "cli-cold"
    rss_ops = 8
    warmup = 1
    trace_calls = 8

    ENTRY = "import sys; from photonherald.cli import main; sys.exit(main(prog_name='photonherald'))"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.inputs = [self._input(scheme) for scheme in ("main", "doubled", "pair-herald", "filter-split") for _ in range(2)]
        self.reference: dict[int, tuple[object, str]] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "FOCK_CUTOFF"}

    def _input(self, scheme: str):
        rng = self.rng
        p, theta0 = rng.uniform(0.2, 1.0), _theta0(rng)
        args = ["run", "--scheme", scheme, "--p", repr(p), "--theta0", repr(theta0)]
        if scheme == "pair-herald":
            length = rng.randint(1, 8)
            args += ["--tpam", f"jf:M={length},condition=(1,1)"]
            return args, pair_herald_ps(p, theta0, length)
        if scheme == "filter-split":
            length = rng.randint(0, 7) + 0.5
            args += ["--tpam", f"jf:M={length}"]
            return args, filter_split_ps(p, theta0, length)
        theta1 = _theta1(rng)
        if rng.random() < 0.5:
            beta = rng.uniform(0.0, 0.95) * _unit_phase(rng)
            alpha = math.sqrt(1.0 - abs(beta) ** 2) * rng.uniform(0.5, 1.0)
            spec = f"generic:alpha={alpha!r},beta={beta!r}"
        else:
            length = rng.randint(1, 8)
            _, beta = fwm_alpha1_beta(length)
            spec = f"jf:M={length},condition=(0,0)"
        args += ["--tpam", spec, "--theta1", repr(theta1)]
        expected = main_ps(p, theta0, beta, theta1) * (2.0 if scheme == "doubled" else 1.0)
        return args, expected

    def ops(self):
        order = list(range(len(self.inputs)))
        while True:
            self.rng.shuffle(order)
            yield from order

    def command(self, index: int, prefix: list[str]) -> list[str]:
        return [sys.executable, *prefix, *self.inputs[index][0]]

    def call(self, index: int, prefix: list[str] | None = None):
        cmd = self.command(index, prefix or ["-c", self.ENTRY])
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=60)

    def size(self, index: int) -> int:
        return 1

    def check(self, index: int, proc) -> int:
        if proc.returncode != 0:
            return 1
        manifest = json.loads(proc.stdout)
        result = manifest["result"]
        seen = (result, manifest["config_hash"])
        if self.reference.setdefault(index, seen) != seen:
            return 1
        return int(not result_ok(result["p_success"], result["fidelity"], self.inputs[index][1]))


WORKLOADS = {w.name: w for w in (SweepGrid, SchemeMix, VerifySuites, CliCold)}
