"""Ensemble-path views of the scheme circuits for the dense-oracle comparison tests.

Each function builds a :class:`SchemeConfig` and runs each input sector,
at its weight, through the package's own circuit up to its herald detectors
(:meth:`Circuit.prepare`), then reads the detector distributions from the
ensemble of those branches, so the sparse ensemble machinery
and the dense density-matrix oracle can be compared outcome by outcome — not
just on the heralding probability that the ``run_*`` entry points report.

An absorber given as ``None`` (both generic coefficients, or the mixer
length) leaves the config without one, so the scheme runs the absorber of its
``DEFAULT_TPAM`` entry.

Each mirror takes a ``cutoff``: it moves the circuit's input states and the
vacuum modes its tensor stages attach onto registers at that cutoff, where
the package holds them at ``CIRCUIT_CUTOFF``, so a mirror at a larger cutoff
sees any photon that bound would cut.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from photonherald import (
    DOUBLED,
    FILTER_SPLIT,
    PAIR_HERALD,
    Ensemble,
    FwmParams,
    FwmTpamSpec,
    GenericTpam,
    ModeRegister,
    PureState,
    build_circuit,
    manifold_config,
    project_number,
    tensor,
)
from photonherald import schemes


class Inputs(NamedTuple):
    """The input sectors of a run, each at unit norm, and their weights."""

    weights: tuple[float, ...]
    states: tuple


def inputs_of(cfg):
    """The input sectors a run of ``cfg`` starts from, at unit norm, with
    their weights: B holding n photons after the front splitter, or for
    doubled each source product |a, b> on (A, B), which the circuit's first
    stage mixes."""
    sectors = schemes._inputs(cfg)
    return Inputs(tuple(w for _, w, _, _ in sectors), tuple(state for *_, state in sectors))


def weighted(inputs):
    """Each input state of ``inputs`` scaled to its weight: the mixture a run stands for."""
    return [state.scaled(math.sqrt(w)) for w, state in zip(*inputs)]


def prepared(circuit, states):
    """The ensemble of ``states``, each run through every stage of ``circuit`` before its herald."""
    branches = [circuit.prepare(state) for state in states]
    return Ensemble(branches[0].register, branches)


def number_distribution(ens, mode: str) -> dict[int, float]:
    """Probability of each photon count in ``mode`` over the branches of
    ``ens``, by branch weight, summed in the order the branches hold their
    kets."""
    dist: dict[int, float] = {}
    i = ens.register.index(mode)
    for state in ens.states:
        for ket, amp in state._amps.items():
            n = ket.occupations[i]
            dist[n] = dist.get(n, 0.0) + abs(amp) ** 2
    return dist


def condition_on(ens, mode: str, n: int):
    """Every branch of ``ens`` conditioned on ``n`` photons in ``mode``: the
    surviving ensemble (measured mode dropped) and its total weight, the
    joint probability of the outcome."""
    kept = Ensemble(ens.register.without(mode), [project_number(state, mode, n)[0] for state in ens.states])
    return kept, sum(state.squared_norm() for state in kept.states)


def _normalized(dist: dict[int, float], total: float) -> dict[int, float]:
    if total <= 0.0:
        return {}
    return {n: v / total for n, v in dist.items()}


def _generic(alpha, beta):
    return None if alpha is None and beta is None else GenericTpam(alpha, beta)


def _mixer(length_multiple, pump_phase, condition):
    return None if length_multiple is None else FwmTpamSpec(FwmParams(length_multiple, pump_phase), condition)


def _at_cutoff(state, cutoff: int):
    """``state`` on a register of the same modes and medium at ``cutoff``."""
    register = state.register
    return PureState(ModeRegister(register.labels, cutoff, register.medium_dims), dict(state.terms()))


def _before_herald(p, tpam, *, theta0, cutoff, **splitters):
    cfg = manifold_config(p=p, tpam=tpam, theta0=theta0, **splitters)
    circuit = build_circuit(cfg)
    stages = tuple(
        partial(tensor, b=_at_cutoff(stage.keywords["b"], cutoff)) if stage.func is tensor else stage for stage in circuit.stages
    )
    weights, states = inputs_of(cfg)
    return prepared(circuit._replace(stages=stages), weighted((weights, [_at_cutoff(state, cutoff) for state in states])))


def _click(ens, detector: str, output: str) -> dict[str, object]:
    conditioned, p_success = condition_on(ens, detector, 1)
    return {
        "detector": number_distribution(ens, detector),
        "p_success": p_success,
        "conditional": _normalized(number_distribution(conditioned, output), p_success),
    }


def _joint(ens, first: str, second: str, cutoff: int) -> dict[tuple[int, int], float]:
    joint: dict[tuple[int, int], float] = {}
    for n_1 in range(cutoff + 1):
        ens_1, _ = condition_on(ens, first, n_1)
        for n_2 in range(cutoff + 1):
            joint[(n_1, n_2)] = condition_on(ens_1, second, n_2)[1]
    return joint


def ensemble_main_generic(
    p: float,
    alpha: complex | None,
    beta: complex | None,
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    ens = _before_herald(
        p, _generic(alpha, beta), theta0=theta0, cutoff=cutoff,
        theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2,
    )
    return _click(ens, "B", "C")


def ensemble_main_fwm(
    p: float,
    length_multiple: float,
    condition: tuple[int, int],
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    pump_phase: float = 0.0,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    ens = _before_herald(
        p, _mixer(length_multiple, pump_phase, condition), theta0=theta0, cutoff=cutoff,
        theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2,
    )
    return _click(ens, "B", "C")


def ensemble_doubled_generic(
    p: float,
    alpha: complex | None,
    beta: complex | None,
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
    *,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    ens = _before_herald(
        p, _generic(alpha, beta), theta0=theta0, cutoff=cutoff, variant=DOUBLED,
        theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2,
    )
    joint = _joint(ens, "A", "B", cutoff)
    p_success = sum(q for (n_a, n_b), q in joint.items() if (n_a == 1) != (n_b == 1))
    return {"joint": joint, "p_success": p_success}


def ensemble_pair_herald(
    p: float,
    length_multiple: float | None,
    *,
    pump_phase: float = 0.0,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    tpam = _mixer(length_multiple, pump_phase, (1, 1))
    ens = _before_herald(p, tpam, theta0=theta0, cutoff=cutoff, variant=PAIR_HERALD)
    heralded, _ = condition_on(ens, "E1", 1)
    heralded, p_success = condition_on(heralded, "E2", 1)
    return {
        "joint": _joint(ens, "E1", "E2", cutoff),
        "p_success": p_success,
        "conditional": _normalized(number_distribution(heralded, "B"), p_success),
    }


def ensemble_filter_split(
    p: float,
    length_multiple: float | None,
    *,
    pump_phase: float = 0.0,
    theta0: float = math.pi / 4,
    cutoff: int = 4,
) -> dict[str, object]:
    tpam = _mixer(length_multiple, pump_phase, (0, 0))
    ens = _before_herald(p, tpam, theta0=theta0, cutoff=cutoff, variant=FILTER_SPLIT)
    return _click(ens, "B", "C")
