"""End-to-end heralded single-photon purification circuits.

Four executable circuits, all fed by the same imperfect source model
``rho = p|1><1| + (1-p)|0><0|`` on each input:

* ``main`` — two source copies meet at a front splitter (BS0), one output is
  discarded, the other enters a Mach-Zehnder interferometer (BS1, BS2) with a
  two-photon absorber in the internal arm.  A number-resolving detector on
  one interferometer output heralds; exactly one photon there announces a
  single photon in the other output.
* ``doubled`` — both front-splitter outputs are processed through identical
  interferometer+absorber stacks; a click in exactly one of the two
  detectors heralds.  Photon bunching at the front splitter makes the two
  heralds exclusive, doubling the success probability.
* ``pair-herald`` — the front-splitter output crosses a four-wave-mixing
  medium whose length is an integer number of single-photon cycles;
  detecting one photon in each generated field projects the two-photon
  component onto exactly one surviving pump photon.
* ``filter-split`` — a four-wave mixer of half-odd length converts any single
  photon away completely; conditioning the generated fields on vacuum leaves
  only the (attenuated) two-photon and vacuum components, which a balanced
  splitter plus a single-photon click then separates into a heralded photon.

Every stage after the front splitter is linear, so a run sends each input
photon-number sector through its circuit once, at unit norm: B holding n
photons, or for doubled each source product |a, b>, which its circuit
mixes at the front splitter first.  A run is two steps.  :func:`_sectors`,
the only code that runs stages, gives one row per sector: its photon
count n, weight w_n, weight over p^2 r_n, herald probability q_n, each
detector's share of q_n, and its heralded states, all at unit weight, so
no row holds p.  The fold, :func:`_interpret`, runs no stage: it weights
the rows, by w_n and by r_n, so p^2 is never formed and any p in [0, 1]
runs.  Each sector is one Kraus branch of the circuit, and the result is
their weighted sum.

Every run returns a :class:`SchemeResult` carrying the success probability,
the conditional (heralded) output state, its fidelity to ``|1>``, and a
per-input-photon-sector breakdown of where the probability came from.
Each herald above counts at least one photon, and no stage adds photons,
so the vacuum input can never herald: its row heralds nothing, and no
stage runs on it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

from .elements import BeamSplitterParams, _mixing_row, apply_beam_splitter
from .fock import (
    DEFAULT_CUTOFF,
    PRUNE_THRESHOLD,
    CutoffOverflowError,
    Ensemble,
    ModeRegister,
    PureState,
    fidelity_to_single_photon,
    fock_state,
    partial_trace_discard,
    project_number,
    relabel_modes,
    tensor,
    _check_number,
)
from .tpam import FwmParams, FwmTpamSpec, GenericTpam, apply_generic_tpam, fwm_evolve

__all__ = [
    "MAIN",
    "DOUBLED",
    "CIRCUIT_CUTOFF",
    "PAIR_HERALD",
    "FILTER_SPLIT",
    "VARIANTS",
    "DEFAULT_TPAM",
    "SourceSpec",
    "SchemeConfig",
    "SchemeResult",
    "Circuit",
    "build_circuit",
    "reduce_through_bs0",
    "run_main_scheme",
    "run_doubled_scheme",
    "run_pair_herald_scheme",
    "run_filter_split_scheme",
    "run_scheme",
]

MAIN = "main"
DOUBLED = "doubled"
PAIR_HERALD = "pair_herald"
FILTER_SPLIT = "filter_split"
VARIANTS = (MAIN, DOUBLED, PAIR_HERALD, FILTER_SPLIT)

#: The absorber of each variant, as the paper runs it and as a config that
#: names none gets: a fully absorbing generic medium in the interferometers;
#: for pair-herald a mixer of integer length whose generated fields must show
#: one photon each, for filter-split one of half-odd length whose fields must
#: stay empty.  A mixer scheme conditions its fields as its entry here does.
DEFAULT_TPAM = {
    MAIN: GenericTpam(1.0, 0.0),
    DOUBLED: GenericTpam(1.0, 0.0),
    PAIR_HERALD: FwmTpamSpec(FwmParams(2.0), (1, 1)),
    FILTER_SPLIT: FwmTpamSpec(FwmParams(1.5), (0, 0)),
}

#: Per-mode cutoff of every scheme circuit's registers.  Each of the two
#: sources emits at most one photon and no stage adds photons, so no mode
#: ever holds more than two, and every cutoff from 2 up gives the same
#: results.  A kernel that would put a third photon in a mode still raises
#: :class:`~photonherald.fock.CutoffOverflowError`.
CIRCUIT_CUTOFF = 2


@dataclass(frozen=True, slots=True)
class SourceSpec:
    """Single-photon source efficiency p: emits |1> with probability p, else vacuum.

    Any p in [0, 1] runs: each input sector runs at unit weight, and its
    weight, and that weight over p^2, are applied at the end.
    """

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_number("source efficiency p in [0, 1]", self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"source efficiency must lie in [0, 1], got {self.p}")


@dataclass(frozen=True, slots=True)
class SchemeConfig:
    """Full circuit configuration.

    ``bs0`` is the front splitter both source copies meet at; ``bs1``/``bs2``
    enclose the absorber arm in the interferometric variants.  Each holds
    only its angle and phase: :func:`build_circuit` names the modes it
    mixes.

    Raises:
        ValueError: for an unknown variant or an absorber the variant
            cannot run, so every config runs.
    """

    source: SourceSpec
    tpam: GenericTpam | FwmTpamSpec
    bs0: BeamSplitterParams = BeamSplitterParams.balanced()
    bs1: BeamSplitterParams = BeamSplitterParams.balanced()
    bs2: BeamSplitterParams = BeamSplitterParams.balanced()
    variant: str = MAIN

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown scheme variant {self.variant!r}; expected one of {VARIANTS}")
        _check_absorber(self)


@dataclass(frozen=True, slots=True)
class SchemeResult:
    """Outcome of one scheme run.

    Attributes:
        p_success: total heralding probability.
        conditional_state: heralded output ensemble (weights normalized to 1),
            or ``None`` when nothing heralds.
        fidelity: overlap of the conditional output with |1>; reported as 0.0
            when there is no conditional state.
        branch_log: contribution of each input photon-number sector to
            p_success; the values sum to p_success.
        details: scheme-specific diagnostics (per-detector probabilities,
            conventions, echoed parameters).
    """

    p_success: float
    conditional_state: Ensemble | None
    fidelity: float
    branch_log: dict[int, float]
    details: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (deterministic ordering throughout)."""
        return {
            "p_success": self.p_success,
            "fidelity": self.fidelity,
            "branch_log": {str(k): self.branch_log[k] for k in sorted(self.branch_log)},
            "conditional_state": _ensemble_to_jsonable(self.conditional_state),
            "details": self.details,
        }


def _ensemble_to_jsonable(ens: Ensemble | None) -> dict[str, object] | None:
    if ens is None:
        return None
    branches = [
        {
            "weight": w,
            "terms": [
                {"occupations": list(ket.occupations), "medium": ket.medium, "re": amp.real, "im": amp.imag}
                for ket, amp in state.terms()
            ],
        }
        for w, state in ens.branches
    ]
    return {"modes": list(ens.register.labels), "branches": branches}


def reduce_through_bs0(
    p: float, theta0: float = math.pi / 4, phi0: float = 0.0, *, cutoff: int = DEFAULT_CUTOFF
) -> tuple[dict[int, float], dict[int, float]]:
    """Interfere two source copies at the front splitter and drop one output.

    Returns B's weight ``w_n`` of each photon number n, and ``w_n / p^2``:
    p_success is the sum of ``w_n q_n`` and p_success/p^2 the sum of
    ``(w_n / p^2) q_n``, where ``q_n`` is the herald probability of ``|n>``.
    At theta0 = pi/4 the weights are (p^2/2, p(1-p), p^2/2 - p + 1) on |2>,
    |1>, |0> — photon bunching pushes the one-photon weight down and the
    two-photon weight up, which is exactly what the absorber downstream feeds
    on.  This checks the inputs; :func:`_front_weights` does the arithmetic.

    The weights do not depend on ``cutoff``: it only has to hold the two
    photons that bunch at the splitter.  The keyword stays because the
    benchmark's tracer (``perfbench/tracer.py``) keys these calls on it by
    name; the circuits pass :data:`CIRCUIT_CUTOFF`.
    """
    source = SourceSpec(p)
    bs0 = BeamSplitterParams(theta0, phi0)
    ModeRegister(("A", "B"), cutoff)  # the register's rule: an int of at least 1
    if source.p and cutoff < 2:  # the product |1, 1> exists for every p > 0
        raise CutoffOverflowError(f"beam splitter on ('A', 'B') would exceed cutoff {cutoff} for ket |1,1;m0> (combined occupation 2)")
    return _front_weights(source.p, bs0.theta, bs0.phi)


def _products(p: float) -> list[tuple[int, int, float, float]]:
    """``(a, b, P_a P_b, P_a P_b / p^2)`` for each product |a, b> that two
    sources of checked efficiency ``p`` emit (P_1 = p, P_0 = 1 - p).

    The second weight takes P_0 / P_1 = (1 - p) / p, so p^2 is never formed:
    where p^2 underflows it keeps its bits, and it is infinite only where
    the true ratio is (at p = 0, or where (1 - p) / p overflows).
    """
    probability, over_p = (1.0 - p, p), ((1.0 - p) / p if p else math.inf, 1.0)
    emitted = [(a, b) for a in (1, 0) for b in (1, 0) if probability[a] and probability[b]]
    return [(a, b, probability[a] * probability[b], over_p[a] * over_p[b]) for a, b in emitted]


def _front_weights(p: float, theta0: float, phi0: float) -> tuple[dict[int, float], dict[int, float]]:
    """B's weight of each photon count once A is dropped, and that weight
    over p^2, for checked inputs.

    The splitter conserves photon number, so B's reduced state is diagonal:
    ``w_n`` sums ``P_a P_b |row_ab[n]|^2`` over the source products, read
    from the cached splitter rows, where an entry the splitter would prune
    from the unit ket |a, b> adds nothing.
    """
    weights: dict[int, float] = {}
    over_p2: dict[int, float] = {}
    for a, b, w, r in _products(p):
        for m1, coeff in _mixing_row(theta0, phi0, a, b):
            if abs(coeff) > PRUNE_THRESHOLD:
                n, square = a + b - m1, abs(coeff) ** 2
                weights[n] = weights.get(n, 0.0) + w * square
                over_p2[n] = over_p2.get(n, 0.0) + r * square
    return weights, over_p2


def _detect(state: PureState, counts: tuple[tuple[str, int], ...]) -> PureState:
    """The part of ``state`` that shows n photons in each ``(mode, n)`` of ``counts``."""
    for mode, n in counts:
        state, _ = project_number(state, mode, n)
    return state


def _evolve(state: PureState, stages) -> tuple[PureState, ...]:
    """``state`` after ``stages``; a closing trace splits it into the reduced state's branches."""
    for stage in stages:
        state = stage(state)
    return state.states if isinstance(state, Ensemble) else (state,)


class Circuit(NamedTuple):
    """A scheme as data, with no methods: its stages, its herald and its
    fixed details.  :func:`_sectors` runs it.

    Each stage is a call of one kernel with every argument but the state
    (a :func:`functools.partial`): a splitter, a tensor with vacuum modes
    (and a medium), an absorber, a mixer, a relabel or a detection.  Each
    maps one pure state to one pure state; an input sector runs through
    them as one state of unit norm, so the norm a detection removes is
    probability lost.  ``outcomes`` lists the herald's accepted outcomes,
    each ``(detector, counts, tail)``: the detector its probability is
    booked to, the counts it shows, and the stages run after it, of which
    only the last may be a trace, splitting the heralded state in branches.
    The herald probability sums over the outcomes.  ``report`` names the
    details entry listing each detector's share, and ``mirror`` adds an
    unmonitored output's click to it.
    """

    stages: tuple
    outcomes: tuple
    report: str | None
    mirror: str | None
    details: dict[str, object]


def _check_absorber(cfg: SchemeConfig) -> None:
    """The variant/absorber rule.  Main and doubled take a generic absorber or
    a mixer of positive integer length; pair-herald and filter-split need a
    mixer of integer or half-odd length, conditioned as their
    :data:`DEFAULT_TPAM` entry is."""
    tpam, variant, default = cfg.tpam, cfg.variant, DEFAULT_TPAM[cfg.variant]
    if isinstance(tpam, GenericTpam):
        if isinstance(default, FwmTpamSpec):
            raise ValueError(f"variant {variant!r} requires a four-wave-mixing TPAM")
        return
    length = tpam.params.length_multiple
    if variant == FILTER_SPLIT:
        fits, need = tpam.params.is_half_odd_length, "a half-odd length (k + 1/2): one photon converts"
    else:
        fits, need = tpam.params.is_integer_length and round(length) >= 1, "a positive integer length: one photon passes"
    if not fits:
        raise ValueError(f"variant {variant!r} needs a four-wave mixer of {need}; got length_multiple={length}")
    if isinstance(default, FwmTpamSpec) and tpam.condition != default.condition:
        raise ValueError(
            f"variant {variant!r} conditions the generated fields on {default.condition}; "
            f"the absorber spec asks for {tpam.condition}"
        )


@lru_cache(maxsize=64)
def _fock(labels: tuple[str, ...], occupations: tuple[int, ...], medium_dims: int = 1) -> PureState:
    """The basis state of ``occupations`` on ``labels`` at the circuits'
    cutoff, carrying a ground-state medium of ``medium_dims`` levels; an
    input sector or an attach stage's vacuum, built once per circuit shape."""
    return fock_state(ModeRegister(labels, CIRCUIT_CUTOFF, medium_dims), occupations)


def build_circuit(cfg: SchemeConfig) -> Circuit:
    """Describe the scheme of ``cfg`` as stages and a herald.

    A new circuit is one more branch here.  The circuit starts from B after
    the front splitter, or for doubled from the two sources on (A, B),
    which its first stage mixes.  The config's absorber suits its variant:
    :class:`SchemeConfig` checks that.  An interferometric variant attaches
    one excited medium level per absorber whatever the absorber; a
    conditioned mixer never excites it.  The stages look up their kernels
    on every call, so a kernel wrapped after import (to time it) is the one
    they run.
    """
    tpam, variant = cfg.tpam, cfg.variant

    def attach(*labels: str, medium_dims: int = 1) -> partial:
        return partial(tensor, b=_fock(labels, (0,) * len(labels), medium_dims))

    def split(bs: BeamSplitterParams, *modes: str) -> partial:
        return partial(apply_beam_splitter, modes=modes, params=bs)

    def interferometer(arm: str, partner: str, level: int = 1) -> tuple:
        """BS1 -> absorber on ``arm`` -> BS2."""
        if isinstance(tpam, GenericTpam):
            absorb = partial(apply_generic_tpam, mode=arm, tpam=tpam, excited_level=level)
        else:
            absorb = partial(tpam.apply, mode=arm)
        return (split(cfg.bs1, arm, partner), absorb, split(cfg.bs2, arm, partner))

    one_at_b = (("B", (("B", 1),), ()),)
    if variant == MAIN:
        return Circuit((attach("C", medium_dims=2), *interferometer("B", "C")), one_at_b, None, None, {})
    if variant == DOUBLED:
        # Exactly one of A and B sees one photon; that arm's output becomes C.
        # At most two photons enter, so the other detector then sees none:
        # (A, B) = (0, 1) and (1, 0) are the only outcomes that can herald.
        one_click = (
            ("B", (("A", 0), ("B", 1)), (partial(relabel_modes, mapping={"CB": "C"}), partial(partial_trace_discard, mode="CA"))),
            ("A", (("A", 1), ("B", 0)), (partial(relabel_modes, mapping={"CA": "C"}), partial(partial_trace_discard, mode="CB"))),
        )
        stages = (
            split(cfg.bs0, "A", "B"),
            attach("CA", "CB", medium_dims=3),
            *interferometer("A", "CA", 1),
            *interferometer("B", "CB", 2),
        )
        return Circuit(stages, one_click, "clicks_by_detector", None, {})
    n1, n2 = tpam.condition
    generated = (("E1", n1), ("E2", n2))
    mixer = (attach("E1", "E2"), partial(fwm_evolve, modes=("B", "E1", "E2"), params=tpam.params))
    details = {"length_multiple": tpam.params.length_multiple, "condition": [n1, n2]}
    if variant == PAIR_HERALD:
        return Circuit(mixer, (("E1", generated, ()),), None, None, details | {"output_mode": "B"})
    stages = (*mixer, partial(_detect, counts=generated), attach("C"), split(BeamSplitterParams.balanced(), "B", "C"))
    details |= {
        "monitored_output": "B",
        "output_mode": "C",
        "click_probability_by_output": None,  # filled in by the run
        "herald_convention": (
            "exactly one photon at the monitored output; the two outputs flag "
            "the same pair event, so only one is counted"
        ),
    }
    return Circuit(stages, one_at_b, "click_probability_by_output", "C", details)


def _inputs(cfg: SchemeConfig) -> list[tuple[int, float, float, PureState]]:
    """Each input sector of ``cfg``'s circuit at unit norm: (photon count,
    weight, weight over p^2, state).  B holds n photons with the front
    splitter's weights; for doubled, the sources emit |a, b> on (A, B)."""
    if cfg.variant == DOUBLED:
        return [(a + b, w, r, _fock(("A", "B"), (a, b))) for a, b, w, r in _products(cfg.source.p)]
    weights, over_p2 = reduce_through_bs0(cfg.source.p, cfg.bs0.theta, cfg.bs0.phi, cutoff=CIRCUIT_CUTOFF)
    return [(n, w, over_p2[n], _fock(("B",), (n,))) for n, w in weights.items()]


class _Sector(NamedTuple):
    """One input sector of a run, at unit weight: its photon count ``n``,
    weight ``w`` (w_n), weight over p^2 ``r`` (r_n), herald probability
    ``q`` (q_n), each herald detector's share of q_n and the mirror's click
    (``clicks``), and the heralded states (``states``)."""

    n: int
    w: float
    r: float
    q: float
    clicks: dict[str, float]
    states: list[PureState]


def _sectors(circuit: Circuit, inputs: Iterable[tuple[int, float, float, PureState]]) -> Iterator[_Sector]:
    """One row per input sector ``(n, w, r, state)`` of ``inputs``, each
    run through ``circuit`` at unit norm.

    Every stage after the front splitter is linear, so q_n and the
    heralded states do not depend on p.  No stage adds photons, so a herald
    whose every outcome counts a photon cannot fire on the vacuum sector:
    its row heralds nothing, and no stage runs on it.  A herald with an
    all-zero outcome runs it.
    """
    vacuum_heralds = any(not any(n for _, n in counts) for _, counts, _ in circuit.outcomes)
    detectors = sorted({detector for detector, _, _ in circuit.outcomes} | {circuit.mirror} - {None})
    for n, w, r, state in inputs:
        q, clicks, states = 0.0, dict.fromkeys(detectors, 0.0), []
        if n or vacuum_heralds:
            (pre,) = _evolve(state, circuit.stages)
            for detector, counts, tail in circuit.outcomes:
                detected = _detect(pre, counts)
                share = detected.squared_norm()
                clicks[detector] += share
                q += share
                if share > 0.0:
                    states.extend(_evolve(detected, tail))
            if circuit.mirror:
                clicks[circuit.mirror] += _detect(pre, ((circuit.mirror, 1),)).squared_norm()
        yield _Sector(n, w, r, q, clicks, states)


def _interpret(cfg: SchemeConfig) -> SchemeResult:
    """The fold of the :func:`_sectors` rows of ``cfg``'s circuit into its
    result; it runs no stage.

    p_success sums ``w_n q_n`` and p_success/p^2 sums ``r_n q_n`` over the
    rows that herald (an overflowing r_n times 0 would be NaN);
    ``branch_log``, and the click table of a circuit that reports one, take
    the weights ``w_n``.  The
    heralded states are weighted relative to the heralding row of largest
    r_n, so no amplitude over- or underflows, and a run whose p_success
    underflows still reports its state.
    """
    circuit = build_circuit(cfg)
    rows = list(_sectors(circuit, _inputs(cfg)))
    heralds = [row for row in rows if row.q > 0.0]
    p_success = over_p2 = 0.0
    branch_log: dict[int, float] = {}
    for row in rows:
        branch_log[row.n] = branch_log.get(row.n, 0.0) + row.w * row.q
        p_success += row.w * row.q
    for row in heralds:
        over_p2 += row.r * row.q
    details = dict(circuit.details)
    if circuit.report:
        clicks = details[circuit.report] = {}
        for row in rows:
            for detector, share in row.clicks.items():
                clicks[detector] = clicks.get(detector, 0.0) + row.w * share
    conditional: Ensemble | None = None
    fidelity = 0.0
    if heralds:
        top = max(row.r for row in heralds)
        kept = [state if row.r == top else state.scaled(math.sqrt(row.r / top)) for row in heralds for state in row.states]
        conditional = Ensemble(kept[-1].register, kept).normalized_weights().consolidated()
        fidelity = fidelity_to_single_photon(conditional)
    details |= {"p": cfg.source.p, "p_success_over_p2": over_p2 if cfg.source.p > 0 else None, "variant": cfg.variant}
    return SchemeResult(p_success, conditional, fidelity, branch_log, details)


def run_main_scheme(cfg: SchemeConfig) -> SchemeResult:
    """Front splitter -> trace -> Mach-Zehnder with absorber -> herald.

    The detector watches the interferometer output that shares a label with
    the absorber arm (mode B); exactly one photon there heralds, and the
    conditional output lives in mode C.  With both interferometer splitters
    balanced and a generic absorber the success probability is
    ``|1-beta|^2 p^2 / 16``.
    """
    if cfg.variant != MAIN:
        raise ValueError(f"run_main_scheme needs variant={MAIN!r}, got {cfg.variant!r}")
    return _interpret(cfg)


def run_doubled_scheme(cfg: SchemeConfig) -> SchemeResult:
    """Process both front-splitter outputs; herald on exactly one click.

    Each output feeds its own interferometer+absorber stack (independent
    media, tracked as distinct excited levels of one shared medium register).
    Bunching at the front splitter never puts one photon in each stack, so a
    lone photon cannot click anywhere on the null manifold and the two
    heralds are mutually exclusive: the success probability is exactly twice
    the main scheme's.  The heralded mode is relabeled ``C`` whichever arm
    produced it.
    """
    if cfg.variant != DOUBLED:
        raise ValueError(f"run_doubled_scheme needs variant={DOUBLED!r}, got {cfg.variant!r}")
    return _interpret(cfg)


def run_pair_herald_scheme(
    p: float,
    length_multiple: float,
    *,
    pump_phase: float = 0.0,
    theta0: float = math.pi / 4,
    phi0: float = 0.0,
) -> SchemeResult:
    """Herald on the photon pair generated by converting the two-photon part.

    The front-splitter output crosses a four-wave mixer of integer length (a
    whole number of single-photon cycles, so a lone photon re-emerges and
    keeps its generated fields empty); detecting exactly one photon in each
    generated field can then only come from the two-photon component's
    single-conversion branch, leaving exactly one pump photon behind.
    p_success = p^2 |alpha1|^2 / 2 at a balanced front splitter.
    """
    tpam = FwmTpamSpec(FwmParams(length_multiple, pump_phase), DEFAULT_TPAM[PAIR_HERALD].condition)
    bs0 = BeamSplitterParams(theta0, phi0)
    return _interpret(SchemeConfig(SourceSpec(p), tpam, bs0, variant=PAIR_HERALD))


def run_filter_split_scheme(
    p: float,
    length_multiple: float,
    *,
    pump_phase: float = 0.0,
    theta0: float = math.pi / 4,
    phi0: float = 0.0,
) -> SchemeResult:
    """Filter out the one-photon component, then split and herald.

    At half-odd length a single photon converts completely into the
    generated pair, so conditioning the generated fields on vacuum removes
    the one-photon component and attenuates the two-photon one by beta.  A
    balanced splitter against a fresh vacuum mode then sends the surviving
    pair into |1,1> half the time; exactly one photon at the monitored
    output heralds the twin photon in the other.  p_success = p^2|beta|^2/4.

    The |1,1> herald event is symmetric between the two splitter outputs:
    monitoring either one flags the same event with the same probability, so
    per-output probabilities are reported in ``details`` and only the
    monitored output counts toward p_success (summing both would
    double-count).
    """
    tpam = FwmTpamSpec(FwmParams(length_multiple, pump_phase), DEFAULT_TPAM[FILTER_SPLIT].condition)
    bs0 = BeamSplitterParams(theta0, phi0)
    return _interpret(SchemeConfig(SourceSpec(p), tpam, bs0, variant=FILTER_SPLIT))


def run_scheme(cfg: SchemeConfig) -> SchemeResult:
    """Run any :class:`SchemeConfig`.

    Main and doubled go through their named runners, so that timings taken
    per runner cover every run of those schemes.
    """
    if cfg.variant == MAIN:
        return run_main_scheme(cfg)
    if cfg.variant == DOUBLED:
        return run_doubled_scheme(cfg)
    return _interpret(cfg)
