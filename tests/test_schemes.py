"""End-to-end heralding circuits and their closed-form benchmark points."""

import cmath
import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ensemble_mirrors as em
from photonherald import (
    CIRCUIT_CUTOFF,
    DEFAULT_TPAM,
    DOUBLED,
    FILTER_SPLIT,
    MAIN,
    PAIR_HERALD,
    VARIANTS,
    BeamSplitterParams,
    CutoffOverflowError,
    Ensemble,
    FockKet,
    FwmParams,
    FwmTpamSpec,
    GenericTpam,
    ModeRegister,
    SchemeConfig,
    SourceSpec,
    SweepSpec,
    apply_beam_splitter,
    apply_creation,
    build_circuit,
    fock_state,
    jf_length_scan,
    manifold_config,
    reduce_through_bs0,
    run_doubled_scheme,
    run_filter_split_scheme,
    run_main_scheme,
    run_pair_herald_scheme,
    run_scheme,
    sweep_rows,
    unitarity_check,
)
from photonherald import schemes
from photonherald.verify import invariant_checks

# simulator benchmarks, frozen from independently computed closed forms
PS_MAIN_FWM_ONE_CYCLE = 0.03633821830004222
PS_PAIR_HERALD_TWO_CYCLES = 0.16250507576175685
PS_FILTER_SPLIT_THREE_HALVES = 0.22910708682504716

FULL_ABSORBER = GenericTpam(alpha=1.0, beta=0.0)
PHASE_FLIP = GenericTpam(alpha=0.0, beta=-1.0)


def main_config(p=1.0, tpam=FULL_ABSORBER, theta1=math.pi / 4, theta2=None, variant=MAIN):
    theta2 = math.pi / 2 - theta1 if theta2 is None else theta2
    return SchemeConfig(
        source=SourceSpec(p),
        tpam=tpam,
        bs1=BeamSplitterParams(theta1),
        bs2=BeamSplitterParams(theta2),
        variant=variant,
    )


# ---------------------------------------------------------------------------
# source and front splitter


@pytest.mark.parametrize("p", [0.25, 0.6, 0.86, 1.0])
def test_front_splitter_bunching_weights(p):
    dist, _ = reduce_through_bs0(p)
    assert dist.get(2, 0.0) == pytest.approx(p * p / 2.0, abs=1e-12)
    assert dist.get(1, 0.0) == pytest.approx(p * (1.0 - p), abs=1e-12)
    assert dist.get(0, 0.0) == pytest.approx(p * p / 2.0 - p + 1.0, abs=1e-12)


def test_front_splitter_transparent_at_zero_angle():
    p = 0.7
    dist, _ = reduce_through_bs0(p, 0.0)
    assert dist.get(2, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.get(1, 0.0) == pytest.approx(p, abs=1e-12)
    assert dist.get(0, 0.0) == pytest.approx(1.0 - p, abs=1e-12)


def test_front_splitter_unit_sources_bunch_completely():
    dist, over_p2 = reduce_through_bs0(1.0)
    assert dist.get(1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.get(0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert dist.get(2, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert over_p2 == dist


def test_doubled_runs_each_source_product_through_the_front_splitter():
    cfg = manifold_config(p=0.6, variant=DOUBLED)
    inputs = em.inputs_of(cfg)
    assert [[ket.occupations for ket, _ in state.terms()] for state in inputs.states] == [[(1, 1)], [(1, 0)], [(0, 1)], [(0, 0)]]
    assert inputs.weights == (0.36, 0.6 * 0.4, 0.6 * 0.4, 0.4 * 0.4)
    front = build_circuit(cfg).stages[0]
    assert (front.func, front.keywords) == (apply_beam_splitter, {"modes": ("A", "B"), "params": cfg.bs0})


def test_front_splitter_overflows_a_cutoff_of_one_only_when_photons_can_bunch():
    # Any p > 0 feeds the product |1, 1>, whose two photons a cutoff of 1 cannot hold.
    with pytest.raises(schemes.CutoffOverflowError, match=r"cutoff 1 for ket \|1,1;m0>"):
        reduce_through_bs0(5e-324, cutoff=1)
    assert reduce_through_bs0(0.0, cutoff=1) == ({0: 1.0}, {0: math.inf})


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1.0, 1e-200, 5e-324]) | st.floats(-323.0, 0.0).map(lambda e: 10.0**e),
    theta0=st.floats(-2 * math.pi, 2 * math.pi),
    phi0=st.floats(-2 * math.pi, 2 * math.pi),
    cutoff=st.integers(2, 5),
)
@example(p=1.5e-154, theta0=1.0, phi0=0.0, cutoff=2)
@example(p=1e-200, theta0=1e-12, phi0=0.0, cutoff=2)
def test_front_splitter_matches_composed_elements(p, theta0, phi0, cutoff):
    # The reduction written out from generic ops: each source product
    # |a, b> at unit norm through the splitter, B's distribution once A is
    # dropped, weighted by P_a P_b and by P_a P_b / p^2 (P_1 = p, P_0 = 1 - p),
    # summed over the products.  The reduction reads the splitter rows
    # itself, so this holds its arithmetic, pruning and sums to
    # apply_beam_splitter's and em.number_distribution's, bit for bit.
    register = ModeRegister(("A", "B"), cutoff)
    bs0 = BeamSplitterParams(theta0, phi0)
    source = {1: p, 0: 1.0 - p}
    want: tuple[dict, dict] = ({}, {})
    for a in (1, 0):
        for b in (1, 0):
            if source[a] and source[b]:
                split = apply_beam_splitter(fock_state(register, (a, b)), ("A", "B"), bs0)
                for n, q in em.number_distribution(Ensemble(register, (split,)), "B").items():
                    for sums, w in zip(want, (source[a] * source[b], source[a] / p * (source[b] / p))):
                        sums[n] = sums.get(n, 0.0) + w * q
    got = reduce_through_bs0(p, theta0, phi0, cutoff=cutoff)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("theta0", [1e-9, math.pi / 2 - 1e-9])
@pytest.mark.parametrize("p", [1e-150, 1.5e-154, 1e-200, 5e-324])
def test_front_splitter_weights_stay_finite_and_sum_to_one_for_weak_sources(p, theta0):
    # The one-photon weight is about p, the two-photon weight about p^2
    # theta0^2, a subnormal or 0; the weights over p^2 stay finite while
    # ((1 - p) / p)^2, the vacuum's, does.
    weights, over_p2 = reduce_through_bs0(p, theta0)
    assert math.fsum(weights.values()) == pytest.approx(1.0, rel=0.0, abs=1e-15)
    assert all(math.isfinite(w) for w in weights.values())
    assert math.isfinite(over_p2[2]) and over_p2[2] > 0.0
    assert all(math.isfinite(r) for r in over_p2.values()) == (p > 1e-154)


def _recording_evolve(monkeypatch):
    """Make ``schemes._evolve`` record every state it receives: each input
    branch a run sends through its circuit, and each heralded state it
    sends through a herald tail."""
    seen, evolve = [], schemes._evolve

    def recording(state, stages):
        seen.append(state)
        return evolve(state, stages)

    monkeypatch.setattr(schemes, "_evolve", recording)
    return seen


def _photons(state):
    return {sum(ket.occupations) for ket, _ in state.terms()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_vacuum_branch_is_booked_but_never_prepared(variant, monkeypatch):
    # Every herald here counts a photon, which the vacuum input cannot show:
    # its branch is booked as 0.0 without running the circuit.
    seen = _recording_evolve(monkeypatch)
    result = run_scheme(SchemeConfig(SourceSpec(0.6), DEFAULT_TPAM[variant], variant=variant))
    assert seen and all(0 not in _photons(state) for state in seen)
    assert sorted(result.branch_log) == [0, 1, 2]
    assert result.branch_log[0] == 0.0
    assert result.p_success > 0.0


def test_a_herald_on_vacuum_runs_the_vacuum_branch(monkeypatch):
    # A herald with an all-zero outcome can fire on the vacuum input, so that
    # branch runs and carries weight: here main, heralding no photon in B.
    def zero_click(cfg):
        circuit = build_circuit(cfg)
        return circuit._replace(outcomes=(("B", (("B", 0),), ()),))

    monkeypatch.setattr(schemes, "build_circuit", zero_click)
    seen = _recording_evolve(monkeypatch)
    result = run_scheme(SchemeConfig(SourceSpec(0.6), FULL_ABSORBER))
    assert any(_photons(state) == {0} for state in seen)
    # all of B's vacuum weight p^2/2 - p + 1 shows B = 0
    assert result.branch_log[0] == pytest.approx(0.6 * 0.6 / 2 - 0.6 + 1, rel=1e-12)


def test_the_worked_case_rows_and_their_fold():
    # Main at theta1 = 30 deg, beta = 0, p = 1: B holds two photons or none,
    # each with weight 1/2.  The two-photon sector heralds with
    # 2 cos^6 sin^2 = 27/128; the vacuum heralds nothing, and no stage runs
    # on it.  The fold's p_success is the sum of w q, 27/256.
    cfg = manifold_config(math.pi / 6, p=1.0, tpam=GenericTpam.unitary(0.0))
    circuit = build_circuit(cfg)
    fed = []
    first, *rest = circuit.stages

    def recording(state):
        fed.append(state)
        return first(state)

    rows = list(schemes._sectors(circuit._replace(stages=(recording, *rest)), schemes._inputs(cfg)))
    by_n = {row.n: row for row in rows}
    assert sorted(by_n) == [0, 2] and len(rows) == 2
    assert by_n[2].w == pytest.approx(0.5, rel=0.0, abs=1e-15)
    assert by_n[2].q == pytest.approx(27 / 128, rel=0.0, abs=1e-15)
    assert by_n[0].q == 0.0 and by_n[0].states == [] and not any(by_n[0].clicks.values())
    assert [_photons(state) for state in fed] == [{2}]
    total = 0.0
    for row in rows:
        total += row.w * row.q
    assert total == pytest.approx(27 / 256, rel=0.0, abs=1e-15)
    assert run_main_scheme(cfg).p_success == total
    # On the balanced null manifold a lone photon never clicks.
    balanced = manifold_config(math.pi / 4, p=0.5)
    (one,) = [row for row in schemes._sectors(build_circuit(balanced), schemes._inputs(balanced)) if row.n == 1]
    assert one.w > 0.0 and one.q == 0.0 and one.states == []


@pytest.mark.parametrize("variant", [MAIN, DOUBLED])
def test_heralded_state_is_normalized_when_p_success_is_subnormal(variant):
    # p_success is about 1e-320, a subnormal with a few significant bits, so
    # dividing by its square root would leave the heralded state off norm 1.
    result = run_scheme(manifold_config(p=1e-150, theta0=1e-9, tpam=GenericTpam(0.6, 0.8), variant=variant))
    assert 0.0 < result.p_success < sys.float_info.min
    branches = result.to_dict()["conditional_state"]["branches"]
    assert sum(branch["weight"] for branch in branches) == pytest.approx(1.0, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# main interferometric scheme


def test_main_balanced_full_absorber():
    result = run_main_scheme(main_config())
    assert result.p_success == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_main_transparent_absorber_never_fires():
    result = run_main_scheme(main_config(tpam=GenericTpam(alpha=0.0, beta=1.0)))
    assert result.p_success == pytest.approx(0.0, abs=1e-12)
    assert result.conditional_state is None
    assert result.fidelity == 0.0


def test_main_phase_flip_at_optimal_angles():
    result = run_main_scheme(main_config(tpam=PHASE_FLIP, theta1=math.pi / 6))
    assert result.p_success == pytest.approx(27.0 / 64.0, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_main_success_scales_with_p_squared():
    for p in (0.3, 0.8):
        result = run_main_scheme(main_config(p=p))
        assert result.p_success == pytest.approx(p * p / 16.0, abs=1e-12)


def test_main_dead_source_never_heralds():
    result = run_main_scheme(main_config(p=0.0))
    assert result.p_success == 0.0
    assert result.conditional_state is None


def test_main_only_two_photon_sector_contributes_on_null_manifold():
    result = run_main_scheme(main_config(p=0.6))
    assert result.branch_log.get(2, 0.0) == pytest.approx(result.p_success, abs=1e-12)
    assert result.branch_log.get(1, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert result.branch_log.get(0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert sum(result.branch_log.values()) == pytest.approx(result.p_success, abs=1e-12)


def test_main_off_manifold_single_photon_leaks():
    # detune the second splitter: a lone photon can now reach the detector,
    # so the one-photon sector contributes and the fidelity drops below 1
    result = run_main_scheme(main_config(p=0.6, theta1=math.pi / 6, theta2=1.1))
    assert result.branch_log.get(1, 0.0) > 1e-6
    assert result.fidelity < 1.0


def test_lone_photon_herald_read_by_verify_is_zero_only_on_the_null_manifold():
    # verify's single-photon-null check: the one-photon branch's herald over
    # its weight p(1 - p) = 1/4; a detuned second splitter must show in it
    def lone(**kwargs):
        return run_main_scheme(manifold_config(p=0.5, **kwargs)).branch_log[1] / 0.25

    assert lone() == 0.0
    assert lone(theta2=0.3) > 1e-3


def test_main_with_fwm_absorber_one_cycle():
    cfg = main_config(
        p=1.0, tpam=FwmTpamSpec(FwmParams(1), condition=(0, 0)), theta1=math.pi / 6
    )
    result = run_main_scheme(cfg)
    assert result.p_success == pytest.approx(PS_MAIN_FWM_ONE_CYCLE, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_main_rejects_half_odd_fwm():
    with pytest.raises(ValueError):
        main_config(tpam=FwmTpamSpec(FwmParams(1.5)))


def test_main_rejects_wrong_variant():
    with pytest.raises(ValueError):
        run_main_scheme(main_config(variant=DOUBLED))


@pytest.mark.parametrize("variant", VARIANTS)
def test_circuits_hold_every_mode_at_two_photons(variant):
    # Two single-photon sources put at most two photons in a mode, so every
    # register a run builds holds two, and a third photon still raises.
    cfg = manifold_config(variant=variant)
    with pytest.raises(TypeError):
        dataclasses.replace(cfg, cutoff=4)
    circuit = build_circuit(cfg)
    for n, _, _, state in schemes._inputs(cfg):
        (prepared,) = schemes._evolve(state, circuit.stages)
        assert state.register.cutoff == prepared.register.cutoff == CIRCUIT_CUTOFF == 2
        if n == 2 and variant != DOUBLED:
            with pytest.raises(CutoffOverflowError):
                apply_creation(state, "B")
    assert run_scheme(cfg).conditional_state.register.cutoff == CIRCUIT_CUTOFF


CUTOFF_FREE_ENTRY_POINTS = {
    "SchemeConfig": lambda cutoff: SchemeConfig(SourceSpec(1.0), FULL_ABSORBER, cutoff=cutoff),
    "manifold_config": lambda cutoff: manifold_config(cutoff=cutoff),
    "run_pair_herald_scheme": lambda cutoff: run_pair_herald_scheme(1.0, 2.0, cutoff=cutoff),
    "run_filter_split_scheme": lambda cutoff: run_filter_split_scheme(1.0, 1.5, cutoff=cutoff),
    "sweep_rows": lambda cutoff: sweep_rows(SweepSpec(theta1=(0.5,)), cutoff=cutoff),
    "invariant_checks": lambda cutoff: invariant_checks(cutoff=cutoff),
    "unitarity_check": lambda cutoff: unitarity_check(BeamSplitterParams.balanced(), cutoff=cutoff),
}


@pytest.mark.parametrize("entry", CUTOFF_FREE_ENTRY_POINTS)
def test_no_entry_point_takes_a_cutoff(entry):
    # a cutoff changes no result and the invariant checks hold their own
    # bound, so no entry point accepts one, not even the circuits' own bound
    with pytest.raises(TypeError, match="cutoff"):
        CUTOFF_FREE_ENTRY_POINTS[entry](CIRCUIT_CUTOFF)


# ---------------------------------------------------------------------------
# doubled scheme


def test_doubled_is_exactly_twice_main():
    for p, tpam, theta1 in [
        (1.0, FULL_ABSORBER, math.pi / 4),
        (0.7, PHASE_FLIP, math.pi / 6),
        (0.5, GenericTpam(alpha=0.6, beta=0.48 + 0.64j), 0.9),
    ]:
        single = run_main_scheme(main_config(p=p, tpam=tpam, theta1=theta1))
        double = run_doubled_scheme(main_config(p=p, tpam=tpam, theta1=theta1, variant=DOUBLED))
        assert double.p_success == pytest.approx(2.0 * single.p_success, abs=1e-12)


def test_doubled_phase_flip_peak():
    result = run_doubled_scheme(
        main_config(tpam=PHASE_FLIP, theta1=math.pi / 6, variant=DOUBLED)
    )
    assert result.p_success == pytest.approx(0.84375, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_doubled_p_scaling_with_phase_flip():
    p = 0.7
    result = run_doubled_scheme(
        main_config(p=p, tpam=PHASE_FLIP, theta1=math.pi / 6, variant=DOUBLED)
    )
    assert result.p_success == pytest.approx(0.84375 * p * p, abs=1e-12)


def test_doubled_detectors_fire_symmetrically():
    result = run_doubled_scheme(main_config(p=0.8, variant=DOUBLED))
    clicks = result.details["clicks_by_detector"]
    assert clicks["A"] == pytest.approx(clicks["B"], abs=1e-12)
    assert clicks["A"] + clicks["B"] == pytest.approx(result.p_success, abs=1e-12)


def test_doubled_output_is_single_mode_c():
    result = run_doubled_scheme(main_config(variant=DOUBLED))
    assert result.conditional_state.register.labels == ("C",)


DOUBLED_HERALD_CASES = [
    # off the manifold
    dict(p=0.65, alpha=0.6 + 0.3j, beta=0.5 - 0.4j, theta1=0.7, phi1=0.3, theta2=0.9, phi2=0.0),
    # a lossy absorber
    dict(p=0.9, alpha=0.5, beta=0.5, theta1=1.1, phi1=0.0, theta2=0.4, phi2=1.2),
    # on the manifold
    dict(p=1.0, alpha=1.0, beta=0.0, theta1=math.pi / 6, phi1=0.0, theta2=math.pi / 3, phi2=0.0),
]


@pytest.mark.parametrize("case", DOUBLED_HERALD_CASES)
def test_doubled_herald_is_complete_and_cutoff_free(case):
    # the mirror sums its joint over every (n_a, n_b) pair its cutoff allows;
    # the run, at the circuits' cutoff of 2, must find its clicks at every cutoff
    p, alpha, beta = case["p"], case["alpha"], case["beta"]
    angles = {name: case[name] for name in ("theta1", "phi1", "theta2", "phi2")}
    result = run_doubled_scheme(manifold_config(p=p, tpam=GenericTpam(alpha, beta), theta0=0.4, variant=DOUBLED, **angles))
    clicks = result.details["clicks_by_detector"]
    for cutoff in (2, 4, 16):
        mirror = em.ensemble_doubled_generic(p, alpha, beta, **angles, theta0=0.4, cutoff=cutoff)
        one_click = {
            "A": sum(q for (n_a, n_b), q in mirror["joint"].items() if n_a == 1 and n_b != 1),
            "B": sum(q for (n_a, n_b), q in mirror["joint"].items() if n_b == 1 and n_a != 1),
        }
        assert result.p_success == pytest.approx(mirror["p_success"], rel=1e-15, abs=0.0)
        for arm in "AB":
            assert clicks[arm] == pytest.approx(one_click[arm], rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# pair-herald scheme


def test_pair_herald_benchmark_two_cycles():
    result = run_pair_herald_scheme(1.0, 2.0)
    assert result.p_success == pytest.approx(PS_PAIR_HERALD_TWO_CYCLES, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_pair_herald_p_squared_scaling():
    base = run_pair_herald_scheme(1.0, 2.0).p_success
    assert run_pair_herald_scheme(0.5, 2.0).p_success == pytest.approx(
        0.25 * base, abs=1e-12
    )


def test_pair_herald_dead_source():
    assert run_pair_herald_scheme(0.0, 2.0).p_success == 0.0


def test_pair_herald_needs_integer_length():
    with pytest.raises(ValueError):
        run_pair_herald_scheme(1.0, 2.5)


def test_pair_herald_output_single_photon_exactly():
    result = run_pair_herald_scheme(0.9, 3.0)
    (w, state), = result.conditional_state.branches
    assert w == pytest.approx(1.0, abs=1e-12)
    assert state.amplitude(FockKet((1,))) != 0j
    assert len(state) == 1


# ---------------------------------------------------------------------------
# filter-split scheme


def test_filter_split_benchmark_three_half_cycles():
    result = run_filter_split_scheme(1.0, 1.5)
    assert result.p_success == pytest.approx(PS_FILTER_SPLIT_THREE_HALVES, abs=1e-12)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_filter_split_needs_half_odd_length():
    for bad in (1.0, 2.0, 1.75):
        with pytest.raises(ValueError):
            run_filter_split_scheme(1.0, bad)


def test_filter_split_mirror_output_clicks_equally():
    result = run_filter_split_scheme(0.8, 2.5)
    clicks = result.details["click_probability_by_output"]
    assert clicks["B"] == pytest.approx(clicks["C"], abs=1e-12)
    assert clicks["B"] == pytest.approx(result.p_success, abs=1e-12)
    assert "herald_convention" in result.details
    assert result.details["monitored_output"] == "B"


def test_filter_split_sector_bookkeeping():
    result = run_filter_split_scheme(0.6, 1.5)
    # only the two-photon sector can deliver the |1,1> pair
    assert result.branch_log.get(2, 0.0) == pytest.approx(result.p_success, abs=1e-12)
    assert result.branch_log.get(1, 0.0) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# dispatcher


def test_run_scheme_dispatches_all_variants():
    fwm = FwmTpamSpec(FwmParams(2), condition=(1, 1))
    cases = [
        (main_config(), "main"),
        (main_config(variant=DOUBLED), "doubled"),
        (main_config(tpam=fwm, variant=PAIR_HERALD), "pair"),
        (main_config(tpam=FwmTpamSpec(FwmParams(1.5)), variant=FILTER_SPLIT), "filter"),
    ]
    for cfg, _ in cases:
        result = run_scheme(cfg)
        assert result.details["variant"] == cfg.variant


def test_run_scheme_passes_mixer_parameters_through():
    # the pair herald keeps the single-conversion branch, whose amplitude
    # carries one factor e^{i pump_phase}, so the spec's pump phase must reach
    # the circuit unchanged
    def heralded_amplitude(pump_phase):
        tpam = FwmTpamSpec(FwmParams(3.0, pump_phase), (1, 1))
        state = run_scheme(main_config(p=0.9, tpam=tpam, variant=PAIR_HERALD)).conditional_state
        ((_, branch),) = state.branches
        return branch.amplitude(FockKet((1,)))

    assert abs(heralded_amplitude(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert heralded_amplitude(0.7) == pytest.approx(cmath.exp(0.7j) * heralded_amplitude(0.0), abs=1e-12)


def test_run_scheme_requires_fwm_for_heralded_conversion_variants():
    for variant in (PAIR_HERALD, FILTER_SPLIT):
        with pytest.raises(ValueError):
            main_config(variant=variant)  # generic absorber


@pytest.mark.parametrize("variant", [MAIN, DOUBLED, PAIR_HERALD, FILTER_SPLIT])
def test_every_variant_runs_with_the_absorber_of_its_default_table_entry(variant):
    cfg = manifold_config(variant=variant)
    assert cfg.tpam == DEFAULT_TPAM[variant]
    assert run_scheme(cfg).p_success > 0.0


def test_a_config_its_variant_cannot_run_fails_when_it_is_built():
    with pytest.raises(ValueError, match="requires a four-wave-mixing TPAM"):
        SchemeConfig(SourceSpec(0.5), GenericTpam(1, 0), variant=FILTER_SPLIT)
    with pytest.raises(ValueError, match=r"conditions the generated fields on \(1, 1\)"):
        SchemeConfig(SourceSpec(0.5), FwmTpamSpec(FwmParams(2.0), (0, 0)), variant=PAIR_HERALD)
    with pytest.raises(ValueError, match="requires a four-wave-mixing TPAM"):
        dataclasses.replace(manifold_config(), variant=PAIR_HERALD)


@pytest.mark.parametrize(
    "run,args,kwargs",
    [
        (run_pair_herald_scheme, (True, 2.0), {}),
        (run_pair_herald_scheme, (1.0, True), {}),
        (run_pair_herald_scheme, (1.0, 2.0), {"pump_phase": False}),
        (run_pair_herald_scheme, (1.0, 2.0), {"theta0": True}),
        (run_filter_split_scheme, (False, 1.5), {}),
        (run_filter_split_scheme, (0.5, 1.5), {"theta0": True}),
        (run_filter_split_scheme, (0.5, 1.5), {"phi0": False}),
    ],
)
def test_mixer_runners_reject_booleans(run, args, kwargs):
    # The runners build SourceSpec, FwmParams and BeamSplitterParams
    # directly, so those types must refuse a boolean as manifold_config does.
    with pytest.raises(ValueError, match="boolean"):
        run(*args, **kwargs)


@pytest.mark.parametrize(
    "make,field",
    [
        pytest.param(lambda: FwmParams(None), "length_multiple", id="FwmParams(None)"),
        pytest.param(lambda: FwmParams(2j), "length_multiple", id="FwmParams(2j)"),
        pytest.param(lambda: FwmParams(2.0, None), "pump_phase", id="FwmParams(2.0, None)"),
        pytest.param(lambda: BeamSplitterParams(None), "theta", id="BeamSplitterParams(None)"),
        pytest.param(lambda: BeamSplitterParams("0.5"), "theta", id="BeamSplitterParams('0.5')"),
        pytest.param(lambda: BeamSplitterParams(1j), "theta", id="BeamSplitterParams(1j)"),
        pytest.param(lambda: BeamSplitterParams(0.5, None), "phi", id="BeamSplitterParams(0.5, None)"),
        pytest.param(lambda: SourceSpec(None), "source efficiency", id="SourceSpec(None)"),
        pytest.param(lambda: SourceSpec("0.5"), "source efficiency", id="SourceSpec('0.5')"),
        pytest.param(lambda: GenericTpam(None, 0), "alpha", id="GenericTpam(None, 0)"),
        pytest.param(lambda: GenericTpam(0.6, None), "beta", id="GenericTpam(0.6, None)"),
        pytest.param(lambda: GenericTpam("0.6", "0.8"), "alpha", id="GenericTpam('0.6', '0.8')"),
        pytest.param(lambda: GenericTpam.unitary(None), "beta", id="GenericTpam.unitary(None)"),
        pytest.param(lambda: jf_length_scan([None]), "length_multiple", id="jf_length_scan([None])"),
        pytest.param(lambda: BeamSplitterParams(10**400), "theta", id="BeamSplitterParams(10**400)"),
        pytest.param(lambda: FwmParams(10**400), "length_multiple", id="FwmParams(10**400)"),
        pytest.param(lambda: GenericTpam(10**400, 0), "alpha", id="GenericTpam(10**400, 0)"),
        pytest.param(lambda: reduce_through_bs0(0.5, 10**400), "theta", id="reduce_through_bs0(0.5, 10**400)"),
        pytest.param(lambda: jf_length_scan([10**400]), "length_multiple", id="jf_length_scan([10**400])"),
    ],
)
def test_value_objects_refuse_a_field_that_is_not_a_number(make, field):
    # None and complex values once escaped as TypeError from math.isfinite,
    # complex("0.6") let a string through as a coefficient, and an int too
    # large for a float escaped as OverflowError.
    with pytest.raises(ValueError, match=field):
        make()


def test_result_serialization_round_trips_sorted_sectors():
    result = run_main_scheme(main_config(p=0.6))
    blob = result.to_dict()
    assert blob["p_success"] == result.p_success
    assert list(blob["branch_log"].keys()) == sorted(blob["branch_log"].keys())
    assert blob["details"]["p_success_over_p2"] == pytest.approx(
        result.p_success / 0.36, abs=1e-12
    )


# ---------------------------------------------------------------------------
# small branch weights: a branch's physics must not depend on its weight

NEAR_NULL = math.pi / 2 - 1e-4

SCALE_CASES = [
    dict(tpam=FULL_ABSORBER),
    dict(tpam=GenericTpam(0.6j, 0.8), theta0=0.2, theta1=0.7, phi1=0.3, theta2=0.9),
    dict(tpam=FwmTpamSpec(FwmParams(3.0)), theta0=1e-3, theta1=NEAR_NULL, phi1=0.3, theta2=0.7),
    dict(tpam=PHASE_FLIP, variant=DOUBLED, theta1=math.pi / 6, theta2=math.pi / 3),
    dict(tpam=FwmTpamSpec(FwmParams(2.0), (1, 1)), variant=PAIR_HERALD),
    dict(tpam=FwmTpamSpec(FwmParams(1.5)), variant=FILTER_SPLIT, theta0=0.2),
]


@pytest.mark.parametrize("kwargs", SCALE_CASES)
def test_heralded_branches_do_not_depend_on_branch_weight(kwargs):
    # the same input branches at 1e-16 of their weight: every herald
    # probability scales by 1e-16 and every heralded state is unchanged
    scale = 1e-16
    cfg = manifold_config(p=1.0, **kwargs)
    circuit, inputs = build_circuit(cfg), em.inputs_of(cfg)
    small = [state.scaled(math.sqrt(scale)) for state in inputs.states]
    for _, counts, _ in circuit.outcomes:
        ref, got = em.prepared(circuit, inputs.states), em.prepared(circuit, small)
        for mode, n in counts:
            ref, q_ref = em.condition_on(ref, mode, n)
            got, q_got = em.condition_on(got, mode, n)
        assert q_got / scale == pytest.approx(q_ref, rel=1e-12, abs=1e-15)
        assert len(got) == len(ref)
        for (w_ref, s_ref), (w_got, s_got) in zip(ref.branches, got.branches):
            assert w_got / scale == pytest.approx(w_ref, rel=1e-12, abs=1e-15)
            assert [k for k, _ in s_got.terms()] == [k for k, _ in s_ref.terms()]
            for (_, a_got), (_, a_ref) in zip(s_got.terms(), s_ref.terms()):
                assert abs(a_got - a_ref) <= 1e-12


@pytest.mark.parametrize("p", [1e-8, 1e-10])
def test_weak_sources_herald_the_unit_source_state_on_null_manifold(p):
    # a lone photon never heralds here, so only the p^2 sector is left
    weak, unit = run_main_scheme(main_config(p=p)), run_main_scheme(main_config(p=1.0))
    assert weak.details["p_success_over_p2"] == pytest.approx(unit.p_success, abs=1e-12)
    assert weak.fidelity == pytest.approx(unit.fidelity, abs=1e-12)
    weak_state, unit_state = weak.to_dict()["conditional_state"], unit.to_dict()["conditional_state"]
    assert len(weak_state["branches"]) == len(unit_state["branches"])
    for got, want in zip(weak_state["branches"], unit_state["branches"]):
        assert got["weight"] == pytest.approx(want["weight"], abs=1e-12)
        assert len(got["terms"]) == len(want["terms"])
        for a, b in zip(got["terms"], want["terms"]):
            assert (a["occupations"], a["medium"]) == (b["occupations"], b["medium"])
            assert abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= 1e-12


TINY_P_CASES = [
    dict(tpam=FULL_ABSORBER, theta1=math.pi / 6),
    dict(tpam=PHASE_FLIP, variant=DOUBLED, theta1=math.pi / 6),
    dict(tpam=FwmTpamSpec(FwmParams(2.0), (1, 1)), variant=PAIR_HERALD),
    dict(tpam=FwmTpamSpec(FwmParams(1.5)), variant=FILTER_SPLIT),
]


@pytest.mark.parametrize("p", [1e-12, 1e-14, 1e-100, 1e-200, 5e-324])
@pytest.mark.parametrize("kwargs", TINY_P_CASES)
def test_tiny_source_efficiency_still_heralds(kwargs, p):
    # no absolute cut: a herald of probability ~p^2 counts however small,
    # and where p^2 underflows, p_success/p^2 and the state keep their bits
    weak, unit = run_scheme(manifold_config(p=p, **kwargs)), run_scheme(manifold_config(p=1.0, **kwargs))
    assert weak.details["p_success_over_p2"] == pytest.approx(unit.p_success, rel=1e-12)
    assert weak.fidelity == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(weak.branch_log.values()) == pytest.approx(weak.p_success, rel=1e-12)


@pytest.mark.parametrize("p", [1.2, -0.1, float("nan")])
def test_source_efficiency_outside_the_unit_interval_is_rejected(p):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SourceSpec(p)
