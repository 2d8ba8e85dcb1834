"""Property-based invariants for the state algebra and the physical elements."""

import cmath
import math
import sys
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import null_branch
from ensemble_mirrors import inputs_of, prepared
from photonherald import (
    DOUBLED,
    FILTER_SPLIT,
    MAIN,
    PAIR_HERALD,
    PRUNE_THRESHOLD,
    BeamSplitterParams,
    CaseId,
    FockKet,
    FwmParams,
    FwmTpamSpec,
    GenericTpam,
    ModeRegister,
    PureState,
    SchemeConfig,
    SourceSpec,
    apply_beam_splitter,
    apply_generic_tpam,
    build_circuit,
    closed_form_ps,
    fwm_coefficients_from_phase,
    manifold_completion,
    manifold_config,
    project_number,
    run_scheme,
    tensor,
    unitarity_check,
)

CUTOFF = 4

angles = st.floats(
    min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False, allow_infinity=False
)
unit_interval = st.floats(min_value=0.0, max_value=1.0)
amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def two_mode_states(draw):
    """A normalized random state on modes (B, C) within the physical block."""
    reg = ModeRegister(("B", "C"), cutoff=CUTOFF)
    block = [
        (n1, n2) for n1 in range(CUTOFF + 1) for n2 in range(CUTOFF + 1) if n1 + n2 <= CUTOFF
    ]
    amps = draw(
        st.lists(amplitudes, min_size=len(block), max_size=len(block)).filter(
            lambda vals: sum(abs(a) ** 2 for a in vals) > 1e-6
        )
    )
    psi = PureState(reg, {FockKet(occ): a for occ, a in zip(block, amps)})
    return psi.scaled(1 / psi.norm())


@st.composite
def absorber_states(draw):
    """A normalized random state on one mode with a two-level medium."""
    reg = ModeRegister(("B",), cutoff=CUTOFF, medium_dims=2)
    amps = draw(
        st.lists(amplitudes, min_size=3, max_size=3).filter(
            lambda vals: sum(abs(a) ** 2 for a in vals) > 1e-6
        )
    )
    psi = PureState(reg, {FockKet((n,)): a for n, a in zip(range(3), amps)})
    return psi.scaled(1 / psi.norm())


@given(theta=angles, phi=angles)
def test_beam_splitter_is_unitary(theta, phi):
    assert unitarity_check(BeamSplitterParams(theta, phi)) < 1e-11


@given(psi=two_mode_states(), theta=angles, phi=angles)
@settings(max_examples=60)
def test_beam_splitter_preserves_norm(psi, theta, phi):
    out = apply_beam_splitter(psi, ("B", "C"), BeamSplitterParams(theta, phi))
    assert abs(out.squared_norm() - 1.0) < 1e-10


@given(psi=two_mode_states(), theta=angles, phi=angles)
@settings(max_examples=60)
def test_beam_splitter_inverse_composition(psi, theta, phi):
    there = apply_beam_splitter(psi, ("B", "C"), BeamSplitterParams(theta, phi))
    back = apply_beam_splitter(there, ("B", "C"), BeamSplitterParams(-theta, phi))
    kets = {k for k, _ in psi.terms()} | {k for k, _ in back.terms()}
    assert all(abs(back.amplitude(k) - psi.amplitude(k)) < 1e-10 for k in kets)


@given(psi=absorber_states(), phase=angles)
@settings(max_examples=60)
def test_absorber_global_phase_is_unobservable(psi, phase):
    tpam = GenericTpam(alpha=1.0, beta=0.0)
    out_a = apply_generic_tpam(psi, "B", tpam)
    out_b = apply_generic_tpam(psi.scaled(cmath.exp(1j * phase)), "B", tpam)
    dist_a = {k: abs(v) ** 2 for k, v in out_a.terms()}
    dist_b = {k: abs(v) ** 2 for k, v in out_b.terms()}
    for k in set(dist_a) | set(dist_b):
        assert abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) < 1e-12


@given(psi=absorber_states(), phase=angles)
@settings(max_examples=60)
def test_unitary_absorber_preserves_norm(psi, phase):
    tpam = GenericTpam(alpha=complex(math.cos(phase), math.sin(phase)), beta=0.0)
    out = apply_generic_tpam(psi, "B", tpam)
    assert abs(out.squared_norm() - 1.0) < 1e-12


@given(n=st.integers(min_value=0, max_value=CUTOFF - 1))
def test_creation_ladder_factor(n):
    from photonherald import apply_creation, fock_state

    reg = ModeRegister(("B",), cutoff=CUTOFF)
    out = apply_creation(fock_state(reg, (n,)), "B")
    assert abs(out.amplitude(FockKet((n + 1,))) - math.sqrt(n + 1)) < 1e-14


@given(
    a0=amplitudes, a1=amplitudes, b0=amplitudes, b2=amplitudes
)
def test_tensor_norm_multiplicative(a0, a1, b0, b2):
    ra, rb = ModeRegister(("B",), cutoff=CUTOFF), ModeRegister(("C",), cutoff=CUTOFF)
    a = PureState(ra, {FockKet((0,)): a0, FockKet((1,)): a1})
    b = PureState(rb, {FockKet((0,)): b0, FockKet((2,)): b2})
    got = tensor(a, b).squared_norm()
    assert abs(got - a.squared_norm() * b.squared_norm()) < 1e-12


@given(psi=two_mode_states())
@settings(max_examples=60)
def test_number_projection_is_complete(psi):
    total = sum(project_number(psi, "B", n)[1] for n in range(CUTOFF + 1))
    assert abs(total - psi.squared_norm()) < 1e-10


@given(phase=st.floats(min_value=-50.0, max_value=50.0), pump=angles)
def test_fwm_coefficients_stay_normalized(phase, pump):
    alpha0, alpha1, beta = fwm_coefficients_from_phase(phase, pump)
    total = abs(alpha0) ** 2 + abs(alpha1) ** 2 + abs(beta) ** 2
    assert abs(total - 1.0) < 1e-12


@given(
    theta1=st.floats(min_value=-1.5, max_value=1.5),
    case=st.sampled_from(tuple(CaseId)),
)
def test_manifold_completion_round_trip(theta1, case):
    theta2, phi1, phi2 = manifold_completion(theta1, case)
    assert null_branch(theta1, theta2, phi1, phi2) == case


@given(
    theta1=angles,
    beta=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_closed_form_bounds_and_symmetry(theta1, beta):
    ps = closed_form_ps(beta, theta1)
    assert 0.0 <= ps <= abs(1.0 - beta) ** 2 * (27.0 / 256.0) + 1e-12
    # the same surface through the complementary angle
    mirrored = abs(1.0 - beta) ** 2 * math.sin(math.pi / 2 - theta1) ** 6 * math.cos(
        math.pi / 2 - theta1
    ) ** 2
    assert abs(ps - mirrored) < 1e-12


@st.composite
def scheme_configs(draw):
    """A random config of any of the four schemes, lossy absorbers included."""
    variant = draw(st.sampled_from([MAIN, DOUBLED, PAIR_HERALD, FILTER_SPLIT]))
    p = draw(st.floats(min_value=0.05, max_value=1.0))
    theta0, phi0, pump_phase = draw(angles), draw(angles), draw(angles)
    if variant in (PAIR_HERALD, FILTER_SPLIT):
        length = draw(st.integers(min_value=1, max_value=8)) - (0.5 if variant == FILTER_SPLIT else 0.0)
        condition = (1, 1) if variant == PAIR_HERALD else (0, 0)
        return SchemeConfig(
            SourceSpec(p),
            FwmTpamSpec(FwmParams(length, pump_phase), condition),
            BeamSplitterParams(theta0, phi0),
            variant=variant,
        )
    if draw(st.booleans()):
        tpam = FwmTpamSpec(FwmParams(float(draw(st.integers(min_value=1, max_value=8))), pump_phase))
    else:
        beta = draw(amplitudes)
        scale = draw(st.floats(min_value=0.0, max_value=1.0))
        tpam = GenericTpam(scale * math.sqrt(max(0.0, 1.0 - abs(beta) ** 2)), beta)
    case = draw(st.sampled_from(tuple(CaseId)))
    return manifold_config(draw(angles), case, p=p, tpam=tpam, theta0=theta0, variant=variant)


def assert_stored_kets_valid(ensemble):
    for _, state in ensemble.branches:
        assert state.register == ensemble.register
        for ket, amp in state._amps.items():
            ensemble.register.validate_ket(ket)
            assert abs(amp) > PRUNE_THRESHOLD


@given(cfg=scheme_configs())
@settings(max_examples=80, deadline=None)
def test_every_intermediate_state_holds_valid_kets(cfg):
    """States built without re-validation still hold only valid, unpruned kets."""
    circuit, inputs = build_circuit(cfg), inputs_of(cfg)
    for k in range(len(circuit.stages)):
        assert_stored_kets_valid(prepared(circuit._replace(stages=circuit.stages[: k + 1]), inputs.states))
    result = run_scheme(cfg)
    if result.conditional_state is not None:
        assert_stored_kets_valid(result.conditional_state)


#: Source efficiencies from 1 down to the smallest one whose p^2 is a normal double.
P_SCALES = (1.0, 0.3, 1e-3, 1e-9, 1e-40, 1e-100, 1.5e-154)


def sector_weights(cfg, p):
    """w_n(p): the weight of input sector n, B's photon count after the front
    splitter (for doubled, the photons in A and B together)."""
    if cfg.variant == DOUBLED:
        return {1: 2 * p * (1 - p), 2: p * p}
    theta0 = cfg.bs0.theta
    return {1: p * (1 - p) + p * p * math.cos(2 * theta0) ** 2, 2: p * p * math.sin(2 * theta0) ** 2 / 2}


@given(cfg=scheme_configs())
@example(cfg=manifold_config(math.pi / 6, p=0.5, tpam=GenericTpam.unitary(0.3j)))
@example(cfg=manifold_config(1.0, CaseId.DIFF_MINUS, p=0.5, tpam=GenericTpam(0.5, 0.4), variant=DOUBLED))
@example(cfg=manifold_config(0.4, p=0.5, tpam=FwmTpamSpec(FwmParams(3.0, 0.2)), theta0=0.3))
@example(cfg=SchemeConfig(SourceSpec(0.5), FwmTpamSpec(FwmParams(2.0, 0.5), (1, 1)), variant=PAIR_HERALD))
@example(cfg=SchemeConfig(SourceSpec(0.5), FwmTpamSpec(FwmParams(2.5)), BeamSplitterParams(1.1), variant=FILTER_SPLIT))
@settings(max_examples=25, deadline=None)
def test_herald_per_sector_weight_is_independent_of_p(cfg):
    """Every stage after the front splitter is linear and prunes relative to
    its input's norm, so ``branch_log[n] / w_n(p)`` is one number from p = 1
    down to 1.5e-154: both absorbing media see each sector at every scale.
    A value whose expected size is not a normal double is skipped.  The
    ratio is at most 1, and one that a cancellation leaves small keeps the
    rounding of the terms it cancelled, so 1e-15 absolute also passes."""
    logged = {p: run_scheme(replace(cfg, source=SourceSpec(p))).branch_log for p in P_SCALES}
    for n in (1, 2):
        w_ref = sector_weights(cfg, 0.3)[n]
        if w_ref < sys.float_info.min:
            continue
        ref = logged[0.3].get(n, 0.0) / w_ref
        for p, log in logged.items():
            w = sector_weights(cfg, p)[n]
            if ref * w >= sys.float_info.min:
                assert math.isclose(log.get(n, 0.0) / w, ref, rel_tol=1e-12, abs_tol=1e-15), (n, p, log, ref)


@given(cfg=scheme_configs())
@settings(max_examples=80, deadline=None)
def test_every_stage_keeps_cached_norms_and_ket_order(cfg):
    """Each state's squared norm is cached on first use, so no stage may
    change a state after building it; and ``terms()`` runs in
    (occupations, medium) order, the order every output is written in."""
    circuit, states = build_circuit(cfg), inputs_of(cfg).states
    seen = []
    for stage in circuit.stages:
        for state in states:
            state.squared_norm()  # cache it before the next stage reads the state
            seen.append(state)
        states = [stage(state) for state in states]
    seen.extend(states)
    result = run_scheme(cfg)
    if result.conditional_state is not None:
        seen.extend(result.conditional_state.states)
    for state in seen:
        assert state.squared_norm() == sum(abs(amp) ** 2 for amp in state._amps.values())
        kets = [ket for ket, _ in state.terms()]
        assert kets == sorted(state._amps, key=lambda ket: (ket.occupations, ket.medium))
