"""Two-photon absorbers: the generic rule set and the four-wave-mixing model."""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dn
from photonherald import (
    MAX_LENGTH_MULTIPLE,
    FockKet,
    FwmParams,
    FwmTpamSpec,
    GenericTpam,
    ModeRegister,
    PureState,
    UnsupportedPhotonNumberError,
    apply_generic_tpam,
    fock_state,
    fwm_coefficients,
    fwm_coefficients_from_phase,
    fwm_conditioned_channel,
    fwm_evolve,
    manifold_config,
    project_number,
    run_main_scheme,
)

# one full single-photon conversion cycle leaves beta at this value
BETA_ONE_CYCLE = 0.41302457983158963
ALPHA1_SQ_TWO_CYCLES = 0.3250101515235137


def medium_state(occupations, medium=0, cutoff=4, medium_dims=2):
    reg = ModeRegister(tuple("B"), cutoff=cutoff, medium_dims=medium_dims)
    return PureState(reg, {FockKet(tuple(occupations), medium): 1.0 + 0j})


# ---------------------------------------------------------------------------
# generic absorber


def test_vacuum_and_single_photon_pass_untouched():
    tpam = GenericTpam(alpha=0.3 + 0.1j, beta=0.5 - 0.2j)
    for n in (0, 1):
        out = apply_generic_tpam(medium_state((n,)), "B", tpam)
        assert out.amplitude(FockKet((n,), medium=0)) == pytest.approx(1.0, abs=1e-14)
        assert len(out) == 1


def test_full_absorption_stores_excitation():
    out = apply_generic_tpam(medium_state((2,)), "B", GenericTpam(alpha=1.0, beta=0.0))
    assert out.amplitude(FockKet((0,), medium=1)) == pytest.approx(1.0, abs=1e-14)
    assert len(out) == 1


def test_pure_phase_flip_medium_stays_ground():
    out = apply_generic_tpam(medium_state((2,)), "B", GenericTpam(alpha=0.0, beta=-1.0))
    assert out.amplitude(FockKet((2,), medium=0)) == pytest.approx(-1.0, abs=1e-14)


def test_two_photon_branching_amplitudes():
    alpha, beta = cmath.exp(0.4j) * 0.6, cmath.exp(-1.1j) * 0.8
    out = apply_generic_tpam(medium_state((2,)), "B", GenericTpam(alpha=alpha, beta=beta))
    assert out.amplitude(FockKet((0,), medium=1)) == pytest.approx(alpha, abs=1e-14)
    assert out.amplitude(FockKet((2,), medium=0)) == pytest.approx(beta, abs=1e-14)


def test_three_photons_rejected():
    with pytest.raises(UnsupportedPhotonNumberError):
        apply_generic_tpam(medium_state((3,)), "B", GenericTpam(alpha=1.0, beta=0.0))


def test_two_photons_on_excited_medium_rejected():
    with pytest.raises(UnsupportedPhotonNumberError):
        apply_generic_tpam(
            medium_state((2,), medium=1), "B", GenericTpam(alpha=1.0, beta=0.0)
        )


def test_single_photon_with_excited_medium_passes():
    out = apply_generic_tpam(
        medium_state((1,), medium=1), "B", GenericTpam(alpha=1.0, beta=0.0)
    )
    assert out.amplitude(FockKet((1,), medium=1)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.9, 0.9), (1e200, 0.0), (0.0, 1e200j), (0.5, 1e308), (1.7e308 + 1.7e308j, 0.0), (1.0 + 1e-8, 0.0)],
)
def test_coefficients_above_unit_norm_rejected(alpha, beta):
    # by the norm rule, also where |alpha|^2 or |beta|^2 overflows a double
    with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 <= 1"):
        GenericTpam(alpha, beta)


def test_coefficients_at_the_norm_rule_tolerance_accepted():
    for alpha, beta in ((1.0 + 1e-10, 0.0), (0.6, 0.8), (0.0, -1j), (2**-0.5 * (1 + 4e-10), 2**-0.5)):
        assert GenericTpam(alpha, beta).alpha == alpha


@pytest.mark.parametrize(
    "kwargs",
    [dict(alpha=math.nan, beta=0.0), dict(alpha=0.0, beta=complex(0.0, math.inf))],
)
def test_non_finite_coefficients_rejected(kwargs):
    with pytest.raises(ValueError):
        GenericTpam(**kwargs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GenericTpam(True, False),
        lambda: GenericTpam.unitary(True),
    ],
)
def test_boolean_coefficients_rejected(make):
    # complex(True) is 1+0j, so a boolean would otherwise pass as a coefficient.
    with pytest.raises(ValueError, match="boolean"):
        make()


def test_unitary_tpam_preserves_norm_on_superpositions():
    reg = ModeRegister(("B",), cutoff=4, medium_dims=2)
    psi = PureState(
        reg,
        {FockKet((0,)): 0.5, FockKet((1,)): 0.5j, FockKet((2,)): math.sqrt(0.5)},
    )
    out = apply_generic_tpam(psi, "B", GenericTpam(alpha=0.28 + 0.96j, beta=0.0))
    assert out.squared_norm() == pytest.approx(psi.squared_norm(), abs=1e-14)


@pytest.mark.parametrize("alpha,beta,kept", [(0.6, 0.8, 1.0), (0.0, 0.5, 0.25), (0.3j, 0.4, 0.25)])
def test_two_photons_keep_only_the_weight_of_the_coefficients(alpha, beta, kept):
    # a lossy absorber drops 1 - |alpha|^2 - |beta|^2 of the pair's weight
    out = apply_generic_tpam(medium_state((2,)), "B", GenericTpam(alpha=alpha, beta=beta))
    assert out.squared_norm() == pytest.approx(kept, abs=1e-14)


def test_absorber_takes_exactly_two_coefficients():
    with pytest.raises(TypeError):
        GenericTpam(0.6, 0.8, 0.7)


def test_absorber_table_is_kept_per_value():
    apply_generic_tpam(medium_state((2,)), "B", GenericTpam(0.28, 0.96))
    misses = GenericTpam._rules.cache_info().misses
    apply_generic_tpam(medium_state((2,)), "B", GenericTpam(0.28, 0.96))
    assert GenericTpam._rules.cache_info().misses == misses


def test_equal_absorbers_share_one_table_and_one_result():
    # 0.8 and 0.8-0j differ only in a signed zero, which the kernel's sums
    # from 0j clear, so the table kept for either serves both.
    plain, signed = GenericTpam(0.6, 0.8), GenericTpam(0.6, complex(0.8, -0.0))
    assert plain == signed
    assert plain._rules() is signed._rules()

    def run(tpam):
        return repr(run_main_scheme(manifold_config(0.4, p=0.7, tpam=tpam)).to_dict())

    GenericTpam._rules.cache_clear()
    fresh = run(signed)
    GenericTpam._rules.cache_clear()
    run(plain)
    assert run(signed) == fresh


def test_medium_subsystem_required():
    reg = ModeRegister(("B",), cutoff=4)  # medium_dims=1
    with pytest.raises(ValueError):
        apply_generic_tpam(fock_state(reg, (2,)), "B", GenericTpam(alpha=1.0, beta=0.0))


# ---------------------------------------------------------------------------
# four-wave mixing coefficients


def test_fwm_coefficients_at_zero_phase():
    alpha0, alpha1, beta = fwm_coefficients_from_phase(0.0)
    assert alpha0 == 0j
    assert alpha1 == 0j
    assert beta == pytest.approx(1.0)


def test_fwm_beta_after_one_cycle():
    _, _, beta = fwm_coefficients(FwmParams(1))
    assert beta.real == pytest.approx(BETA_ONE_CYCLE, abs=1e-14)
    assert beta.imag == 0.0


def test_fwm_pair_amplitude_after_two_cycles():
    _, alpha1, _ = fwm_coefficients(FwmParams(2))
    assert abs(alpha1) ** 2 == pytest.approx(ALPHA1_SQ_TWO_CYCLES, abs=1e-14)


def test_fwm_normalization_is_exact():
    for k in range(40):
        phase = 0.37 * k
        alpha0, alpha1, beta = fwm_coefficients_from_phase(phase, pump_phase=0.11 * k)
        total = abs(alpha0) ** 2 + abs(alpha1) ** 2 + abs(beta) ** 2
        assert total == pytest.approx(1.0, abs=1e-13)


def test_fwm_params_validation():
    with pytest.raises(ValueError):
        FwmParams(0.0)
    with pytest.raises(ValueError):
        FwmParams(-1.5)
    for bad in (
        dict(length_multiple=math.inf),
        dict(length_multiple=2.0, pump_phase=math.nan),
        dict(length_multiple="2"),
        dict(length_multiple=2.0, pump_phase="0"),
    ):
        with pytest.raises(ValueError):
            FwmParams(**bad)
    p = FwmParams(Fraction(3, 2))
    assert isinstance(p.length_multiple, float)
    assert p.length_multiple == 1.5
    assert p.is_half_odd_length and not p.is_integer_length
    assert FwmParams(4).is_integer_length
    assert not FwmParams(1.25).is_integer_length


def test_fwm_params_reject_lengths_whose_phase_a_double_cannot_hold():
    assert FwmParams(MAX_LENGTH_MULTIPLE).is_integer_length
    assert math.cos(FwmParams(MAX_LENGTH_MULTIPLE).rabi_angle) == pytest.approx(1.0, abs=1e-15)
    for length in (MAX_LENGTH_MULTIPLE * (1 + 1e-15), 1e15, 1e17, Fraction(10**17)):
        with pytest.raises(ValueError, match="above"):
            FwmParams(length)


def test_fwm_spec_condition_validation():
    spec = FwmTpamSpec(FwmParams(2), condition=(1, 1))
    assert spec.condition == (1, 1)
    with pytest.raises(ValueError):
        FwmTpamSpec(FwmParams(2), condition=(3, 0))
    assert FwmTpamSpec(FwmParams(2), condition=[1.0, 1]).condition == (1, 1)


@pytest.mark.parametrize("condition", [(1.7, 1), (1, 0.5), (True, True), (1, False), "11", ("1", "1"), (1, 1, 1), (math.nan, 1), 11, None])
def test_fwm_spec_refuses_a_condition_that_is_not_two_whole_counts(condition):
    # a truncated (1.7, 1) or (True, True) would run as the pair herald's (1, 1)
    with pytest.raises(ValueError, match="two whole counts"):
        FwmTpamSpec(FwmParams(2), condition)


# ---------------------------------------------------------------------------
# four-wave mixing dynamics


def fwm_in(n, cutoff=4):
    reg = ModeRegister(("W", "E1", "E2"), cutoff=cutoff)
    return reg, fock_state(reg, (n, 0, 0))


def test_single_photon_transparent_at_odd_integer_length():
    reg, psi = fwm_in(1)
    out = fwm_evolve(psi, ("W", "E1", "E2"), FwmParams(1))
    # the built-in compensation undoes the sign of cos(pi)
    assert out.amplitude(FockKet((1, 0, 0))) == pytest.approx(1.0, abs=1e-12)
    assert len(out) == 1


def test_single_photon_transparent_at_even_integer_length():
    reg, psi = fwm_in(1)
    out = fwm_evolve(psi, ("W", "E1", "E2"), FwmParams(2))
    assert out.amplitude(FockKet((1, 0, 0))) == pytest.approx(1.0, abs=1e-12)


def test_single_photon_fully_converts_at_half_odd_length():
    reg, psi = fwm_in(1)
    out = fwm_evolve(psi, ("W", "E1", "E2"), FwmParams(1.5))
    # -i sin(3 pi / 2) = +i
    assert out.amplitude(FockKet((0, 1, 1))) == pytest.approx(1j, abs=1e-12)
    assert abs(out.amplitude(FockKet((1, 0, 0)))) < 1e-12


def test_two_photon_output_composition():
    reg, psi = fwm_in(2)
    params = FwmParams(2)
    alpha0, alpha1, beta = fwm_coefficients(params)
    out = fwm_evolve(psi, ("W", "E1", "E2"), params)
    assert out.amplitude(FockKet((0, 2, 2))) == pytest.approx(alpha0, abs=1e-12)
    assert out.amplitude(FockKet((1, 1, 1))) == pytest.approx(alpha1, abs=1e-12)
    assert out.amplitude(FockKet((2, 0, 0))) == pytest.approx(beta, abs=1e-12)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_single_photon_converts_at_cutoff_one():
    reg, psi = fwm_in(1, cutoff=1)
    out = fwm_evolve(psi, ("W", "E1", "E2"), FwmParams(1.5))
    assert [ket for ket, _ in out.terms()] == [FockKet((0, 1, 1))]
    assert out.amplitude(FockKet((0, 1, 1))) == pytest.approx(1j, abs=1e-12)


@st.composite
def mixer_inputs(draw):
    """A state on the mixer's three modes and a spectator, in a drawn order,
    with a medium: the pump holds at most two photons and the generated
    fields are empty."""
    labels = tuple(draw(st.permutations(("W", "E1", "E2", "S"))))
    reg = ModeRegister(labels, cutoff=3, medium_dims=2)
    kets = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1)), min_size=1, max_size=6, unique=True))
    unit = st.floats(-1.0, 1.0)
    amps = {}
    for pump, spectator, medium in kets:
        occupations = {"W": pump, "E1": 0, "E2": 0, "S": spectator}
        amps[FockKet(tuple(occupations[label] for label in labels), medium)] = complex(draw(unit), draw(unit))
    return PureState(reg, amps)


@given(
    psi=mixer_inputs(),
    length=st.sampled_from([1, 2, 3, 1.5, 2.5]) | st.floats(0.01, 8.0),
    pump_phase=st.floats(-math.pi, math.pi),
)
@settings(max_examples=80, deadline=None)
def test_mixer_matches_the_dense_operator(psi, length, pump_phase):
    labels = psi.register.labels
    op = dn.fwm_operator(length, 3, pump_phase)
    want = {}
    for ket, amp in psi.terms():
        occ = dict(zip(labels, ket.occupations))
        column = occ["W"] * 9
        for row in map(int, op[:, column].nonzero()[0]):
            occ["W"], occ["E1"], occ["E2"] = row // 9, row // 3 % 3, row % 3
            out = FockKet(tuple(occ[label] for label in labels), ket.medium)
            want[out] = want.get(out, 0j) + amp * op[row, column]
    got = fwm_evolve(psi, ("W", "E1", "E2"), FwmParams(length, pump_phase))
    for ket in want.keys() | {ket for ket, _ in got.terms()}:
        assert abs(got.amplitude(ket) - want.get(ket, 0j)) <= 1e-12, ket


def test_generated_modes_must_start_in_vacuum():
    reg = ModeRegister(("W", "E1", "E2"), cutoff=4)
    with pytest.raises(ValueError):
        fwm_evolve(fock_state(reg, (1, 1, 0)), ("W", "E1", "E2"), FwmParams(1))


def test_pump_occupation_above_two_rejected():
    reg = ModeRegister(("W", "E1", "E2"), cutoff=4)
    with pytest.raises(UnsupportedPhotonNumberError):
        fwm_evolve(fock_state(reg, (3, 0, 0)), ("W", "E1", "E2"), FwmParams(1))


# ---------------------------------------------------------------------------
# conditioned channel


def test_channel_vacuum_condition_acts_like_lossy_absorber():
    chan = fwm_conditioned_channel(FwmParams(1), condition=(0, 0))
    assert chan == FwmTpamSpec(FwmParams(1))
    for n in (0, 1):
        out = chan.apply(medium_state((n,)), "B")
        assert [ket.occupations for ket, _ in out.terms()] == [(n,)]
        assert out.amplitude(FockKet((n,))) == pytest.approx(1.0, abs=1e-12)
    out = chan.apply(medium_state((2,)), "B")
    assert [ket.occupations for ket, _ in out.terms()] == [(2,)]
    assert out.amplitude(FockKet((2,))).real == pytest.approx(BETA_ONE_CYCLE, abs=1e-12)


def test_channel_pair_condition_heralds_only_two_photons():
    chan = fwm_conditioned_channel(FwmParams(2), condition=(1, 1))
    assert chan.survival_probability(0) == 0.0
    assert chan.survival_probability(1) == 0.0
    assert chan.survival_probability(2) == pytest.approx(ALPHA1_SQ_TWO_CYCLES, abs=1e-12)
    out = chan.apply(medium_state((2,)), "B")
    # one pump photon survives alongside the heralded pair
    assert [ket.occupations for ket, _ in out.terms()] == [(1,)]


def test_channel_half_odd_vacuum_condition_filters_singles():
    chan = fwm_conditioned_channel(FwmParams(1.5), condition=(0, 0))
    assert chan.survival_probability(1) == 0.0  # the single photon always converts
    assert len(chan.apply(medium_state((1,)), "B")) == 0
    assert chan.survival_probability(2) == pytest.approx(0.9164283473001886, abs=1e-12)


def test_channel_apply_tracks_lost_norm():
    reg = ModeRegister(("B",), cutoff=4)
    psi = PureState(reg, {FockKet((1,)): math.sqrt(0.5), FockKet((2,)): math.sqrt(0.5)})
    chan = fwm_conditioned_channel(FwmParams(2), condition=(1, 1))
    out = chan.apply(psi, "B")
    # only the two-photon component survives the pair herald
    assert out.squared_norm() == pytest.approx(0.5 * ALPHA1_SQ_TWO_CYCLES, abs=1e-12)


@pytest.mark.parametrize("length", [1, 2, 3, 1.5, 2.5, 0.3])
def test_channel_is_the_mixer_projected_on_its_condition(length):
    params = FwmParams(length, 0.4)
    for condition in itertools.product(range(3), repeat=2):
        chan = fwm_conditioned_channel(params, condition)
        for n in range(3):
            _, psi = fwm_in(n)
            kept, _ = project_number(fwm_evolve(psi, ("W", "E1", "E2"), params), "E1", condition[0])
            kept, _ = project_number(kept, "E2", condition[1])
            got = chan.apply(fock_state(ModeRegister(("W",), 4), (n,)), "W")
            assert [(ket.occupations, amp) for ket, amp in got.terms()] == [(ket.occupations, amp) for ket, amp in kept.terms()]
            assert chan.survival_probability(n) == kept.squared_norm()


def test_channel_rejects_condition_out_of_range():
    for condition in ((0, 5), (1.5, 0), (True, 1)):
        with pytest.raises(ValueError, match="two whole counts"):
            fwm_conditioned_channel(FwmParams(1), condition=condition)
