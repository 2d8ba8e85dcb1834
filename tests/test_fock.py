"""Core Fock-space mechanics: registers, sparse states, measurement, tracing."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_mirrors import number_distribution
from photonherald import (
    CutoffOverflowError,
    Ensemble,
    FockKet,
    ModeRegister,
    PureState,
    apply_creation,
    fidelity_to_single_photon,
    fock_state,
    partial_trace_discard,
    project_number,
    relabel_modes,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def reg(*labels, cutoff=4, medium_dims=1):
    return ModeRegister(tuple(labels), cutoff=cutoff, medium_dims=medium_dims)


def vacuum(register):
    return fock_state(register, (0,) * register.n_modes)


# ---------------------------------------------------------------------------
# registers and kets


def test_register_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ModeRegister(("B", "B"))


def test_register_index_and_unknown_label():
    r = reg("B", "C")
    assert r.index("C") == 1
    with pytest.raises(KeyError):
        r.index("D")


def test_register_without_removes_one_mode():
    r = reg("A", "B", "C")
    assert r.without("B").labels == ("A", "C")


def test_derived_registers_equal_their_checked_constructions():
    # Dropping, joining and renaming skip the checks of the constructor;
    # what they build must still be the register it checks.
    psi = vacuum(reg("A", "B", "C", cutoff=3))
    medium = vacuum(reg("D", cutoff=3, medium_dims=2))
    derived = {
        reg("A", "C", cutoff=3): psi.register.without("B"),
        reg("A", "B", "C", "D", cutoff=3, medium_dims=2): tensor(psi, medium).register,
        reg("A", "E", "C", cutoff=3): relabel_modes(psi, {"B": "E"}).register,
    }
    for checked, built in derived.items():
        assert built == checked and hash(built) == hash(checked)


@pytest.mark.parametrize("mapping", [{"B": "A"}, {"A": "C", "C": "C"}, {"B": ""}, {"B": 7}])
def test_relabel_to_an_invalid_register_raises(mapping):
    with pytest.raises(ValueError, match="mode labels must be"):
        relabel_modes(vacuum(reg("A", "B", "C")), mapping)


def test_register_rejects_an_empty_medium():
    with pytest.raises(ValueError, match="medium_dims"):
        reg("A", medium_dims=0)


@pytest.mark.parametrize(
    "field,bad", [("cutoff", 2.5), ("cutoff", True), ("cutoff", None), ("cutoff", "4"), ("medium_dims", 1.5), ("medium_dims", True)]
)
def test_register_rejects_a_size_that_is_not_an_int(field, bad):
    with pytest.raises(ValueError, match=field):
        ModeRegister(("A",), **{field: bad})


def test_ket_validation_respects_cutoff():
    r = reg("B", cutoff=2)
    with pytest.raises(CutoffOverflowError):
        PureState(r, {FockKet((3,)): 1.0})


def test_ket_validation_checks_mode_count():
    r = reg("B", "C")
    with pytest.raises(ValueError):
        PureState(r, {FockKet((1,)): 1.0})


def test_medium_index_must_fit():
    r = reg("B", medium_dims=2)
    PureState(r, {FockKet((0,), medium=1): 1.0})  # fine
    with pytest.raises(ValueError):
        PureState(r, {FockKet((0,), medium=2): 1.0})


# ---------------------------------------------------------------------------
# sparse pure states


def test_tiny_amplitudes_are_pruned():
    r = reg("B")
    psi = PureState(r, {FockKet((0,)): 1.0, FockKet((1,)): 1e-15})
    assert psi.amplitude(FockKet((1,))) == 0j
    assert len(psi) == 1


def test_a_ket_given_twice_takes_the_sum_of_its_amplitudes():
    psi = PureState(reg("B"), [(FockKet((1,)), 0.6), (FockKet((0,)), 0.5j), (FockKet((1,)), 0.8)])
    assert list(psi.terms()) == [(FockKet((0,)), 0.5j), (FockKet((1,)), 1.4 + 0j)]
    assert len(PureState(reg("B"), [(FockKet((1,)), 0.6), (FockKet((1,)), -0.6)])) == 0


def test_terms_are_deterministically_ordered():
    r = reg("B", "C")
    amps = {FockKet((2, 0)): 0.5, FockKet((0, 2)): 0.5, FockKet((1, 1)): 0.5}
    kets = [ket for ket, _ in PureState(r, amps).terms()]
    assert kets == sorted(kets)


def test_scaling_by_the_inverse_norm_gives_a_unit_state():
    psi = PureState(reg("B"), {FockKet((0,)): 3.0, FockKet((2,)): 4.0})
    unit = psi.scaled(1 / psi.norm())
    assert unit.squared_norm() == pytest.approx(1.0, abs=1e-15)
    assert abs(unit.amplitude(FockKet((2,)))) == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------------------
# creation operator


def test_creation_from_vacuum():
    psi = apply_creation(vacuum(reg("B")), "B")
    assert psi.amplitude(FockKet((1,))) == pytest.approx(1.0)


def test_creation_carries_sqrt_factor():
    psi = apply_creation(fock_state(reg("B"), (1,)), "B")
    assert psi.amplitude(FockKet((2,))) == pytest.approx(math.sqrt(2.0))


def test_two_creations_build_normalized_two_photon_state():
    # (a^dag)^2 |0> / sqrt(2) = |2>
    psi = apply_creation(apply_creation(vacuum(reg("B")), "B"), "B")
    psi = psi.scaled(1.0 / math.sqrt(2.0))
    assert psi.amplitude(FockKet((2,))) == pytest.approx(1.0)
    assert psi.squared_norm() == pytest.approx(1.0)


def test_creation_at_cutoff_overflows():
    r = reg("B", cutoff=2)
    with pytest.raises(CutoffOverflowError):
        apply_creation(fock_state(r, (2,)), "B")


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_concatenates_occupations():
    psi = tensor(fock_state(reg("B"), (1,)), fock_state(reg("C"), (0,)))
    assert psi.register.labels == ("B", "C")
    assert psi.amplitude(FockKet((1, 0))) == pytest.approx(1.0)


def test_tensor_norm_is_multiplicative():
    a = PureState(reg("B"), {FockKet((0,)): 0.6, FockKet((1,)): 0.8j})
    b = PureState(reg("C"), {FockKet((0,)): 0.5, FockKet((2,)): 0.5})
    assert tensor(a, b).squared_norm() == pytest.approx(
        a.squared_norm() * b.squared_norm(), abs=1e-14
    )


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError):
        tensor(fock_state(reg("B"), (0,)), fock_state(reg("B"), (0,)))


def test_tensor_rejects_two_media():
    a = fock_state(reg("B", medium_dims=2), (0,))
    b = fock_state(reg("C", medium_dims=2), (0,))
    with pytest.raises(ValueError):
        tensor(a, b)


# ---------------------------------------------------------------------------
# number projection


def test_project_vacuum_onto_zero():
    kept, prob = project_number(vacuum(reg("B")), "B", 0)
    assert prob == pytest.approx(1.0)
    assert kept.register.n_modes == 0


def test_project_removes_measured_mode():
    psi = fock_state(reg("B", "C"), (1, 2))
    kept, prob = project_number(psi, "B", 1)
    assert prob == pytest.approx(1.0)
    assert kept.register.labels == ("C",)
    assert kept.amplitude(FockKet((2,))) == pytest.approx(1.0)


def test_project_mismatch_gives_zero_probability():
    kept, prob = project_number(fock_state(reg("B"), (1,)), "B", 2)
    assert prob == 0.0
    assert len(kept) == 0


def test_projection_probability_is_squared_amplitude():
    # one branch carrying amplitude (beta - 1)/(2 sqrt(2)) on |1,1>, the rest
    # of the weight parked on an orthogonal ket; a double click on both modes
    # must fire with probability |1 - beta|^2 / 8.
    beta = 0.4130
    amp = (beta - 1.0) / (2.0 * math.sqrt(2.0))
    rest = math.sqrt(1.0 - abs(amp) ** 2)
    psi = PureState(reg("B", "C"), {FockKet((1, 1)): amp, FockKet((0, 0)): rest})
    assert psi.squared_norm() == pytest.approx(1.0, abs=1e-14)

    kept, p_b = project_number(psi, "B", 1)
    kept, p_joint = project_number(kept, "C", 1)
    assert p_b == pytest.approx(abs(1.0 - beta) ** 2 / 8.0, abs=1e-15)
    # chaining keeps absolute weights, so the second click returns the joint
    assert p_joint == pytest.approx(p_b, abs=1e-15)
    assert kept.register.n_modes == 0


def test_projection_completeness():
    psi = PureState(
        reg("B", "C"),
        {FockKet((2, 0)): 0.5, FockKet((1, 1)): 0.5j, FockKet((0, 2)): -0.5, FockKet((0, 0)): 0.5},
    )
    total = sum(project_number(psi, "B", n)[1] for n in range(5))
    assert total == pytest.approx(psi.squared_norm(), abs=1e-14)


def test_project_above_cutoff_rejected():
    with pytest.raises(ValueError):
        project_number(vacuum(reg("B", cutoff=2)), "B", 3)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_of_entangled_pair():
    # (|2,0> - |0,2>)/sqrt(2) traced over the first mode is an even mixture.
    psi = PureState(
        reg("A", "B"), {FockKet((2, 0)): INV_SQRT2, FockKet((0, 2)): -INV_SQRT2}
    )
    reduced = partial_trace_discard(psi, "A")
    dist = number_distribution(reduced, "B")
    assert dist[0] == pytest.approx(0.5, abs=1e-14)
    assert dist[2] == pytest.approx(0.5, abs=1e-14)
    assert len(reduced) == 2


def test_partial_trace_of_product_state_is_pure():
    psi = tensor(
        vacuum(reg("A")),
        PureState(reg("B"), {FockKet((0,)): INV_SQRT2, FockKet((1,)): INV_SQRT2}),
    )
    reduced = partial_trace_discard(psi, "A")
    assert len(reduced) == 1
    (w, s), = reduced.branches
    assert w == pytest.approx(1.0, abs=1e-14)
    assert abs(s.amplitude(FockKet((1,)))) == pytest.approx(INV_SQRT2, abs=1e-14)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_of_single_photon_is_one():
    assert fidelity_to_single_photon(fock_state(reg("C"), (1,))) == pytest.approx(1.0)


def test_fidelity_of_vacuum_is_zero():
    assert fidelity_to_single_photon(vacuum(reg("C"))) == 0.0


def test_fidelity_requires_single_mode():
    with pytest.raises(ValueError):
        fidelity_to_single_photon(vacuum(reg("B", "C")))


def test_fidelity_sums_over_medium_levels():
    r = reg("C", medium_dims=2)
    psi = PureState(r, {FockKet((1,), medium=0): 0.6, FockKet((1,), medium=1): 0.8})
    assert fidelity_to_single_photon(psi) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# ensembles


def weighted(weight, state):
    """``state`` scaled to squared norm ``weight``, a branch of that weight."""
    return state.scaled(math.sqrt(weight / state.squared_norm()))


def total_weight(ens):
    return sum(w for w, _ in ens.branches)


def test_ensemble_drops_branches_without_weight():
    r = reg("B")
    ens = Ensemble(r, [weighted(0.0, vacuum(r)), weighted(0.7, fock_state(r, (1,)))])
    assert len(ens) == 1
    assert total_weight(ens) == pytest.approx(0.7)


def test_ensemble_keeps_tiny_weight_branches():
    r = reg("B")
    plus = PureState(r, {FockKet((0,)): INV_SQRT2, FockKet((1,)): INV_SQRT2})
    ens = Ensemble(r, [weighted(1e-30, fock_state(r, (1,))), weighted(1e-40, plus), vacuum(r)])
    assert len(ens) == 3
    assert [w for w, _ in ens.branches] == pytest.approx([1e-30, 1e-40, 1.0], rel=1e-12)
    assert all(s.squared_norm() == pytest.approx(1.0, abs=1e-14) for _, s in ens.branches)
    merged = Ensemble(r, [weighted(1e-30, plus), weighted(1e-30, plus.scaled(-1j))]).consolidated()
    assert len(merged) == 1
    assert total_weight(merged) == pytest.approx(2e-30, rel=1e-12)


def test_number_distribution_accounts_for_all_weight():
    r = reg("B")
    ens = Ensemble(
        r,
        [
            weighted(0.5, PureState(r, {FockKet((0,)): INV_SQRT2, FockKet((2,)): INV_SQRT2})),
            weighted(0.3, fock_state(r, (1,))),
        ],
    )
    dist = number_distribution(ens, "B")
    assert sum(dist.values()) == pytest.approx(total_weight(ens), abs=1e-14)
    assert dist[1] == pytest.approx(0.3)
    assert dist[2] == pytest.approx(0.25)


def test_normalized_weights_rescale_only():
    r = reg("B")
    ens = Ensemble(r, [weighted(0.2, vacuum(r)), weighted(0.6, fock_state(r, (1,)))])
    normed = ens.normalized_weights()
    assert total_weight(normed) == pytest.approx(1.0, abs=1e-14)
    assert number_distribution(normed, "B")[1] == pytest.approx(0.75, abs=1e-14)


def test_consolidated_merges_phase_equal_branches():
    r = reg("B")
    plus = PureState(r, {FockKet((0,)): INV_SQRT2, FockKet((1,)): INV_SQRT2})
    same_up_to_phase = plus.scaled(complex(math.cos(1.1), math.sin(1.1)))
    ens = Ensemble(r, [weighted(0.4, plus), weighted(0.6, same_up_to_phase)]).consolidated()
    assert len(ens) == 1
    assert total_weight(ens) == pytest.approx(1.0, abs=1e-12)


def test_constructor_prunes_relative_to_the_given_norm():
    # One prune rule: a state built from small amplitudes keeps what its
    # normalized state would, and drops dust relative to its own norm.
    r = reg("B")
    assert PureState(r, {FockKet((1,)): 1e-20}).amplitude(FockKet((1,))) == 1e-20
    assert len(PureState(r, {FockKet((0,)): 1e-20, FockKet((1,)): 1e-35})) == 1


# Magnitudes whose squares run from below the smallest normal double (about
# 2.2e-308) into the normal range.
SMALL = st.floats(-160.0, -150.0).map(lambda e: 10.0**e)
PHASE = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=200, deadline=None)
@given(m1=SMALL, m2=SMALL, phase=PHASE)
def test_consolidated_merges_small_phase_equal_branches(m1, m2, phase):
    r = reg("B")
    one = fock_state(r, (1,))
    a1, a2 = one.scaled(m1 * cmath.exp(1j * phase)), one.scaled(m2 * cmath.exp(1j * phase))
    merged = Ensemble(r, [a1, a2]).consolidated()
    assert len(merged) == 1
    first = a1.amplitude(FockKet((1,)))
    want = math.hypot(abs(first), abs(a2.amplitude(FockKet((1,)))))
    got = merged.states[0].amplitude(FockKet((1,)))
    assert abs(got - want * (first / abs(first))) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(magnitudes=st.lists(SMALL, min_size=1, max_size=3), phase=PHASE)
def test_small_branches_normalize_to_unit_norm_and_weight(magnitudes, phase):
    r = reg("B")
    states = [fock_state(r, (n,)).scaled(m * cmath.exp(1j * phase)) for n, m in enumerate(magnitudes)]
    ens = Ensemble(r, states)
    assert len(ens) == len(states)
    assert all(abs(state.squared_norm() - 1.0) <= 1e-12 for _, state in ens.branches)
    assert abs(sum(state.squared_norm() for state in ens.normalized_weights().states) - 1.0) <= 1e-12
