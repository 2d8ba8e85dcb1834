"""Linear optics elements against closed-form examples and a matrix oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dn
from photonherald import (
    BeamSplitterParams,
    FockKet,
    ModeRegister,
    PureState,
    apply_beam_splitter,
    fock_state,
    splitter_blocks,
    unitarity_check,
)
from photonherald.elements import _mixing_row

CUTOFF = 4
REG = ModeRegister(("B", "C"), cutoff=CUTOFF)
BAL = BeamSplitterParams.balanced()


def bs(theta, phi=0.0):
    return BeamSplitterParams(theta, phi)


def test_single_photon_splitting_amplitudes():
    theta, phi = 0.7, 1.3
    out = apply_beam_splitter(fock_state(REG, (1, 0)), ("B", "C"), bs(theta, phi))
    assert out.amplitude(FockKet((1, 0))) == pytest.approx(math.cos(theta), abs=1e-14)
    assert out.amplitude(FockKet((0, 1))) == pytest.approx(
        complex(math.cos(phi), -math.sin(phi)) * math.sin(theta), abs=1e-14
    )


def test_second_input_picks_up_minus_sign():
    theta = 0.5
    out = apply_beam_splitter(fock_state(REG, (0, 1)), ("B", "C"), bs(theta))
    assert out.amplitude(FockKet((1, 0))) == pytest.approx(-math.sin(theta), abs=1e-14)
    assert out.amplitude(FockKet((0, 1))) == pytest.approx(math.cos(theta), abs=1e-14)


def test_hong_ou_mandel_dip():
    """Two photons meeting a balanced splitter always exit together."""
    out = apply_beam_splitter(fock_state(REG, (1, 1)), ("B", "C"), BAL)
    assert out.amplitude(FockKet((1, 1))) == 0j
    assert out.amplitude(FockKet((0, 2))) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert out.amplitude(FockKet((2, 0))) == pytest.approx(-1 / math.sqrt(2), abs=1e-14)


def test_two_photons_one_port_balanced():
    out = apply_beam_splitter(fock_state(REG, (2, 0)), ("B", "C"), BAL)
    assert out.amplitude(FockKet((2, 0))) == pytest.approx(0.5, abs=1e-14)
    assert out.amplitude(FockKet((1, 1))) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert out.amplitude(FockKet((0, 2))) == pytest.approx(0.5, abs=1e-14)


def test_balanced_single_photon_equal_split_no_phase():
    out = apply_beam_splitter(fock_state(REG, (1, 0)), ("B", "C"), BAL)
    assert out.amplitude(FockKet((1, 0))) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert out.amplitude(FockKet((0, 1))) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize(
    "params",
    [
        BeamSplitterParams(math.pi / 4),
        BeamSplitterParams(math.pi / 3, 1.2),
        BeamSplitterParams(0.123, -2.5),
        BeamSplitterParams(1.4, 0.618),
    ],
)
def test_unitarity_residual_is_tiny(params):
    assert unitarity_check(params) < 1e-12


@pytest.mark.parametrize("n", range(CUTOFF + 1))
def test_splitter_block_columns_are_the_splitter_on_each_ket(n):
    theta, phi = 0.7, 1.3
    (block,) = splitter_blocks([(theta, phi)], [n])
    assert block.shape == (n + 1, n + 1)
    for k in range(n + 1):
        out = apply_beam_splitter(fock_state(REG, (k, n - k)), ("B", "C"), bs(theta, phi))
        assert list(block[:, k]) == [out.amplitude(FockKet((m, n - m))) for m in range(n + 1)]


angle = st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))


@given(angles=st.lists(angle, min_size=1, max_size=6), totals=st.lists(st.integers(0, CUTOFF), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_a_batch_of_splitter_blocks_holds_each_block_to_the_bit(angles, totals):
    # The sweep builds the blocks its memo lacks in one batch and keeps each
    # one by its angle, so a block must not depend on the batch it came in.
    batch = splitter_blocks(angles, totals)
    for k, pair in enumerate(angles):
        assert batch[k].tobytes() == splitter_blocks([pair], totals)[0].tobytes()


def reference_row(theta, phi, n1, n2):
    """The binomial expansion of the splitter row of |n1, n2>, each factor
    computed in place, in the order the package multiplies them."""
    c, s = math.cos(theta), math.sin(theta)
    f12, f21 = cmath.exp(-1j * phi) * s, -cmath.exp(1j * phi) * s
    total = n1 + n2
    row = [0j] * (total + 1)
    for j in range(n1 + 1):
        for k in range(n2 + 1):
            comb = math.comb(n1, j) * math.comb(n2, k)
            row[j + k] += comb * (c**j) * (f12 ** (n1 - j)) * (f21**k) * (c ** (n2 - k))
    norm_in = math.sqrt(math.factorial(n1) * math.factorial(n2))
    out = []
    for m1, coeff in enumerate(row):
        amp = coeff * math.sqrt(math.factorial(m1) * math.factorial(total - m1)) / norm_in
        if abs(amp) > 0.0:
            out.append((m1, amp))
    return tuple(out)


@given(theta=st.floats(-7.0, 7.0), phi=st.floats(-7.0, 7.0))
@settings(max_examples=50, deadline=None)
def test_mixing_rows_equal_the_expansion_to_the_bit(theta, phi):
    # The rows take their binomials and factorials from a per-pair table;
    # the arithmetic must stay that of the expansion, so results are equal.
    for n1 in range(CUTOFF + 1):
        for n2 in range(CUTOFF + 1 - n1):
            assert _mixing_row(theta, phi, n1, n2) == reference_row(theta, phi, n1, n2)


@pytest.mark.parametrize("theta,phi", [(math.nan, 0.0), (0.3, math.inf), (-math.inf, 0.0)])
def test_non_finite_angles_rejected(theta, phi):
    with pytest.raises(ValueError):
        BeamSplitterParams(theta, phi)


def test_composition_with_inverse_is_identity():
    psi = PureState(
        REG,
        {
            FockKet((2, 0)): 0.5,
            FockKet((1, 1)): 0.5j,
            FockKet((0, 2)): -0.5,
            FockKet((0, 0)): 0.5,
        },
    )
    once = apply_beam_splitter(psi, ("B", "C"), bs(0.9, 0.4))
    back = apply_beam_splitter(once, ("B", "C"), bs(-0.9, 0.4))
    for ket, amp in psi.terms():
        assert back.amplitude(ket) == pytest.approx(amp, abs=1e-12)


def test_photon_number_is_conserved_per_ket():
    psi = PureState(REG, {FockKet((2, 1)): 0.8, FockKet((0, 1)): 0.6})
    out = apply_beam_splitter(psi, ("B", "C"), bs(1.1, 0.7))
    for ket, _ in out.terms():
        assert sum(ket.occupations) in (3, 1)


def test_matches_matrix_exponential_oracle():
    """Random states through the splitter agree with expm of the generator.

    The oracle works on the full (cutoff+1)^2 grid; the sparse element only
    accepts kets whose total photon number fits under the cutoff, so the
    random state is drawn from that physical block.
    """
    rng = np.random.default_rng(7)
    dim = CUTOFF + 1
    block = [(n1, n2) for n1 in range(dim) for n2 in range(dim) if n1 + n2 <= CUTOFF]
    for _ in range(12):
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        coeffs = rng.normal(size=len(block)) + 1j * rng.normal(size=len(block))
        coeffs /= np.linalg.norm(coeffs)

        psi = PureState(REG, {FockKet(occ): c for occ, c in zip(block, coeffs)})
        out = apply_beam_splitter(psi, ("B", "C"), bs(theta, phi))

        vec = np.zeros(dim * dim, dtype=complex)
        for (n1, n2), c in zip(block, coeffs):
            vec[n1 * dim + n2] = c
        expected = dn.bs_unitary(theta, phi, dim) @ vec
        got = np.array(
            [out.amplitude(FockKet((n1, n2))) for n1 in range(dim) for n2 in range(dim)]
        )
        assert np.max(np.abs(got - expected)) < 1e-12
