"""The front-splitter reduction against the dense oracle, over drawn parameters.

Single runs and sweeps both take B's weights from ``reduce_through_bs0``'s
arithmetic, and the doubled scheme mixes the source products in its first
stage, so comparing runs with each other cannot see a defect in either.
These properties compare them with the independent density matrix of
``dense_oracle`` instead, at a relative tolerance, for weak sources, any
splitter angle and phase, and oracle cutoffs from 2 to 5.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dn
import ensemble_mirrors as em
from photonherald import DEFAULT_TPAM, DOUBLED, BeamSplitterParams, SchemeConfig, SourceSpec, build_circuit, reduce_through_bs0

REL = 1e-9

#: Error bound of one entry of the oracle's splitter unitary, the matrix
#: exponential of its generator.  Against the closed-form rows the largest
#: error seen is 2.3e-15, absolute, at any angle.
ORACLE_EPS = 1e-14

P = st.sampled_from([0.0, 1.0]) | st.floats(-12.0, 0.0).map(lambda e: 10.0**e)
THETA0 = st.sampled_from([0.0, 1e-9, math.pi / 2]) | st.floats(-2 * math.pi, 2 * math.pi)
PHI0 = st.floats(0.0, 2 * math.pi)
CUTOFF = st.integers(2, 5)


def sector_weights(p):
    """Input weight of each total photon number N of the two sources."""
    return np.array([(1.0 - p) ** 2, 2.0 * p * (1.0 - p), p * p])


def resolution(feed, want, feed_other=None, want_other=None):
    """How far the oracle's value may sit from the exact one.

    A density entry fed by input weight P through splitter amplitudes u and
    u' is P u u'*.  Entries of the unitary off by ORACLE_EPS move it by up
    to ORACLE_EPS P (|u| + |u'|) + ORACLE_EPS^2 P, which in terms of the
    diagonal values w = P |u|^2 and w' = P |u'|^2 is the bound returned
    here (for a weight, w' = w, and P sums over the inputs that feed it).
    The oracle cannot resolve a value below that, so its relative error
    exceeds REL once a splitter amplitude is under about 2e-5; the test
    allows the bound on top of REL."""
    feed_other = feed if feed_other is None else feed_other
    want_other = want if want_other is None else want_other
    return ORACLE_EPS * (np.sqrt(feed * want) + np.sqrt(feed_other * want_other)) + ORACLE_EPS**2 * np.sqrt(
        feed * feed_other
    )


@settings(max_examples=150, deadline=None)
@given(p=P, theta0=THETA0, phi0=PHI0, cutoff=CUTOFF)
def test_reduced_front_splitter_matches_dense_partial_trace(p, theta0, phi0, cutoff):
    got, _ = reduce_through_bs0(p, theta0, phi0, cutoff=cutoff)
    want = dn.number_distribution(dn.front_splitter(p, theta0, phi0, cutoff + 1), 0)
    # n photons in B come from inputs with N >= n photons.
    feed = np.cumsum(sector_weights(p)[::-1])[::-1]
    for n in range(cutoff + 1):
        w = max(want.get(n, 0.0), 0.0)
        assert abs(got.get(n, 0.0) - w) <= REL * w + resolution(feed[n] if n <= 2 else 0.0, w), (n, got, want)


@settings(max_examples=150, deadline=None)
@given(p=P, theta0=THETA0, phi0=PHI0, cutoff=CUTOFF)
def test_joint_front_splitter_matches_dense_density(p, theta0, phi0, cutoff):
    dim = cutoff + 1
    rho = dn.product_density([dn.mixture_density(p, dim), dn.mixture_density(p, dim)])
    want = dn.apply_op(rho, dn.bs_unitary(theta0, phi0, dim), (0, 1), [dim, dim]).reshape(dim * dim, dim * dim)
    # The doubled scheme's source products, each through its circuit's first stage, weighted by P_a P_b.
    cfg = SchemeConfig(SourceSpec(p), DEFAULT_TPAM[DOUBLED], BeamSplitterParams(theta0, phi0), variant=DOUBLED)
    circuit = build_circuit(cfg)
    front = circuit._replace(stages=circuit.stages[:1])
    got = np.zeros_like(want)
    for weight, state in zip(*em.inputs_of(cfg)):
        psi = np.zeros(dim * dim, dtype=complex)
        for ket, amp in front.prepare(state).terms():
            a, b = ket.occupations
            psi[a * dim + b] = amp
        got += weight * np.outer(psi, psi.conj())
    totals = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    feed = np.where(totals <= 2, sector_weights(p)[np.minimum(totals, 2)], 0.0)
    diagonal = np.abs(np.diag(want))
    bound = REL * np.abs(want) + resolution(feed[:, None], diagonal[:, None], feed[None, :], diagonal[None, :])
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) - bound)
