"""The batched sweep against the dense oracle, over drawn grids.

``test_analysis`` checks ``sweep_rows`` against single runs, but the two
share the front-splitter reduction, the splitter rows and the absorber, so a
defect in any of those would pass there.  This property compares every row
of a drawn grid with the independent density matrix of
``dense_oracle.dense_main_generic`` instead, at a relative tolerance, for
weak sources, every constraint branch, angles on and off the null points of
the closed form, absorbers inside the unit disc and every cutoff a scheme
uses.
"""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dn
from photonherald import CaseId, SweepSpec, sweep_rows

REL = 1e-9

#: Error bound of one entry of the oracle's splitter unitary (see
#: ``test_front_splitter_oracle``).
ORACLE_EPS = 1e-14

#: Rounding bound of the oracle's herald probability, relative to the weight
#: of the inputs that hold a photon.  The oracle sums products of density
#: entries, so a herald that cancels to 0 in exact arithmetic, such as a
#: lone photon's, reads as a few ulp of that weight: at most 5.7e-17 of it
#: over 400 drawn points.
ORACLE_ROUNDING = 1e-15

#: (theta2, phi1) completing theta1 onto each branch; phi2 is 0.
COMPLETION = {
    CaseId.SUM_PLUS: lambda t: (math.pi / 2 - t, 0.0),
    CaseId.SUM_MINUS: lambda t: (-math.pi / 2 - t, 0.0),
    CaseId.DIFF_PLUS: lambda t: (t - math.pi / 2, math.pi),
    CaseId.DIFF_MINUS: lambda t: (t + math.pi / 2, math.pi),
}


def axis(values, max_size=3, order=sorted):
    return st.lists(values, min_size=1, max_size=max_size).map(lambda xs: tuple(order(xs)))


P = st.floats(-10.0, 0.0).map(lambda e: 10.0**e)
THETA0 = st.sampled_from([0.0, 1e-9, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi)
# The closed form |1-beta|^2 cos^6 sin^2 of theta1 vanishes at multiples of pi/2.
THETA1 = st.sampled_from([0.0, 1e-9, math.pi / 6, math.pi / 2, math.pi]) | st.floats(-2 * math.pi, 2 * math.pi)
BETA = st.sampled_from([0j, 1 + 0j, -1 + 0j]) | st.builds(
    lambda r, phase: r * cmath.exp(1j * phase), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)
)


def resolution(p, value):
    """How far the oracle's herald probability may sit from the exact one.

    Only the two-photon input sector, of weight at most p^2, heralds on the
    manifold.  Its amplitudes pass three splitter blocks of at most 3 x 3
    entries, each off by ORACLE_EPS, so a herald amplitude is off by about
    10 ORACLE_EPS p and the probability by 20 ORACLE_EPS p sqrt(value).  On
    top comes the rounding of the density sums, ORACLE_ROUNDING times the
    weight 2p - p^2 of the inputs with a photon; the one-photon sector's
    part of it outweighs a herald of size p^2 once p is below about 1e-6,
    where the oracle cannot resolve p_success/p^2 to REL.  Below the bound
    the oracle cannot tell a value from its rounding, so the test allows the
    bound on top of REL.
    """
    return 20 * ORACLE_EPS * p * math.sqrt(value) + ORACLE_ROUNDING * (2 * p - p * p)


@st.composite
def sweep_specs(draw):
    # At most 3 values per axis; the oracle costs about 20 ms a point, so
    # theta0 and p get at most 2 and the grid at most 12 points.
    theta1, beta = draw(axis(THETA1)), draw(axis(BETA, 2, tuple))
    theta0, p = draw(axis(THETA0, 2)), draw(axis(P, 2))
    if len(theta1) * len(beta) * len(theta0) * len(p) > 12:
        theta0, p = theta0[:1], p[:1]
    return SweepSpec(theta0=theta0, theta1=theta1, beta=beta, p=p, case=draw(st.sampled_from(tuple(CaseId))))


@settings(max_examples=30, deadline=None)
@given(spec=sweep_specs(), cutoff=st.integers(2, 5))
def test_sweep_rows_match_dense_oracle(spec, cutoff):
    rows = sweep_rows(spec, cutoff=cutoff)
    assert len(rows) == len(spec.theta0) * len(spec.theta1) * len(spec.beta) * len(spec.p)
    for row in rows:
        p, beta, theta1 = row["p"], complex(row["beta_re"], row["beta_im"]), row["theta1_rad"]
        theta2, phi1 = COMPLETION[spec.case](theta1)
        assert row["theta2_rad"] == theta2
        alpha = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
        want = dn.dense_main_generic(p, alpha, beta, theta1, phi1, theta2, 0.0, theta0=row["theta0_rad"], cutoff=cutoff)
        ps, bound = max(want["p_success"], 0.0), resolution(p, max(want["p_success"], 0.0))
        assert abs(row["p_success_over_p2"] - ps / p**2) <= (REL * ps + bound) / p**2, (row, want)
        if ps > 2 * bound:  # the oracle resolves the herald, so also what it heralds
            fidelity = want["conditional"].get(1, 0.0)
            assert abs(row["fidelity"] - fidelity) <= REL * fidelity + 2 * bound / ps, (row, want)
