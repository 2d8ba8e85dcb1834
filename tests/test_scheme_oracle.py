"""Every scheme circuit against the dense oracle, over drawn parameters.

``test_oracle_equivalence`` compares hand-picked cases at an absolute
tolerance, which cannot see a signal of size p^2 for a weak source.  This
property draws the scheme, a source efficiency down to 1e-10, splitters on
and off the null manifold, an absorber (unitary or lossy generic, a mixer of
any valid length and pump phase, or none, which runs the scheme's
``DEFAULT_TPAM`` entry) and the cutoff, and compares each
``ensemble_mirrors`` view with its ``dense_oracle`` counterpart at a relative
tolerance: p_success/p^2, every detector outcome divided by p^2, and the
normalized conditional distribution.  The oracle's mixers run at the drawn
pump phase too, so the pump phase is compared, not bounded.
"""

import cmath
import math
from functools import partial
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle as dn
import ensemble_mirrors as em
from photonherald import MAX_LENGTH_MULTIPLE, CaseId, manifold_completion

REL = 1e-9

#: Error bound of one entry of the oracle's splitter unitary (see
#: ``test_front_splitter_oracle``).
ORACLE_EPS = 1e-14

#: Rounding bound of the oracle's density sums, relative to the weight of the
#: inputs that hold a photon (see ``test_sweep_oracle``).
ORACLE_ROUNDING = 1e-15

#: The absorber of each scheme's ``DEFAULT_TPAM`` entry, as the paper states
#: it: a full generic absorber, or the mixer length of the pair-herald (2
#: cycles) and filter-split (3/2 cycles) schemes.
DEFAULT_GENERIC = (1.0, 0.0)
DEFAULT_LENGTH = {"pair_herald": 2.0, "filter_split": 1.5}

P = st.floats(-10.0, 0.0).map(lambda e: 10.0**e)
THETA0 = st.sampled_from([0.0, 1e-9, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi)
# On the manifold the closed form |1-beta|^2 cos^6 sin^2 of theta1 vanishes at multiples of pi/2.
THETA1 = st.sampled_from([0.0, 1e-9, math.pi / 6, math.pi / 2, math.pi]) | st.floats(-2 * math.pi, 2 * math.pi)
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
PHASE = st.floats(0.0, 2 * math.pi)
INTEGER_LENGTH = st.integers(1, int(MAX_LENGTH_MULTIPLE)).map(float)
HALF_ODD_LENGTH = st.integers(0, int(MAX_LENGTH_MULTIPLE) - 1).map(lambda k: k + 0.5)


@st.composite
def splitter_angles(draw):
    """(theta1, phi1, theta2, phi2): completed onto a drawn branch, or free."""
    theta1 = draw(THETA1)
    if draw(st.booleans()):
        theta2, phi1, phi2 = manifold_completion(theta1, draw(st.sampled_from(tuple(CaseId))))
        return theta1, phi1, theta2, phi2
    return theta1, draw(PHASE), draw(ANGLE), draw(PHASE)


@st.composite
def generic_absorber(draw):
    """(alpha, beta) of a unitary or lossy absorber, or None for the default."""
    if draw(st.booleans()):
        return None
    scale = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0))
    m = draw(st.floats(0.0, 1.0))
    alpha = scale * math.sqrt(1.0 - m * m) * cmath.exp(1j * draw(PHASE))
    return alpha, scale * m * cmath.exp(1j * draw(PHASE))


class Run(NamedTuple):
    """One drawn scheme run: the mirror's and the oracle's call for it.

    ``splitters`` counts the splitters a photon crosses, and ``interferes``
    says whether a lone photon's herald cancels in an interferometer.
    """

    p: float
    mirror: partial
    oracle: partial
    splitters: int
    interferes: bool


def mixer_run(kind, p, length, pump_phase, theta0, cutoff):
    """A pair-herald or filter-split run; a ``None`` length runs the default absorber."""
    mirror, oracle, crossed = {
        "pair_herald": (em.ensemble_pair_herald, dn.dense_pair_herald, 1),
        "filter_split": (em.ensemble_filter_split, dn.dense_filter_split, 2),
    }[kind]
    common = {"theta0": theta0, "cutoff": cutoff, "pump_phase": pump_phase}
    actual = DEFAULT_LENGTH[kind] if length is None else length
    return Run(p, partial(mirror, p, length, **common), partial(oracle, p, actual, **common), crossed, False)


@st.composite
def scheme_runs(draw):
    p, theta0 = draw(P), draw(THETA0)
    kind = draw(st.sampled_from(["main_generic", "main_mixer", "doubled", "pair_herald", "filter_split"]))
    # The doubled oracle holds a density on 4 modes and a 3-level medium:
    # (6^4 * 3)^2 entries, 240 MB and about 5 s, at cutoff 5.  No circuit
    # holds more than two photons in a mode, so its results do not depend on
    # the cutoff, and the doubled draws stop at 3.
    cutoff = draw(st.integers(2, 3 if kind == "doubled" else 5))
    common = {"theta0": theta0, "cutoff": cutoff}
    if kind in ("main_generic", "doubled"):
        angles = draw(splitter_angles())
        absorber = draw(generic_absorber())
        mirror, oracle = (
            (em.ensemble_main_generic, dn.dense_main_generic)
            if kind == "main_generic"
            else (em.ensemble_doubled_generic, dn.dense_doubled_generic)
        )
        got = partial(mirror, p, *(absorber or (None, None)), *angles, **common)
        want = partial(oracle, p, *(absorber or DEFAULT_GENERIC), *angles, **common)
        return Run(p, got, want, 3 if kind == "main_generic" else 5, True)
    if kind == "main_mixer":
        angles, length = draw(splitter_angles()), draw(INTEGER_LENGTH)
        condition = draw(st.sampled_from([(0, 0), (1, 1)]))
        common["pump_phase"] = draw(PHASE)
        got = partial(em.ensemble_main_fwm, p, length, condition, *angles, **common)
        want = partial(dn.dense_main_fwm, p, length, condition, *angles, **common)
        return Run(p, got, want, 3, True)
    length = draw(st.none() | (INTEGER_LENGTH if kind == "pair_herald" else HALF_ODD_LENGTH))
    return mixer_run(kind, p, length, draw(PHASE), theta0, cutoff)


def resolution(run, value):
    """How far the oracle's ``value`` may sit from the exact one.

    Inputs holding a photon carry weight feed = 2p - p^2.  Each splitter a
    photon crosses has blocks of at most 3 x 3 entries, each off by
    ORACLE_EPS, so an amplitude is off by about 3 ORACLE_EPS sqrt(feed) per
    splitter and a probability by twice that times sqrt(value).

    Where a lone photon's herald cancels in an interferometer (main and
    doubled), the oracle's density sums round that cancellation to a few
    ulp of feed, ORACLE_ROUNDING feed; once that outweighs REL p^2, below p
    of about 1e-6, the oracle cannot resolve a herald of size p^2 to REL.
    Pair-herald and filter-split cancel nothing there: over 600 draws their
    differences stayed below 1e-28 of feed.
    """
    feed = 2 * run.p - run.p * run.p
    value = max(value, 0.0)
    splitters = 6 * run.splitters * ORACLE_EPS * math.sqrt(value * feed)
    rounding = ORACLE_ROUNDING * feed if run.interferes else 0.0
    return splitters + rounding


def assert_close_over_p2(run, got, want, label):
    p2 = run.p * run.p
    assert abs(got / p2 - want / p2) <= (REL * abs(want) + resolution(run, want)) / p2, (label, got, want)


@settings(max_examples=60, deadline=None)
@given(run=scheme_runs())
# A weak source at a nearly reflecting front splitter: the pair amplitude,
# about p theta0, lies below 1e-14 while the oracle still resolves its herald,
# so an absolute amplitude cut shows here.
@example(run=mixer_run("pair_herald", 1e-6, None, 0.0, 1e-9, 2))
@example(run=mixer_run("filter_split", 1e-10, None, 0.0, 1e-6, 3))
def test_scheme_circuits_match_dense_oracle(run):
    got, want = run.mirror(), run.oracle()
    assert_close_over_p2(run, got["p_success"], want["p_success"], "p_success")
    outcomes = "joint" if "joint" in want else "detector"
    for key in set(got[outcomes]) | set(want[outcomes]):
        assert_close_over_p2(run, got[outcomes].get(key, 0.0), want[outcomes].get(key, 0.0), (outcomes, key))
    ps = max(want["p_success"], 0.0)
    bound = resolution(run, ps)
    if "conditional" in want and ps > 2 * bound:  # the oracle resolves the herald, so also what it heralds
        for n in set(got["conditional"]) | set(want["conditional"]):
            fraction = want["conditional"].get(n, 0.0)
            assert abs(got["conditional"].get(n, 0.0) - fraction) <= REL * fraction + 2 * bound / ps, (n, got, want)
