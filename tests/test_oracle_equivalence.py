"""Sparse-ensemble circuits against an independent dense density-matrix oracle.

The package tracks mixtures as weighted pure states and conditions them
branch by branch; the oracle in ``dense_oracle`` builds the full density
tensor and applies matrix-valued channels (beam splitters via the matrix
exponential of the generator).  Agreement across every scheme circuit is the
strongest internal consistency check the suite has.
"""

import math

import pytest

import dense_oracle as dn
import ensemble_mirrors as em

TOL = 1e-10


def assert_dist_close(got, want, label):
    keys = set(got) | set(want)
    for key in keys:
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=TOL), (
            f"{label}[{key}]"
        )


def assert_run_close(got, want, *, joint=False):
    assert got["p_success"] == pytest.approx(want["p_success"], abs=TOL)
    if joint:
        assert_dist_close(got["joint"], want["joint"], "joint")
    else:
        assert_dist_close(got["detector"], want["detector"], "detector")
    if "conditional" in got and want["p_success"] > 1e-12:
        assert_dist_close(got["conditional"], want["conditional"], "conditional")


MAIN_GENERIC_CASES = [
    # on the null manifold, unitary absorber
    (1.0, 1.0 + 0j, 0j, math.pi / 6, 0.0, math.pi / 3, 0.0),
    # complex coefficients, partial efficiency
    (0.8, math.sqrt(1 - 0.35**2 - 0.2**2) + 0j, 0.35 + 0.2j, math.pi / 6, 0.0, math.pi / 3, 0.0),
    # off the manifold (single photons leak to the detector)
    (0.65, 0.6 + 0.3j, 0.5 - 0.4j, 0.7, 0.3, 0.9, 0.0),
    # lossy absorber
    (0.9, 0.5 + 0j, 0.5 + 0j, 1.1, 0.0, 0.4, 1.2),
]


@pytest.mark.parametrize("args", MAIN_GENERIC_CASES)
def test_main_scheme_with_generic_absorber(args):
    assert_run_close(em.ensemble_main_generic(*args), dn.dense_main_generic(*args))


MAIN_FWM_CASES = [
    (0.9, 1.0, (0, 0), math.pi / 6, 0.0, math.pi / 3, 0.0),
    (1.0, 4.0, (0, 0), 0.6, 0.0, 0.97, 0.0),
    (0.75, 2.0, (1, 1), 0.7, 0.2, 0.9, 0.1),
]


@pytest.mark.parametrize("args", MAIN_FWM_CASES)
def test_main_scheme_with_mixer_absorber(args):
    assert_run_close(em.ensemble_main_fwm(*args), dn.dense_main_fwm(*args))


DOUBLED_CASES = [
    (0.7, 0j, -1.0 + 0j, math.pi / 6, 0.0, math.pi / 3, 0.0),
    (1.0, 1.0 + 0j, 0j, math.pi / 4, 0.0, math.pi / 4, 0.0),
    (0.85, 0.8 + 0j, 0.6 + 0j, 0.65, 0.4, 1.1, 0.0),
]


@pytest.mark.parametrize("args", DOUBLED_CASES)
def test_doubled_scheme(args):
    assert_run_close(
        em.ensemble_doubled_generic(*args), dn.dense_doubled_generic(*args), joint=True
    )


@pytest.mark.parametrize("p,m", [(1.0, 2.0), (0.6, 3.0), (0.8, 1.0)])
def test_pair_herald_scheme(p, m):
    assert_run_close(em.ensemble_pair_herald(p, m), dn.dense_pair_herald(p, m), joint=True)


@pytest.mark.parametrize("p,m", [(1.0, 1.5), (0.8, 4.5), (0.5, 2.5)])
def test_filter_split_scheme(p, m):
    assert_run_close(em.ensemble_filter_split(p, m), dn.dense_filter_split(p, m))


def test_packaged_runners_match_dense_success_probabilities():
    from photonherald import run_filter_split_scheme, run_pair_herald_scheme

    assert run_pair_herald_scheme(1.0, 2.0).p_success == pytest.approx(
        dn.dense_pair_herald(1.0, 2.0)["p_success"], abs=TOL
    )
    assert run_filter_split_scheme(1.0, 1.5).p_success == pytest.approx(
        dn.dense_filter_split(1.0, 1.5)["p_success"], abs=TOL
    )


def test_front_splitter_reduction_matches_dense_partial_trace():
    from photonherald import reduce_through_bs0

    for p in (0.25, 0.6, 1.0):
        for theta0 in (math.pi / 4, 0.3, 1.2):
            rho = dn.front_splitter(p, theta0, 0.0, 5)
            want = dn.number_distribution(rho, 0)
            got, _ = reduce_through_bs0(p, theta0)
            assert_dist_close(got, want, "front")
