"""The null-condition manifold, closed forms, optimizers, scans, sweeps."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonherald import (
    MAX_SWEEP_POINTS,
    CaseId,
    GenericTpam,
    SweepSpec,
    build_circuit,
    closed_form_ps,
    golden_section_maximize,
    jf_length_scan,
    manifold_completion,
    manifold_config,
    optimize_ps,
    project_number,
    run_main_scheme,
    sweep_rows,
)
from photonherald import analysis, elements, schemes
from photonherald.verify import invariant_checks, paper_value_checks
from dense_oracle import null_branch
from test_fingerprints import load_tool

PEAK = 27.0 / 256.0
BETA_ONE_CYCLE = 0.41302457983158963
DEG30 = math.pi / 6


def simulate_manifold_point(beta, theta1, case):
    """p_success of the main circuit at a manifold point with perfect
    sources, which there is the closed form's p_success / p^2."""
    return run_main_scheme(manifold_config(theta1, case, tpam=GenericTpam.unitary(beta))).p_success


# ---------------------------------------------------------------------------
# null-condition manifold


@pytest.mark.parametrize(
    "theta1,theta2,phi1,phi2,branch",
    [
        (math.pi / 6, math.pi / 3, 0.0, 0.0, "sum_plus"),
        (2 * math.pi / 3, math.pi / 6, 0.0, math.pi, "diff_plus"),
        (math.pi / 6, -math.pi / 2 - math.pi / 6, 0.0, 0.0, "sum_minus"),
        (math.pi / 6, math.pi / 3, 0.0, 0.1, None),
        (0.5, 0.6, 0.0, 0.0, None),
    ],
)
def test_null_branch_check_names_the_branch_or_the_violation(theta1, theta2, phi1, phi2, branch):
    assert null_branch(theta1, theta2, phi1, phi2) == branch


@pytest.mark.parametrize("case", tuple(CaseId))
@pytest.mark.parametrize("theta1", [0.3, math.pi / 6, 1.0, 1.4])
def test_completion_classifies_back_to_itself(case, theta1):
    theta2, phi1, phi2 = manifold_completion(theta1, case)
    assert null_branch(theta1, theta2, phi1, phi2) == case


def test_completion_of_violated_case_raises():
    with pytest.raises(ValueError):
        manifold_completion(0.5, "violated")


@pytest.mark.parametrize("case", tuple(CaseId))
def test_completion_a_double_cannot_hold_is_rejected(case):
    # At 1e16 the rounded completion puts theta1 +- theta2 at 2, not +-pi/2;
    # at 1e6 the rounding error (about 6e-11) is still inside ANGLE_TOL.
    with pytest.raises(ValueError, match="too large"):
        manifold_config(1e16, case)
    theta2, phi1, phi2 = manifold_completion(1e6, case)
    assert null_branch(1e6, theta2, phi1, phi2) == case
    assert manifold_config(1e6, case).bs2.theta == theta2
    assert manifold_config(1e16, case, theta2=0.3).bs2.theta == 0.3


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_at_thirty_degrees():
    assert closed_form_ps(0.0, DEG30) == pytest.approx(PEAK, abs=1e-15)


def test_closed_form_transparent_absorber_is_null():
    assert closed_form_ps(1.0, 0.8) == 0.0


def test_closed_form_one_cycle_mixer():
    got = closed_form_ps(BETA_ONE_CYCLE, DEG30)
    assert got == pytest.approx(0.03633821830004222, abs=1e-14)


def test_closed_form_reflection_identity():
    """The complementary-angle form of the same surface: evaluating the
    cos^6 sin^2 family at theta equals the sin^6 cos^2 family at pi/2 - theta."""
    for beta in (0.0, -1.0, 0.25 + 0.55j):
        for theta1 in (0.2, DEG30, 0.9, 1.3):
            mirrored = (
                abs(1.0 - beta) ** 2
                * math.sin(math.pi / 2 - theta1) ** 6
                * math.cos(math.pi / 2 - theta1) ** 2
            )
            assert closed_form_ps(beta, theta1) == pytest.approx(
                mirrored, abs=1e-14
            )


def test_formula_matches_simulator_everywhere():
    for case in CaseId:
        for theta1 in (0.3, DEG30, 0.9, 1.3):
            for beta in (0.0, -1.0, BETA_ONE_CYCLE, 0.25 + 0.55j):
                simulated = simulate_manifold_point(beta, theta1, case)
                assert simulated == pytest.approx(closed_form_ps(beta, theta1), abs=1e-10)


def test_simulator_benchmark_points():
    assert simulate_manifold_point(0.0, math.pi / 4, CaseId.SUM_PLUS) == pytest.approx(
        1.0 / 16.0, abs=1e-12
    )
    assert simulate_manifold_point(-1.0, DEG30, CaseId.SUM_PLUS) == pytest.approx(
        27.0 / 64.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# optimization


def test_golden_section_on_parabola():
    x, fx = golden_section_maximize(lambda x: -((x - 1.3) ** 2), 0.0, 2.0)
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_optimum_sits_at_thirty_degrees():
    theta_star, ps_star = optimize_ps(0.0)
    symmetric = [DEG30, math.pi - DEG30, math.pi + DEG30, 2 * math.pi - DEG30]
    assert min(abs(theta_star - t) for t in symmetric) < 1e-6
    assert ps_star == pytest.approx(PEAK, abs=1e-10)


def test_optimum_value_scales_with_absorber():
    _, ps_star = optimize_ps(-1.0)
    assert ps_star == pytest.approx(27.0 / 64.0, abs=1e-10)
    _, ps_star = optimize_ps(1.0 / 3.0)
    assert ps_star == pytest.approx(3.0 / 64.0, abs=1e-10)


def test_optimum_with_complex_absorber():
    beta = 0.25 + 0.55j
    theta_star, ps_star = optimize_ps(beta)
    symmetric = [DEG30, math.pi - DEG30, math.pi + DEG30, 2 * math.pi - DEG30]
    assert min(abs(theta_star - t) for t in symmetric) < 1e-6
    assert ps_star == pytest.approx(PEAK * abs(1.0 - beta) ** 2, abs=1e-10)


@pytest.mark.parametrize("beta", [math.nan, "0.5"])
def test_optimize_refuses_a_beta_that_is_not_a_finite_number(beta):
    with pytest.raises(ValueError, match="beta"):
        optimize_ps(beta)


@pytest.mark.parametrize("case", tuple(CaseId))
def test_optimum_is_reached_on_every_branch(case):
    theta_star, ps_star = optimize_ps(0.0)
    assert simulate_manifold_point(0.0, theta_star, case) == pytest.approx(ps_star, abs=1e-10)
    assert ps_star == pytest.approx(PEAK, abs=1e-10)


# ---------------------------------------------------------------------------
# mixer length scans


def test_scan_interferometer_composition_values():
    rows = jf_length_scan([1, 4])
    assert len(rows) == 2
    assert rows[0] == pytest.approx(PEAK * (1.0 - BETA_ONE_CYCLE) ** 2, abs=1e-12)
    assert rows[0] == pytest.approx(0.03633821830004222, abs=1e-12)
    assert rows[1] == pytest.approx(0.044563330656564176, abs=1e-12)


def test_scan_running_best_approaches_supremum():
    rows = jf_length_scan(range(1, 13))
    best = max(rows)
    assert best == pytest.approx(0.04675588965488818, abs=1e-12)
    assert abs(best - 3.0 / 64.0) < 5e-4
    # the supremum itself is never attained at integer length
    assert all(r < 3.0 / 64.0 for r in rows)


def test_scan_filter_split_composition():
    rows = jf_length_scan([1.5, 2.5])
    assert len(rows) == 2
    assert rows[0] == pytest.approx(0.22910708682504716, abs=1e-12)
    beta = (2.0 + math.cos(2.5 * math.pi * math.sqrt(1.5))) / 3.0
    assert rows[1] == pytest.approx(beta**2 / 4.0, abs=1e-12)


def test_scan_filter_split_running_best_approaches_quarter():
    rows = jf_length_scan([k + 0.5 for k in range(25)])
    best = max(rows)
    assert abs(best - 0.25) < 5e-4
    assert all(r < 0.25 for r in rows)


def test_scan_rejects_impossible_compositions():
    for m in (1.25, 0.75, 2.1):
        with pytest.raises(ValueError, match="integer or half-odd"):
            jf_length_scan([2, m])


@pytest.mark.parametrize("m", [True, False, "2", "1.5"])
def test_scan_refuses_a_length_that_is_a_boolean_or_a_string(m):
    # Each length reaches FwmParams as given: converted first, True would be
    # the row of M = 1 and "2" the row of M = 2.
    with pytest.raises(ValueError, match="not booleans or strings"):
        jf_length_scan([m])


# ---------------------------------------------------------------------------
# sweep spec parsing


def test_sweep_spec_from_mapping_with_ranges():
    spec = SweepSpec.from_mapping(
        {
            "theta1": {"start": 10, "stop": 50, "steps": 5, "unit": "deg"},
            "beta": [0, [0.3, 0.4], "0.1+0.2j"],
            "p": [0.5, 1.0],
        }
    )
    assert len(spec.theta1) == 5
    assert spec.theta1[0] == pytest.approx(math.radians(10))
    assert spec.theta1[-1] == pytest.approx(math.radians(50))
    assert spec.beta == (0j, 0.3 + 0.4j, 0.1 + 0.2j)
    assert spec.p == (0.5, 1.0)


def test_sweep_spec_rejects_unknown_axes():
    with pytest.raises(ValueError):
        SweepSpec.from_mapping({"theta9": [0.1]})


def test_sweep_spec_rejects_empty_axis():
    with pytest.raises(ValueError):
        SweepSpec.from_mapping({"p": []})


def test_sweep_spec_rejects_decreasing_axis():
    with pytest.raises(ValueError):
        SweepSpec.from_mapping({"p": [1.0, 0.5]})


def test_sweep_spec_rejects_deg_on_p_axis():
    with pytest.raises(ValueError):
        SweepSpec.from_mapping({"p": {"start": 0, "stop": 1, "steps": 3, "unit": "deg"}})


@pytest.mark.parametrize("steps", [4.5, "4.5", float("inf"), float("nan")])
def test_sweep_spec_rejects_fractional_steps(steps):
    with pytest.raises(ValueError, match="steps"):
        SweepSpec.from_mapping({"theta1": {"start": 0, "stop": 1, "steps": steps}})


def test_sweep_spec_accepts_integral_float_steps():
    assert len(SweepSpec.from_mapping({"theta1": {"start": 0, "stop": 1, "steps": 3.0}}).theta1) == 3


def test_sweep_spec_rejects_oversized_range_before_building_it():
    # a billion steps would take many GB if the axis were built first
    with pytest.raises(ValueError, match="points"):
        SweepSpec.from_mapping({"theta1": {"start": 0, "stop": 1, "steps": 1e9}})


def test_sweep_spec_rejects_oversized_product_of_small_axes():
    side = math.isqrt(MAX_SWEEP_POINTS) + 1
    with pytest.raises(ValueError, match="points"):
        SweepSpec.from_mapping(
            {"theta1": {"start": 0, "stop": 1, "steps": side}, "p": {"start": 0, "stop": 1, "steps": side}}
        )


def test_sweep_spec_checks_its_values_when_built():
    # Text reads as a number before the order check, so "2" < "10" here.
    assert SweepSpec(theta1=(0.5, "1")).theta1 == (0.5, 1.0)
    assert SweepSpec(theta1=("2", "10")).theta1 == (2.0, 10.0)
    spec = SweepSpec(theta0=[0, 1], theta1=(0, "1"), beta=(0, "0.5j"), p=(0, 1))
    assert all(type(v) is float for v in spec.theta0 + spec.theta1 + spec.p)
    assert spec.beta == (0j, 0.5j) and all(type(v) is complex for v in spec.beta)
    with pytest.raises(ValueError, match="^p must be a finite real number"):
        SweepSpec(p=(0.5, None))
    with pytest.raises(ValueError, match="^theta1 must be a finite real number"):
        SweepSpec(theta1=(0.5, math.nan))


def test_sweep_spec_constructor_checks_grid_size(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_SWEEP_POINTS", 3)
    with pytest.raises(ValueError, match="points"):
        SweepSpec(theta1=(0.1, 0.2), p=(0.5, 1.0))


def test_sweep_rows_grid_order_and_manifold_snap():
    spec = SweepSpec.from_mapping(
        {
            "theta1": [DEG30, math.pi / 4],
            "beta": [0],
            "p": [0.5, 1.0],
        }
    )
    rows = sweep_rows(spec)
    assert len(rows) == 4
    # theta1-major over p; theta2 snapped to the sum_plus completion
    assert [r["theta1_rad"] for r in rows] == [DEG30, DEG30, math.pi / 4, math.pi / 4]
    assert rows[0]["theta2_rad"] == pytest.approx(math.pi / 2 - DEG30)
    # on the manifold the heralded state is always pure |1>
    for r in rows:
        assert r["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert r["p_success_over_p2"] == pytest.approx(
            closed_form_ps(0.0, r["theta1_rad"]), abs=1e-12
        )
    assert rows[-1]["p_success"] == pytest.approx(1.0 / 16.0, abs=1e-12)


def assert_row_matches_single_run(row, case):
    """One sweep row against ``run_main_scheme`` at its point: probabilities
    within 1e-13 relative, an exact 0 or NaN kept, fidelity within 1e-13."""
    beta = complex(row["beta_re"], row["beta_im"])
    cfg = manifold_config(
        row["theta1_rad"], case, p=row["p"], tpam=GenericTpam.unitary(beta), theta0=row["theta0_rad"]
    )
    result = run_main_scheme(cfg)
    ratio = result.details["p_success_over_p2"]
    for got, want in ((row["p_success"], result.p_success), (row["p_success_over_p2"], math.nan if ratio is None else ratio)):
        if want == 0.0 or math.isnan(want):
            assert got == want or math.isnan(got) and math.isnan(want), (row, want)
        else:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), row
    assert row["fidelity"] == pytest.approx(result.fidelity, rel=0.0, abs=1e-13), row
    assert row["theta2_rad"] == cfg.bs2.theta


def test_sweep_rows_equal_uncached_single_runs():
    # The sweep sums in another order than a single run, so rows agree to
    # rounding, not bit for bit.
    spec = SweepSpec(
        theta0=(0.6, 0.8), theta1=(0.3, DEG30), beta=(0j, 0.3 + 0.1j), p=(0.5, 1.0), case=CaseId.DIFF_MINUS
    )
    rows = sweep_rows(spec)
    for row in rows:
        assert_row_matches_single_run(row, spec.case)


@pytest.mark.parametrize("theta0", [0.0, 1e-9, 0.3, math.pi / 4, math.pi / 2 - 1e-9, math.pi / 2, 2.0])
@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-200, 1.5e-154, 1e-150, 1e-12, 0.3, 0.5, 1.0])
def test_sweep_row_matches_single_run_where_front_weights_are_subnormal(p, theta0):
    # Null and near-null splitter angles, and sources down to where B's
    # weights, and p^2, are subnormal or 0, each as a whole sweep row.
    (row,) = sweep_rows(SweepSpec(theta0=(theta0,), p=(p,)))
    assert math.isfinite(row["p_success"])
    assert math.isfinite(run_main_scheme(manifold_config(p=p, theta0=theta0)).p_success)
    assert_row_matches_single_run(row, CaseId.SUM_PLUS)


@pytest.mark.parametrize("case", tuple(CaseId))
def test_sweep_row_matches_single_run_where_an_overflowing_sector_heralds(case):
    # At theta1 = 1e6 the rounded completion leaves the one-photon sector a
    # herald of rounding size, and at p = 5e-324 that sector's weight over
    # p^2 overflows, so it outweighs the two-photon sector.
    (row,) = sweep_rows(SweepSpec(theta1=(1e6,), p=(5e-324,), case=case))
    assert row["p_success_over_p2"] == math.inf
    assert_row_matches_single_run(row, case)


def test_sweep_rows_do_not_depend_on_how_the_grid_is_chunked(monkeypatch):
    # A large grid runs in chunks of (theta1, beta) pairs; chunks of 2 cut
    # both axes here, and every row must keep its bits.
    spec = SweepSpec(
        theta0=(0.3, math.pi / 4), theta1=(0.0, 0.2, DEG30, 1.0, 4.0), beta=(0j, 0.5j, 0.6 + 0.8j), p=(1e-150, 0.5)
    )
    whole = sweep_rows(spec)
    monkeypatch.setattr(analysis, "_CHUNK", 2)
    assert repr(sweep_rows(spec)) == repr(whole)


@settings(max_examples=300, deadline=None, database=None)
@given(
    case=st.sampled_from(tuple(CaseId)),
    theta1=st.floats(-2 * math.pi, 2 * math.pi),
    theta0=st.floats(-2 * math.pi, 2 * math.pi),
    p=st.floats(0.0, 1.0),
    magnitude=st.floats(0.0, 1.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_sweep_sector_heralds_equal_the_single_run_rows(case, theta1, theta0, p, magnitude, phase):
    # The sweep engine's h[x, theta1, beta, n] is the table of a single
    # run's rows in numpy form: x = 0 is each sector's herald q_n, x = 1 the
    # part of it that leaves one photon in C.  Every sector n = 0, 1, 2 runs
    # at unit norm, and the run's own rows, at its weights, carry the same q_n.
    cfg = manifold_config(theta1, case, p=p, theta0=theta0, tpam=GenericTpam.unitary(cmath.rect(magnitude, phase)))
    circuit = build_circuit(cfg)
    h = analysis._sector_heralds([(cfg.bs1.theta, cfg.bs1.phi)], [(cfg.bs2.theta, cfg.bs2.phi)], [cfg.tpam.beta])
    unit = [(n, 1.0, 1.0, schemes._fock(("B",), (n,))) for n in range(3)]
    rows = list(schemes._sectors(circuit, unit))
    assert [row.n for row in rows] == [0, 1, 2]
    for row in rows:
        one = sum(project_number(state, "C", 1)[1] for state in row.states)
        assert abs(h[0, 0, 0, row.n] - row.q) <= 1e-12, (row.n, h[:, 0, 0], row.q)
        assert abs(h[1, 0, 0, row.n] - one) <= 1e-12, (row.n, h[:, 0, 0], one)
    for row in schemes._sectors(circuit, schemes._inputs(cfg)):
        assert row.q == rows[row.n].q


def clear_sweep_memo():
    """Empty the sweep's stage-matrix memos and the splitter rows under them."""
    analysis._SPLITTER_MEMO.clear()
    analysis._absorber_block.cache_clear()
    analysis._layout.cache_clear()
    elements._mixing_row.cache_clear()


def sweep_memo_size():
    return len(analysis._SPLITTER_MEMO) + analysis._absorber_block.cache_info().currsize + analysis._layout.cache_info().currsize


def cold_rows(spec):
    clear_sweep_memo()
    return repr(sweep_rows(spec))


MEMO_SPEC = SweepSpec(theta0=(0.3, 1.1), theta1=(0.2, 0.2, DEG30, 1.0), beta=(0j, 0.5j, 0j), p=(1e-150, 0.5))


def test_a_warm_sweep_builds_no_stage_matrix(monkeypatch):
    calls = []
    for name in ("splitter_blocks", "apply_generic_tpam", "build_circuit", "manifold_config"):
        kernel = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args, kernel=kernel, **kwargs: calls.append(1) or kernel(*args, **kwargs))
    sweep_rows(MEMO_SPEC)
    calls.clear()
    sweep_rows(MEMO_SPEC)
    assert calls == []


def test_the_sweep_memo_moves_no_bit():
    # Rows are compared as the repr of every value, so signed zeros count.
    cold = cold_rows(MEMO_SPEC)
    assert repr(sweep_rows(MEMO_SPEC)) == cold
    # Keys that compare equal share a block: -0.0 reads the block of 0.0,
    # and beta = -0j the absorber of 0j, and the rows still match a fresh cache.
    signed = SweepSpec(theta1=(-0.0,), beta=(complex(0.0, -0.0),), p=(0.5,), case=CaseId.DIFF_PLUS)
    unsigned = SweepSpec(theta1=(0.0,), beta=(0j,), p=(0.5,), case=CaseId.DIFF_PLUS)
    fresh = cold_rows(signed)
    assert "-0.0" in fresh
    clear_sweep_memo()
    sweep_rows(unsigned)
    size = sweep_memo_size()
    assert repr(sweep_rows(signed)) == fresh
    assert sweep_memo_size() == size


def test_the_sweep_memo_holds_read_only_arrays(monkeypatch):
    clear_sweep_memo()
    kept = {}
    for name in ("_layout", "_absorber_block"):
        memo = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args, memo=memo: kept.setdefault(args, memo(*args)))
    sweep_rows(MEMO_SPEC)
    layouts = [value for value in kept.values() if isinstance(value, tuple)]
    absorbers = [value for value in kept.values() if not isinstance(value, tuple)]
    assert len(layouts) == 1 and len(absorbers) == 2 and len(analysis._SPLITTER_MEMO) == 2 * 3
    for array in [layouts[0].keep, layouts[0].one, layouts[0].inputs, *absorbers, *analysis._SPLITTER_MEMO.values()]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def test_the_sweep_memo_stays_within_its_bound():
    # The verify suites run no sweep, so they leave the memo as it is.
    sweep_rows(MEMO_SPEC)
    size = sweep_memo_size()
    paper_value_checks()
    invariant_checks()
    assert sweep_memo_size() == size
    # A grid with more theta1 values than the memo holds blocks: after a
    # small grid, and after it alone, the memo stays within its bound.
    many = SweepSpec(theta1=tuple(i * 1e-3 for i in range(analysis._BLOCK_MEMO_SIZE + 100)), case=CaseId.SUM_MINUS)
    few = SweepSpec(theta1=tuple(0.5 + i * 1e-3 for i in range(300)), beta=(0j, 0.5))
    for spec in (few, many, many, few, few):
        rows = repr(sweep_rows(spec))
        assert len(analysis._SPLITTER_MEMO) <= analysis._BLOCK_MEMO_SIZE
        assert rows == cold_rows(spec)


SWEEP_AXIS_VALUE = {"theta0": 0.3, "theta1": 0.3, "beta": 0j, "p": 0.0}


@pytest.mark.parametrize(
    "axis,bad",
    [
        ("theta0", math.nan),
        ("theta0", math.inf),
        ("theta0", True),
        ("theta1", math.nan),
        ("theta1", math.inf),
        ("theta1", True),
        ("theta1", 1e16),
        ("p", math.nan),
        ("p", math.inf),
        ("p", True),
        ("p", 1.5),
        ("beta", 1.5),
        ("beta", 0.9 + 0.9j),
        ("beta", complex(math.nan, 0.0)),
        ("beta", True),
    ],
)
def test_sweep_rows_rejects_a_bad_axis_value_as_manifold_config_does(axis, bad):
    # The bad value is second on its axis, so the per-axis check sees it.
    # The spec checks it when built; a beta is checked as the absorber it makes.
    with pytest.raises(ValueError) as single:
        GenericTpam.unitary(bad) if axis == "beta" else manifold_config(**{axis: bad})
    with pytest.raises(ValueError) as swept:
        sweep_rows(SweepSpec(**{axis: (SWEEP_AXIS_VALUE[axis], bad)}))
    assert str(swept.value) == str(single.value)


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("case", tuple(CaseId))
def test_sweep_rows_match_single_runs_on_edge_grid(case, memo):
    # Null angles, a vanishing source and a fully reflecting front splitter:
    # rows where single runs prune every herald amplitude to exactly 0, or
    # keep a herald of 1e-300, must read the same from the batched sweep,
    # whether it builds its stage matrices afresh or reads them from its memo.
    # The grid is the one ``tools/fingerprints.py`` hashes, so the fingerprint pins these rows' bytes.
    spec = SweepSpec(**load_tool().EDGE_SWEEP_AXES, case=case)
    clear_sweep_memo()
    if memo == "warm":
        sweep_rows(spec)
    rows = sweep_rows(spec)
    assert len(rows) == 4 * 7 * 5 * 5
    for row in rows:
        assert_row_matches_single_run(row, case)


@pytest.mark.parametrize("case", ["violated", "bogus"])
def test_sweep_spec_rejects_a_case_that_is_no_branch(case):
    with pytest.raises(ValueError, match=case):
        SweepSpec(case=case)
    with pytest.raises(ValueError, match=case):
        SweepSpec.from_mapping({"case": case})


def test_sweep_spec_holds_its_case_as_a_branch():
    assert SweepSpec(case="sum_minus").case is CaseId.SUM_MINUS
    assert SweepSpec.from_mapping({"case": "diff_plus"}).case is CaseId.DIFF_PLUS


@pytest.mark.parametrize("axis, value", [("theta1", "05"), ("theta1", 0.5), ("p", "1"), ("beta", 0j), ("theta0", None)])
def test_sweep_spec_refuses_an_axis_that_is_not_a_list_or_a_tuple(axis, value):
    # A string was read character by character ("05" swept 0 and 5), and a
    # bare number raised TypeError from len().
    with pytest.raises(ValueError, match=f"^sweep axis '{axis}' must be a list or a tuple") as refused:
        SweepSpec(**{axis: value})
    assert len(str(refused.value)) <= 200 and "\n" not in str(refused.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda case: manifold_config(case=case),
        lambda case: manifold_completion(0.5, case),
        lambda case: SweepSpec(case=case),
    ],
    ids=["manifold_config", "manifold_completion", "SweepSpec"],
)
def test_one_case_rule_names_the_field_and_shortens_the_value(make):
    with pytest.raises(ValueError, match=r"^case must be one of \['sum_plus'") as refused:
        make("x" * 300)
    assert len(str(refused.value)) <= 200
