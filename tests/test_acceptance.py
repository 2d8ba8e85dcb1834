"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Every tolerance is pinned here, not imported, so a regression
in the library cannot silently relax the gate.

Criterion 09 documents a known discrepancy: the tabulated pair-herald value
0.1620 sits 5.1e-6 outside its own +/-5e-4 window around the exact
closed-form result 0.16250508.  The check is kept honest (it fails red)
rather than widened; the second clause of the criterion, the analytic
maximum of 1/6, holds.
"""

import cmath
import math
import random

import dense_oracle as dn
import ensemble_mirrors as em
from photonherald import (
    DOUBLED,
    MAIN,
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
    fock_state,
    fwm_coefficients,
    fwm_coefficients_from_phase,
    golden_section_maximize,
    jf_length_scan,
    manifold_completion,
    optimize_ps,
    project_number,
    reduce_through_bs0,
    run_doubled_scheme,
    run_filter_split_scheme,
    run_main_scheme,
    run_pair_herald_scheme,
    run_scheme,
    unitarity_check,
)

SEED = 20260815


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _unitary(beta: complex) -> GenericTpam:
    alpha = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
    return GenericTpam(alpha=alpha, beta=beta)


def _main_cfg(beta, theta1, *, p=1.0, case=CaseId.SUM_PLUS, variant=MAIN, tpam=None):
    theta2, phi1, phi2 = manifold_completion(theta1, case)
    return SchemeConfig(
        source=SourceSpec(p),
        tpam=_unitary(beta) if tpam is None else tpam,
        bs1=BeamSplitterParams(theta1, phi1),
        bs2=BeamSplitterParams(theta2, phi2),
        variant=variant,
    )


def test_criterion_01_front_splitter_reduction():
    worst = 0.0
    for p in (0.25, 0.6, 0.86, 1.0):
        dist, _ = reduce_through_bs0(p)
        worst = max(
            worst,
            abs(dist.get(2, 0.0) - p * p / 2.0),
            abs(dist.get(1, 0.0) - p * (1.0 - p)),
            abs(dist.get(0, 0.0) - (p * p / 2.0 - p + 1.0)),
        )
    ok = worst <= 1e-12
    assert _report(1, ok, f"balanced front-splitter weights, max deviation {worst:.2e}")


def test_criterion_02_single_photon_null():
    # one photon through the balanced interferometer: the herald never fires
    psi = fock_state(ModeRegister(("B", "C"), cutoff=4, medium_dims=2), (1, 0))
    psi = apply_beam_splitter(psi, ("B", "C"), BeamSplitterParams.balanced())
    psi = apply_generic_tpam(psi, "B", GenericTpam(alpha=1.0, beta=0.0))
    psi = apply_beam_splitter(psi, ("B", "C"), BeamSplitterParams.balanced())
    _, click = project_number(psi, "B", 1)
    ok = click <= 1e-12
    assert _report(2, ok, f"single-photon herald probability {click:.2e} at 50/50")


def test_criterion_03_balanced_success_formula():
    worst = 0.0
    for beta in (1.0, 0.4130, 0.0, -1.0):
        for p in (0.5, 1.0):
            got = run_main_scheme(_main_cfg(beta, math.pi / 4, p=p)).p_success
            want = abs(1.0 - beta) ** 2 * p * p / 16.0
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    assert _report(3, ok, f"|1-beta|^2 p^2/16 at 50/50, max deviation {worst:.2e}")


def test_criterion_04_optimal_angle_and_peak():
    symmetric = [math.radians(d) for d in (30.0, 150.0, 210.0, 330.0)]
    worst_angle, worst_peak = 0.0, 0.0
    for beta in (0.0, -1.0, 0.4130, 0.25 + 0.55j):
        theta_star, ps_star = optimize_ps(beta)
        worst_angle = max(worst_angle, min(abs(theta_star - t) for t in symmetric))
        worst_peak = max(worst_peak, abs(ps_star - 27.0 / 256.0 * abs(1.0 - beta) ** 2))
    ok = worst_angle <= 1e-6 and worst_peak <= 1e-10
    assert _report(
        4,
        ok,
        f"optimum at 30deg mod symmetry (angle dev {worst_angle:.2e}), "
        f"peak 27/256*|1-beta|^2 (value dev {worst_peak:.2e})",
    )


def test_criterion_05_strong_absorber_and_doubling():
    _, ps_star = optimize_ps(-1.0)
    dev_star = abs(ps_star - 0.4219)
    worst_doubled = 0.0
    for p in (0.5, 1.0):
        got = run_doubled_scheme(
            _main_cfg(-1.0, math.pi / 6, p=p, variant=DOUBLED)
        ).p_success
        worst_doubled = max(worst_doubled, abs(got - 0.84375 * p * p))
    ok = dev_star <= 1e-4 and worst_doubled <= 1e-10
    assert _report(
        5,
        ok,
        f"phase-flip peak {ps_star:.6f} (dev {dev_star:.2e} vs 0.4219), "
        f"doubled = 0.84375 p^2 (dev {worst_doubled:.2e})",
    )


def test_criterion_06_heralded_purity_scan():
    rng = random.Random(SEED)
    checked, worst = 0, 0.0
    for _ in range(100):
        case = tuple(CaseId)[rng.randrange(4)]
        theta1 = rng.uniform(0.05, math.pi / 2 - 0.05)
        style = rng.random()
        if style < 0.6:
            mag = rng.uniform(0.0, 1.0)
            beta = cmath.rect(mag, rng.uniform(0.0, 2.0 * math.pi))
            alpha = cmath.rect(math.sqrt(1.0 - mag * mag), rng.uniform(0.0, 2.0 * math.pi))
            tpam = GenericTpam(alpha=alpha, beta=beta)
        elif style < 0.8:
            scale = rng.uniform(0.3, 0.95)
            tpam = GenericTpam(alpha=scale * 0.6, beta=scale * 0.8)
        else:
            tpam = FwmTpamSpec(FwmParams(rng.randint(1, 6)))
        variant = MAIN if rng.random() < 0.5 else DOUBLED
        cfg = _main_cfg(
            0.0,
            theta1,
            p=rng.uniform(0.05, 1.0),
            case=case,
            variant=variant,
            tpam=tpam,
        )
        cfg = SchemeConfig(
            source=cfg.source,
            tpam=cfg.tpam,
            bs0=BeamSplitterParams(rng.uniform(0.1, math.pi / 2 - 0.1)),
            bs1=cfg.bs1,
            bs2=cfg.bs2,
            variant=variant,
        )
        result = run_scheme(cfg)
        if result.p_success > 1e-6:
            checked += 1
            worst = max(worst, abs(result.fidelity - 1.0))
    for m in (1, 2, 3):
        result = run_pair_herald_scheme(rng.uniform(0.3, 1.0), float(m))
        if result.p_success > 1e-6:
            checked += 1
            worst = max(worst, abs(result.fidelity - 1.0))
    for m in (1.5, 2.5, 3.5):
        result = run_filter_split_scheme(rng.uniform(0.3, 1.0), m)
        if result.p_success > 1e-6:
            checked += 1
            worst = max(worst, abs(result.fidelity - 1.0))
    ok = checked >= 50 and worst <= 1e-12
    assert _report(
        6, ok, f"{checked} heralding configs on the manifold, max |1 - fidelity| {worst:.2e}"
    )


def test_criterion_07_mixer_normalization_and_beta():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(1000):
        phase = rng.uniform(0.0, 20.0 * math.pi)
        pump = rng.uniform(0.0, 2.0 * math.pi)
        a0, a1, b = fwm_coefficients_from_phase(phase, pump)
        worst = max(worst, abs(abs(a0) ** 2 + abs(a1) ** 2 + abs(b) ** 2 - 1.0))
    _, _, beta1 = fwm_coefficients(FwmParams(1))
    dev_beta = abs(beta1.real - 0.4130)
    ok = worst <= 1e-12 and dev_beta <= 5e-4
    assert _report(
        7,
        ok,
        f"1000-draw normalization dev {worst:.2e}; beta after one cycle "
        f"{beta1.real:.6f} (dev {dev_beta:.2e} vs 0.4130)",
    )


def test_criterion_08_mixer_driven_interferometer_values():
    rows = dict(zip(range(1, 13), jf_length_scan(range(1, 13))))
    dev1 = abs(rows[1] - 0.0363)
    dev4 = abs(rows[4] - 0.0446)
    best = max(rows.values())
    dev_sup = abs(best - 0.0469)
    ok = dev1 <= 5e-4 and dev4 <= 5e-4 and dev_sup <= 5e-4
    assert _report(
        8,
        ok,
        f"one cycle {rows[1]:.6f} (vs 0.0363), four cycles "
        f"{rows[4]:.6f} (vs 0.0446), running best {best:.6f} (vs 0.0469)",
    )


def test_criterion_09_pair_herald_values():
    got = run_pair_herald_scheme(1.0, 2.0).p_success
    dev_tab = abs(got - 0.1620)
    ok_tab = dev_tab <= 5e-4

    _, best = golden_section_maximize(
        lambda phase: abs(fwm_coefficients_from_phase(phase)[1]) ** 2 / 2.0,
        0.0,
        math.pi,
    )
    dev_max = abs(best - 1.0 / 6.0)
    ok_max = dev_max <= 1e-6

    ok = ok_tab and ok_max
    assert _report(
        9,
        ok,
        f"tabulated P_s(two cycles) {got:.8f} vs 0.1620+/-5e-4 (dev {dev_tab:.2e}, "
        f"{'hit' if ok_tab else 'miss'}); analytic max {best:.8f} vs 1/6 "
        f"(dev {dev_max:.2e}, {'hit' if ok_max else 'miss'})",
    )


def test_criterion_10_filter_split_values():
    got = run_filter_split_scheme(1.0, 1.5).p_success
    dev_tab = abs(got - 0.2291)
    best = max(jf_length_scan([k + 0.5 for k in range(25)]))
    dev_lim = abs(best - 0.25)
    ok = dev_tab <= 5e-4 and dev_lim <= 5e-4
    assert _report(
        10,
        ok,
        f"three half-cycles {got:.6f} (dev {dev_tab:.2e} vs 0.2291), "
        f"long-length best {best:.6f} (dev {dev_lim:.2e} vs 0.25)",
    )


def test_criterion_11_ensemble_matches_dense_oracle():
    def dist_dev(a, b):
        return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))

    worst = 0.0
    pairs = [
        (
            em.ensemble_main_generic(0.8, 0.6 + 0.3j, 0.5 - 0.4j, 0.7, 0.3, 0.9, 0.0),
            dn.dense_main_generic(0.8, 0.6 + 0.3j, 0.5 - 0.4j, 0.7, 0.3, 0.9, 0.0),
            "detector",
        ),
        (
            em.ensemble_main_fwm(0.9, 1.0, (0, 0), math.pi / 6, 0.0, math.pi / 3, 0.0),
            dn.dense_main_fwm(0.9, 1.0, (0, 0), math.pi / 6, 0.0, math.pi / 3, 0.0),
            "detector",
        ),
        (
            em.ensemble_doubled_generic(0.85, 0.8, 0.6, 0.65, 0.4, 1.1, 0.0),
            dn.dense_doubled_generic(0.85, 0.8, 0.6, 0.65, 0.4, 1.1, 0.0),
            "joint",
        ),
        (em.ensemble_pair_herald(1.0, 2.0), dn.dense_pair_herald(1.0, 2.0), "joint"),
        (em.ensemble_filter_split(1.0, 1.5), dn.dense_filter_split(1.0, 1.5), "detector"),
    ]
    for got, want, field in pairs:
        worst = max(worst, dist_dev(got[field], want[field]))
        worst = max(worst, abs(got["p_success"] - want["p_success"]))
    ok = worst <= 1e-10
    assert _report(
        11, ok, f"ensemble vs dense oracle across all circuits, max deviation {worst:.2e}"
    )


def test_criterion_12_phase_invariance_and_unitarity():
    rng = random.Random(SEED)
    worst_unitary = 0.0
    for _ in range(100):
        params = BeamSplitterParams(
            rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        )
        worst_unitary = max(worst_unitary, unitarity_check(params))

    reg = ModeRegister(("B",), cutoff=4, medium_dims=2)
    worst_phase = 0.0
    for _ in range(100):
        amps = {
            FockKet((n,)): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in range(3)
        }
        psi = PureState(reg, amps)
        psi = psi.scaled(1 / psi.norm())
        alpha = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
        g = rng.uniform(0.0, 2.0 * math.pi)
        out_plain = apply_generic_tpam(psi, "B", GenericTpam(alpha=alpha, beta=0.0))
        out_turned = apply_generic_tpam(
            psi.scaled(cmath.exp(1j * g)), "B", GenericTpam(alpha=alpha, beta=0.0)
        )
        kets = {k for k, _ in out_plain.terms()} | {k for k, _ in out_turned.terms()}
        for k in kets:
            worst_phase = max(
                worst_phase,
                abs(abs(out_plain.amplitude(k)) ** 2 - abs(out_turned.amplitude(k)) ** 2),
            )
    ok = worst_unitary <= 1e-12 and worst_phase <= 1e-12
    assert _report(
        12,
        ok,
        f"100-draw splitter unitarity dev {worst_unitary:.2e}, "
        f"100-draw absorber global-phase dev {worst_phase:.2e}",
    )
