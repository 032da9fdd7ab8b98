"""End-to-end acceptance battery.

Each test prints one summary line (visible with pytest -s or -rA):

    ACCEPTANCE <n> <PASS|FAIL>: <label> (<detail>)

and then asserts, so a red line always comes with a failing test. The
criteria pin the convergence orders, closed-form agreement, identity
defects, figure-level structure, and output determinism, each with a
runtime budget.
"""
import math
import random
import time

import numpy as np
import pytest

from qubeam import (
    exact_roots,
    full_report,
    make_params,
    parse_config,
    perturbative_roots,
    run_sweep,
)
from qubeam.entangle import _asymptotic_from_phi, _info_from_gap, phi_closed
from qubeam.errors import QubeamError
from qubeam.qstate import PolarizationConfig, _normalized_state, _state_columns
from qubeam.sweep import write_csv

import mp_reference as mp

KAPPA1, KAPPA2, OMEGA = 2500.0, 3000.0, 0.5
EPS_LADDER = (0.1, 0.05, 0.025)
DU = PolarizationConfig.from_code("du")


def _report(n, ok, label, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    cfg = parse_config(None)
    t0 = time.perf_counter()
    table = run_sweep(cfg)
    return cfg, table, time.perf_counter() - t0


def test_acceptance_1_root_convergence():
    t0 = time.perf_counter()
    defects = {kl: [] for kl in ((1, 1), (1, 2), (2, 1), (2, 2))}
    residual_ok = True
    for eps in EPS_LADDER:
        p = make_params(KAPPA1, KAPPA2, OMEGA, eps)
        ex, pert = exact_roots(p), perturbative_roots(p)
        for k, lam in defects:
            defects[(k, lam)].append(abs(ex.offset(k, lam) - pert.offset(k, lam)))
            if abs(ex.residuals[k - 1][lam - 1]) > 1e-12 * ex.kappas[k - 1]:
                residual_ok = False
    ratios = [d[i] / d[i + 1] for d in defects.values() for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = (residual_ok and all(3.5 <= r <= 4.5 for r in ratios)
          and elapsed < 1.0)
    _report(1, ok, "root convergence ladder",
            f"defect ratios {min(ratios):.2f}..{max(ratios):.2f}, "
            f"residuals within 1e-12*kappa: {residual_ok}, {elapsed:.2f}s")


def test_acceptance_2_spectral_gap_closed_form():
    t0 = time.perf_counter()
    defects, bound_ok = [], True
    for eps in EPS_LADDER:
        p = make_params(KAPPA1, KAPPA2, OMEGA, eps)
        rep = full_report(p, DU)
        # y - (1 - eps*Phi) == eps*Phi - y_gap; the gap form skips the
        # quantization of the two near-1 values, which would swamp the
        # eps^2 signal at the lower rungs
        defects.append(abs(eps * rep.Phi - rep.y_gap))
        if abs(rep.y - (1.0 - eps * rep.Phi)) > 50.0 * eps ** 2 * rep.Phi:
            bound_ok = False
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    elapsed = time.perf_counter() - t0
    ok = (bound_ok and all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 1.0)
    _report(2, ok, "spectral gap tracks 1 - eps*Phi",
            f"defects {defects[0]:.2e}->{defects[2]:.2e}, "
            f"ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.2f}s")


def test_acceptance_3_schmidt_closed_form():
    t0 = time.perf_counter()
    defects, bound_ok = [], True
    for eps in EPS_LADDER:
        p = make_params(KAPPA1, KAPPA2, OMEGA, eps)
        rep = full_report(p, DU)
        defects.append(abs(rep.E_S - 2.0 * eps * rep.Phi))
        if defects[-1] > 100.0 * eps ** 2 * rep.Phi:
            bound_ok = False
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    elapsed = time.perf_counter() - t0
    ok = (bound_ok and all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 1.0)
    _report(3, ok, "impurity tracks 2*eps*Phi",
            f"defects {defects[0]:.2e}->{defects[2]:.2e}, "
            f"ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.2f}s")


def test_acceptance_4_parallel_zero_entanglement():
    t0 = time.perf_counter()
    eps = 0.1
    worst = 0.0
    omegas = [0.5 * i / 9 for i in range(10)]
    dks = [10.0 + (3500.0 - 10.0) * i / 9 for i in range(10)]
    for omega in omegas:
        for dk in dks:
            p = make_params(KAPPA1, KAPPA1 + dk, omega, eps)
            for code in ("uu", "dd"):
                rep = full_report(p, PolarizationConfig.from_code(code))
                worst = max(worst, rep.E_I, rep.E_S)
    elapsed = time.perf_counter() - t0
    ok = worst <= 50.0 * eps ** 2 and elapsed < 5.0
    _report(4, ok, "parallel polarizations stay unentangled",
            f"max measure {worst:.2e} on 10x10x2 grid "
            f"(bound {50.0 * eps ** 2:.1e}), {elapsed:.2f}s")


def test_acceptance_5_asymptotic_information():
    """Ratio asymptotic / exact E_I at gap eps*Phi approaches 1.

    At eps = 1e-5 the gap eps*Phi ~ 7e-17 falls below ulp(1)/2, so the
    exact measure evaluated through 1 - eps*Phi in float64 returns exactly
    0; the reference and the asymptotic expression (whose float64 form
    rounds at ~1e-16, above the lower rungs) are therefore evaluated in
    50-digit arithmetic, with a float cross-check on the rungs via the
    gap-argument form, which has no representability problem.
    """
    t0 = time.perf_counter()
    deviations, cross_ok = [], True
    for eps in (1e-3, 1e-4, 1e-5):
        p = make_params(KAPPA1, KAPPA2, OMEGA, eps)
        phi, _ = phi_closed(p)
        ref = mp.info_from_gap(mp.product(eps, phi))
        asym = mp.asymptotic_info(phi, eps)
        deviations.append(mp.rel_err(asym, ref))
        # the float implementations are faithful to both mp expressions
        if (mp.rel_err(_asymptotic_from_phi(phi, eps), asym) > 1e-14
                or mp.rel_err(_info_from_gap(eps * phi), ref) > 1e-12):
            cross_ok = False
    elapsed = time.perf_counter() - t0
    ok = (deviations[0] > deviations[1] > deviations[2]
          and deviations[0] <= 1e-15 and deviations[2] <= 1e-18
          and cross_ok and elapsed < 1.0)
    _report(5, ok, "asymptotic information accuracy",
            f"|ratio-1| {deviations[0]:.1e}->{deviations[2]:.1e} monotone, "
            f"float cross-check: {cross_ok}, {elapsed:.2f}s")


def test_acceptance_6_two_qubit_identities():
    """Identities of the normalized state's reduced density rho = M M+,
    and on every 10th point the report's raw E_I and E_S against the
    50-digit pipeline (points whose report raises are skipped)."""
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    codes = ("uu", "ud", "du", "dd")
    worst, worst_mp, n_points, n_mp = 0.0, 0.0, 1000, 0
    for i in range(n_points):
        kappa1 = rng.uniform(50.0, 5000.0)
        dk = kappa1 * 10.0 ** rng.uniform(-2.0, 0.5)
        omega = rng.uniform(0.0, 0.9) * kappa1
        eps_max = 0.01 * (kappa1 - omega) ** 2 * min(1.0, dk / kappa1)
        eps = eps_max * 10.0 ** rng.uniform(-8.0, 0.0)
        params = make_params(kappa1, kappa1 + dk, omega, eps)
        cfg = PolarizationConfig.from_code(codes[i % 4])
        vec, _, _ = _normalized_state(
            _state_columns(exact_roots(params), params, cfg), cfg)
        M = np.array(vec).reshape(2, 2)
        rho = M @ M.conj().T
        y = math.sqrt((rho[0, 0].real - rho[1, 1].real) ** 2
                      + 4.0 * abs(rho[0, 1]) ** 2)
        impurity = 1.0 - float(np.sum(np.abs(rho) ** 2))
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        worst = max(
            worst,
            abs(complex(np.trace(rho)) - 1.0),
            abs(rho[0, 1] - np.conj(rho[1, 0])),
            abs(y ** 2 + 4.0 * abs(det) ** 2 - 1.0),
            abs(impurity - (1.0 - y ** 2) / 2.0))
        if i % 10:
            continue
        code = codes[i // 10 % 4]      # the sampled configs cycle too
        try:
            rep = full_report(params, PolarizationConfig.from_code(code))
        except QubeamError:
            continue
        point = (params.kappa1, params.kappa2, params.omega, params.eps)
        ref_i, ref_s, _ = mp.mp_measures(point, code)
        worst_mp = max(worst_mp, mp.rel_err(rep.E_I, ref_i),
                       mp.rel_err(rep.E_S, ref_s))
        n_mp += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_mp <= 1e-13 and elapsed < 10.0
    _report(6, ok, "two-qubit identity battery",
            f"worst defect {worst:.2e} over {n_points} random points, "
            f"50-digit E_I/E_S worst {worst_mp:.1e} on {n_mp} of "
            f"{n_points // 10}, {elapsed:.2f}s")


def test_acceptance_7_figure_sweep_structure(default_sweep):
    cfg, table, elapsed = default_sweep
    og, dg = cfg.omega_grid(), cfg.dk_grid()
    by = {row[:2]: dict(zip(table._fields, row)) for row in zip(*table)}
    all_ok = table.status == ["ok"] * len(og) * len(dg)

    zero_row = [by[(0.0, dk)] for dk in dg]
    zero_ok = (max(r["E_I"] for r in zero_row) <= 1e-8
               and max(r["E_S"] for r in zero_row) <= 1e-10)

    omega_ok = all(
        by[(w2, dk)]["E_I"] >= by[(w1, dk)]["E_I"]
        and by[(w2, dk)]["E_S"] >= by[(w1, dk)]["E_S"]
        for dk in dg for w1, w2 in zip(og, og[1:]))

    closed_ok = all(
        by[(w, d2)]["E_I_asymptotic"] > by[(w, d1)]["E_I_asymptotic"]
        and by[(w, d2)]["E_S_closed"] > by[(w, d1)]["E_S_closed"]
        for w in og[1:] for d1, d2 in zip(dg, dg[1:]))

    # The pipeline values carry an O(eps^2) same-mode floor that decreases
    # in delta_kappa and outweighs the eps*Phi signal at the left edge and
    # at small omega; strict growth is asserted where the signal dominates.
    pipe_ok = all(
        by[(w, d2)]["E_I"] > by[(w, d1)]["E_I"]
        and by[(w, d2)]["E_S"] > by[(w, d1)]["E_S"]
        for w in og if w >= 0.1
        for d1, d2 in zip(dg, dg[1:]) if d1 >= 500.0)

    ok = (all_ok and zero_ok and omega_ok and closed_ok and pipe_ok
          and elapsed < 60.0)
    _report(7, ok, "figure sweep structure",
            f"{len(table.status)} rows, zero-field row {zero_ok}, "
            f"omega-monotone {omega_ok}, dk-monotone closed {closed_ok} / "
            f"pipeline {pipe_ok}, {elapsed:.2f}s")


def test_acceptance_8_deterministic_output(default_sweep, tmp_path):
    cfg, table, first_elapsed = default_sweep
    t0 = time.perf_counter()
    table_again = run_sweep(cfg)
    second_elapsed = time.perf_counter() - t0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(table, cfg, str(a))
    write_csv(table_again, cfg, str(b))
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and (first_elapsed + second_elapsed) < 120.0
    _report(8, ok, "deterministic output",
            f"byte-identical: {identical}, "
            f"runs {first_elapsed:.2f}s + {second_elapsed:.2f}s")
