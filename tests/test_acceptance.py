"""Acceptance gate: one test per published-value criterion.

Each test prints a single ``[PASS]/[FAIL] criterion N`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a checklist against
the reference tables.
"""

import json
import math
import random
import time

import numpy as np

from mmwprop.cli import dispatch
from mmwprop.datasets import (
    DRYWALL,
    PathLossSample,
    ReflectionSample,
    load_path_loss_csv,
    paper_dataset,
    save_path_loss_csv,
)
from mmwprop.partition import depolarization_margin, power_budget
from mmwprop.pathloss import fit_ci, fspl_db
from mmwprop.reflection import estimate_permittivity_mmse, reflection_loss_db
from mmwprop.scattering import (
    DsParameters,
    backscatter_margin,
    classify_smooth,
    ds_normalization,
    predict_pattern,
    sweep_geometries,
)

from lobe_oracle import ds_pattern_value

BAND_SETUP = {28e9: (4.7, 10.0), 73e9: (5.2, 7.0), 142e9: (6.4, 8.0)}
INCIDENT_ANGLES = (10.0, 30.0, 60.0, 80.0)


def _report(number: int, label: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {label}")
    assert passed, f"criterion {number}: {label}"


def test_criterion_1_normal_incidence_reflection_loss():
    loss = reflection_loss_db(0.0, 6.4)
    _report(1, f"reflection loss at eps_r=6.4 is {loss:.4f} dB (7.25 +/- 0.05)",
            abs(loss - 7.25) <= 0.05)


def test_criterion_2_power_budget_split():
    budget = power_budget(7.25, 8.46)
    values = (budget.reflected_fraction, budget.transmitted_fraction,
              budget.absorbed_fraction)
    expected = (0.188, 0.143, 0.669)
    ok = all(abs(v - e) <= 0.005 for v, e in zip(values, expected))
    _report(2, "power budget (7.25 dB, 8.46 dB) -> "
               f"{values[0]:.1%}/{values[1]:.1%}/{values[2]:.1%} "
               "(18.8%/14.3%/66.9% +/- 0.5pp)", ok)


def test_criterion_3_depolarization_margins():
    data = paper_dataset()
    expected = {28e9: 6.40, 73e9: -4.76, 142e9: -17.54}
    margins = {}
    for freq, target in expected.items():
        cross_mean = (data.partition_mean_db(DRYWALL, freq, "V", "H")
                      + data.partition_mean_db(DRYWALL, freq, "H", "V")) / 2.0
        margins[freq] = depolarization_margin(cross_mean, data.xpd_db(freq))
    ok = all(abs(margins[f] - expected[f]) <= 0.01 for f in expected)
    _report(3, "drywall depolarization margins "
               f"{margins[28e9]:.2f}/{margins[73e9]:.2f}/{margins[142e9]:.2f} dB "
               "(6.40/-4.76/-17.54 +/- 0.01)", ok)


def test_criterion_4_peak_spread_and_specular_peaks():
    data = paper_dataset()
    spread = (data.reflection_loss_db(142e9, 10.0)
              - data.reflection_loss_db(142e9, 80.0))
    spread_ok = abs(spread - 9.4) <= 0.1

    peaks_ok = True
    for freq, (eps, hpbw) in BAND_SETUP.items():
        for incident in INCIDENT_ANGLES:
            pattern = predict_pattern(sweep_geometries(incident), eps,
                                      antenna_hpbw_deg=hpbw)
            peak = max(pattern, key=lambda p: p.relative_power_db)
            peaks_ok &= peak.observation_angle_deg == incident
    _report(4, f"142 GHz loss(10)-loss(80) = {spread:.2f} dB (9.4 +/- 0.1) "
               "and pattern peaks sit at the specular angle", spread_ok and peaks_ok)


def test_criterion_5_mmse_round_trip_and_table_estimates():
    start = time.perf_counter()
    rng = random.Random(2026)
    angles = (10.0, 30.0, 60.0, 80.0)
    round_trip_ok = True
    for _ in range(200):
        eps = rng.uniform(1.5, 20.0)
        samples = [ReflectionSample(142e9, a, reflection_loss_db(a, eps))
                   for a in angles]
        estimate = estimate_permittivity_mmse(samples)
        round_trip_ok &= abs(estimate.eps_r - eps) < 1e-3

    data = paper_dataset()
    published = {28e9: 4.7, 73e9: 5.2, 142e9: 6.4}
    estimates = {
        f: estimate_permittivity_mmse(list(data.reflection_samples(f))).eps_r
        for f in published
    }
    near_ok = all(abs(estimates[f] - published[f]) <= 1.0 for f in published)
    increasing_ok = estimates[28e9] < estimates[73e9] < estimates[142e9]
    elapsed = time.perf_counter() - start
    _report(5, "MMSE round trip (200 draws, <1e-3) and estimates "
               f"{estimates[28e9]:.2f}/{estimates[73e9]:.2f}/{estimates[142e9]:.2f} "
               f"within +/-1.0, increasing; {elapsed:.2f} s (< 1 s)",
            round_trip_ok and near_ok and increasing_ok and elapsed < 1.0)


def _make_sample(distance_m, path_loss_db):
    return PathLossSample(
        freq_hz=142e9, tx_id="tx", rx_id="rx", distance_m=distance_m,
        environment="NLOS", tx_az_deg=0.0, tx_el_deg=0.0, rx_az_deg=0.0,
        rx_el_deg=0.0, tx_pol="V", rx_pol="V", path_loss_db=path_loss_db)


def test_criterion_6_ci_fit_recovery_and_ple_ordering():
    start = time.perf_counter()
    rng = random.Random(4701)
    anchor = fspl_db(142e9, 1.0)
    noisy = []
    for _ in range(10_000):
        d = rng.uniform(1.5, 40.0)
        pl = anchor + 10 * 4.70 * math.log10(d) + rng.gauss(0.0, 14.10)
        noisy.append(_make_sample(d, pl))
    fit = fit_ci(noisy, 142e9)
    noisy_ok = abs(fit.ple - 4.70) <= 0.1 and abs(fit.sigma_db - 14.10) <= 0.5

    clean = [_make_sample(d, anchor + 20.0 * math.log10(d))
             for d in (1.5, 3.0, 6.0, 12.0, 24.0)]
    clean_fit = fit_ci(clean, 142e9)
    clean_ok = abs(clean_fit.ple - 2.0) <= 1e-9 and clean_fit.sigma_db <= 1e-9

    data = paper_dataset()
    ordering_ok = all(
        data.ci_fit(f, "LOS").ple < data.ci_fit(f, "NLOS_BEST").ple
        < data.ci_fit(f, "NLOS").ple
        for f in data.frequencies
    )
    elapsed = time.perf_counter() - start
    _report(6, f"CI recovery n={fit.ple:.3f} (4.70 +/- 0.1), "
               f"sigma={fit.sigma_db:.2f} (14.10 +/- 0.5), exact n=2 round trip, "
               f"PLE ordering LOS < NLOS_Best < NLOS; {elapsed:.2f} s (< 5 s)",
            noisy_ok and clean_ok and ordering_ok and elapsed < 5.0)


def _independent_hemisphere_integral(params, incident_angle_deg, n=600):
    polar = (np.arange(n) + 0.5) * (math.pi / 2) / n
    azimuth = (np.arange(n) + 0.5) * (2 * math.pi) / n
    grid_p, grid_a = np.meshgrid(polar, azimuth, indexing="ij")
    values = ds_pattern_value(np.degrees(grid_p), np.degrees(grid_a),
                              incident_angle_deg, params) * np.sin(grid_p)
    return float(values.sum() * (math.pi / 2 / n) * (2 * math.pi / n))


def test_criterion_7_ds_normalization_and_smoothness():
    rng = np.random.default_rng(20260811)
    quad_ok = True
    for _ in range(50):
        params = DsParameters(
            s_coeff=float(rng.uniform(0.0, 1.0)),
            lambda_mix=float(rng.uniform(0.0, 1.0)),
            alpha_r=int(rng.integers(1, 9)),
            alpha_i=int(rng.integers(1, 9)),
        )
        incident = float(rng.uniform(0.0, 85.0))
        total = (_independent_hemisphere_integral(params, incident)
                 / ds_normalization(params, incident))
        quad_ok &= abs(total - 1.0) < 1e-4

    margins_ok = True
    smooth_ok = True
    worst_margin = math.inf
    for freq, (eps, hpbw) in BAND_SETUP.items():
        for incident in INCIDENT_ANGLES:
            pattern = predict_pattern(sweep_geometries(incident), eps,
                                      antenna_hpbw_deg=hpbw)
            margin = backscatter_margin(pattern, incident)
            worst_margin = min(worst_margin, margin)
            margins_ok &= margin > 20.0
            smooth_ok &= classify_smooth(pattern, incident) is True
    _report(7, "normalized dual-lobe integral = 1 within 1e-4 (50 draws); "
               f"default drywall margins > 20 dB (worst {worst_margin:.1f} dB) "
               "and classify_smooth true at 10/30/60/80 deg",
            quad_ok and margins_ok and smooth_ok)


# Printed table values, re-typed independently of the embedded dataset.
_TABLE_I = {
    28e9: {"bw": 1e9, "antennas": [(30.0, 15.0), (10.0, 24.5)], "xpd": 19.30},
    73e9: {"bw": 1e9, "antennas": [(15.0, 20.0), (7.0, 27.0)], "xpd": 28.94},
    142e9: {"bw": 1e9, "antennas": [(8.0, 27.0)], "xpd": 44.18},
}
_TABLE_II = {  # printed as negative dB; stored magnitudes should negate to these
    (28e9, 10.0): -12.98, (28e9, 30.0): -4.22, (28e9, 60.0): -4.06, (28e9, 80.0): -3.18,
    (73e9, 10.0): -12.65, (73e9, 30.0): -8.08, (73e9, 60.0): -3.16, (73e9, 80.0): -1.28,
    (142e9, 10.0): -9.81, (142e9, 30.0): -7.53, (142e9, 60.0): -3.54, (142e9, 80.0): -0.36,
}
_TABLE_III = {
    ("V", "V"): ((1.53, 0.60), (7.17, 0.17), (10.22, 0.22)),
    ("V", "H"): ((20.63, 1.32), (37.65, 0.53), (46.92, 2.05)),
    ("H", "V"): ((22.25, 0.88), (36.92, 1.11), (37.37, 1.79)),
    ("H", "H"): ((1.48, 0.54), (7.15, 0.44), (10.43, 0.55)),
}
_TABLE_IV = {
    ("V", "V"): ((4.15, 0.59), (2.57, 0.61), (8.46, 1.22)),
    ("V", "H"): ((25.59, 2.85), (24.97, 0.58), (27.28, 1.77)),
    ("H", "V"): ((25.81, 0.65), (23.38, 0.65), (26.00, 1.42)),
    ("H", "H"): ((3.31, 1.13), (3.17, 0.68), (9.31, 0.61)),
}
_TABLE_V = {
    "LOS": ((1.70, 2.50), (1.60, 3.20), (1.99, 2.71)),
    "NLOS_BEST": ((3.00, 10.80), (3.40, 11.80), (3.03, 6.91)),
    "NLOS": ((4.40, 11.60), (5.30, 15.70), (4.70, 14.10)),
}
_FREQS = (28e9, 73e9, 142e9)


def _close(a, b):
    return abs(a - b) <= 0.01


def test_criterion_8_dataset_fidelity_and_csv_round_trip(tmp_path):
    result = dispatch(["paper-tables"])
    tables = json.loads(result.stdout)
    ok = result.exit_code == 0

    for row in tables["I"]:
        fixture = _TABLE_I[row["freq_hz"]]
        ok &= row["rf_bandwidth_hz"] == fixture["bw"]
        ok &= _close(row["xpd_db"], fixture["xpd"])
        ok &= [(a["hpbw_deg"], a["gain_dbi"]) for a in row["antennas"]] == \
            fixture["antennas"]
    ok &= len(tables["II"]) == len(_TABLE_II)
    for row in tables["II"]:
        printed = _TABLE_II[(row["freq_hz"], row["incident_angle_deg"])]
        ok &= _close(-row["reflection_loss_db"], printed)
    for name, fixture in (("III", _TABLE_III), ("IV", _TABLE_IV)):
        ok &= len(tables[name]) == 12
        for row in tables[name]:
            mean, std = fixture[(row["tx_pol"], row["rx_pol"])][
                _FREQS.index(row["freq_hz"])]
            ok &= _close(row["mean_db"], mean) and _close(row["std_db"], std)
    ok &= len(tables["V"]) == 9
    for row in tables["V"]:
        ple, sigma = _TABLE_V[row["environment"]][_FREQS.index(row["freq_hz"])]
        ok &= _close(row["ple"], ple) and _close(row["sigma_db"], sigma)

    samples = [
        _make_sample(5.0 + i / 7.0, 80.0 + i * math.pi) for i in range(9)
    ]
    path = tmp_path / "round_trip.csv"
    save_path_loss_csv(samples, path)
    ok &= load_path_loss_csv(path) == samples

    _report(8, "paper-tables output matches every printed value to 0.01 dB "
               "and the CSV round trip is lossless", bool(ok))
