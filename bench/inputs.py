"""Seeded benchmark inputs and the reference answers they must produce.

Everything here uses the standard library only and never calls mmwprop, so
a change to the library (its CSV writer included) cannot change the inputs
or the expected answers. The same seed gives byte-identical files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SPEED_OF_LIGHT_M_S = 299_792_458.0

PATH_LOSS_HEADER = ("freq_hz", "tx_id", "rx_id", "distance_m", "environment",
                    "tx_az_deg", "tx_el_deg", "rx_az_deg", "rx_el_deg",
                    "tx_pol", "rx_pol", "path_loss_db")
REFLECTION_HEADER = ("freq_hz", "incident_angle_deg", "reflection_loss_db")
PATTERN_HEADER = ("observation_angle_deg", "relative_power_db")

BANDS_HZ = (28e9, 73e9, 142e9)
POINTINGS_AZ_DEG = tuple(60.0 * k for k in range(6))  # 6 TX x 6 RX = 36 per link
POINTINGS_PER_LINK = len(POINTINGS_AZ_DEG) ** 2

# Published close-in fits (Table V): (PLE, sigma dB) per band and environment.
PAPER_CI = {
    28e9: {"LOS": (1.70, 2.50), "NLOS": (4.40, 11.60)},
    73e9: {"LOS": (1.60, 3.20), "NLOS": (5.30, 15.70)},
    142e9: {"LOS": (1.99, 2.71), "NLOS": (4.70, 14.10)},
}
# Published drywall permittivity per band and the 142 GHz reflection table.
PAPER_EPS = {28e9: 4.7, 73e9: 5.2, 142e9: 6.4}
PAPER_TABLE_II_142 = ((10.0, 9.81), (30.0, 7.53), (60.0, 3.54), (80.0, 0.36))
PAPER_TABLE_V = tuple(
    (f, env, ple, sigma)
    for env, rows in (
        ("LOS", ((28e9, 1.70, 2.50), (73e9, 1.60, 3.20), (142e9, 1.99, 2.71))),
        ("NLOS_BEST", ((28e9, 3.00, 10.80), (73e9, 3.40, 11.80), (142e9, 3.03, 6.91))),
        ("NLOS", ((28e9, 4.40, 11.60), (73e9, 5.30, 15.70), (142e9, 4.70, 14.10))),
    )
    for f, ple, sigma in rows
)

# Shadow fading is drawn from a normal truncated at +/-3 sigma, so no path
# loss can reach 0 dB; its standard deviation is sigma times this factor.
_TRUNCATION = 3.0
_PDF_AT_T = math.exp(-_TRUNCATION ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
TRUNCATED_SD_FACTOR = math.sqrt(
    1.0 - 2.0 * _TRUNCATION * _PDF_AT_T / math.erf(_TRUNCATION / math.sqrt(2.0)))


def rng_for(seed: int, name: str) -> random.Random:
    """An independent, reproducible stream per (seed, input name)."""
    return random.Random(f"mmwbench:{seed}:{name}")


def fspl_db(freq_hz: float, distance_m: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz / SPEED_OF_LIGHT_M_S)


def gamma_perp(incident_angle_deg: float, eps_r: float) -> float:
    theta = math.radians(incident_angle_deg)
    root = math.sqrt(eps_r - math.sin(theta) ** 2)
    return (math.cos(theta) - root) / (math.cos(theta) + root)


def reflection_loss_db(incident_angle_deg: float, eps_r: float) -> float:
    return -20.0 * math.log10(abs(gamma_perp(incident_angle_deg, eps_r)))


def _truncated_gauss(rng: random.Random, sigma: float) -> float:
    while True:
        z = rng.gauss(0.0, 1.0)
        if abs(z) <= _TRUNCATION:
            return z * sigma


# ---------------------------------------------------------------------------
# Close-in fit and directional reduction, written independently of mmwprop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CiReference:
    ple: float
    sigma_db: float
    n: int
    ple_tol: float    # six standard errors of the PLE estimate
    sigma_tol: float  # six standard errors of the sigma estimate


def ci_fit(freq_hz: float, rows) -> CiReference:
    """Anchored least squares PL - FSPL(f, 1 m) = 10 n log10(d); 1/N sigma."""
    anchor = fspl_db(freq_hz, 1.0)
    a = [pl - anchor for _, pl in rows]
    b = [10.0 * math.log10(d) for d, _ in rows]
    sbb = sum(x * x for x in b)
    ple = sum(x * y for x, y in zip(a, b)) / sbb
    sigma = math.sqrt(sum((y - ple * x) ** 2 for x, y in zip(b, a)) / len(rows))
    return CiReference(ple, sigma, len(rows), 6.0 * sigma / math.sqrt(sbb),
                       6.0 * sigma / math.sqrt(2.0 * len(rows)))


@dataclass
class PathLossFile:
    """A generated path-loss CSV plus every answer the CLI must give for it."""

    path: str
    freq_hz: float
    rows: int
    planted: dict            # env -> (ple, effective sigma)
    los_count: int = 0
    nlos_count: int = 0
    distance_min: float = math.inf
    distance_max: float = 0.0
    fits: dict = field(default_factory=dict)      # env name or "ALL" -> CiReference
    nlos_best: list = field(default_factory=list)  # CSV field lists, (tx_id, rx_id) order
    bad_row: int | None = None
    bad_column: str | None = None


def write_path_loss_csv(path: str, rng: random.Random, freq_hz: float, rows: int,
                        bad_cell: bool = False) -> PathLossFile:
    """Directional sweep: links of 36 pointings, one LOS link in four.

    Each environment has a planted PLE and sigma drawn within 10 % of the
    published fit. With bad_cell, one seeded numeric cell is unparsable.
    """
    planted = {}
    for env, (ple, sigma) in PAPER_CI[freq_hz].items():
        planted[env] = (round(ple * rng.uniform(0.9, 1.1), 3),
                        round(sigma * rng.uniform(0.9, 1.1), 3))
    info = PathLossFile(path, freq_hz, rows,
                        {env: (p, s * TRUNCATED_SD_FACTOR) for env, (p, s) in planted.items()})
    if bad_cell:
        info.bad_row = rng.randint(1, rows)
        info.bad_column = rng.choice(("distance_m", "tx_az_deg", "path_loss_db"))
    anchor = fspl_db(freq_hz, 1.0)
    freq_text = f"{freq_hz:.1f}"
    by_env = {"LOS": [], "NLOS": []}
    best_rows = []
    lines = [",".join(PATH_LOSS_HEADER)]
    links = -(-rows // POINTINGS_PER_LINK)
    los_links = set(rng.sample(range(links), links // 4))
    written = 0
    for link in range(links):
        env = "LOS" if link in los_links else "NLOS"
        ple, sigma = planted[env]
        distance = round(rng.uniform(2.0, 40.0), 2)
        mean = anchor + 10.0 * ple * math.log10(distance)
        pol = rng.choice(("V", "H"))
        tx_id, rx_id = f"TX{link // 8:03d}", f"RX{link:05d}"
        best = None
        for tx_az in POINTINGS_AZ_DEG:
            for rx_az in POINTINGS_AZ_DEG:
                if written == rows:
                    break
                written += 1
                loss = round(mean + _truncated_gauss(rng, sigma), 3)
                fields = [freq_text, tx_id, rx_id, f"{distance:.2f}", env,
                          f"{tx_az:.1f}", "0.0", f"{rx_az:.1f}", "0.0", pol, pol,
                          f"{loss:.3f}"]
                if written == info.bad_row:
                    column = PATH_LOSS_HEADER.index(info.bad_column)
                    fields[column] = rng.choice(("n/a", "nan", "1.2.3", ""))
                lines.append(",".join(fields))
                by_env[env].append((distance, loss))
                if env == "NLOS" and (best is None or (loss, tx_az, rx_az) < best[0]):
                    best = ((loss, tx_az, rx_az), fields)
        if best is not None:
            best_rows.append(best[1])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")

    info.los_count, info.nlos_count = len(by_env["LOS"]), len(by_env["NLOS"])
    distances = [d for rows_ in by_env.values() for d, _ in rows_]
    info.distance_min, info.distance_max = min(distances), max(distances)
    info.fits["LOS"] = ci_fit(freq_hz, by_env["LOS"])
    info.fits["NLOS"] = ci_fit(freq_hz, by_env["NLOS"])
    # The CLI keeps file order for ALL: LOS and NLOS rows interleave by link,
    # and the sums below do not depend on that order beyond rounding.
    info.fits["ALL"] = ci_fit(freq_hz, by_env["LOS"] + by_env["NLOS"])
    best_rows.sort(key=lambda f: (f[1], f[2]))
    info.nlos_best = best_rows
    info.fits["NLOS_BEST"] = ci_fit(
        freq_hz, [(float(f[3]), float(f[11])) for f in best_rows])
    return info


# ---------------------------------------------------------------------------
# Reflection samples and scattering patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionSet:
    freq_hz: float
    eps_r: float                 # planted permittivity
    rows: tuple                  # (freq_hz, angle_deg, loss_db) as written


def reflection_set(rng: random.Random, freq_hz: float, count: int) -> ReflectionSet:
    """Losses of a planted permittivity plus 0.01 dB noise, 4 decimals.

    Four samples sit near the measured angles 10/30/60/80 deg; larger sets
    spread uniformly over 5..85 deg.
    """
    eps = round(PAPER_EPS[freq_hz] * rng.uniform(0.85, 1.15), 3)
    if count == 4:
        angles = [a + rng.uniform(-2.0, 2.0) for a in (10.0, 30.0, 60.0, 80.0)]
    else:
        angles = [rng.uniform(5.0, 85.0) for _ in range(count)]
    rows = tuple(
        (freq_hz, round(a, 3), round(reflection_loss_db(a, eps) + rng.gauss(0.0, 0.01), 4))
        for a in angles)
    return ReflectionSet(freq_hz, eps, rows)


def write_reflection_csv(path: str, samples: ReflectionSet) -> None:
    lines = [",".join(REFLECTION_HEADER)]
    lines += [f"{f:.1f},{a:.3f},{loss:.4f}" for f, a, loss in samples.rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def linear_fit(samples: ReflectionSet) -> tuple[float, float, float]:
    """OLS of |gamma| = 10^(-loss/20) on angle: (slope, intercept, rmse)."""
    xs = [a for _, a, _ in samples.rows]
    ys = [10.0 ** (-loss / 20.0) for _, _, loss in samples.rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    intercept = my - slope * mx
    rmse = math.sqrt(sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / len(xs))
    return slope, intercept, rmse


@dataclass(frozen=True)
class Pattern:
    incident_angle_deg: float
    points: tuple        # (signed observation angle, relative dB), peak 0 dB
    margin_db: float     # peak minus strongest source-side return
    smooth: bool


def pattern(rng: random.Random) -> Pattern:
    """A 17-point -80..80 deg pattern peaking at the specular angle.

    The forward side falls off linearly from the peak; the source side sits
    at least a seeded margin below it. Margins and window depths keep clear
    of the 20 dB / 10 dB classifier thresholds, so both outcomes occur.
    """
    theta = float(rng.choice(range(10, 71, 10)))
    margin = round(rng.choice((rng.uniform(5.0, 18.0), rng.uniform(22.0, 40.0))), 2)
    slope = rng.choice((rng.uniform(0.2, 0.9), rng.uniform(1.1, 2.0)))
    back_at = rng.choice(range(-80, 0, 10))
    points = []
    for angle in range(-80, 81, 10):
        if angle < 0:
            level = -margin if angle == back_at else -margin - rng.uniform(0.5, 10.0)
        else:
            level = -slope * abs(angle - theta)
        points.append((float(angle), round(level, 2) + 0.0))
    window = [p for a, p in points if abs(a - theta) <= 10.0]
    smooth = margin > 20.0 and all(-p <= 10.0 for p in window)
    return Pattern(theta, tuple(points), margin, smooth)


def write_pattern_csv(path: str, pat: Pattern) -> None:
    lines = [",".join(PATTERN_HEADER)] + [f"{a:.1f},{p:.2f}" for a, p in pat.points]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
