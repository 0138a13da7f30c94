"""Embedded reference data for drywall / clear glass at 28, 73 and 142 GHz.

Holds the published channel-sounder, reflection-loss, partition-loss and
close-in fit tables as immutable constants, plus CSV ingestion for external
directional path-loss measurements.

Sign convention: reflection losses are stored as positive dB magnitudes
(the source tables print them as negative dB). Partition losses and CI
parameters are positive as printed.
"""

from __future__ import annotations

import csv
import math
import operator
from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import count, islice, repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadNumericError,
    InvariantViolationError,
    MissingColumnError,
    MissingEntryError,
)


def same_freq(a: float, b: float) -> bool:
    """The one frequency-match rule: equal to within a relative 1e-9."""
    return math.isclose(a, b, rel_tol=1e-9)


class Environment(str, Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    NLOS_BEST = "NLOS_BEST"


class Polarization(str, Enum):
    V = "V"
    H = "H"


# One lookup per enum, text -> member; a member is a str equal to its text,
# so it finds its own entry.
_ENVIRONMENTS = {e.value: e for e in Environment}
_POLARIZATIONS = {p.value: p for p in Polarization}
_MEASURED_ENVIRONMENTS = {"LOS": Environment.LOS, "NLOS": Environment.NLOS}


def _member(table: dict, name: str, value):
    """The enum member ``table`` holds for ``value``; a miss names the field."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise InvariantViolationError(
            f"{name} must be one of {list(table)}, got {value!r}") from None


def _checked(name: str, fields: list):
    """A NamedTuple base whose ``_make``, and so ``_replace``, calls the constructor."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class FrequencyBand(_checked("FrequencyBand", [("center_frequency_hz", float), ("label", str)])):
    __slots__ = ()

    def __new__(cls, center_frequency_hz, label):
        if not center_frequency_hz > 0:
            raise InvariantViolationError("center_frequency_hz must be > 0")
        return tuple.__new__(cls, (center_frequency_hz, label))


class AntennaSpec(_checked("AntennaSpec", [("hpbw_deg", float), ("gain_dbi", float),
                                           ("xpd_db", float)])):
    __slots__ = ()

    def __new__(cls, hpbw_deg, gain_dbi, xpd_db):
        if not 0 < hpbw_deg < 180:
            raise InvariantViolationError("hpbw_deg must lie in (0, 180)")
        if not xpd_db > 0:
            raise InvariantViolationError("xpd_db must be > 0")
        return tuple.__new__(cls, (hpbw_deg, gain_dbi, xpd_db))


class ReflectionSample(_checked("ReflectionSample", [
        ("freq_hz", float), ("incident_angle_deg", float), ("reflection_loss_db", float)])):
    """One (incident angle, reflection loss) observation at one frequency."""

    __slots__ = ()

    def __new__(cls, freq_hz, incident_angle_deg, reflection_loss_db):
        cls._check(freq_hz, incident_angle_deg, incident_angle_deg, reflection_loss_db)
        return tuple.__new__(cls, (freq_hz, incident_angle_deg, reflection_loss_db))

    @staticmethod
    def _check(freq_hz, least_angle_deg, greatest_angle_deg, reflection_loss_db) -> None:
        """The invariants, of one sample or of a block's least and greatest values."""
        if not freq_hz > 0:
            raise InvariantViolationError("freq_hz must be > 0")
        if not (0 < least_angle_deg and greatest_angle_deg < 90):
            raise InvariantViolationError("incident_angle_deg must lie in (0, 90)")
        if not reflection_loss_db >= 0:
            raise InvariantViolationError("reflection_loss_db must be >= 0")

    @classmethod
    def _from_columns(cls, freq, angle, loss) -> list:
        """The samples of a block of finite float columns, checked a column at a time."""
        cls._check(min(freq), min(angle), max(angle), min(loss))
        return list(map(tuple.__new__, repeat(cls), zip(freq, angle, loss)))


class PartitionRecord(_checked("PartitionRecord", [
        ("freq_hz", float), ("material_name", str), ("tx_pol", Polarization),
        ("rx_pol", Polarization), ("mean_loss_db", float), ("std_db", float)])):
    __slots__ = ()

    def __new__(cls, freq_hz, material_name, tx_pol, rx_pol, mean_loss_db, std_db):
        tx_pol = _member(_POLARIZATIONS, "tx_pol", tx_pol)
        rx_pol = _member(_POLARIZATIONS, "rx_pol", rx_pol)
        if not std_db >= 0:
            raise InvariantViolationError("std_db must be >= 0")
        return tuple.__new__(cls, (freq_hz, material_name, tx_pol, rx_pol, mean_loss_db, std_db))


class CiFitRecord(_checked("CiFitRecord", [("freq_hz", float), ("environment", Environment),
                                           ("ple", float), ("sigma_db", float)])):
    __slots__ = ()

    def __new__(cls, freq_hz, environment, ple, sigma_db):
        environment = _member(_ENVIRONMENTS, "environment", environment)
        cls._check(ple, sigma_db)
        return tuple.__new__(cls, (freq_hz, environment, ple, sigma_db))

    @staticmethod
    def _check(ple, sigma_db) -> None:
        """The close-in model's invariants, which ``pathloss.CiModel`` shares."""
        if not ple > 0:
            raise InvariantViolationError("ple must be > 0")
        if not sigma_db >= 0:
            raise InvariantViolationError("sigma_db must be >= 0")


class PathLossSample(_checked("PathLossSample", [
        ("freq_hz", float), ("tx_id", str), ("rx_id", str), ("distance_m", float),
        ("environment", Environment), ("tx_az_deg", float), ("tx_el_deg", float),
        ("rx_az_deg", float), ("rx_el_deg", float), ("tx_pol", Polarization),
        ("rx_pol", Polarization), ("path_loss_db", float)])):
    """One directional path-loss record (single pointing-angle combination)."""

    __slots__ = ()

    def __new__(cls, freq_hz, tx_id, rx_id, distance_m, environment, tx_az_deg, tx_el_deg,
                rx_az_deg, rx_el_deg, tx_pol, rx_pol, path_loss_db):
        environment = _member(_MEASURED_ENVIRONMENTS, "environment", environment)
        tx_pol = _member(_POLARIZATIONS, "tx_pol", tx_pol)
        rx_pol = _member(_POLARIZATIONS, "rx_pol", rx_pol)
        cls._check(freq_hz, distance_m, path_loss_db, tx_id, rx_id)
        return tuple.__new__(cls, (freq_hz, tx_id, rx_id, distance_m, environment, tx_az_deg,
                                   tx_el_deg, rx_az_deg, rx_el_deg, tx_pol, rx_pol,
                                   path_loss_db))

    @staticmethod
    def _check(freq_hz, distance_m, path_loss_db, tx_id, rx_id) -> None:
        """The invariants but the enums', of one sample or of a block's least values."""
        if not freq_hz > 0:
            raise InvariantViolationError("freq_hz must be > 0")
        if not distance_m >= 1.0:
            raise InvariantViolationError("distance_m must be >= 1 (close-in reference distance)")
        if not path_loss_db > 0:
            raise InvariantViolationError("path_loss_db must be > 0")
        for name, value in (("tx_id", tx_id), ("rx_id", rx_id)):
            if type(value) is not str:
                raise InvariantViolationError(f"{name} must be a str, got {type(value).__name__}")
            if not value:
                raise InvariantViolationError(f"{name} must not be empty")

    @classmethod
    def _from_columns(cls, *columns) -> list:
        """The samples of a block of columns as the reader gives them (finite floats
        and str cells), checked a column at a time; a faulty block fails as its rows do."""
        freq_hz, tx_id, rx_id, distance_m, environment, *angles, tx_pol, rx_pol, loss = columns
        try:  # "" is the least str
            cls._check(min(freq_hz), min(distance_m), min(loss), min(tx_id), min(rx_id))
            return list(map(tuple.__new__, repeat(cls), zip(
                freq_hz, tx_id, rx_id, distance_m,
                map(_MEASURED_ENVIRONMENTS.__getitem__, environment), *angles,
                map(_POLARIZATIONS.__getitem__, tx_pol),
                map(_POLARIZATIONS.__getitem__, rx_pol), loss)))
        except (InvariantViolationError, KeyError):  # KeyError: a text outside its enum
            return list(map(cls, *columns))  # raises the first faulty row's error


class Material(NamedTuple):
    """Building material with per-frequency relative permittivity."""

    name: str
    thickness_m: float
    permittivity: tuple[tuple[float, float], ...]  # (freq_hz, eps_r) pairs

    def eps_r_at(self, freq_hz: float) -> float:
        for f, eps in self.permittivity:
            if same_freq(f, freq_hz):
                return eps
        raise MissingEntryError(f"no permittivity for {self.name} at {freq_hz} Hz")


class SounderBand(NamedTuple):
    """Channel-sounder line: band, RF bandwidth and the horn antennas used."""

    band: FrequencyBand
    rf_bandwidth_hz: float
    antennas: tuple[AntennaSpec, ...]

    @property
    def xpd_db(self) -> float:
        return self.antennas[0].xpd_db

    @property
    def arc_antenna(self) -> AntennaSpec:
        """Narrow-beam horn used on the reflection/scattering arc."""
        return self.antennas[-1]


# ---------------------------------------------------------------------------
# Embedded tables
# ---------------------------------------------------------------------------

_BAND_28 = FrequencyBand(28e9, "28GHz")
_BAND_73 = FrequencyBand(73e9, "73GHz")
_BAND_142 = FrequencyBand(142e9, "142GHz")

_SOUNDERS = (
    SounderBand(_BAND_28, 1e9, (AntennaSpec(30.0, 15.0, 19.30),
                                AntennaSpec(10.0, 24.5, 19.30))),
    SounderBand(_BAND_73, 1e9, (AntennaSpec(15.0, 20.0, 28.94),
                                AntennaSpec(7.0, 27.0, 28.94))),
    SounderBand(_BAND_142, 1e9, (AntennaSpec(8.0, 27.0, 44.18),)),
)

# Reflection loss of drywall vs incident angle, positive dB.
_REFLECTION = tuple(
    ReflectionSample(f, angle, loss)
    for f, rows in (
        (28e9, ((10.0, 12.98), (30.0, 4.22), (60.0, 4.06), (80.0, 3.18))),
        (73e9, ((10.0, 12.65), (30.0, 8.08), (60.0, 3.16), (80.0, 1.28))),
        (142e9, ((10.0, 9.81), (30.0, 7.53), (60.0, 3.54), (80.0, 0.36))),
    )
    for angle, loss in rows
)

CLEAR_GLASS = "clear_glass"
DRYWALL = "drywall"

_PARTITION = tuple(
    PartitionRecord(f, material, tx, rx, mean, std)
    for material, per_band in (
        (CLEAR_GLASS, (
            (28e9, (("V", "V", 1.53, 0.60), ("V", "H", 20.63, 1.32),
                    ("H", "V", 22.25, 0.88), ("H", "H", 1.48, 0.54))),
            (73e9, (("V", "V", 7.17, 0.17), ("V", "H", 37.65, 0.53),
                    ("H", "V", 36.92, 1.11), ("H", "H", 7.15, 0.44))),
            (142e9, (("V", "V", 10.22, 0.22), ("V", "H", 46.92, 2.05),
                     ("H", "V", 37.37, 1.79), ("H", "H", 10.43, 0.55))),
        )),
        (DRYWALL, (
            (28e9, (("V", "V", 4.15, 0.59), ("V", "H", 25.59, 2.85),
                    ("H", "V", 25.81, 0.65), ("H", "H", 3.31, 1.13))),
            (73e9, (("V", "V", 2.57, 0.61), ("V", "H", 24.97, 0.58),
                    ("H", "V", 23.38, 0.65), ("H", "H", 3.17, 0.68))),
            (142e9, (("V", "V", 8.46, 1.22), ("V", "H", 27.28, 1.77),
                     ("H", "V", 26.00, 1.42), ("H", "H", 9.31, 0.61))),
        )),
    )
    for f, rows in per_band
    for tx, rx, mean, std in rows
)

_CI_FITS = tuple(
    CiFitRecord(f, env, ple, sigma)
    for env, rows in (
        (Environment.LOS, ((28e9, 1.70, 2.50), (73e9, 1.60, 3.20), (142e9, 1.99, 2.71))),
        (Environment.NLOS_BEST, ((28e9, 3.00, 10.80), (73e9, 3.40, 11.80), (142e9, 3.03, 6.91))),
        (Environment.NLOS, ((28e9, 4.40, 11.60), (73e9, 5.30, 15.70), (142e9, 4.70, 14.10))),
    )
    for f, ple, sigma in rows
)

_MATERIALS = (
    Material(DRYWALL, 0.145, ((28e9, 4.7), (73e9, 5.2), (142e9, 6.4))),
    Material(CLEAR_GLASS, 0.006, ()),
)


class PaperDataset(NamedTuple):
    """Immutable bundle of the embedded reference tables."""

    sounders: tuple[SounderBand, ...]
    reflection: tuple[ReflectionSample, ...]
    partition: tuple[PartitionRecord, ...]
    ci_fits: tuple[CiFitRecord, ...]
    materials: tuple[Material, ...]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(s.band.center_frequency_hz for s in self.sounders)

    def sounder(self, freq_hz: float) -> SounderBand:
        for s in self.sounders:
            if same_freq(s.band.center_frequency_hz, freq_hz):
                return s
        raise MissingEntryError(f"no sounder data at {freq_hz} Hz")

    def xpd_db(self, freq_hz: float) -> float:
        return self.sounder(freq_hz).xpd_db

    def arc_antenna(self, freq_hz: float) -> AntennaSpec:
        return self.sounder(freq_hz).arc_antenna

    def reflection_samples(self, freq_hz: float | None = None) -> tuple[ReflectionSample, ...]:
        if freq_hz is None:
            return self.reflection
        return tuple(s for s in self.reflection if same_freq(s.freq_hz, freq_hz))

    def reflection_loss_db(self, freq_hz: float, incident_angle_deg: float) -> float:
        for s in self.reflection_samples(freq_hz):
            if math.isclose(s.incident_angle_deg, incident_angle_deg, abs_tol=1e-9):
                return s.reflection_loss_db
        raise MissingEntryError(f"no reflection entry at {freq_hz} Hz, {incident_angle_deg} deg")

    def partition_records(self, material_name: str | None = None,
                          freq_hz: float | None = None) -> tuple[PartitionRecord, ...]:
        out = self.partition
        if material_name is not None:
            out = tuple(r for r in out if r.material_name == material_name)
        if freq_hz is not None:
            out = tuple(r for r in out if same_freq(r.freq_hz, freq_hz))
        return out

    def partition_record(self, material_name: str, freq_hz: float,
                         tx_pol, rx_pol) -> PartitionRecord:
        try:
            tx_pol = Polarization(tx_pol)
            rx_pol = Polarization(rx_pol)
        except ValueError as err:
            raise MissingEntryError(str(err)) from None
        for r in self.partition_records(material_name, freq_hz):
            if r.tx_pol is tx_pol and r.rx_pol is rx_pol:
                return r
        raise MissingEntryError(
            f"no partition entry for {material_name} {tx_pol.value}-{rx_pol.value} at {freq_hz} Hz")

    def partition_mean_db(self, material_name: str, freq_hz: float, tx_pol, rx_pol) -> float:
        return self.partition_record(material_name, freq_hz, tx_pol, rx_pol).mean_loss_db

    def ci_fit(self, freq_hz: float, environment) -> CiFitRecord:
        try:
            environment = Environment(environment)
        except ValueError as err:
            raise MissingEntryError(str(err)) from None
        for r in self.ci_fits:
            if r.environment is environment and same_freq(r.freq_hz, freq_hz):
                return r
        raise MissingEntryError(f"no CI fit for {environment.value} at {freq_hz} Hz")

    def material(self, name: str) -> Material:
        for m in self.materials:
            if m.name == name:
                return m
        raise MissingEntryError(f"unknown material {name!r}")

    def permittivity(self, freq_hz: float) -> float:
        """Drywall relative permittivity estimated for the given band."""
        return self.material(DRYWALL).eps_r_at(freq_hz)


@lru_cache(maxsize=1)
def paper_dataset() -> PaperDataset:
    """The embedded reference tables; the same frozen instance every call."""
    return PaperDataset(_SOUNDERS, _REFLECTION, _PARTITION, _CI_FITS, _MATERIALS)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

# A CSV row is a record's fields in order; csv and json write an enum member
# as its text. PATTERN_COLUMNS is ScatterPatternPoint._fields, spelled out
# because scattering imports this module (through reflection).
PATH_LOSS_COLUMNS = PathLossSample._fields
REFLECTION_COLUMNS = ReflectionSample._fields
PATTERN_COLUMNS = ("observation_angle_deg", "relative_power_db")

# Rows per block: several links of a directional sweep, whose repeated cells share values.
_BLOCK_ROWS = 256


def _decoded(cells: list, where: str) -> list:
    """``cells``, unless one holds a byte that was not UTF-8, read as a surrogate."""
    try:
        ",".join(cells).encode("utf-8")
    except UnicodeEncodeError as err:
        at = len(err.object[:err.start].encode("utf-8"))
        raise UnicodeDecodeError("utf-8", err.object.encode("utf-8", "surrogateescape"),
                                 at, at + 1, f"invalid byte in {where}") from None
    return cells


def _read_csv(path, columns: Sequence[str], numeric: Sequence[str], build_columns) -> list:
    """The one CSV reader (README's "Data conventions"): ``build_columns(*cells)`` makes records
    of the cells of ``columns``, ``numeric`` ones as finite floats. Decoding is strict; a file
    with a byte that is not UTF-8 is read again, the byte as a surrogate, to name its row."""
    try:
        return _read_blocks(path, columns, numeric, build_columns, "strict")
    except UnicodeDecodeError:
        return _read_blocks(path, columns, numeric, build_columns, "surrogateescape")


def _read_blocks(path, columns, numeric, build_columns, errors: str) -> list:
    with open(path, newline="", encoding="utf-8-sig", errors=errors) as handle:
        reader = csv.reader(handle)
        header = _decoded(next(reader, []), "the header")
        rows = filter(None, reader)
        if errors != "strict":  # a row with a bad byte fails like a row csv refuses
            rows = map(_decoded, rows, map("data row {}".format, count(1)))
        index = {name: i for i, name in enumerate(header)}
        if missing := [c for c in columns if c not in index]:
            raise MissingColumnError(f"missing column(s) {missing} in {path}")
        picks = [index[c] for c in columns]
        order = sorted(range(len(columns)), key=lambda k: columns[k] not in numeric)

        def build(block, row) -> list:
            """The records of ``block``; an error names data row ``row``, as for a block of one."""
            cols = list(zip(*block))  # one per cell of the shortest row (none for no rows)
            for k in order:  # numbers first: a bad one wins over an absent text cell
                if picks[k] >= len(cols) and columns[k] not in numeric:
                    raise InvariantViolationError(f"no cell for column {columns[k]!r}", row=row)
                cells = cols[picks[k]] if picks[k] < len(cols) else ("",)  # an absent number
                texts = set(cells)
                shared = 2 * len(texts) <= len(cells)  # at most half distinct
                values = texts if shared else cells
                if columns[k] in numeric:
                    try:
                        values = list(map(float, values))
                        if not math.isfinite(sum(values)):
                            raise ValueError  # a finite overflow only costs a retry
                    except ValueError:
                        raise BadNumericError(row, columns[k], cells[0]) from None
                cols[picks[k]] = (list(map(dict(zip(texts, values)).__getitem__, cells))
                                  if shared else values)  # keyed by text: "-0.0" stays -0.0
            try:
                return build_columns(*map(cols.__getitem__, picks))
            except InvariantViolationError as err:
                raise InvariantViolationError(str(err), row=row) from None

        out = []
        while True:
            block = []
            try:
                block += islice(rows, _BLOCK_ROWS)  # keeps the rows read before an error
            finally:  # so a fault in those rows is reported before the reader's error
                try:
                    out += build(block, len(out) + 1)  # a record per row so far
                except (BadNumericError, InvariantViolationError):
                    for row, cells in enumerate(block, len(out) + 1):
                        out += build([cells], row)
            if len(block) < _BLOCK_ROWS:
                return out


def load_path_loss_csv(path) -> list[PathLossSample]:
    """Parse a directional path-loss CSV into validated samples.

    Errors name the first offending data row (1-based, header excluded).
    """
    return _read_csv(path, PATH_LOSS_COLUMNS,
                     ("freq_hz", "distance_m", "tx_az_deg", "tx_el_deg",
                      "rx_az_deg", "rx_el_deg", "path_loss_db"), PathLossSample._from_columns)


def save_path_loss_csv(samples: Iterable[PathLossSample], path) -> None:
    """Write samples in the canonical schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PATH_LOSS_COLUMNS)
        writer.writerows(samples)


def load_reflection_csv(path) -> list[ReflectionSample]:
    return _read_csv(path, REFLECTION_COLUMNS, REFLECTION_COLUMNS, ReflectionSample._from_columns)


def load_pattern_csv(path) -> list[tuple[float, float]]:
    """(observation angle, power dB) pairs from a scatter-pattern CSV."""
    return _read_csv(path, PATTERN_COLUMNS, PATTERN_COLUMNS, zip)


_DUPLICATE_KEY_FIELDS = ("tx_id", "rx_id", "tx_az_deg", "tx_el_deg",
                         "rx_az_deg", "rx_el_deg", "tx_pol", "rx_pol")


class ValidationReport(NamedTuple):
    los_count: int
    nlos_count: int
    distance_min: float | None
    distance_max: float | None
    duplicate_keys: tuple[tuple, ...]


def validate_dataset(samples: Sequence[PathLossSample]) -> ValidationReport:
    """Summarize a sample set; purely informational, never mutates input.

    Duplicates are distinct (tx, rx, pointing angles, polarization) keys seen
    more than once; they are reported, not rejected.
    """
    seen = Counter(map(operator.attrgetter(*_DUPLICATE_KEY_FIELDS), samples))
    duplicates = tuple(k for k, count in seen.items() if count > 1)
    environments = Counter(map(operator.attrgetter("environment"), samples))
    distances = list(map(operator.attrgetter("distance_m"), samples))
    return ValidationReport(
        los_count=environments[Environment.LOS],
        nlos_count=environments[Environment.NLOS],
        distance_min=min(distances) if distances else None,
        distance_max=max(distances) if distances else None,
        duplicate_keys=duplicates,
    )
