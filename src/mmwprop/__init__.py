"""Indoor mmWave / sub-THz wall-interaction and path-loss models.

Reflection (Fresnel + permittivity estimation), dual-lobe directive
scattering, partition loss / depolarization, and close-in path-loss fitting,
validated against embedded reference tables for drywall and clear glass at
28, 73 and 142 GHz.
"""

from . import datasets, errors, partition, pathloss, reflection, scattering
from .datasets import (
    Environment,
    PathLossSample,
    Polarization,
    ReflectionSample,
    load_path_loss_csv,
    load_reflection_csv,
    paper_dataset,
    save_path_loss_csv,
    validate_dataset,
)
from .partition import (
    LinkPowerMeasurement,
    PowerBudget,
    depolarization_margin,
    partition_loss,
    power_budget,
    xpd_from_path_losses,
)
from .pathloss import CiModel, ci_path_loss_db, fit_ci, fspl_db, reduce_directional
from .reflection import (
    LinearReflectionFit,
    estimate_permittivity_mmse,
    fit_linear_reflection,
    fresnel_gamma_perp,
    reflection_loss_db,
)
from .scattering import (
    DsParameters,
    ScatterGeometry,
    ScatterPatternPoint,
    backscatter_margin,
    classify_smooth,
    ds_normalization,
    predict_pattern,
    sweep_geometries,
)

__version__ = "0.1.0"
