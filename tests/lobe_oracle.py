"""The dual-lobe directive-scattering pattern, written out once for the tests.

Each lobe has gain ((1 + cos psi) / 2) ** alpha, where psi is the angle to
the lobe axis. The forward lobe points along the specular direction
(-sin ti, 0, cos ti), the back lobe along the backscatter direction
(+sin ti, 0, cos ti), and lambda_mix mixes them (Degli-Esposti et al.,
IEEE TAP 55(1), 2007). This module uses numpy and imports nothing from
``mmwprop.scattering``, so the quadratures built on it check the library's
exact series and log-domain pattern by an independent route.
"""

import math

import numpy as np


def _lobe(cos_psi, alpha):
    return ((1.0 + cos_psi) / 2.0) ** alpha


def ds_lobe_gain(psi_deg, alpha):
    """Single-lobe gain; 1 on axis, 0 anti-axis."""
    return _lobe(np.cos(np.radians(psi_deg)), alpha)


def dual_lobe(polar, azimuth, incident_angle_rad, params):
    """Unnormalized dual-lobe value, all angles in radians.

    polar is measured from the surface normal, azimuth from the source side
    of the incidence plane (the source lies at azimuth 0). Accepts scalars
    or numpy arrays.
    """
    along = np.sin(polar) * np.cos(azimuth) * math.sin(incident_angle_rad)
    normal = np.cos(polar) * math.cos(incident_angle_rad)
    return (params.lambda_mix * _lobe(normal - along, params.alpha_r)
            + (1.0 - params.lambda_mix) * _lobe(normal + along, params.alpha_i))


def ds_pattern_value(polar_deg, azimuth_deg, incident_angle_deg, params):
    """``dual_lobe`` with the angles in degrees."""
    return dual_lobe(np.radians(polar_deg), np.radians(azimuth_deg),
                     math.radians(incident_angle_deg), params)
