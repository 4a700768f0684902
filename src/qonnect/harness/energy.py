"""Energy coefficients for the synthetic cluster profiles.

A node-hour's energy is ((W_idle + W_max) / 2) x PUE / 1000 kWh. The two
provider presets bracket the profile table: the AWS-derived value is the
lowest (energy-efficient profile), the GCP-derived value the highest
(performance profile), and the cost profile takes their midpoint. The GCP
preset uses the published average idle/max watts and PUE verbatim; the AWS
preset's max watts is back-solved so the formula lands on the published
0.0024042 kWh coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyCoefficientInput:
    w_idle: float  # watts
    w_max: float  # watts
    pue: float  # power usage effectiveness, dimensionless

    def __post_init__(self) -> None:
        if self.w_idle > self.w_max:
            raise ValueError("idle wattage cannot exceed max wattage")
        if self.pue < 1.0:
            raise ValueError("PUE is at least 1")


AWS_COEFFICIENTS = EnergyCoefficientInput(w_idle=0.74, w_max=3.4965, pue=1.135)
GCP_COEFFICIENTS = EnergyCoefficientInput(w_idle=0.71, w_max=4.26, pue=1.1)


def energy_coefficient(coefficients: EnergyCoefficientInput) -> float:
    """kWh consumed per node-hour at average load."""
    return (coefficients.w_idle + coefficients.w_max) / 2.0 * coefficients.pue / 1000.0

