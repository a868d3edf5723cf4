"""Bundled experimental reference points.

The packaged CSV holds the measured rescaled corrections of the trapped-ion
coherent protocol at six inverse speeds, together with their statistical
errors and the originally reported sigma distances.  The values are
transcribed measurement results: they are fixed inputs to the certification
pipeline, never regenerated.

The experiment ran at inverse temperature beta = 3.413 (excited-state
population 0.032) with 8000 repetitions per point and readout error rates of
about 0.4 percent; those numbers are exposed here as defaults.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

from .protocol import COHERENT_NORM_DH

EXPERIMENT_BETA = 3.413
EXPERIMENT_RUNS = 8000
EXPERIMENT_READOUT_ERROR = 0.004


@dataclass(frozen=True)
class ReferencePoint:
    v_inv: float
    nq_rescaled: float
    sigma_stat: float
    sigma_delta: float
    delta_inc_published: float
    delta_spam_published: float

    @property
    def n_steps(self) -> int:
        """Step count implied by v^-1 = N / |dH| on the coherent axis.

        The fifth abscissa (8.845) is not an exact multiple of sqrt(2); it
        rounds to N = 6, which is what every computation here uses.
        """
        return round(self.v_inv * COHERENT_NORM_DH)


def load_reference_points() -> list[ReferencePoint]:
    text = (resources.files("qfdr") / "data" / "experimental_points.csv").read_text()
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    points = []
    for record in csv.DictReader(rows):
        points.append(
            ReferencePoint(
                v_inv=float(record["v_inv"]),
                nq_rescaled=float(record["nq_rescaled"]),
                sigma_stat=float(record["sigma_stat"]),
                sigma_delta=float(record["sigma_delta"]),
                delta_inc_published=float(record["delta_inc_published"]),
                delta_spam_published=float(record["delta_spam_published"]),
            )
        )
    return points
