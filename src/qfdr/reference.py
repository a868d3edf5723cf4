"""Bundled experimental reference points.

The packaged CSV holds the measured rescaled corrections of the trapped-ion
coherent protocol at six inverse speeds, together with their statistical
errors and the originally reported sigma distances.  It is read by
``io.read_csv_table``, like any emitted table, and its columns are the
``ReferencePoint`` fields.  The values are transcribed measurement results:
they are fixed inputs to the certification pipeline, never regenerated.

The experiment ran at inverse temperature beta = 3.413 (excited-state
population 0.032) with 8000 repetitions per point and readout error rates of
about 0.4 percent; those numbers are exposed here as defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .io import read_csv_table
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
    _, rows = read_csv_table(Path(__file__).parent / "data" / "experimental_points.csv")
    return [ReferencePoint(**{key: float(value) for key, value in row.items()}) for row in rows]
