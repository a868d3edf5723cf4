"""The benchmark's correctness oracle and the sampler share one readout-error model.

``perfbench/gates.py`` checks every re-read ``simulate`` file against its own
closed form.  For SPAM runs that closed form must be the exact law the
sampler and the bootstrap draw from, or the gate would pass a different
model than the one simulated.
"""

import sys
from pathlib import Path

from qfdr.protocol import (
    COHERENT,
    ProtocolSpec,
    SpamModel,
    run_distribution,
    sample_work,
    step_table,
)
from qfdr.qubit import ThermalSpec

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gates  # noqa: E402

EXPERIMENT = ThermalSpec.from_beta(3.413)


def test_spam_closed_form_is_the_run_law():
    spam = SpamModel(0.004, 0.004)
    for n in range(2, 8):
        spec = ProtocolSpec(COHERENT, n, EXPERIMENT)
        totals, _, probs = run_distribution(step_table(spec, spam))
        mean = probs @ totals
        var = probs @ (totals - mean) ** 2
        exact = n * (EXPERIMENT.beta / 2.0 * var - mean) / spec.norm_dh
        samples = sample_work(spec, spam, runs=8, seed=n)
        assert abs(gates.closed_form(samples) - exact) <= 1e-12, n
