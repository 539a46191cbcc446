"""Figure 12 — outlier importance per layer and accuracy vs pruning.

Left: importance (largest outlier / quantization scale) is highest for
layers near the input and output.  Right: accuracy survives pruning the
unimportant majority and collapses only as pruning approaches 100%.
"""

import numpy as np
from conftest import show_and_archive

from repro.eval.accuracy import fig12_importance


def test_fig12_regenerates(once):
    profile, sweep = once(fig12_importance,
                          pruning_rates=(0.0, 0.5, 0.85, 1.0),
                          benchmarks=("hellaswag", "winogrande"),
                          n_items_scale=0.5)
    show_and_archive(profile, "fig12_profile.txt")
    show_and_archive(sweep, "fig12_sweep.txt")

    # U shape: end layers beat the middle by a clear margin
    values = profile.column("importance")
    n = len(values)
    ends = (values[0] + values[-1]) / 2
    middle = float(np.mean(values[n // 4: -(n // 4)]))
    assert ends > 2.0 * middle

    # accuracy at the paper's default pruning is close to no pruning...
    accs = {row[0]: (row[1], row[2]) for row in sweep.rows}
    for i in range(2):
        assert accs["85%"][i] >= accs["0%"][i] - 0.12
    # ...and collapses at full pruning
    assert np.mean(accs["100%"]) < np.mean(accs["0%"]) - 0.15
