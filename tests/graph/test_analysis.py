"""Structural properties of the generated datasets.

The paper's cache behaviour needs heavy-tailed degrees, and its
Fig. 14 accuracy curves need homophilous labels and a low chance rate;
these tests pin ``make_dataset``'s output in that regime.
"""

import numpy as np

from repro.graph import make_dataset


def test_generated_datasets_have_skewed_degrees():
    """The regime the paper's caches rely on."""
    ds = make_dataset("papers100m-mini", seed=0, scale=0.1)
    deg = np.sort(ds.graph.in_degree().astype(np.float64))
    n = len(deg)
    # Gini of the in-degree distribution (0 = uniform, -> 1 = skewed).
    gini = (2 * (np.arange(1, n + 1) * deg).sum()
            - (n + 1) * deg.sum()) / (n * deg.sum())
    assert gini > 0.3, f"degree Gini {gini:.2f} too uniform for a social graph"


def test_generated_datasets_are_homophilous():
    ds = make_dataset("tiny", seed=0)
    g = ds.graph
    dst = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    # Edge homophily: the fraction of edges whose endpoints share a label.
    h = (ds.labels[g.indices] == ds.labels[dst]).mean()
    chance = 1.0 / ds.num_classes
    assert h > 3 * chance
    assert h < 0.95  # but not trivially clustered


def test_learned_accuracy_beats_chance_baseline():
    """The Fig. 14 curves are meaningful only if chance is low."""
    ds = make_dataset("papers100m-mini", seed=0, scale=0.1)
    majority_rate = np.bincount(ds.labels).max() / len(ds.labels)
    assert majority_rate < 0.05  # 172 classes
