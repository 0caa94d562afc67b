"""The benchmark wraps blinkfit functions by name; each name must still resolve.

perfbench/probe.py replaces module attributes listed in its LAYERS table
and reads fields of their results.  A renamed or deleted target would
otherwise only show as a crash in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from blinkfit.ga import kmeans_cluster, silhouette

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(probe):
    missing = [
        f"blinkfit.{module}.{attr}"
        for module, attr, _, _ in probe.LAYERS
        if not callable(getattr(importlib.import_module(f"blinkfit.{module}"), attr, None))
    ]
    assert not missing


def test_clustering_carries_what_the_probe_reads(probe):
    pts = np.random.default_rng(0).uniform(size=(12, 2))
    clustering = kmeans_cluster(pts, 3, np.random.default_rng(1))
    assert len(clustering.phi_history) >= 1
    assert probe._lloyd((pts, 3), clustering) == {"lloyd": len(clustering.phi_history) - 1}
    np.testing.assert_array_equal(clustering.points, pts)
    scores = silhouette(clustering)
    assert probe._silhouette_points((clustering,), scores) == {"points_squared": 144}
