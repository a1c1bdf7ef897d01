"""Shared fixtures.

City generation takes ~0.6 s, so the default city and its WiGLE registry
are built once per test session.  Tests must treat them as immutable.
"""

import numpy as np
import pytest

from repro.city.model import build_city
from repro.wigle.database import WigleDatabase


@pytest.fixture(scope="session")
def city():
    return build_city(rng=np.random.default_rng(42))


@pytest.fixture(scope="session")
def wigle(city):
    return WigleDatabase(city.aps)


@pytest.fixture(scope="session", autouse=True)
def _artifacts_out_of_tree(tmp_path_factory):
    """Every batch writes ``metrics.json`` (and telemetry, checkpoints)
    under ``REPRO_ARTIFACT_DIR``, else ``benchmarks/out``: default it to
    a session temp dir so the suite leaves nothing in the tree.  Tests
    that care where artefacts go still point it at their own tmp_path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_ARTIFACT_DIR", str(tmp_path_factory.mktemp("artifacts")))
        yield
