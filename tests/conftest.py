import pathlib

import numpy as np
import pytest
from hypothesis import settings

from bicontact.forms import unstack
from bicontact.pipeline import one_adapt

DATA = pathlib.Path(__file__).parent / "data"

# no example database: a draw that failed once is not replayed first on
# every later run of the tree, so each run draws what its seed gives
settings.register_profile("no_database", database=None)
settings.load_profile("no_database")


def box_points(box, n, seed=0):
    """Deterministic uniform samples inside a per-coordinate box."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = lo + (hi - lo) * rng.random((n, len(box)))
    return [tuple(float(x) for x in row) for row in pts]


def one_adapted_frames(fld, points, order):
    """The one-adapted frames of ``pipeline.one_adapt``'s stacked blocks,
    one per point, in sample order."""
    return [cf for block in one_adapt(fld, points, order)
            for cf in unstack(block)]


@pytest.fixture
def data_dir():
    return DATA
