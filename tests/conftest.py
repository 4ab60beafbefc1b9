import pathlib

import numpy as np
import pytest
from hypothesis import settings

from bicontact import forms, jets
from bicontact.expressions import Tape
from bicontact.forms import PForm, _keys
from bicontact.inputfile import load_definition
from bicontact.pipeline import one_adapt

DATA = pathlib.Path(__file__).parent / "data"

# no example database: a draw that failed once is not replayed first on
# every later run of the tree, so each run draws what its seed gives
settings.register_profile("no_database", database=None)
settings.load_profile("no_database")


# the block size that the block-structure tests are written for: their lists
# of 33 points end in a block of one column and of 40 span two blocks, where
# the shipped forms.STACK_BLOCK makes one block of each
TEST_BLOCK = 32


@pytest.fixture
def blocks_of_32(monkeypatch):
    """``forms.STACK_BLOCK`` set to ``TEST_BLOCK`` for one test."""
    monkeypatch.setattr(forms, "STACK_BLOCK", TEST_BLOCK)


def box_points(box, n, seed=0):
    """Deterministic uniform samples inside a per-coordinate box."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = lo + (hi - lo) * rng.random((n, len(box)))
    return [tuple(float(x) for x in row) for row in pts]


def coeff(jet, alpha) -> float:
    """The Taylor coefficient of a jet at one point, a stack of one, for an
    exponent multi-index."""
    return float(jet.c[jets._rank(jet.dim, jet.order)[tuple(alpha)], 0])


def value(jet) -> float:
    """The base value of a jet at one point, a stack of one."""
    return float(jet.c[0, 0])


def eval_jet(node, point, order, coords, params=None):
    """The jet of the AST ``node`` at one point, as a stack of one, seeding
    coordinate i with slot i: a one-root tape run there."""
    return Tape([node]).run(tuple(np.array([float(v)]) for v in point),
                            order, coords, params)[0]


def load_coframe(path):
    """The coframe family of a definition file."""
    return load_definition(path).coframes()


def one_adapted_block(fld, points, order):
    """The one-adapted frames at ``points``, at most ``forms.STACK_BLOCK``
    of them, as the one stacked block of ``pipeline.one_adapt``."""
    (block,) = one_adapt(fld, points, order)
    return block


def zero_form(chart, degree, order, count=1):
    """The zero degree-form at truncation ``order`` at ``count`` points."""
    return PForm._of(chart, degree, order, np.zeros(
        (len(_keys(chart.dim, degree)), jets.ncoeffs(chart.dim, order),
         count)))


@pytest.fixture
def data_dir():
    return DATA
