"""Report bytes of the three benchmark commands, at small point counts.

These SHA-256 digests pin the reports of one command per workload (3D
adaptation with curvature, 4D pattern with curvature block, profile ODE with
normal form).  A change to the jet or form kernels keeps them, or moves a
digest only with a numeric comparison listed beside it in CHANGES.md
(``tools/report_sweep.py --near``: every key, string, bool and exit status
equal, every number within 1e-9 relative).
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from bicontact.cli import main

GOLDEN = [
    (["curvature", "normal_form_3d", "--points", "4"],
     "8b01c239b1d6cae93da23f1d6d397f856056544a8696ecedcc68b76d335e0f72"),
    (["fourdim", "fourd_enonzero", "--points", "2", "--order", "6"],
     "401fe1fd218da1bddca9061812dbd389a2e7ca2b0c0e39de1a1689e3f926a329"),
    (["normal-form", "tan(z)", "--order", "3", "--points", "10"],
     "f359420cd0c3858316fa5832a19a013407d96fb854b22de387b532d80548cbf3"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
