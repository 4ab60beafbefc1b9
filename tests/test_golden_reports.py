"""Report bytes of the three benchmark commands, at small point counts.

Jet products and coefficient extraction may be reorganised for speed only
if every report stays byte-identical; these SHA-256 digests pin the reports
of one command per workload (3D adaptation with curvature, 4D pattern with
curvature block, profile ODE with normal form).
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from bicontact.cli import main

GOLDEN = [
    (["curvature", "normal_form_3d", "--points", "4"],
     "ecdc33bd7a016c2ff71f902c9fce5442b6348520db2a3bd03465303b5f2aa9f4"),
    (["fourdim", "fourd_enonzero", "--points", "2", "--order", "6"],
     "c1514e2c293eb58c2c8348cb7645272088fc387bc8df823ef0003aea2ba38c46"),
    (["normal-form", "tan(z)", "--order", "3", "--points", "10"],
     "4737ec6839c06269b24b21f3c43ba3e302add7358a8763f09111b339b2fe6c98"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
