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
     "b92425dce761547faa4563b0b26266edb7c6d0394caa1450db79f730ebc53576"),
    (["fourdim", "fourd_enonzero", "--points", "2", "--order", "6"],
     "bb4c63a60d5cdd17cb4108126170125cd999d692a7b092e5539eb68aa53e3ab7"),
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
