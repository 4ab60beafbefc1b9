"""Report bytes of the commands served by the 3D pipeline drivers.

The drivers hand their sample-point frames on to later stages instead of
rebuilding them; every report must stay byte-identical.  These SHA-256
digests pin one command per driver path: ``analyze`` in case 2, the taut
hyperbola loop over ``one_adapt``, the constant-C branch with the
``curvature_12`` loop over the adapted field, and ``cartan_structure_check``.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from bicontact.cli import main

GOLDEN = [
    (["invariants", "eta_frame", "--points", "4"],
     "f017e3630bda7ab4dbc94a0f545cb1362fa3c48ae12f8cabe05c6a6bc4aad0a6"),
    (["taut", "normal_form_3d", "--points", "4"],
     "e106c8f3d3233ee0b335fe482e51f45139b0b41cb69bc66c65ef18d6abd022d2"),
    (["example", "torus_constC", "--points", "4"],
     "d2b1725a69c89b2d3821f488e625555dfcb9050484852b3c45e9be2b4b89a3a4"),
    (["example", "sphere_frame", "--points", "4"],
     "3466540edb17f7a16bf71007821be00c65723fb1cfcc5178cd0a896b04c93613"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
