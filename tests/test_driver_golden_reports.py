"""Report bytes of the commands served by the 3D pipeline drivers.

The drivers hand their sample-point frames on to later stages instead of
rebuilding them; every report must stay byte-identical.  These SHA-256
digests pin one command per driver path: ``analyze`` in case 2, the taut
hyperbola loop over ``one_adapt``, the constant-C branch with the
``curvature_12`` loop over the adapted field, ``cartan_structure_check``,
``analyze`` in case 1 on the definition-file fixture, the taut circle
branch, the self-volume ratios of ``check``, C in ``classify``, and the 4D
``curvature`` command with its Pfaffian.  Three more run at the default
order: ``fourdim`` in 4D (the wedge and ``ext_d`` kernels at order 2), the
``normal-form`` profile solve and build, and the 3D ``curvature`` command
with its leaf geometry.  Every command runs
from the repository root, since a report echoes its source path.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from bicontact.cli import main
from conftest import DATA

GOLDEN = [
    (["invariants", "eta_frame", "--points", "4", "--order", "6"],
     "f017e3630bda7ab4dbc94a0f545cb1362fa3c48ae12f8cabe05c6a6bc4aad0a6"),
    (["taut", "normal_form_3d", "--points", "4", "--order", "6"],
     "e106c8f3d3233ee0b335fe482e51f45139b0b41cb69bc66c65ef18d6abd022d2"),
    (["example", "torus_constC", "--points", "4", "--order", "6"],
     "d2b1725a69c89b2d3821f488e625555dfcb9050484852b3c45e9be2b4b89a3a4"),
    (["example", "sphere_frame", "--points", "4", "--order", "6"],
     "3466540edb17f7a16bf71007821be00c65723fb1cfcc5178cd0a896b04c93613"),
    (["invariants", "tests/data/case1_frame.txt", "--points", "4", "--order",
      "6"],
     "14aee915d3854fe1451a6213914a1f442a2e1d522cf8e65e1991edaa2dd8d815"),
    (["taut", "sphere_frame", "--points", "4", "--order", "6"],
     "f3037eaa2cadbfc036a4251261e6711fd7016ed8da218a604e00cb2f4d2200a0"),
    (["check", "eta_frame", "--points", "4", "--order", "6"],
     "cc631e07d754b08a5e54daefa7232d47caf082cfa05767e14d989647514578ce"),
    (["classify", "eta_frame", "--points", "4", "--order", "6"],
     "16c5b2e6b55a2ce6b56c97a1f781044571ca58e9f4ec1f88dfcc18ec5c769d00"),
    (["curvature", "fourd_enonzero", "--points", "2", "--order", "6"],
     "244ef2b6b01db4a86a8b4ea46f9d9977a4bb76210e01b75e918750c80b2cc5fd"),
    (["fourdim", "fourd_enonzero", "--points", "2"],
     "8eca017e0e0e95834a9717d18b63f04785f692a70893a6669961cca276a5d3dd"),
    (["normal-form", "z^2", "--points", "5"],
     "677c5a0d110627be93406b5c61ac2e68608ad28bc95c9a2964ebec355279323d"),
    (["curvature", "eta_frame", "--points", "4"],
     "0cc1a14d1d58587fd5dca9d4e164c0d49fcdf603eb938cfa9519b05bdfd89734"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
