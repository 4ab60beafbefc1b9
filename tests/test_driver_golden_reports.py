"""Report bytes of the commands served by the 3D pipeline drivers.

The drivers hand their sample-point frames on to later stages instead of
rebuilding them; every report must stay byte-identical.  These SHA-256
digests pin one command per driver path: ``analyze`` in case 2, the taut
hyperbola loop over ``one_adapt``, the constant-C branch with the
``curvature_12`` loop over the adapted frames, ``cartan_structure_check``,
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
     "36c3f64d59dc46756536669c5db77d0f1fc8dc5ef7cb397afc9e455bbb5c6845"),
    (["taut", "normal_form_3d", "--points", "4", "--order", "6"],
     "e106c8f3d3233ee0b335fe482e51f45139b0b41cb69bc66c65ef18d6abd022d2"),
    (["example", "torus_constC", "--points", "4", "--order", "6"],
     "d2b1725a69c89b2d3821f488e625555dfcb9050484852b3c45e9be2b4b89a3a4"),
    (["example", "sphere_frame", "--points", "4", "--order", "6"],
     "4e2fa2dfd5366b5757456d6518c2bfba099b2f634f7b87d9e498d0ef3c79df0a"),
    (["invariants", "tests/data/case1_frame.txt", "--points", "4", "--order",
      "6"],
     "862c3bd0ddc530396652dc535f3d3e949f80d0bcc684900aba1f91579d28a7c5"),
    (["taut", "sphere_frame", "--points", "4", "--order", "6"],
     "f3037eaa2cadbfc036a4251261e6711fd7016ed8da218a604e00cb2f4d2200a0"),
    (["check", "eta_frame", "--points", "4", "--order", "6"],
     "cc631e07d754b08a5e54daefa7232d47caf082cfa05767e14d989647514578ce"),
    (["classify", "eta_frame", "--points", "4", "--order", "6"],
     "16c5b2e6b55a2ce6b56c97a1f781044571ca58e9f4ec1f88dfcc18ec5c769d00"),
    (["curvature", "fourd_enonzero", "--points", "2", "--order", "6"],
     "244ef2b6b01db4a86a8b4ea46f9d9977a4bb76210e01b75e918750c80b2cc5fd"),
    (["fourdim", "fourd_enonzero", "--points", "2"],
     "23bbfe4862acddf2ab94bbb0e171f60614ea2d271e4ed62c535f0f9b33cbcf53"),
    (["normal-form", "z^2", "--points", "5"],
     "677c5a0d110627be93406b5c61ac2e68608ad28bc95c9a2964ebec355279323d"),
    (["curvature", "eta_frame", "--points", "4"],
     "840c3e86979a068180843ace8e0446b6974d956e4a4515e0dbfcfa37fdbc3262"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
