"""Report bytes of the commands served by the 3D pipeline drivers.

The drivers hand their sample-point frames on to later stages instead of
rebuilding them, which keeps every report byte-identical; a digest moves
only with a numeric comparison listed in CHANGES.md, as in
``test_golden_reports``.  These SHA-256 digests pin one command per driver
path: ``analyze`` in case 2, the taut hyperbola loop over ``one_adapt``,
the constant-C branch with the ``curvature_12`` loop over the adapted
frames, ``cartan_structure_check``, ``analyze`` in case 1 on the
definition-file fixture, the taut circle branch, the self-volume ratios of
``check``, C in ``classify``, and the 4D ``curvature`` command with its
Pfaffian.  Three more run at the default order: ``fourdim`` in 4D (the
wedge and ``ext_d`` kernels at order 2), the ``normal-form`` profile solve
and build, and the 3D ``curvature`` command with its leaf geometry.  Every
command runs from the repository root, since a report echoes its source
path.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from bicontact.cli import main
from conftest import DATA

GOLDEN = [
    (["invariants", "eta_frame", "--points", "4", "--order", "6"],
     "46cedba4ee22ffc6f0bd591571c2c1d12c6bf865ae8d11c379d1bc64051cdfeb"),
    (["taut", "normal_form_3d", "--points", "4", "--order", "6"],
     "c3f68fded59bacde97f91889a915e7c8d72069f1af01c085e914b8e27042a60c"),
    (["example", "torus_constC", "--points", "4", "--order", "6"],
     "d2b1725a69c89b2d3821f488e625555dfcb9050484852b3c45e9be2b4b89a3a4"),
    (["example", "sphere_frame", "--points", "4", "--order", "6"],
     "60d87f1f048cc7b6d5684dea4472ec5c5b4469f93d7f61f01e99a8df4ef79467"),
    (["invariants", "tests/data/case1_frame.txt", "--points", "4", "--order",
      "6"],
     "a176fc6dfc5d659a225af21be5bd05e7a1a2491d635aeacfb192fddb00670a8c"),
    (["taut", "sphere_frame", "--points", "4", "--order", "6"],
     "94e05ecbe806ac7f9f4c54347f977d24cac199611a8727202b3a5e0b7fba533f"),
    (["check", "eta_frame", "--points", "4", "--order", "6"],
     "d7e295427be53ed596aab09f0775e50468c2f1791518a4ce394716cb0aa8cbc5"),
    (["classify", "eta_frame", "--points", "4", "--order", "6"],
     "0c1041da4f2578cd36e18658cd2c7dc884d6c03f07723281950a9647167dc7fc"),
    (["curvature", "fourd_enonzero", "--points", "2", "--order", "6"],
     "9e835db28ea04d2dc45cba18ae5c9e5c1501522e6562140a9d35523008c02bc2"),
    (["fourdim", "fourd_enonzero", "--points", "2"],
     "eacef3898ea884b01eb80d37120d23bc072cbd793c29e246c84d3f3b89596e12"),
    (["normal-form", "z^2", "--points", "5"],
     "655af326cd9d9a40dc418e79f42bf013f3e1d49df00f5870e8f0d260568d9812"),
    (["curvature", "eta_frame", "--points", "4"],
     "e063deaf57d93ebd8afc586c21513c8d46bbb5b9286eb53e9a4a570507196e93"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=[" ".join(args[:2]) for args, _ in GOLDEN])
def test_report_bytes_are_pinned(args, digest, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
