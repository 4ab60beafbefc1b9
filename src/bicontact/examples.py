"""Built-in coframe generators used as oracles throughout the test suite.

Each generator returns a :class:`~bicontact.inputfile.CoframeSpec` bundling
the chart, the coefficient-expression table, a sampling box, and a table of
expected invariant values that the pipeline must reproduce.  Generators are
pure: identical parameters give identical expression text.
"""

from __future__ import annotations

import math

from .expressions import differentiate, parse, to_text
from .forms import Chart
from .inputfile import CoframeSpec

__all__ = ["example_hyp_C3", "example_T2xR", "normal_form_3d", "eta_frame",
           "example_4d", "sphere_frame", "EXAMPLES", "build_example"]


def _deriv_text(expr: str, var: str, coords) -> str:
    return to_text(differentiate(parse(expr, coords=coords), var))


# ---------------------------------------------------------------------------

def example_hyp_C3(eps: int = -1, c3: str = "1") -> CoframeSpec:
    """Mixed elliptic/hyperbolic family on a single chart.

    The invariant C equals the coordinate z; for eps=-1 the chart splits
    into an elliptic region |z|<1 and a hyperbolic region |z|>1.  The
    coefficient of the third covector is the reciprocal of `c3` (a
    nonvanishing expression in z), which is what the third frame
    derivative of C evaluates to.
    """
    if eps not in (-1, 1):
        raise ValueError("eps must be +1 or -1")
    chart = Chart(("x", "y", "z"))
    parse(c3, coords=("z",))        # validate: expression in z only
    q1 = "((x+y)*z-(x-y))"
    q2 = f"(({eps})*(x+y)+(x-y)*z)"
    rows = [
        {"dx": "1", "dy": "1", "dz": f"-{q1}/({c3})"},
        {"dx": "1", "dy": "-1", "dz": f"{q2}/({c3})"},
        {"dz": f"1/({c3})"},
    ]
    return CoframeSpec(
        name="hyp_c3", chart=chart, rows=rows, params={},
        expected={"eps": eps, "C": "z", "C3": c3, "case": "case3"},
        box=((-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)),
        notes=(f"C equals z; third frame derivative of C equals {c3}; "
               "the canonical third covector reproduces omega3, so the "
               "B-torsion vanishes identically (constant-C3 leaf case)."))


def example_T2xR(psi: float = 0.3, Psi: str = "z") -> CoframeSpec:
    """Constant-invariant family on a 3-torus-like chart.

    f and g trace the hyperbola f^2 - g^2 + 2Cfg = 1 with C = sinh(2 psi);
    the generating function `Psi` (an expression in z with nonvanishing
    derivative) parameterizes the trace.
    """
    chart = Chart(("theta", "phi", "z"))
    coords = ("theta", "phi", "z")
    psi = float(psi)
    C = math.sinh(2.0 * psi)
    f = f"cosh(({Psi})-psi)/cosh(2*psi)"
    g = f"sinh(({Psi})+psi)/cosh(2*psi)"
    fp = _deriv_text(f, "z", coords + ("psi",))
    gp = _deriv_text(g, "z", coords + ("psi",))
    rows = [
        {"dtheta": f, "dphi": g, "dz": f"({g})-2*sinh(2*psi)*({f})"},
        {"dtheta": f"2*sinh(2*psi)*({f})-({g})", "dphi": f"-({f})", "dz": g},
        {"dz": f"({f})*({gp})-({fp})*({g})"},
    ]
    return CoframeSpec(
        name="torus_constC", chart=chart, rows=rows, params={"psi": psi},
        expected={"eps": 1, "C": C, "case": "constantC",
                  "curvature_12": math.cosh(2.0 * psi) ** 2},
        box=((-3.0, 3.0), (-3.0, 3.0), (-1.0, 1.0)),
        notes=("C is constant (sinh of twice the psi parameter); the "
               "curvature two-form of the invariant metric has a constant "
               "1-2 entry and the z-leaves are flat and minimal."))


def _normal_form_etas(eps: int, f: str, g: str):
    """Coefficient strings for the two auxiliary 1-forms of the 3D normal form."""
    coords = ("x", "y", "z")
    parse(f, coords=("x",))
    parse(g, coords=("x",))
    fp = _deriv_text(f, "x", coords)
    h = f"(({f})^2+({fp})+1)"
    if eps == 1:
        n1 = (f"y^2*({g})+2*y*(({f})-2*cot(2*x))*csc(2*x)"
              f"-{h}*y^2*ln(y)-z*({f})")
        n2 = f"(2*z-y^2*({f})-2*y*csc(2*x))/y"
    else:
        n1 = (f"y^2*({g})-2*y*({f})*cot(2*x)+2*y+4*y*csc(2*x)^2"
              f"-{h}*y^2*ln(y)-z*({f})")
        n2 = f"(2*z-y^2*({f})+2*y*cot(2*x))/y"
    eta1 = {"dx": f"({n1})/y^2", "dy": f"({n2})/y^2", "dz": "-1/y^2"}
    eta2 = {"dx": "z/y^2", "dy": "-1/y"}
    return eta1, eta2


def _rotate_etas(eta1, eta2):
    """Rows for cos(x)*eta1 + sin(x)*eta2 and -sin(x)*eta1 + cos(x)*eta2."""
    def combine(ca, a, cb, b):
        row = {}
        for key in ("dx", "dy", "dz"):
            parts = []
            if key in a:
                parts.append(f"{ca}*({a[key]})")
            if key in b:
                parts.append(f"{cb}*({b[key]})")
            if parts:
                row[key] = "+".join(parts)
        return row
    w1 = combine("cos(x)", eta1, "sin(x)", eta2)
    w2 = combine("(-sin(x))", eta1, "cos(x)", eta2)
    return w1, w2


def normal_form_3d(eps: int = 1, f: str = "0", g: str = "0") -> CoframeSpec:
    """Fully adapted frame whose invariant depends on x alone.

    For any expressions f(x), g(x) the generated frame satisfies the
    case-2 structure equations with both alpha-torsions identically zero,
    and the invariant is cot(2x) for eps=+1 and -csc(2x) for eps=-1.
    Valid for x in (0, pi/4) and y > 0 (a logarithm of y appears).
    """
    if eps not in (-1, 1):
        raise ValueError("eps must be +1 or -1")
    chart = Chart(("x", "y", "z"))
    eta1, eta2 = _normal_form_etas(eps, f, g)
    w1, w2 = _rotate_etas(eta1, eta2)
    rows = [w1, w2, {"dx": "1/y"}]
    C = "cot(2*x)" if eps == 1 else "-csc(2*x)"
    return CoframeSpec(
        name="normal_form_3d", chart=chart, rows=rows,
        params={},
        expected={"eps": eps, "C": C, "case": "case2", "A1": 0.0, "A2": 0.0},
        box=((0.25, 0.7), (0.55, 1.9), (-0.9, 0.9)),
        notes=("Already adapted as written: unit one-adaptation scalings, "
               "unit B-norm, and vanishing alpha-torsions for every f, g. "
               "The invariant depends only on x."))


def eta_frame(f: str = "0") -> CoframeSpec:
    """The un-rotated auxiliary pair, with the coordinate covector dx as seed.

    A case-2 structure with invariant csc(2x)/y: elliptic where
    |csc(2x)/y| < 1 and hyperbolic where it exceeds 1.
    """
    chart = Chart(("x", "y", "z"))
    eta1, eta2 = _normal_form_etas(+1, f, "0")
    rows = [eta1, eta2, {"dx": "1"}]
    return CoframeSpec(
        name="eta_frame", chart=chart, rows=rows, params={},
        expected={"eps": -1, "C": "csc(2*x)/y", "case": "case2"},
        box=((0.25, 0.7), (0.55, 1.9), (-0.9, 0.9)),
        notes=("One-adapted as written (unit scalings).  The volume "
               "quadratic form is a1^2 + a2^2 + 2*a1*a2*csc(2x)/y."))


def example_4d(kind: str = "Ezero") -> CoframeSpec:
    """The two 4D prolongation examples, distinguished by the scalar E."""
    if kind == "Ezero":
        chart = Chart(("x", "y", "z", "s"))
        # base frame with C = z and unit third derivative, twisted by s
        q1 = "((x+y)*z-(x-y))"
        q2 = "(-(x+y)+(x-y)*z)"
        rows = [
            {"dx": "exp(-s)", "dy": "exp(-s)",
             "dz": f"exp(-s)*(-{q1}+s*(1-z))", "ds": "exp(-s)"},
            {"dx": "exp(-s)", "dy": "-exp(-s)",
             "dz": f"exp(-s)*({q2}+s*(z-1))", "ds": "exp(-s)"},
            {"dz": "1"},
            {"ds": "1"},
        ]
        return CoframeSpec(
            name="fourd_ezero", chart=chart, rows=rows,
            expected={"E": 0.0, "C": "z"},
            box=((-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8)),
            notes="The fourth covector is exact, so E vanishes identically.")
    if kind == "Enonzero":
        chart = Chart(("x", "y", "z", "w"))
        rows = [
            {"dx": "z*exp(-w)", "dz": "z*exp(-w)",
             "dy": "y*exp(y*(x+z)-w)"},
            {"dx": "-(z*tan(z)+1)*exp(-w)", "dz": "-(z*tan(z)+1)*exp(-w)",
             "dy": "-y*tan(z)*exp(y*(x+z)-w)"},
            {"dz": "1"},
            {"dx": "-y", "dz": "-y", "dw": "1"},
        ]
        return CoframeSpec(
            name="fourd_enonzero", chart=chart, rows=rows,
            expected={"E": "exp(2*w-y*(x+z))/y", "C": "-tan(z)"},
            box=((0.3, 1.2), (0.4, 1.5), (-0.9, 0.9), (-0.5, 0.5)),
            notes=("E is nowhere zero on the chart; the exterior derivative "
                   "of the fourth covector is -dy^(dx+dz)."))
    raise ValueError(f"unknown 4D example kind {kind!r}")


def sphere_frame() -> CoframeSpec:
    """Euler-angle coframe with unit curvature (round-sphere frame bundle)."""
    chart = Chart(("theta", "phi", "psi"))
    rows = [
        {"dtheta": "cos(psi)", "dphi": "sin(psi)*sin(theta)"},
        {"dtheta": "sin(psi)", "dphi": "-cos(psi)*sin(theta)"},
        {"dpsi": "1", "dphi": "cos(theta)"},
    ]
    return CoframeSpec(
        name="sphere_frame", chart=chart, rows=rows,
        expected={"eps": -1, "C": 0.0, "K": 1.0},
        box=((0.3, 2.8), (-3.0, 3.0), (-3.0, 3.0)),
        notes=("Both mixed volume pairings vanish, so the structure reduces "
               "to surface frame-bundle equations with curvature K = 1."))


# ---------------------------------------------------------------------------

EXAMPLES = {
    "hyp_c3": example_hyp_C3,
    "torus_constC": example_T2xR,
    "normal_form_3d": normal_form_3d,
    "eta_frame": eta_frame,
    "fourd_ezero": lambda: example_4d("Ezero"),
    "fourd_enonzero": lambda: example_4d("Enonzero"),
    "sphere_frame": sphere_frame,
}


def build_example(name: str, **params) -> CoframeSpec:
    """Look up a generator by name and call it with string/number params."""
    try:
        factory = EXAMPLES[name]
    except KeyError:
        raise KeyError(f"no example named {name!r}; have "
                       + ", ".join(sorted(EXAMPLES))) from None
    return factory(**params)
