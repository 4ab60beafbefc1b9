"""Batch front end: read coframe definitions, run pipeline stages over
sample sets, and emit deterministic JSON reports.

Commands
--------
check         structure-equation residuals (volume normalizations in 3D,
              the four-covector pattern in 4D)
invariants    full pipeline: adaptation, case detection, invariant table
classify      ellipticity class of the plane quadratic per sample point
taut          taut-rotation identities (circle family for eps = -1,
              hyperbola family for eps = +1)
curvature     orthonormal-coframe connection, curvature entries, leaf data
fourdim       four-covector pattern recognition, E, quadratic pairings,
              curvature block
normal-form   build a 4D coframe from a one-variable invariant profile and
              verify it (the positional argument is the C(z) expression)
example       run a named built-in generator and verify its expected table

The positional ``source`` is a definition-file path, or for ``example`` /
any other command, the name of a built-in generator.  Exit status is 0
exactly when every enabled assertion passed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, fourdim
from .curvature import curvature as curvature_of
from .curvature import leaf_geometry, levi_civita, scalar_curvature
from .errors import BicontactError, NotIntegrable
from .examples import EXAMPLES, ExampleSpec, build_example
from .expressions import eval_number, parse as parse_expr
from .forms import CoframeField, ext_d, top_ratio, wedge
from .inputfile import load_definition
from .pipeline import (Tolerances, analyze, cartan_structure_check,
                       circle_volume_coefficient, classify, compute_C,
                       compute_C3, hyperbola_residuals,
                       mixed_circle_coefficient, one_adapt,
                       predicted_circle_coefficient, taut_circle_field,
                       taut_hyperbola_transform)
from .report import (Report, check, nan_max, record_to_dict,
                     summarize_residuals)

DEFAULT_HALF_WIDTH = 0.75


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    """One CLI invocation, echoed verbatim into the report."""

    command: str
    source: str
    order: int = 6
    tol_shallow: float = 1e-9
    tol_deep: float = 1e-6
    points: int = 100
    seed: int = 42
    box: tuple | None = None
    at: tuple = ()
    out: str | None = None
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("--order must be at least 2")
        for name in ("tol_shallow", "tol_deep"):
            if getattr(self, name) <= 0:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.points < 1:
            raise ValueError("--points must be positive")

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(shallow=self.tol_shallow, deep=self.tol_deep)

    def echo(self) -> dict:
        return {
            "source": self.source,
            "order": self.order,
            "tol_shallow": self.tol_shallow,
            "tol_deep": self.tol_deep,
            "points": self.points,
            "seed": self.seed,
            "box": None if self.box is None else [list(b) for b in self.box],
            "at": [list(p) for p in self.at],
            "params": {k: self.params[k] for k in sorted(self.params)},
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }


def _parse_box(text: str) -> tuple:
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"box component {part!r} is not lo:hi")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_point(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _coerce_params(factory, pairs) -> dict:
    """Convert --param k=v strings using the generator's default types."""
    sig = inspect.signature(factory)
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"--param {item!r} is not k=v")
        if key not in sig.parameters:
            raise argparse.ArgumentTypeError(
                f"unknown parameter {key!r}; generator accepts "
                + (", ".join(sig.parameters) or "no parameters"))
        default = sig.parameters[key].default
        if isinstance(default, bool):
            out[key] = value.lower() in ("1", "true", "yes")
        elif isinstance(default, int):
            out[key] = int(value)
        elif isinstance(default, float):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _resolve(cfg: RunConfig):
    """Turn the source argument into (coframe field, spec-or-None)."""
    if cfg.source in EXAMPLES:
        spec = build_example(cfg.source, **cfg.params)
        return spec.coframes(), spec
    if cfg.params:
        raise argparse.ArgumentTypeError(
            "--param only applies to built-in example names")
    return load_definition(cfg.source).coframes(), None


def _sample(cfg: RunConfig, dim: int, spec: ExampleSpec | None):
    if cfg.at:
        bad = [p for p in cfg.at if len(p) != dim]
        if bad:
            raise argparse.ArgumentTypeError(
                f"--at points {bad} do not have {dim} coordinates")
        return [tuple(p) for p in cfg.at]
    box = cfg.box
    if box is None and spec is not None and spec.box:
        box = spec.box
    if box is None:
        box = ((-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH),) * dim
    if len(box) != dim:
        raise argparse.ArgumentTypeError(
            f"--box has {len(box)} components for a {dim}-coordinate chart")
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = lo + (hi - lo) * rng.random((cfg.points, dim))
    return [tuple(float(x) for x in row) for row in pts]


def _unit_circle(n: int = 8):
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return [(float(np.cos(t)), float(np.sin(t))) for t in angles]


# ---------------------------------------------------------------------------
# command bodies

def _cmd_check(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    tol = cfg.tolerances
    if fld.chart.dim == 4:
        for p in pts:
            rec = fourdim.symp_structure(fld.at(p, cfg.order))
            row = {"point": list(p), "eps": rec.eps, "C": rec.C.value,
                   "E": rec.E.value,
                   "residuals": {k: rec.residuals[k]
                                 for k in sorted(rec.residuals)}}
            rep.records.append(row)
        rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
        worst = nan_max(*(s["max"] for s in rep.summary.values()))
        rep.checks.append(check("four_covector_pattern", worst, tol.shallow))
        return
    adapted = one_adapt(fld, pts, cfg.order, tol)
    for p in pts:
        cf = adapted.at(p, cfg.order)
        Omega = cf.volume()
        n1 = top_ratio(wedge(cf.omega(1), ext_d(cf.omega(1))) - Omega, Omega)
        n2 = top_ratio(wedge(cf.omega(2), ext_d(cf.omega(2)))
                       + Omega.scaled(float(cf.eps)), Omega)
        dd = nan_max(*(ext_d(ext_d(cf.omega(i))).max_abs_value()
                       for i in (1, 2, 3)))
        row = {"point": list(p), "eps": cf.eps,
               "residuals": {"self_volume_1": abs(n1.value),
                             "self_volume_2": abs(n2.value),
                             "d_after_d": dd}}
        rep.records.append(row)
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    rep.checks.append(check(
        "self_volume_normalizations",
        nan_max(*(rep.summary[k]["max"]
                  for k in ("self_volume_1", "self_volume_2"))),
        tol.shallow))
    rep.checks.append(check("d_after_d", rep.summary["d_after_d"]["max"],
                            1e-12))


def _cmd_invariants(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    result = analyze(fld, pts, cfg.order, cfg.tolerances)
    for rec in result["records"]:
        rep.records.append(record_to_dict(rec))
        rep.histogram[f"case:{rec.case}"] = \
            rep.histogram.get(f"case:{rec.case}", 0) + 1
        if rec.klass:
            rep.histogram[f"class:{rec.klass}"] = \
                rep.histogram.get(f"class:{rec.klass}", 0) + 1
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    worst = nan_max(0.0, *(s["max"] for s in rep.summary.values()))
    rep.checks.append(check("adaptation_residuals", worst, cfg.tol_deep))


def _cmd_classify(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    adapted = one_adapt(fld, pts, cfg.order, cfg.tolerances)
    band = cfg.tolerances.linear_band
    for p in pts:
        cf = adapted.at(p, cfg.order)
        C = compute_C(cf).value
        tag, quad = classify(C, cf.eps, band)
        key = "excluded_band" if tag == "linear" else tag
        rep.histogram[key] = rep.histogram.get(key, 0) + 1
        rep.records.append({"point": list(p), "eps": cf.eps, "C": C,
                            "klass": tag,
                            "quadratic": list(quad.coefficients)})
    rep.checks.append(check("classified_all_points",
                            len(rep.records), passed=True))


def _cmd_taut(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    tol = cfg.tolerances
    adapted = one_adapt(fld, pts, cfg.order, tol)
    a_samples = _unit_circle()
    if adapted.eps == -1:
        taut_fld, branch = taut_circle_field(adapted, pts, cfg.order)
        for p in pts:
            cf = adapted.at(p, cfg.order)
            taut = taut_fld.at(p, cfg.order)
            C = compute_C(cf)
            C3, _c1, _c2 = compute_C3(cf, C)
            worst = 0.0
            for a1, a2 in a_samples:
                got = circle_volume_coefficient(cf, taut, a1, a2).value
                want = predicted_circle_coefficient(C.value, C3.value, a1, a2)
                worst = nan_max(worst, abs(got - want))
            mixed = mixed_circle_coefficient(cf, taut).value
            sp = 1.0 if 1.0 + C.value > 0 else -1.0
            sm = 1.0 if 1.0 - C.value > 0 else -1.0
            mixed_want = sp * sm * C3.value / abs(1.0 - C.value ** 2) ** 1.5
            rep.records.append({
                "point": list(p), "C": C.value, "C3": C3.value,
                "branch": list(branch),
                "residuals": {"volume_coefficient": worst,
                              "mixed_pairing": abs(mixed - mixed_want)}})
    else:
        for p in pts:
            cf = adapted.at(p, cfg.order)
            taut, C, theta = taut_hyperbola_transform(cf)
            r1, r2, defect = hyperbola_residuals(cf, taut, C, theta)
            rep.records.append({
                "point": list(p), "C": C.value, "theta": theta.value,
                "mixed_defect": defect.value,
                "residuals": {"self_volume_1": r1, "self_volume_2": r2}})
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    worst = nan_max(*(s["max"] for s in rep.summary.values()))
    rep.checks.append(check("taut_rotation_identities", worst, tol.deep))


def _adapted_for_curvature(cfg, fld, pts):
    result = analyze(fld, pts, cfg.order, cfg.tolerances)
    frame_field = result.get("adapted_field", result["field"])
    return result, frame_field


def _cmd_curvature(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    tol = cfg.tolerances
    if fld.chart.dim == 4:
        for p in pts:
            out = fourdim.curvature4(fourdim.symp_structure(fld.at(p, cfg.order)))
            rep.records.append({
                "point": list(p), "S": out.S.value,
                "pfaffian": out.pfaffian.value,
                "leaf_mean_curvature": out.leaf.H,
                "residuals": {k: out.residuals[k]
                              for k in sorted(out.residuals)}})
        rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
        rep.checks.append(check(
            "curvature_displays",
            nan_max(*(s["max"] for s in rep.summary.values())),
            tol.deep))
        return
    result, frame_field = _adapted_for_curvature(cfg, fld, pts)
    rep.histogram[f"case:{result['case']}"] = len(pts)
    for p in pts:
        cf = frame_field.at(p, cfg.order)
        conn = levi_civita(cf)
        curv = curvature_of(conn)
        row = {"point": list(p),
               "theta12": curv.coefficient(0, 1, 0, 1).value,
               "theta13": curv.coefficient(0, 2, 0, 2).value,
               "theta23": curv.coefficient(1, 2, 1, 2).value,
               "scalar": scalar_curvature(curv).value,
               "residuals": {"connection": conn.structure_residual}}
        try:
            leaf = leaf_geometry(cf, conn, curv)
            row["mean_curvature"] = leaf.H
            row["leaf_curvature"] = leaf.K_leaf
            row["residuals"]["leaf_integrability"] = leaf.defect
        except NotIntegrable as exc:
            row["mean_curvature"] = None
            row["leaf_curvature"] = None
            rep.add_error("leaf_geometry", exc)
        rep.records.append(row)
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    rep.checks.append(check("connection_consistency",
                            rep.summary["connection"]["max"], tol.deep))


def _cmd_fourdim(cfg: RunConfig, rep: Report, fld: CoframeField, pts):
    tol = cfg.tolerances
    if fld.chart.dim != 4:
        raise BicontactError(
            "the fourdim command needs a chart with 4 coordinates")
    a_samples = _unit_circle()
    for p in pts:
        frame = fld.at(p, cfg.order)
        rec = fourdim.symp_structure(frame)
        resid = {k: rec.residuals[k] for k in sorted(rec.residuals)}
        e_direct = fourdim.compute_E(frame)
        resid["E_ratio_vs_pattern"] = abs(e_direct.value - rec.E.value)
        exp = fourdim.e_expansion(frame, rec.E)
        resid["E_expansion"] = exp["residual"]
        quad = fourdim.symplectic_quadratic_check(rec, a_samples)
        resid.update({"quad_closed": quad["closed"],
                      "quad_11": quad["quad11"], "quad_22": quad["quad22"],
                      "quad_12": quad["quad12"],
                      "quad_sampled": quad["sampled"]})
        curv = fourdim.curvature4(rec)
        rep.records.append({
            "point": list(p), "eps": rec.eps, "C": rec.C.value,
            "E": rec.E.value, "E1": exp["E1"].value, "E2": exp["E2"].value,
            "S": curv.S.value, "pfaffian": curv.pfaffian.value,
            "curvature_residual": curv.max_residual,
            "residuals": resid})
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    rep.checks.append(check(
        "pattern_and_pairings",
        nan_max(*(s["max"] for s in rep.summary.values())),
        tol.shallow))
    rep.checks.append(check(
        "curvature_displays",
        nan_max(*(r["curvature_residual"] for r in rep.records)), tol.deep))


def _cmd_normal_form(cfg: RunConfig, rep: Report, pts_unused):
    tol = cfg.tolerances
    eps = cfg.extra["eps"]
    span = cfg.extra["span"]
    h = cfg.extra["h"]
    ode = fourdim.QOde(cfg.source, eps, z0=cfg.extra["z0"])
    sol = fourdim.solve_q(ode, span)
    zgrid = np.linspace(span[0], span[1], 41)
    drift = sol.wronskian_drift(zgrid)
    rep.checks.append(check("wronskian_drift", drift, tol.deep))

    fld = fourdim.normal_form_4d(ode, h=h, z_span=span)
    margin = 0.1 * (span[1] - span[0])
    box = cfg.box or ((-0.8, 0.8), (-0.8, 0.8),
                      (span[0] + margin, span[1] - margin), (0.2, 1.8))
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = [tuple(float(x) for x in row)
           for row in lo + (hi - lo) * rng.random((cfg.points, 4))]
    for p in pts:
        worst = fourdim.verify_normal_form(fld, ode, [p], order=cfg.order)
        rep.records.append({"point": list(p),
                            "residuals": {k: worst[k] for k in sorted(worst)}})
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    structural = nan_max(*(rep.summary[k]["max"]
                            for k in ("domega1", "domega2", "domega3",
                                      "domega4", "C", "eps")))
    rep.checks.append(check("structure_equations", structural, tol.deep))
    rep.checks.append(check("round_trip_E_equals_w",
                            rep.summary["E_vs_w"]["max"], tol.deep))


def _expected_value(expr, chart, point, params):
    if isinstance(expr, str):
        scope = dict(zip(chart.coords, point))
        scope.update(params)
        return eval_number(parse_expr(expr, coords=chart.coords,
                                      params=list(params)), scope)
    return float(expr)


def _cmd_example(cfg: RunConfig, rep: Report, fld, spec: ExampleSpec, pts):
    tol = cfg.tolerances
    expected = spec.expected
    if fld.chart.dim == 4:
        worst = {"C": 0.0, "E": 0.0, "pattern": 0.0}
        for p in pts:
            rec = fourdim.symp_structure(fld.at(p, cfg.order))
            worst["pattern"] = nan_max(worst["pattern"], rec.max_residual)
            row = {"point": list(p), "eps": rec.eps, "C": rec.C.value,
                   "E": rec.E.value}
            for key in ("C", "E"):
                if key in expected:
                    want = _expected_value(expected[key], spec.chart, p,
                                           spec.params)
                    worst[key] = nan_max(worst[key], abs(row[key] - want))
            rep.records.append(row)
        rep.checks.append(check("four_covector_pattern", worst["pattern"],
                                tol.shallow))
        for key in ("C", "E"):
            if key in expected:
                rep.checks.append(check(f"expected_{key}", worst[key],
                                        tol.deep))
        return

    result = analyze(fld, pts, cfg.order, tol)
    records = result["records"]
    for rec in records:
        rep.records.append(record_to_dict(rec))
        rep.histogram[f"case:{rec.case}"] = \
            rep.histogram.get(f"case:{rec.case}", 0) + 1
    if "eps" in expected:
        rep.checks.append(check("expected_eps", result["eps"],
                                passed=result["eps"] == expected["eps"]))
    if "case" in expected:
        rep.checks.append(check("expected_case", 0,
                                passed=result["case"] == expected["case"]))
    if "C" in expected:
        dev = nan_max(*(abs(rec.C - _expected_value(expected["C"], spec.chart,
                                                    rec.point, spec.params))
                        for rec in records))
        rep.checks.append(check("expected_C", dev, tol.deep))
    if "C3" in expected:
        dev = nan_max(*(abs(rec.C3 - _expected_value(expected["C3"], spec.chart,
                                                     rec.point, spec.params))
                        for rec in records if rec.C3 is not None))
        rep.checks.append(check("expected_C3", dev, tol.deep))
    for key in ("A1", "A2"):
        if key in expected:
            dev = nan_max(*(abs(getattr(rec, key) - expected[key])
                            for rec in records if getattr(rec, key) is not None))
            rep.checks.append(check(f"expected_{key}", dev, tol.deep))
    if "curvature_12" in expected:
        frame_field = result.get("adapted_field", result["field"])
        dev = 0.0
        for p in pts:
            curv = curvature_of(levi_civita(frame_field.at(p, cfg.order)))
            dev = nan_max(dev, abs(curv.coefficient(0, 1, 0, 1).value
                                   - expected["curvature_12"]))
        rep.checks.append(check("expected_curvature_12", dev, tol.deep))
    if "K" in expected:
        cart = cartan_structure_check(result["field"], pts, cfg.order, tol)
        if cart is None:
            rep.checks.append(check("expected_K", 0, passed=False))
        else:
            dev = nan_max(*(abs(k - expected["K"]) for k in cart["K"]))
            rep.checks.append(check("expected_K", dev, tol.deep))
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _add_common(sp, source_help):
    sp.add_argument("source", help=source_help)
    sp.add_argument("--order", type=int, default=6,
                    help="jet truncation order (default 6)")
    sp.add_argument("--tol-shallow", type=float, default=1e-9,
                    help="tolerance for few-derivative identities")
    sp.add_argument("--tol-deep", type=float, default=1e-6,
                    help="tolerance for deep derivative chains")
    sp.add_argument("--points", type=int, default=100,
                    help="number of random sample points (default 100)")
    sp.add_argument("--seed", type=int, default=42,
                    help="random-sampling seed (default 42)")
    sp.add_argument("--box", type=_parse_box, default=None, metavar="LO:HI,...",
                    help="per-coordinate sampling bounds")
    sp.add_argument("--at", action="append", type=_parse_point, default=None,
                    metavar="X,Y,...", help="explicit sample point (repeatable; "
                    "overrides --box/--points)")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--param", action="append", default=[], metavar="K=V",
                    help="generator parameter (example sources only)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bicontact",
        description="Numerical workbench for pairs of contact forms on "
                    "3- and 4-dimensional charts.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    file_help = ("coframe definition file, or a built-in example name ("
                 + ", ".join(sorted(EXAMPLES)) + ")")
    helps = {
        "check": "structure-equation residuals",
        "invariants": "full adaptation pipeline and invariant table",
        "classify": "plane-quadratic class per sample point",
        "taut": "taut-rotation volume identities",
        "curvature": "orthonormal connection, curvature, leaf geometry",
        "fourdim": "four-covector pattern, E, pairings, curvature block",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        _add_common(sp, file_help)

    ex = sub.add_parser("example", help="verify a built-in generator")
    _add_common(ex, "built-in example name: " + ", ".join(sorted(EXAMPLES)))

    nf = sub.add_parser("normal-form",
                        help="build and verify a 4D coframe from C(z)")
    _add_common(nf, "invariant profile C as an expression in z")
    nf.add_argument("--eps", type=int, choices=(-1, 1), default=1,
                    help="orientation sign (default +1)")
    nf.add_argument("--z0", type=float, default=0.0,
                    help="initial-condition point of the profile equation")
    nf.add_argument("--span", type=_parse_box, default=((-1.2, 1.2),),
                    metavar="LO:HI", help="z-interval for the profile solve")
    nf.add_argument("--h", default="1,0,x^2/2,1", metavar="A,B,C,D",
                    help="row-major 2x2 mixing matrix, expressions in x and y "
                    "(the default satisfies the compatibility constraint)")
    return p


def _config_from_args(args) -> RunConfig:
    extra = {}
    if args.command == "normal-form":
        span = args.span[0] if len(args.span) == 1 else None
        if span is None:
            raise argparse.ArgumentTypeError("--span takes a single LO:HI")
        h = tuple(args.h.split(","))
        if len(h) != 4:
            raise argparse.ArgumentTypeError("--h needs four expressions")
        extra = {"eps": args.eps, "z0": args.z0, "span": span,
                 "h": (h[0:2], h[2:4])}
    return RunConfig(
        command=args.command, source=args.source, order=args.order,
        tol_shallow=args.tol_shallow, tol_deep=args.tol_deep,
        points=args.points, seed=args.seed, box=args.box,
        at=tuple(args.at or ()), out=args.out,
        params={}, extra=extra)


def run(cfg: RunConfig, raw_params=()) -> Report:
    rep = Report(command=cfg.command, config={})
    try:
        if cfg.command == "normal-form":
            rep.config = cfg.echo()
            _cmd_normal_form(cfg, rep, None)
            return rep
        if cfg.source in EXAMPLES and raw_params:
            cfg.params.update(_coerce_params(EXAMPLES[cfg.source], raw_params))
        elif raw_params:
            raise argparse.ArgumentTypeError(
                "--param only applies to built-in example names")
        rep.config = cfg.echo()
        fld, spec = _resolve(cfg)
        pts = _sample(cfg, fld.chart.dim, spec)
        if cfg.command == "example":
            if spec is None:
                raise BicontactError(
                    f"{cfg.source!r} is not a built-in example; have "
                    + ", ".join(sorted(EXAMPLES)))
            _cmd_example(cfg, rep, fld, spec, pts)
        elif cfg.command == "check":
            _cmd_check(cfg, rep, fld, pts)
        elif cfg.command == "invariants":
            _cmd_invariants(cfg, rep, fld, pts)
        elif cfg.command == "classify":
            _cmd_classify(cfg, rep, fld, pts)
        elif cfg.command == "taut":
            _cmd_taut(cfg, rep, fld, pts)
        elif cfg.command == "curvature":
            _cmd_curvature(cfg, rep, fld, pts)
        elif cfg.command == "fourdim":
            _cmd_fourdim(cfg, rep, fld, pts)
        else:
            raise ValueError(f"unhandled command {cfg.command!r}")
    except (BicontactError, OSError, ValueError,
            argparse.ArgumentTypeError) as exc:
        rep.add_error(cfg.command, exc)
    return rep


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"bicontact: {exc}", file=sys.stderr)
        return 2
    rep = run(cfg, raw_params=args.param)
    text = rep.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        verdict = "pass" if rep.passed else "FAIL"
        print(f"bicontact {cfg.command}: {verdict}; report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
