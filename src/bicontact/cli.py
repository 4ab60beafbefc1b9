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
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, fourdim
from .curvature import curvature as curvature_of
from .curvature import leaf_geometry, levi_civita, scalar_curvature
from .errors import BicontactError, BudgetError
from .examples import EXAMPLES, build_example
from .expressions import eval_number, parse as parse_expr
from .forms import block_rows, ext_d, wedge
from .inputfile import load_definition
from .jets import _value
from .pipeline import (Tolerances, _per_column, analyze, cached_C,
                       cartan_structure_check,
                       circle_volume_coefficient, classify,
                       compute_C3, hyperbola_residuals,
                       mixed_circle_coefficient, one_adapt,
                       predicted_circle_coefficient, taut_circle_field,
                       taut_circle_transform, taut_hyperbola_transform)
from .report import (Report, check, nan_max, record_to_dict,
                     summarize_residuals)

DEFAULT_HALF_WIDTH = 0.75

# Default --order per (command, chart dim): the derivative levels consumed by
# the command's deepest chain of ext_d (scalar_d and Coframe.d included) and
# the partials of a frame build, and at least 2.  Truncated jet arithmetic is
# exact coefficient by coefficient, so any higher order gives the same report
# apart from config.order.  In 3D, one_adapt costs 1 level (d omega1,
# d omega2), C one more (d of the rescaled omega2), dC one more.  A command on
# a chart it does not support fails at any order; it runs at FALLBACK_ORDER.
ORDER_NEEDED = {
    # one_adapt 1 + d(d omega2) of the rescaled omega2 in d_after_d 2
    ("check", 3): 3,
    # d_coeffs of the raw frame 1, raised to the minimum 2
    ("check", 4): 2,
    # one_adapt 1 + d of the rescaled omega2 in C 1
    ("classify", 3): 2,
    # C 2 + d of the taut covectors (built from C), dC or d theta(C) 1
    ("taut", 3): 3,
    # C 2 + dC 1 + d omega3, d omega1 (case 2) or d omega1, d omega3 (case 1) 2
    ("invariants", 3): 5,
    # invariants 5 + d of the connection forms, built from d_coeffs 1
    ("curvature", 3): 6,
    # d_coeffs 1 + d of the connection forms 1
    ("curvature", 4): 2,
    # d_coeffs 1 + d of the connection forms 1; d(d omega1) in quad_closed 2
    ("fourdim", 4): 2,
    # invariants 5; only constant-C examples declare curvature_12 (3), K (4)
    ("example", 3): 5,
    # d_coeffs of the raw frame 1, raised to the minimum 2
    ("example", 4): 2,
    # the build's f_z (f holds L_x) in omega4 2 + d omega4 in d_coeffs 1
    ("normal-form", 4): 3,
}
FALLBACK_ORDER = 6


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    """One CLI invocation, echoed verbatim into the report.

    ``order=None`` runs at the order the command needs on the source's chart
    (``ORDER_NEEDED``); the report echoes the order actually used.
    """

    command: str
    source: str
    order: int | None = None
    tol_shallow: float = Tolerances.shallow
    tol_deep: float = Tolerances.deep
    points: int = 100
    seed: int = 42
    box: tuple | None = None
    at: tuple = ()
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        # extra holds the four normal-form options; other commands take none
        keys = (("eps", "z0", "span", "h") if self.command == "normal-form"
                else ())
        if sorted(self.extra) != sorted(keys):
            raise ValueError(f"{self.command} takes the extra keys "
                             f"{sorted(keys)}, got {sorted(self.extra)}")
        if keys:
            for flag, values in (("--span", self.extra["span"]),
                                 ("--z0", (self.extra["z0"],))):
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{flag} must be finite")
            lo, hi = self.extra["span"]
            if lo > hi:
                raise ValueError(f"--span LO {lo!r} exceeds HI {hi!r}")
        if self.order is not None and self.order < 2:
            raise ValueError("--order must be at least 2")
        for name in ("tol_shallow", "tol_deep"):
            # a NaN fails both comparisons, so it is rejected too
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"--{name.replace('_', '-')} must be "
                                 "positive and finite")
        if self.points < 1:
            raise ValueError("--points must be positive")
        for flag, values in (("--box", self.box or ()), ("--at", self.at)):
            if not all(math.isfinite(x) for part in values for x in part):
                raise ValueError(f"{flag} coordinates must be finite")

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
    """Turn the source argument into (coframe field, spec)."""
    spec = (build_example(cfg.source, **cfg.params)
            if cfg.source in EXAMPLES else load_definition(cfg.source))
    return spec.coframes(), spec


def _sample(cfg: RunConfig, dim: int, box: tuple):
    """The --at points, or cfg.points seeded draws from --box, else from the
    source's ``box``, else from the default cube.

    Point p's coordinate k is ``lo + (hi - lo) * u`` with u the (p * dim +
    k)-th draw of ``_uniforms(cfg.seed)``, the stream of NumPy's
    ``default_rng(cfg.seed).random``, so the points are bit-equal to
    ``lo + (hi - lo) * default_rng(cfg.seed).random((cfg.points, dim))``
    without importing ``numpy.random``."""
    if cfg.at:
        bad = [p for p in cfg.at if len(p) != dim]
        if bad:
            raise argparse.ArgumentTypeError(
                f"--at points {bad} do not have {dim} coordinates")
        return [tuple(p) for p in cfg.at]
    box = cfg.box or box or ((-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH),) * dim
    if len(box) != dim:
        raise argparse.ArgumentTypeError(
            f"--box has {len(box)} components for a {dim}-coordinate chart")
    draws = iter(_uniforms(cfg.seed, cfg.points * dim))
    spans = [(lo, hi - lo) for lo, hi in box]
    return [tuple(lo + width * next(draws) for lo, width in spans)
            for _ in range(cfg.points)]


# NumPy's SeedSequence (NEP 19) and PCG64 (O'Neill, HMC-CS-2014-0905,
# XSL-RR 128/64), on Python integers
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list:
    """The four 64-bit words of ``SeedSequence(seed).generate_state(4,
    np.uint64)``: the seed's 32-bit words, least significant first, hashed
    into a pool of 4 and mixed, then hashed out as 8 words, paired low word
    first."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seed: int, n: int) -> list:
    """The first ``n`` floats of ``np.random.default_rng(seed).random``:
    PCG64 seeded from ``_seed_state``, each draw (next64 >> 11) * 2**-53."""
    s0, s1, i0, i1 = _seed_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        out.append((word >> 11) * 2.0 ** -53)
    return out


# eight evenly spaced (a1, a2) on the unit circle, the sampled combinations
# of the taut and symplectic quadratic identities
_UNIT_CIRCLE = [(float(np.cos(t)), float(np.sin(t)))
                for t in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]


# ---------------------------------------------------------------------------
# command bodies: each takes (cfg, rep, fld, spec, pts) and fills ``rep``.
# Every stage runs once per stacked block of frames, the 3D pipeline
# (``analyze``, ``one_adapt``) and the stages after it too, and a record is
# split off per point only at the end (``forms.block_rows``).

def _summarize(rep: Report, keys=None) -> float:
    """Set ``rep.summary`` from the records' residuals and return the worst
    maximum over ``keys`` (default: every residual name)."""
    rep.summary = summarize_residuals(r["residuals"] for r in rep.records)
    return nan_max(0.0, *(rep.summary[k]["max"] for k in keys or rep.summary))


def _tally(rep: Report, key: str):
    rep.histogram[key] = rep.histogram.get(key, 0) + 1


def _pattern(frame) -> dict:
    """The fields of a 4D ``check`` record: eps, C, E and the residual
    table, in key order, of ``symp_structure``."""
    rec = fourdim.symp_structure(frame)
    return {"eps": rec.eps, "C": _value(rec.C), "E": _value(rec.E),
            "residuals": dict(sorted(rec.residuals.items()))}


def _self_volumes(cf) -> dict:
    """The residuals of a 3D ``check`` record."""
    Omega = cf.volume()
    n1 = cf.ratio(wedge(cf.omega(1), cf.d(0)) - Omega)
    n2 = cf.ratio(wedge(cf.omega(2), cf.d(1)) + Omega.scaled(float(cf.eps)))
    return {"self_volume_1": abs(_value(n1)),
            "self_volume_2": abs(_value(n2)),
            "d_after_d": nan_max(*(ext_d(cf.d(i)).max_abs_value()
                                   for i in range(3)))}


def _cmd_check(cfg: RunConfig, rep: Report, fld, spec, pts):
    tol = cfg.tolerances
    if fld.chart.dim == 4:
        for p, row in block_rows(pts, fld.blocks(pts, cfg.order), _pattern):
            rep.records.append({"point": list(p), **row})
        rep.checks.append(check("four_covector_pattern", _summarize(rep),
                                tol.shallow))
        return
    blocks = one_adapt(fld, pts, cfg.order)
    for p, row in block_rows(pts, blocks, _self_volumes):
        rep.records.append({"point": list(p), "eps": blocks[0].eps,
                            "residuals": row})
    worst = _summarize(rep, ("self_volume_1", "self_volume_2"))
    rep.checks.append(check("self_volume_normalizations", worst, tol.shallow))
    rep.checks.append(check("d_after_d", rep.summary["d_after_d"]["max"],
                            1e-12))


def _cmd_invariants(cfg: RunConfig, rep: Report, fld, spec, pts):
    for rec in analyze(fld, pts, cfg.order, cfg.tolerances)["records"]:
        rep.records.append(record_to_dict(rec))
        _tally(rep, f"case:{rec.case}")
        if rec.klass:
            _tally(rep, f"class:{rec.klass}")
    rep.checks.append(check("adaptation_residuals", _summarize(rep),
                            cfg.tol_deep))


def _cmd_classify(cfg: RunConfig, rep: Report, fld, spec, pts):
    blocks = one_adapt(fld, pts, cfg.order)
    eps = blocks[0].eps
    for p, row in block_rows(pts, blocks,
                             lambda cf: {"C": _value(cached_C(cf))}):
        C = row["C"]
        tag, quad = classify(C, eps)
        _tally(rep, "excluded_band" if tag == "linear" else tag)
        rep.records.append({"point": list(p), "eps": eps, "C": C,
                            "klass": tag,
                            "quadratic": list(quad.coefficients)})
    rep.checks.append(check("classified_all_points",
                            len(rep.records), passed=True))


def _mixed_want(C, C3) -> float:
    """The mixed pairing of the taut circle at one point:
    sgn(1-C^2) C3 / |1-C^2|^(3/2)."""
    sp = 1.0 if 1.0 + C > 0 else -1.0
    sm = 1.0 if 1.0 - C > 0 else -1.0
    return sp * sm * C3 / abs(1.0 - C ** 2) ** 1.5


def _circle_row(cf, branch) -> dict:
    """The fields of a ``taut`` record on the circle branch."""
    taut, C, _ = taut_circle_transform(cf, branch)
    C, C3 = _value(C), _value(compute_C3(cf)[0])
    worst = 0.0
    for a1, a2 in _UNIT_CIRCLE:
        got = _value(circle_volume_coefficient(cf, taut, a1, a2))
        want = _per_column(lambda c, c3: predicted_circle_coefficient(
            c, c3, a1, a2), C, C3)
        worst = nan_max(worst, abs(got - want))
    mixed = _value(mixed_circle_coefficient(cf, taut))
    return {"C": C, "C3": C3, "branch": [list(branch)] * len(C),
            "residuals": {"volume_coefficient": worst,
                          "mixed_pairing": abs(
                              mixed - _per_column(_mixed_want, C, C3))}}


def _hyperbola_row(cf) -> dict:
    """The fields of a ``taut`` record on the hyperbola branch."""
    taut, C, theta = taut_hyperbola_transform(cf)
    r1, r2, defect = hyperbola_residuals(cf, taut, theta)
    return {"C": _value(C), "theta": _value(theta),
            "mixed_defect": _value(defect),
            "residuals": {"self_volume_1": r1, "self_volume_2": r2}}


def _cmd_taut(cfg: RunConfig, rep: Report, fld, spec, pts):
    blocks = one_adapt(fld, pts, cfg.order)
    if blocks[0].eps == -1:
        # the branch is fixed over every point before any record is made
        branch = taut_circle_field(blocks)
        rows = block_rows(pts, blocks, lambda cf: _circle_row(cf, branch))
    else:
        rows = block_rows(pts, blocks, _hyperbola_row)
    for p, row in rows:
        rep.records.append({"point": list(p), **row})
    rep.checks.append(check("taut_rotation_identities", _summarize(rep),
                            cfg.tol_deep))


def _curvature4(frame) -> dict:
    """The fields of a 4D ``curvature`` record."""
    out = fourdim.curvature4(fourdim.symp_structure(frame))
    return {"S": _value(out.S), "pfaffian": _value(out.pfaffian),
            "leaf_mean_curvature": out.leaf.H,
            "residuals": dict(sorted(out.residuals.items()))}


def _masked(values, mask) -> list:
    """The columns of ``values``, None where ``mask`` is set."""
    return [None if m else v for v, m in zip(values.tolist(), mask.tolist())]


def _curvature3(cf) -> dict:
    """The fields of a 3D ``curvature`` record."""
    conn = levi_civita(cf)
    curv = curvature_of(conn)
    leaf = leaf_geometry(cf, conn, curv)
    # a frame without leaves has no leaf geometry; that is data about the
    # frame, not a failure of the run
    leafless = leaf.not_integrable
    return {"theta12": _value(curv.coefficient(0, 1, 0, 1)),
            "theta13": _value(curv.coefficient(0, 2, 0, 2)),
            "theta23": _value(curv.coefficient(1, 2, 1, 2)),
            "scalar": _value(scalar_curvature(curv)),
            "residuals": {"connection": conn.structure_residual,
                          "leaf_integrability": leaf.defect},
            "mean_curvature": _masked(leaf.H, leafless),
            "leaf_curvature": _masked(leaf.K_leaf, leafless)}


def _final_blocks(result) -> tuple:
    """The stacked frames of ``analyze``'s last stage, memo included: the
    adapted blocks in cases 1 and 2, else the one-adapted ones."""
    return result.get("adapted_blocks", result["blocks"])


def _cmd_curvature(cfg: RunConfig, rep: Report, fld, spec, pts):
    tol = cfg.tolerances
    if fld.chart.dim == 4:
        for p, row in block_rows(pts, fld.blocks(pts, cfg.order),
                                 _curvature4):
            rep.records.append({"point": list(p), **row})
        rep.checks.append(check("curvature_displays", _summarize(rep),
                                tol.deep))
        return
    result = analyze(fld, pts, cfg.order, tol)
    rep.histogram[f"case:{result['case']}"] = len(pts)
    for p, row in block_rows(pts, _final_blocks(result), _curvature3):
        rep.records.append({"point": list(p), **row})
    rep.checks.append(check("connection_consistency",
                            _summarize(rep, ("connection",)), tol.deep))


def _fourdim(frame) -> dict:
    """The fields of a ``fourdim`` record."""
    rec = fourdim.symp_structure(frame)
    resid = dict(sorted(rec.residuals.items()))
    e_direct = fourdim.compute_E(frame)
    resid["E_ratio_vs_pattern"] = abs(_value(e_direct) - _value(rec.E))
    exp = rec.expansion
    resid["E_expansion"] = exp["residual"]
    quad = fourdim.symplectic_quadratic_check(rec, _UNIT_CIRCLE)
    resid.update({"quad_closed": quad["closed"],
                  "quad_11": quad["quad11"], "quad_22": quad["quad22"],
                  "quad_12": quad["quad12"],
                  "quad_sampled": quad["sampled"]})
    curv = fourdim.curvature4(rec)
    return {"eps": rec.eps, "C": _value(rec.C), "E": _value(rec.E),
            "E1": _value(exp["E1"]), "E2": _value(exp["E2"]),
            "S": _value(curv.S), "pfaffian": _value(curv.pfaffian),
            "curvature_residual": curv.max_residual, "residuals": resid}


def _cmd_fourdim(cfg: RunConfig, rep: Report, fld, spec, pts):
    tol = cfg.tolerances
    if fld.chart.dim != 4:
        raise BicontactError(
            "the fourdim command needs a chart with 4 coordinates")
    for p, row in block_rows(pts, fld.blocks(pts, cfg.order), _fourdim):
        rep.records.append({"point": list(p), **row})
    rep.checks.append(check("pattern_and_pairings", _summarize(rep),
                            tol.shallow))
    rep.checks.append(check(
        "curvature_displays",
        nan_max(*(r["curvature_residual"] for r in rep.records)), tol.deep))


def _cmd_normal_form(cfg: RunConfig, rep: Report, fld, spec, pts):
    tol = cfg.tolerances
    span = cfg.extra["span"]
    ode = fourdim.QOde(cfg.source, cfg.extra["eps"], z0=cfg.extra["z0"])
    sol = fourdim.solve_q(ode, span)
    drift = sol.wronskian_drift(np.linspace(span[0], span[1], 41))
    rep.checks.append(check("wronskian_drift", drift, tol.deep))

    fld = fourdim.normal_form_4d(sol, h=cfg.extra["h"])
    for p, resid in fourdim.normal_form_residual_rows(fld, ode, pts,
                                                      cfg.order):
        rep.records.append({"point": list(p),
                            "residuals": dict(sorted(resid.items()))})
    structural = _summarize(rep, ("domega1", "domega2", "domega3", "domega4",
                                  "C", "eps"))
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


def _cmd_example(cfg: RunConfig, rep: Report, fld, spec, pts):
    if cfg.source not in EXAMPLES:
        raise BicontactError(
            f"{cfg.source!r} is not a built-in example; have "
            + ", ".join(sorted(EXAMPLES)))
    tol = cfg.tolerances
    expected = spec.expected
    if fld.chart.dim == 4:
        worst = {"C": 0.0, "E": 0.0, "pattern": 0.0}
        for p, row in block_rows(pts, fld.blocks(pts, cfg.order), _pattern):
            worst["pattern"] = nan_max(worst["pattern"],
                                       *row.pop("residuals").values())
            row = {"point": list(p), **row}
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
        _tally(rep, f"case:{rec.case}")
    if "eps" in expected:
        rep.checks.append(check("expected_eps", result["eps"],
                                passed=result["eps"] == expected["eps"]))
    if "case" in expected:
        rep.checks.append(check("expected_case", 0,
                                passed=result["case"] == expected["case"]))
    for key in ("C", "C3", "A1", "A2"):
        if key in expected:
            dev = nan_max(*(abs(getattr(rec, key) - _expected_value(
                expected[key], spec.chart, rec.point, spec.params))
                for rec in records if getattr(rec, key) is not None))
            rep.checks.append(check(f"expected_{key}", dev, tol.deep))
    if "curvature_12" in expected:
        dev = 0.0
        for _, row in block_rows(
                pts, _final_blocks(result),
                lambda cf: {"theta12": _value(curvature_of(
                    levi_civita(cf)).coefficient(0, 1, 0, 1))}):
            dev = nan_max(dev, abs(row["theta12"] - expected["curvature_12"]))
        rep.checks.append(check("expected_curvature_12", dev, tol.deep))
    if "K" in expected:
        cart = cartan_structure_check(result["blocks"], tol)
        if cart is None:
            rep.checks.append(check("expected_K", 0, passed=False))
        else:
            dev = nan_max(*(abs(k - expected["K"]) for k in cart["K"]))
            rep.checks.append(check("expected_K", dev, tol.deep))
    _summarize(rep)


# The commands in ``--help`` order: name -> (help line, body).
COMMANDS = {
    "check": ("structure-equation residuals", _cmd_check),
    "invariants": ("full adaptation pipeline and invariant table",
                   _cmd_invariants),
    "classify": ("plane-quadratic class per sample point", _cmd_classify),
    "taut": ("taut-rotation volume identities", _cmd_taut),
    "curvature": ("orthonormal connection, curvature, leaf geometry",
                  _cmd_curvature),
    "fourdim": ("four-covector pattern, E, pairings, curvature block",
                _cmd_fourdim),
    "example": ("verify a built-in generator", _cmd_example),
    "normal-form": ("build and verify a 4D coframe from C(z)",
                    _cmd_normal_form),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _order_help(command: str) -> str:
    needed = ", ".join(f"{order} on {dim}D charts"
                       for (cmd, dim), order in sorted(ORDER_NEEDED.items())
                       if cmd == command)
    return ("jet truncation order (default: the order the command needs, "
            f"{needed})")


def _add_common(sp, command, source_help):
    sp.add_argument("source", help=source_help)
    sp.add_argument("--order", type=int, default=None,
                    help=_order_help(command))
    sp.add_argument("--tol-shallow", type=float, default=RunConfig.tol_shallow,
                    help="tolerance for few-derivative identities")
    sp.add_argument("--tol-deep", type=float, default=RunConfig.tol_deep,
                    help="tolerance for deep derivative chains")
    sp.add_argument("--points", type=int, default=RunConfig.points,
                    help="number of random sample points (default %(default)s)")
    sp.add_argument("--seed", type=int, default=RunConfig.seed,
                    help="random-sampling seed (default %(default)s)")
    sp.add_argument("--box", type=_parse_box, default=None, metavar="LO:HI,...",
                    help="per-coordinate sampling bounds")
    sp.add_argument("--at", action="append", type=_parse_point, default=None,
                    metavar="X,Y,...", help="explicit sample point (repeatable; "
                    "overrides --box/--points)")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--param", action="append", default=[], metavar="K=V",
                    help="generator parameter (example sources only)")


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The command line with a subparser for each of ``commands`` (names
    of ``COMMANDS``, all of them by default)."""
    p = argparse.ArgumentParser(
        prog="bicontact",
        description="Numerical workbench for pairs of contact forms on "
                    "3- and 4-dimensional charts.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    # a parser of fewer commands still lists all of them in its usage line,
    # which an unrecognized argument prints; the full parser renders them
    # itself, and names the argument "command" in its errors
    commands = list(commands)
    listed = (None if len(commands) == len(COMMANDS)
              else "{" + ",".join(COMMANDS) + "}")
    sub = p.add_subparsers(dest="command", required=True, metavar=listed)
    names = ", ".join(sorted(EXAMPLES))
    file_help = ("coframe definition file, or a built-in example name "
                 f"({names})")
    source_help = {"example": "built-in example name: " + names,
                   "normal-form": "invariant profile C as an expression in z"}
    for name in commands:
        sp = sub.add_parser(name, help=COMMANDS[name][0])
        _add_common(sp, name, source_help.get(name, file_help))
        if name == "normal-form":
            _add_normal_form(sp)
    return p


def _add_normal_form(sp):
    sp.add_argument("--eps", type=int, choices=(-1, 1), default=1,
                    help="orientation sign (default +1)")
    sp.add_argument("--z0", type=float, default=0.0,
                    help="initial-condition point of the profile equation")
    sp.add_argument("--span", type=_parse_box, default=((-1.2, 1.2),),
                    metavar="LO:HI", help="z-interval for the profile solve")
    sp.add_argument("--h", default="1,0,x^2/2,1", metavar="A,B,C,D",
                    help="row-major 2x2 mixing matrix, expressions in x and y "
                    "(the default satisfies the compatibility constraint)")


def _config_from_args(args) -> RunConfig:
    extra = {}
    if args.command == "normal-form":
        if len(args.span) != 1:
            raise argparse.ArgumentTypeError("--span takes a single LO:HI")
        h = tuple(args.h.split(","))
        if len(h) != 4:
            raise argparse.ArgumentTypeError("--h needs four expressions")
        extra = {"eps": args.eps, "z0": args.z0, "span": args.span[0],
                 "h": (h[0:2], h[2:4])}
    return RunConfig(
        command=args.command, source=args.source, order=args.order,
        tol_shallow=args.tol_shallow, tol_deep=args.tol_deep,
        points=args.points, seed=args.seed, box=args.box,
        at=tuple(args.at or ()), params={}, extra=extra)


def run(cfg: RunConfig, raw_params=()) -> Report:
    rep = Report(command=cfg.command, config={})
    needed = None
    try:
        if (raw_params or cfg.params) and cfg.source not in EXAMPLES:
            raise argparse.ArgumentTypeError(
                "--param only applies to built-in example names")
        if raw_params:
            cfg.params.update(_coerce_params(EXAMPLES[cfg.source], raw_params))
        rep.config = cfg.echo()
        if cfg.command == "normal-form":
            # a default box inside the profile's span, away from its ends
            fld = spec = None
            lo, hi = cfg.extra["span"]
            margin = 0.1 * (hi - lo)
            dim, box = 4, ((-0.8, 0.8), (-0.8, 0.8),
                           (lo + margin, hi - margin), (0.2, 1.8))
        else:
            fld, spec = _resolve(cfg)
            dim, box = fld.chart.dim, spec.box
        needed = ORDER_NEEDED.get((cfg.command, dim))
        if cfg.order is None:
            cfg = replace(cfg, order=needed or FALLBACK_ORDER)
        rep.config = cfg.echo()
        COMMANDS[cfg.command][1](cfg, rep, fld, spec, _sample(cfg, dim, box))
    except BudgetError as exc:
        if needed is not None and cfg.order < needed:
            exc = BudgetError(exc.stage, needed=needed)
        rep.add_error(cfg.command, exc)
    except (BicontactError, OSError, ValueError,
            argparse.ArgumentTypeError) as exc:
        rep.add_error(cfg.command, exc)
    return rep


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser is built; help, the version, no
    # arguments and an unknown command get all of them
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"bicontact: {exc}", file=sys.stderr)
        return 2
    rep = run(cfg, raw_params=args.param)
    text = rep.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bicontact: cannot write the report: {exc}",
                  file=sys.stderr)
            return 2
        verdict = "pass" if rep.passed else "FAIL"
        print(f"bicontact {cfg.command}: {verdict}; report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
