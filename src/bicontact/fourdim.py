"""Four-dimensional charts carrying a pair of exact symplectic forms.

The 3D pipeline stops at frames whose invariant has a nonzero vertical
derivative with a functionally dependent second invariant; those extend to a
4-chart with structure equations

    d(omega^1) = omega^1 ^ omega^4 - C omega^1 ^ omega^3 + omega^2 ^ omega^3
    d(omega^2) = omega^2 ^ omega^4 + C omega^2 ^ omega^3 + eps omega^1 ^ omega^3
    d(omega^3) = 0
    d(omega^4) = E omega^1 ^ omega^2

This module verifies that pattern, extracts the scale invariant E, checks the
quadratic identities of the exact symplectic pair, runs the curvature oracles
of the product metric, and constructs coframes of this kind from a scalar
second-order ODE.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet, _value
from .errors import DegenerateH, DomainError, OdeStepFailure
from . import expressions
from .forms import (Chart, Coframe, CoframeField, PForm, block_rows,
                    ext_d_stack, one_form_coeffs, scalar_d, wedge,
                    wedge_stack)
from .curvature import (curvature, leaf_geometry, levi_civita,
                        pfaffian_coefficient, scalar_curvature)
from .report import nan_max

__all__ = ["Coframe4", "symp_structure", "compute_E", "e_expansion",
           "symplectic_quadratic", "symplectic_quadratic_check",
           "Curvature4Report", "curvature4", "QOde", "QSolution", "solve_q",
           "q_jets", "normal_form_4d", "normal_form_residuals",
           "normal_form_residual_rows", "verify_normal_form"]

DEGENERATE_H = 1e-10   # |det h| at or below this = degenerate mixing matrix
_TAYLOR_ORDER = 20     # degree of each Taylor step of solve_q
_TAYLOR_TOL = 1e-14    # bound on a step's last two terms, relative to |Q| >= 1


# ---------------------------------------------------------------------------
# structure recognition

@dataclass
class Coframe4:
    """A 4D coframe matching the exact-symplectic-pair pattern.

    ``residuals`` holds the deviation of every structure-equation coefficient
    from the pattern above, keyed by equation; ``eps`` is rounded from the
    extracted coefficient and ``C``/``E`` keep their jets.  Of a stacked
    frame (``CoframeField.blocks``), ``eps`` and each residual are (N,)
    arrays, one value per column.
    """

    frame: Coframe
    eps: int
    C: Jet
    E: Jet
    residuals: dict

    @property
    def max_residual(self) -> float:
        return nan_max(*self.residuals.values())

    @property
    def expansion(self) -> dict:
        """``e_expansion(frame, E)``, computed on first use, once per frame."""
        frame = self.frame
        return frame._cached("dE", lambda: e_expansion(frame, self.E))


def symp_structure(frame: Coframe) -> Coframe4:
    """Extract (eps, C, E) and the full residual table of the 4D pattern,
    column by column of a stacked frame."""
    if frame.dim != 4:
        raise ValueError("symp_structure needs a 4D coframe")
    d = [frame.d_coeffs(i) for i in range(4)]
    C = -d[0][(0, 2)]
    eps_raw = _value(d[1][(0, 2)])
    # round raises at a NaN or an infinity, at each point as at one
    eps = np.array([round(v) for v in eps_raw.tolist()])
    E = d[3][(0, 1)]
    c, e = _value(C), _value(E)

    def dev(table, expected):
        # nan_max at each point: np.max keeps a NaN too
        return np.max([abs(_value(coeff) - expected.get(pair, 0.0))
                       for pair, coeff in table.items()], axis=0)

    res = {
        "domega1": dev(d[0], {(0, 3): 1.0, (0, 2): -c, (1, 2): 1.0}),
        "domega2": dev(d[1], {(1, 3): 1.0, (1, 2): c, (0, 2): eps_raw}),
        "domega3": dev(d[2], {}),
        "domega4": dev(d[3], {(0, 1): e}),
        "C_match": abs(_value(d[1][(1, 2)]) - c),
        "eps_integer": abs(eps_raw - eps),
    }
    return Coframe4(frame=frame, eps=eps, C=C, E=E, residuals=res)


def compute_E(frame: Coframe) -> Jet:
    """The invariant scale of d(omega^4) against the coframe volume.

    E = (d(omega^4) ^ omega^3 ^ omega^4) / (omega^1 ^ ... ^ omega^4); the
    wedge with omega^3 ^ omega^4 kills every d(omega^4) component except the
    omega^1 ^ omega^2 one, a column per column of the frame.
    """
    num = wedge(wedge(frame.d(3), frame.omega(3)), frame.omega(4))
    return frame.ratio(num)


def e_expansion(frame: Coframe, E: Jet | None = None) -> dict:
    """Expand dE in the coframe: dE = E1 omega^1 + E2 omega^2 + 2E omega^4.

    Returns E1, E2 and the deviation of the omega^3 / omega^4 slots from
    (0, 2E).  A declared constant nonzero E shows up here: its differential
    vanishes, so the omega^4 slot misses 2E by |2E|.  Of a stacked frame,
    the residual is an (N,) array, one value per column.
    """
    if E is None:
        E = compute_E(frame)
    coeffs = one_form_coeffs(scalar_d(frame.chart, E), frame)
    residual = nan_max(abs(_value(coeffs[2])),
                       abs(_value(coeffs[3]) - 2.0 * _value(E)))
    return {"E1": coeffs[0], "E2": coeffs[1], "residual": residual}


# ---------------------------------------------------------------------------
# the symplectic pair and its quadratic

def symplectic_quadratic(a1: float, a2: float, C: float, eps: int) -> float:
    """Volume coefficient of (a1 d omega^1 + a2 d omega^2) squared.

    Twice the contact quadratic: 2 (a1^2 + 2 C a1 a2 - eps a2^2).
    """
    return 2.0 * (a1 * a1 + 2.0 * C * a1 * a2 - eps * a2 * a2)


def symplectic_quadratic_check(F: Coframe4, a_samples=()) -> dict:
    """Residuals of the squared-pair identities.

    theta^i := d(omega^i) are closed 2-forms with
    theta^1 ^ theta^1 = 2 Omega, theta^2 ^ theta^2 = -2 eps Omega and
    theta^1 ^ theta^2 = 2 C Omega; arbitrary combinations follow the
    quadratic above and are spot-checked for each pair in ``a_samples``.
    Of a stacked frame, each residual is an (N,) array, one per column.
    """
    frame = F.frame
    th1, th2 = frame.d(0), frame.d(1)
    closed = nan_max(*(d.max_abs_value() for d in ext_d_stack([th1, th2])))
    C = _value(F.C)
    # only values are read, and a wedge's values are those of its factors'
    # values, so every pairing is taken at order 0, all in one stack
    v1, v2 = th1.truncate(0), th2.truncate(0)
    combos = [v1.scaled(float(a1)) + v2.scaled(float(a2))
              for a1, a2 in a_samples]
    r11, r22, r12, *sampled = (_value(frame.ratio(w)) for w in wedge_stack(
        [(v1, v1), (v2, v2), (v1, v2)] + [(th, th) for th in combos]))
    r11, r22, r12 = r11 - 2.0, r22 + 2.0 * F.eps, r12 - 2.0 * C
    worst_a = 0.0
    for (a1, a2), got in zip(a_samples, sampled):
        want = symplectic_quadratic(a1, a2, C, F.eps)
        worst_a = nan_max(worst_a, abs(got - want))
    return {"closed": closed, "quad11": abs(r11), "quad22": abs(r22),
            "quad12": abs(r12), "sampled": worst_a}


# ---------------------------------------------------------------------------
# curvature oracles for the product metric

@dataclass
class Curvature4Report:
    """Curvature scalars, leaf data and closed-form deviations of the
    orthonormal metric on a 4D pattern frame; of a stacked frame, each
    residual is an (N,) array, one value per column."""

    S: Jet
    pfaffian: Jet
    leaf: object
    residuals: dict

    @property
    def max_residual(self) -> float:
        return nan_max(*self.residuals.values())


def _matrix_dev(got_rows, want_rows):
    return nan_max(*(abs(_value(g) - w)
                     for grow, wrow in zip(got_rows, want_rows)
                     for g, w in zip(grow, wrow)))


def curvature4(F: Coframe4) -> Curvature4Report:
    """Levi-Civita data of the 4D pattern frame, checked against closed forms.

    Every nonzero connection entry, every curvature entry, the scalar
    curvature, the Pfaffian coefficient, and the leaf trace of the closed
    coframe direction are all functions of (eps, C, C3, E, E1, E2); the
    report carries the deviation of each.
    """
    frame = F.frame
    # eps as one float per column
    eps, C, E = F.eps * 1.0, _value(F.C), _value(F.E)
    conn = levi_civita(frame)
    curv = curvature(conn)
    C3 = _value(one_form_coeffs(scalar_d(frame.chart, F.C), frame)[2])
    E1, E2 = _value(F.expansion["E1"]), _value(F.expansion["E2"])

    G = conn.gamma
    conn_dev = nan_max(
        _matrix_dev([G[0][1]], [[0.0, 0.0, 0.5 * (1 - eps), -0.5 * E]]),
        _matrix_dev([G[2][0]], [[-C, 0.5 * (1 + eps), 0.0, 0.0]]),
        _matrix_dev([G[2][1]], [[0.5 * (1 + eps), C, 0.0, 0.0]]),
        _matrix_dev([G[3][0]], [[1.0, 0.5 * E, 0.0, 0.0]]),
        _matrix_dev([G[3][1]], [[-0.5 * E, 1.0, 0.0, 0.0]]),
        _matrix_dev([G[3][2]], [[0.0, 0.0, 0.0, 0.0]]),
    )

    half_pe = 0.5 * (1 + eps)
    cross = 0.5 * (1 + eps + C * E)
    mixed = C - 0.25 * E * (1 + eps)
    want_theta = {
        (0, 1): {(0, 1): C * C - 0.75 * E * E - 0.5 * (1 - eps),
                 (0, 3): -0.5 * E1, (1, 3): -0.5 * E2},
        (0, 2): {(0, 2): -(C * C + C3 + half_pe), (0, 3): mixed,
                 (1, 2): C * (1 - eps), (1, 3): -cross},
        (0, 3): {(0, 1): -0.5 * E1, (0, 2): mixed,
                 (0, 3): 0.25 * E * E - 1.0, (1, 2): -cross},
        (1, 2): {(0, 2): C * (1 - eps), (0, 3): -cross,
                 (1, 2): -(half_pe + C * C - C3), (1, 3): -mixed},
        (1, 3): {(0, 1): -0.5 * E2, (0, 2): -cross, (1, 2): -mixed,
                 (1, 3): 0.25 * E * E - 1.0},
        (2, 3): {},
    }
    curv_dev = 0.0
    theta34 = 0.0
    for (i, j), want in want_theta.items():
        table = curv.coeffs[i, j]
        for pair, coeff in table.items():
            dev = abs(_value(coeff) - want.get(pair, 0.0))
            curv_dev = nan_max(curv_dev, dev)
            if (i, j) == (2, 3):
                theta34 = nan_max(theta34, abs(_value(coeff)))

    S = scalar_curvature(curv)
    pf = pfaffian_coefficient(curv)
    leaf = leaf_geometry(frame, conn, curv, normal=2)
    shape_want = [[-C, half_pe, 0.0], [half_pe, C, 0.0], [0.0, 0.0, 0.0]]
    shape_dev = nan_max(*(abs(g - w) for grow, wrow in zip(leaf.shape, shape_want)
                          for g, w in zip(grow, wrow)))

    res = {
        "connection": conn_dev,
        "structure": conn.structure_residual,
        "curvature": curv_dev,
        "theta34": theta34,
        "scalar": abs(_value(S) + (0.5 * E * E + 2.0 * C * C + 7.0 + eps)),
        "pfaffian": abs(_value(pf) - 2.0 * ((1 + eps) + 2.0 * C * C)),
        "leaf_trace": abs(leaf.trace),
        "leaf_shape": shape_dev,
    }
    return Curvature4Report(S=S, pfaffian=pf, leaf=leaf, residuals=res)


# ---------------------------------------------------------------------------
# the scalar ODE behind the 4D normal form

@dataclass
class QOde:
    """Q'' = (C^2 + eps + C') Q for a declared vertical invariant C(z).

    Two independent solutions are tracked from the fixed initial data
    ``INIT`` = ((Q1, Q1'), (Q2, Q2')) at ``z0``; their Wronskian
    Q1 Q2' - Q2 Q1' is the constant ``W0``.  ``solve_q`` steps both by
    Taylor series, with no tolerance to set.
    """

    INIT = ((0.0, 1.0), (1.0, 0.0))
    W0 = -1.0

    c_text: str
    eps: int
    z0: float = 0.0
    _node: object = field(init=False, repr=False)
    _tape: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._node = expressions.parse(self.c_text, ("z",))
        self._tape = expressions.Tape([self._node])

    def c_jet(self, z, order: int) -> Jet:
        """C as a univariate jet at an (N,) array of z values, a column
        per value, from one run of C's tape."""
        return self._tape.run((z,), order, ("z",))[0]

    def u_jet(self, c: Jet) -> Jet:
        """The coefficient C^2 + eps + C' as a univariate jet, one order
        below ``c``, C's jet at the same point."""
        return c * c + float(self.eps) + jets.partial(c, 0)


def _q_taylor(u, q, dq) -> list:
    """Q's Taylor coefficients at z from u's and (Q, Q'): Q'' = u Q gives
    Q_{n+2} = sum_k u_k Q_{n-k} / ((n+1)(n+2)), up to degree len(u) + 1.
    Each value is a float, where ``solve_q`` reads column 0 of a stack of
    one, or an (N,) array of one value per point, where ``q_jets`` lifts N
    points."""
    out = [q, dq]
    for n in range(len(u)):
        # a plain left-to-right sum for floats and arrays alike (sum() of
        # floats is compensated from Python 3.12 on)
        acc = 0.0
        for k in range(n + 1):
            acc = acc + u[k] * out[n - k]
        out.append(acc / ((n + 1) * (n + 2)))
    return out


def _horner(c, t: float):
    """Value and derivative at offset t of the polynomial sum_n c[n] t^n."""
    v = dv = 0.0
    for a in reversed(c):
        dv = dv * t + v
        v = v * t + a
    return v, dv


@dataclass
class QSolution:
    """(Q1, Q1', Q2, Q2') over [lo, hi] from the Taylor polynomials of the
    step that holds z; ``steps`` holds (left end, expansion point, (Q1, Q2)
    coefficients) for each step of ``solve_q``, sorted by left end."""

    ode: QOde
    lo: float
    hi: float
    steps: list

    def state(self, z: float):
        if not (self.lo - 1e-12 <= z <= self.hi + 1e-12):
            raise DomainError(f"z={z!r} outside integrated interval "
                              f"[{self.lo}, {self.hi}]")
        i = bisect.bisect_right(self.steps, z, key=lambda s: s[0])
        _, za, (c1, c2) = self.steps[max(i - 1, 0)]
        return (*_horner(c1, z - za), *_horner(c2, z - za))

    def wronskian(self, z: float) -> float:
        q1, dq1, q2, dq2 = self.state(z)
        return q1 * dq2 - q2 * dq1

    def wronskian_drift(self, z_values) -> float:
        return nan_max(*(abs(self.wronskian(z) - QOde.W0) for z in z_values))


def solve_q(ode: QOde, z_span) -> QSolution:
    """Integrate both solutions over ``z_span`` by Taylor steps from z0.

    Each step expands Q1 and Q2 to degree ``_TAYLOR_ORDER`` by ``_q_taylor``;
    its length keeps their last two terms below ``_TAYLOR_TOL`` max(1, |Q|).
    A step shorter than 1e-12 max(1, |z|), as on the way into a pole of C,
    or a NaN step raises ``OdeStepFailure`` naming z.
    """
    lo, hi = float(z_span[0]), float(z_span[1])
    if not lo <= ode.z0 <= hi:
        raise DomainError(f"z0={ode.z0!r} outside span {z_span!r}")
    steps = []
    for end in (lo, hi):
        z, z1, init = float(ode.z0), None, ode.INIT
        while z1 != end:
            u = ode.u_jet(ode.c_jet(np.array([z]), _TAYLOR_ORDER - 1))
            u = u.c[:, 0].tolist()
            cs = tuple(_q_taylor(u, q, dq) for q, dq in init)
            c, room = np.abs(cs), abs(end - z)
            r = np.max((c[:, -2:] / (_TAYLOR_TOL * np.maximum(1.0, c[:, :1])))
                       ** (1.0 / np.array([_TAYLOR_ORDER - 1, _TAYLOR_ORDER])))
            h = room if r * room <= 1.0 else float(1.0 / r)
            if not (h >= room or h >= 1e-12 * max(1.0, abs(z))):
                raise OdeStepFailure(f"Taylor step {h!r} too short at z={z!r}")
            z1 = end if h >= room else z + math.copysign(h, end - z)
            steps.append((min(z, z1), z, cs))
            init, z = [_horner(ci, z1 - z) for ci in cs], z1
    steps.sort(key=lambda s: s[0])
    return QSolution(ode=ode, lo=lo, hi=hi, steps=steps)


def q_jets(sol: QSolution, z, c: Jet):
    """Lift (Q1, Q2) at an (N,) array of z values into jets on the z axis
    of the 4D chart, at the order of ``c``, C's univariate jet there
    (``sol.ode.c_jet(z, order)``); each column is bit-equal to the lift of
    its stack of one.

    Values and first derivatives come from the integrated state; all higher
    Taylor coefficients follow from the ODE by ``_q_taylor``, so the jets
    satisfy the equation coefficient-for-coefficient regardless of
    integration error.  u comes from c truncated one order lower, which is
    bit-equal to C's jet at that order, so C's tape runs once per point.
    """
    order = c.order
    u = list(sol.ode.u_jet(c.truncate(order - 1)).c) if order > 1 else []
    state = np.array([sol.state(v) for v in z.tolist()]).T
    return tuple(_on_z(_q_taylor(u, q, dq)[:order + 1], order)
                 for q, dq in (state[:2], state[2:]))


def _on_z(coeffs, order: int) -> Jet:
    """sum_k coeffs[k] (z - z0)^k as a jet of the 4D chart: coefficient k,
    an (N,) array of one value per point, goes straight onto the monomial
    z^k, and "+ 0.0" turns a -0.0 into +0.0.  For finite coefficients this
    is bit-equal to the series by Horner in the jet of z."""
    rank = jets._rank(4, order)
    c = np.zeros((jets.ncoeffs(4, order), len(coeffs[0])))
    for k in range(order + 1):
        c[rank[(0, 0, k, 0)]] = coeffs[k] + 0.0
    return Jet._of(4, order, c)


# ---------------------------------------------------------------------------
# the 4D normal form

_CHART4 = ("x", "y", "z", "w")


def normal_form_4d(sol: QSolution, h) -> CoframeField:
    """Coframe field built from the solved ODE ``sol`` (from ``solve_q``) on
    the chart (x, y, z, w); frames exist for z in the solved interval.

    With S = Q-solution data, h a 2x2 matrix of expressions in x and y
    alone (a name of another coordinate raises ``UnknownIdentifier``) and
    K = (h11 Q1 + h12 Q2)/sqrt(w), L = (h21 Q1 + h22 Q2)/sqrt(w):

        omega^1 = K dx + L dy
        omega^2 = C omega^1 - (K_z dx + L_z dy)
        omega^3 = dz
        omega^4 = dw/(2w) - (K f_z - f K_z) dx - (L f_z - f L_z) dy

    where f = (w / (W0 det h)) (L_x - K_y).  The first three structure
    equations hold for every invertible h; the last one additionally needs
    d/dy(K f_z - f K_z) - d/dx(L f_z - f L_z) = -W0 det h, a constraint on
    h alone that the verification report surfaces when violated (the
    identity matrix violates it: the left side is 0).

    At an (N,) array of values per coordinate the build makes one stacked
    frame: h's tape and C's tape run once over all the points, and K, L, f
    and the covectors are jets and forms with a column per point.  Each
    guard checks every point, so the build raises where any point fails,
    and ``CoframeField.blocks`` then builds the list by halves, down to the
    failing point.
    """
    chart = Chart(_CHART4)
    htape = expressions.Tape([expressions.parse(str(e), ("x", "y"))
                              for row in h for e in row])
    ode = sol.ode

    def build(x, order):
        # each point as a tuple of floats, for the guards' texts
        points = list(zip(*(v.tolist() for v in x)))
        for p in points:
            if p[3] <= 0.0:
                raise DomainError(f"normal form needs w > 0, got {p[3]!r}")
        _, _, z, w = x
        entries = htape.run(x, order, _CHART4)
        hj = [entries[:2], entries[2:]]
        det_h = hj[0][0] * hj[1][1] - hj[0][1] * hj[1][0]
        for p, det in zip(points, jets._values(det_h)):
            # a NaN or infinite det h fails this test too
            if not DEGENERATE_H < abs(det) < math.inf:
                raise DegenerateH(f"det h = {det!r} at {p!r}")
        c = ode.c_jet(z, order)
        q1, q2 = q_jets(sol, z, c)
        per_sqw = jets.reciprocal(jets.sqrt(Jet.variable(w, 3, 4, order)))
        K = (hj[0][0] * q1 + hj[0][1] * q2) * per_sqw
        L = (hj[1][0] * q1 + hj[1][1] * q2) * per_sqw
        Cj = _on_z(c.c, order)
        Kz, Lz = jets.partial(K, 2), jets.partial(L, 2)
        f = (Jet.variable(w, 3, 4, order) / (det_h * QOde.W0)) \
            * (jets.partial(L, 0) - jets.partial(K, 1))
        fz = jets.partial(f, 2)
        zero = Jet.constant(np.zeros(len(w)), 4, order)
        one = Jet.constant(np.ones(len(w)), 4, order)
        w1 = PForm(chart, 1, {(0,): K, (1,): L, (2,): zero, (3,): zero})
        w2 = w1.scaled(Cj) - PForm(chart, 1, {(0,): Kz, (1,): Lz,
                                              (2,): zero, (3,): zero})
        dz = PForm(chart, 1, {(0,): zero, (1,): zero, (2,): one, (3,): zero})
        w4 = PForm(chart, 1, {
            (0,): -(K * fz - f * Kz),
            (1,): -(L * fz - f * Lz),
            (2,): zero,
            (3,): jets.reciprocal(Jet.variable(w, 3, 4, order) * 2.0),
        })
        return Coframe(chart, x, (w1, w2, dz, w4), stage="normal_form_4d")

    return CoframeField(chart, build)


def normal_form_residuals(frame: Coframe, ode: QOde) -> dict:
    """Structure-equation and round-trip residuals of a constructed frame:
    the deviation of the four structure equations from the declared
    (eps, C), and of compute_E from the w coordinate, each an (N,) array,
    one value per column."""
    s4 = symp_structure(frame)
    z, w = frame.point[2:]
    want_c = np.array([expressions.eval_number(ode._node, {"z": v})
                       for v in z.tolist()])
    out = {key: s4.residuals[key]
           for key in ("domega1", "domega2", "domega3", "domega4")}
    out["C"] = abs(_value(s4.C) - want_c)
    out["eps"] = abs(s4.eps - ode.eps) + s4.residuals["eps_integer"]
    out["E_vs_w"] = abs(_value(compute_E(frame)) - w)
    return out


def normal_form_residual_rows(fld: CoframeField, ode: QOde, points,
                              order: int):
    """An iterator over ``points`` in order, each paired with the
    ``normal_form_residuals`` of its frame of ``fld``, from one pass per
    stacked block of frames (``forms.block_rows``), whose columns are
    bit-equal to each frame's own residuals.  The first point whose frame
    fails to build or to check raises its own type and text, after the
    rows before it."""
    return block_rows(points, fld.blocks(points, order),
                      lambda frame: normal_form_residuals(frame, ode))


def verify_normal_form(fld: CoframeField, ode: QOde, points,
                       order: int) -> dict:
    """The worst ``normal_form_residuals`` over the frames of ``fld`` at
    ``points``."""
    worst = dict.fromkeys(("domega1", "domega2", "domega3", "domega4", "C",
                           "eps", "E_vs_w"), 0.0)
    for _, resid in normal_form_residual_rows(fld, ode, points, order):
        for key, value in resid.items():
            worst[key] = nan_max(worst[key], value)
    return worst
