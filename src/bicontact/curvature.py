"""Levi-Civita connection and curvature for the orthonormal-coframe metric.

The metric declares the given coframe orthonormal.  The connection solves
the first structure equation d(omega^i) = -omega^i_j ^ omega^j with a
skew coefficient matrix; curvature is Theta = d(theta) + theta ^ theta.
Both tables are built once, on construction, and are frozen and skew: the
connection builds omega^i_j for i < j and sets omega^j_i = -omega^i_j, the
curvature holds Theta^i_j for i < j and gives the lower half by sign, and
neither builds the zero diagonal.  Each table is built whole, as one array
computation per truncation order, in the way of the structure functions of
Cartan's method (Olver, *Equivalence, Invariants and Symmetry*, 1995): the
Gamma entries of one order, every omega^i_j (``Coframe.combine``), the
structure residual (one stacked wedge, at order 0 since it reads values),
d of every omega^i_j, every omega^i_k ^ omega^k_j and every coefficient
table (``forms.ext_d_stack``, ``wedge_stack`` and ``coeffs_stack``), each
entry bit-equal to building it on its own.  Everything works in any chart
dimension (used here for 3 and 4), column by column on a stacked frame
(``CoframeField.blocks``), whose values and residuals are (N,) arrays, one
value per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet, _value
from .errors import NotIntegrable
from .report import nan_max
from .forms import (Coframe, PForm, _stacked, _wedge_rows, coeffs_stack,
                    ext_d_stack, wedge, wedge_stack)

__all__ = ["ConnectionMatrix", "CurvatureMatrix", "levi_civita", "curvature",
           "scalar_curvature", "pfaffian_coefficient", "LeafGeometry",
           "leaf_geometry"]

INTEGRABLE = 1e-8   # integrability defect above this = not integrable


def _structure_coeffs(frame: Coframe):
    """D[i][j][k] with d(omega^i) = sum_{j<k} D[i][j][k] omega^j ^ omega^k,
    stored fully antisymmetric in (j, k)."""
    dim = frame.chart.dim
    # one zero per column of the frame
    zero = Jet.constant(np.zeros(frame.forms[0].c.shape[2]), dim,
                        max(frame.forms[0].order - 1, 0))
    D = [[[zero for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        coeffs = frame.d_coeffs(i, stage="levi_civita(structure coeffs)")
        for (j, k), c in coeffs.items():
            D[i][j][k] = c
            D[i][k][j] = -c
    return D


@dataclass(frozen=True)
class ConnectionMatrix:
    """Skew matrix of connection 1-forms omega^i_j = Gamma[i][j][k] omega^k.

    Construction builds every omega^i_j with i < j as the k-sum, all in one
    ``Coframe.combine``, sets omega^j_i = -omega^i_j, and stores the
    structure-equation residual.  The diagonal omega^i_i is zero by skew
    symmetry and is never built."""

    frame: Coframe
    gamma: tuple
    omega: dict = field(init=False, repr=False, compare=False)
    structure_residual: np.ndarray = field(init=False)   # one per column

    def __post_init__(self):
        dim = self.frame.chart.dim
        gamma = tuple(tuple(map(tuple, plane)) for plane in self.gamma)
        upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        omega = {}
        for (i, j), out in zip(upper, self.frame.combine(
                [gamma[i][j] for i, j in upper])):
            omega[i, j], omega[j, i] = out, -out
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "structure_residual", self.residual())

    def form(self, i: int, j: int) -> PForm:
        """The connection 1-form omega^i_j (0-based indices, i != j)."""
        return self.omega[i, j]

    def residual(self):
        """Max coefficient of d(omega^i) + omega^i_j ^ omega^j over i, per
        column.  Only values are read, so every form enters at order 0,
        which gives each value the full-order sum has, and the wedges run as
        one stack."""
        frame = self.frame
        dim = frame.chart.dim
        # omega^i_i = 0 by skew symmetry
        pairs = [(i, j) for i in range(dim) for j in range(dim) if j != i]
        x = np.concatenate([self.form(i, j).c[:, :1] for i, j in pairs])
        # wedge s pairs omega^i_j, row s of x, with the covector omega^j
        wedges = _wedge_rows(
            x, np.concatenate([f.c[:, :1] for f in frame.forms]), dim, 0, 1, 1,
            tuple(range(len(pairs))), tuple(j for _, j in pairs))
        wedges = wedges.reshape(dim, dim - 1, -1, *x.shape[1:])
        worst = 0.0
        for i in range(dim):
            r = frame.d(i, stage="connection residual").c[:, :1]
            for w in wedges[i]:
                r = r + w
            worst = nan_max(worst, np.max(np.abs(r[:, 0]), axis=0))
        return worst


def levi_civita(frame: Coframe) -> ConnectionMatrix:
    """The unique metric-compatible torsion-free connection of the coframe.

    Gamma^i_jk = (D^i_jk + D^j_ki - D^k_ij) / 2 is the closed-form solution
    of the skew linear system, taken for i != j, the entries of one
    truncation order as one array expression, bit-equal to the jet sum
    ``(D[i][j][k] + D[j][k][i] - D[k][i][j]) * 0.5`` of each; Gamma^i_ik is
    zero by skew symmetry and holds the zero jet of the structure table.
    The structure-equation residual is computed on every call as a
    self-check.
    """
    dim = frame.chart.dim
    D = _structure_coeffs(frame)
    zero = D[0][0][0]
    terms = [((i, j, k), (j, k, i), (k, i, j)) for i in range(dim)
             for j in range(dim) if j != i for k in range(dim)]

    def run(order, members):
        n = jets.ncoeffs(dim, order)
        a, b, c = (np.array([D[i][j][k].c[:n] for i, j, k in part])
                   for part in zip(*members))
        return [Jet._of(dim, order, row) for row in (a + b - c) * 0.5 + 0.0]

    gamma = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for ((i, j, k), _, _), g in zip(terms, _stacked(
            terms, lambda t: min(D[i][j][k].order for i, j, k in t), run)):
        gamma[i][j][k] = g
    return ConnectionMatrix(frame, gamma)


@dataclass(frozen=True)
class CurvatureMatrix:
    """Skew matrix of curvature 2-forms Theta^i_j = d omega^i_j +
    omega^i_k ^ omega^k_j, with coefficients in the coframe basis.

    ``theta`` and ``coeffs`` hold Theta^i_j and its table
    {(a, b): [Theta^i_j]_ab} for i < j and a < b, keyed by (i, j); ``entry``
    and ``coefficient`` give the other index orders by sign."""

    frame: Coframe
    theta: dict
    coeffs: dict

    def entry(self, i: int, j: int) -> PForm:
        return self.theta[i, j] if i < j else -self.theta[j, i]

    def coefficient(self, i: int, j: int, a: int, b: int) -> Jet:
        """[Theta^i_j]_ab with Theta^i_j = sum_{a<b} [..]_ab omega^a ^ omega^b."""
        c = self.coeffs[min(i, j), max(i, j)][min(a, b), max(a, b)]
        return c if (i < j) == (a < b) else -c


def curvature(conn: ConnectionMatrix) -> CurvatureMatrix:
    """Theta^i_j and its table for i < j: d of every omega^i_j as one
    stack, every wedge omega^i_k ^ omega^k_j (k not i or j, where
    omega^i_i = omega^j_j = 0) as one, added in k order, and every table as
    one, each one kernel call per truncation order."""
    dim = conn.frame.chart.dim
    upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    between = [[k for k in range(dim) if k not in pair] for pair in upper]
    d_forms = ext_d_stack([conn.form(i, j) for i, j in upper],
                          stage="curvature(d connection)")
    wedges = iter(wedge_stack([(conn.form(i, k), conn.form(k, j))
                               for (i, j), ks in zip(upper, between)
                               for k in ks]))
    theta = {}
    for pair, t, ks in zip(upper, d_forms, between):
        for _ in ks:
            t = t + next(wedges)
        theta[pair] = t
    coeffs = dict(zip(upper, coeffs_stack(list(theta.values()), conn.frame)))
    return CurvatureMatrix(conn.frame, theta, coeffs)


def scalar_curvature(curv: CurvatureMatrix) -> Jet:
    """Twice the sum of the diagonal sectional pairings Theta^i_j(e_i, e_j)."""
    dim = curv.frame.chart.dim
    total = None
    for i in range(dim):
        for j in range(i + 1, dim):
            c = curv.coefficient(i, j, i, j)
            total = c if total is None else total + c
    return total * 2.0


def pfaffian_coefficient(curv: CurvatureMatrix) -> Jet:
    """Pf(Theta) / volume for a 4D frame: Theta^1_2^Theta^3_4
    - Theta^1_3^Theta^2_4 + Theta^1_4^Theta^2_3."""
    if curv.frame.chart.dim != 4:
        raise ValueError("Pfaffian needs a 4D frame")
    w12_34, w13_24, w14_23 = wedge_stack(
        [(curv.entry(0, 1), curv.entry(2, 3)),
         (curv.entry(0, 2), curv.entry(1, 3)),
         (curv.entry(0, 3), curv.entry(1, 2))])
    return curv.frame.ratio(w12_34 - w13_24 + w14_23)


# ---------------------------------------------------------------------------
# geometry of the leaves of one coframe direction

@dataclass
class LeafGeometry:
    """Second fundamental form data of the foliation ker(omega^normal).

    Every value is an (N,) array, one per column of the frame, and of a 3D
    frame ``not_integrable`` marks the columns without leaves, whose other
    values mean nothing."""

    shape: list            # tangential values Gamma^normal_{i j}; det(shape)
                           # is the extrinsic Gauss-Kronecker curvature
    H: float               # mean curvature (average of the diagonal)
    trace: float
    K_leaf: float | None   # intrinsic Gauss curvature of the leaf (2D leaves
                           # only): ambient sectional curvature + det(shape)
    defect: float          # integrability defect of the normal covector

    @property
    def not_integrable(self):
        """Whether ``defect`` is above ``INTEGRABLE``, one bool per column.
        All False of a 4D frame, which raises instead."""
        return self.defect > INTEGRABLE


def _integrability_defect(frame: Coframe, normal: int):
    """Max |coefficient| of alpha ^ d(alpha), per column: zero iff
    ker(alpha) is integrable (Frobenius), in any dimension."""
    prod = wedge(frame.omega(normal + 1),
                 frame.d(normal, stage="leaf_geometry(defect)"))
    return prod.max_abs_value()


def leaf_geometry(frame: Coframe, conn: ConnectionMatrix | None = None,
                  curv: CurvatureMatrix | None = None,
                  normal: int | None = None) -> LeafGeometry:
    """Shape operator, mean curvature, and (3D) leaf Gauss curvature.

    ``normal`` picks the coframe covector (0-based) whose kernel is foliated;
    default is the last one.  It must be integrable; its leaves carry the
    induced metric of the remaining covectors.  The leaf curvature solves the
    pullback of the ambient curvature identity: tangential curvature pairing
    plus the shape-operator determinant.

    A 4D frame whose covector is not integrable raises ``NotIntegrable``
    at its first such column.  A 3D frame marks those columns in
    ``not_integrable`` instead, since a leafless point is data to the 3D
    report.
    """
    dim = frame.chart.dim
    if normal is None:
        normal = dim - 1
    tangent = [i for i in range(dim) if i != normal]
    dval = _integrability_defect(frame, normal)
    if dim != 3:
        for value in dval.tolist():
            if value > INTEGRABLE:
                raise NotIntegrable(
                    f"omega^{normal + 1} is not integrable: defect {value!r}",
                    defect=value)
    if conn is None:
        conn = levi_civita(frame)
    shape = [[_value(conn.gamma[normal][i][j]) for j in tangent]
             for i in tangent]
    m = len(tangent)
    trace = sum(shape[i][i] for i in range(m))
    H = trace / m
    K_leaf = None
    if dim == 3:
        if curv is None:
            curv = curvature(conn)
        i, j = tangent
        det = shape[0][0] * shape[1][1] - shape[0][1] * shape[1][0]
        K_leaf = _value(curv.coefficient(i, j, i, j)) + det
    return LeafGeometry(shape=shape, H=H, trace=trace, K_leaf=K_leaf,
                        defect=dval)
