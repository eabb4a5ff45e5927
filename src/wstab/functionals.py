"""Weighted area/volume functionals, variations, and their derivatives.

Variations are ambient flows applied to a reference immersion; the deformed
surface reuses the base mesh connectivity, so A_f(s) and V_f(s) are smooth
functions of the flow parameter and safe to differentiate by finite
differences.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ambient import check_on_boundary, dot, unit_vector3, vector3
from .errors import ImmersionError, InputError, NumericalFailure
from .surface import (ExtrinsicData, _chain_rule, _cross, _frame,
                      extrinsic_geometry, stationary_H_f, vertex_normals)

Array = np.ndarray

# largest |<dphi/ds, xi>| on the base boundary of an admissible variation
TANGENCY_TOL = 1e-8
# the larger of the two steps of each Richardson-extrapolated FD variation
FIRST_VARIATION_STEP = 1e-3
SECOND_VARIATION_STEP = 1e-2


# ---------------------------------------------------------------------------
# flows and deformed families
# ---------------------------------------------------------------------------

class Flow:
    """One-parameter family of ambient maps phi_s: on a batch P (N, 3) of
    base points, ``map`` (N, 3), ``velocity`` (N, 3: d/ds phi_s at the
    particle started from each base point), the spatial Jacobian ``jac``
    (N, 3, 3) and, unless the flow is affine, its derivative ``hess``
    (N, 3, 3, 3)."""


class AffineFlow(Flow):
    """A flow of similarities: its Jacobian Dphi_s is one 3x3 matrix at
    every point, ``linear(s) = scale(s) rotation(s)`` with a rotation Q(s),
    and its velocity turns with it, velocity(s, P) = Q(s) velocity(0, P).
    Its Hessian is zero, so it has no ``hess``."""

    def scale(self, s: float) -> float:
        return 1.0

    def rotation(self, s: float) -> Array:
        return np.eye(3)

    def linear(self, s: float) -> Array:
        return self.scale(s) * self.rotation(s)

    def jac(self, s, P):
        return np.broadcast_to(self.linear(s), (len(P), 3, 3)).copy()


class TranslationFlow(AffineFlow):
    def __init__(self, direction):
        self.d = vector3(direction, "translation direction")

    def map(self, s, P):
        out = np.empty((3, len(P)))
        for row, x, sd in zip(out, P.T, s * self.d):
            np.add(x, sd, out=row)
        return out.T

    def velocity(self, s, P):
        return np.tile(self.d, (len(P), 1))


class ScalingFlow(AffineFlow):
    """p -> c + (1+s)(p - c); inflates spheres of center c."""

    def __init__(self, center=(0, 0, 0)):
        self.c = vector3(center, "scaling center")

    def scale(self, s):
        return 1.0 + s

    def map(self, s, P):
        """c + (1 + s)(p - c), each component in place in one (3, N)
        buffer."""
        out = np.empty((3, len(P)))
        for row, x, c in zip(out, P.T, self.c):
            np.subtract(x, c, out=row)
            row *= 1.0 + s
            row += c
        return out.T

    def velocity(self, s, P):
        return np.stack([x - c for x, c in zip(P.T, self.c)], axis=1)


class RotationFlow(AffineFlow):
    """Rotation of angle s about an axis through a point."""

    def __init__(self, axis=(0, 0, 1), point=(0, 0, 0)):
        self.a = unit_vector3(axis, "rotation axis")
        self.c = vector3(point, "rotation point")
        a = self.a
        self._ax = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]],
                             [-a[1], a[0], 0]])
        # ax @ ax = a a^T - |a|^2 I
        self._ax2 = np.outer(a, a) - dot(a, a) * np.eye(3)

    def rotation(self, s):
        return np.eye(3) + np.sin(s) * self._ax + (1 - np.cos(s)) * self._ax2

    def _turned(self, s, P) -> Array:
        """Q(s)(p - c) at the points P as a (3, N) array, each component
        added (q0 r0 + q1 r1) + q2 r2 in place."""
        r0, r1, r2 = (x - c for x, c in zip(P.T, self.c))
        out, term = np.empty((3, len(P))), np.empty(len(P))
        for row, (q0, q1, q2) in zip(out, self.rotation(s)):
            np.multiply(q0, r0, out=row)
            row += np.multiply(q1, r1, out=term)
            row += np.multiply(q2, r2, out=term)
        return out

    def map(self, s, P):
        out = self._turned(s, P)
        for row, c in zip(out, self.c):
            row += c
        return out.T

    def velocity(self, s, P):
        return np.array(_cross(self.a, self._turned(s, P))).T


class FieldFlow(Flow):
    """p -> p + s*X(p) for a smooth ambient field X with its Jacobian
    ``Xjac`` (N, 3, 3) and second derivative ``Xhess`` (N, 3, 3, 3), both
    in closed form."""

    def __init__(self, X, Xjac, Xhess):
        self.X = X
        self.Xjac = Xjac
        self.Xhess = Xhess

    def map(self, s, P):
        return P + s * self.X(P)

    def velocity(self, s, P):
        return self.X(P)

    def jac(self, s, P):
        return np.eye(3)[None] + s * self.Xjac(P)

    def hess(self, s, P):
        return s * self.Xhess(P)


@dataclass
class DeformedFamily:
    """A variation: the base surface's geometry ``data`` moved by an ambient
    flow.

    The paper's variation formulas hold for deformations whose boundary
    stays in the ambient boundary, so building a family from a flow that
    is not tangent to it along the base boundary raises ``InputError``.
    The slice at s is the base chart with the flow applied, in the ambient
    space of ``data``, so a family evaluates no chart of its own.  Area and
    volume push only the base positions through the flow, with the base
    normals, area elements and normal speed under an affine flow and the
    base frame under any other; full geometry also pushes the frame, its
    derivatives and the boundary curve.  Each slice's A_f
    and volume rate are kept per s, so the FD variations, the swept volume
    and the samples share slices.
    """

    data: ExtrinsicData
    flow: Flow
    # s -> (A_f(s), V_f'(s)): two floats per slice, never arrays
    _slices: Dict[float, Tuple[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = self.data
        Xb = self.flow.velocity(0.0, data.b_pos)
        worst = float(np.max(np.abs(dot(Xb.T, data.b_xi.T)), initial=0.0))
        if not worst <= TANGENCY_TOL:
            raise InputError(
                f"variation field is not tangent to the ambient boundary "
                f"(max |<X, xi>| = {worst:.2e})")

    def area_elements(self, s: float):
        """Positions, unit normals and w da_f of the slice at s.  An affine
        flow is a similarity lambda Q, whose cofactor matrix lambda^2 Q turns
        the base normal to Q N0 and scales the area element to
        lambda^2 w da, so only the density is evaluated at each point; any
        other flow moves the frame."""
        base, flow = self.data, self.flow
        if s == 0.0:
            return base.pos, base.N, base.w_daf
        if isinstance(flow, AffineFlow):
            Q = flow.rotation(s)
            N = (base.N if np.array_equal(Q, np.eye(3))
                 else np.array([dot(row, base.N.T) for row in Q]).T)
            # lambda Q keeps the base's rank unless lambda = 0
            lam = flow.scale(s)
            if lam == 0.0:
                raise ImmersionError(
                    "chart Jacobian is rank deficient at a quadrature point")
            w_da = lam ** 2 * base.w_da
        else:
            E, _ = _chain_rule(flow.jac(s, base.pos), base.E)
            _, N, w_da = _frame(base.mesh.immersion.orientation_sign, E,
                                base.mesh.point_weights)
        pos = flow.map(s, base.pos)
        return pos, N, w_da * np.exp(base.space.density.psi(pos))

    @functools.cached_property
    def base_normal_speed(self) -> Array:
        """u0 = <dphi/ds, N> at s = 0 at the quadrature points.  An affine
        flow keeps it along each particle path: its velocity and normal both
        turn by Q(s), so <dphi/ds, N_s> = u0 on every slice."""
        return dot(self.flow.velocity(0.0, self.data.pos).T, self.data.N.T)

    def _slice(self, s: float) -> Tuple[float, float]:
        """(A_f, V_f') of the slice at s, evaluated once per s.

        V_f'(s) = int_Sigma <dphi/ds, N_s> f da over the slice, which is
        the sum of u0 w da_f under an affine flow."""
        s = float(s)
        if s not in self._slices:
            _, N, w_daf = self.area_elements(s)
            if isinstance(self.flow, AffineFlow):
                u = self.base_normal_speed
            else:
                u = dot(self.flow.velocity(s, self.data.pos).T, N.T)
            self._slices[s] = (float(np.sum(w_daf)), float(np.sum(u * w_daf)))
        return self._slices[s]

    @functools.cached_property
    def _vertex_frame(self) -> tuple:
        """The velocity dphi/ds at s = 0 and the unit normal at the mesh
        vertices, as columns."""
        mesh = self.data.mesh
        return (self.flow.velocity(0.0, mesh.positions).T,
                vertex_normals(mesh).T)

    def vertex_normal_speed(self) -> Array:
        """The normal speed <dphi/ds, N> at s = 0 at the mesh vertices."""
        return dot(*self._vertex_frame)

    def vertex_speed_size(self) -> Array:
        """The size of the normal speed's terms, sum_i |dphi/ds_i N_i|, at
        the mesh vertices: the scale of its rounding."""
        return dot(*(np.abs(x) for x in self._vertex_frame))

    def weighted_area(self, s: float) -> float:
        """A_f of the slice at s."""
        return self._slice(s)[0]

    def geometry(self, s: float) -> ExtrinsicData:
        """Full geometry of the slice at s.

        Off the base it is the flow applied to the base chart, with the
        chain rule for the second derivatives: the frame E0 moves to
        Dphi E0, its derivatives to Dphi F0 + D^2phi(E0, E0), and along
        the boundary curve g'' -> Dphi g'' + D^2phi(g', g').  A flow that
        moves the boundary curve off the ambient boundary is not an
        admissible variation.
        """
        if s == 0.0:
            return self.data
        space, base, flow = self.data.space, self.data.chart, self.flow
        # an affine flow's Hessian is zero and is not evaluated
        affine = isinstance(flow, AffineFlow)
        E, F = _chain_rule(flow.jac(s, base.pos), base.E, base.F,
                           None if affine else flow.hess(s, base.pos))
        g0 = base.b_pos
        g = flow.map(s, g0)
        if space.boundary is not None:
            check_on_boundary(space.boundary, g,
                              f"the flow moves the slice at s = {s} off "
                              "the ambient boundary, so it is not an "
                              "admissible variation")
        DFb = flow.jac(s, g0)
        # the boundary curve is a chart with k = 1
        dg, ddg = _chain_rule(DFb, base.b_dg[:, :, None],
                              base.b_ddg[:, :, None, None],
                              None if affine else flow.hess(s, g0))
        return extrinsic_geometry(space, dataclasses.replace(
            base, pos=flow.map(s, base.pos), E=E, F=F, b_pos=g,
            b_dg=dg[:, :, 0], b_ddg=ddg[:, :, 0, 0],
            b_J=_chain_rule(DFb, base.b_J)[0]))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

# 5-point Gauss-Lobatto on [-1, 1]: exact to degree 7, and its end nodes
# are the panel ends, which neighbouring panels share
LOBATTO5_NODES = (-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0)
LOBATTO5_WEIGHTS = (0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1)


def swept_weighted_volume(family: DeformedFamily,
                          s_values: Sequence[float]) -> List[float]:
    """V_f(s) = int_0^s int_Sigma <dphi/dt, N_t> f da dt at each s of a grid.

    The grid starts next to 0 and moves away from it on one side; the
    integral runs panel by panel over [0, s1], [s1, s2], ... with a 5-point
    Gauss-Lobatto rule whose end nodes are the grid values themselves, so
    neighbouring panels and the caller's A_f(s) share the family's slices.
    """
    out = []
    total = a = 0.0
    for b in map(float, s_values):
        if b != a:
            if not (a * b >= 0.0 and abs(b) > abs(a)):
                raise InputError(
                    f"swept volume grid must move away from 0 on one side "
                    f"(got {a!r} then {b!r})")
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            inner = [mid + half * x for x in LOBATTO5_NODES[1:4]]
            total += half * sum(wt * family._slice(t)[1] for t, wt in
                                zip([a, *inner, b], LOBATTO5_WEIGHTS))
            a = b
        out.append(total)
    return out


def first_variation_formula(family: DeformedFamily) -> float:
    """A_f'(0) = -int H_f u da_f - int_bd <X, nu> dl_f for the family's
    velocity X = dphi/ds and normal speed u at s = 0."""
    data = family.data
    Xb = family.flow.velocity(0.0, data.b_pos)
    return (-float(np.sum(data.H_f * family.base_normal_speed * data.w_daf))
            - float(np.sum(dot(Xb.T, data.b_nu.T) * data.w_dlf)))


def first_variation_scale(family: DeformedFamily) -> float:
    """The sum of the first variation formula's terms' magnitudes, each
    <X, N> and <X, nu> as sum_i |X_i N_i| so that a tangent X has a size:
    the unit its FD check is measured in."""
    data, velocity = family.data, family.flow.velocity
    X = np.abs(velocity(0.0, data.pos).T)
    Xb = np.abs(velocity(0.0, data.b_pos).T)
    return (float(np.sum(np.abs(data.H_f) * dot(X, np.abs(data.N.T))
                         * data.w_daf))
            + float(np.sum(dot(Xb, np.abs(data.b_nu.T)) * data.w_dlf)))


@dataclass(frozen=True)
class FDReport:
    value: float
    error_estimate: float


def first_variation_fd(family: DeformedFamily) -> FDReport:
    """Richardson-extrapolated centered difference of A_f at s = 0."""
    def diff(step):
        return (family.weighted_area(step)
                - family.weighted_area(-step)) / (2 * step)

    h = FIRST_VARIATION_STEP
    d1 = diff(h)
    d2 = diff(h / 2)
    value = (4 * d2 - d1) / 3
    err = abs(d2 - d1) / 3
    if err > 1e-3 * max(1.0, abs(value)):
        raise NumericalFailure(
            f"first-variation FD estimates inconsistent across steps "
            f"(spread {err:.2e})")
    return FDReport(value, err)


def second_variation_fd(family: DeformedFamily) -> FDReport:
    """(A_f + H_f V_f)''(0) by a 5-point stencil with Richardson.

    Requires the base surface to be f-stationary under volume constraint.
    """
    h = SECOND_VARIATION_STEP
    data0 = family.geometry(0.0)
    Hf0 = stationary_H_f(data0, "the second variation formula")
    volume = {}
    for side in ((h / 2, h), (-h / 2, -h)):
        volume.update(zip(side, swept_weighted_volume(family, side)))

    def W(s):
        if s == 0.0:
            return float(np.sum(data0.w_daf))
        return family.weighted_area(s) + Hf0 * volume[s]

    w0 = W(0.0)

    def d2(step):
        return (W(step) - 2 * w0 + W(-step)) / step**2

    a = d2(h)
    b = d2(h / 2)
    value = (4 * b - a) / 3
    err = abs(b - a) / 3
    return FDReport(value, err)
