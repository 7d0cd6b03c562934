"""Imaginary-axis crossings of characteristic blocks.

A root lambda = i w of P(lambda, tau) = R + S e^{-lambda tau} requires
|R(iw, tau)| = |S(iw, tau)|, i.e. F(w) = w^4 + b w^2 + c = 0 with
b = r1^2 - 2 r0 and c = r0^2 - s0^2, plus a phase condition that pins
w tau modulo 2 pi.  Writing theta for the principal crossing angle, the
candidate delays are tau_n = (theta + 2 pi n)/w and crossings are zeros of
the map S_n(tau) = tau - tau_n(tau).  For delay-independent coefficients the
zeros are explicit; for delay-dependent ones (phase model along a
rotating-wave branch) they are found by a grid scan plus bisection.  The scan
follows u(tau) = (tau w - theta)/2 pi, the number of turns w tau makes past
theta: S_n = 2 pi (u - n)/w vanishes where u passes n, so one pass over the
grid brackets the zeros of every winding n >= 0.

The transversality value delta = d Re(lambda)/d tau > 0 means a root pair
moves rightward through the axis as the delay grows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .charfun import BlockKind, QuasiPolynomial, build_blocks
from .errors import (
    DegenerateCrossingError,
    DegenerateSError,
    InvalidParamError,
    NoEquilibriumError,
    UnsupportedKindError,
)
from .model import (
    _MAX_FLOATS,
    Branch,
    ModelKind,
    NetworkParams,
    check_delay,
    equilibrium,
    normalize,
)

__all__ = [
    "RootBranch",
    "OmegaCandidate",
    "CrossingCandidate",
    "RegionBoundaries",
    "CurveRow",
    "omega_candidates",
    "crossing_angle",
    "transversality",
    "tau_candidates",
    "sn_scan",
    "region_boundaries",
    "bifurcation_curves",
]

_TWO_PI = 2.0 * math.pi


class RootBranch(enum.Enum):
    """Which root of the quadratic in w^2: w+^2 = (-b+sqrt(b^2-4c))/2 or w-^2."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class OmegaCandidate:
    """A crossing frequency w > 0 and the root of the quadratic in w^2 it comes from."""

    omega: float
    root_branch: RootBranch


@dataclass(frozen=True)
class CrossingCandidate:
    """A delay tau_star where a root pair +-i w sits on the imaginary axis."""

    omega_candidate: OmegaCandidate
    tau_star: float
    winding: int
    delta: float
    delta_sign: int

    @property
    def omega(self) -> float:
        return self.omega_candidate.omega


def _stable_quadratic_roots(b: float, c: float) -> tuple[float, float] | None:
    """Real roots (x_plus, x_minus) of x^2 + b x + c, avoiding cancellation."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    if b <= 0.0:
        x_plus = (-b + sq) / 2.0
        x_minus = c / x_plus if x_plus != 0.0 else (-b - sq) / 2.0
    else:
        x_minus = (-b - sq) / 2.0
        x_plus = c / x_minus if x_minus != 0.0 else (-b + sq) / 2.0
    return x_plus, x_minus


def omega_candidates(b: float, c: float) -> list[OmegaCandidate]:
    """Positive roots w of F(w) = w^4 + b w^2 + c, classified by branch.

    Candidates exist iff b^2 - 4c >= 0 and the corresponding w^2 > 0
    (w = 0 never qualifies: zero roots are handled separately).  Each root is
    polished by one Newton step on F.
    """
    roots = _stable_quadratic_roots(b, c)
    if roots is None:
        return []
    out = []
    for w2, tag in zip(roots, (RootBranch.PLUS, RootBranch.MINUS)):
        if w2 <= 0.0:
            continue
        w = math.sqrt(w2)
        fp = 4.0 * w * w2 + 2.0 * b * w
        if fp != 0.0:
            w -= (w2 * w2 + b * w2 + c) / fp
        if w > 0.0:
            out.append(OmegaCandidate(w, tag))
    return out


def _angle(r0: float, r1: float, s0: float, omega: float) -> float:
    # S is real and constant in lambda (S_R = s0, S_I = 0); scalar atan2 on
    # purpose, np.arctan2 can differ in the last bit
    theta = math.atan2(s0 * (r1 * omega), -s0 * (r0 - omega * omega))
    return theta + _TWO_PI if theta <= -math.pi else theta


def crossing_angle(p: QuasiPolynomial, omega: float, tau: float | None = None) -> float:
    """Principal angle theta in (-pi, pi] with w tau = theta (mod 2 pi) at a crossing.

    theta = arg(-S_I R_I - S_R R_R, R_I S_R - S_I R_R) evaluated at lambda = i w.
    Raises DegenerateSError when the delay coefficient vanishes.
    """
    r0, r1, s0 = (float(v) for v in p.at(tau))
    if s0 == 0.0:
        raise DegenerateSError("S(i w) = 0; crossing angle undefined")
    return _angle(r0, r1, s0, omega)


def transversality(
    p: QuasiPolynomial, omega: float, tau_star: float
) -> tuple[float, int]:
    """Crossing direction delta = sign of d Re(lambda)/d tau at lambda = i w, tau_star.

    Computed from delta = (A C + B D)/(C^2 + D^2) where A + iB collects the
    explicit tau-derivative of P (including the derivatives of r0 and s0 for
    delay-dependent blocks) and C + iD the lambda-derivative.  Raises
    DegenerateCrossingError when the value vanishes (e.g. a double w root).
    """
    t = float(tau_star)
    r0, r1, s0 = (float(v) for v in p.at(t))
    dr0, ds0 = (0.0, 0.0) if p.dcoeffs is None else (float(v) for v in p.dcoeffs(t))
    iw = 1j * omega
    e = np.exp(-iw * t)
    num = e * (iw * s0 - ds0) - dr0
    den = (2.0 * iw + r1) + e * (-t * s0)
    a, bb = num.real, num.imag
    cc, d = den.real, den.imag
    norm = cc * cc + d * d
    dot = a * cc + bb * d
    if norm == 0.0 or abs(dot) <= 1e-12 * (abs(a) + abs(bb)) * (abs(cc) + abs(d)):
        raise DegenerateCrossingError(
            f"transversality degenerate at omega={omega}, tau={tau_star}"
        )
    val = dot / norm
    return val, (1 if val > 0.0 else -1)


def tau_candidates(
    p: QuasiPolynomial, cand: OmegaCandidate, n_range: range
) -> list[CrossingCandidate]:
    """Nonnegative crossing delays tau_n = (theta + 2 pi n)/w for n in n_range, ascending.

    Requires delay-independent coefficients (theta does not move with tau);
    the delay-dependent case goes through sn_scan.
    """
    if p.tau_dependent:
        raise UnsupportedKindError(
            "tau_candidates needs delay-independent coefficients; use sn_scan"
        )
    theta = crossing_angle(p, cand.omega)
    out = []
    for n in n_range:
        tau_n = (theta + _TWO_PI * n) / cand.omega
        if tau_n < 0.0:
            continue
        delta, sign = transversality(p, cand.omega, tau_n)
        out.append(CrossingCandidate(cand, tau_n, n, delta, sign))
    out.sort(key=lambda c: c.tau_star)
    return out


def _b_c(r0, r1, s0):
    # the quartic's coefficients from a snapshot, as QuasiPolynomial.b_c
    return r1 * r1 - 2.0 * r0, r0 * r0 - s0 * s0


def _turns(p: QuasiPolynomial, taus: np.ndarray):
    """u(tau) = (tau w - theta)/2 pi per root branch along a tau grid; NaN where w is absent.

    S_n = 2 pi (u - n)/w, so S_n changes sign where u passes the integer n.
    """
    r0, r1, s0 = (np.broadcast_to(v, taus.shape) for v in p.at(taus))
    b, c = _b_c(r0, r1, s0)
    disc = b * b - 4.0 * c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, np.nan))
    out = {}
    for tag, sgn in ((RootBranch.PLUS, 1.0), (RootBranch.MINUS, -1.0)):
        w2 = (-b + sgn * sq) / 2.0
        w = np.sqrt(np.where((w2 > 0.0) & (np.abs(s0) > 0.0), w2, np.nan))
        theta = np.arctan2(s0 * (r1 * w), -s0 * (r0 - w * w))
        theta = np.where(theta <= -math.pi, theta + _TWO_PI, theta)
        out[tag] = (taus * w - theta) / _TWO_PI
    return out


def _sn_value(p: QuasiPolynomial, tau: float, tag: RootBranch, n: int):
    """S_n(tau) = tau - (theta + 2 pi n)/w at a single tau; (value, w) or None."""
    r0, r1, s0 = (float(v) for v in p.at(tau))
    roots = _stable_quadratic_roots(*_b_c(r0, r1, s0))
    if roots is None or s0 == 0.0:
        return None
    w2 = roots[0] if tag is RootBranch.PLUS else roots[1]
    if w2 <= 0.0:
        return None
    w = math.sqrt(w2)
    return tau - (_angle(r0, r1, s0, w) + _TWO_PI * n) / w, w


def _existence_edges(p: QuasiPolynomial, taus: np.ndarray, u: np.ndarray, tag: RootBranch):
    """``taus`` and ``u`` with the last live delay of each cell where w is born or dies.

    A cell whose u is NaN at exactly one end holds the edge of w's existence;
    bisecting on whether ``_sn_value`` exists there, down to 1e-9 max(1, |tau|),
    gives the live delay nearest the edge, and its u closes the cell's live
    part, so a crossing between the edge and the grid point gets a bracket.
    """
    dead = np.isnan(u)
    cells = np.nonzero(dead[:-1] != dead[1:])[0]
    at, edge_taus, edge_u = [], [], []
    for i in cells:
        live, gone = (taus[i], taus[i + 1]) if dead[i + 1] else (taus[i + 1], taus[i])
        last = None
        while abs(gone - live) > 1e-9 * max(1.0, abs(live)):
            mid = 0.5 * (live + gone)
            hit = _sn_value(p, mid, tag, 0)
            if hit is None:
                gone = mid
            else:
                live, last = mid, hit
        if last is not None:
            at.append(i + 1)
            edge_taus.append(live)
            edge_u.append(last[0] * last[1] / _TWO_PI)  # u = S_0 w / 2 pi
    if not at:
        return taus, u
    return np.insert(taus, at, edge_taus), np.insert(u, at, edge_u)


def sn_scan(p: QuasiPolynomial, tau_window: tuple[float, float]) -> list[CrossingCandidate]:
    """Zeros of S_n over a delay window for delay-dependent (or constant) blocks.

    The window is sampled at 1001 evenly spaced delays for both root branches
    w+ and w-.  Where a branch's w is born or dies inside a cell, the cell is
    bisected on the existence of w and the last live delay joins that
    branch's samples (``_existence_edges``), so a zero between the edge and
    the grid gets a bracket too.  With u(tau) = (tau w - theta)/2 pi,
    S_n = 2 pi (u - n)/w, so the cells whose two u values enclose the integer
    n bracket the sign changes of S_n: one sweep over the cells finds them
    for every winding at once, and u >= -1/2 (tau >= 0, theta <= pi) leaves
    only n >= 0.  The brackets are bisected in (n, cell) order down to
    rounding, and a bracket whose ends still differ by half a theta jump
    (pi/w in S_n) is discarded: there the bisection homed onto a branch-cut
    jump of theta, where S_n changes sign without vanishing.
    A window that ends at or before its start holds no crossings; a negative
    or non-finite window end, or more brackets than the 2^27 budget, raises
    InvalidParamError.
    """
    t0, t1 = check_delay(tau_window[0]), check_delay(tau_window[1])
    if not t1 > t0:
        return []
    grid = np.linspace(t0, t1, 1001)
    found: dict[tuple[str, float], CrossingCandidate] = {}
    for tag, u in _turns(p, grid).items():
        taus, u = _existence_edges(p, grid, u, tag)
        # the integers n that u passes on each cell: S_n changes sign there
        lo = np.ceil(np.minimum(u[:-1], u[1:]))
        hi = np.floor(np.maximum(u[:-1], u[1:]))
        cells = np.nonzero((hi >= lo) & (u[:-1] != u[1:]))[0]
        count = float(np.sum(hi[cells] - lo[cells] + 1.0))
        if not count <= _MAX_FLOATS:  # NaN too: u overflowed
            raise InvalidParamError(
                f"the delay window [{t0:g}, {t1:g}] holds {count:.6g} brackets, "
                "more than the budget of 2^27"
            )
        brackets = sorted((n, i) for i in cells for n in range(int(lo[i]), int(hi[i]) + 1))
        for n, i in brackets:
            hit = _bisect_sn(p, taus[i], taus[i + 1], tag, n)
            if hit is None:
                continue
            tau_star, w_star = hit
            if not (t0 - 1e-12 <= tau_star <= t1 + 1e-12) or tau_star < 0.0:
                continue
            key = (tag.value, round(tau_star, 7))
            if key in found:
                continue
            cand = OmegaCandidate(w_star, tag)
            delta, sgn = transversality(p, w_star, tau_star)
            found[key] = CrossingCandidate(cand, tau_star, n, delta, sgn)
    return sorted(found.values(), key=lambda c: c.tau_star)


def _bisect_sn(p, ta, tb, tag, n):
    fa = _sn_value(p, ta, tag, n)
    fb = _sn_value(p, tb, tag, n)
    if fa is None or fb is None:
        return None
    ga, gb = fa[0], fb[0]
    if ga == 0.0:
        return ta, fa[1]
    if gb == 0.0:
        return tb, fb[1]
    if ga * gb > 0.0:
        return None
    for _ in range(200):
        tm = 0.5 * (ta + tb)
        fm = _sn_value(p, tm, tag, n)
        if fm is None:
            return None
        gm = fm[0]
        if gm == 0.0 or (tb - ta) < 1e-14 * max(1.0, abs(tm)):
            break
        if ga * gm < 0.0:
            tb, gb = tm, gm
        else:
            ta, ga = tm, gm
    tm = 0.5 * (ta + tb)
    fm = _sn_value(p, tm, tag, n)
    # a 2 pi jump of theta moves S_n by 2 pi/w: ends half a jump apart
    # straddle the branch cut, not a zero
    if fm is None or (fm[0] != 0.0 and abs(ga - gb) * fm[1] >= math.pi):
        return None
    return tm, fm[1]


@dataclass(frozen=True)
class RegionBoundaries:
    """Existence-region boundaries for crossing frequencies in the (K, mu) plane.

    mu_b is the b = 0 curve, k_n the coupling where the symmetry-breaking
    block's c changes sign.  mu_minus/mu_plus bound the delay-independent
    existence set M = (0, mu_minus] u [mu_plus, inf) of the symmetry-breaking
    block (absent when every mu qualifies); mu_max bounds the synchronized
    block of the Minus equilibrium (absent otherwise).
    """

    mu_b: float
    k_n: float
    mu_minus: float | None = None
    mu_plus: float | None = None
    mu_max: float | None = None


def region_boundaries(
    params: NetworkParams, eq, block: BlockKind
) -> RegionBoundaries:
    p = normalize(params)
    k = p.coupling
    n = p.n_nodes
    c2 = eq.cos_two_phi
    mu_b = 2.0 * k * (1.0 - c2)
    k_n = 0.5 * n * math.sqrt(1.0 / (n - 1))
    mu_minus = mu_plus = mu_max = None
    if block is BlockKind.STANDARD:
        disc = (1.0 - c2) ** 2 - ((1.0 + c2) / (n - 1)) ** 2
        if disc >= 0.0:
            half = 2.0 * k * math.sqrt(disc)
            mu_minus = mu_b - half
            mu_plus = mu_b + half
    elif block is BlockKind.FIX and eq.branch is Branch.MINUS:
        if k < 1.0:
            raise NoEquilibriumError("boundaries need K >= 1")
        root = math.sqrt(k * k - 1.0)
        mu_max = 2.0 * (k + root) - 4.0 * math.sqrt(k * root) if k > 1.0 else 2.0
    return RegionBoundaries(mu_b, k_n, mu_minus, mu_plus, mu_max)


@dataclass(frozen=True)
class CurveRow:
    sweep_value: float
    winding: int
    root_branch: RootBranch
    omega: float
    tau_star: float
    delta_sign: int


def bifurcation_curves(
    params: NetworkParams,
    block: BlockKind,
    eq_branch: Branch,
    sweep_param: str,
    sweep_values,
    n_range: range,
    tau_max: float | None = None,
) -> list[CurveRow]:
    """Crossing-delay curves of the full-phase model over a mu or K sweep.

    Sweep values where no equilibrium or no crossing frequency exists simply
    contribute no rows.  Rows are sorted by (sweep value, tau).
    """
    if sweep_param not in ("mu", "K"):
        raise UnsupportedKindError(f"unknown sweep parameter {sweep_param!r}")
    p = normalize(params)
    rows: list[CurveRow] = []
    for v in sweep_values:
        v = float(v)
        q = replace(p, filter_gain=v) if sweep_param == "mu" else replace(p, coupling=v)
        try:
            eq = equilibrium(q, eq_branch)
        except NoEquilibriumError:
            continue
        blocks = build_blocks(ModelKind.FULL_PHASE, q, eq)
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        b, c = (float(x) for x in blk.b_c(0.0))
        for cand in omega_candidates(b, c):
            for cross in tau_candidates(blk, cand, n_range):
                if tau_max is not None and cross.tau_star > tau_max:
                    continue
                rows.append(
                    CurveRow(
                        v,
                        cross.winding,
                        cand.root_branch,
                        cross.omega,
                        cross.tau_star,
                        cross.delta_sign,
                    )
                )
    rows.sort(key=lambda r: (r.sweep_value, r.tau_star))
    return rows
