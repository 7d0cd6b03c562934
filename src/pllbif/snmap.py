"""Imaginary-axis crossings of characteristic blocks.

A root lambda = i w of P(lambda, tau) = R + S e^{-lambda tau} requires
|R(iw, tau)| = |S(iw, tau)|, i.e. F(w) = w^4 + b w^2 + c = 0 with
b = r1^2 - 2 r0 and c = r0^2 - s0^2, plus a phase condition that pins
w tau modulo 2 pi.  Writing theta for the principal crossing angle, the
candidate delays are tau_n = (theta + 2 pi n)/w and crossings are zeros of
the map S_n(tau) = tau - tau_n(tau).  For delay-independent coefficients the
zeros are explicit, and one enumerator, ``_rungs``, gives a ladder's
windings in a delay window as a range slice: ``sn_scan``, ``tau_candidates``
and ``bifurcation_curves`` count and build their rungs through it.  For
delay-dependent ones they are found by a grid scan plus halving in a
parameter s that moves the delay monotonically: the delay itself, or, along
a rotating-wave branch of the phase model, the branch's phase
phi = Omega_hat tau, in which the coefficients and the delay are explicit
(``phasemodel.relative_hopf_scan``).  The scan follows, on arrays,
u = (tau w - theta)/2 pi, the number of turns w tau makes past theta:
S_n = 2 pi (u - n)/w vanishes where u passes n, so one pass over the grid
brackets the zeros of every winding n >= 0, and all brackets halve at once.

The transversality value delta = d Re(lambda)/d tau > 0 means a root pair
moves rightward through the axis as the delay grows.  It needs the
coefficients' delay derivatives too, so the scan's map gives those with the
coefficients, and delta is read from the snapshot at the scan parameter
where the crossing was found.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .charfun import BlockKind, QuasiPolynomial, build_blocks
from .errors import (
    DegenerateCrossingError,
    DegenerateSError,
    InvalidParamError,
    NoConvergenceError,
    NoEquilibriumError,
    UnsupportedKindError,
)
from .model import (
    Branch,
    ModelKind,
    NetworkParams,
    check_delay,
    equilibrium,
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
    """Real roots (x_plus, x_minus) of x^2 + b x + c, avoiding cancellation and overflow."""
    # disc / m^2, with m > 1 only where b^2 or 4c overflows
    m = 1.0 if math.isfinite(b * b - 4.0 * c) else max(abs(b), math.sqrt(abs(c)))
    disc = (b / m) * (b / m) - 4.0 * (c / m) / m
    if disc < 0.0:
        return None
    sq = m * math.sqrt(disc)
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
    polished by one Newton step on F, unless the step overflows.  Raises
    NoConvergenceError when b or c is not finite: an overflowed coefficient
    hides the roots.
    """
    if not (math.isfinite(b) and math.isfinite(c)):
        raise NoConvergenceError(f"the crossing quartic overflows: b = {b:g}, c = {c:g}")
    roots = _stable_quadratic_roots(b, c)
    if roots is None:
        return []
    out = []
    for w2, tag in zip(roots, (RootBranch.PLUS, RootBranch.MINUS)):
        if w2 <= 0.0:
            continue
        w = math.sqrt(w2)
        fp = 4.0 * w * w2 + 2.0 * b * w
        step = (w2 * w2 + b * w2 + c) / fp if fp != 0.0 else 0.0
        w -= step if math.isfinite(step) else 0.0
        if w > 0.0:
            out.append(OmegaCandidate(w, tag))
    return out


def _angle(r0: float, r1: float, s0: float, omega: float) -> float:
    """Principal crossing angle in (-pi, pi] from (r0, r1, s0); DegenerateSError where s0 = 0."""
    if s0 == 0.0:
        raise DegenerateSError("S(i w) = 0; crossing angle undefined")
    # S is real and constant in lambda (S_R = s0, S_I = 0); scalar atan2 on
    # purpose, np.arctan2 can differ in the last bit
    theta = math.atan2(s0 * (r1 * omega), -s0 * (r0 - omega * omega))
    return theta + _TWO_PI if theta <= -math.pi else theta


def crossing_angle(p: QuasiPolynomial, omega: float, tau: float) -> float:
    """Principal angle theta in (-pi, pi] with w tau = theta (mod 2 pi) at a crossing.

    theta = arg(-S_I R_I - S_R R_R, R_I S_R - S_I R_R) evaluated at lambda = i w.
    Raises DegenerateSError when the delay coefficient vanishes, and
    InvalidParamError unless the delay is finite and >= 0.
    """
    return _angle(*p.snapshot(check_delay(tau))[:3], omega)


def _transversality_terms(snap, omega: float):
    """(A C + B D, C^2 + D^2, (|A| + |B|)(|C| + |D|)) of ``transversality`` at lambda = i w.

    ``snap`` is the snapshot (r0, r1, s0, tau, dr0, ds0) at the crossing.
    """
    r0, r1, s0, tau, dr0, ds0 = snap
    iw = 1j * omega
    e = np.exp(-iw * tau)
    num = e * (iw * s0 - ds0) - dr0
    den = (2.0 * iw + r1) + e * (-tau * s0)
    a, bb = num.real, num.imag
    cc, d = den.real, den.imag
    return a * cc + bb * d, cc * cc + d * d, (abs(a) + abs(bb)) * (abs(cc) + abs(d))


def _delta(snap, omega: float) -> tuple[float, int]:
    """(delta, sign delta) from the snapshot at a crossing; DegenerateCrossingError where it vanishes."""
    dot, norm, scale = _transversality_terms(snap, omega)
    if norm == 0.0 or abs(dot) <= 1e-12 * scale:
        raise DegenerateCrossingError(
            f"transversality degenerate at omega={omega}, tau={snap[3]}"
        )
    val = dot / norm
    return val, (1 if val > 0.0 else -1)


def transversality(
    p: QuasiPolynomial, omega: float, tau_star: float
) -> tuple[float, int]:
    """Crossing direction delta = sign of d Re(lambda)/d tau at lambda = i w, tau_star.

    Computed from delta = (A C + B D)/(C^2 + D^2) where A + iB collects the
    explicit tau-derivative of P (including the derivatives of r0 and s0 for
    delay-dependent blocks) and C + iD the lambda-derivative.  Raises
    DegenerateCrossingError when the value vanishes (e.g. a double w root),
    and InvalidParamError unless tau_star is finite and >= 0.
    """
    return _delta(p.snapshot(check_delay(tau_star)), omega)


def _rungs(snap, cand: OmegaCandidate, n_range: range, t0: float = 0.0, t1: float = math.inf):
    """(sign delta, windings, tau_n): the n in n_range whose rungs tau_n = (theta + 2 pi n)/w lie in [t0, t1].

    The one enumerator of a delay-independent block's ladders; ``snap`` is
    the block's frozen (r0, r1, s0).  tau_n rises with n, so the windings
    are a slice of the range, in its order, counted before any rung is
    built.  sign delta = sign F'(w), F'(w) = 4 w^3 + 2 b w: +1 on the PLUS root and
    -1 on the MINUS root (Cooke & van den Driessche, 1986), the same for
    every rung.  Where the range holds rungs tau_n >= t0 and F'(w) vanishes
    to rounding (a double root b^2 = 4c) the crossing is tangential, and
    DegenerateCrossingError is raised.
    """
    w = cand.omega
    theta = _angle(*snap, w)

    def tau_n(n):
        return (theta + _TWO_PI * n) / w

    up = n_range if n_range.step > 0 else n_range[::-1]
    b = _b_c(*snap)[0]
    if up and tau_n(up[-1]) >= t0 and abs(4.0 * w**3 + 2.0 * b * w) <= 1e-12 * (4.0 * w**3 + 2.0 * abs(b) * w):
        raise DegenerateCrossingError(f"double crossing frequency omega={w}")
    ns = up[bisect.bisect_left(up, t0, key=tau_n) : bisect.bisect_right(up, t1, key=tau_n)]
    return (1 if cand.root_branch is RootBranch.PLUS else -1), (ns if n_range.step > 0 else ns[::-1]), tau_n


def _crossings(snap, ladders) -> list[CrossingCandidate]:
    """The crossings of ``_rungs`` ladders (cand, sign, windings, tau_n) on the block ``snap``, ascending in tau."""
    out = []
    for cand, sign, ns, tau_n in ladders:
        for n in ns:
            tau = tau_n(n)
            dot, norm, _ = _transversality_terms((*snap, tau, 0.0, 0.0), cand.omega)
            out.append(CrossingCandidate(cand, tau, n, dot / norm, sign))
    out.sort(key=lambda c: c.tau_star)
    return out


def tau_candidates(
    p: QuasiPolynomial, cand: OmegaCandidate, n_range: range
) -> list[CrossingCandidate]:
    """Nonnegative crossing delays tau_n = (theta + 2 pi n)/w for n in n_range, ascending.

    Requires delay-independent coefficients (sn_scan takes the others).  The
    rungs come from the enumerator ``sn_scan`` and ``bifurcation_curves``
    share: the sign of delta is the root branch's, and a double crossing
    frequency raises DegenerateCrossingError.
    """
    if p.tau_dependent:
        raise UnsupportedKindError(
            "tau_candidates needs delay-independent coefficients; use sn_scan"
        )
    snap = p.snapshot(0.0)[:3]
    return _crossings(snap, [(cand, *_rungs(snap, cand, n_range))])


def _b_c(r0, r1, s0):
    """Coefficients (b, c) of |R(i w)|^2 - |S|^2 = w^4 + b w^2 + c from a snapshot."""
    return r1 * r1 - 2.0 * r0, r0 * r0 - s0 * s0


def _turns(at, s: np.ndarray, root: np.ndarray):
    """(u, w, tau) at scan parameters s on the root branches ``root`` (0: PLUS, 1: MINUS).

    ``at(s)`` maps the scan parameter to the snapshot (r0, r1, s0, tau, dr0, ds0),
    and ``root`` broadcasts against s.  u = (tau w - theta)/2 pi, and u and w
    are NaN where that w is absent; S_n = 2 pi (u - n)/w changes sign where u
    passes the integer n.  Raises NoConvergenceError where b or c overflows.
    """
    r0, r1, s0, tau = at(s)[:4]
    with np.errstate(over="ignore", invalid="ignore"):
        b, c = _b_c(r0, r1, s0)
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise NoConvergenceError(
                f"the crossing quartic overflows at delays in [{np.min(tau):g}, {np.max(tau):g}]"
            )
        # _stable_quadratic_roots elementwise; omega_candidates keeps the scalar
        # form, which numpy would slow some 40 times
        disc = b * b - 4.0 * c
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        if not np.isfinite(disc).all():  # b^2 or 4c overflows: sqrt(disc) = m sqrt(disc / m^2)
            m = np.where(np.isfinite(disc), 1.0, np.maximum(np.abs(b), np.sqrt(np.abs(c))))
            disc = (b / m) * (b / m) - 4.0 * (c / m) / m
            sq = m * np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        big = np.where(b <= 0.0, -b + sq, -b - sq) / 2.0
        small = c / np.where(big != 0.0, big, np.inf)
    w2 = np.where((root == 0) == (b <= 0.0), big, small)
    w = np.sqrt(np.where((w2 > 0.0) & (s0 != 0.0), w2, np.nan))
    theta = np.arctan2(s0 * (r1 * w), -s0 * (r0 - w * w))
    theta = np.where(theta <= -math.pi, theta + _TWO_PI, theta)
    return (tau * w - theta) / _TWO_PI, w, tau


def _halve(at, root, ends, closed, side, passes):
    """Halve intervals of the scan parameter at once, each on u of its root branch ``root``.

    ``ends`` = (a, b, ua, ub) holds the ends and u there.  A pass reads u at
    the midpoints m of the intervals not ``closed(a, b, m)``, and ``side(u, k)``
    (k the open intervals) moves end a to m (1) or end b (-1); any other value
    closes the interval there.  Returns the ends and their u after at most
    ``passes`` passes.
    """
    a, b, ua, ub = (np.array(v, dtype=float) for v in ends)
    k = np.arange(a.size)
    for _ in range(passes):
        ak, bk = a[k], b[k]
        m = 0.5 * (ak + bk)
        live = ~closed(ak, bk, m)
        k, m = k[live], m[live]
        if not k.size:
            break
        u = _turns(at, m, root[k])[0]
        move = side(u, k)
        to_a, to_b = move == 1, move == -1
        a[k[to_a]], ua[k[to_a]] = m[to_a], u[to_a]
        b[k[to_b]], ub[k[to_b]] = m[to_b], u[to_b]
        k = k[to_a | to_b]
    return a, b, ua, ub


# a scan bracket becomes at most one crossing, a Python object of about 240 B
# that takes about 8 us to build (one transversality evaluation); with the
# halving, 2^20 brackets cost about 15 s and 650 MiB on one Xeon core
_MAX_CROSSINGS = 2**20


def _scan(at, windows) -> list[list[CrossingCandidate]]:
    """Zeros of S_n over windows of a scan parameter s that moves the delay monotonically.

    ``at(s)`` gives the snapshot (r0, r1, s0, tau, dr0, ds0) for a float or an
    array: the coefficients, the delay and the coefficients' delay
    derivatives.  The brackets of every window and root branch are counted
    before any is halved, and more than the budget of 2^20 raise
    InvalidParamError naming the delays the windows span.  A crossing is
    reported at its delay, with delta from the snapshot at the scan
    parameter where it was found; one list per window.
    """
    if not windows:
        return []
    grid = np.array([np.linspace(*window, 1001) for window in windows])
    u = _turns(at, grid, np.arange(2)[:, None, None])[0]
    # the cells of every root branch (axis 0) and window (axis 1), ends a < b
    sa, sb = (np.broadcast_to(g, u[..., 1:].shape).copy() for g in (grid[:, :-1], grid[:, 1:]))
    ua, ub = u[..., :-1].copy(), u[..., 1:].copy()
    # where w is born or dies inside a cell, halve it on the existence of w
    # down to 1e-9 max(1, |s|) (1100 passes reach that from any finite cell),
    # and the last live parameter closes the cell's live part
    edge = np.nonzero(np.isnan(ua) != np.isnan(ub))
    born = np.isnan(ua[edge])
    live, gone = np.where(born, sb[edge], sa[edge]), np.where(born, sa[edge], sb[edge])
    es, _, eu, _ = _halve(
        at, edge[0], (live, gone, np.where(born, ub[edge], ua[edge]), np.full(live.shape, np.nan)),
        lambda a, b, m: np.abs(b - a) <= 1e-9 * np.maximum(1.0, np.abs(a)),
        lambda u, k: np.where(np.isnan(u), -1, 1), 1100,
    )
    moved = es != live
    for cell_s, cell_u, dead in ((sa, ua, born), (sb, ub, ~born)):  # the dead end moves
        hit = moved & dead
        at_edge = tuple(i[hit] for i in edge)
        cell_s[at_edge], cell_u[at_edge] = es[hit], eu[hit]
    # the integers n that u passes on each cell: S_n changes sign there
    lo, hi = np.ceil(np.minimum(ua, ub)), np.floor(np.maximum(ua, ub))
    cells = np.nonzero((hi >= lo) & (ua != ub))
    lo, counts = lo[cells], hi[cells] - lo[cells] + 1.0
    count = float(np.sum(counts))
    if not count <= _MAX_CROSSINGS:  # NaN too: u overflowed
        taus = at(np.array(windows, dtype=float))[3]
        raise InvalidParamError(
            f"the delay window [{np.min(taus):g}, {np.max(taus):g}] holds at least "
            f"{count:.6g} crossing brackets, more than the budget of 2^20"
        )
    # one bracket per cell and n, in (window, root branch, n, cell) order
    per = counts.astype(int)
    first = np.repeat(np.cumsum(per) - per, per)
    cell = np.repeat(np.arange(per.size), per)
    n = lo[cell] + (np.arange(cell.size) - first)
    root, win, i = (c[cell] for c in cells)
    order = np.lexsort((i, n, root, win))
    root, win, n, cell = root[order], win[order], n[order], cell[order]
    ends = tuple(v[cells][cell] for v in (sa, sb, ua, ub))
    out: list[dict[tuple[str, float], CrossingCandidate]] = [{} for _ in windows]
    tags = (RootBranch.PLUS, RootBranch.MINUS)
    for q in range(0, n.size, 2**16):  # 2^16 brackets at a time: the halving's arrays stay small
        sl = slice(q, q + 2**16)
        r, nq, e = root[sl], n[sl], tuple(v[sl] for v in ends)
        ga, gb = e[2] - nq, e[3] - nq
        a, b, ua, ub = _halve(
            at, r, e,
            lambda a, b, m: b - a < 1e-14 * np.maximum(1.0, np.abs(m)),
            lambda u, k: np.sign(u - nq[k]) * np.sign(ga[k]), 200,
        )
        # an end where u = n is the zero; else the last midpoint, where a NaN
        # drops the bracket, and ends half a turn apart straddle a branch-cut
        # jump of theta, where S_n changes sign without vanishing
        s = np.where(ga == 0.0, e[0], np.where(gb == 0.0, e[1], 0.5 * (a + b)))
        us, ws, taus = _turns(at, s, r)
        keep = ~np.isnan(us) & ((us == nq) | (np.abs(ua - ub) < 0.5))
        for j, rk, nk, sk, w, tau in zip(*(v[keep].tolist() for v in (win[sl], r, nq, s, ws, taus))):
            key = (tags[rk].value, round(tau, 7))
            if key not in out[j]:  # duplicates keep the first, in bracket order
                delta, sgn = _delta(tuple(float(v) for v in at(sk)), w)
                out[j][key] = CrossingCandidate(OmegaCandidate(w, tags[rk]), tau, int(nk), delta, sgn)
    return [sorted(found.values(), key=lambda c: c.tau_star) for found in out]


def sn_scan(p: QuasiPolynomial, tau_window: tuple[float, float]) -> list[CrossingCandidate]:
    """Zeros of S_n over a delay window, for constant or delay-dependent blocks.

    A delay-independent block's zeros are the ladders tau_n = (theta + 2 pi n)/w
    of its crossing frequencies, in closed form: the ladder enumerator that
    ``tau_candidates`` and ``bifurcation_curves`` share gives each ladder's
    windings n >= 0 in the window as a range slice, so they are counted
    before any is built, and more than the budget of 2^20 crossings raises
    InvalidParamError.  A window that reaches past winding 2^50, where
    rounding moves a delay by a sizable part of the rung spacing, is counted
    from its width, (t1 - t0) w/2 pi per ladder, and refused either way.

    A delay-dependent block is sampled at 1001 evenly spaced delays for both
    root branches w+ and w-.  Where a branch's w is born or dies inside a
    cell, the cell is halved on the existence of w and the last live delay
    closes it, so a zero between the edge and the grid gets a bracket too.
    With u(tau) = (tau w - theta)/2 pi, S_n = 2 pi (u - n)/w, so the cells
    whose two u values enclose the integer n bracket the sign changes of S_n:
    one sweep over the cells finds them for every winding at once, and
    u >= -1/2 (tau >= 0, theta <= pi) leaves only n >= 0.  All brackets are
    halved at once, on the sign of u - n, down to rounding; one where w
    vanishes is dropped, and so is one whose ends stay half a turn apart
    (pi/w in S_n), a branch-cut jump of theta, where S_n changes sign without
    vanishing.  More brackets than the budget of 2^20 crossings raise
    InvalidParamError before any is halved, and an overflowing b or c
    raises NoConvergenceError.

    A window that ends at or before its start holds no crossings; a negative
    or non-finite window end raises InvalidParamError.
    """
    t0, t1 = check_delay(tau_window[0]), check_delay(tau_window[1])
    if not t1 > t0:
        return []
    if not p.tau_dependent:
        snap = p.snapshot(0.0)[:3]
        cands = omega_candidates(*_b_c(*snap)) if snap[2] != 0.0 else []
        far = any(not t1 * c.omega / _TWO_PI < 2.0**50 for c in cands)
        # theta > -pi puts tau_n past t1 for n > (t1 w + pi)/2 pi, so the range stops there
        ladders = [] if far else [
            (c, *_rungs(snap, c, range(math.floor((t1 * c.omega + math.pi) / _TWO_PI) + 2), t0, t1))
            for c in cands
        ]
        count = sum((t1 - t0) * c.omega / _TWO_PI for c in cands) if far else sum(len(r[2]) for r in ladders)
        if count > _MAX_CROSSINGS:
            raise InvalidParamError(
                f"the delay window [{t0:g}, {t1:g}] holds {count:.6g} crossings, "
                "more than the budget of 2^20"
            )
        if far:
            raise InvalidParamError(
                f"the delay window [{t0:g}, {t1:g}] reaches windings past 2^50, "
                "too far out for doubles to space the rungs"
            )
        return _crossings(snap, ladders)
    return _scan(lambda tau: (*p.at(tau), tau, *p.dcoeffs(tau)), [(t0, t1)])[0]


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
    k = params.coupling
    n = params.n_nodes
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
    contribute no rows.  Rows are sorted by (sweep value, tau).  The blocks
    are delay-independent: a row is a rung of the ladder enumerator that
    ``tau_candidates`` and ``sn_scan`` share, in [0, tau_max], and its
    delta sign is the root branch's, sign F'(w) (+1 on the PLUS root, -1 on
    the MINUS root; Cooke & van den Driessche, 1986).  A double crossing
    frequency b^2 = 4c with rungs in n_range raises DegenerateCrossingError,
    as ``tau_candidates`` does.  The rows are counted before any is built,
    and more than the budget of 2^20 raise InvalidParamError.
    """
    if sweep_param not in ("mu", "K"):
        raise UnsupportedKindError(f"unknown sweep parameter {sweep_param!r}")
    ladders, count = [], 0
    for v in sweep_values:
        v = float(v)
        q = replace(params, filter_gain=v) if sweep_param == "mu" else replace(params, coupling=v)
        try:
            eq = equilibrium(q, eq_branch)
        except NoEquilibriumError:
            continue
        blocks = build_blocks(ModelKind.FULL_PHASE, q, eq)
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        snap = blk.snapshot(0.0)[:3]
        for cand in omega_candidates(*_b_c(*snap)):
            sign, ns, tau_n = _rungs(snap, cand, n_range, 0.0, math.inf if tau_max is None else tau_max)
            count += len(ns)
            if count > _MAX_CROSSINGS:
                raise InvalidParamError(
                    f"n in [{n_range[0]}, {n_range[-1]}] gives at least {count} curve rows, "
                    "more than the budget of 2^20"
                )
            ladders.append((v, cand, sign, ns, tau_n))
    rows = [
        CurveRow(v, n, cand.root_branch, cand.omega, tau_n(n), sign)
        for v, cand, sign, ns, tau_n in ladders
        for n in ns
    ]
    rows.sort(key=lambda r: (r.sweep_value, r.tau_star))
    return rows
