"""Rotating-wave states of the phase formulation and their bifurcations.

Synchronized solutions theta_i = Omega t + const exist when the locked
frequency Omega_hat = Omega + 1 satisfies Omega_hat + K sin(Omega_hat tau) = 1
(time normalized by omega_M).  In the phase phi = Omega_hat tau the relation
inverts in closed form,

    Omega_hat(phi) = 1 - K sin(phi),    tau(phi) = phi / Omega_hat(phi),

and this curve holds every locked solution with tau >= 0.  Its folds are the
zeros of h(phi) = 1 - K sin(phi) + K phi cos(phi), since
dtau/dphi = h / Omega_hat^2; because h'(phi) = -K phi sin(phi), each interval
[j pi, (j + 1) pi] brackets at most one of them.  Cut at the folds and at the
poles Omega_hat = 0 (K > 1; at K = 1 they touch the zeros of h at
phi = pi/2 + 2 pi m and are poles, not folds), the curve falls into
tau-monotone pieces: the locked branches.  The locked frequencies at one
delay are read off the pieces whose delay range holds it (releq_solve).
Along a branch the characteristic blocks have delay-dependent modal gain
a(tau) = K mu cos(Omega_hat(tau) tau), so imaginary-axis crossings are zeros
of the delay-dependent crossing map; relative_hopf_scan finds them in the
branch's phase, where a = K mu cos(phi), tau(phi) and the rate
da/dtau = -K mu sin(phi) Omega_hat / (1 + tau K cos(phi)) need no solve.  The
symmetry-breaking block additionally admits steady-state (zero-root) events
at Omega_hat tau = pi/2 + n pi.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .charfun import BlockKind, blocks_from_gain
from .errors import InvalidParamError
from .model import _MAX_FLOATS, NetworkParams, check_delay, check_int
from .snmap import _MAX_CROSSINGS, CrossingCandidate, _scan

__all__ = [
    "RelEqBranch",
    "PhaseCrossing",
    "ZeroRootEvent",
    "CurveSample",
    "releq_solve",
    "releq_branches",
    "relative_hopf_scan",
    "zero_root_taus",
    "equilibrium_case_curves",
]

_TWO_PI = 2.0 * math.pi


def _solve(f, a, b, x0=None) -> np.ndarray:
    """Zero of f in each bracket [a, b] (arrays, a < b, f(a) f(b) <= 0).

    f(x) returns (value, derivative).  A Newton step that leaves the
    shrinking bracket or fails to halve the previous step is replaced by
    bisection (as in rtsafe); each zero is final once its step is within a
    few ulps.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = np.sign(f(a)[0])
    tol = 4e-16 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    x = 0.5 * (a + b) if x0 is None else np.clip(x0, a, b)
    step = b - a
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            fx, dfx = f(x)
            right = fx * fa > 0.0
            a = np.where(right, x, a)
            b = np.where(right, b, x)
            d = fx / dfx
            newton = x - d
            ok = (np.abs(d) <= 0.5 * np.abs(step)) & (newton >= a) & (newton <= b)
            step = np.where(live, np.where(ok, newton, 0.5 * (a + b)) - x, 0.0)
            x = x + step
            live = np.abs(step) > tol
            if not live.any():
                break
    return x


def _phase_equation(tau, k: float):
    """phi -> phi - tau Omega_hat(phi) and its derivative: zero where tau(phi) = tau."""
    return lambda x: (x - tau * (1.0 - k * np.sin(x)), 1.0 + tau * k * np.cos(x))


def releq_solve(params: NetworkParams, tau: float) -> list[float]:
    """All locked frequencies Omega_hat at delay tau, ascending, from the phase curve.

    Each tau-monotone piece of tau(phi) (module docstring) whose delay range
    holds tau contributes its phase phi with tau(phi) = tau, all found by one
    bracketed solve, and Omega_hat = 1 - K sin(phi) is polished by one Newton
    step on the locked residual Omega_hat + K sin(Omega_hat tau) - 1; residuals
    end below 1e-12.  At a fold delay the two pieces that meet there both
    hold tau, so the double root is listed twice.  Raises InvalidParamError
    for a negative or non-finite delay.
    """
    k = params.coupling
    tau = check_delay(tau)
    lo, hi = [], []
    for a, b, ta, tb in _pieces(k, tau):
        holds = (np.minimum(ta, tb) <= tau) & (tau <= np.maximum(ta, tb))
        lo.append(a[holds])
        hi.append(b[holds])
    phi = _solve(_phase_equation(tau, k), np.concatenate(lo), np.concatenate(hi))
    oh = 1.0 - k * np.sin(phi)
    slope = 1.0 + k * tau * np.cos(oh * tau)
    live = slope != 0.0  # an exact fold: the residual has no slope to follow
    oh[live] -= (oh[live] + k * np.sin(oh[live] * tau) - 1.0) / slope[live]
    return [float(r) for r in np.sort(oh)]


@dataclass
class RelEqBranch:
    """One tau-monotone branch of locked frequencies Omega_hat(tau).

    ``phase_piece`` is the interval of phi = Omega_hat tau the branch covers;
    its ends are folds, poles (Omega_hat = 0), phi = 0, or a phase whose delay
    lies beyond the window.
    """

    branch_id: int
    birth_tau: float
    taus: np.ndarray
    omegas: np.ndarray
    coupling: float
    phase_piece: tuple[float, float]

    def omega_hat(self, tau):
        """Omega_hat at tau: bracketed Newton on tau(phi) = tau over the phase piece.

        Outside the branch's delay range no locked solution lies on it, and
        the value returned is that at an end of the phase piece.  A single
        delay gives a float, the array path's element to the bit.
        """
        t = np.asarray(tau, dtype=float)
        guess = np.interp(t, self.taus, self.omegas * self.taus)
        phi = _solve(_phase_equation(t, self.coupling), *self.phase_piece, guess)
        oh = 1.0 - self.coupling * np.sin(phi)
        return oh if t.ndim else float(oh)


_STEP = 4096  # phase intervals whose cuts _pieces builds at a time


def _pieces(k: float, t1: float):
    """Arrays (phi_a, phi_b, tau_a, tau_b) of the tau-monotone pieces reaching delays up to t1.

    Cuts are the folds, the poles, phi = 0 and the ends of the scanned phase
    range, which lie beyond the reach of t1: tau >= phi / (1 + K) for phi > 0
    and tau >= |phi| / (K - 1) for phi < 0.  The pieces come in phase order,
    one step of four arrays per 4096 intervals [j pi, (j + 1) pi], each
    step's cuts built as it is consumed, so a caller that stops early builds
    no more.  A range of more than 2^27 intervals raises InvalidParamError
    before anything is built.
    """

    def h(x):
        return 1.0 - k * np.sin(x) + k * x * np.cos(x), -k * x * np.sin(x)

    span = ((1.0 + k) + max(k - 1.0, 0.0)) * t1 / math.pi
    if not span <= _MAX_FLOATS:  # inf too: the product overflowed
        raise InvalidParamError(
            f"delays up to {t1:g} cross {span:.6g} phase intervals, more than the budget of 2^27"
        )
    j_lo = math.floor(-(k - 1.0) * t1 / math.pi) - 1 if k > 1.0 else 0
    j_end = math.ceil((1.0 + k) * t1 / math.pi) + 1
    first, last = math.pi * j_lo, math.pi * (j_end - 1) + math.pi
    prev_phi, prev_tau = np.empty(0), np.empty(0)
    for j0 in range(j_lo, j_end, _STEP):
        j1 = min(j0 + _STEP, j_end)
        a = math.pi * np.arange(j0, j1)
        b = a + math.pi
        # this step's cuts lie in [lo, hi), the last step's in [lo, last]
        lo, hi = a[0], math.pi * j1 if j1 < j_end else last
        sign_change = h(a)[0] * h(b)[0] < 0.0
        ends = [x for x in (first, 0.0) if lo <= x < hi] + ([last] if j1 == j_end else [])
        phi = np.concatenate([_solve(h, a[sign_change], b[sign_change]), ends])
        with np.errstate(divide="ignore"):
            tau = phi / (1.0 - k * np.sin(phi))
        if k > 1.0:
            sn = math.asin(1.0 / k)
            m = _TWO_PI * np.arange(math.floor(lo / _TWO_PI), math.ceil(hi / _TWO_PI) + 1)
            poles = np.concatenate([m + sn, m + math.pi - sn])
            poles = poles[(poles > first) & (poles >= lo) & (poles < hi)]
            phi = np.concatenate([phi, poles])
            tau = np.concatenate([tau, np.full(len(poles), math.inf)])
        order = np.argsort(phi)
        phi, tau = np.concatenate([prev_phi, phi[order]]), np.concatenate([prev_tau, tau[order]])
        mid = 0.5 * (phi[:-1] + phi[1:])
        valid = mid * (1.0 - k * np.sin(mid)) > 0.0  # tau > 0 inside the piece
        yield phi[:-1][valid], phi[1:][valid], tau[:-1][valid], tau[1:][valid]
        prev_phi, prev_tau = phi[-1:], tau[-1:]


_RESOLUTION = 2000  # the one grid of the locked branches, whose ids releq and snmap share


def _branch_grids(k: float, tau_window: tuple[float, float]):
    """(birth, grid delays, phase piece) of each locked branch, in branch-id order.

    Each tau-monotone piece of tau(phi) is one branch.  Its birth is the
    piece's lower delay end, or the window start when it is alive there; its
    grid delays are the points of the ``_RESOLUTION``-point grid over the
    window in (birth, end], plus the window start for branches alive there.
    Pieces with fewer than 2 grid delays are dropped.  The rest are ordered
    by (birth, lower end of the phase piece), which is (birth, first
    Omega_hat): branches born together share their first grid delay tau,
    where Omega_hat = phi / tau.  Over 2^20 grid delays in all raise
    InvalidParamError before any branch is solved: each step of pieces is
    counted before any of its pieces is kept.
    """
    t0, t1 = check_delay(tau_window[0]), check_delay(tau_window[1])
    if not t1 > t0:
        raise InvalidParamError(f"delay window [{t0:g}, {t1:g}] does not end after it starts")
    grid = np.linspace(t0, t1, _RESOLUTION)
    kept, samples = [], 0
    for phi_a, phi_b, tau_a, tau_b in _pieces(k, t1):
        lo, hi = np.minimum(tau_a, tau_b), np.maximum(tau_a, tau_b)
        first = np.where(lo == t0, 0, np.searchsorted(grid, lo, side="right"))
        stop = np.searchsorted(grid, hi, side="right")
        keep = np.nonzero(stop - first >= 2)[0]
        samples += int(np.sum(stop[keep] - first[keep]))
        if samples > _MAX_CROSSINGS:
            raise InvalidParamError(
                f"delay window [{t0:g}, {t1:g}] holds more than the budget of 2^20 "
                "locked-branch samples"
            )
        kept += [
            (max(float(lo[i]), t0), grid[first[i] : stop[i]], (float(phi_a[i]), float(phi_b[i])))
            for i in keep
        ]
    kept.sort(key=lambda br: (br[0], br[2][0]))
    return kept


def releq_branches(params: NetworkParams, tau_window: tuple[float, float]) -> list[RelEqBranch]:
    """Locked-frequency branches over a delay window, from the exact phase curve.

    Each tau-monotone piece of tau(phi) = phi / (1 - K sin phi) (module
    docstring) is one branch.  Its birth is the piece's lower delay end, a
    fold or tau = 0, or the window start when it is alive there; it is
    sampled on the 2000-point grid over the window at the points in
    (birth, end], plus the window start for branches alive there, by one
    vectorized bracketed solve per branch.  Branches with fewer than 2 samples
    are dropped; the rest are numbered by (birth, first Omega_hat), the order
    ``relative_hopf_scan`` numbers them in too.  Raises InvalidParamError for
    a negative or non-finite window end, a window that does not end after it
    starts, or more than 2^20 samples in all.
    """
    k = params.coupling
    branches = []
    for i, (birth, taus, piece) in enumerate(_branch_grids(k, tau_window)):
        phi = _solve(_phase_equation(taus, k), *piece)
        branches.append(RelEqBranch(i, birth, taus, 1.0 - k * np.sin(phi), k, piece))
    return branches


@dataclass(frozen=True)
class PhaseCrossing:
    branch_id: int
    crossing: CrossingCandidate


def relative_hopf_scan(
    params: NetworkParams,
    block: BlockKind,
    tau_window: tuple[float, float],
) -> list[PhaseCrossing]:
    """Imaginary-axis crossings of a phase-model block along every locked branch.

    The branches, their ids, window checks and sample budget are
    ``releq_branches(params, tau_window)``'s: both number one ordered list of
    branch grids.  Only the phases at each branch's first and last grid
    delay are solved for; they bound the branch's scan, in its own phase
    phi = Omega_hat tau, where the crossing map is explicit:
    tau(phi) = phi / (1 - K sin phi), the modal gain a = K mu cos(phi) and
    its rate along the branch da/dtau = -K mu sin(phi) Omega_hat / (1 + tau
    K cos(phi)), the one statement of that rate, so the scan of ``sn_scan``
    (1001 points between the two end phases, births and deaths of the
    crossing frequency inside a cell included) evaluates S_n with no solve.
    Each crossing is reported at its delay tau(phi*), with delta from the
    block at phi*.  The brackets of all branches share one budget of 2^20,
    counted before any is halved; past it InvalidParamError is raised.
    """
    k, mu = params.coupling, params.filter_gain
    grids = _branch_grids(k, tau_window)
    if not grids:
        return []
    ends = np.array([(taus[0], taus[-1]) for _, taus, _ in grids])
    pieces = np.array([piece for _, _, piece in grids])
    phi = _solve(_phase_equation(ends, k), pieces[:, :1], pieces[:, 1:])

    def rate(x):
        # da/dtau = -K mu sin(phi) dphi/dtau along the branch, where the locked
        # relation Omega_hat = 1 - K sin(phi) gives dphi/dtau = Omega_hat/(1 + tau K cos phi)
        oh = 1.0 - k * np.sin(x)
        return -k * mu * np.sin(x) * oh / (1.0 + x / oh * k * np.cos(x))

    blocks = blocks_from_gain(params, lambda x: k * mu * np.cos(x), rate)
    blk = blocks.fix if block is BlockKind.FIX else blocks.standard

    def at(x):
        return (*blk.at(x), x / (1.0 - k * np.sin(x)), *blk.dcoeffs(x))

    live = [i for i in range(len(grids)) if ends[i, 1] > ends[i, 0]]
    windows = [tuple(sorted(float(v) for v in phi[i])) for i in live]
    out = [
        PhaseCrossing(branch_id, cand)
        for branch_id, cands in zip(live, _scan(at, windows))
        for cand in cands
    ]
    out.sort(key=lambda c: c.crossing.tau_star)
    return out


@dataclass(frozen=True)
class ZeroRootEvent:
    tau_star: float
    n: int
    delta0: float
    omega_hat: float


def zero_root_taus(params: NetworkParams, n_range: range) -> list[ZeroRootEvent]:
    """Zero-root events of the symmetry-breaking block: Omega_hat tau = pi/2 + n pi.

    For each n in ``n_range``, only entries with positive denominator
    1 + (-1)^{n+1} K and nonnegative tau qualify; delta0 is the steady-state
    crossing speed scale (-1)^n (K N/(N-1)) (1 + (-1)^{n+1} K).  Whether n
    qualifies depends on its sign and parity only, so the events are counted
    before any is built, and more than the budget of 2^20 raise
    InvalidParamError.
    """
    k, n_nodes = params.coupling, params.n_nodes
    up = n_range if n_range.step > 0 else n_range[::-1]
    # tau >= 0 iff n >= 0, and the denominator takes the sign of n's parity
    nonneg = up[bisect.bisect_left(up, 0) :]
    parities = [nonneg] if nonneg.step % 2 == 0 else [nonneg[::2], nonneg[1::2]]
    kept = [ns for ns in parities if ns and 1.0 + (-1.0) ** (ns[0] + 1) * k > 0.0]
    count = sum(len(ns) for ns in kept)
    if count > _MAX_CROSSINGS:
        raise InvalidParamError(
            f"n in [{n_range[0]}, {n_range[-1]}] gives {count} zero-root events, "
            "more than the budget of 2^20"
        )
    events = []
    for n in (n for ns in kept for n in ns):
        denom = 1.0 + (-1.0) ** (n + 1) * k
        tau_star = (math.pi / 2.0 + n * math.pi) / denom
        delta0 = (-1.0) ** n * (k * n_nodes / (n_nodes - 1)) * denom
        events.append(ZeroRootEvent(tau_star, n, delta0, denom))
    # ties keep n_range's order
    events.sort(key=lambda ev: (ev.tau_star, ev.n if up is n_range else -ev.n))
    return events


@dataclass(frozen=True)
class CurveSample:
    m: int
    n: int
    mu: float
    coupling: float
    omega: float


def equilibrium_case_curves(n: int, m_range: range, mu_grid) -> list[CurveSample]:
    """K(mu) curves of Hopf points at tau = 2 n pi, in normalized time (so for any N).

    There the locked frequency is 1, and a crossing frequency omega > 0 at
    K = (omega^2 + mu^2) / (2 mu) turns the delay condition
    omega = (atan2(-omega, mu - K) + 2 m pi) / (2 n pi) into
    mu = omega cot(pi (m - n omega)), which rises strictly from 0 to infinity
    on omega in ((m - 1/2) / n, m / n).  So each m >= 1 in ``m_range`` has one
    Hopf point per mu, found for all of ``mu_grid`` by one bracketed solve, and
    m <= 0 has none.  The odd family tau = (2n+1) pi has no nonzero crossing
    frequency, so no curves.  Raises InvalidParamError for an n that is not an
    integer >= 1 or a mu that is not finite and > 0.
    """
    n = check_int(n, "the delay-family index n", 1)
    mu = np.asarray(mu_grid, dtype=float).ravel()
    if not np.all(np.isfinite(mu) & (mu > 0.0)):
        raise InvalidParamError("every mu must be finite and > 0")
    rows: list[CurveSample] = []
    for m in (m for m in m_range if m >= 1):

        def g(w):
            u = math.pi * (m - n * w)
            c, s = np.cos(u), np.sin(u)
            return w * c / s - mu, c / s + n * math.pi * w / (s * s)

        w = _solve(g, np.full(mu.shape, (m - 0.5) / n), np.full(mu.shape, m / n))
        kk = (w * w + mu * mu) / (2.0 * mu)
        rows += [CurveSample(m, n, float(x), float(y), float(z)) for x, y, z in zip(mu, kk, w)]
    return rows
