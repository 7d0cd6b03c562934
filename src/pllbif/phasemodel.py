"""Rotating-wave states of the phase formulation and their bifurcations.

Synchronized solutions theta_i = Omega t + const exist when the locked
frequency Omega_hat = Omega + omega_M satisfies
Omega_hat + K sin(Omega_hat tau) = omega_M (omega_M = 1 once normalized).  In
the phase phi = Omega_hat tau the relation inverts in closed form,

    Omega_hat(phi) = 1 - K sin(phi),    tau(phi) = phi / Omega_hat(phi),

and this curve holds every locked solution with tau >= 0.  Its folds are the
zeros of h(phi) = 1 - K sin(phi) + K phi cos(phi), since
dtau/dphi = h / Omega_hat^2; because h'(phi) = -K phi sin(phi), each interval
[j pi, (j + 1) pi] brackets at most one of them.  Cut at the folds and at the
poles Omega_hat = 0 (K > 1; at K = 1 they touch the zeros of h at
phi = pi/2 + 2 pi m and are poles, not folds), the curve falls into
tau-monotone pieces: the locked branches.  Along a branch the characteristic
blocks have delay-dependent modal gain a(tau) = K mu cos(Omega_hat(tau) tau),
so imaginary-axis crossings are zeros of the delay-dependent crossing map
(sn_scan), and the symmetry-breaking block additionally admits steady-state
(zero-root) events at Omega_hat tau = pi/2 + n pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import BlockKind, build_blocks
from .errors import InvalidParamError
from .model import ModelKind, NetworkParams, check_delay, normalize
from .snmap import CrossingCandidate, sn_scan

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
    """All locked frequencies Omega_hat in [omega_M - K, omega_M + K] at delay tau.

    The residual Omega_hat + K sin(Omega_hat tau) - 1 is monotone between its
    critical points Omega_hat tau = +-acos(-1/(K tau)) + 2 pi m, so each root
    has its own bracket; residuals end below 1e-12.  Raises InvalidParamError
    for a negative or non-finite delay.
    """
    p = normalize(params)
    k = p.coupling
    tau = check_delay(tau)
    if tau == 0.0:
        return [1.0]
    edges = [1.0 - k, 1.0 + k]
    if k * tau > 1.0:
        c = math.acos(-1.0 / (k * tau))
        m = _TWO_PI * np.arange(
            math.floor(((1.0 - k) * tau - c) / _TWO_PI), math.ceil(((1.0 + k) * tau + c) / _TWO_PI) + 1
        )
        crit = np.concatenate([(m + c) / tau, (m - c) / tau])
        edges += list(crit[(crit > 1.0 - k) & (crit < 1.0 + k)])
    e = np.sort(edges)

    def g(x):
        return x + k * np.sin(x * tau) - 1.0, 1.0 + k * tau * np.cos(x * tau)

    ge = g(e)[0]
    bracket = ge[:-1] * ge[1:] < 0.0
    roots = np.concatenate([_solve(g, e[:-1][bracket], e[1:][bracket]), e[ge == 0.0]])
    return [float(r) for r in np.sort(roots)]


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
        the value returned is that at an end of the phase piece.
        """
        t = np.asarray(tau, dtype=float)
        guess = np.interp(t, self.taus, self.omegas * self.taus)
        phi = _solve(_phase_equation(t, self.coupling), *self.phase_piece, guess)
        oh = 1.0 - self.coupling * np.sin(phi)
        return oh if oh.ndim else float(oh)


def _pieces(k: float, t1: float):
    """(phi_a, phi_b, tau_a, tau_b) of the tau-monotone pieces reaching delays up to t1.

    Cuts are the folds, the poles, phi = 0 and the ends of the scanned phase
    range, which lie beyond the reach of t1: tau >= phi / (1 + K) for phi > 0
    and tau >= |phi| / (K - 1) for phi < 0.
    """

    def h(x):
        return 1.0 - k * np.sin(x) + k * x * np.cos(x), -k * x * np.sin(x)

    j_lo = math.floor(-(k - 1.0) * t1 / math.pi) - 1 if k > 1.0 else 0
    a = math.pi * np.arange(j_lo, math.ceil((1.0 + k) * t1 / math.pi) + 1)
    b = a + math.pi
    sign_change = h(a)[0] * h(b)[0] < 0.0
    phi = np.concatenate([_solve(h, a[sign_change], b[sign_change]), [a[0], 0.0, b[-1]]])
    with np.errstate(divide="ignore"):
        tau = phi / (1.0 - k * np.sin(phi))
    if k > 1.0:
        s = math.asin(1.0 / k)
        m = _TWO_PI * np.arange(math.floor(a[0] / _TWO_PI), math.ceil(b[-1] / _TWO_PI) + 1)
        poles = np.concatenate([m + s, m + math.pi - s])
        poles = poles[(poles > a[0]) & (poles < b[-1])]
        phi = np.concatenate([phi, poles])
        tau = np.concatenate([tau, np.full(len(poles), math.inf)])
    order = np.argsort(phi)
    phi, tau = phi[order], tau[order]
    mid = 0.5 * (phi[:-1] + phi[1:])
    valid = mid * (1.0 - k * np.sin(mid)) > 0.0  # tau > 0 inside the piece
    return zip(phi[:-1][valid], phi[1:][valid], tau[:-1][valid], tau[1:][valid])


def releq_branches(
    params: NetworkParams, tau_window: tuple[float, float], resolution: int = 2000
) -> list[RelEqBranch]:
    """Locked-frequency branches over a delay window, from the exact phase curve.

    Each tau-monotone piece of tau(phi) = phi / (1 - K sin phi) (module
    docstring) is one branch.  Its birth is the piece's lower delay end, a
    fold or tau = 0, or the window start when it is alive there; it is
    sampled on the ``resolution``-point grid over the window at the points in
    (birth, end], plus the window start for branches alive there, by one
    vectorized bracketed solve per branch.  Branches with fewer than 2 samples
    are dropped; the rest are numbered by (birth, first Omega_hat).  Raises
    InvalidParamError for a negative or non-finite window end, or a window
    that does not end after it starts.
    """
    k = normalize(params).coupling
    t0, t1 = check_delay(tau_window[0]), check_delay(tau_window[1])
    if not t1 > t0:
        raise InvalidParamError(f"delay window [{t0:g}, {t1:g}] does not end after it starts")
    grid = np.linspace(t0, t1, int(resolution))
    kept = []
    for phi_a, phi_b, tau_a, tau_b in _pieces(k, t1):
        lo, hi = min(tau_a, tau_b), max(tau_a, tau_b)
        taus = grid[(grid <= hi) & ((grid > lo) | (lo == t0))]
        if len(taus) >= 2:
            phi = _solve(_phase_equation(taus, k), phi_a, phi_b)
            kept.append((float(max(lo, t0)), taus, 1.0 - k * np.sin(phi), (float(phi_a), float(phi_b))))
    kept.sort(key=lambda br: (br[0], br[2][0]))
    return [
        RelEqBranch(i, birth, taus, omegas, k, piece)
        for i, (birth, taus, omegas, piece) in enumerate(kept)
    ]


@dataclass(frozen=True)
class PhaseCrossing:
    branch_id: int
    crossing: CrossingCandidate


def relative_hopf_scan(
    params: NetworkParams,
    block: BlockKind,
    tau_window: tuple[float, float],
    resolution: int = 2000,
    grid_step: float | None = None,
) -> list[PhaseCrossing]:
    """Imaginary-axis crossings of a phase-model block along every locked branch.

    The branches are ``releq_branches(params, tau_window, resolution)``, whose
    window checks apply.
    """
    p = normalize(params)
    branches = releq_branches(p, tau_window, resolution)
    out: list[PhaseCrossing] = []
    for br in branches:
        blocks = build_blocks(ModelKind.PHASE, p, br)
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        lo = float(br.taus[0])
        hi = float(br.taus[-1])
        if hi <= lo:
            continue
        for cand in sn_scan(blk, (lo, hi), grid_step=grid_step):
            out.append(PhaseCrossing(br.branch_id, cand))
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
    crossing speed scale (-1)^n (K N/(N-1)) (1 + (-1)^{n+1} K).
    """
    p = normalize(params)
    k, n_nodes = p.coupling, p.n_nodes
    events = []
    for n in n_range:
        denom = 1.0 + (-1.0) ** (n + 1) * k
        if denom <= 0.0:
            continue
        tau_star = (math.pi / 2.0 + n * math.pi) / denom
        if tau_star < 0.0:
            continue
        delta0 = (-1.0) ** n * (k * n_nodes / (n_nodes - 1)) * denom
        events.append(ZeroRootEvent(tau_star, n, delta0, denom))
    events.sort(key=lambda ev: ev.tau_star)
    return events


@dataclass(frozen=True)
class CurveSample:
    m: int
    n: int
    mu: float
    coupling: float
    omega: float


def equilibrium_case_curves(n: int, m_range: range, mu_grid) -> list[CurveSample]:
    """K(mu) curves of Hopf points at delays with tau = 2 n pi (normalized time).

    In normalized units the curves are the same for every N, so they take no
    network parameters.  There the locked frequency is 1, the crossing
    frequency is omega = sqrt(2 K mu - mu^2), and the delay condition becomes
    omega = (atan2(-omega, mu - K) + 2 m pi) / (2 n pi) for each m in
    ``m_range``, solved for K by bisection at each value of ``mu_grid``.  The
    odd family tau = (2n+1) pi admits no nonzero crossing frequency, so it has
    no curves.
    """
    if int(n) < 1:
        raise InvalidParamError("the delay-family index n must be >= 1")
    n = int(n)
    rows: list[CurveSample] = []
    for m in m_range:
        for mu in mu_grid:
            mu = float(mu)

            def h(kk: float) -> float:
                w = math.sqrt(max(0.0, 2.0 * kk * mu - mu * mu))
                ang = math.atan2(-w, mu - kk) + 2.0 * m * math.pi
                return w - ang / (2.0 * n * math.pi)

            lo = mu / 2.0
            hi = max(mu, 1.0)
            flo = h(lo)
            for _ in range(80):
                if h(hi) > 0.0:
                    break
                hi *= 2.0
            else:
                continue
            fhi = h(hi)
            if flo * fhi > 0.0:
                continue
            a, b, fa = lo, hi, flo
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = h(mid)
                if abs(fm) < 1e-12 or b - a < 1e-13 * max(1.0, mid):
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            kk = 0.5 * (a + b)
            rows.append(
                CurveSample(m, n, mu, kk, math.sqrt(max(0.0, 2.0 * kk * mu - mu * mu)))
            )
    return rows
