"""Characteristic-root location: Lambert W seeding, polishing, and certification.

The rightmost root of a quasi-polynomial P = R + S e^{-lambda tau} governs
linear stability.  Near a root rho of the polynomial part R, writing
u = lambda - rho and linearizing R gives u e^{u tau} = -s0 tau e^{-rho tau}/R'(rho),
so u = W_k(.)/tau enumerates root chains over Lambert W branches.  Those seeds
(plus rho themselves) are polished on P by Newton iteration, and the winner
is certified by counting the roots right of a vertical line just right of
it.  A caller's warm start (the root at a nearby delay) is polished and
certified first; the Lambert W seeds are formed and polished only when that
count cannot certify it.

``unstable_count`` counts the roots right of a vertical line Re = a in
closed form, by the crossing tally (Cooke & van den Driessche, *Funkcialaj
Ekvacioj* 29, 1986; Hale & Verduyn Lunel, *Introduction to Functional
Differential Equations*, 1993): with P shifted to the line and frozen, the
delay-free quadratic's count plus two, signed, for each crossing of
``snmap``'s ladders below tau.  ``root_census`` counts the roots in a
rectangle by the winding of P along its edges, sampled in one vectorized
sweep so densely that e^{-lambda tau} turns by at most pi/4 per segment, and
bisects only the segments whose phase step is larger, within a fixed budget
of 500,000 evaluations of P.

The root finders and counts take the delay as an argument and read the
block's coefficients at it from one ``QuasiPolynomial.snapshot``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .charfun import QuasiPolynomial, p_dp
from .errors import (
    BoundaryRootError,
    BranchDomainError,
    InvalidParamError,
    NoConvergenceError,
)
from .model import check_delay
from .snmap import _TWO_PI, RootBranch, _angle, omega_candidates

__all__ = [
    "SpectrumEstimate",
    "CensusBox",
    "SweepRow",
    "lambert_w",
    "rightmost_root",
    "rightmost_sweep",
    "root_census",
    "unstable_count",
]

_E = math.e
_EXP_NEG1 = 1.0 / math.e
_OMEGA = 0.5671432904097838  # W_0(1)


@dataclass(frozen=True)
class SpectrumEstimate:
    lam: complex
    residual: float
    certified: bool


@dataclass(frozen=True)
class CensusBox:
    re_interval: tuple[float, float]
    im_interval: tuple[float, float]


@dataclass(frozen=True)
class SweepRow:
    tau: float
    lam: complex
    residual: float
    certified: bool


# ---------------------------------------------------------------------------
# Lambert W


def _w_seed(k: int, z: complex) -> complex:
    if k == 0:
        if abs(z) < 0.3:
            return z * (1.0 - z)
        if abs(1.0 + z) >= 0.2 and abs(z) < 4.0:
            return cmath.log(1.0 + z)
    if k == -1 and z.imag == 0.0 and -_EXP_NEG1 < z.real < 0.0:
        l1 = math.log(-z.real)
        return complex(l1 - math.log(-l1))
    return _w_asymptotic(k, z)


def _w_asymptotic(k: int, z: complex) -> complex:
    big_l = cmath.log(z) + 2.0j * math.pi * k
    return big_l - cmath.log(big_l)


def _w_halley(z: complex, w: complex) -> complex | None:
    """Halley iteration for w e^w = z from w; None if it misses the identity."""
    try:
        for _ in range(100):
            ew = cmath.exp(w)
            f = w * ew - z
            if f == 0:
                return w
            wp1 = w + 1.0
            if wp1 == 0:
                w += 1e-8
                continue
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            if denom == 0:
                w += 1e-8
                continue
            dw = f / denom
            w -= dw
            if abs(dw) <= 2e-16 * (1.0 + abs(w)):
                break
        if abs(w * cmath.exp(w) - z) > 1e-12 * max(1.0, abs(z)):
            return None
    except OverflowError:
        return None
    return w


def _on_branch(k: int, z: complex, w: complex) -> bool:
    # w e^w = z fixes the real part of w + log w - log z at 0 and its
    # imaginary part at a multiple of 2 pi: the branch index
    return round((w + cmath.log(w) - cmath.log(z)).imag / (2.0 * math.pi)) == k


def lambert_w(k: int, z: complex) -> complex:
    """Branch k of the Lambert W function: w with w e^w = z.

    Halley iteration from asymptotic seeds (log z - log log z on the shifted
    logarithm sheet), with a series seed near the branch point -1/e for
    branches 0 and -1.  Off the real axis a result counts only if it lies on
    branch k, that is if w + log w = log z + 2 pi i k.  If the iteration from
    the first seed misses the identity, overflows (W_0 just off its cut left
    of -1/e, where the seed log(1 + z) is nearly real) or lands on another
    branch (the series seed of W_-1 below the real axis, where W_1 meets the
    branch point instead), it is retried once from the asymptotic seed.  On
    the real axis that branch test is skipped: there log w and log z sit on
    their cuts, and the branch relation depends on the sign of a zero.  So a
    real z < -1/e with imaginary part -0.0, the lower side of every branch's
    cut, returns conj(W_{-k}(conj z)), the mirror image of the upper side;
    the iteration itself sees only upper sides.  Other inputs within 1e-14
    of -1/e on branches 0 and -1 return -1 exactly.  Raises
    BranchDomainError for a non-finite z (no branch holds it) and for z = 0
    on k != 0, and NoConvergenceError if the defining identity cannot be met.
    """
    z = complex(z)
    k = int(k)
    if not cmath.isfinite(z):
        raise BranchDomainError(f"W_k is not defined at z={z}")
    if z.real < -_EXP_NEG1 and z.imag == 0.0 and math.copysign(1.0, z.imag) < 0.0:
        return lambert_w(-k, z.conjugate()).conjugate()
    if z == 0:
        if k == 0:
            return complex(0.0)
        raise BranchDomainError("W_k(0) is unbounded for k != 0")
    if k in (0, -1):
        dz = z + _EXP_NEG1
        if abs(dz) < 1e-14:
            return complex(-1.0)
        if abs(dz) < 0.25 / _E:
            # series around the branch point: w = -1 + p - p^2/3 + 11 p^3/72
            p = cmath.sqrt(2.0 * _E * dz)
            if k == -1:
                p = -p
            w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
        else:
            w = _w_seed(k, z)
    else:
        w = _w_seed(k, z)

    got = _w_halley(z, w)
    if got is None or (z.imag != 0.0 and not _on_branch(k, z, got)):
        got = _w_halley(z, _w_asymptotic(k, z))
    if got is None:
        raise NoConvergenceError(f"Lambert W branch {k} failed at z={z}")
    return got


# ---------------------------------------------------------------------------
# Root polishing


def _polish(
    r0: float, r1: float, s0: float, tau: float, lam: complex
) -> tuple[complex, float] | None:
    """Newton from one seed; None if it fails or e^{-lambda tau} overflows."""
    try:
        for _ in range(60):
            f, fp, _ = p_dp(r0, r1, s0, tau, lam)
            if fp == 0:
                return None
            step = f / fp
            lam = lam - step
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                return None
            if abs(step) <= 1e-15 * (1.0 + abs(lam)):
                break
        res = abs(p_dp(r0, r1, s0, tau, lam)[0])
    except OverflowError:
        return None
    if res <= 1e-12 * max(1.0, abs(lam) ** 2):
        return lam, res
    return None


def _quadratic_roots(r1: float, r0: float) -> tuple[complex, complex]:
    d = cmath.sqrt(complex(r1 * r1 - 4.0 * r0))
    return (-r1 + d) / 2.0, (-r1 - d) / 2.0


def _polish_into(found: list[tuple[complex, float]], seeds, r0, r1, s0, tau) -> None:
    """Polish each seed and append the (root, residual) pairs not yet in ``found``."""
    for seed in seeds:
        hit = _polish(r0, r1, s0, tau, seed)
        if hit is None:
            continue
        lam = hit[0]
        if all(abs(lam - other) > 1e-8 * (1.0 + abs(lam)) for other, _ in found):
            found.append(hit)


def _upper_rightmost(found: list[tuple[complex, float]]) -> tuple[complex, float]:
    lam, res = max(found, key=lambda pair: pair[0].real)
    if lam.imag < 0.0:  # roots come in conjugate pairs; report the upper one
        lam = lam.conjugate()
    return lam, res


def rightmost_root(
    p: QuasiPolynomial,
    tau: float,
    extra_seeds: tuple[complex, ...] = (),
) -> SpectrumEstimate:
    """Root of P with the largest real part, with its census certificate.

    Seeds, in polishing order: any caller-provided warm starts, the roots rho
    of the polynomial part, and the Lambert chains
    rho + W_k(-s0 tau e^{-rho tau}/R'(rho))/tau for k in -3..3 (a chain whose
    argument overflows is skipped).  When warm starts are given, the rightmost
    of their polished roots is certified first and returned if the census
    proves it rightmost.  Only otherwise are the remaining seeds polished (the
    warm starts' roots are kept, not polished again), and the rightmost root
    of all seeds is certified.  At tau = 0 the quasi-polynomial is an exact
    quadratic and is solved in closed form.  Raises NoConvergenceError if no
    seed converges, and InvalidParamError for a non-finite or negative delay.

    ``certified`` guarantees that no root of P has Re > Re lambda + 1e-6:
    the half-plane count (``unstable_count``'s crossing tally) right of the
    line Re = Re lambda + 1e-6 is 0; a line nearer lambda would meet the
    count's 1e-8 boundary-root test.  So of two root pairs whose real parts
    differ by less than 1e-6, either may be returned: a warm start on the
    lower one certifies.  A count that overflows, meets a root on its line or
    cannot be resolved certifies nothing.
    """
    r0, r1, s0, t = p.snapshot(check_delay(tau))[:4]
    if t == 0.0:
        roots = _quadratic_roots(r1, r0 + s0)
        lam = max(roots, key=lambda r: (r.real, r.imag))
        return SpectrumEstimate(lam, 0.0, True)

    found: list[tuple[complex, float]] = []
    _polish_into(found, extra_seeds, r0, r1, s0, t)
    if found:
        lam, res = _upper_rightmost(found)
        if _certify_rightmost(t, lam, r0, r1, s0):
            return SpectrumEstimate(lam, res, True)

    rho_pair = _quadratic_roots(r1, r0)
    seeds: list[complex] = list(rho_pair)
    for rho in rho_pair:
        rp = 2.0 * rho + r1
        if rp == 0:
            continue
        try:
            arg = -s0 * t * cmath.exp(-rho * t) / rp
        except OverflowError:
            continue
        for k in range(-3, 4):
            try:
                seeds.append(rho + lambert_w(k, arg) / t)
            except (BranchDomainError, NoConvergenceError):
                continue
    _polish_into(found, seeds, r0, r1, s0, t)
    if not found:
        raise NoConvergenceError("no seed converged on the quasi-polynomial")
    lam, res = _upper_rightmost(found)
    return SpectrumEstimate(lam, res, _certify_rightmost(t, lam, r0, r1, s0))


def _certify_rightmost(tau: float, lam: complex, r0: float, r1: float, s0: float) -> bool:
    # no root right of the line 1e-6 right of lam
    try:
        return _count(r0, r1, s0, tau, lam.real + 1e-6) == 0
    except (BoundaryRootError, NoConvergenceError, OverflowError):
        return False


def rightmost_sweep(p: QuasiPolynomial, tau_grid) -> list[SweepRow]:
    """Certified rightmost root of ``p`` along an ascending delay grid.

    ``rightmost_root`` reads the coefficients at each delay, so a block whose
    coefficients move with tau is swept as it is.  Each point after the first
    passes the previous root as its warm start, so a point whose tracked root
    is still rightmost needs one polish and one half-plane count.
    """
    rows: list[SweepRow] = []
    prev: complex | None = None
    for tau in tau_grid:
        tau = float(tau)
        warm = (prev,) if prev is not None and tau > 0.0 else ()
        est = rightmost_root(p, tau, extra_seeds=warm)
        rows.append(SweepRow(tau, est.lam, est.residual, est.certified))
        prev = est.lam
    return rows


# ---------------------------------------------------------------------------
# Half-plane and rectangle counts


def _off_root(r0, r1, s0, tau, lam: complex) -> complex:
    """P(lambda); raises BoundaryRootError if lambda lies within ~1e-8 of a root (|P| <= 1e-8 |P'|)."""
    f, fp, _ = p_dp(r0, r1, s0, tau, lam)
    # an overflowed P (|P| = |P'| = inf, far out along the line) is no root
    if abs(f) <= 1e-8 * max(abs(fp), 1e-3) < math.inf:
        raise BoundaryRootError(f"root within ~1e-8 of the contour near {lam}")
    return f


_EPS = 2.0**-52


def _count(r0, r1, s0, tau, shift) -> int:
    """Number of roots of P with Re > shift, from the crossing tally.

    With lambda = a + z (a = shift), P = z^2 + q1 z + q0 + s e^{-z tau}, where
    q1 = r1 + 2 a, q0 = a^2 + r1 a + r0 and s = s0 e^{-a tau}.  Freeze those
    and let a delay sigma run from 0 to tau.  At sigma = 0+ the roots with
    Re z > 0 are those of z^2 + q1 z + q0 + s (a pair on the axis, when
    q1 = 0, leaves it with dz/dsigma = s/2).  Later roots enter from
    Re z = -inf and cross the axis only at z = i w, w > 0 a root of
    F = w^4 + b w^2 + c (b = q1^2 - 2 q0, c = q0^2 - s^2), at the delays
    (theta + 2 pi n)/w (snmap's ``omega_candidates`` and crossing angle),
    rightward on F's PLUS root and leftward on its MINUS root: 2 roots times
    max(0, ceil(u) - [theta <= 0]) crossings below tau, u = (w tau - theta)/2 pi.

    Raises OverflowError if e^{-a tau} overflows.  Raises BoundaryRootError
    if |P| <= 1e-8 |P'| (the census's rule) at lambda = a, at a + i w, or
    where the crossing nearest tau meets the line: a root within ~1e-8 of the
    line lies near one of those, since at long delays pairs move mostly along
    it.  Raises NoConvergenceError when rounding, carried from q0, q1, s, b
    and c into w, theta and u by first-order bounds, can move u across an
    integer or q0 + s across 0.  When u is off by 1/2 or more, or b or c
    overflows (a delay too long to resolve), it raises before P is tested
    near that crossing, where the test would be noise.
    """
    a = shift
    s = s0 * math.exp(-a * tau)
    q1 = r1 + 2.0 * a
    q0 = (a + r1) * a + r0
    b = q1 * q1 - 2.0 * q0
    c = q0 * q0 - s * s
    if not (math.isfinite(b) and math.isfinite(c)):
        raise NoConvergenceError(f"crossing frequencies overflow at shift {a}, delay {tau}")
    # rounding bounds: q1, q0 and s are off by rel times m1, m0 and |s|
    # (e^{-a tau} carries eps |a tau| from its argument), b and c by db, dc
    rel = _EPS * (8.0 + abs(a * tau))
    m1, m0, abs_s = abs(r1) + 2.0 * abs(a), abs(a + r1) * abs(a) + abs(r0), abs(s)
    db, dc = 4.0 * rel * (m1 * m1 + m0), 3.0 * rel * (m0 * m0 + s * s)
    n = 0
    for cand in omega_candidates(b, c):
        w = cand.omega
        if s == 0.0:  # F(w) = |p(i w)|^2: a root of p on the line, not a crossing
            _off_root(r0, r1, s0, tau, complex(a, w))
            continue
        theta = _angle(q0, q1, s, w)
        # |F| <= g at w with exact b, c bounds |x - x*| (x = w^2, x* the root of
        # x^2 + b x + c) by 2 g/|2x + b| while that is well inside the roots'
        # separation, and by sqrt(g) always
        x = w * w
        g = abs((x + b) * x + c) + 4.0 * _EPS * (x * x + abs(b * x) + abs(c)) + db * x + dc
        h = abs(2.0 * x + b) - db
        dx = 2.0 * g / h if h > 0.0 and h * h >= 36.0 * g else math.sqrt(g)
        dw = min(dx / w, math.sqrt(dx))
        # theta = arg(-s (q0 - w^2) + i s q1 w), whose modulus s |p(i w)| is s^2 here
        dtheta = (rel * (8.0 * abs_s + w * m1 + m0 + x) + (m1 + 2.0 * w) * dw) / abs_s
        u = (w * tau - theta) / _TWO_PI
        err = (tau * dw + dtheta + 4.0 * _EPS * (w * tau + abs(theta))) / math.pi
        if not err < 0.5:
            raise NoConvergenceError(f"crossing turn count {u} is not resolvable at delay {tau}")
        _off_root(r0, r1, s0, tau, complex(a, w))
        # the pair that crossed nearest tau lies nearest the line, where the
        # phase w tau - theta(w) meets 2 pi round(u); theta' = -q1 (q0 + w^2)/s^2
        slope = tau + q1 * (q0 + x) / s / s
        if slope != 0.0:
            _off_root(r0, r1, s0, tau, complex(a, w + _TWO_PI * (round(u) - u) / slope))
        if abs(u - round(u)) <= err:
            raise NoConvergenceError(f"crossing turn count {u} is within rounding of an integer")
        crossings = max(0, math.ceil(u) - (theta <= 0.0))
        n += 2 * crossings if cand.root_branch is RootBranch.PLUS else -2 * crossings
    _off_root(r0, r1, s0, tau, complex(a))
    k0 = q0 + s
    if abs(k0) <= 2.0 * rel * (m0 + abs_s):
        raise NoConvergenceError(f"the sign of P(shift) = {k0} is not resolvable")
    if k0 < 0.0:
        return n + 1
    if q1 == 0.0:
        return n + (2 if s > 0.0 else 0)
    return n + (2 if q1 < 0.0 else 0)


def unstable_count(p: QuasiPolynomial, tau: float, shift: float = 0.0) -> int:
    """Number of roots of P (with multiplicity) with Re lambda > ``shift``.

    Counted in closed form by the crossing tally (``_count``; Cooke & van den
    Driessche, 1986): the coefficients at ``tau`` (a delay-dependent block as
    it stands there) are shifted to the line and frozen, and the count is the
    delay-free quadratic's plus two, signed, for each imaginary-axis crossing
    of that quasi-polynomial below ``tau``.  Nothing is sampled, so the cost
    does not grow with the delay.  Raises InvalidParamError for a non-finite
    or negative delay or a non-finite shift, BoundaryRootError if a root lies
    within ~1e-8 of the line, OverflowError if e^{-shift tau} overflows, and
    NoConvergenceError when rounding can decide the count (a crossing within
    rounding of tau, or a delay too long for the crossings to be resolved).
    """
    # for tau < 0 the quasi-polynomial is of advanced type: no finite count
    snap = p.snapshot(check_delay(tau))
    a = float(shift)
    if not math.isfinite(a):
        raise InvalidParamError(f"shift must be finite, got {a}")
    return _count(*snap[:4], a)


_BUDGET = 500_000  # evaluations of P one census may spend


def root_census(p: QuasiPolynomial, tau: float, box: CensusBox) -> int:
    """Number of roots of P (with multiplicity) at delay ``tau`` inside ``box``.

    Tracks the winding of P along the boundary.  Each edge starts as
    max(32, ceil(4 tau span / pi)) segments, span being the box's longer side,
    so that e^{-lambda tau} turns by at most pi/4 on each; all of those
    samples are evaluated in one vectorized sweep.  Only a segment whose
    phase step is pi/4 or more is refined: it is halved depth first, left
    half first, each halving evaluating one midpoint, until every part's
    step is below pi/4 or 48 halvings deep.  Raises NoConvergenceError if
    the initial samples alone exceed the budget of 500,000 evaluations of P
    (before any is evaluated), if the midpoints do, or if the winding is not
    close to an integer, and OverflowError if P is not finite on the
    samples.  If a sample or midpoint lies within ~1e-8 of a root
    (|P| <= 1e-8 |P'|) the box is dilated slightly and the census retried
    (up to 6 times) before BoundaryRootError propagates.  Raises
    InvalidParamError for a non-finite or negative delay, and for a box with
    a non-finite edge or without positive extent.  A half-plane is counted
    in closed form by ``unstable_count``.
    """
    r0, r1, s0, t = p.snapshot(check_delay(tau))[:4]
    re0, re1 = (float(v) for v in box.re_interval)
    im0, im1 = (float(v) for v in box.im_interval)
    if not (all(map(math.isfinite, (re0, re1, im0, im1))) and re1 > re0 and im1 > im0):
        raise InvalidParamError(f"census box must have finite edges and positive extent, got {box}")
    size = max(re1 - re0, im1 - im0)
    for attempt in range(6):
        pad = attempt * (1e-6 + 1e-6 * size) * (1.3**attempt)
        lo, hi = complex(re0 - pad, im0 - pad), complex(re1 + pad, im1 + pad)
        # e^{-lambda tau} turns by tau |d lambda|: at most pi/4 per initial segment
        nseg = max(32, math.ceil(4.0 * t * max(hi.real - lo.real, hi.imag - lo.imag) / math.pi))
        evals = 4 * (nseg + 1)
        if evals > _BUDGET:
            raise NoConvergenceError(f"census needs {evals} initial samples, budget is {_BUDGET}")
        z0 = np.array([lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)])[:, None]
        z = z0 + (z0[[1, 2, 3, 0]] - z0) * np.linspace(0.0, 1.0, nseg + 1)  # corner to next
        with np.errstate(all="ignore"):
            f, fp, _ = p_dp(r0, r1, s0, t, z, exp=np.exp)
        if not np.isfinite(f).all():
            raise OverflowError("e^{-lambda tau} overflows on the census contour")
        near = np.abs(f) <= 1e-8 * np.maximum(np.abs(fp), 1e-3)
        if near.any():
            where = complex(z[near][0])
            last = BoundaryRootError(f"root within ~1e-8 of census contour near {where}")
            continue
        steps = np.angle(f[:, 1:] / f[:, :-1])
        big = np.abs(steps) >= math.pi / 4.0
        total = float(steps[~big].sum())
        # (z_a, z_b, f_a, f_b, depth) of the parts still to count; the right
        # halves wait here while the left half is walked in place
        todo = [
            (complex(z[e, j]), complex(z[e, j + 1]), complex(f[e, j]), complex(f[e, j + 1]), 0)
            for e, j in zip(*np.nonzero(big))
        ][::-1]
        try:
            while todo:
                za, zb, fa, fb, depth = todo.pop()
                dphi = cmath.phase(fb / fa)
                while abs(dphi) >= math.pi / 4.0 and depth < 48:
                    evals += 1
                    if evals > _BUDGET:
                        raise NoConvergenceError("census evaluation budget exhausted")
                    zm = 0.5 * (za + zb)
                    fm = _off_root(r0, r1, s0, t, zm)
                    depth += 1
                    todo.append((zm, zb, fm, fb, depth))
                    zb, fb = zm, fm
                    dphi = cmath.phase(fb / fa)
                total += dphi
        except BoundaryRootError as err:
            last = err
            continue
        winding = total / (2.0 * math.pi)
        if abs(winding - round(winding)) > 0.05:
            raise NoConvergenceError(f"census winding {winding} is not close to an integer")
        return round(winding)
    raise last
