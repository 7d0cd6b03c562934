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

``unstable_count`` counts the roots right of a vertical line Re = a by the
argument principle on that half-plane (the Mikhailov / Stepan count; Stepan,
*Retarded Dynamical Systems*, 1989, Thm 2.19).  P has real coefficients, so
the phase of P is followed only along a + i omega for omega in [0, W];
beyond W the real part of P is negative and the remaining phase change has a
closed form.  ``root_census`` counts the roots in a rectangle by the winding
of P along its four edges.  Both sample their contour in segments short
enough that e^{-lambda tau} turns by at most pi/4 on each (so a whole turn
never hides inside one segment), all evaluated in one vectorized sweep, and
bisect only the segments whose phase step is pi/4 or more.  Certification
divides the polished root and its conjugate out of P, so the line 1e-6 to
their right sees a smooth phase and needs no deep bisection.  A line count
samples nothing when a closed form in the polynomial part shows that no
root can lie right of the line (``_excluded``).
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
    BranchDomainError for z = 0 on k != 0 and NoConvergenceError if the
    defining identity cannot be met.
    """
    z = complex(z)
    k = int(k)
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


def _pcoeffs(p: QuasiPolynomial, tau: float) -> tuple[float, float, float]:
    return tuple(float(v) for v in p.at(tau))


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
    tau: float | None = None,
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
    the half-plane count along the line Re = Re lambda + 1e-6 is 0 (a line
    nearer lambda would meet the count's 1e-8 boundary-root test).  So of two
    root pairs whose real parts differ by less than 1e-6, either may be
    returned: a warm start on the lower one certifies.  The count's
    closed-form exclusion runs first, and a 0 from it is a certificate like
    a sampled 0.  A count that overflows, meets a root on its line or runs
    out of evaluations certifies nothing.
    """
    t = _delay(p, tau)
    r0, r1, s0 = _pcoeffs(p, t)
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
    # No root right of the line 1e-6 right of lam, counted with lam and its
    # conjugate divided out of P: their factors would turn the phase by about
    # pi within 1e-6 of Im lam, while the quotient stays smooth there.  A real
    # root is divided out once: it is its own conjugate.  Newton can leave a
    # real root a stray imaginary part (1e-45 has been seen); one at rounding
    # level still marks a single real factor.
    known = (complex(lam.real),) if abs(lam.imag) <= 1e-12 else (lam, lam.conjugate())
    try:
        return _count(r0, r1, s0, tau, lam.real + 1e-6, known) == 0
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
# Argument-principle counts


def _deflate(z, f, known: tuple[complex, ...]):
    """f / prod(z - k) over the known roots k, for a point or an array of z."""
    for k in known:
        f = f / (z - k)
    return f


def _phase_change(r0, r1, s0, tau, starts, ends, nseg, known, max_evals) -> float:
    """Phase change of P/prod(z - k) along the segments starts[i] -> ends[i], summed.

    Each segment is cut into ``nseg`` pieces, and all of their end points are
    evaluated in one vectorized sweep.  A piece whose phase step is below
    pi/4 counts as it is.  The others are halved depth first, left half
    first, each halving evaluating one midpoint, until every part's step is
    below pi/4 or 48 halvings deep.  Raises NoConvergenceError if the
    initial samples alone exceed ``max_evals`` (before any is evaluated) or
    if the midpoints do, OverflowError if P is not finite on the samples,
    and BoundaryRootError if a sample or midpoint lies within ~1e-8 of a
    root of P.
    """
    evals = len(starts) * (nseg + 1)
    if evals > max_evals:
        raise NoConvergenceError(f"census needs {evals} initial samples, budget is {max_evals}")
    # np.linspace(0, 1, nseg + 1) to the bit, without its call overhead
    t = np.arange(nseg + 1) * (1.0 / nseg)
    t[-1] = 1.0
    if len(starts) == 1:
        z = starts[0] + (ends[0] - starts[0]) * t
    else:
        z0 = np.array(starts, dtype=complex)[:, None]
        z = z0 + (np.array(ends, dtype=complex)[:, None] - z0) * t
    # |P'| <= 2 |z| + |r1| + tau |s0| e^{-tau Re z} on the segments, so no
    # sample can be near a root while every |P| exceeds twice 1e-8 times that
    points = [*starts, *ends]
    reach = max(map(abs, points))
    low = min(v.real for v in points)
    with np.errstate(all="ignore"):
        f, fp, _ = p_dp(r0, r1, s0, tau, z, exp=np.exp)
        fp_cap = 2.0 * reach + abs(r1) + tau * abs(s0) * np.exp(-low * tau)
    if not np.isfinite(f).all():
        raise OverflowError("e^{-lambda tau} overflows on the census contour")
    af = np.abs(f)
    if not af.min() > 2e-8 * max(fp_cap, 1e-3):
        near = af <= 1e-8 * np.maximum(np.abs(fp), 1e-3)
        if near.any():
            raise BoundaryRootError(
                f"root within ~1e-8 of census contour near {complex(z[near][0])}"
            )
    g = _deflate(z, f, known)
    q = g[..., 1:] / g[..., :-1]
    steps = np.arctan2(q.imag, q.real)  # np.angle, without its call overhead
    big = np.abs(steps) >= math.pi / 4.0
    if not big.any():
        return float(steps.sum())
    total = float(steps[~big].sum())
    # (z_a, z_b, g_a, g_b, depth) of the parts still to count; the right
    # halves wait here while the left half is walked in place
    z, g = z.reshape(-1, nseg + 1), g.reshape(-1, nseg + 1)
    todo = [
        (complex(z[e, j]), complex(z[e, j + 1]), complex(g[e, j]), complex(g[e, j + 1]), 0)
        for e, j in zip(*np.nonzero(big.reshape(-1, nseg)))
    ][::-1]
    while todo:
        za, zb, ga, gb, depth = todo.pop()
        dphi = cmath.phase(gb / ga)
        while abs(dphi) >= math.pi / 4.0 and depth < 48:
            evals += 1
            if evals > max_evals:
                raise NoConvergenceError("census evaluation budget exhausted")
            zm = 0.5 * (za + zb)
            fm, fpm, _ = p_dp(r0, r1, s0, tau, zm)
            if abs(fm) <= 1e-8 * max(abs(fpm), 1e-3):
                raise BoundaryRootError(f"root within ~1e-8 of census contour near {zm}")
            for k in known:
                fm = fm / (zm - k)
            depth += 1
            todo.append((zm, zb, fm, gb, depth))
            zb, gb = zm, fm
            dphi = cmath.phase(gb / ga)
        total += dphi
    return total


def _nearest_int(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > 0.05:
        raise NoConvergenceError(f"{what} {x} is not close to an integer")
    return int(n)


def _segments(tau: float, span: float) -> int:
    # e^{-lambda tau} turns by tau |d lambda|: at most pi/4 per initial segment
    return max(32, math.ceil(4.0 * tau * span / math.pi))


def _excluded(r0, r1, s0, tau, shift) -> bool:
    """True if P provably has no root with Re >= shift, from |p| alone (p = z^2 + r1 z + r0).

    A root z of P has |p(z)| = |s0| e^{-tau Re z}, which is at most
    B = |s0| e^{-shift tau} when Re z >= shift.  With c = a^2 + r1 a + r0 and
    d = 2 a + r1 (a = shift), p(a + w) = w^2 + d w + c has both roots left of
    the line exactly when c > 0 and d > 0; then |p| is smallest on the line,
    where |p(a + i omega)|^2 = u^2 + (d^2 - 2c) u + c^2 (u = omega^2).  Its
    minimum is c^2 if d^2 >= 2c and c^2 - (2c - d^2)^2 / 4 = d^2 (c - d^2/4)
    otherwise.  The test passes when its square root, the least |p| on the
    line, exceeds B by the margin 1e-12 + 1e-14 S/c, S = |a + r1||a| + |r0|:
    rounding moves c by a few ulps of S, which may cancel in it, and so moves
    that least |p| by about 4e-16 S/c relatively; the margin is over 20 times
    that.  An exp that overflows, a NaN, a root of p at or right of the line
    or a least |p| within the margin gives False: undecided, not a root.
    This is the delay-independent stability bound (Stepan, *Retarded
    Dynamical Systems*, 1989; Hale & Verduyn Lunel, *Introduction to
    Functional Differential Equations*, 1993).
    """
    a = shift
    c = (a + r1) * a + r0
    d = 2.0 * a + r1
    if not (c > 0.0 and d > 0.0):
        return False
    try:
        bound = abs(s0) * math.exp(-a * tau)
    except OverflowError:
        return False
    low = c if d * d >= 2.0 * c else d * math.sqrt(c - 0.25 * d * d)
    margin = 1e-12 + 1e-14 * (abs(a + r1) * abs(a) + abs(r0)) / c
    return low > bound * (1.0 + margin)


def _count(r0, r1, s0, tau, shift, known=(), max_evals=500_000) -> int:
    """Number of roots of P with Re > shift, from the phase of P/prod(z - k) along Re = shift.

    ``_excluded`` runs first: when |p| alone keeps every root left of the
    line, the count is 0 without a sample, and that 0 is a certificate like
    any other.  Otherwise the line is sampled.  The known roots k must lie
    left of the line, and must be closed under conjugation, so that the
    deflated G = P/prod(z - k) is real at omega = 0.
    The argument principle on the half-plane right of the line, with P's
    conjugate symmetry, gives N = (2 - len(known))/2 - Delta/pi, Delta being
    the phase change of G along shift + i omega for omega from 0 to infinity.
    Beyond W = sqrt(|a^2 + r1 a + r0| + |s0| e^{-a tau}) + 1 (a = shift),
    Re P < -1, so arg P runs to pi inside (pi/2, 3 pi/2), and each factor
    shift + i omega - k, in the right half-plane, runs to pi/2: that tail is
    closed in closed form, and only [0, W] is sampled.
    """
    if _excluded(r0, r1, s0, tau, shift):
        return 0
    a = shift
    top = math.sqrt(abs((a + r1) * a + r0) + abs(s0) * math.exp(-a * tau)) + 1.0
    end = complex(a, top)
    total = _phase_change(
        r0, r1, s0, tau, [complex(a)], [end], _segments(tau, top), known, max_evals
    )
    f_end = p_dp(r0, r1, s0, tau, end)[0]
    total -= cmath.phase(-f_end)
    total -= sum(math.pi / 2.0 - cmath.phase(end - k) for k in known)
    return _nearest_int((2 - len(known)) / 2.0 - total / math.pi, "half-plane count")


def _delay(p: QuasiPolynomial, tau: float | None) -> float:
    # for tau < 0 the quasi-polynomial is of advanced type: no finite count
    return check_delay(p.delay if tau is None else tau)


def unstable_count(p: QuasiPolynomial, tau: float | None = None, shift: float = 0.0) -> int:
    """Number of roots of P (with multiplicity) with Re lambda > ``shift``.

    A closed-form exclusion runs first: when |lambda^2 + r1 lambda + r0|
    provably exceeds |s0| e^{-shift tau} on the whole half-plane
    Re lambda >= shift, no root lies there, and the 0 it returns is a
    certificate (``_excluded``).  Otherwise, the Mikhailov / Stepan count:
    the phase of P is followed up the line
    Re lambda = shift from Im lambda = 0 to a bound W beyond which Re P < 0,
    in max(32, ceil(4 tau W / pi)) segments sampled in one vectorized sweep,
    and the rest of the line is closed in closed form.  Raises
    InvalidParamError for a non-finite or negative delay or a non-finite
    shift, BoundaryRootError if a root lies within ~1e-8 of the line,
    NoConvergenceError past 500,000 evaluations or if the count is not close
    to an integer, and OverflowError if e^{-shift tau} overflows.
    """
    t = _delay(p, tau)
    a = float(shift)
    if not math.isfinite(a):
        raise InvalidParamError(f"shift must be finite, got {a}")
    return _count(*_pcoeffs(p, t), t, a)


def root_census(
    p: QuasiPolynomial,
    tau: float,
    box: CensusBox,
    max_evals: int = 500_000,
) -> int:
    """Number of roots of P (with multiplicity) at delay ``tau`` inside ``box``.

    Tracks the winding of P along the boundary.  Each edge starts as
    max(32, ceil(4 tau span / pi)) segments, span being the box's longer side,
    so that e^{-lambda tau} turns by at most pi/4 on each; all of those
    samples are evaluated in one vectorized sweep.  Only a segment whose
    phase increment is pi/4 or more is refined, by bisection until every
    piece's increment is below pi/4.  Raises NoConvergenceError if the
    initial samples alone exceed ``max_evals``, if refinement does, or if the
    winding is not close to an integer.  If a root sits numerically on the
    contour the box is dilated slightly and the census retried (up to 6
    times) before BoundaryRootError propagates.  Raises InvalidParamError for
    a non-finite or negative delay, and for a box with a non-finite edge or
    without positive extent.  For a half-plane, ``unstable_count``
    needs one line instead of four edges.
    """
    t = check_delay(tau)
    r0, r1, s0 = _pcoeffs(p, t)
    re0, re1 = (float(v) for v in box.re_interval)
    im0, im1 = (float(v) for v in box.im_interval)
    if not (all(map(math.isfinite, (re0, re1, im0, im1))) and re1 > re0 and im1 > im0):
        raise InvalidParamError(f"census box must have finite edges and positive extent, got {box}")
    size = max(re1 - re0, im1 - im0)
    for attempt in range(6):
        pad = attempt * (1e-6 + 1e-6 * size) * (1.3**attempt)
        lo, hi = complex(re0 - pad, im0 - pad), complex(re1 + pad, im1 + pad)
        corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
        nseg = _segments(t, max(hi.real - lo.real, hi.imag - lo.imag))
        try:
            total = _phase_change(
                r0, r1, s0, t, corners, corners[1:] + corners[:1], nseg, (), max_evals
            )
        except BoundaryRootError as err:
            last = err
            continue
        return _nearest_int(total / (2.0 * math.pi), "census winding")
    raise last
