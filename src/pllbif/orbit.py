"""Periodic orbits in a Fourier basis: fitting and collocation refinement.

A T-periodic candidate is stored as truncated Fourier series of the node
positions.  Positions, velocities, accelerations and delayed positions (the
delay is a pure phase shift) all come from one cos/sin table of k w t, so the
periodic problem closes without interpolation.  ``fit_profile`` extracts a
candidate from a simulation segment that passes near an orbit, by variable
projection on the same table (the coefficients enter linearly, so only the
frequency is iterated), with time 0 at the segment's first sample;
``refine_orbit`` polishes it by damped Gauss-Newton on the collocated model
residual.  The collocated state is linear in the coefficients, so the
Jacobian is the field's partials at the samples times the same tables, by
the chain rule, as in DDE-BIFTOOL (Engelborghs, Luzyanina & Roose 2002).
A refined profile serves directly as an integration history, which is how a
weakly unstable orbit is held long enough to measure its period and symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParamError, NotPeriodicError, UnsupportedKindError
from .model import ModelKind, NetworkParams, check_int, compile_rhs, normalize

__all__ = [
    "OrbitProfile",
    "fit_profile",
    "refine_orbit",
]

_TWO_PI = 2.0 * math.pi

# ``refine_orbit`` accepts a result whose RMS residual is at or below this, and
# refuses one whose every harmonic >= 1 is too: there the residual cannot tell
# an orbit from the equilibrium, which solves the collocation at any period.
_ORBIT_TOL = 1e-6

# Most Gauss-Newton iterations ``fit_profile`` and ``refine_orbit`` make.
_GAUSS_NEWTON_CAP = 30


@dataclass(frozen=True)
class OrbitProfile:
    """Truncated Fourier representation of a periodic solution.

    ``cos_coeffs`` and ``sin_coeffs`` have shape (n_components, H + 1);
    column k holds the coefficients of cos(k w t) and sin(k w t) with
    w = 2 pi / period.  Column 0 of ``sin_coeffs`` is identically zero.
    Both are stored as float arrays, whatever array-like they are given as.
    """

    kind: ModelKind
    params: NetworkParams
    period: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.period <= 0.0 or not math.isfinite(self.period):
            raise InvalidParamError(f"period must be positive, got {self.period}")
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise InvalidParamError("coefficient arrays must share shape (components, H+1)")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def harmonics(self) -> int:
        return self.cos_coeffs.shape[1] - 1

    @property
    def base_frequency(self) -> float:
        return _TWO_PI / self.period

    def positions(self, ts) -> np.ndarray:
        """Component positions at times ts, shape (len(ts), n_components)."""
        tables = _tables(self.base_frequency, ts, self.harmonics)
        return _positions(tables, self.cos_coeffs, self.sin_coeffs)

    def velocities(self, ts) -> np.ndarray:
        tables = _tables(self.base_frequency, ts, self.harmonics)
        return _velocities(tables, self.cos_coeffs, self.sin_coeffs)

    def state(self, t: float = 0.0) -> np.ndarray:
        """Interleaved (position, velocity) state vector; usable as a history."""
        tables = _tables(self.base_frequency, t, self.harmonics)
        out = np.empty(2 * self.cos_coeffs.shape[0])
        out[0::2] = _positions(tables, self.cos_coeffs, self.sin_coeffs)[0]
        out[1::2] = _velocities(tables, self.cos_coeffs, self.sin_coeffs)[0]
        return out

    def residual_norm(self, samples: int = 256) -> float:
        """RMS model residual over one period, a certificate of orbit quality."""
        r = _residual(
            self.kind,
            normalize(self.params),
            self.cos_coeffs,
            self.sin_coeffs,
            self.period,
            samples,
        )
        return float(np.sqrt(np.mean(r * r)))

    def with_harmonics(self, harmonics: int) -> "OrbitProfile":
        """Same orbit, coefficient arrays truncated or zero-padded to ``harmonics``."""
        harmonics = check_int(harmonics, "harmonics", 1)
        n, h0 = self.cos_coeffs.shape
        a = np.zeros((n, harmonics + 1))
        b = np.zeros((n, harmonics + 1))
        keep = min(h0, harmonics + 1)
        a[:, :keep] = self.cos_coeffs[:, :keep]
        b[:, :keep] = self.sin_coeffs[:, :keep]
        return replace(self, cos_coeffs=a, sin_coeffs=b)


def _tables(w, ts, h):
    """cos(k w t) and sin(k w t) for k = 0..h, shape (len(ts), h + 1), and k w."""
    k = np.arange(h + 1)
    ang = w * np.outer(np.asarray(ts, dtype=float), k)
    return np.cos(ang), np.sin(ang), k * w


def _positions(tables, a, b):
    """Positions of the series (a, b) at the times of ``tables``, one row per time."""
    ck, sk, _ = tables
    return ck @ a.T + sk @ b.T


def _velocities(tables, a, b):
    """Velocities of the series (a, b) at the times of ``tables``, one row per time."""
    ck, sk, kw = tables
    return (-kw * sk) @ a.T + (kw * ck) @ b.T


def _rotate(a, b, ang):
    """Cosine and sine coefficients (a, b) rotated by ang, column by column."""
    c, s = np.cos(ang), np.sin(ang)
    return a * c - b * s, a * s + b * c


def _collocate(p, a, b, period, samples):
    """The series (a, b) at ``samples`` points t of one period.

    Returns the ``_tables`` at t and at t - delay as (ck, sk, kw, cd, sd), the
    interleaved state, the delayed state (velocity part zero: the field reads
    only delayed positions) and the accelerations, shape (samples, n_comp).
    """
    w = _TWO_PI / period
    n_comp, h = a.shape[0], a.shape[1] - 1
    ts = (period / samples) * np.arange(samples)
    ck, sk, kw = tables = _tables(w, ts, h)
    cd, sd, _ = delayed = _tables(w, ts - p.delay, h)
    st = np.empty((samples, 2 * n_comp))
    st[:, 0::2] = _positions(tables, a, b)
    st[:, 1::2] = _velocities(tables, a, b)
    de = np.zeros((samples, 2 * n_comp))
    de[:, 0::2] = _positions(delayed, a, b)
    acc = (-(kw**2) * ck) @ a.T + (-(kw**2) * sk) @ b.T
    return (ck, sk, kw, cd, sd), st, de, acc


def _residual(kind, p, a, b, period, samples):
    """Collocated second-order residual of the model on the series, flattened."""
    return _field_residual(kind, p, _collocate(p, a, b, period, samples))


def _field_residual(kind, p, coll):
    """The residual of ``_residual`` from the ``_collocate`` output ``coll``."""
    if kind not in (ModelKind.FULL_PHASE, ModelKind.PHASE_DIFFERENCE):
        raise UnsupportedKindError(
            f"{kind} has no strictly periodic orbits in these coordinates"
        )
    _, st, de, acc = coll
    return (acc - compile_rhs(kind, p)(st, de)[:, 1::2]).ravel()


def fit_profile(traj, window: tuple[float, float], harmonics: int = 8) -> OrbitProfile:
    """Fourier candidate fitted to a trajectory segment, time 0 at its first sample.

    The base frequency starts at the Hann-windowed spectral peak of the most
    active position component and is polished by variable projection
    (Golub & Pereyra 1973) in Kaufman's Gauss-Newton form: at each frequency
    the coefficients are a linear least-squares solve, and the frequency step
    follows the derivative of the fitted series projected off the span of the
    design.  Raises InvalidParamError for harmonics that are not an integer
    >= 1 or an empty window, and NotPeriodicError for too few samples or a
    window without motion.
    """
    harmonics = check_int(harmonics, "harmonics", 1)
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise InvalidParamError(f"empty fit window {window}")
    mask = (traj.times >= t0) & (traj.times <= t1)
    if int(mask.sum()) < 8 * harmonics:
        raise NotPeriodicError("fit window holds too few samples for the requested harmonics")
    ts = traj.times[mask]
    seg = traj.states[mask]
    xs = seg[:, 0::2]

    # exact on the velocities: positions at rest keep rounding after their mean is removed
    if not np.ptp(seg[:, 1::2], axis=0).any():
        raise NotPeriodicError("no motion in the fit window")
    # positions, not velocities: d/dt weights harmonic k by k and can outshine the fundamental
    col = int(np.argmax(xs.std(axis=0)))
    sig = xs[:, col] - xs[:, col].mean()
    spec = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
    freqs = np.fft.rfftfreq(sig.size, float(ts[1] - ts[0]))
    kk = int(np.argmax(spec[1:])) + 1

    s = ts - ts[0]
    h = harmonics
    k = np.arange(1.0, h + 1)[:, None]

    def design(w):
        # columns cos(k w s) for k = 0..H, then sin(k w s) for k = 1..H
        ck, sk, _ = _tables(w, s, h)
        return np.hstack([ck, sk[:, 1:]])

    # each pass solves at w and proposes a step; a step below 1e-12 w is not
    # taken, so the coefficients always belong to the returned frequency
    w, step = _TWO_PI * float(freqs[kk]), 0.0
    for _ in range(_GAUSS_NEWTON_CAP):
        w += step
        m = design(w)
        coef = np.linalg.lstsq(m, xs, rcond=None)[0]
        # d(fitted series)/dw, projected off the span of the design
        g = s[:, None] * (m[:, 1 : h + 1] @ (k * coef[h + 1 :]) - m[:, h + 1 :] @ (k * coef[1 : h + 1]))
        g -= m @ np.linalg.lstsq(m, g, rcond=None)[0]
        step = float(np.sum(g * (xs - m @ coef)) / np.sum(g * g))
        del m  # before the next design is built: it sets the fit's peak memory
        if abs(step) <= 1e-12 * w:
            break

    a = coef[: h + 1].T
    b = np.zeros_like(a)
    b[:, 1:] = coef[h + 1 :].T
    return OrbitProfile(traj.kind, traj.params, _TWO_PI / w, a, b)


@dataclass(frozen=True)
class _Collocation:
    """The Gauss-Newton system of ``refine_orbit``.

    The unknown vector u holds the cosine coefficients, then the sine
    coefficients of harmonics 1..H, each row-major by component, then the
    period.  The residual is the collocated model residual at ``samples``
    points followed by one anchor row: the first-harmonic sine coefficient of
    component ``anchor``.
    """

    kind: ModelKind
    params: NetworkParams  # normalized
    n_comp: int
    harmonics: int
    samples: int
    anchor: int

    def unpack(self, c):
        """Cosine and sine arrays of the coefficient vector c = u[:-1]."""
        n, h = self.n_comp, self.harmonics
        a = c[: n * (h + 1)].reshape(n, h + 1)
        b = np.zeros((n, h + 1))
        b[:, 1:] = c[n * (h + 1) :].reshape(n, h)
        return a, b

    def evaluate(self, c, period):
        """Residual of the coefficient vector c at one period, and its ``_collocate`` output.

        The collocation is None for a period <= 0, whose residual is a flat 1e6.
        """
        if period <= 0.0:
            return np.full(self.n_comp * self.samples + 1, 1e6), None
        a, b = self.unpack(c)
        coll = _collocate(self.params, a, b, period, self.samples)
        return np.append(_field_residual(self.kind, self.params, coll), b[self.anchor, 1]), coll

    def residual(self, c, period):
        """Residual of the coefficient vector c at one period."""
        return self.evaluate(c, period)[0]

    def jacobian(self, u, r, coll=None):
        """Jacobian at u, whose residual is r, by the chain rule through the tables.

        ``coll`` is the ``evaluate`` output that came with r; without it, u is
        collocated again.

        The collocated state is linear in the coefficients: coefficient k of
        component l adds its column of the position, velocity, acceleration
        and delayed-position tables to component l.  So the residual row of
        component i at sample s has the derivative

            acc[s, k] delta_il - F_x[s, i, l] pos[s, k]
                - F_v[s, i, l] vel[s, k] - F_d[s, i, l] del[s, k],

        where F_* are the field's velocity-entry partials at the collocated
        state.  These are forward differences with step 1e-7 max(1, |value|),
        every component's position, velocity and delayed position stepped in
        one batched field call, so one code path serves every kind.  The period
        column is a forward difference of the whole residual, and the anchor
        row is exact.
        """
        n, h, m = self.n_comp, self.harmonics, self.samples
        period = float(u[-1])
        if coll is None:
            coll = _collocate(self.params, *self.unpack(u[:-1]), period, m)
        (ck, sk, kw, cd, sd), st, de, _ = coll

        # batch 0 is the collocated state; batch 1 + q*n + l steps entry q
        # (position, velocity, delayed position) of component l
        values = np.concatenate([st[:, 0::2], st[:, 1::2], de[:, 0::2]], axis=1).T
        du = 1e-7 * np.maximum(1.0, np.abs(values))  # (3n, m)
        sts = np.repeat(st[None], 3 * n + 1, axis=0)
        des = np.repeat(de[None], 3 * n + 1, axis=0)
        comp = np.arange(n)
        sts[1 + comp, :, 2 * comp] += du[:n]
        sts[1 + n + comp, :, 2 * comp + 1] += du[n : 2 * n]
        des[1 + 2 * n + comp, :, 2 * comp] += du[2 * n :]
        f = compile_rhs(self.kind, self.params)(sts, des)[..., 1::2]
        # minus the partials, as neg[s, i, l, q]
        neg = ((f[0] - f[1:]) / du[..., None]).reshape(3, n, m, n).transpose(2, 3, 1, 0)

        jac = np.empty((r.size, u.size))
        nc = n * (h + 1)
        cos_tabs = (-(kw**2) * ck, ck, -kw * sk, cd)
        sin_tabs = (-(kw[1:] ** 2) * sk[:, 1:], sk[:, 1:], kw[1:] * ck[:, 1:], sd[:, 1:])
        for cols, (acc, *tabs) in ((slice(0, nc), cos_tabs), (slice(nc, -1), sin_tabs)):
            blk = jac[:-1, cols].reshape(m, n, n, -1)  # a view: [s, i, l, k]
            # blk[s, i, l] = neg[s, i, l] @ tab[s], the tables stacked as tab[s, q, k]
            np.matmul(neg[..., None, :], np.stack(tabs, axis=1)[:, None, None], out=blk[..., None, :])
            blk[:, comp, comp] += acc[:, None, :]
        jac[-1, :] = 0.0
        jac[-1, nc + self.anchor * h] = 1.0
        dt = 1e-7 * max(1.0, period)
        jac[:, -1] = (self.residual(u[:-1], period + dt) - r) / dt
        return jac


def refine_orbit(profile: OrbitProfile, harmonics: int | None = None) -> OrbitProfile:
    """Gauss-Newton polish of a periodic candidate to collocation accuracy.

    Unknowns are every Fourier coefficient plus the period, at ``harmonics``
    harmonics (default: the profile's own); the residual is collocated at
    8 (H + 1) points per period, more than four times the 2 H + 1
    coefficients of each component.  One anchor row pins the sine
    coefficient of the first harmonic of the component with the strongest
    first harmonic, removing the time-shift null direction.  The Jacobian's
    coefficient columns come by the chain rule through the collocation
    tables (see ``_Collocation.jacobian``) and its period column by a forward
    difference.  Each step solves the normal equations; it is damped by
    halving until the residual norm decreases.  The iteration stops once every
    residual entry is below 1e-10, after 30 steps, when no damping decreases
    the norm, or when the normal equations are singular.  Raises
    NotPeriodicError, naming the stop and the step count, if the RMS residual
    stalls above 1e-6, or if every harmonic >= 1 ends at or below 1e-6 (the
    candidate fell to the equilibrium).
    """
    p = normalize(profile.params)
    kind = profile.kind
    prof = profile.with_harmonics(profile.harmonics if harmonics is None else harmonics)
    h = prof.harmonics
    m = 8 * (h + 1)

    a = prof.cos_coeffs.copy()
    b = prof.sin_coeffs.copy()
    anchor = int(np.argmax(np.hypot(a[:, 1], b[:, 1])))
    # rotate the series so the anchored sine coefficient starts at zero
    th = math.atan2(b[anchor, 1], a[anchor, 1])
    a, b = _rotate(a, b, -np.arange(h + 1) * th)

    col = _Collocation(kind, p, a.shape[0], h, m, anchor)
    u = np.concatenate([a.ravel(), b[:, 1:].ravel(), [prof.period]])
    r, coll = col.evaluate(u[:-1], prof.period)
    norm = float(np.linalg.norm(r))
    stop, taken = f"the {_GAUSS_NEWTON_CAP}-step cap", 0
    for _ in range(_GAUSS_NEWTON_CAP):
        if float(np.max(np.abs(r))) < 1e-10:
            break
        jac = col.jacobian(u, r, coll)
        try:
            step = np.linalg.solve(jac.T @ jac, -(jac.T @ r))
        except np.linalg.LinAlgError:
            stop = "a singular system"
            break
        del jac  # before the next one is built: two at once would set the peak memory
        scale = 1.0
        for _ in range(8):
            cand = u + scale * step
            rc, cc = col.evaluate(cand[:-1], float(cand[-1]))
            nc = float(np.linalg.norm(rc))
            if nc < norm:
                u, r, coll, norm = cand, rc, cc, nc
                taken += 1
                break
            scale *= 0.5
        else:
            stop = "no decrease at the smallest damping"
            break
    na, nb = col.unpack(u[:-1])
    out = OrbitProfile(kind, profile.params, float(u[-1]), na, nb)
    if out.residual_norm(m) > _ORBIT_TOL:
        raise NotPeriodicError(
            f"collocation residual stalled at {out.residual_norm(m):.2e} after {taken} steps,"
            f" stopped by {stop}; candidate is not near an orbit"
        )
    amp = float(np.max(np.hypot(na[:, 1:], nb[:, 1:])))
    if amp <= _ORBIT_TOL:
        raise NotPeriodicError(f"candidate fell to the equilibrium (largest harmonic {amp:.2e})")
    return out
