"""Periodic orbits in a Fourier basis: fitting and collocation refinement.

A T-periodic candidate is stored as truncated Fourier series of the node
positions; velocities and accelerations are exact series derivatives, and the
transmission delay acts on the series as a pure phase shift, so the periodic
problem closes without interpolation.  ``fit_profile`` extracts a candidate
from a simulation segment that passes near an orbit, and ``refine_orbit``
polishes it by damped Gauss-Newton on the collocated model residual.  A
refined profile serves directly as an integration history, which is how a
weakly unstable orbit is held long enough to measure its period and symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParamError, NotPeriodicError, UnsupportedKindError
from .model import ModelKind, NetworkParams, compile_rhs, normalize

__all__ = [
    "OrbitProfile",
    "fit_profile",
    "refine_orbit",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OrbitProfile:
    """Truncated Fourier representation of a periodic solution.

    ``cos_coeffs`` and ``sin_coeffs`` have shape (n_components, H + 1);
    column k holds the coefficients of cos(k w t) and sin(k w t) with
    w = 2 pi / period.  Column 0 of ``sin_coeffs`` is identically zero.
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

    @property
    def harmonics(self) -> int:
        return self.cos_coeffs.shape[1] - 1

    @property
    def base_frequency(self) -> float:
        return _TWO_PI / self.period

    def positions(self, ts) -> np.ndarray:
        """Component positions at times ts, shape (len(ts), n_components)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        k = np.arange(self.harmonics + 1)
        ang = self.base_frequency * np.outer(ts, k)
        return np.cos(ang) @ self.cos_coeffs.T + np.sin(ang) @ self.sin_coeffs.T

    def velocities(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        w = self.base_frequency
        k = np.arange(self.harmonics + 1)
        ang = w * np.outer(ts, k)
        dc = -(k * w) * np.sin(ang)
        ds = (k * w) * np.cos(ang)
        return dc @ self.cos_coeffs.T + ds @ self.sin_coeffs.T

    def state(self, t: float = 0.0) -> np.ndarray:
        """Interleaved (position, velocity) state vector; usable as a history."""
        x = self.positions([t])[0]
        v = self.velocities([t])[0]
        out = np.empty(2 * x.size)
        out[0::2] = x
        out[1::2] = v
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
        if harmonics < 1:
            raise InvalidParamError("harmonics must be >= 1")
        n, h0 = self.cos_coeffs.shape
        a = np.zeros((n, harmonics + 1))
        b = np.zeros((n, harmonics + 1))
        keep = min(h0, harmonics + 1)
        a[:, :keep] = self.cos_coeffs[:, :keep]
        b[:, :keep] = self.sin_coeffs[:, :keep]
        return replace(self, cos_coeffs=a, sin_coeffs=b)


def _series_positions(a, b, w, ts):
    k = np.arange(a.shape[1])
    ang = w * np.outer(ts, k)
    return np.cos(ang) @ a.T + np.sin(ang) @ b.T


def _residual(kind, p, a, b, period, samples):
    """Collocated second-order residual of the model on the series, flattened."""
    if kind not in (ModelKind.FULL_PHASE, ModelKind.PHASE_DIFFERENCE):
        raise UnsupportedKindError(
            f"{kind} has no strictly periodic orbits in these coordinates"
        )
    w = _TWO_PI / period
    n_comp = a.shape[0]
    ts = (period / samples) * np.arange(samples)
    k = np.arange(a.shape[1])
    ang = w * np.outer(ts, k)
    ck, sk = np.cos(ang), np.sin(ang)
    x = ck @ a.T + sk @ b.T
    v = (-(k * w) * sk) @ a.T + ((k * w) * ck) @ b.T
    acc = (-((k * w) ** 2) * ck) @ a.T + (-((k * w) ** 2) * sk) @ b.T
    xd = _series_positions(a, b, w, ts - p.delay)

    st = np.empty((samples, 2 * n_comp))
    st[:, 0::2] = x
    st[:, 1::2] = v
    de = np.zeros((samples, 2 * n_comp))  # velocity part unused by the field
    de[:, 0::2] = xd
    return (acc - compile_rhs(kind, p)(st, de)[:, 1::2]).ravel()


def fit_profile(
    traj,
    window: tuple[float, float],
    harmonics: int = 8,
    period_guess: float | None = None,
) -> OrbitProfile:
    """Fourier candidate fitted to a trajectory segment.

    The base frequency starts from ``period_guess`` (or the spectral peak of
    the most active velocity component) and is polished by golden-section
    minimization of the least-squares misfit; coefficients come from a linear
    solve at the final frequency.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise InvalidParamError(f"empty fit window {window}")
    mask = (traj.times >= t0) & (traj.times <= t1)
    if int(mask.sum()) < 8 * harmonics:
        raise NotPeriodicError("fit window holds too few samples for the requested harmonics")
    ts = traj.times[mask]
    xs = traj.states[mask][:, 0::2]

    if period_guess is None:
        vs = traj.states[mask][:, 1::2]
        col = int(np.argmax(vs.std(axis=0)))
        sig = vs[:, col] - vs[:, col].mean()
        dt = float(ts[1] - ts[0])
        spec = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
        freqs = np.fft.rfftfreq(sig.size, dt)
        kk = int(np.argmax(spec[1:])) + 1
        if freqs[kk] <= 0.0:
            raise NotPeriodicError("no spectral peak in the fit window")
        period_guess = 1.0 / float(freqs[kk])

    def misfit(w):
        cols = [np.ones_like(ts)]
        for k in range(1, harmonics + 1):
            cols.append(np.cos(k * w * ts))
            cols.append(np.sin(k * w * ts))
        m = np.column_stack(cols)
        sol = np.linalg.lstsq(m, xs, rcond=None)[0]
        return float(np.sum((xs - m @ sol) ** 2))

    # golden-section: period known to ~20% from the spectral peak
    w_lo = 0.8 * _TWO_PI / period_guess
    w_hi = 1.25 * _TWO_PI / period_guess
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    wa, wb = w_lo, w_hi
    wc = wb - invphi * (wb - wa)
    wd = wa + invphi * (wb - wa)
    fc, fd = misfit(wc), misfit(wd)
    for _ in range(80):
        if fc < fd:
            wb, wd, fd = wd, wc, fc
            wc = wb - invphi * (wb - wa)
            fc = misfit(wc)
        else:
            wa, wc, fc = wc, wd, fd
            wd = wa + invphi * (wb - wa)
            fd = misfit(wd)
    w = 0.5 * (wa + wb)

    cols = [np.ones_like(ts)]
    for k in range(1, harmonics + 1):
        cols.append(np.cos(k * w * ts))
        cols.append(np.sin(k * w * ts))
    coef = np.linalg.lstsq(np.column_stack(cols), xs, rcond=None)[0]
    n_comp = xs.shape[1]
    a = np.zeros((n_comp, harmonics + 1))
    b = np.zeros((n_comp, harmonics + 1))
    a[:, 0] = coef[0]
    for k in range(1, harmonics + 1):
        a[:, k] = coef[2 * k - 1]
        b[:, k] = coef[2 * k]

    # shift time origin so the fitted phases refer to the window start
    ang = w * ts[0] * np.arange(harmonics + 1)
    ca, sa = np.cos(ang), np.sin(ang)
    a2 = a * ca - b * sa
    b2 = a * sa + b * ca
    return OrbitProfile(traj.kind, traj.params, _TWO_PI / w, a2, b2)


def refine_orbit(
    profile: OrbitProfile,
    harmonics: int | None = None,
    samples: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> OrbitProfile:
    """Gauss-Newton polish of a periodic candidate to collocation accuracy.

    Unknowns are every Fourier coefficient plus the period; one anchor row
    pins the sine coefficient of the first harmonic of the component with the
    strongest first harmonic, removing the time-shift null direction.  The
    step is damped by halving until the residual norm decreases.
    """
    p = normalize(profile.params)
    kind = profile.kind
    h = profile.harmonics if harmonics is None else int(harmonics)
    if h < 1:
        raise InvalidParamError("harmonics must be >= 1")
    prof = profile.with_harmonics(h)
    m = int(8 * (h + 1)) if samples is None else int(samples)
    if m < 2 * (2 * h + 1):
        raise InvalidParamError("too few collocation samples for the harmonic count")

    a = prof.cos_coeffs.copy()
    b = prof.sin_coeffs.copy()
    period = prof.period
    n_comp = a.shape[0]
    anchor = int(np.argmax(np.hypot(a[:, 1], b[:, 1])))
    # rotate the series so the anchored sine coefficient starts at zero
    th = math.atan2(b[anchor, 1], a[anchor, 1])
    k = np.arange(h + 1)
    ca, sa = np.cos(k * th), np.sin(k * th)
    a, b = a * ca + b * sa, -a * sa + b * ca

    def pack(a, b, period):
        return np.concatenate([a.ravel(), b[:, 1:].ravel(), [period]])

    def unpack(u):
        na = u[: n_comp * (h + 1)].reshape(n_comp, h + 1)
        nb = np.zeros((n_comp, h + 1))
        nb[:, 1:] = u[n_comp * (h + 1) : -1].reshape(n_comp, h)
        return na, nb, float(u[-1])

    def full_residual(u):
        na, nb, t = unpack(u)
        if t <= 0.0:
            return np.full(n_comp * m + 1, 1e6)
        r = _residual(kind, p, na, nb, t, m)
        return np.concatenate([r, [nb[anchor, 1]]])

    u = pack(a, b, period)
    r = full_residual(u)
    norm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if float(np.max(np.abs(r))) < tol:
            break
        jac = np.empty((r.size, u.size))
        for j in range(u.size):
            du = 1e-7 * max(1.0, abs(u[j]))
            up = u.copy()
            up[j] += du
            jac[:, j] = (full_residual(up) - r) / du
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        scale = 1.0
        for _ in range(8):
            cand = u + scale * step
            rc = full_residual(cand)
            nc = float(np.linalg.norm(rc))
            if nc < norm:
                u, r, norm = cand, rc, nc
                break
            scale *= 0.5
        else:
            break  # no decrease at the smallest damping; accept what we have
    na, nb, t = unpack(u)
    out = OrbitProfile(kind, profile.params, t, na, nb)
    if out.residual_norm(m) > 1e-6:
        raise NotPeriodicError(
            f"collocation residual stalled at {out.residual_norm(m):.2e}; candidate is not near an orbit"
        )
    return out
