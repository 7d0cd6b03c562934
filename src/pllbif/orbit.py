"""Periodic orbits in a Fourier basis: fitting and collocation refinement.

A T-periodic candidate is stored as truncated Fourier series of the node
positions.  Positions, velocities, accelerations and delayed positions (the
delay is a pure phase shift) all come from one cos/sin table of k w t, so the
periodic problem closes without interpolation.  ``fit_profile`` extracts a
candidate from a simulation segment that passes near an orbit, and
``refine_orbit`` polishes it by damped Gauss-Newton on the collocated model
residual.  The residual takes stacks of coefficient sets at one period, so
the finite-difference Jacobian evaluates its coefficient columns in blocks
that share one set of collocation tables.  A refined profile serves directly
as an integration history, which is how a weakly unstable orbit is held long
enough to measure its period and symmetry.
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

# ``refine_orbit`` accepts a result whose RMS residual is at or below this, and
# refuses one whose every harmonic >= 1 is too: there the residual cannot tell
# an orbit from the equilibrium, which solves the collocation at any period.
_ORBIT_TOL = 1e-6


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
        ck, sk, _ = _tables(self.base_frequency, ts, self.harmonics)
        return ck @ self.cos_coeffs.T + sk @ self.sin_coeffs.T

    def velocities(self, ts) -> np.ndarray:
        ck, sk, kw = _tables(self.base_frequency, ts, self.harmonics)
        return (-kw * sk) @ self.cos_coeffs.T + (kw * ck) @ self.sin_coeffs.T

    def state(self, t: float = 0.0) -> np.ndarray:
        """Interleaved (position, velocity) state vector; usable as a history."""
        out = np.empty(2 * self.cos_coeffs.shape[0])
        out[0::2] = self.positions(t)[0]
        out[1::2] = self.velocities(t)[0]
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


def _tables(w, ts, h):
    """cos(k w t) and sin(k w t) for k = 0..h, shape (len(ts), h + 1), and k w."""
    k = np.arange(h + 1)
    ang = w * np.outer(np.asarray(ts, dtype=float), k)
    return np.cos(ang), np.sin(ang), k * w


def _rotate(a, b, ang):
    """Cosine and sine coefficients (a, b) rotated by ang, column by column."""
    c, s = np.cos(ang), np.sin(ang)
    return a * c - b * s, a * s + b * c


def _residual(kind, p, a, b, period, samples):
    """Collocated second-order residual of the model on the series, flattened.

    The ``_tables`` at the ``samples`` points t and at t - delay are built
    once: leading axes of ``a`` and ``b`` evaluate many coefficient sets at
    one period, and each row equals the residual of its set alone, bit for bit.
    """
    if kind not in (ModelKind.FULL_PHASE, ModelKind.PHASE_DIFFERENCE):
        raise UnsupportedKindError(
            f"{kind} has no strictly periodic orbits in these coordinates"
        )
    w = _TWO_PI / period
    lead, n_comp, h = a.shape[:-2], a.shape[-2], a.shape[-1] - 1
    at, bt = np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)
    ts = (period / samples) * np.arange(samples)
    ck, sk, kw = _tables(w, ts, h)
    x = ck @ at + sk @ bt
    v = (-kw * sk) @ at + (kw * ck) @ bt
    acc = (-(kw**2) * ck) @ at + (-(kw**2) * sk) @ bt
    cd, sd, _ = _tables(w, ts - p.delay, h)
    xd = cd @ at + sd @ bt

    st = np.empty(lead + (samples, 2 * n_comp))
    st[..., 0::2] = x
    st[..., 1::2] = v
    de = np.zeros(lead + (samples, 2 * n_comp))  # velocity part unused by the field
    de[..., 0::2] = xd
    r = acc - compile_rhs(kind, p)(st, de)[..., 1::2]
    return r.reshape(lead + (samples * n_comp,))


def fit_profile(traj, window: tuple[float, float], harmonics: int = 8) -> OrbitProfile:
    """Fourier candidate fitted to a trajectory segment.

    The base frequency starts from the spectral peak of the most active
    velocity component and is polished by golden-section minimization of the
    least-squares misfit; coefficients come from a linear solve at the final
    frequency.  Raises InvalidParamError for harmonics < 1 or an empty window,
    and NotPeriodicError for too few samples or a window without motion.
    """
    if harmonics < 1:
        raise InvalidParamError("harmonics must be >= 1")
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise InvalidParamError(f"empty fit window {window}")
    mask = (traj.times >= t0) & (traj.times <= t1)
    if int(mask.sum()) < 8 * harmonics:
        raise NotPeriodicError("fit window holds too few samples for the requested harmonics")
    ts = traj.times[mask]
    xs = traj.states[mask][:, 0::2]

    vs = traj.states[mask][:, 1::2]
    col = int(np.argmax(vs.std(axis=0)))
    sig = vs[:, col] - vs[:, col].mean()
    dt = float(ts[1] - ts[0])
    spec = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
    freqs = np.fft.rfftfreq(sig.size, dt)
    kk = int(np.argmax(spec[1:])) + 1
    if spec[kk] == 0.0:
        raise NotPeriodicError("no motion in the fit window")
    period_guess = 1.0 / float(freqs[kk])

    def design(w):
        # columns 1, cos(w t), sin(w t), ..., cos(H w t), sin(H w t)
        cols = [np.ones_like(ts)]
        for k in range(1, harmonics + 1):
            cols.append(np.cos(k * w * ts))
            cols.append(np.sin(k * w * ts))
        return np.column_stack(cols)

    def misfit(w):
        m = design(w)
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

    coef = np.linalg.lstsq(design(w), xs, rcond=None)[0].T
    a = np.zeros((xs.shape[1], harmonics + 1))
    b = np.zeros_like(a)
    a[:, 0], a[:, 1:], b[:, 1:] = coef[:, 0], coef[:, 1::2], coef[:, 2::2]

    # shift time origin so the fitted phases refer to the window start
    a, b = _rotate(a, b, w * ts[0] * np.arange(harmonics + 1))
    return OrbitProfile(traj.kind, traj.params, _TWO_PI / w, a, b)


# Coefficient columns per batched residual call in ``_Collocation.jacobian``.
# On the orbit workload's refine (3 components, H = 16: 99 such columns; one
# BLAS thread, 2-vCPU Xeon) blocks of 8 to 24 columns all take 100 to 120 ms,
# against 330 ms column by column, and raise peak RSS by at most 0.6 MiB.
# All 99 columns in one call are no faster and raise it by 4.5 MiB.
_JAC_BLOCK = 16


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
        """Cosine and sine arrays of coefficient vectors c = u[..., :-1]."""
        n, h = self.n_comp, self.harmonics
        lead = c.shape[:-1]
        a = c[..., : n * (h + 1)].reshape(lead + (n, h + 1))
        b = np.zeros(lead + (n, h + 1))
        b[..., 1:] = c[..., n * (h + 1) :].reshape(lead + (n, h))
        return a, b

    def residual(self, c, period):
        """Residual of coefficient vectors c at one period; leading axes carry over."""
        if period <= 0.0:
            return np.full(c.shape[:-1] + (self.n_comp * self.samples + 1,), 1e6)
        a, b = self.unpack(c)
        r = _residual(self.kind, self.params, a, b, period, self.samples)
        return np.concatenate([r, b[..., self.anchor, 1:2]], axis=-1)

    def jacobian(self, u, r):
        """Forward-difference Jacobian at u, whose residual is r.

        Column j steps u[j] alone by 1e-7 max(1, |u[j]|).  The coefficient
        columns share the period, so each block of them is one batched
        residual; the period column is one more call.
        """
        du = 1e-7 * np.maximum(1.0, np.abs(u))
        c, period = u[:-1], float(u[-1])
        jac = np.empty((r.size, u.size))
        for j0 in range(0, c.size, _JAC_BLOCK):
            cols = np.arange(j0, min(j0 + _JAC_BLOCK, c.size))
            up = np.tile(c, (cols.size, 1))
            up[np.arange(cols.size), cols] += du[cols]
            jac[:, cols] = ((self.residual(up, period) - r) / du[cols, None]).T
        jac[:, -1] = (self.residual(c, period + du[-1]) - r) / du[-1]
        return jac


def refine_orbit(
    profile: OrbitProfile, harmonics: int | None = None, max_iter: int = 30
) -> OrbitProfile:
    """Gauss-Newton polish of a periodic candidate to collocation accuracy.

    Unknowns are every Fourier coefficient plus the period, at ``harmonics``
    harmonics (default: the profile's own); the residual is collocated at
    8 (H + 1) points per period, more than four times the 2 H + 1
    coefficients of each component.  One anchor row pins the sine
    coefficient of the first harmonic of the component with the strongest
    first harmonic, removing the time-shift null direction.  The Jacobian is
    a forward difference; the columns of the coefficients, which share one
    period, are evaluated in batches through one set of collocation tables.
    The step is damped by halving until the residual norm decreases, and the
    iteration stops once every residual entry is below 1e-10.  Raises
    NotPeriodicError if the RMS residual stalls above 1e-6, or if every
    harmonic >= 1 ends at or below 1e-6 (the candidate fell to the equilibrium).
    """
    p = normalize(profile.params)
    kind = profile.kind
    h = profile.harmonics if harmonics is None else int(harmonics)
    if h < 1:
        raise InvalidParamError("harmonics must be >= 1")
    prof = profile.with_harmonics(h)
    m = 8 * (h + 1)

    a = prof.cos_coeffs.copy()
    b = prof.sin_coeffs.copy()
    anchor = int(np.argmax(np.hypot(a[:, 1], b[:, 1])))
    # rotate the series so the anchored sine coefficient starts at zero
    th = math.atan2(b[anchor, 1], a[anchor, 1])
    a, b = _rotate(a, b, -np.arange(h + 1) * th)

    col = _Collocation(kind, p, a.shape[0], h, m, anchor)
    u = np.concatenate([a.ravel(), b[:, 1:].ravel(), [prof.period]])
    r = col.residual(u[:-1], prof.period)
    norm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if float(np.max(np.abs(r))) < 1e-10:
            break
        step = np.linalg.lstsq(col.jacobian(u, r), -r, rcond=None)[0]
        scale = 1.0
        for _ in range(8):
            cand = u + scale * step
            rc = col.residual(cand[:-1], float(cand[-1]))
            nc = float(np.linalg.norm(rc))
            if nc < norm:
                u, r, norm = cand, rc, nc
                break
            scale *= 0.5
        else:
            break  # no decrease at the smallest damping; accept what we have
    na, nb = col.unpack(u[:-1])
    out = OrbitProfile(kind, profile.params, float(u[-1]), na, nb)
    if out.residual_norm(m) > _ORBIT_TOL:
        raise NotPeriodicError(
            f"collocation residual stalled at {out.residual_norm(m):.2e}; candidate is not near an orbit"
        )
    amp = float(np.max(np.hypot(na[:, 1:], nb[:, 1:])))
    if amp <= _ORBIT_TOL:
        raise NotPeriodicError(f"candidate fell to the equilibrium (largest harmonic {amp:.2e})")
    return out
