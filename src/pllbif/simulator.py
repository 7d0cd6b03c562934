"""Direct integration of the delay models by the method of steps.

A classical fourth-order one-step scheme advances the state on a grid whose
step divides the delay exactly, so delayed lookups land either on completed
grid points or mid-segment, where a cubic matched to endpoint values and
derivatives keeps the interpolation error at the order of the scheme.
Histories are arbitrary functions on [-tau, 0] supplied through a small
``state(t)`` interface.  Angles are never wrapped: states live on the
covering space, and only reporting may reduce them.

Period estimation works from mean-crossing times of the most active velocity
coordinate, and orbit symmetry is classified by testing the candidate
space/time relations over one period, most specific first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfun import isotypic_basis
from .errors import (
    DimensionMismatchError,
    InvalidParamError,
    NonFiniteError,
    NotPeriodicError,
    StepTooLargeError,
    UnsupportedKindError,
)
from .model import Equilibrium, ModelKind, NetworkParams, _compile_parts, normalize, state_dim

__all__ = [
    "HistorySpec",
    "Trajectory",
    "SymmetryTag",
    "SymmetryClass",
    "equilibrium_state",
    "sync_direction",
    "pair_difference_direction",
    "isotypic_direction",
    "integrate",
    "period_estimate",
    "symmetry_classify",
]

_BOUND = 1e8
_MAX_FLOATS = 2**27  # floats one integration may keep: 1 GiB of float64


def equilibrium_state(kind: ModelKind, params: NetworkParams, point) -> np.ndarray:
    """Constant state vector fixed by the dynamics of ``kind``.

    FULL_PHASE takes an Equilibrium, PHASE_ROTATING_FRAME the origin of the
    frame locked at rate omega (point unused), PHASE_DIFFERENCE the pairwise
    constant C.  The drifting phase model has no equilibria in general.
    """
    p = normalize(params)
    if kind is ModelKind.FULL_PHASE:
        if not isinstance(point, Equilibrium):
            raise InvalidParamError("full-phase equilibrium state needs an Equilibrium")
        out = np.zeros(2 * p.n_nodes)
        out[0::2] = point.phi
        return out
    if kind is ModelKind.PHASE_ROTATING_FRAME:
        return np.zeros(2 * p.n_nodes)
    if kind is ModelKind.PHASE_DIFFERENCE:
        out = np.zeros(state_dim(kind, p.n_nodes))
        out[0::2] = float(point)
        return out
    raise UnsupportedKindError(
        "the drifting phase model has no equilibria; use the rotating frame"
    )


@dataclass(frozen=True)
class HistorySpec:
    """Constant history base + amplitude * direction on [-tau, 0].

    Any object with a ``state(t)`` method returning the state vector for
    t <= 0 serves as a history; this is the constant-in-time one.
    """

    base: np.ndarray
    direction: Optional[np.ndarray] = None
    amplitude: float = 0.0

    @staticmethod
    def constant(vec) -> "HistorySpec":
        return HistorySpec(np.asarray(vec, dtype=float))

    @staticmethod
    def perturbed(base, direction, amplitude: float) -> "HistorySpec":
        return HistorySpec(
            np.asarray(base, dtype=float),
            np.asarray(direction, dtype=float),
            float(amplitude),
        )

    def state(self, t: float = 0.0) -> np.ndarray:
        if self.amplitude < 0.0:
            raise InvalidParamError("perturbation amplitude must be >= 0")
        v = np.array(self.base, dtype=float)
        if self.direction is not None and self.amplitude != 0.0:
            d = np.asarray(self.direction, dtype=float)
            if d.shape != v.shape:
                raise DimensionMismatchError(
                    f"direction shape {d.shape} != base shape {v.shape}"
                )
            v = v + self.amplitude * d
        return v


def sync_direction(n_nodes: int) -> np.ndarray:
    """Unit synchronized perturbation: all positions moved together."""
    out = np.zeros(2 * n_nodes)
    out[0::2] = 1.0 / math.sqrt(n_nodes)
    return out


def pair_difference_direction(n_nodes: int, pair: tuple[int, int]) -> np.ndarray:
    """Positions of nodes pair[0], pair[1] (1-based) pushed apart; a symmetry-breaking direction."""
    i, j = pair
    if not (1 <= i <= n_nodes and 1 <= j <= n_nodes and i != j):
        raise InvalidParamError(f"pair {pair} must name two distinct nodes in 1..{n_nodes}")
    out = np.zeros(2 * n_nodes)
    out[2 * (i - 1)] = 1.0 / math.sqrt(2.0)
    out[2 * (j - 1)] = -1.0 / math.sqrt(2.0)
    return out


def isotypic_direction(n_nodes: int, j: int, part: str = "real") -> np.ndarray:
    """Real perturbation direction from the j-th isotypic position row."""
    row = isotypic_basis(n_nodes, j)[0]
    vec = row.real if part == "real" else row.imag
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise InvalidParamError(f"component {j} has no {part} part to perturb along")
    return vec / norm


@dataclass
class Trajectory:
    """Dense-output solution record.

    ``states``/``derivs`` hold the state and its time derivative on the step
    grid; ``at`` evaluates the piecewise cubic matched to both, and the
    history the run started from for t <= 0.  ``history`` is any object with
    ``state(t)``; a bare vector stands for the constant history.
    """

    kind: ModelKind
    params: NetworkParams
    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    history: object
    step: float
    omega: Optional[float] = None

    def __post_init__(self) -> None:
        if not hasattr(self.history, "state"):
            self.history = HistorySpec.constant(self.history)

    def at(self, t: float) -> np.ndarray:
        """State at time t: the history for t <= 0, the dense output up to the last node.

        A t past the last node by more than a rounding (1e-12 relative), or
        NaN, raises InvalidParamError.
        """
        if t <= 0.0:
            return np.array(self.history.state(t), dtype=float)
        t_last = float(self.times[-1])
        if not t <= t_last * (1.0 + 1e-12):
            raise InvalidParamError(
                f"t = {t:.6g} lies outside the trajectory, which ends at t = {t_last:.6g}"
            )
        h = self.step
        x = t / h
        j = min(int(x), len(self.times) - 2)
        th = x - j
        if th > 1.0:  # clamp a rounding past the final node
            j, th = len(self.times) - 2, 1.0
        return _hermite(
            self.states[j], self.derivs[j], self.states[j + 1], self.derivs[j + 1], h, th
        )

    def sample(self, ts) -> np.ndarray:
        return np.array([self.at(float(t)) for t in np.asarray(ts, dtype=float)])

    def node(self, i: int) -> np.ndarray:
        """(len(times), 2) position/velocity track of node i (1-based)."""
        return self.states[:, 2 * (i - 1) : 2 * (i - 1) + 2]


def _hermite(y0, f0, y1, f1, h, th):
    a = (1.0 - th) * (1.0 - th)
    b = th * th
    return (
        a * (1.0 + 2.0 * th) * y0
        + b * (3.0 - 2.0 * th) * y1
        + th * a * h * f0
        - b * (1.0 - th) * h * f1
    )


def integrate(
    kind: ModelKind,
    params: NetworkParams,
    history,
    t_end: float,
    step: float,
    omega: float | None = None,
) -> Trajectory:
    """Advance the model from a history to t_end.

    ``history`` is any object with ``state(t) -> vector`` defined for t <= 0
    (a HistorySpec, or an OrbitProfile used as its own initial segment).  The
    grid step is the largest divisor of tau not exceeding ``step`` (method of
    steps), so every delayed stage value sits on a grid point or a segment
    midpoint: the history sampled once on that grid over [-tau, 0], then the
    grid points and cubic dense-output midpoints of the delay interval before,
    complete by the time they are read.  At the start of each interval of m
    steps the delayed input of the field (see ``model``) is evaluated once on
    those 2 m delayed states, and each stage evaluates only the local field;
    with tau = 0 every stage evaluates both parts on its own state.  Each step
    reuses the derivative stored at its start as the first stage (first same
    as last).

    The run keeps (steps + 1) (2 dim + 1) floats for the times, states and
    derivatives, and (2 m + 1) dim for the history sampled at m steps per
    delay.  One that would need more than 2^27 of them (1 GiB) raises
    InvalidParamError before anything is allocated.
    """
    p = normalize(params)
    if t_end <= 0.0:
        raise InvalidParamError("t_end must be positive")
    if step <= 0.0:
        raise InvalidParamError("step must be positive")
    dim = state_dim(kind, p.n_nodes)
    delayed_input, local = _compile_parts(kind, p, omega)
    tau = p.delay
    if tau > 0.0:
        if step > tau / 4.0 + 1e-15:
            raise StepTooLargeError(
                f"step {step} exceeds tau/4 = {tau / 4.0}; delayed stages would be incomplete"
            )
        m = max(4, _ceil(tau / step))
        h = tau / m
    else:
        m = 0
        h = step
    nsteps = _ceil(t_end / h)
    kept = (nsteps + 1) * (2 * dim + 1) + (2 * m + 1) * dim
    if kept > _MAX_FLOATS:
        raise InvalidParamError(
            f"{nsteps} steps of size {h:.6g} to t_end = {t_end:.6g} would keep {kept} "
            "floats, more than the budget of 2^27; use a larger step or a shorter t_end"
        )
    if m:
        # history at -tau + i h/2: grid points at even i, segment midpoints at odd i
        past = _sample_history(history, np.linspace(-tau, 0.0, 2 * m + 1), dim)
        f = local
    else:
        past = _sample_history(history, [0.0], dim)

        # delay-free: each stage state is its own delayed argument
        def f(y, _):
            return local(y, delayed_input(y))

    times = np.arange(nsteps + 1) * h
    states = np.empty((nsteps + 1, dim))
    derivs = np.empty((nsteps + 1, dim))
    states[0] = past[-1]
    derivs[0] = local(past[-1], delayed_input(past[0]))
    h2, h6 = 0.5 * h, h / 6.0
    dh = d1 = None
    for k in range(nsteps):
        if m:
            i = k % m
            if i == 0:
                # delayed states of the m steps from t_k, interleaved: row 2i
                # at t_k + (i + 1/2) h - tau, row 2i + 1 at t_k + (i + 1) h - tau
                if k == 0:
                    lagged = past[1:]
                else:
                    j = k - m
                    lagged = np.empty((2 * m, dim))
                    lagged[1::2] = states[j + 1 : k + 1]
                    lagged[0::2] = _hermite(
                        states[j:k], derivs[j:k], lagged[1::2], derivs[j + 1 : k + 1], h, 0.5
                    )
                inputs = delayed_input(lagged)
            dh, d1 = inputs[2 * i], inputs[2 * i + 1]
        y = states[k]
        k1 = derivs[k]
        k2 = f(y + h2 * k1, dh)
        k3 = f(y + h2 * k2, dh)
        k4 = f(y + h * k3, d1)
        y1 = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        _check_finite(y1, times[k + 1])
        states[k + 1] = y1
        derivs[k + 1] = f(y1, d1)
    return Trajectory(kind, p, times, states, derivs, history, h, omega)


def _ceil(x: float) -> int:
    # a subnormal step makes x infinite; the clamp keeps it a countable int
    return int(math.ceil(min(x, 2.0**62) - 1e-12))


def _sample_history(history, ts, dim: int) -> np.ndarray:
    out = np.empty((len(ts), dim))
    for i, t in enumerate(ts):
        v = np.asarray(history.state(float(t)), dtype=float)
        if v.shape != (dim,):
            raise DimensionMismatchError(
                f"history at t = {float(t):.6g} has shape {v.shape}, model needs ({dim},)"
            )
        out[i] = v
    return out


def _check_finite(y, t):
    # a NaN fails the comparison, so one reduction catches both cases
    if not np.abs(y).max() <= _BOUND:
        raise NonFiniteError(f"trajectory left bounds near t = {t:.6g}")


def period_estimate(traj: Trajectory, transient_fraction: float = 0.6) -> float:
    """Oscillation period from refined mean-crossing times.

    The velocity coordinate with the largest post-transient variation is
    reduced to its upward crossings of its own mean; successive crossing
    intervals must agree to a relative spread of 1e-3 (tested also at small
    stride groupings, for waveforms crossing more than once per cycle).
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise InvalidParamError("transient_fraction must lie in [0, 1)")
    times = traj.times
    t0 = times[0] + transient_fraction * (times[-1] - times[0])
    mask = times >= t0
    if np.count_nonzero(mask) < 16:
        raise NotPeriodicError("too few samples after the transient window")
    vels = traj.states[mask][:, 1::2]
    stds = vels.std(axis=0)
    ci = int(np.argmax(stds))
    col = 2 * ci + 1
    v = traj.states[:, col]
    mean = float(v[mask].mean())
    if stds[ci] < 1e-9 * (1.0 + abs(mean)):
        raise NotPeriodicError("no oscillation after the transient")
    idx = np.nonzero(mask)[0]
    k0 = idx[0]
    crossings = []
    for k in range(k0, len(times) - 1):
        if v[k] < mean <= v[k + 1]:
            crossings.append(_refine_crossing(traj, col, mean, times[k], times[k + 1]))
    if len(crossings) < 6:
        raise NotPeriodicError(f"only {len(crossings)} mean crossings after transient")
    c = np.asarray(crossings)
    for stride in (1, 2, 3, 4):
        picks = c[::stride]
        diffs = np.diff(picks)
        if len(diffs) < 5:
            break
        mean_d = diffs.mean()
        if mean_d > 0 and (diffs.max() - diffs.min()) / mean_d < 1e-3:
            return float(mean_d)
    raise NotPeriodicError("crossing intervals did not stabilize to 1e-3")


def _refine_crossing(traj, col, level, ta, tb):
    fa = traj.at(ta)[col] - level
    for _ in range(80):
        tm = 0.5 * (ta + tb)
        fm = traj.at(tm)[col] - level
        if fm == 0.0 or tb - ta < 1e-12 * max(1.0, tb):
            return tm
        if fa * fm < 0.0:
            tb = tm
        else:
            ta, fa = tm, fm
    return 0.5 * (ta + tb)


class SymmetryTag(enum.Enum):
    FULLY_SYNC = "fully-sync"
    ROTATING_WAVE = "rotating-wave"
    Z2_SPATIO_TEMPORAL = "z2-spatio-temporal"
    Z2_SPATIAL = "z2-spatial"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class SymmetryClass:
    tag: SymmetryTag
    pair: Optional[tuple[int, int]]  # 1-based node labels
    period: Optional[float]
    residual: float


def symmetry_classify(traj: Trajectory, period: float, tol: float = 1e-2) -> SymmetryClass:
    """Spatio-temporal symmetry of a periodic orbit.

    Tests, over one period and most specific first: all nodes identical;
    cyclic node shift equal to a T/N time shift (either direction); pair swap
    equal to a T/2 shift; pair identical for all t.  The first relation whose
    max-norm defect is below tol names the class.
    """
    if traj.kind is ModelKind.PHASE_DIFFERENCE:
        raise UnsupportedKindError("symmetry classification works on node coordinates")
    T = float(period)
    if T <= 0.0:
        raise InvalidParamError("period must be positive")
    t_end = float(traj.times[-1])
    if t_end < 1.6 * T:
        raise InvalidParamError("trajectory shorter than 1.6 periods; integrate longer")
    n = traj.params.n_nodes
    base = np.linspace(t_end - 1.5 * T, t_end - 0.5 * T, 201)
    x0 = _by_node(traj.sample(base), n)
    xh = _by_node(traj.sample(base + 0.5 * T), n)

    r_sync = float(np.max(np.abs(x0 - x0[:, :1, :])))
    if r_sync < tol:
        return SymmetryClass(SymmetryTag.FULLY_SYNC, None, T, r_sync)

    if n >= 3:
        xs = _by_node(traj.sample(base + T / n), n)
        fwd = float(np.max(np.abs(np.roll(x0, -1, axis=1) - xs)))
        bwd = float(np.max(np.abs(np.roll(x0, 1, axis=1) - xs)))
        r_rot = min(fwd, bwd)
        if r_rot < tol:
            return SymmetryClass(SymmetryTag.ROTATING_WAVE, None, T, r_rot)

    best_st = None
    for i in range(n):
        for j in range(i + 1, n):
            perm = np.arange(n)
            perm[i], perm[j] = j, i
            r = float(np.max(np.abs(x0[:, perm, :] - xh)))
            if best_st is None or r < best_st[0]:
                best_st = (r, (i + 1, j + 1))
    if best_st is not None and best_st[0] < tol:
        return SymmetryClass(SymmetryTag.Z2_SPATIO_TEMPORAL, best_st[1], T, best_st[0])

    best_sp = None
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.max(np.abs(x0[:, i, :] - x0[:, j, :])))
            if best_sp is None or r < best_sp[0]:
                best_sp = (r, (i + 1, j + 1))
    if best_sp is not None and best_sp[0] < tol:
        return SymmetryClass(SymmetryTag.Z2_SPATIAL, best_sp[1], T, best_sp[0])

    floor = min(
        r for r in (r_sync, best_st and best_st[0], best_sp and best_sp[0]) if r is not None
    )
    return SymmetryClass(SymmetryTag.ASYMMETRIC, None, T, floor)


def _by_node(flat: np.ndarray, n: int) -> np.ndarray:
    return flat.reshape(flat.shape[0], n, 2)
