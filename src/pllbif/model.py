"""Network model definitions.

A network of N identical second-order phase-locked loops with all-to-all
delayed coupling is treated in four equivalent formulations:

* ``FULL_PHASE``: node phases phi_i obey
  phi_i'' + mu phi_i' = mu omega_M
  + (K mu / (N-1)) sum_{j != i} [sin(phi_j(t-tau) - phi_i) + sin(phi_j(t-tau) + phi_i)],
  the form whose phase-locked equilibria are constant vectors.
* ``PHASE``: instantaneous phases theta_i with
  theta_i'' + mu theta_i' = (K mu / (N-1)) sum_{j != i} sin(theta_j(t-tau) - theta_i - omega_M tau).
* ``PHASE_ROTATING_FRAME``: the PHASE model in a frame co-rotating at a given
  rate Omega, so synchronized rotating waves become equilibria.
* ``PHASE_DIFFERENCE``: lexicographic pair coordinates
  d_(i,j)(t) = theta_i(t) - theta_j(t-tau), a closed system for N in {2, 3}.

States interleave positions and velocities per node:
(x_1, x_1', x_2, x_2', ...).  All analysis downstream normalizes time by the
free-running frequency omega_M, so the canonical parameter set has
omega_M = 1.

The all-to-all sums cost O(N), not O(N^2).  With d_j = x_j(t - tau):

* FULL_PHASE: sin(d - x) + sin(d + x) = 2 sin(d) cos(x), so
  sum_{j != i} [...] = 2 cos(x_i) (sum_j sin(d_j) - sin(d_i)).
* PHASE and PHASE_ROTATING_FRAME, with shift s: from the order parameter
  Z = sum_j exp(i d_j) (the Kuramoto mean-field identity; Strogatz,
  Physica D 143, 2000),
  sum_{j != i} sin(d_j - x_i - s) = Im((Z - exp(i d_i)) exp(-i (x_i + s))).
* PHASE_DIFFERENCE: each per-node sum is one reduction over that node's
  n - 1 consecutive pairs.

Each field splits in two parts.  The delayed input is the only part that
reads x(t - tau): sum_j sin(d_j) - sin(d_i) for FULL_PHASE, Z - exp(i d_i)
for PHASE and the rotating frame, and the delayed node sums taken at the
second index of each pair for PHASE_DIFFERENCE.  The local field maps the
current state and that input to the derivative.  ``compile_rhs`` binds a
formulation and its parameters once and returns the composition of the two
as a closure; ``rhs`` is that closure behind a shape check.  The integrator
uses the two parts apart, so that it evaluates the delayed input once per
delay interval instead of at every stage.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamError,
    NoEquilibriumError,
    UnsupportedKindError,
)

__all__ = [
    "Branch",
    "ModelKind",
    "NetworkParams",
    "Equilibrium",
    "normalize",
    "state_dim",
    "equilibria",
    "equilibrium",
    "difference_pairs",
    "compile_rhs",
    "rhs",
]


class Branch(enum.Enum):
    """Which phase-locked equilibrium: cos(2 phi) = +sqrt(1-1/K^2) or the negative."""

    PLUS = "plus"
    MINUS = "minus"


class ModelKind(enum.Enum):
    FULL_PHASE = "full-phase"
    PHASE = "phase"
    PHASE_ROTATING_FRAME = "phase-rotating-frame"
    PHASE_DIFFERENCE = "phase-difference"


@dataclass(frozen=True)
class NetworkParams:
    """Physical parameters of the delay-coupled loop network.

    Attributes
    ----------
    n_nodes : int
        Number of loops N >= 2.
    coupling : float
        Coupling gain K > 0 (in units of omega_M after normalization).
    filter_gain : float
        Loop-filter rate mu > 0.
    free_freq : float
        Free-running frequency omega_M > 0; 1.0 once normalized.
    delay : float
        Transmission delay tau >= 0.
    """

    n_nodes: int
    coupling: float
    filter_gain: float
    free_freq: float = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n_nodes, (int, np.integer)) and self.n_nodes >= 2):
            raise InvalidParamError(f"n_nodes must be an integer >= 2, got {self.n_nodes}")
        for name in ("coupling", "filter_gain", "free_freq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidParamError(f"{name} must be finite and > 0, got {v}")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise InvalidParamError(f"delay must be finite and >= 0, got {self.delay}")


def normalize(params: NetworkParams) -> NetworkParams:
    """Rescale time by omega_M: (K, mu, tau) -> (K/wM, mu/wM, wM tau), wM -> 1.

    Idempotent; every analysis routine calls this once at its boundary.
    """
    w = params.free_freq
    if w == 1.0:
        return params
    return replace(
        params,
        coupling=params.coupling / w,
        filter_gain=params.filter_gain / w,
        free_freq=1.0,
        delay=params.delay * w,
    )


def difference_pairs(n_nodes: int) -> list[tuple[int, int]]:
    """Ordered node pairs (i, j), i != j, lexicographic; the PHASE_DIFFERENCE layout."""
    return [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]


def state_dim(kind: ModelKind, n_nodes: int) -> int:
    if kind is ModelKind.PHASE_DIFFERENCE:
        if n_nodes > 3:
            raise UnsupportedKindError(
                "phase-difference formulation closes only for 2 or 3 nodes"
            )
        return 2 * n_nodes * (n_nodes - 1)
    return 2 * n_nodes


@dataclass(frozen=True)
class Equilibrium:
    """A phase-locked equilibrium of the FULL_PHASE model (normalized units)."""

    branch: Branch
    phi: float
    cos_two_phi: float


def equilibria(params: NetworkParams) -> list[Equilibrium]:
    """Phase-locked equilibria phi_i = phi* of the FULL_PHASE model.

    The doubled angle solves sin(2 phi) = -1/K (normalized), so representatives
    are chosen by reducing 2 phi into (-pi, pi] and halving:
    phi+ = asin(-1/K)/2, phi- = (-pi - asin(-1/K))/2.  Both lie in (-pi/2, 0]
    and coincide at K = 1 (saddle-node of equilibria).  Raises
    NoEquilibriumError for K < 1.
    """
    p = normalize(params)
    k = p.coupling
    if k < 1.0:
        raise NoEquilibriumError(
            f"phase-locked states need coupling >= free_freq (normalized K >= 1), got K={k}"
        )
    s = math.asin(-1.0 / k)
    root = math.sqrt(max(0.0, 1.0 - 1.0 / (k * k)))
    if k == 1.0:
        return [Equilibrium(Branch.PLUS, s / 2.0, 0.0)]
    return [
        Equilibrium(Branch.PLUS, s / 2.0, root),
        Equilibrium(Branch.MINUS, (-math.pi - s) / 2.0, -root),
    ]


def equilibrium(params: NetworkParams, branch: Branch) -> Equilibrium:
    """The equilibrium on a given branch; at K = 1 the coincident record, re-tagged."""
    eqs = equilibria(params)
    for eq in eqs:
        if eq.branch is branch:
            return eq
    # K == 1: single coincident record serves both labels
    return replace(eqs[0], branch=branch)


def _check_dim(kind: ModelKind, n_nodes: int, *vecs: np.ndarray) -> int:
    dim = state_dim(kind, n_nodes)
    for v in vecs:
        if v.shape != (dim,):
            raise DimensionMismatchError(
                f"expected state of shape ({dim},) for {kind.value} with N={n_nodes}, "
                f"got {v.shape}"
            )
    return dim


def _full_input(dpos: np.ndarray) -> np.ndarray:
    """sum_j sin(dpos_j) - sin(dpos_i) along the last axis: the delayed factor of the FULL_PHASE sum."""
    s = np.sin(dpos)
    return s.sum(axis=-1, keepdims=True) - s


def _phase_input(dpos: np.ndarray) -> np.ndarray:
    """Z - exp(i dpos_i) along the last axis, Z = sum_j exp(i dpos_j): the delayed factor of the PHASE sum."""
    z = np.exp(1j * dpos)
    return z.sum(axis=-1, keepdims=True) - z


def _full_coupling(pos: np.ndarray, inp: np.ndarray) -> np.ndarray:
    """sum_{j != i} sin(d_j - pos_i) + sin(d_j + pos_i) from its delayed factor ``inp``."""
    return 2.0 * np.cos(pos) * inp


def _phase_coupling(pos: np.ndarray, inp: np.ndarray, shift: float) -> np.ndarray:
    """sum_{j != i} sin(d_j - pos_i - shift) from its delayed factor ``inp``."""
    return (inp * np.exp(-1j * (pos + shift))).imag


def _compile_parts(
    kind: ModelKind,
    params: NetworkParams,
    omega: float | None = None,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The field of one formulation split as ``(delayed_input, local)``.

    ``delayed_input(delayed)`` is the only part that reads x(t - tau): it maps
    a delayed state to the per-row factor of the coupling sum that depends on
    it alone.  ``local(state, inp)`` maps the current state and that factor
    to the derivative, so ``local(state, delayed_input(delayed))`` is the field
    ``f(state, delayed)``.  Both take leading axes and check nothing;
    ``compile_rhs`` documents the binding.
    """
    p = normalize(params)
    n = p.n_nodes
    state_dim(kind, n)  # rejects the phase-difference form beyond three nodes
    mu = p.filter_gain
    gain = p.coupling * mu / (n - 1)

    if kind is ModelKind.PHASE_DIFFERENCE:
        pairs = np.array(difference_pairs(n))
        first, second = pairs[:, 0], pairs[:, 1]
        shift = p.delay  # omega_M tau with omega_M = 1

        def node_sums(d):
            # sum_l sin(d_(i,l) + shift) per node i; the lexicographic layout
            # groups the pairs by first index, n - 1 to a node
            return np.sin(d + shift).reshape(d.shape[:-1] + (n, n - 1)).sum(axis=-1)

        def delayed_input(delayed):
            # row (i,j) needs node j's delayed sum ...
            return node_sums(delayed[..., 0::2])[..., second]

        def local(state, inp):
            # ... and node i's undelayed one
            vel = state[..., 1::2]
            und = node_sums(state[..., 0::2])
            out = np.empty(state.shape)
            out[..., 0::2] = vel
            out[..., 1::2] = -mu * vel - gain * (und[..., first] - inp)
            return out

        return delayed_input, local

    if kind is ModelKind.FULL_PHASE:
        drive = mu
        factor = _full_input
        coupling = _full_coupling
    elif kind is ModelKind.PHASE:
        drive = 0.0
        factor = _phase_input
        coupling = partial(_phase_coupling, shift=p.delay)
    elif kind is ModelKind.PHASE_ROTATING_FRAME:
        if omega is None:
            raise UnsupportedKindError("rotating-frame evaluation needs the frame rate omega")
        drive = -mu * omega
        factor = _phase_input
        coupling = partial(_phase_coupling, shift=(omega + 1.0) * p.delay)
    else:  # pragma: no cover - exhaustive enum
        raise UnsupportedKindError(str(kind))

    def delayed_input(delayed):
        return factor(delayed[..., 0::2])

    def local(state, inp):
        vel = state[..., 1::2]
        out = np.empty(state.shape)
        out[..., 0::2] = vel
        out[..., 1::2] = drive - mu * vel + gain * coupling(state[..., 0::2], inp)
        return out

    return delayed_input, local


def compile_rhs(
    kind: ModelKind,
    params: NetworkParams,
    omega: float | None = None,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Right-hand side ``f(state, delayed)`` of one formulation, bound once.

    Normalization (after which omega_M = 1 drops out of every term), the kind
    and parameter checks, and every constant of the field (mu, the coupling
    gain, the drive, the delay shift, the pair indices) are settled here, so
    the returned closure does arithmetic only.
    It takes float arrays whose last axis has length state_dim and does not
    check them; leading axes evaluate many states at once.  The public
    ``rhs`` is this closure behind a shape check.  ``omega`` is the frame
    rotation rate, required for PHASE_ROTATING_FRAME and ignored otherwise.

    The closure is ``local(state, delayed_input(delayed))``: the delayed
    input is the part of the coupling sum that reads only x(t - tau), and the
    local field combines it with the current state.  The integrator evaluates
    the two parts apart, the delayed input once per delay interval.
    """
    delayed_input, local = _compile_parts(kind, params, omega)

    def field(state, delayed):
        return local(state, delayed_input(delayed))

    return field


def rhs(
    kind: ModelKind,
    params: NetworkParams,
    state: np.ndarray,
    delayed: np.ndarray,
    omega: float | None = None,
) -> np.ndarray:
    """Right-hand side x' = f(x(t), x(t - tau)) of the chosen formulation.

    ``omega`` is the frame rotation rate, required for PHASE_ROTATING_FRAME and
    ignored otherwise.  ``delayed`` must be the full state vector at t - tau
    (equal to ``state`` when tau = 0).  Evaluates the ``compile_rhs`` closure
    after checking both shapes; loops over many states should compile once
    instead.
    """
    field = compile_rhs(kind, params, omega)
    state = np.asarray(state, dtype=float)
    delayed = np.asarray(delayed, dtype=float)
    _check_dim(kind, params.n_nodes, state, delayed)
    return field(state, delayed)
