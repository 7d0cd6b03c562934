"""Characteristic functions and their symmetry block structure.

Linearizing any of the network formulations at a synchronized state gives a
characteristic matrix Delta(lambda) = lambda I - A0 - Atau e^{-lambda tau}
whose permutation symmetry forces a block decomposition into one
"synchronized" block (multiplicity 1) and one "symmetry-breaking" block
(multiplicity N - 1).  Every block is the monic quasi-polynomial

    P(lambda, tau) = lambda^2 + r1 lambda + r0(tau) + s0(tau) e^{-lambda tau}

with r1 = mu set by the loop filter.  Only r0 and s0 can depend on the delay:
they are constants for the full-phase model and follow the modal gain
a(tau) = K mu cos(Omega_hat tau) at a frozen locked rate Omega_hat of the
phase model (a(tau) = K mu cos(C + tau) in the difference model).  Along a
locked branch, where Omega_hat moves with tau, the blocks are read in the
branch's phase instead (``phasemodel.relative_hopf_scan``).
A block holds no delay: tau is the bifurcation parameter, an argument of
every evaluation.  ``QuasiPolynomial.at`` takes one snapshot (r0, r1, s0) at
a delay (a scalar or an array), and ``snapshot`` the floats
(r0, r1, s0, tau, dr0, ds0) at one delay that the crossing map and the root
finders read.

The factorization det Delta = P_fix P_std^(N-1) is checkable for every
formulation: ``linearization_matrices`` builds (A0, Atau) from the
right-hand side alone, ``full_determinant`` takes det Delta(lambda), and
``block_product`` the product the blocks predict (in difference coordinates
times a fictitious factor, see ``phasediff``).
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import IndexOutOfRangeError, UnsupportedKindError
from .model import (
    Equilibrium,
    ModelKind,
    NetworkParams,
    check_int,
    difference_pairs,
    normalize,
    state_dim,
)

__all__ = [
    "BlockKind",
    "QuasiPolynomial",
    "BlockSet",
    "constant_quasi_polynomial",
    "build_blocks",
    "blocks_from_gain",
    "linearization_matrices",
    "full_determinant",
    "block_product",
    "isotypic_basis",
]


class BlockKind(enum.Enum):
    FIX = "fix"
    STANDARD = "standard"


Coeffs = Callable[[Union[float, np.ndarray]], tuple]


def p_dp(r0, r1, s0, tau, lam, exp=cmath.exp):
    """(P, P', s0 e^{-lambda tau}) at lambda from a snapshot; P' is the lambda-derivative.

    The one evaluator of the quasi-polynomial: ``QuasiPolynomial.eval``, the
    root polisher and the census all call it.  Pass ``exp=np.exp`` for an
    array of lambda values.
    """
    e = exp(-lam * tau) * s0
    return (lam + r1) * lam + r0 + e, 2.0 * lam + r1 - tau * e, e


@dataclass(frozen=True)
class QuasiPolynomial:
    """P(lambda, tau) = lambda^2 + r1 lambda + r0(tau) + s0(tau) e^{-lambda tau}.

    ``r1`` is the constant damping coefficient (mu).  ``coeffs`` maps tau (a
    scalar or an array) to (r0, s0); ``dcoeffs`` maps it to their
    tau-derivatives (dr0, ds0), and None means the coefficients do not depend
    on the delay.
    """

    r1: float
    coeffs: Coeffs
    dcoeffs: Coeffs | None = None

    @property
    def tau_dependent(self) -> bool:
        return self.dcoeffs is not None

    def at(self, tau: float | np.ndarray):
        """Coefficient snapshot (r0, r1, s0) at tau."""
        r0, s0 = self.coeffs(tau)
        return r0, self.r1, s0

    def snapshot(self, tau: float) -> tuple[float, float, float, float, float, float]:
        """(r0, r1, s0, tau, dr0, ds0) at one delay, as Python floats.

        The slopes (dr0, ds0) are the coefficients' tau-derivatives, (0.0, 0.0)
        for a delay-independent block.
        """
        r0, r1, s0 = self.at(tau)
        dr0, ds0 = (0.0, 0.0) if self.dcoeffs is None else self.dcoeffs(tau)
        return float(r0), float(r1), float(s0), float(tau), float(dr0), float(ds0)

    def eval(self, lam, tau: float):
        """P(lambda, tau) at a point or an array of lambda values."""
        r0, r1, s0 = self.at(tau)
        # a point stays a Python complex: numpy's array loops round differently
        if np.ndim(lam) == 0:
            return p_dp(r0, r1, s0, tau, complex(lam))[0]
        return p_dp(r0, r1, s0, tau, np.asarray(lam, dtype=complex), exp=np.exp)[0]


def constant_quasi_polynomial(r0: float, r1: float, s0: float) -> QuasiPolynomial:
    """Quasi-polynomial with delay-independent coefficients."""
    return QuasiPolynomial(r1, lambda tau: (r0, s0))


@dataclass(frozen=True)
class BlockSet:
    """The two distinct characteristic blocks; standard has multiplicity N - 1."""

    fix: QuasiPolynomial
    standard: QuasiPolynomial
    n_nodes: int

    @property
    def multiplicities(self) -> tuple[int, int]:
        return 1, self.n_nodes - 1


def blocks_from_gain(params: NetworkParams, gain: Callable, dgain: Callable) -> BlockSet:
    """Blocks of the sin-coupled phase formulations at modal gain a.

    With a = K mu cos(<locked argument>), the synchronized block is
    lambda^2 + mu lambda + a - a e^{-lambda tau} and the symmetry-breaking
    block is lambda^2 + mu lambda + a + (a/(N-1)) e^{-lambda tau}.  ``gain``
    maps tau -> a(tau) and ``dgain`` tau -> a'(tau).
    """
    p = normalize(params)
    n = p.n_nodes

    def block(div) -> QuasiPolynomial:
        # s0 = a/div with div = -1 (synchronized) or N - 1 (symmetry-breaking);
        # a division, since a * (1/div) rounds differently
        def coeffs(tau):
            a = gain(tau)
            return a, a / div

        def dcoeffs(tau):
            da = dgain(tau)
            return da, da / div

        return QuasiPolynomial(p.filter_gain, coeffs, dcoeffs)

    return BlockSet(block(-1.0), block(n - 1), n)


Point = Union[Equilibrium, float]


def build_blocks(kind: ModelKind, params: NetworkParams, point: Point) -> BlockSet:
    """Characteristic blocks of ``kind`` linearized at ``point``.

    * FULL_PHASE: ``point`` is an Equilibrium; coefficients are
      q = K mu (1 - cos 2phi), S_fix = -K mu (1 + cos 2phi),
      S_std = +K mu (1 + cos 2phi)/(N-1), all independent of tau.
    * PHASE / PHASE_ROTATING_FRAME: ``point`` is the locked rotation rate
      Omega_hat, a float held fixed as tau moves; the modal gain
      a = K mu cos(Omega_hat tau) depends on tau.  A locked branch, along
      which Omega_hat moves, is read in its phase by ``relative_hopf_scan``.
    * PHASE_DIFFERENCE (N <= 3): ``point`` is the constant pairwise difference
      C; the returned pair are the non-fictitious blocks at modal gain
      a = K mu cos(C + tau) (time normalized by omega_M).
    """
    p = normalize(params)
    mu = p.filter_gain
    k = p.coupling

    if kind is ModelKind.FULL_PHASE:
        if not isinstance(point, Equilibrium):
            raise UnsupportedKindError("full-phase blocks are built at an Equilibrium")
        c2 = point.cos_two_phi
        q = k * mu * (1.0 - c2)
        s = k * mu * (1.0 + c2)
        fix = constant_quasi_polynomial(q, mu, -s)
        std = constant_quasi_polynomial(q, mu, s / (p.n_nodes - 1))
        return BlockSet(fix, std, p.n_nodes)

    if kind in (ModelKind.PHASE, ModelKind.PHASE_ROTATING_FRAME):
        oh = float(point)

        def a_const(tau):
            t = np.asarray(tau, dtype=float)
            return k * mu * np.cos(oh * t)

        def da_const(tau):
            t = np.asarray(tau, dtype=float)
            return -k * mu * np.sin(oh * t) * oh

        return blocks_from_gain(p, a_const, da_const)

    if kind is ModelKind.PHASE_DIFFERENCE:
        if p.n_nodes > 3:
            raise UnsupportedKindError(
                "phase-difference blocks are defined for 2 or 3 nodes"
            )
        c_const = float(point)

        def a_diff(tau):
            return k * mu * np.cos(c_const + np.asarray(tau, dtype=float))

        def da_diff(tau):
            return -k * mu * np.sin(c_const + np.asarray(tau, dtype=float))

        return blocks_from_gain(p, a_diff, da_diff)

    raise UnsupportedKindError(str(kind))


def linearization_matrices(
    kind: ModelKind, params: NetworkParams, point: Point
) -> tuple[np.ndarray, np.ndarray]:
    """(A0, Atau) of the first-order linearization of ``kind`` at ``point``.

    ``point`` is what ``build_blocks`` takes (an Equilibrium, a locked rate
    Omega_hat or a difference C), and the delay is the parameters'.  The
    matrices are assembled entry by entry from partial derivatives of the
    right-hand side, independent of the block formulas, which
    ``full_determinant`` against ``block_product`` checks:

    * FULL_PHASE, PHASE, PHASE_ROTATING_FRAME: 2N-dimensional, one (position,
      velocity) pair per node.
    * PHASE_DIFFERENCE (N <= 3): 2N(N-1)-dimensional, one pair per ordered
      node pair (i, j) of ``difference_pairs``; row (i,j) couples to every
      undelayed d_(i,l) with weight -a_c and every delayed d_(j,l) with
      weight +a_c, a_c = (K mu/(N-1)) cos(C + omega_M tau).
    """
    p = normalize(params)
    n = p.n_nodes
    mu = p.filter_gain
    k = p.coupling

    if kind is ModelKind.PHASE_DIFFERENCE:
        dim = state_dim(kind, n)
        a_c = k * mu / (n - 1) * np.cos(float(point) + p.delay)
        pairs = difference_pairs(n)
        index = {pair: idx for idx, pair in enumerate(pairs)}
        a0 = np.zeros((dim, dim))
        atau = np.zeros((dim, dim))
        for idx, (i, j) in enumerate(pairs):
            a0[2 * idx, 2 * idx + 1] = 1.0
            a0[2 * idx + 1, 2 * idx + 1] = -mu
            for l in range(n):
                if l != i:
                    a0[2 * idx + 1, 2 * index[(i, l)]] -= a_c
                if l != j:
                    atau[2 * idx + 1, 2 * index[(j, l)]] += a_c
        return a0, atau

    if kind is ModelKind.FULL_PHASE:
        if not isinstance(point, Equilibrium):
            raise UnsupportedKindError("full-phase linearization needs an Equilibrium")
        c2 = point.cos_two_phi
        diag = k * mu * (-1.0 + c2)  # d(acc_i)/d(pos_i)
        off = k * mu * (1.0 + c2) / (n - 1)  # d(acc_i)/d(delayed pos_j)
    elif kind in (ModelKind.PHASE, ModelKind.PHASE_ROTATING_FRAME):
        oh = float(point)
        c = np.cos(oh * p.delay)
        diag = -k * mu * c
        off = k * mu * c / (n - 1)
    else:
        raise UnsupportedKindError(str(kind))

    a0 = np.zeros((2 * n, 2 * n))
    atau = np.zeros((2 * n, 2 * n))
    for i in range(n):
        a0[2 * i, 2 * i + 1] = 1.0
        a0[2 * i + 1, 2 * i] = diag
        a0[2 * i + 1, 2 * i + 1] = -mu
        for j in range(n):
            if j != i:
                atau[2 * i + 1, 2 * j] = off
    return a0, atau


def full_determinant(
    kind: ModelKind, params: NetworkParams, point: Point, lam: complex
) -> complex:
    """det Delta(lambda) = det(lambda I - A0 - Atau e^{-lambda tau}).

    (A0, Atau) are ``linearization_matrices(kind, params, point)``; the
    identity takes their size, 2N or, for PHASE_DIFFERENCE, 2N(N-1).
    """
    p = normalize(params)
    a0, atau = linearization_matrices(kind, p, point)
    lam = complex(lam)
    m = lam * np.eye(a0.shape[0], dtype=complex) - a0 - atau * np.exp(-lam * p.delay)
    return complex(np.linalg.det(m))


def block_product(
    kind: ModelKind, params: NetworkParams, point: Point, lam: complex
) -> complex:
    """P_fix(lambda) P_std(lambda)^(N-1): the symmetry's prediction of ``full_determinant``.

    The blocks are ``build_blocks(kind, params, point)``.  For
    PHASE_DIFFERENCE, P_fix first takes on the fictitious factor
    (lambda^2 + mu lambda)^(N(N-2)) of the over-parameterized coordinates
    (1 for N = 2; see ``phasediff``).
    """
    p = normalize(params)
    blocks = build_blocks(kind, p, point)
    lam = complex(lam)
    n = p.n_nodes
    fix = blocks.fix.eval(lam, p.delay)
    if kind is ModelKind.PHASE_DIFFERENCE:
        fix = (lam * lam + p.filter_gain * lam) ** (n * (n - 2)) * fix
    return fix * blocks.standard.eval(lam, p.delay) ** (n - 1)


def isotypic_basis(n_nodes: int, j: int) -> np.ndarray:
    """Rows spanning the j-th cyclic isotypic component of the node space.

    Returns a (2, 2N) complex array: two orthonormal rows whose position and
    velocity entries carry the root-of-unity pattern
    lambda_kj = exp(2 pi i (k j mod N) / N) / sqrt(N), interleaved with zeros.
    j = 0 spans the synchronized (fixed) subspace; j = 1..N-1 together span the
    symmetry-breaking complement.  Stacking all j block-diagonalizes the
    characteristic matrix.  Raises IndexOutOfRangeError for j outside
    0..N-1 and InvalidParamError for a j that is not an integer.
    """
    if not 0 <= j < n_nodes:
        raise IndexOutOfRangeError(f"component index {j} outside 0..{n_nodes - 1}")
    j = check_int(j, "component index", 0)
    k = np.arange(n_nodes)
    lam = np.exp(2.0 * np.pi * 1j * ((k * j) % n_nodes) / n_nodes) / np.sqrt(n_nodes)
    rows = np.zeros((2, 2 * n_nodes), dtype=complex)
    rows[0, 0::2] = lam
    rows[1, 1::2] = lam
    return rows
