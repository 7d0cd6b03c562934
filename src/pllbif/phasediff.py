"""Pairwise-difference formulation and its fictitious spectrum (N = 2, 3).

The coordinates d_(i,j)(t) = theta_i(t) - theta_j(t - tau) close under the
phase dynamics only for 2 or 3 nodes, and for 3 nodes they over-parameterize
the network: the 12-dimensional linearization at d == C carries a factor
(lambda^2 + mu lambda)^3 whose roots 0 and -mu are artifacts of the
coordinate change, not of the underlying network.  At C = Omega tau (Omega
the rotation rate of a locked state) the genuine factors coincide with the
phase-model blocks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .charfun import QuasiPolynomial, build_blocks
from .errors import UnsupportedKindError
from .model import ModelKind, NetworkParams, difference_pairs, normalize

__all__ = [
    "PhaseDiffChar",
    "FictitiousRoot",
    "char_functions_n2",
    "linearization_matrices",
    "determinant_n3",
    "block_product",
    "fictitious_roots",
]


@dataclass(frozen=True)
class PhaseDiffChar:
    """Characteristic data of the difference formulation at d == c_const.

    p1 carries the persistent zero root (P(0) = a - a = 0 for every C); p2 is
    the symmetry-breaking partner.
    """

    c_const: float
    p1: QuasiPolynomial
    p2: QuasiPolynomial


def char_functions_n2(params: NetworkParams, c_const: float) -> PhaseDiffChar:
    """The two 2-node blocks lambda^2 + mu lambda + a -/+ a e^{-lambda tau}.

    a = K mu cos(C + omega_M tau).  With C = Omega(tau) tau these are exactly
    the phase-model synchronized and symmetry-breaking blocks.
    """
    p = normalize(params)
    if p.n_nodes != 2:
        raise UnsupportedKindError("the two-block form exists only for 2 nodes")
    blocks = build_blocks(ModelKind.PHASE_DIFFERENCE, p, c_const)
    return PhaseDiffChar(float(c_const), blocks.fix, blocks.standard)


def linearization_matrices(
    params: NetworkParams, c_const: float
) -> tuple[np.ndarray, np.ndarray]:
    """(A0, Atau) of the difference dynamics linearized at d == c_const.

    Assembled from the partial derivatives of the pairwise right-hand side:
    row (i,j) couples to every undelayed d_(i,l) with weight -a_c and every
    delayed d_(j,l) with weight +a_c, a_c = (K mu/(N-1)) cos(C + omega_M tau).
    """
    p = normalize(params)
    n = p.n_nodes
    if n > 3:
        raise UnsupportedKindError("difference coordinates close only for 2 or 3 nodes")
    mu = p.filter_gain
    a_c = p.coupling * mu / (n - 1) * np.cos(float(c_const) + p.delay)
    pairs = difference_pairs(n)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    dim = 2 * len(pairs)
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


def determinant_n3(params: NetworkParams, c_const: float, lam: complex) -> complex:
    """det of the 12-dimensional difference linearization at lambda (3 nodes)."""
    p = normalize(params)
    if p.n_nodes != 3:
        raise UnsupportedKindError("the 12-dimensional determinant needs 3 nodes")
    a0, atau = linearization_matrices(p, c_const)
    lam = complex(lam)
    m = lam * np.eye(a0.shape[0], dtype=complex) - a0 - atau * cmath.exp(-lam * p.delay)
    return complex(np.linalg.det(m))


def block_product(params: NetworkParams, c_const: float, lam: complex) -> complex:
    """(lambda^2 + mu lambda)^{N(N-2)} P_fix P_std^{N-1}: the predicted determinant."""
    p = normalize(params)
    blocks = build_blocks(ModelKind.PHASE_DIFFERENCE, p, c_const)
    lam = complex(lam)
    n = p.n_nodes
    fict = (lam * lam + p.filter_gain * lam) ** (n * (n - 2))
    return fict * blocks.fix.eval(lam) * blocks.standard.eval(lam) ** (n - 1)


@dataclass(frozen=True)
class FictitiousRoot:
    lam: float
    is_fictitious: bool


def fictitious_roots(params: NetworkParams, c_const: float) -> list[FictitiousRoot]:
    """Classify the coordinate-artifact roots 0 and -mu of the 3-node determinant.

    A root is fictitious when the full determinant vanishes there but neither
    genuine block does (residual >= 1e-6).  lambda = 0 is always a root of the
    synchronized block as well, so it is never flagged.
    """
    p = normalize(params)
    if p.n_nodes != 3:
        raise UnsupportedKindError("fictitious factors arise only for 3 nodes")
    blocks = build_blocks(ModelKind.PHASE_DIFFERENCE, p, c_const)
    out: list[FictitiousRoot] = []
    for lam in (0.0, -p.filter_gain):
        if abs(determinant_n3(p, c_const, lam)) > 1e-6:
            continue
        genuine = min(abs(blocks.fix.eval(lam)), abs(blocks.standard.eval(lam)))
        out.append(FictitiousRoot(lam, bool(genuine >= 1e-6)))
    return out
