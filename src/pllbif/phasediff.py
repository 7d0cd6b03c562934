"""Fictitious spectrum of the pairwise-difference formulation (N = 2, 3).

The coordinates d_(i,j)(t) = theta_i(t) - theta_j(t - tau) close under the
phase dynamics only for 2 or 3 nodes, and for 3 nodes they over-parameterize
the network: the 12-dimensional linearization at d == C carries a factor
(lambda^2 + mu lambda)^3 whose roots 0 and -mu are artifacts of the
coordinate change, not of the underlying network.  At C = Omega tau (Omega
the rotation rate of a locked state) the genuine factors coincide with the
phase-model blocks.  The linearization, its determinant and the predicted
block product are ``charfun``'s, as for every formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charfun import build_blocks, full_determinant
from .errors import UnsupportedKindError
from .model import ModelKind, NetworkParams, normalize

__all__ = [
    "FictitiousRoot",
    "determinant_n3",
    "fictitious_roots",
]


def determinant_n3(params: NetworkParams, c_const: float, lam: complex) -> complex:
    """det of the 12-dimensional difference linearization at lambda (3 nodes).

    ``full_determinant`` of PHASE_DIFFERENCE at d == c_const, for N = 3 only,
    the node count that carries the fictitious factor.
    """
    p = normalize(params)
    if p.n_nodes != 3:
        raise UnsupportedKindError("the 12-dimensional determinant needs 3 nodes")
    return full_determinant(ModelKind.PHASE_DIFFERENCE, p, c_const, lam)


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
        genuine = min(abs(blocks.fix.eval(lam, p.delay)), abs(blocks.standard.eval(lam, p.delay)))
        out.append(FictitiousRoot(lam, bool(genuine >= 1e-6)))
    return out
