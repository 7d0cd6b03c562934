import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    BranchDomainError,
    Branch,
    CensusBox,
    ModelKind,
    NetworkParams,
    Scheme,
    build_blocks,
    constant_quasi_polynomial,
    equilibrium,
    lambert_w,
    rightmost_root,
    rightmost_sweep,
    root_census,
)

OMEGA_CONST = 0.5671432904097838  # W_0(1)


def test_lambert_specials():
    assert lambert_w(0, 0.0) == 0.0
    assert lambert_w(0, 1.0) == pytest.approx(OMEGA_CONST, abs=1e-15)
    assert lambert_w(0, math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_w(0, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_branch_domain():
    # only branches 0 and -1 reach the real segment [-1/e, 0)
    with pytest.raises(BranchDomainError):
        lambert_w(1, 0.0)


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(min_value=-3, max_value=3),
    re=st.floats(min_value=-5.0, max_value=5.0),
    im=st.floats(min_value=-5.0, max_value=5.0),
)
def test_lambert_defining_identity(k, re, im):
    z = complex(re, im)
    if abs(z) < 1e-6:
        z += 0.5  # keep away from the branch point pileup at 0
    try:
        w = lambert_w(k, z)
    except BranchDomainError:
        return
    assert w * cmath.exp(w) == pytest.approx(z, rel=1e-8, abs=1e-8)
    assert cmath.isfinite(w)


def test_rightmost_root_zero_delay_closed_form():
    q = constant_quasi_polynomial(0.7, 0.3, -0.2, delay=0.0)
    est = rightmost_root(q)
    r = est.lam
    assert r * r + 0.3 * r + 0.5 == pytest.approx(0.0, abs=1e-14)
    assert est.certified
    assert est.residual == 0.0


def test_rightmost_roots_frozen_three_node_blocks():
    # both blocks are (barely) stable at this delay
    p = NetworkParams(3, 1.05, 0.075, delay=9.5)
    eq = equilibrium(p, Branch.MINUS)
    blocks = build_blocks(ModelKind.FULL_PHASE, p, eq)
    fix = rightmost_root(blocks.fix, 9.5)
    std = rightmost_root(blocks.standard, 9.5)
    assert fix.lam == pytest.approx(-0.0009273958051507658 + 0.38741521945722945j, abs=1e-9)
    assert std.lam == pytest.approx(-0.010186032089406714 + 0.27564669633103134j, abs=1e-9)
    assert fix.certified and std.certified
    assert fix.residual < 1e-12 and std.residual < 1e-12
    assert fix.scheme is Scheme.NEWTON


def test_rightmost_root_is_a_root_and_upper_half():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    for tau in (0.5, 3.17, 8.67):
        est = rightmost_root(blk, tau)
        assert abs(blk.eval(est.lam, tau)) < 1e-10
        assert est.lam.imag >= 0.0


def test_census_counts_flip_across_crossings():
    # unstable pair appears at tau ~ 6.34 and retreats at tau ~ 11.0
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    box = CensusBox((1e-6, 2.0), (-5.0, 5.0))
    assert root_census(blk, 3.17, box) == 0
    assert root_census(blk, 8.67, box) == 2
    assert root_census(blk, 13.2, box) == 0


def test_census_agrees_with_rightmost_sign():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    box = CensusBox((1e-6, 2.0), (-5.0, 5.0))
    for tau in (3.17, 8.67):
        est = rightmost_root(blk, tau)
        count = root_census(blk, tau, box)
        assert (est.lam.real > 0.0) == (count > 0)


def test_sweep_warm_start_continuity():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    taus = [4.0 + 0.25 * i for i in range(12)]
    rows = rightmost_sweep(blk.with_delay, taus)
    assert [r.tau for r in rows] == pytest.approx(taus)
    assert all(r.certified for r in rows)
    # the tracked root moves continuously on this grid
    jumps = [abs(b.lam - a.lam) for a, b in zip(rows, rows[1:])]
    assert max(jumps) < 0.3
    # real part crosses zero inside the grid (destabilization at ~6.34)
    signs = [r.lam.real > 0 for r in rows]
    assert signs[0] is False and signs[-1] is True


@pytest.mark.parametrize("scheme", [Scheme.NEWTON, Scheme.HALLEY])
def test_overflowing_seed_fails_alone(scheme):
    # polishing some of the seeds here overflows e^{-lambda tau}
    p = NetworkParams(2, 2.4640029301488293, 1.6160164315748644)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).standard
    est = rightmost_root(blk, 3.0, scheme=scheme)
    assert est.lam == pytest.approx(0.4610 + 0.6759j, abs=1e-4)
    assert est.residual <= 1e-12
    assert est.certified
