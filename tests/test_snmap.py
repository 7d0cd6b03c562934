"""Imaginary-axis crossing machinery: candidate frequencies, delay ladders,
transversality signs, and the frozen crossing table of the reference network.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    BlockKind,
    Branch,
    DegenerateCrossingError,
    DegenerateSError,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    RootBranch,
    UnsupportedKindError,
    build_blocks,
    char_functions_n2,
    constant_quasi_polynomial,
    crossing_angle,
    equilibrium,
    omega_candidates,
    region_boundaries,
    releq_branches,
    releq_solve,
    sn_scan,
    tau_candidates,
    transversality,
)


def fix_block(n=2, k=1.05, mu=0.3):
    p = NetworkParams(n, k, mu)
    eq = equilibrium(p, Branch.MINUS)
    return build_blocks(ModelKind.FULL_PHASE, p, eq).fix


# ---------------------------------------------------------------------------
# candidate frequencies


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(min_value=-4.0, max_value=4.0),
    c=st.floats(min_value=-4.0, max_value=4.0),
)
def test_omega_candidates_solve_the_quartic(b, c):
    for cand in omega_candidates(b, c):
        w = cand.omega
        assert w > 0.0
        val = w**4 + b * w**2 + c
        assert abs(val) < 1e-7 * max(1.0, w**4)
        assert cand.root_branch in (RootBranch.PLUS, RootBranch.MINUS)


def test_omega_candidates_counts():
    # c < 0: exactly one positive crossing frequency (the plus root)
    cands = omega_candidates(1.0, -1.0)
    assert [c.root_branch for c in cands] == [RootBranch.PLUS]
    # b < 0 and 0 < c < b^2/4: two
    cands = omega_candidates(-3.0, 1.0)
    assert [c.root_branch for c in cands] == [RootBranch.PLUS, RootBranch.MINUS]
    # no real crossing frequencies
    assert omega_candidates(1.0, 1.0) == []


def test_tau_candidates_spacing():
    blk = fix_block()
    cand = omega_candidates(*blk.b_c())[0]
    # the principal angle is negative here, so winding 0 lands at tau < 0
    rows = tau_candidates(blk, cand, range(0, 5))
    assert [r.winding for r in rows] == [1, 2, 3, 4]
    gaps = np.diff([r.tau_star for r in rows])
    assert np.allclose(gaps, 2.0 * math.pi / cand.omega, atol=1e-10)


def test_tau_candidates_rejects_difference_blocks():
    # a = K mu cos(C + tau) moves with the delay, so the fixed ladder is wrong
    ch = char_functions_n2(NetworkParams(2, 1.05, 0.3), 0.4)
    cand = omega_candidates(*ch.p1.b_c(1.0))[0]
    with pytest.raises(UnsupportedKindError):
        tau_candidates(ch.p1, cand, range(0, 3))


def test_crossing_angle_is_principal():
    blk = fix_block()
    th = crossing_angle(blk, 0.6927757901037702, 6.34)
    assert -math.pi < th <= math.pi
    # first nonnegative delay from this angle matches the frozen crossing
    tau1 = (th + 2.0 * math.pi) / 0.6927757901037702
    assert tau1 == pytest.approx(6.340163143301263, abs=1e-6)


# ---------------------------------------------------------------------------
# the frozen crossing table: N=2, K=1.05, mu=0.3, low-branch equilibrium

FROZEN = [
    (6.340163143301263, 0.6927757901037702, RootBranch.PLUS, 1),
    (11.001518289255412, 0.5021508058034782, RootBranch.MINUS, -1),
    (15.409742936553585, 0.6927757901037702, RootBranch.PLUS, 1),
    (23.51406478836134, 0.5021508058034782, RootBranch.MINUS, -1),
    (24.47932272980588, 0.6927757901037702, RootBranch.PLUS, 1),
]


def test_scan_reproduces_frozen_crossings():
    cands = sn_scan(fix_block(), (0.0, 25.0))
    assert len(cands) == len(FROZEN)
    for got, (tau, omega, br, sign) in zip(cands, FROZEN):
        assert got.tau_star == pytest.approx(tau, abs=1e-8)
        assert got.omega == pytest.approx(omega, abs=1e-10)
        assert got.omega_candidate.root_branch is br
        assert got.delta_sign == sign
        assert got.delta != 0.0


def test_scan_on_subwindow_and_ordering():
    cands = sn_scan(fix_block(), (10.0, 20.0))
    taus = [c.tau_star for c in cands]
    assert taus == sorted(taus)
    assert [round(t, 2) for t in taus] == [11.0, 15.41]
    # a window that ends at or before its start holds no crossings
    assert sn_scan(fix_block(), (10.0, 10.0)) == []
    assert sn_scan(fix_block(), (20.0, 10.0)) == []


P21 = NetworkParams(2, 1.0, 1.0)


@pytest.mark.parametrize(
    "func, args",
    [
        (releq_solve, (P21, math.nan)),
        (releq_solve, (P21, math.inf)),
        (releq_solve, (P21, -1.0)),
        (releq_branches, (P21, (0.0, math.nan))),
        (releq_branches, (P21, (math.nan, 5.0))),
        (releq_branches, (P21, (0.0, math.inf))),
        (releq_branches, (P21, (-1.0, 5.0))),
        (releq_branches, (P21, (5.0, 1.0))),  # its delays would run backwards
        (sn_scan, (fix_block(), (0.0, math.nan))),
        (sn_scan, (fix_block(), (0.0, math.inf))),
        (sn_scan, (fix_block(), (-1.0, 5.0))),
        # the third argument is the grid step
        (sn_scan, (fix_block(), (0.0, 25.0), math.nan)),
        (sn_scan, (fix_block(), (0.0, 25.0), math.inf)),
        (sn_scan, (fix_block(), (0.0, 25.0), 0.0)),
        (sn_scan, (fix_block(), (0.0, 25.0), -0.1)),
    ],
    ids=lambda v: v.__name__ if callable(v) else "-".join(map(str, v[1:])),
)
def test_bad_delays_are_refused(func, args):
    with pytest.raises(InvalidParamError):
        func(*args)


def test_transversality_sign_law():
    """Plus-root crossings destabilize, minus-root crossings restabilize."""
    blk = fix_block()
    for tau, omega, br, sign in FROZEN:
        delta, got_sign = transversality(blk, omega, tau)
        assert got_sign == sign
        assert math.copysign(1.0, delta) == sign
        assert (br is RootBranch.PLUS) == (sign == 1)


def test_degenerate_double_root_raises():
    # b^2 = 4c merges the root branches; the crossing becomes tangential
    q = constant_quasi_polynomial(1.0, 1.0, math.sqrt(0.75), delay=1.0)
    w = math.sqrt(0.5)
    theta = crossing_angle(q, w)
    tau = theta / w if theta > 0 else (theta + 2.0 * math.pi) / w
    with pytest.raises(DegenerateCrossingError):
        transversality(q, w, tau)


def test_vanishing_delay_coefficient_raises():
    q = constant_quasi_polynomial(1.0, 1.0, 0.0, delay=1.0)
    with pytest.raises(DegenerateSError):
        crossing_angle(q, 0.7)


# ---------------------------------------------------------------------------
# existence boundaries


def test_region_boundaries_frozen():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    fix = region_boundaries(p, eq, BlockKind.FIX)
    assert fix.mu_max == pytest.approx(0.42112628213162173, abs=1e-14)
    assert fix.k_n == pytest.approx(1.0)
    std = region_boundaries(p, eq, BlockKind.STANDARD)
    # for two nodes the standard lower bound coincides with mu_max
    assert std.mu_minus == pytest.approx(fix.mu_max, abs=1e-12)
    assert std.mu_plus == pytest.approx(5.059498565354948, abs=1e-12)


def test_mu_max_separates_crossing_existence():
    k = 1.05
    p_lo = NetworkParams(2, k, 0.40)
    p_hi = NetworkParams(2, k, 0.44)
    for p, expect in ((p_lo, True), (p_hi, False)):
        eq = equilibrium(p, Branch.MINUS)
        blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
        has = len(omega_candidates(*blk.b_c(1.0))) > 0
        assert has is expect
