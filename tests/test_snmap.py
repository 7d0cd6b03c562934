"""Imaginary-axis crossing machinery: candidate frequencies, delay ladders,
transversality signs, and the frozen crossing table of the reference network.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pllbif import (
    BlockKind,
    Branch,
    CrossingCandidate,
    DegenerateCrossingError,
    DegenerateSError,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    RootBranch,
    UnsupportedKindError,
    bifurcation_curves,
    build_blocks,
    constant_quasi_polynomial,
    crossing_angle,
    equilibrium,
    omega_candidates,
    region_boundaries,
    releq_branches,
    releq_solve,
    relative_hopf_scan,
    sn_scan,
    tau_candidates,
    transversality,
)
from pllbif.snmap import _b_c, _scan, _turns


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


def test_omega_candidates_survive_an_overflowing_discriminant():
    # b^2 overflows while b and c are finite: w^4 - 1e200 w^2 + 1 has w = 1e100 and 1e-100
    cands = omega_candidates(-1e200, 1.0)
    assert [c.root_branch for c in cands] == [RootBranch.PLUS, RootBranch.MINUS]
    assert [c.omega for c in cands] == pytest.approx([1e100, 1e-100], rel=1e-15)
    # 4c overflows: w^4 - w^2 - 1e308 has w^2 = (1 + sqrt(1 + 4e308)) / 2, about 1e154
    (cand,) = omega_candidates(-1.0, -1e308)
    assert cand.omega == pytest.approx(1e77, rel=1e-15)
    # the scan's elementwise roots agree: (r0, r1, s0) = (1, 1e100, 2) gives
    # b = 1e200, whose square overflows, and c = -3
    s = np.linspace(0.0, 1.0, 5)
    (want,) = omega_candidates(*_b_c(1.0, 1e100, 2.0))
    w = _turns(lambda x: (np.ones_like(x), 1e100, np.full_like(x, 2.0), x), s, np.zeros(5))[1]
    assert w == pytest.approx(np.full(5, want.omega), rel=1e-15)


def test_tau_candidates_spacing():
    blk = fix_block()
    cand = omega_candidates(*_b_c(*blk.at(0.0)))[0]
    # the principal angle is negative here, so winding 0 lands at tau < 0
    rows = tau_candidates(blk, cand, range(0, 5))
    assert [r.winding for r in rows] == [1, 2, 3, 4]
    gaps = np.diff([r.tau_star for r in rows])
    assert np.allclose(gaps, 2.0 * math.pi / cand.omega, atol=1e-10)


def test_tau_candidates_rejects_difference_blocks():
    # a = K mu cos(C + tau) moves with the delay, so the fixed ladder is wrong
    blk = build_blocks(ModelKind.PHASE_DIFFERENCE, NetworkParams(2, 1.05, 0.3), 0.4).fix
    cand = omega_candidates(*_b_c(*blk.at(1.0)))[0]
    with pytest.raises(UnsupportedKindError):
        tau_candidates(blk, cand, range(0, 3))


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


@settings(max_examples=80, deadline=None)
@given(
    r0=st.floats(min_value=-3.0, max_value=3.0),
    r1=st.floats(min_value=0.01, max_value=3.0),
    s0=st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 1e-3),
    start=st.one_of(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=30.0, max_value=1e4)),
    length=st.floats(min_value=0.1, max_value=30.0),
)
def test_scan_of_a_constant_block_finds_the_closed_form_ladder(r0, r1, s0, start, length):
    # with constant coefficients S_n has the explicit zeros tau_n = (theta + 2 pi n)/w;
    # the reference walks every n >= 0, with theta and delta from the public
    # crossing_angle and transversality, not through the scan's enumerator
    b, c = r1 * r1 - 2.0 * r0, r0 * r0 - s0 * s0
    assume(abs(b * b - 4.0 * c) > 1e-3)
    p = constant_quasi_polynomial(r0, r1, s0)
    end = start + length
    rungs = []
    for cand in omega_candidates(b, c):
        theta = crossing_angle(p, cand.omega, 0.0)
        n = 0
        while (tau := (theta + 2.0 * math.pi * n) / cand.omega) <= end:
            if tau >= start:
                rungs.append(CrossingCandidate(cand, tau, n, *transversality(p, cand.omega, tau)))
            n += 1
    scan = sn_scan(p, (start, end))
    assert scan == sorted(rungs, key=lambda x: x.tau_star)


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
        (releq_branches, (P21, (5.0, 5.0))),  # every sample would sit at tau = 5
        (relative_hopf_scan, (P21, BlockKind.FIX, (5.0, 5.0))),
        (sn_scan, (fix_block(), (0.0, math.nan))),
        (sn_scan, (fix_block(), (0.0, math.inf))),
        (sn_scan, (fix_block(), (-1.0, 5.0))),
    ],
    ids=lambda v: v.__name__ if callable(v) else "-".join(map(str, v[1:])),
)
def test_bad_delays_are_refused(func, args):
    with pytest.raises(InvalidParamError):
        func(*args)


def test_scan_budget_names_the_delay_window():
    # a scan in another parameter than the delay (the branch phase of the phase
    # model) refuses too many brackets with the delays its window spans
    r0, r1, s0 = 0.5, 1.0, 2.0

    def at(s):
        return r0, r1, s0, 2.0 * s, 0.0, 0.0

    with pytest.raises(InvalidParamError, match=r"delay window \[0, 2e\+07\] holds .* 2\^20"):
        _scan(at, [(0.0, 1e7)])
    # one budget per call: each window holds about 664,000 brackets, within
    # the budget, and the two together pass it before either is halved
    with pytest.raises(InvalidParamError, match=r"delay window \[0, 6e\+06\] holds at least 1\.3\d*e\+06 .* 2\^20"):
        _scan(at, [(0.0, 1.5e6), (1.5e6, 3e6)])


def turns_by_hand(a, s0, mu, tau):
    """(u, theta) on the plus and minus roots of lambda^2 + mu lambda + a + s0 e^{-lambda tau} at one delay.

    u = (tau w - theta)/2 pi from the textbook quadratic in w^2 and the
    principal crossing angle; None where w is absent.
    """
    b, c = mu * mu - 2.0 * a, a * a - s0 * s0
    disc = b * b - 4.0 * c
    if disc < 0.0 or s0 == 0.0:
        return None, None
    out = []
    for w2 in ((-b + math.sqrt(disc)) / 2.0, (-b - math.sqrt(disc)) / 2.0):
        if w2 <= 0.0:
            out.append(None)
            continue
        w = math.sqrt(w2)
        theta = math.atan2(s0 * mu * w, -s0 * (a - w2))
        out.append(((tau * w - theta) / (2.0 * math.pi), theta))
    return out


@settings(max_examples=25, deadline=None)
@given(
    block=st.one_of(
        st.tuples(st.just(ModelKind.PHASE), st.integers(2, 5), st.floats(0.0, 2.0)),
        st.tuples(st.just(ModelKind.PHASE_DIFFERENCE), st.integers(2, 3), st.floats(-math.pi, math.pi)),
    ),
    k=st.floats(0.1, 3.0),
    mu=st.floats(0.05, 2.0),
    fix=st.booleans(),
    start=st.floats(0.0, 10.0),
    length=st.floats(0.1, 20.0),
)
def test_a_delay_dependent_scan_finds_every_sign_change_of_a_finer_grid(block, k, mu, fix, start, length):
    # a frozen-rate phase block has gain a = K mu cos(Omega_hat tau), a difference
    # block a = K mu cos(C + tau); s0 = -a (synchronized) or a/(N - 1)
    kind, nodes, point = block
    blocks = build_blocks(kind, NetworkParams(nodes, k, mu), point)
    end = start + length
    found = sn_scan(blocks.fix if fix else blocks.standard, (start, end))

    def coeffs(tau):
        a = k * mu * math.cos(point * tau if kind is ModelKind.PHASE else point + tau)
        return a, -a if fix else a / (nodes - 1)

    for cand in found:
        a, s0 = coeffs(cand.tau_star)
        lam = 1j * cand.omega
        residual = abs(lam * lam + mu * lam + a + s0 * np.exp(-lam * cand.tau_star))
        assert residual <= 1e-9 * (cand.omega**2 + mu * cand.omega + abs(a) + abs(s0))
    # every integer n that u passes between two points of a grid ten times finer
    # than the scan's is a crossing of the scan in that cell, unless w is absent
    # at a cell end or the ends straddle a 2 pi jump of theta
    taus = np.linspace(start, end, 10001).tolist()
    turns = [turns_by_hand(*coeffs(tau), mu, tau) for tau in taus]
    for row, root in enumerate((RootBranch.PLUS, RootBranch.MINUS)):
        cells = zip(taus, taus[1:], (t[row] for t in turns), (t[row] for t in turns[1:]))
        for ta, tb, ea, eb in cells:
            if ea is None or eb is None or abs(ea[1] - eb[1]) > math.pi:
                continue
            for n in range(math.ceil(min(ea[0], eb[0])), math.floor(max(ea[0], eb[0])) + 1):
                assert any(
                    c.omega_candidate.root_branch is root and c.winding == n
                    and ta - 1e-6 <= c.tau_star <= tb + 1e-6
                    for c in found
                ), (root, n, ta)


def test_transversality_sign_law():
    """Plus-root crossings destabilize, minus-root crossings restabilize."""
    blk = fix_block()
    for tau, omega, br, sign in FROZEN:
        delta, got_sign = transversality(blk, omega, tau)
        assert got_sign == sign
        assert math.copysign(1.0, delta) == sign
        assert (br is RootBranch.PLUS) == (sign == 1)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("func", [transversality, crossing_angle], ids=lambda f: f.__name__)
def test_crossing_direction_and_angle_refuse_a_bad_delay(func, tau):
    # unchecked, the constant block answers at any delay: transversality gave
    # (nan, -1) at tau = nan, a direction for a crossing that does not exist
    with pytest.raises(InvalidParamError):
        func(fix_block(), FROZEN[0][1], tau)


def test_degenerate_double_root_raises():
    # b^2 = 4c merges the root branches; the crossing becomes tangential
    q = constant_quasi_polynomial(1.0, 1.0, math.sqrt(0.75))
    w = math.sqrt(0.5)
    theta = crossing_angle(q, w, 1.0)
    tau = theta / w if theta > 0 else (theta + 2.0 * math.pi) / w
    with pytest.raises(DegenerateCrossingError):
        transversality(q, w, tau)


def test_curves_refuse_a_double_crossing_frequency():
    # N = 3, K = 1, mu next to 2 - sqrt(3): the standard block's b^2 - 4c rounds to
    # exactly 0, so w+ = w-, F'(w) = 0 and the crossing is tangential
    mu = 0.26794919243112264
    p = NetworkParams(3, 1.0, mu)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).standard
    b, c = _b_c(*blk.at(0.0))
    assert b * b - 4.0 * c == 0.0
    plus, minus = omega_candidates(b, c)
    assert plus.omega == minus.omega
    with pytest.raises(DegenerateCrossingError):
        tau_candidates(blk, plus, range(0, 3))
    with pytest.raises(DegenerateCrossingError):
        bifurcation_curves(p, BlockKind.STANDARD, Branch.PLUS, "mu", [mu], range(0, 3))


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(2, 6),
    k=st.floats(1.0, 3.0),
    block=st.sampled_from(BlockKind),
    branch=st.sampled_from(Branch),
    mus=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=8),
)
def test_curve_signs_are_the_transversality_signs(nodes, k, block, branch, mus):
    # on a constant block sign delta = sign F'(w): +1 on the PLUS root, -1 on MINUS
    p = NetworkParams(nodes, k, 1.0)
    for row in bifurcation_curves(p, block, branch, "mu", mus, range(0, 4)):
        q = NetworkParams(nodes, k, row.sweep_value)
        blocks = build_blocks(ModelKind.FULL_PHASE, q, equilibrium(q, branch))
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        assert transversality(blk, row.omega, row.tau_star)[1] == row.delta_sign


@settings(max_examples=40, deadline=None)
@given(
    k=st.floats(1.0, 3.0),
    block=st.sampled_from(BlockKind),
    mus=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=4),
    start=st.integers(-10, 10),
    stop=st.integers(-10, 30),
    step=st.sampled_from([-3, -1, 1, 2]),
    tau_max=st.one_of(st.none(), st.floats(-1.0, 200.0)),
)
def test_curve_rows_are_the_rungs_of_the_range(k, block, mus, start, stop, step, tau_max):
    # the rungs are counted as a slice of the range; the loop over every n is the reference
    n_range = range(start, stop, step)
    p = NetworkParams(3, k, 1.0)
    want = []
    for mu in mus:
        q = NetworkParams(3, k, mu)
        blocks = build_blocks(ModelKind.FULL_PHASE, q, equilibrium(q, Branch.MINUS))
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        for cand in omega_candidates(*_b_c(*blk.at(0.0))):
            theta = crossing_angle(blk, cand.omega, 0.0)
            sign = 1 if cand.root_branch is RootBranch.PLUS else -1
            for n in n_range:
                tau = (theta + 2.0 * math.pi * n) / cand.omega
                if tau >= 0.0 and (tau_max is None or tau <= tau_max):
                    want.append((mu, n, cand.root_branch, cand.omega, tau, sign))
    want.sort(key=lambda r: (r[0], r[4]))
    rows = bifurcation_curves(p, block, Branch.MINUS, "mu", mus, n_range, tau_max)
    assert [(r.sweep_value, r.winding, r.root_branch, r.omega, r.tau_star, r.delta_sign) for r in rows] == want


def test_vanishing_delay_coefficient_raises():
    q = constant_quasi_polynomial(1.0, 1.0, 0.0)
    with pytest.raises(DegenerateSError):
        crossing_angle(q, 0.7, 1.0)


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
        has = len(omega_candidates(*_b_c(*blk.at(1.0)))) > 0
        assert has is expect
