import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import spectrum
from pllbif import (
    BoundaryRootError,
    BranchDomainError,
    Branch,
    InvalidParamError,
    NoConvergenceError,
    CensusBox,
    ModelKind,
    NetworkParams,
    build_blocks,
    constant_quasi_polynomial,
    equilibrium,
    lambert_w,
    rightmost_root,
    rightmost_sweep,
    root_census,
    sn_scan,
    unstable_count,
)

OMEGA_CONST = 0.5671432904097838  # W_0(1)


def test_lambert_specials():
    assert lambert_w(0, 0.0) == 0.0
    assert lambert_w(0, 1.0) == pytest.approx(OMEGA_CONST, abs=1e-15)
    assert lambert_w(0, math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_w(0, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_principal_branch_on_its_cut():
    # left of -1/e the seed log(1 + z) is real while W_0 is not; the signed
    # zero of Im z picks the side of the cut
    for x in np.linspace(-0.8, -0.46, 35):
        for im in (0.0, -0.0):
            z = complex(float(x), im)
            w = lambert_w(0, z)
            assert abs(w * cmath.exp(w) - z) <= 1e-12
            assert 0.0 < math.copysign(1.0, im) * w.imag < math.pi


def test_lambert_branches_near_the_negative_axis_match_scipy():
    # near -1/e the series seed of W_-1 below the axis and the log(1 + z)
    # seed of W_0 near -0.8 converge to a neighbouring branch unless the
    # branch relation w + log w = log z + 2 pi i k is checked
    special = pytest.importorskip("scipy.special")
    for k in range(-3, 4):
        for x in np.linspace(-5.0, 0.0, 101)[:-1]:
            for y in (-0.1, -0.05, -0.01, 0.01, 0.05, 0.1):
                z = complex(x, y)
                want = complex(special.lambertw(z, k))
                assert lambert_w(k, z) == pytest.approx(want, rel=1e-10, abs=1e-10), (k, z)


# W_k(z) on both sides of the cut left of -1/e, frozen from scipy.special.lambertw
LAMBERT_ON_THE_CUT = [
    (0, complex(-3.995, 0.0), 0.6778855627594408 + 1.9115812959921321j),
    (0, complex(-3.995, -0.0), 0.6778855627594408 - 1.9115812959921321j),
    (-1, complex(-0.4, 0.0), -0.9440897382649355 - 0.4072679640328579j),
    (-1, complex(-0.4, -0.0), -3.002276896006925 - 7.47191753296396j),
    (1, complex(-0.4, -0.0), -0.9440897382649355 + 0.4072679640328579j),
    (2, complex(-2.5, -0.0), -1.1366690605365715 + 7.70756250643191j),
    (-3, complex(-0.37, 0.0), -3.6582438288411736 - 13.879455441803092j),
    (-3, complex(-0.37, -0.0), -4.020507669923109 - 20.224112988122975j),
]


@pytest.mark.parametrize("k, z, want", LAMBERT_ON_THE_CUT)
def test_lambert_frozen_values_on_the_cut(k, z, want):
    assert lambert_w(k, z) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_lambert_signed_zero_picks_the_side_of_the_cut():
    # left of -1/e, x - 0j is the lower side: conj(W_-k(x + 0j)), and each side
    # continues W_k from just off the axis, where the branch test holds
    xs = [-1.0 / math.e - 1e-15, -1.0 / math.e - 1e-9, -0.37, -0.4, -1.0, -3.995, -50.0]
    for k in range(-3, 4):
        for x in xs:
            below, above = lambert_w(k, complex(x, -0.0)), lambert_w(k, complex(x, 0.0))
            assert below == lambert_w(-k, complex(x, 0.0)).conjugate(), (k, x)
            assert above == lambert_w(-k, complex(x, -0.0)).conjugate(), (k, x)
            for side, w in ((-1.0, below), (1.0, above)):
                near = lambert_w(k, complex(x, side * 1e-12))
                assert w == pytest.approx(near, rel=1e-5, abs=1e-5), (k, x, side)


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


@pytest.mark.parametrize(
    "box",
    [
        CensusBox((1.0, 1.0), (-1.0, 1.0)),
        CensusBox((0.0, math.nan), (-1.0, 1.0)),
        CensusBox((0.0, math.inf), (-1.0, 1.0)),
    ],
    ids=["zero-extent", "nan-edge", "infinite-edge"],
)
def test_bad_census_box_is_refused(box):
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    with pytest.raises(InvalidParamError):
        root_census(blk, 1.0, box)


def test_deflated_census_counts_the_roots_of_p():
    # dividing a known root pair out of P, just left of the line, leaves the
    # count of P's roots right of the line unchanged
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    lam = rightmost_root(blk, 8.67).lam
    known = (lam, lam.conjugate())
    coeffs = blk.at(8.67)
    shift = lam.real + 1e-6
    assert spectrum._count(*coeffs, 8.67, shift, known=known) == 0
    assert unstable_count(blk, 8.67, shift) == 0
    assert unstable_count(blk, 8.67, shift=1e-6) == 2
    assert root_census(blk, 8.67, CensusBox((1e-6, 2.0), (-5.0, 5.0))) == 2


def test_sweep_warm_start_continuity():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    taus = [4.0 + 0.25 * i for i in range(12)]
    rows = rightmost_sweep(blk, taus)
    assert [r.tau for r in rows] == pytest.approx(taus)
    assert all(r.certified for r in rows)
    # the tracked root moves continuously on this grid
    jumps = [abs(b.lam - a.lam) for a, b in zip(rows, rows[1:])]
    assert max(jumps) < 0.3
    # real part crosses zero inside the grid (destabilization at ~6.34)
    signs = [r.lam.real > 0 for r in rows]
    assert signs[0] is False and signs[-1] is True


def test_overflowing_seed_fails_alone():
    # polishing some of the seeds here overflows e^{-lambda tau}
    p = NetworkParams(2, 2.4640029301488293, 1.6160164315748644)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).standard
    est = rightmost_root(blk, 3.0)
    assert est.lam == pytest.approx(0.4610 + 0.6759j, abs=1e-4)
    assert est.residual <= 1e-12
    assert est.certified


def test_overflow_leaves_a_root_uncertified():
    # the bound W of the count's line left of the axis grows with
    # e^{-Re lambda tau}, which overflows at this delay: no certificate, and
    # no OverflowError
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    tau = 1e6
    assert spectrum._certify_rightmost(tau, complex(-0.01, 0.4), *blk.at(tau)) is False


def dense_winding(blk, tau, box, known=()):
    """Winding number of P around the box from a dense, unwrapped phase.

    Each step moves lambda by at most 1/(64 (tau + 1)), so e^{-lambda tau}
    turns by less than 1/64 rad between samples.  The ``known`` roots are
    divided out of P first, so a root just outside the box cannot turn the
    phase by about pi between two samples.
    """
    (a, b), (lo, hi) = box.re_interval, box.im_interval
    corners = [complex(a, lo), complex(b, lo), complex(b, hi), complex(a, hi), complex(a, lo)]
    per_edge = math.ceil(64 * (tau + 1.0) * max(b - a, hi - lo))
    z = np.concatenate(
        [np.linspace(z0, z1, per_edge, endpoint=False) for z0, z1 in zip(corners, corners[1:])]
        + [np.array(corners[:1])]
    )
    f = blk.eval(z, tau)
    for k in known:
        f = f / (z - k)
    phase = np.unwrap(np.angle(f))
    return (phase[-1] - phase[0]) / (2.0 * math.pi)


def upper_bound_box(blk, tau):
    # every root with Re >= 0 has |lambda|^2 <= |r1||lambda| + |r0| + |s0|
    r0, r1, s0 = blk.at(tau)
    bound = (abs(r1) + math.sqrt(r1 * r1 + 4.0 * (abs(r0) + abs(s0)))) / 2.0 + 1.0
    return CensusBox((1e-6, bound), (-bound, bound))


def test_census_counts_windings_of_a_long_delay():
    # e^{-lambda tau} turns about 19 rad per unit of Im lambda here; the 17
    # roots are the tau = 0 quadratic's one plus a pair for each of the 8
    # destabilizing crossings below tau = 19.35
    p = NetworkParams(3, 2.9749666054794064, 1.2929269227406166)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).fix
    box = CensusBox((1e-6, 5.0), (-5.0, 5.0))
    assert root_census(blk, 19.35, box) == 17
    assert round(dense_winding(blk, 19.35, box)) == 17
    assert unstable_count(blk, 19.35, shift=1e-6) == 17
    # too small a budget for the delay-scaled samples fails, never samples coarser
    with pytest.raises(NoConvergenceError):
        root_census(blk, 19.35, box, max_evals=500)
    with pytest.raises(NoConvergenceError):
        spectrum._count(*blk.at(19.35), 19.35, 1e-6, max_evals=100)


def _random_block(rng):
    p = NetworkParams(int(rng.integers(2, 6)), rng.uniform(1.05, 3.0), rng.uniform(0.05, 2.0))
    branch = Branch.PLUS if rng.uniform() < 0.5 else Branch.MINUS
    blocks = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, branch))
    name = "fix" if rng.uniform() < 0.5 else "standard"
    return getattr(blocks, name), (p, branch, name)


def test_census_matches_a_dense_winding_count():
    # the box holds every root right of its left edge, so the half-plane
    # count right of that edge is the box's count too
    rng = np.random.default_rng(20131025)
    for _ in range(200):
        blk, case = _random_block(rng)
        tau = 25.0 * (1.0 - rng.uniform())  # in (0, 25]
        box = upper_bound_box(blk, tau)
        want = dense_winding(blk, tau, box)
        assert want == pytest.approx(round(want), abs=0.01)
        assert root_census(blk, tau, box) == round(want), (case, tau)
        assert unstable_count(blk, tau, shift=1e-6) == round(want), (case, tau)


def test_readme_rightmost_grid_is_certified():
    # pllbif rightmost --nodes 2 --K 1.05 --mu 0.3 --eq minus --tau-grid 0:25:251
    p = NetworkParams(2, 1.05, 0.3)
    blocks = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS))
    taus = np.linspace(0.0, 25.0, 251)
    fix = rightmost_sweep(blocks.fix, taus)
    std = rightmost_sweep(blocks.standard, taus)
    assert sum(a.certified and b.certified for a, b in zip(fix, std)) == 251


def test_warm_start_matches_the_cold_path():
    rng = np.random.default_rng(20030617)
    for _ in range(80):
        blk, case = _random_block(rng)
        tau = 25.0 * (1.0 - rng.uniform())  # in (0, 25]
        warm = rightmost_root(blk, max(tau - 0.5, 0.0)).lam
        cold = rightmost_root(blk, tau)
        est = rightmost_root(blk, tau, extra_seeds=(warm,))
        assert abs(est.lam - cold.lam) <= 1e-14 * (1.0 + abs(cold.lam)), (case, tau)
        assert est.certified == cold.certified, (case, tau)


def test_warm_seed_left_of_the_rightmost_falls_back(monkeypatch):
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    tau = 8.67
    r0, r1, s0 = blk.at(tau)
    rho = spectrum._quadratic_roots(r1, r0)[0]
    chain = rho + lambert_w(2, -s0 * tau * cmath.exp(-rho * tau) / (2.0 * rho + r1)) / tau
    left = spectrum._polish(r0, r1, s0, tau, chain)[0]
    cold = rightmost_root(blk, tau)
    assert left.real < cold.lam.real - 1e-6

    calls = []
    certify = spectrum._certify_rightmost

    def spy(t, lam, *coeffs):
        calls.append((lam, certify(t, lam, *coeffs)))
        return calls[-1][1]

    monkeypatch.setattr(spectrum, "_certify_rightmost", spy)
    est = rightmost_root(blk, tau, extra_seeds=(left,))
    # the warm root fails certification, and the full seed set gives the cold answer
    assert [ok for _, ok in calls] == [False, True]
    assert calls[0][0] in (left, left.conjugate())
    assert est == cold


def test_near_tie_keeps_the_certified_contract():
    # two root pairs of the README fix block trade places between tau = 13.8
    # and 13.9; bisect tau until their real parts agree to 1e-12
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    lo, hi = 13.8, 13.9
    a, b = rightmost_root(blk, lo).lam, rightmost_root(blk, hi).lam
    assert abs(a.imag - b.imag) > 0.2
    for _ in range(60):
        tau = 0.5 * (lo + hi)
        r0, r1, s0 = blk.at(tau)
        a = spectrum._polish(r0, r1, s0, tau, a)[0]
        b = spectrum._polish(r0, r1, s0, tau, b)[0]
        if abs(a.real - b.real) < 1e-12:
            break
        lo, hi = (tau, hi) if a.real > b.real else (lo, tau)
    assert abs(a.real - b.real) < 1e-12
    lower, upper = (a, b) if a.real < b.real else (b, a)

    est = rightmost_root(blk, tau, extra_seeds=(lower,))
    assert est.certified
    assert est.lam == pytest.approx(lower, abs=1e-12)
    # the contract: no root of P has Re > Re lambda + 1e-6; counted by a
    # dense winding with both pairs, which lie just left of the box, divided out
    edge = est.lam.real + 1e-6
    assert upper.real <= edge
    known = (lower, lower.conjugate(), upper, upper.conjugate())
    assert round(dense_winding(blk, tau, box_right_of(blk, tau, edge), known)) == 0


def box_right_of(blk, tau, edge):
    # every root with Re >= edge has |lambda|^2 <= |r1||lambda| + |r0| + |s0| e^{-edge tau}
    r0, r1, s0 = blk.at(tau)
    bound = (abs(r1) + math.sqrt(r1 * r1 + 4.0 * (abs(r0) + abs(s0) * math.exp(-edge * tau)))) / 2.0
    return CensusBox((edge, bound + 1.0), (-bound - 1.0, bound + 1.0))


def test_certification_count_matches_a_dense_winding():
    # the count behind a certificate: the rightmost pair divided out, the line
    # 1e-6 to its right; the dense winding runs on the box with that left edge
    rng = np.random.default_rng(19970301)
    for _ in range(60):
        blk, case = _random_block(rng)
        tau = 25.0 * (1.0 - rng.uniform())  # in (0, 25]
        lam = rightmost_root(blk, tau).lam
        if abs(lam.imag) <= 1e-12:  # a real root, whose imaginary part may be a stray 1e-45
            lam = complex(lam.real)
        known = (lam,) if lam.imag == 0.0 else (lam, lam.conjugate())
        edge = lam.real + 1e-6
        want = dense_winding(blk, tau, box_right_of(blk, tau, edge), known)
        assert want == pytest.approx(round(want), abs=0.01)
        assert spectrum._count(*blk.at(tau), tau, edge, known) == round(want), (case, tau)


def test_a_real_root_with_a_stray_imaginary_part_is_divided_out_once(monkeypatch):
    # Newton leaves this real rightmost root an imaginary part of 1.4e-45; the
    # certificate divides one real factor out of P, not the root twice, which
    # would leave a pole 1e-6 left of the line
    p = NetworkParams(3, 2.5335381299377913, 0.10164487036274605)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).fix
    tau = 13.073149859066262
    seen = []
    count = spectrum._count

    def spy(r0, r1, s0, t, shift, known=()):
        seen.append(known)
        return count(r0, r1, s0, t, shift, known)

    monkeypatch.setattr(spectrum, "_count", spy)
    est = rightmost_root(blk, tau)
    assert 0.0 < abs(est.lam.imag) <= 1e-12
    assert est.certified
    assert seen == [(complex(est.lam.real),)]


def _tally_at_zero_plus(blk):
    # the tau = 0+ roots with Re > 0 are those of lambda^2 + r1 lambda + r0 + s0
    r0, r1, s0 = blk.at(0.0)
    disc = cmath.sqrt(r1 * r1 - 4.0 * (r0 + s0))
    return sum(((-r1 + sg * disc) / 2.0).real > 0.0 for sg in (1.0, -1.0))


def test_unstable_count_at_zero_matches_the_crossing_tally():
    # each crossing of sn_scan moves one conjugate pair across the axis in
    # the direction of its sign; the count at shift 0 between two crossings
    # is the running tally
    rng = np.random.default_rng(20110707)
    for _ in range(30):
        blk, case = _random_block(rng)
        crossings = sn_scan(blk, (0.0, 25.0))
        edges = [0.0, *(c.tau_star for c in crossings), 25.0]
        want = _tally_at_zero_plus(blk)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if i:
                want += 2 * crossings[i - 1].delta_sign
            assert unstable_count(blk, 0.5 * (a + b)) == want, (case, a, b)


def test_a_pair_that_just_crossed_is_counted_at_zero_only():
    # this standard block gains its 14th unstable root at tau* = 24.99979; at
    # the midpoint up to 25 that pair sits at Re lambda = 2.8e-7, right of the
    # axis but left of the line Re = 1e-6
    p = NetworkParams(2, 1.2522292598799094, 1.3375596576318436)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).standard
    crossings = sn_scan(blk, (0.0, 25.0))
    assert crossings[-1].tau_star == pytest.approx(24.99979, abs=1e-5)
    tally = _tally_at_zero_plus(blk) + 2 * sum(c.delta_sign for c in crossings)
    mid = 0.5 * (crossings[-1].tau_star + 25.0)
    assert unstable_count(blk, mid) == tally == 14
    assert unstable_count(blk, mid, shift=1e-6) == 12


def test_unstable_count_of_a_real_rightmost_root():
    # lambda^2 + lambda - 2 + 0.1 e^{-lambda} has one real root near 0.97,
    # which certification divides out as a single factor
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1, delay=1.0)
    est = rightmost_root(blk)
    assert est.lam.imag == 0.0 and 0.9 < est.lam.real < 1.0
    assert est.certified
    r0, r1, s0 = blk.at(1.0)
    assert spectrum._count(r0, r1, s0, 1.0, est.lam.real + 1e-6, (est.lam,)) == 0
    assert unstable_count(blk, shift=est.lam.real - 1e-3) == 1
    assert unstable_count(blk, shift=est.lam.real + 1e-3) == 0


def test_unstable_count_refuses_a_root_on_its_line():
    # a real root at omega = 0, and the rightmost pair of the README fix block
    # at omega > 0
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1, delay=1.0)
    with pytest.raises(BoundaryRootError):
        unstable_count(blk, shift=rightmost_root(blk).lam.real)
    p = NetworkParams(2, 1.05, 0.3)
    fix = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    lam = rightmost_root(fix, 8.67).lam
    assert lam.imag > 0.1
    with pytest.raises(BoundaryRootError):
        unstable_count(fix, 8.67, shift=lam.real)


@pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_delays_are_refused(tau):
    # for tau < 0 the quasi-polynomial is of advanced type and no count exists
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    box = CensusBox((1e-6, 2.0), (-5.0, 5.0))
    for call in (
        lambda: rightmost_root(blk, tau),
        lambda: rightmost_sweep(blk, [tau, 1.0]),
        lambda: root_census(blk, tau, box),
        lambda: unstable_count(blk, tau),
        lambda: unstable_count(blk.with_delay(tau)),
    ):
        with pytest.raises(InvalidParamError):
            call()


def test_non_finite_shift_is_refused():
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1, delay=1.0)
    for shift in (math.nan, math.inf):
        with pytest.raises(InvalidParamError):
            unstable_count(blk, shift=shift)
