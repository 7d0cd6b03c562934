import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pllbif import spectrum
from pllbif.charfun import p_dp
from pllbif.snmap import _b_c, omega_candidates
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


@pytest.mark.parametrize(
    "z", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 1.0)]
)
@pytest.mark.parametrize("k", range(-3, 4))
def test_lambert_refuses_a_non_finite_argument(k, z):
    # no branch's domain holds it; rightmost_root skips a chain on this error
    with pytest.raises(BranchDomainError):
        lambert_w(k, z)


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
    q = constant_quasi_polynomial(0.7, 0.3, -0.2)
    est = rightmost_root(q, 0.0)
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
    # a root pair just left of the line leaves the count of P's roots right
    # of the line unchanged
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    lam = rightmost_root(blk, 8.67).lam
    coeffs = blk.at(8.67)
    shift = lam.real + 1e-6
    assert spectrum._count(*coeffs, 8.67, shift) == 0
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


def dense_samples(blk, tau, box, known=()):
    """Points z densely sampled once around the box, and P(z) there.

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
    return z, f


def dense_winding(blk, tau, box, known=()):
    """Winding number of P around the box from the unwrapped phase of ``dense_samples``."""
    phase = np.unwrap(np.angle(dense_samples(blk, tau, box, known)[1]))
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
    # at tau = 2e4 the delay-scaled samples exceed the budget of 500,000
    # evaluations: the census fails before sampling, never samples coarser
    with pytest.raises(NoConvergenceError, match="initial samples"):
        root_census(blk, 2e4, box)


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
        assert spectrum._count(*blk.at(tau), tau, edge) == round(want), (case, tau)


def test_a_real_root_with_a_stray_imaginary_part_is_divided_out_once():
    # Newton leaves this real rightmost root an imaginary part of 1.4e-45; it
    # is still certified rightmost
    p = NetworkParams(3, 2.5335381299377913, 0.10164487036274605)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).fix
    tau = 13.073149859066262
    est = rightmost_root(blk, tau)
    assert 0.0 < abs(est.lam.imag) <= 1e-12
    assert est.certified


def excluded(r0, r1, s0, tau, shift) -> bool:
    """True if |p| alone (p = z^2 + r1 z + r0) keeps every root of P left of Re = shift.

    A root z of P has |p(z)| = |s0| e^{-tau Re z}, at most B = |s0| e^{-shift tau}
    when Re z >= shift.  With c = a^2 + r1 a + r0 and d = 2 a + r1 (a = shift),
    p(a + w) = w^2 + d w + c has both roots left of the line exactly when
    c > 0 and d > 0; then |p| is smallest on the line, where its least value
    is c if d^2 >= 2c and d sqrt(c - d^2/4) otherwise.  It must exceed B by
    a margin over 20 times the rounding of c.  This is the delay-independent
    stability bound (Stepan, *Retarded Dynamical Systems*, 1989), the rule
    that draws the cases of the exclusion tests below.
    """
    a = shift
    c = (a + r1) * a + r0
    d = 2.0 * a + r1
    if not (c > 0.0 and d > 0.0):
        return False
    try:
        bound = abs(s0) * math.exp(-a * tau)
    except OverflowError:
        return False
    low = c if d * d >= 2.0 * c else d * math.sqrt(c - 0.25 * d * d)
    margin = 1e-12 + 1e-14 * (abs(a + r1) * abs(a) + abs(r0)) / c
    return low > bound * (1.0 + margin)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    c=st.floats(-0.5, 4.0),
    d=st.floats(-1.0, 4.0),
    ratio=st.floats(-1.05, 1.05),
    tau=st.floats(0.0, 20.0),
    shift=st.floats(-0.5, 1.0),
)
def test_an_excluded_half_plane_holds_no_root(c, d, ratio, tau, shift):
    # p(shift + w) = w^2 + d w + c, whose roots lie left of the line only
    # for c, d > 0, and |s0| e^{-shift tau} is |ratio| times min |p| on the
    # line.  Every draw the exclusion passes is checked against a dense
    # winding of the box that holds every root right of the line, and the
    # crossing tally must count 0 there too.  A root within a few sample
    # steps of the box can turn the phase by 2 pi between two samples,
    # unseen; such a draw, with |P| / |P'| (about the distance to the nearest
    # root) below 4 steps at some sample, is beyond that reference's
    # resolution and is not judged
    r1 = d - 2.0 * shift
    r0 = c - (shift + r1) * shift
    low = abs(c) if d * d >= 2.0 * c else abs(d) * math.sqrt(c - d * d / 4.0)
    s0 = ratio * low * math.exp(shift * tau)
    assume(excluded(r0, r1, s0, tau, shift))
    blk = constant_quasi_polynomial(r0, r1, s0)
    box = box_right_of(blk, tau, shift)
    z, f = dense_samples(blk, tau, box)
    fp = p_dp(r0, r1, s0, tau, z, exp=np.exp)[1]
    with np.errstate(divide="ignore", over="ignore"):
        assume(np.min(np.abs(f) / np.abs(fp)) > 4.0 * np.max(np.abs(np.diff(z))))
    assert round(dense_winding(blk, tau, box), 2) == 0.0
    assert spectrum._count(r0, r1, s0, tau, shift) == 0


def test_a_root_on_or_right_of_the_line_is_not_excluded():
    # P(lambda0) = 0 at lambda0 = a + i omega0, solved for real r0 and s0;
    # then |p(lambda0)| = |s0| e^{-a tau} exactly: the exclusion's bound
    # itself, met on the line
    a, w0, r1, tau = 0.05, 0.8, 0.4, 6.0
    lam0 = complex(a, w0)
    q, e = lam0 * lam0 + r1 * lam0, cmath.exp(-lam0 * tau)
    s0 = -q.imag / e.imag
    r0 = -q.real - s0 * e.real
    assert abs(q + r0 + s0 * e) <= 1e-15
    assert (a + r1) * a + r0 > 0.0 and 2.0 * a + r1 > 0.0  # p's roots are left of the line
    assert not excluded(r0, r1, s0, tau, a)
    with pytest.raises(BoundaryRootError):
        spectrum._count(r0, r1, s0, tau, a)
    # a real root on the line: |p(a)| = c is the bound
    s0 = 0.3
    r0 = -(a + r1) * a - s0 * math.exp(-a * tau)
    assert not excluded(r0, r1, s0, tau, a)
    with pytest.raises(BoundaryRootError):
        spectrum._count(r0, r1, s0, tau, a)
    # p(a + w) = (w - 1/2)^2: |p| >= 1/4 on the line, above the bound
    # 0.1 e^{-a tau}, but p's double root a + 1/2 lies right of it
    r1 = -1.0 - 2.0 * a
    r0 = 0.25 - (a + r1) * a
    assert not excluded(r0, r1, 0.1, tau, a)
    assert spectrum._count(r0, r1, 0.1, tau, a) == 2
    blk = constant_quasi_polynomial(r0, r1, 0.1)
    assert round(dense_winding(blk, tau, box_right_of(blk, tau, a)), 2) == 2.0


def test_the_exclusion_certifies_a_delay_independent_block(monkeypatch):
    # min |p(i omega)| = 1.539 exceeds |s0| = 0.382: no delay destabilizes
    # this block, and sn_scan finds no crossing up to tau = 25
    p = NetworkParams(2, 1.5, 1.0)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    assert sn_scan(blk, (0.0, 25.0)) == []
    sampled = []
    census = spectrum.root_census
    monkeypatch.setattr(spectrum, "root_census", lambda *args: sampled.append(args) or census(*args))
    for tau in (0.5, 3.0, 9.5, 25.0):
        assert excluded(*blk.at(tau), tau, 0.0)
        assert unstable_count(blk, tau) == 0
        assert round(dense_winding(blk, tau, upper_bound_box(blk, tau))) == 0
    assert sampled == []
    # the README rightmost block at tau = 9.5: its certification line, 1e-6
    # right of the rightmost root, is not excluded, and is counted without
    # sampling too
    p = NetworkParams(2, 1.05, 0.3)
    fix = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    est = rightmost_root(fix, 9.5)
    assert est.certified and sampled == []
    assert not excluded(*fix.at(9.5), 9.5, est.lam.real + 1e-6)


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
    # lambda^2 + lambda - 2 + 0.1 e^{-lambda} has one real root near 0.97
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1)
    est = rightmost_root(blk, 1.0)
    assert est.lam.imag == 0.0 and 0.9 < est.lam.real < 1.0
    assert est.certified
    r0, r1, s0 = blk.at(1.0)
    assert spectrum._count(r0, r1, s0, 1.0, est.lam.real + 1e-6) == 0
    assert unstable_count(blk, 1.0, shift=est.lam.real - 1e-3) == 1
    assert unstable_count(blk, 1.0, shift=est.lam.real + 1e-3) == 0


def test_unstable_count_refuses_a_root_on_its_line():
    # a real root at omega = 0, and the rightmost pair of the README fix block
    # at omega > 0
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1)
    with pytest.raises(BoundaryRootError):
        unstable_count(blk, 1.0, shift=rightmost_root(blk, 1.0).lam.real)
    p = NetworkParams(2, 1.05, 0.3)
    fix = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    lam = rightmost_root(fix, 8.67).lam
    assert lam.imag > 0.1
    with pytest.raises(BoundaryRootError):
        unstable_count(fix, 8.67, shift=lam.real)


def test_a_root_near_the_line_at_a_short_delay_is_refused():
    # the rightmost pair lies 1e-9 right of the line.  At this short delay
    # theta turns faster with w than w tau does, so the point where the
    # latest crossing meets the line misses the pair; the root test at the
    # crossing frequency w itself finds it
    blk = constant_quasi_polynomial(0.2607920820733611, 0.788757167127649, 2.3855703890589206)
    tau = 0.05617287805772253
    lam = rightmost_root(blk, tau).lam
    assert lam.imag > 0.1
    with pytest.raises(BoundaryRootError):
        unstable_count(blk, tau, shift=lam.real - 1e-9)


def test_a_delay_free_block_is_counted_from_its_quadratic():
    # s0 = 0: P = lambda^2 + r1 lambda + r0 has no crossings.  With r1 = 0 its
    # roots +-i sit on the axis, where F's double root w = 1 finds them
    on_axis = constant_quasi_polynomial(1.0, 0.0, 0.0)
    with pytest.raises(BoundaryRootError):
        unstable_count(on_axis, 1.0)
    damped = constant_quasi_polynomial(1.0, 0.5, 0.0)  # roots -1/4 +- 0.97i
    assert [unstable_count(damped, 1.0, shift=a) for a in (0.0, -0.5)] == [0, 2]


def census_right_of(blk, tau, edge):
    """``root_census`` of every root with Re > edge, or None where that census cannot judge.

    The census dilates its box when a root sits on an edge, so a root within
    about 1e-5 of the line may be counted on either side: the counts with the
    left edge 1e-5 to either side must agree.  A box whose initial samples
    exceed 25,000 per census is beyond this test's budget.
    """
    counts = []
    for left in (edge - 1e-5, edge + 1e-5):
        box = box_right_of(blk, tau, left)
        span = max(box.re_interval[1] - left, box.im_interval[1] - box.im_interval[0])
        if 4 * (max(32, math.ceil(4.0 * tau * span / math.pi)) + 1) > 25_000:
            return None
        counts.append(root_census(blk, tau, box))
    return counts[0] if counts[0] == counts[1] else None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0.0, 100.0, exclude_min=True),
    kind=st.sampled_from(["zero", "1e-6", "uniform", "-r1/2"]),
    u=st.floats(-0.2, 0.2),
)
# the smallest normal delay: the probe where the latest crossing meets the
# line lies at Im lambda = 1.4e308, where P overflows
@example(seed=25, tau=2.2250738585072014e-308, kind="-r1/2", u=0.0)
def test_the_crossing_tally_matches_the_census(seed, tau, kind, u):
    # the census samples P around a box; the tally reads only the crossing
    # ladders, so they share no code but the evaluator.  shift = -r1/2 makes
    # the shifted damping 0: the tau = 0 pair starts on the line
    blk, case = _random_block(np.random.default_rng(seed))
    shift = {"zero": 0.0, "1e-6": 1e-6, "uniform": u, "-r1/2": -blk.r1 / 2.0}[kind]
    want = census_right_of(blk, tau, shift)
    assume(want is not None)
    assert unstable_count(blk, tau, shift) == want, (case, tau, shift)


def test_the_crossing_tally_counts_the_readme_block_at_long_delays():
    # pllbif rightmost's block; e^{-lambda tau} turns about 1e4 rad per unit
    # of Im lambda at the longest delay the census is asked for
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    for tau, want in ((2e3, 122), (5e3, 304), (1e4, 606)):
        assert unstable_count(blk, tau) == want
        assert root_census(blk, tau, box_right_of(blk, tau, 0.0)) == want
    # at tau = 1e6 every root has Re lambda < 1e-6 (about 0.157/tau at most),
    # and the count right of 1e-6 comes back without sampling the line
    assert unstable_count(blk, 1e6, shift=1e-6) == 0
    # on the axis itself pairs lie closer than 1e-8: the one Newton finds
    # from the crossing frequency is a boundary root
    r0, r1, s0 = blk.at(1e6)
    w = max(c.omega for c in omega_candidates(*_b_c(r0, r1, s0)))
    lam = 1j * w
    for _ in range(40):
        f, fp, _ = p_dp(r0, r1, s0, 1e6, lam)
        lam -= f / fp
    assert abs(p_dp(r0, r1, s0, 1e6, lam)[0]) < 1e-10 and abs(lam.real) < 1e-8
    with pytest.raises(BoundaryRootError):
        unstable_count(blk, 1e6)


def test_a_delay_too_long_to_resolve_is_refused():
    # w tau is about 7e16 here: its rounding alone exceeds a turn, so no
    # crossing can be placed before or after tau, and no count is guessed.
    # Left of the axis at tau = 400, s0 e^{400} is finite but its square,
    # and so every crossing frequency, overflows
    p = NetworkParams(2, 1.05, 0.3)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)).fix
    for tau, shift in ((1e17, 0.0), (400.0, -1.0)):
        with pytest.raises(NoConvergenceError):
            unstable_count(blk, tau, shift)


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
    ):
        with pytest.raises(InvalidParamError):
            call()


def test_non_finite_shift_is_refused():
    blk = constant_quasi_polynomial(-2.0, 1.0, 0.1)
    for shift in (math.nan, math.inf):
        with pytest.raises(InvalidParamError):
            unstable_count(blk, 1.0, shift=shift)
