"""Locked states of the first-order-in-coupling phase formulation.

Frozen targets: the three locked frequencies at tau = pi for unit coupling,
the fold ladder on (0, 5 pi), the symmetry-breaking Hopf points, and the
steady-state event table.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    BlockKind,
    InvalidParamError,
    NetworkParams,
    RelEqBranch,
    RootBranch,
    equilibrium_case_curves,
    phasemodel,
    relative_hopf_scan,
    releq_branches,
    releq_solve,
    sn_scan,
    zero_root_taus,
)

from branch_blocks import branch_blocks

P21 = NetworkParams(2, 1.0, 1.0)


def locked_residual(omega, tau, k=1.0, wm=1.0):
    return omega + k * math.sin(omega * tau) - wm


def test_releq_solve_at_pi():
    sols = releq_solve(P21, math.pi)
    assert sols == pytest.approx(
        [0.26351555175848335, 1.0, 1.7364844482415165], abs=1e-10
    )
    for om in sols:
        assert locked_residual(om, math.pi) == pytest.approx(0.0, abs=1e-12)
    # the outer pair is symmetric about the synchronized solution
    assert sols[0] + sols[2] == pytest.approx(2.0, abs=1e-10)


def test_releq_solve_small_delay_unique():
    sols = releq_solve(P21, 0.3)
    assert len(sols) == 1
    assert locked_residual(sols[0], 0.3) == pytest.approx(0.0, abs=1e-12)


# exact folds of tau(phi) = phi / (1 - sin phi): zeros of 1 - sin phi + phi cos phi
FOLDS = [
    2.2427566294922054,
    5.45180084920177,
    8.610312075866371,
    11.759700567768684,
    14.905786795760521,
]
BIRTHS = [0.0] + [f for f in FOLDS for _ in range(2)]


def test_branch_ladder_on_five_pi():
    brs = releq_branches(P21, (0.0, 5.0 * math.pi))
    assert len(brs) == 11
    assert [b.branch_id for b in brs] == list(range(11))
    for b, birth in zip(brs, BIRTHS):
        assert b.birth_tau == pytest.approx(birth, abs=1e-9)
        assert float(b.taus[-1]) == pytest.approx(5.0 * math.pi, abs=1e-12)
    # folds appear in pairs beyond the primary branch
    assert float(brs[0].omegas[0]) == pytest.approx(1.0)


def test_releq_solve_finds_pairs_born_inside_one_grid_cell():
    # just past the third and fifth folds: the newborn pair sits close together
    for tau, count in ((8.6113, 7), (14.9358, 11)):
        sols = releq_solve(P21, tau)
        assert len(sols) == count
        for om in sols:
            assert abs(locked_residual(om, tau)) <= 1e-12


@pytest.mark.parametrize("k", [0.7, 1.0, 1.5, 2.3])
def test_births_are_folds_of_the_locked_relation(k):
    p = NetworkParams(2, k, 1.0)
    born = [b for b in releq_branches(p, (0.0, 3.0 * math.pi)) if b.birth_tau > 0.0]
    assert born
    for b in born:
        tau = b.birth_tau
        # every candidate solves the fold condition 1 + K tau cos(Omega tau) = 0;
        # tau is a fold delay only if one of them also solves the locked relation
        c = math.acos(-1.0 / (k * tau))
        cands = [
            (s * c + 2.0 * math.pi * m) / tau
            for s in (1.0, -1.0)
            for m in range(-10, 12)
        ]
        om = min(cands, key=lambda o: abs(locked_residual(o, tau, k)))
        assert abs(1.0 + k * tau * math.cos(om * tau)) <= 1e-9
        assert abs(locked_residual(om, tau, k)) <= 1e-9


def sign_change_count(k, tau):
    """Roots of Omega + K sin(Omega tau) - 1 on [1 - K, 1 + K], counted without solving.

    The residual is monotone between its critical points
    Omega tau = +-acos(-1/(K tau)) + 2 pi m, so each sign change of its values
    at 1 - K, the critical points and 1 + K is one root.
    """
    edges = [1.0 - k, 1.0 + k]
    if k * tau > 1.0:
        c = math.acos(-1.0 / (k * tau))
        turns = 2.0 * math.pi * np.arange(math.floor((1.0 - k) * tau / (2.0 * math.pi)) - 1,
                                          (1.0 + k) * tau / (2.0 * math.pi) + 2)
        crit = np.concatenate([(turns + c) / tau, (turns - c) / tau])
        edges += list(crit[(crit > 1.0 - k) & (crit < 1.0 + k)])
    e = np.sort(edges)
    g = e + k * np.sin(e * tau) - 1.0
    return int(np.sum(g[:-1] * g[1:] < 0.0))


def test_branches_alive_at_a_delay_match_the_root_count():
    # branches and releq_solve both cut the phase curve at its folds; the sign
    # changes of the residual between its critical points count the same roots
    # independently
    rng = np.random.default_rng(3)
    for k in rng.uniform(0.3, 2.0, 20):
        p = NetworkParams(2, float(k), 1.0)
        taus = rng.uniform(0.0, 16.0, 10)
        alive = sum(
            np.abs(om + k * np.sin(om * taus) - 1.0) <= 1e-9
            for om in (b.omega_hat(taus) for b in releq_branches(p, (0.0, 16.0)))
        )
        counts = [sign_change_count(k, t) for t in taus]
        assert list(alive) == counts, k
        assert [len(releq_solve(p, t)) for t in taus] == counts, k


def test_releq_solve_counts_the_double_root_at_a_fold():
    # at a fold delay the two pieces born there meet: their double root counts twice
    for tau, count in zip(FOLDS, (3, 5, 7, 9, 11)):
        sols = releq_solve(P21, tau)
        assert len(sols) == count
        assert min(b - a for a, b in zip(sols, sols[1:])) < 1e-6
        for om in sols:
            assert abs(locked_residual(om, tau)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    k=st.floats(0.3, 3.0),
    start=st.one_of(st.just(0.0), st.floats(0.0, 15.0)),
    span=st.floats(0.5, 15.0),
)
def test_branch_ids_follow_birth_then_phase(k, start, span):
    # the one numbering of releq and snmap --model phase: by birth, and among
    # branches born together by phase piece, which is the order of their first
    # locked frequency, as they share their first delay and Omega_hat = phi / tau
    brs = releq_branches(NetworkParams(2, k, 1.0), (start, start + span))
    assert [b.branch_id for b in brs] == list(range(len(brs)))
    keys = [(b.birth_tau, b.phase_piece[0]) for b in brs]
    assert keys == sorted(keys)
    for a, b in zip(brs, brs[1:]):
        if a.birth_tau == b.birth_tau:
            assert a.taus[0] == b.taus[0]
            assert a.omegas[0] <= b.omegas[0]


def test_branch_samples_are_counted_before_any_branch_is_solved(monkeypatch):
    # K = 1 on [0, 1e6]: 636,620 phase intervals, and branches of up to 2000
    # grid delays each; the first step of intervals already passes the budget
    def refuse(tau, k):
        raise AssertionError("a branch was solved")

    brackets = []
    solve = phasemodel._solve

    def count(f, a, b, x0=None):
        brackets.append(np.size(a))
        return solve(f, a, b, x0)

    monkeypatch.setattr(phasemodel, "_phase_equation", refuse)
    monkeypatch.setattr(phasemodel, "_solve", count)
    budget = r"delay window \[0, 1e\+06\] holds more than the budget of 2\^20"
    with pytest.raises(InvalidParamError, match=budget):
        releq_branches(P21, (0.0, 1e6))
    with pytest.raises(InvalidParamError, match=budget):
        relative_hopf_scan(P21, BlockKind.FIX, (0.0, 1e6))
    assert 0 < sum(brackets) <= 2 * 4096  # one step of intervals per call
    # [0, 1000] holds 637 branches and about 638,000 grid delays, within it
    assert len(phasemodel._branch_grids(1.0, (0.0, 1000.0))) == 637


@settings(max_examples=25, deadline=None)
@given(k=st.floats(0.05, 4.0), t1=st.floats(0.0, 300.0), step=st.integers(1, 64))
def test_pieces_built_in_steps_are_the_pieces_built_at_once(k, t1, step):
    # the cuts of each step of intervals, joined across the step ends, are
    # those of one build over the whole phase range, to the bit
    def joined():
        return np.concatenate([np.array(arrays) for arrays in phasemodel._pieces(k, t1)], axis=1)

    whole = joined()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasemodel, "_STEP", step)
        stepped = joined()
    assert stepped.shape == whole.shape and stepped.tobytes() == whole.tobytes()


def test_branch_samples_satisfy_locked_relation():
    brs = releq_branches(P21, (0.0, 4.0 * math.pi))
    for b in brs:
        mid = 0.5 * (b.birth_tau + float(b.taus[-1]))
        om = b.omega_hat(mid)
        assert locked_residual(om, mid) == pytest.approx(0.0, abs=1e-9)


def test_relative_hopf_scan_frozen():
    crossings = relative_hopf_scan(P21, BlockKind.STANDARD, (0.0, 8.0))
    assert len(crossings) == 2
    first, second = crossings
    assert first.branch_id == 2
    assert first.crossing.tau_star == pytest.approx(3.19822199552958, abs=1e-8)
    assert first.crossing.omega == pytest.approx(0.6305052898055223, abs=1e-8)
    assert first.crossing.omega_candidate.root_branch is RootBranch.PLUS
    assert first.crossing.delta == pytest.approx(0.05865100714068282, abs=1e-8)
    assert first.crossing.delta_sign == 1
    assert second.branch_id == 4
    assert second.crossing.tau_star == pytest.approx(6.374805516855766, abs=1e-8)


def test_steep_crossings_are_not_taken_for_theta_jumps():
    # pllbif snmap --model phase --nodes 2 --K 2.991282145584547
    #   --mu 1.881400919447218 --block standard --tau-window 0:25.604701871564412
    # two n = 0 crossings at w ~ 0.13, where S_n is so steep that bisection
    # down to rounding still leaves |S_n| ~ 1e-9; a theta jump would leave the
    # bracket's ends 2 pi/w ~ 50 apart
    p = NetworkParams(2, 2.991282145584547, 1.881400919447218)
    window = (0.0, 25.604701871564412)
    scan = relative_hopf_scan(p, BlockKind.STANDARD, window)
    assert len(scan) == 229
    branches = {b.branch_id: b for b in releq_branches(p, window)}
    for branch_id, near in ((42, 22.59413), (44, 24.22996)):
        [c] = [
            pc.crossing for pc in scan
            if pc.branch_id == branch_id and abs(pc.crossing.tau_star - near) < 1e-5
        ]
        assert c.winding == 0
        # the standard block along the branch, written out: with
        # a = K mu cos(Omega tau), P = lambda^2 + mu lambda + a + a e^{-lambda tau}/(N - 1)
        tau = c.tau_star
        a = p.coupling * p.filter_gain * math.cos(branches[branch_id].omega_hat(tau) * tau)
        lam = 1j * c.omega
        res = (lam + p.filter_gain) * lam + a + a * cmath.exp(-lam * tau) / (p.n_nodes - 1)
        assert abs(res) <= 1e-9 * (abs(lam) ** 2 + p.filter_gain * abs(lam) + 2.0 * abs(a))


@pytest.mark.parametrize(
    "nodes, k, mu, end, root, n, near",
    [
        # pllbif snmap --model phase --nodes 3 --K 2.568455806327652
        #   --mu 0.26919119591052904 --block standard --tau-window 0:18.90581270887223
        (3, 2.568455806327652, 0.26919119591052904, 18.90581270887223, "plus", 0, 3.750406),
        (4, 2.6876295392495817, 0.2578944980159561, 20.28615237807057, "plus", 0, 2.319088),
        (3, 2.8468859642095388, 0.5467195919853003, 22.234701848717954, "plus", 0, 1.846687),
        (3, 2.6039017440840597, 0.16111538259446734, 12.248140908953838, "minus", 0, 6.735976),
        (4, 2.6783457865239377, 0.0695177418939642, 17.155258835824455, "plus", 0, 8.335649),
        (3, 2.567845776329596, 0.32304042330701754, 17.307940584724264, "minus", 1, 14.020894),
    ],
)
def test_crossings_in_the_cell_where_their_frequency_is_born(nodes, k, mu, end, root, n, near):
    # w exists on only part of the grid cell that holds the crossing, so u is
    # NaN at one of the cell's ends: the scan must bisect for the edge of w's
    # existence to bracket it
    p = NetworkParams(nodes, k, mu)
    window = (0.0, end)
    branches = {b.branch_id: b for b in releq_branches(p, window)}
    [pc] = [
        pc for pc in relative_hopf_scan(p, BlockKind.STANDARD, window)
        if abs(pc.crossing.tau_star - near) < 1e-6
    ]
    c = pc.crossing
    assert (c.omega_candidate.root_branch.value, c.winding) == (root, n)
    # the standard block along the branch, written out as above
    tau = c.tau_star
    a = k * mu * math.cos(branches[pc.branch_id].omega_hat(tau) * tau)
    lam = 1j * c.omega
    res = (lam + mu) * lam + a + a * cmath.exp(-lam * tau) / (nodes - 1)
    assert abs(res) <= 1e-9 * (abs(lam) ** 2 + mu * abs(lam) + 2.0 * abs(a))


def _delay_scan_matches_phase_scan(p, window, block):
    """Branch ids of relative_hopf_scan's crossings, each checked against sn_scan.

    sn_scan runs on the block along each branch in the delay (Omega_hat
    solved at every delay it evaluates), relative_hopf_scan in the branch's
    phase with its closed-form rate; both must find the same crossings.
    """
    by_phase = relative_hopf_scan(p, block, window)
    found = 0
    for br in releq_branches(p, window):
        blocks = branch_blocks(p, br)
        blk = blocks.fix if block is BlockKind.FIX else blocks.standard
        by_delay = sn_scan(blk, (float(br.taus[0]), float(br.taus[-1])))
        mine = [pc.crossing for pc in by_phase if pc.branch_id == br.branch_id]
        assert [(c.omega_candidate.root_branch, c.winding, c.delta_sign) for c in by_delay] == [
            (c.omega_candidate.root_branch, c.winding, c.delta_sign) for c in mine
        ]
        for a, b in zip(by_delay, mine):
            assert a.tau_star == pytest.approx(b.tau_star, rel=1e-11)
            assert a.omega == pytest.approx(b.omega, rel=1e-9)
            # delta from the block's delay derivatives, and from the phase
            # scan's closed-form rate along the branch
            assert a.delta == pytest.approx(b.delta, rel=1e-9)
        found += len(mine)
    assert found == len(by_phase)
    return [pc.branch_id for pc in by_phase]


@pytest.mark.parametrize("block", list(BlockKind))
def test_delay_scan_of_a_branch_block_finds_the_phase_scan_crossings(block):
    ids = _delay_scan_matches_phase_scan(NetworkParams(2, 2.0, 0.5), (0.0, 12.0), block)
    assert len(ids) == (15 if block is BlockKind.FIX else 20)


@pytest.mark.parametrize("block", list(BlockKind))
@pytest.mark.parametrize(
    "nodes, k, mu, end, counts",
    [(3, 0.8, 0.15, 15.0, (4, 4)), (5, 2.0, 0.1, 8.0, (5, 4))],
)
def test_the_phase_scan_rate_matches_the_delay_scan_at_more_couplings(nodes, k, mu, end, counts, block):
    # K < 1 at N = 3 and K > 1 at N = 5, each block crossing on two or more branches
    ids = _delay_scan_matches_phase_scan(NetworkParams(nodes, k, mu), (0.0, end), block)
    assert len(ids) == counts[block is BlockKind.STANDARD]
    assert len(set(ids)) >= 2


def test_phase_scan_solves_for_no_locked_frequency(monkeypatch):
    # the scan reads the branch from its phase map: no delay-to-phase solve
    def refuse(self, tau):
        raise AssertionError("omega_hat called")

    monkeypatch.setattr(RelEqBranch, "omega_hat", refuse)
    p = NetworkParams(2, 2.0, 0.5)
    for block, count in ((BlockKind.FIX, 15), (BlockKind.STANDARD, 20)):
        assert len(relative_hopf_scan(p, block, (0.0, 12.0))) == count


@settings(max_examples=25, deadline=None)
@given(
    nodes=st.integers(2, 5),
    k=st.floats(0.3, 3.0),
    mu=st.floats(0.05, 2.0),
    end=st.floats(1.0, 20.0),
    block=st.sampled_from(BlockKind),
)
def test_phase_crossings_lie_on_the_axis_of_their_named_branch(nodes, k, mu, end, block):
    # each crossing, found in its branch's phase, is a root i w of the block
    # written out at the locked frequency of the releq_branches branch its id names
    p = NetworkParams(nodes, k, mu)
    window = (0.0, end)
    branches = releq_branches(p, window)
    for pc in relative_hopf_scan(p, block, window):
        br, c = branches[pc.branch_id], pc.crossing
        tau = c.tau_star
        assert br.taus[0] - 1e-9 <= tau <= br.taus[-1] + 1e-9
        a = k * mu * math.cos(br.omega_hat(tau) * tau)
        s = -a if block is BlockKind.FIX else a / (nodes - 1)
        lam = 1j * c.omega
        res = (lam + mu) * lam + a + s * cmath.exp(-lam * tau)
        assert abs(res) <= 1e-9 * (abs(lam) ** 2 + mu * abs(lam) + 2.0 * abs(a))


# ---------------------------------------------------------------------------
# steady-state events of the symmetry-breaking block


@settings(max_examples=25, deadline=None)
@given(
    k=st.floats(0.1, 3.0),
    t0=st.floats(0.0, 10.0),
    span=st.floats(0.5, 12.0),
    inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    beyond=st.floats(1e-9, 2.0),
)
def test_scalar_omega_hat_is_the_array_value_to_the_bit(k, t0, span, inner, beyond):
    # a single delay gives a float: inside a branch, at its ends and beyond
    # them it must be the array path's element, bit for bit
    for br in releq_branches(NetworkParams(3, k, 0.5), (t0, t0 + span)):
        lo, hi = float(br.taus[0]), float(br.taus[-1])
        taus = np.array([lo, hi, lo - beyond, hi + beyond, *(lo + u * (hi - lo) for u in inner)])
        arr = br.omega_hat(taus)
        for tau, want in zip(taus, arr):
            got = br.omega_hat(np.asarray(tau))
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (k, br.branch_id, tau)
            assert br.omega_hat(float(tau)) == got


def test_zero_root_unit_coupling():
    evs = zero_root_taus(P21, range(0, 4))
    # even windings need omega_M > K and are filtered out at K = 1
    assert [e.n for e in evs] == [1, 3]
    assert evs[0].tau_star == pytest.approx(0.75 * math.pi, abs=1e-14)
    assert evs[0].delta0 == pytest.approx(-4.0, abs=1e-14)
    assert evs[0].omega_hat == pytest.approx(2.0, abs=1e-14)


ZERO_TABLE = [
    (2.6179938779914944, 1, -2.88, 1.8),
    (6.1086523819801535, 3, -2.88, 1.8),
    (7.853981633974485, 0, 0.32, 0.2),
    (9.59931088596881, 5, -2.88, 1.8),
    (39.26990816987242, 2, 0.32, 0.2),
    (70.68583470577036, 4, 0.32, 0.2),
    (102.10176124166831, 6, 0.32, 0.2),
]


def test_zero_root_table_below_unit_coupling():
    evs = zero_root_taus(NetworkParams(2, 0.8, 0.5), range(0, 7))
    assert len(evs) == len(ZERO_TABLE)
    for ev, (tau, n, d0, oh) in zip(evs, ZERO_TABLE):
        assert ev.tau_star == pytest.approx(tau, abs=1e-12)
        assert ev.n == n
        assert ev.delta0 == pytest.approx(d0, abs=1e-12)
        assert ev.omega_hat == pytest.approx(oh, abs=1e-12)
    # sorted by delay, odd and even windings interleaved
    taus = [e.tau_star for e in evs]
    assert taus == sorted(taus)


@settings(max_examples=60, deadline=None)
@given(
    k=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 3.0)),
    start=st.integers(-20, 20),
    stop=st.integers(-20, 40),
    step=st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
def test_zero_root_events_are_the_loop_over_the_range(k, start, stop, step):
    # the events are counted by sign and parity; the loop over every n is the reference
    n_range = range(start, stop, step)
    want = []
    for n in n_range:
        denom = 1.0 + (-1.0) ** (n + 1) * k
        if denom <= 0.0:
            continue
        tau = (math.pi / 2.0 + n * math.pi) / denom
        if tau >= 0.0:
            want.append((tau, n, (-1.0) ** n * (k * 3 / 2) * denom, denom))
    want.sort(key=lambda e: e[0])  # stable: ties keep the range's order
    got = zero_root_taus(NetworkParams(3, k, 0.5), n_range)
    assert [(e.tau_star, e.n, e.delta0, e.omega_hat) for e in got] == want


def test_zero_root_formula_consistency():
    # tau* (omega_M + (-1)^{n+1} K) = pi/2 + n pi for every reported event
    for params in (NetworkParams(2, 0.8, 0.5), NetworkParams(3, 0.6, 0.2)):
        for ev in zero_root_taus(params, range(0, 5)):
            lhs = ev.tau_star * ev.omega_hat
            assert lhs == pytest.approx(math.pi / 2 + ev.n * math.pi, abs=1e-10)


def test_equilibrium_case_curves_solve_the_angle_condition():
    grids = (np.linspace(0.1, 1.5, 15), np.linspace(0.02, 4.0, 50))
    for n, mu_grid in itertools.product((1, 2, 3), grids):
        rows = equilibrium_case_curves(n, range(1, 5), mu_grid)
        # one Hopf point per mu and m: mu = omega cot(pi (m - n omega)) is monotone
        assert [(r.m, r.mu) for r in rows] == [(m, float(mu)) for m in range(1, 5) for mu in mu_grid]
        for r in rows:
            assert r.n == n
            w = math.sqrt(2.0 * r.coupling * r.mu - r.mu * r.mu)
            assert r.omega == pytest.approx(w, abs=1e-10)
            ang = math.atan2(-w, r.mu - r.coupling) + 2.0 * r.m * math.pi
            assert abs(w - ang / (2.0 * n * math.pi)) <= 1e-12


def test_equilibrium_case_curves_need_m_of_at_least_one():
    # the crossing frequency would lie in ((m - 1/2) / n, m / n), below zero
    assert equilibrium_case_curves(1, range(-1, 1), np.linspace(0.1, 1.5, 15)) == []


def test_equilibrium_case_curves_refuse_a_non_integer_family_index():
    # int(1.5) would give the tau = 2 pi curves for a delay family that has none
    with pytest.raises(InvalidParamError):
        equilibrium_case_curves(1.5, range(1, 3), [0.5])


@pytest.mark.parametrize("mu", [0.0, -0.5, math.nan, math.inf])
def test_equilibrium_case_curves_refuse_a_bad_mu(mu):
    with pytest.raises(InvalidParamError):
        equilibrium_case_curves(1, range(1, 3), [0.5, mu])
