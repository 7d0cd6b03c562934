"""Locked states of the first-order-in-coupling phase formulation.

Frozen targets: the three locked frequencies at tau = pi for unit coupling,
the fold ladder on (0, 5 pi), the symmetry-breaking Hopf points, and the
steady-state event table.
"""

import math

import numpy as np
import pytest

from pllbif import (
    BlockKind,
    NetworkParams,
    RootBranch,
    equilibrium_case_curves,
    relative_hopf_scan,
    releq_branches,
    releq_solve,
    zero_root_taus,
)

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


def test_branches_alive_at_a_delay_match_the_root_count():
    # branches bracket roots between folds of tau(phi), releq_solve between
    # critical points in Omega_hat: two independent counts of the same roots
    rng = np.random.default_rng(3)
    for k in rng.uniform(0.3, 2.0, 20):
        p = NetworkParams(2, float(k), 1.0)
        taus = rng.uniform(0.0, 16.0, 10)
        alive = sum(
            np.abs(om + k * np.sin(om * taus) - 1.0) <= 1e-9
            for om in (b.omega_hat(taus) for b in releq_branches(p, (0.0, 16.0)))
        )
        assert list(alive) == [len(releq_solve(p, t)) for t in taus], k


def test_branch_samples_satisfy_locked_relation():
    brs = releq_branches(P21, (0.0, 4.0 * math.pi))
    for b in brs:
        mid = 0.5 * (b.birth_tau + float(b.taus[-1]))
        om = b.omega_hat(mid)
        assert locked_residual(om, mid) == pytest.approx(0.0, abs=1e-9)


def test_omega_hat_prime_matches_finite_difference():
    b = releq_branches(P21, (0.0, 8.0))[0]
    tau, h = 3.0, 1e-6
    fd = (b.omega_hat(tau + h) - b.omega_hat(tau - h)) / (2.0 * h)
    assert b.omega_hat_prime(tau) == pytest.approx(fd, abs=1e-6)


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


# ---------------------------------------------------------------------------
# steady-state events of the symmetry-breaking block


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


def test_zero_root_formula_consistency():
    # tau* (omega_M + (-1)^{n+1} K) = pi/2 + n pi for every reported event
    for params in (NetworkParams(2, 0.8, 0.5), NetworkParams(3, 0.6, 0.2)):
        for ev in zero_root_taus(params, range(0, 5)):
            lhs = ev.tau_star * ev.omega_hat
            assert lhs == pytest.approx(math.pi / 2 + ev.n * math.pi, abs=1e-10)


def test_equilibrium_case_curves_solve_the_angle_condition():
    p = NetworkParams(2, 1.2, 0.5)
    rows = equilibrium_case_curves(p, 1, range(1, 3), np.linspace(0.1, 1.5, 15))
    assert len(rows) > 0
    for r in rows:
        assert r.n == 1 and r.m in (1, 2)
        w = math.sqrt(2.0 * r.coupling * r.mu - r.mu * r.mu)
        assert r.omega == pytest.approx(w, abs=1e-10)
        ang = math.atan2(-w, r.mu - r.coupling) + 2.0 * r.m * math.pi
        assert w == pytest.approx(ang / (2.0 * math.pi), abs=1e-8)


def test_equilibrium_case_curves_odd_family_empty():
    assert equilibrium_case_curves(NetworkParams(2, 1.2, 0.5), 1, range(1, 3), parity="odd") == []
