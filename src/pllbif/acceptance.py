"""The twelve end-to-end checks behind ``pllbif verify``.

Each criterion exercises a documented pipeline at fixed parameters and
compares against frozen reference numbers.  The functions return
(passed, detail); ``run_all`` times them and never lets one crash the rest.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .charfun import BlockKind, block_product, build_blocks, full_determinant
from .model import Branch, ModelKind, NetworkParams, equilibrium
from .orbit import OrbitProfile, refine_orbit
from .phasediff import determinant_n3
from .phasemodel import releq_branches, releq_solve, relative_hopf_scan, zero_root_taus
from .simulator import (
    HistorySpec,
    equilibrium_state,
    integrate,
    pair_difference_direction,
    period_estimate,
    symmetry_classify,
    SymmetryTag,
)
from .snmap import RootBranch, region_boundaries, sn_scan
from .spectrum import lambert_w, rightmost_sweep, unstable_count

__all__ = ["CriterionResult", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.index:2d} {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _crit_1():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    start = time.perf_counter()
    cands = sn_scan(blk, (0.0, 25.0))
    elapsed = time.perf_counter() - start
    targets = [(6.34, 1), (11.00, -1), (15.41, 1), (23.51, -1), (24.48, 1)]
    got = [(c.tau_star, c.delta_sign) for c in cands]
    ok = len(got) == len(targets) and all(
        abs(t - rt) <= 0.01 and s == rs for (t, s), (rt, rs) in zip(got, targets)
    )
    ok = ok and elapsed < 1.0
    taus = ", ".join(f"{t:.4f}({'+' if s > 0 else '-'})" for t, s in got)
    return ok, f"crossings {taus}; {elapsed * 1e3:.0f} ms"


def _crit_2():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    rb = region_boundaries(p, eq, BlockKind.FIX)
    ok = rb.mu_max is not None and abs(rb.mu_max - 0.4211) <= 5e-4
    return ok, f"mu_max = {rb.mu_max:.6f} (want 0.4211 +- 0.0005)"


def _crit_3():
    p = NetworkParams(3, 1.05, 0.075)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).standard
    cands = [
        c
        for c in sn_scan(blk, (0.0, 25.0))
        if c.omega_candidate.root_branch is RootBranch.MINUS
    ]
    if not cands:
        return False, "no slow-frequency crossings found"
    first = min(cands, key=lambda c: c.tau_star)
    ok = abs(first.omega - 0.2942) <= 5e-4 and abs(first.tau_star - 7.4898) <= 5e-3
    return ok, f"omega = {first.omega:.5f}, tau = {first.tau_star:.5f}"


def _crit_4():
    # At N = 3 the standard block's crossing is D3-equivariant, so the
    # Equivariant Hopf Theorem gives each bifurcating orbit's shape in
    # advance: one per C-axial subgroup.  The pair swap (1, -1, 0) at the
    # crossing frequency criterion 3 checks seeds the spatio-temporal Z2
    # orbit, which collocation then polishes.  With a unit pattern, seeds of
    # amplitude 0.29 to 3 reach it, 0.285 stalls and 0.28 and below collapse
    # to the equilibrium; 0.4 is near the orbit's own 0.2613 sqrt(2) = 0.37.
    p = NetworkParams(3, 1.05, 0.075, delay=9.5)
    eq = equilibrium(p, Branch.MINUS)
    start = time.perf_counter()
    a = np.zeros((3, 2))
    a[:, 0] = equilibrium_state(ModelKind.FULL_PHASE, p, eq)[0::2]
    a[:, 1] = 0.4 * pair_difference_direction(3, (1, 2))[0::2]
    seed = OrbitProfile(ModelKind.FULL_PHASE, p, 2.0 * math.pi / 0.29423, a, np.zeros((3, 2)))
    profile = refine_orbit(seed, harmonics=16)
    # The orbit is weakly unstable: RK4 at step tau/100 leaves the profile by
    # about 1e-8, and the gap grows at 0.017 per unit, so it stays under a
    # 1e-6 drift budget for about ln(1e-6 / 1e-8) / 0.017 = 270 units.  A
    # 200-unit hold keeps a 3x margin and still measures over 140 units.
    traj = integrate(ModelKind.FULL_PHASE, p, profile, 200.0, 9.5 / 100.0)
    period = period_estimate(traj, 0.3)
    cls = symmetry_classify(traj, period, tol=1e-2)
    elapsed = time.perf_counter() - start
    ok = (
        abs(period - 24.19) <= 0.5
        and abs(period - profile.period) <= 1e-5 * profile.period
        and cls.tag is SymmetryTag.Z2_SPATIO_TEMPORAL
        and cls.pair == (1, 2)
        and cls.residual < 1e-2
        and elapsed < 60.0
    )
    return ok, (
        f"T = {period:.4f}, {cls.tag.value} pair={cls.pair}, "
        f"residual {cls.residual:.2e}; {elapsed:.1f} s"
    )


def _crit_5():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    kept = 0
    for n in (2, 3, 4, 5):
        for kind in (ModelKind.FULL_PHASE, ModelKind.PHASE):
            for _ in range(100):
                mu = rng.uniform(0.05, 2.0)
                tau = rng.uniform(0.0, 3.0)
                if kind is ModelKind.FULL_PHASE:
                    k = rng.uniform(1.05, 3.0)
                    params = NetworkParams(n, k, mu, delay=tau)
                    branch = Branch.PLUS if rng.uniform() < 0.5 else Branch.MINUS
                    point = equilibrium(params, branch)
                else:
                    k = rng.uniform(0.3, 3.0)
                    params = NetworkParams(n, k, mu, delay=tau)
                    point = rng.uniform(1.0 - k, 1.0 + k)
                lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0))
                det = full_determinant(kind, params, point, lam)
                prod = block_product(kind, params, point, lam)
                if abs(det) < 1e-6 * max(1.0, abs(prod)):
                    continue
                worst = max(worst, abs(det - prod) / abs(det))
                kept += 1
    ok = worst < 1e-10 and kept >= 700
    return ok, f"max relative defect {worst:.2e} over {kept} samples"


def _crit_6():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(-3, 4):
        for _ in range(1000):
            r = 10.0 ** rng.uniform(-1.0, 1.0)
            th = rng.uniform(-math.pi, math.pi)
            z = r * cmath.exp(1j * th)
            w = lambert_w(k, z)
            worst = max(worst, abs(w * cmath.exp(w) - z))
    w_bp = lambert_w(0, -1.0 / math.e)
    bp_err = abs(w_bp - (-1.0))
    # bisection oracle for the real solution of x e^x = 1
    lo, hi = 0.5, 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    w1 = lambert_w(0, 1.0)
    ok = (
        worst <= 1e-12
        and bp_err <= 1e-10
        and abs(w1.real - omega) <= 1e-9
        and abs(w1.imag) <= 1e-12
        and abs(omega - 0.5671433) <= 1e-6
    )
    return ok, (
        f"identity defect {worst:.2e}; W0(-1/e) err {bp_err:.1e}; "
        f"W0(1) = {w1.real:.7f} vs oracle {omega:.7f}"
    )


def _crit_7():
    taus = np.linspace(0.0, 50.0, 101)
    details = []
    ok = True
    for mu in (0.1, 0.2, 0.4, 0.6, 0.8):
        p = NetworkParams(2, 2.0, mu)
        eq = equilibrium(p, Branch.PLUS)
        blocks = build_blocks(ModelKind.FULL_PHASE, p, eq)
        rows_f = rightmost_sweep(blocks.fix, taus)
        rows_s = rightmost_sweep(blocks.standard, taus)
        re = np.array([max(a.lam.real, b.lam.real) for a, b in zip(rows_f, rows_s)])
        certified = all(a.certified and b.certified for a, b in zip(rows_f, rows_s))
        c2 = eq.cos_two_phi
        closed = (-mu + math.sqrt(mu * mu + 8.0 * p.coupling * mu * c2)) / 2.0
        good = (
            abs(re[0] - closed) <= 1e-9
            and float(re.min()) > 0.0
            and re[-1] < re[0] / 10.0
            and certified
        )
        ok = ok and good
        details.append(f"mu={mu}: Re(0)={re[0]:.4f}, Re(50)={re[-1]:.5f}, cert={certified}")
    return ok, "; ".join(details)


def _crit_8():
    p = NetworkParams(2, 1.05, 0.3)
    eq = equilibrium(p, Branch.MINUS)
    blk = build_blocks(ModelKind.FULL_PHASE, p, eq).fix
    stars = [c.tau_star for c in sn_scan(blk, (0.0, 25.0))]
    if len(stars) != 5:
        return False, f"expected 5 crossing delays, found {len(stars)}"
    edges = [0.0, *stars, 25.0]
    counts = [
        unstable_count(blk, 0.5 * (a + b), shift=1e-6) for a, b in zip(edges[:-1], edges[1:])
    ]
    want = [0, 2, 0, 2, 0, 2]
    return counts == want, f"unstable-root counts {counts} (want {want})"


def _crit_9():
    p = NetworkParams(2, 1.0, 1.0)
    window = (0.0, 5.0 * math.pi)
    branches = releq_branches(p, window)
    n_br = len(branches)
    fix_cross = relative_hopf_scan(p, BlockKind.FIX, window)
    all_pos = bool(fix_cross) and all(c.crossing.delta_sign == 1 for c in fix_cross)
    std_cross = relative_hopf_scan(p, BlockKind.STANDARD, window)
    first = min((c.crossing.tau_star for c in std_cross), default=math.inf)
    ok = n_br == 11 and all_pos and 3.0 <= first <= 3.3
    return ok, (
        f"{n_br} branches; {len(fix_cross)} synchronized crossings all delta>0: {all_pos}; "
        f"first symmetry-breaking zero at tau = {first:.4f}"
    )


def _crit_10():
    p = NetworkParams(2, 1.0, 1.0)
    events = zero_root_taus(p, range(0, 5))
    if not events:
        return False, "no events produced"
    first = events[0]
    ev1 = next((e for e in events if e.n == 1), None)
    ok = (
        abs(first.tau_star - 3.0 * math.pi / 4.0) <= 1e-10
        and ev1 is not None
        and abs(ev1.delta0 - (-4.0)) <= 1e-10
    )
    d0 = f"{ev1.delta0:.12g}" if ev1 else "missing"
    return ok, f"first tau* = {first.tau_star:.12g} (want 3 pi/4), delta0(n=1) = {d0}"


def _crit_11():
    rng = np.random.default_rng(11)
    p2 = NetworkParams(2, 1.2, 0.7, delay=1.3)
    omega_hat = releq_solve(p2, 1.3)[0]
    c_const = (omega_hat - 1.0) * 1.3
    diff = build_blocks(ModelKind.PHASE_DIFFERENCE, p2, c_const)
    blocks = build_blocks(ModelKind.PHASE, p2, omega_hat)
    worst2 = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        worst2 = max(
            worst2,
            abs(diff.fix.eval(z, 1.3) - blocks.fix.eval(z, 1.3)),
            abs(diff.standard.eval(z, 1.3) - blocks.standard.eval(z, 1.3)),
        )
    p3 = NetworkParams(3, 1.2, 0.7, delay=1.3)
    worst3 = 0.0
    kept = 0
    for _ in range(200):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        det = determinant_n3(p3, c_const, z)
        prod = block_product(ModelKind.PHASE_DIFFERENCE, p3, c_const, z)
        scale = max(abs(det), abs(prod))
        if scale < 1e-8:
            continue
        worst3 = max(worst3, abs(det - prod) / scale)
        kept += 1
    ok = worst2 < 1e-12 and worst3 < 1e-10 and kept >= 150
    return ok, f"2-node mismatch {worst2:.2e}; 3-node factorization defect {worst3:.2e}"


def _crit_12():
    # convergence order on the delay-free reduction
    p0 = NetworkParams(2, 1.5, 0.8)
    hist = HistorySpec.constant([0.4, 0.0, -0.3, 0.1])
    finals = [
        integrate(ModelKind.FULL_PHASE, p0, hist, 4.0, h).states[-1]
        for h in (0.05, 0.025, 0.0125)
    ]
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = math.log2(e1 / e2) if e2 > 0 else float("inf")

    # node-permutation equivariance
    p1 = NetworkParams(3, 1.3, 0.6, delay=1.0)
    h0 = np.array([0.3, 0.0, -0.2, 0.05, 0.1, -0.02])
    perm = [2, 3, 0, 1, 4, 5]  # swap nodes 1 and 2
    t1 = integrate(ModelKind.FULL_PHASE, p1, HistorySpec.constant(h0), 20.0, 0.1)
    t2 = integrate(ModelKind.FULL_PHASE, p1, HistorySpec.constant(h0[perm]), 20.0, 0.1)
    dev = float(np.max(np.abs(t1.states[:, perm] - t2.states)))

    # equilibrium history stays put
    p2 = NetworkParams(2, 1.05, 0.3, delay=3.0)
    eq = equilibrium(p2, Branch.MINUS)
    base = equilibrium_state(ModelKind.FULL_PHASE, p2, eq)
    traj = integrate(ModelKind.FULL_PHASE, p2, HistorySpec.constant(base), 100.0, 0.15)
    drift = float(np.max(np.abs(traj.states - base)))

    ok = 3.7 <= order <= 4.3 and dev < 1e-9 and drift < 1e-10
    return ok, f"order {order:.2f}; permutation deviation {dev:.1e}; drift {drift:.1e}"


_CRITERIA = [
    (1, "synchronized-block crossing delays", _crit_1),
    (2, "existence boundary mu_max", _crit_2),
    (3, "symmetry-breaking Hopf point, 3 nodes", _crit_3),
    (4, "orbit reproduction and symmetry", _crit_4),
    (5, "determinant block factorization", _crit_5),
    (6, "Lambert W identity and specials", _crit_6),
    (7, "persistent instability sweep", _crit_7),
    (8, "unstable-root census switching", _crit_8),
    (9, "locked branches and crossing signs", _crit_9),
    (10, "steady-state event formulas", _crit_10),
    (11, "difference-model equivalence", _crit_11),
    (12, "integrator properties", _crit_12),
]


def run_all(selected=None) -> list[CriterionResult]:
    results = []
    for index, name, fn in _CRITERIA:
        if selected is not None and index not in selected:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a broken criterion must not hide the others
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(index, name, passed, detail, time.perf_counter() - start)
        )
    return results
