"""The three seeded workloads: inputs, one pass each, and output checks.

Every workload is a pair of functions.  ``make_*_inputs(seed, size)`` turns a
seed into plain parameters; ``run_*_pass(inputs, tally)`` pushes them through
pllbif's public API once.  Each library call is timed by the ``Tally`` and
grouped into operations; an operation fails if it raises, or if one of its
checks rejects the output.  The checks never reuse the code under test: they
evaluate the characteristic quasi-polynomials from the paper's closed forms,
solve the locked-frequency and fold relations by their own Newton iterations,
and test symmetries directly on trajectory arrays.

Library calls go through module attributes (``pb.integrate``, ``cli.main``)
at call time, so that the tracer in ``layers.py`` sees them.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
import time
import traceback
from types import SimpleNamespace

import numpy as np

import pllbif as pb
from pllbif import cli

PAPER_PERIOD = 24.19  # bifurcated orbit at N = 3, K = 1.05, mu = 0.075, tau = 9.5
SNMAP_TARGETS = [(6.34, 1), (11.00, -1), (15.41, 1), (23.51, -1), (24.48, 1)]

# Failure causes that trace to defects known at the time the benchmark was
# written; any other cause makes a run incorrect.
KNOWN_CAUSES = {
    "OverflowError in _polish": "rightmost_root polish overflows for large |lambda tau|",
    "late fold birth": "releq_branches records fold births after the exact fold",
    "root_census undercount": "root_census misses windings when exp(-lambda tau) turns "
    "several times per contour segment; a dense independent census gets the expected count",
}


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Records each operation's outcome, the checks evaluated, and library time."""

    def __init__(self, check_names):
        self.ran = dict.fromkeys(check_names, 0)
        self.outcomes: list[str | None] = []  # per operation in order: None, or why it failed
        self.passes = 0
        self.passes_agree = True
        self.lib_s = 0.0
        self.sim_units = 0.0
        self.bad_births = 0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.lib_s += time.perf_counter() - t0

    def op(self, name, *checks):
        return _Operation(self, name, checks)

    def merge(self, other: "Tally") -> None:
        """Fold in one more pass over the same inputs.

        Check counts add up.  Each operation stays one operation, failed if it
        failed in any pass, so the counts depend on the seed and not on how
        many passes a run had time for.
        """
        for k, v in other.ran.items():
            self.ran[k] += v
        if self.passes and other.outcomes != self.outcomes:
            self.passes_agree = False
        self.outcomes = [a or b for a, b in itertools.zip_longest(self.outcomes, other.outcomes)]
        self.passes += 1
        self.bad_births += other.bad_births

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(cause is not None for cause in self.outcomes)

    @property
    def causes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cause in self.outcomes:
            if cause is not None:
                counts[cause] = counts.get(cause, 0) + 1
        return counts

    @property
    def skipped(self) -> list[str]:
        return [k for k, v in self.ran.items() if v == 0]

    @property
    def unknown_causes(self) -> list[str]:
        return [c for c in self.causes if c not in KNOWN_CAUSES]


class _Operation:
    """One attempted operation; a context manager that records its outcome.

    Exceptions of any type inside the block are recorded as the failure cause
    and suppressed.  The checks named up front count as evaluated then, so a
    failing call never hides a check as skipped.
    """

    def __init__(self, tally: Tally, name: str, checks):
        self.tally = tally
        self.name = name
        self.checks = checks
        self.cause: str | None = None

    def __enter__(self):
        return self

    def check(self, name: str, ok: bool, cause: str | None = None) -> bool:
        if name not in self.checks:
            raise KeyError(f"check {name!r} is not declared for {self.name}")
        self.tally.ran[name] += 1
        if not ok and self.cause is None:
            self.cause = cause or f"{self.name}: {name}"
        return ok

    def __exit__(self, exc_type, exc, tb):
        t = self.tally
        if exc is not None:
            if not isinstance(exc, Exception):
                return False
            for name in self.checks:
                t.ran[name] += 1
            frames = traceback.extract_tb(tb)
            where = frames[-1].name if frames else "?"
            self.cause = f"{exc_type.__name__} in {where}"
        t.outcomes.append(self.cause)
        return True


def input_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# independent evaluations


def quasi_poly(lam: complex, tau: float, r0: float, r1: float, s0: float) -> complex:
    """lambda^2 + r1 lambda + r0 + s0 exp(-lambda tau)."""
    return (lam + r1) * lam + r0 + s0 * cmath.exp(-lam * tau)


def poly_scale(lam: complex, tau: float, r0: float, r1: float, s0: float) -> float:
    return 1.0 + abs(lam) ** 2 + abs(r1 * lam) + abs(r0) + abs(s0 * cmath.exp(-lam * tau))


def full_phase_coeffs(n: int, k: float, mu: float, branch: str, block: str):
    """(r0, r1, s0) of a full-phase block from the closed forms of the paper."""
    root = math.sqrt(max(0.0, 1.0 - 1.0 / (k * k)))
    c2 = root if branch == "plus" else -root
    q = k * mu * (1.0 - c2)
    s = k * mu * (1.0 + c2)
    return q, mu, (-s if block == "fix" else s / (n - 1))


def phase_coeffs(n: int, k: float, mu: float, omega_hat: float, tau: float, block: str):
    """(r0, r1, s0) of a phase-model block at modal gain K mu cos(Omega_hat tau)."""
    a = k * mu * math.cos(omega_hat * tau)
    return a, mu, (-a if block == "fix" else a / (n - 1))


def locked_omega(k: float, tau: float, guess: float) -> float | None:
    """Newton on Omega + K sin(Omega tau) = 1 from a guess; None if it stalls."""
    om = guess
    for _ in range(50):
        g = om + k * math.sin(om * tau) - 1.0
        gp = 1.0 + k * tau * math.cos(om * tau)
        if gp == 0.0:
            return None
        step = g / gp
        om -= step
        if abs(step) < 1e-14 * (1.0 + abs(om)):
            return om
    return om if abs(om + k * math.sin(om * tau) - 1.0) < 1e-12 else None


def fold_point(k: float, omega: float, tau: float) -> tuple[float, float] | None:
    """Newton on the locked relation together with 1 + K tau cos(Omega tau) = 0."""
    om, t = omega, tau
    for _ in range(60):
        c, s = math.cos(om * t), math.sin(om * t)
        f1 = om + k * s - 1.0
        f2 = 1.0 + k * t * c
        j11, j12 = 1.0 + k * t * c, k * om * c
        j21, j22 = -k * t * t * s, k * c - k * t * om * s
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        d_om = (f1 * j22 - f2 * j12) / det
        d_t = (j11 * f2 - j21 * f1) / det
        om -= d_om
        t -= d_t
        if abs(d_om) + abs(d_t) < 1e-14 * (1.0 + abs(t)):
            break
    c, s = math.cos(om * t), math.sin(om * t)
    if abs(om + k * s - 1.0) > 1e-11 or abs(1.0 + k * t * c) > 1e-11:
        return None
    return om, t


def dense_census(tau: float, box, r0: float, r1: float, s0: float) -> int:
    """Winding number of the quasi-polynomial around a box, sampled densely enough
    that the phase moves well under pi between samples (exp(-lambda tau)
    turns about tau radians per unit of Im lambda)."""
    (a, b), (lo, hi) = box.re_interval, box.im_interval
    corners = [complex(a, lo), complex(b, lo), complex(b, hi), complex(a, hi)]
    per_edge = int(64 * (tau + 1.0) * max(b - a, hi - lo)) + 2000
    z = np.concatenate(
        [np.linspace(corners[i], corners[(i + 1) % 4], per_edge, endpoint=False) for i in range(4)]
        + [np.array([corners[0]])]
    )
    phase = np.unwrap(np.angle((z + r1) * z + r0 + s0 * np.exp(-z * tau)))
    return int(round((phase[-1] - phase[0]) / (2.0 * math.pi)))


def _interp_states(times: np.ndarray, states: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return np.stack([np.interp(ts, times, states[:, c]) for c in range(states.shape[1])], axis=1)


def _upcrossing_period(times: np.ndarray, v: np.ndarray, t_from: float) -> float | None:
    """Mean interval between linear-interpolated upward mean crossings after t_from."""
    m = times >= t_from
    t, x = times[m], v[m] - v[m].mean()
    idx = np.nonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))[0]
    if idx.size < 3:
        return None
    tc = t[idx] - x[idx] * (t[idx + 1] - t[idx]) / (x[idx + 1] - x[idx])
    return float(np.mean(np.diff(tc)))


# ---------------------------------------------------------------------------
# orbit: the paper's orbit reproduction at N = 3, tau = 9.5

ORBIT_SIZES = {
    "full": dict(rounds=7, t_bisect=300.0, window=(60.0, 250.0), hold=400.0),
    "tiny": dict(rounds=6, t_bisect=300.0, window=(60.0, 250.0), hold=400.0),
}
ORBIT_CHECKS = (
    "trajectory_finite",
    "grid_matches_step",
    "dwell_found",
    "fit_period_near_paper",
    "refined_period_near_paper",
    "period_near_paper",
    "period_matches_crossings",
    "class_is_kicked_pair_swap",
    "pair_swap_residual",
)


def make_orbit_inputs(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng(seed)
    pair = [(1, 2), (1, 3), (2, 3)][int(rng.integers(3))]
    return dict(
        n=3, k=1.05, mu=0.075, tau=9.5, step=9.5 / 100.0, pair=list(pair),
        bracket=[0.3, 0.45], harmonics=(8, 16), **ORBIT_SIZES[size],
    )


def _fate(times: np.ndarray, states: np.ndarray, tail: float = 250.0) -> str:
    """Where a kicked run ends: drifting phases, locked decay, or near the orbit."""
    v = states[times >= times[-1] - tail][:, 1::2]
    if float(np.abs(v.mean(axis=0)).max()) > 0.05:
        return "run"
    if float(v.std(axis=0).max()) < 0.02:
        return "decay"
    return "near-orbit"


def _checked_integration(tally: Tally, op, kind, params, history, t_end, step, omega=None):
    traj = tally.call(pb.integrate, kind, params, history, t_end, step, omega=omega)
    tally.sim_units += t_end
    h = params.delay / max(4, math.ceil(params.delay / step - 1e-12)) if params.delay > 0 else step
    op.check("trajectory_finite", bool(np.all(np.isfinite(traj.states))))
    op.check(
        "grid_matches_step",
        len(traj.times) == math.ceil(t_end / h - 1e-12) + 1 and abs(traj.step - h) < 1e-12,
    )
    return traj


class UpstreamFailed(RuntimeError):
    """An operation could not start because the one feeding it failed."""


def _upstream(value):
    if value is None:
        raise UpstreamFailed("the operation feeding this one failed")
    return value


def run_orbit_pass(inp: dict, tally: Tally) -> None:
    kind = pb.ModelKind.FULL_PHASE
    p = pb.NetworkParams(inp["n"], inp["k"], inp["mu"], delay=inp["tau"])
    pair = tuple(inp["pair"])
    eq = tally.call(pb.equilibrium, p, pb.Branch.MINUS)
    base = tally.call(pb.equilibrium_state, kind, p, eq)
    direction = tally.call(pb.pair_difference_direction, p.n_nodes, pair)
    lo, hi = inp["bracket"]
    dwell = None
    for _ in range(inp["rounds"]):
        mid = 0.5 * (lo + hi)
        with tally.op("simulator.integrate", "trajectory_finite", "grid_matches_step") as op:
            hist = pb.HistorySpec.perturbed(base, direction, mid)
            traj = _checked_integration(tally, op, kind, p, hist, inp["t_bisect"], inp["step"])
            if _fate(traj.times, traj.states) == "run":
                hi = mid
            else:
                lo, dwell = mid, traj

    h_fit, h_refine = inp["harmonics"]
    with tally.op("orbit.fit_profile", "dwell_found", "fit_period_near_paper") as op:
        profile = None
        if op.check("dwell_found", dwell is not None):
            profile = tally.call(pb.fit_profile, dwell, tuple(inp["window"]), harmonics=h_fit)
            op.check("fit_period_near_paper", abs(profile.period - PAPER_PERIOD) <= 2.0)
    orbit = hold = period = None
    with tally.op("orbit.refine_orbit", "refined_period_near_paper") as op:
        orbit = tally.call(pb.refine_orbit, _upstream(profile), harmonics=h_refine)
        op.check("refined_period_near_paper", abs(orbit.period - PAPER_PERIOD) <= 0.5)
    with tally.op("simulator.integrate", "trajectory_finite", "grid_matches_step") as op:
        hold = _checked_integration(tally, op, kind, p, _upstream(orbit), inp["hold"], inp["step"])
    with tally.op("simulator.period_estimate", "period_near_paper", "period_matches_crossings") as op:
        period = tally.call(pb.period_estimate, _upstream(hold), 0.6)
        op.check("period_near_paper", abs(period - PAPER_PERIOD) <= 0.5)
        t_from = hold.times[0] + 0.6 * (hold.times[-1] - hold.times[0])
        vels = hold.states[:, 1::2]
        col = int(np.argmax(vels[hold.times >= t_from].std(axis=0)))
        own = _upcrossing_period(hold.times, vels[:, col], t_from)
        op.check("period_matches_crossings", own is not None and abs(own - period) <= 1e-2 * period)
    with tally.op("simulator.symmetry_classify", "class_is_kicked_pair_swap", "pair_swap_residual") as op:
        cls = tally.call(pb.symmetry_classify, hold, _upstream(period), tol=1e-2)
        op.check(
            "class_is_kicked_pair_swap",
            cls.tag is pb.SymmetryTag.Z2_SPATIO_TEMPORAL and cls.pair == pair and cls.residual < 1e-2,
        )
        # x_i(t) = x_j(t + T/2) over the last full period, read off the grid
        t_end = float(hold.times[-1])
        ts = np.linspace(t_end - 1.5 * period, t_end - 0.5 * period, 201)
        x = _interp_states(hold.times, hold.states, ts)
        xh = _interp_states(hold.times, hold.states, ts + 0.5 * period)
        i, j = (2 * (pair[0] - 1), 2 * (pair[1] - 1))
        swap = max(np.max(np.abs(x[:, i] - xh[:, j])), np.max(np.abs(x[:, j] - xh[:, i])))
        spread = float(np.max(np.abs(x[:, i] - x[:, j])))
        op.check("pair_swap_residual", swap < 1e-2 and spread > 0.05)


# ---------------------------------------------------------------------------
# network: large-N simulation where the O(N^2) coupling kernel dominates rhs

NETWORK_SIZES = {
    "full": dict(n=64, t_end=200.0),
    "tiny": dict(n=8, t_end=20.0),
}
NETWORK_CHECKS = (
    "trajectory_finite",
    "grid_matches_step",
    "permutation_equivariance",
    "locked_relation",
    "stays_synchronized",
)


def make_network_inputs(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng(seed)
    sz = NETWORK_SIZES[size]
    n = sz["n"]
    j = int(rng.integers(1, n))
    part = "real" if 2 * j == n else str(rng.choice(["real", "imag"]))
    return dict(
        n=n, k=1.05, mu=0.3, tau=2.0, step=2.0 / 20.0, t_end=sz["t_end"],
        mode=j, part=part,
        amplitude=float(rng.uniform(0.01, 0.05)),
        sync_amplitude=float(rng.uniform(0.01, 0.05)),
        perm=[int(v) for v in rng.permutation(n)],
    )


def _fourier_direction(n: int, j: int, part: str) -> np.ndarray:
    k = np.arange(n)
    ang = 2.0 * math.pi * j * k / n
    pos = np.cos(ang) if part == "real" else np.sin(ang)
    out = np.zeros(2 * n)
    out[0::2] = pos / np.linalg.norm(pos)
    return out


def run_network_pass(inp: dict, tally: Tally) -> None:
    n, tau, step, t_end = inp["n"], inp["tau"], inp["step"], inp["t_end"]
    p = pb.NetworkParams(n, inp["k"], inp["mu"], delay=tau)
    full = pb.ModelKind.FULL_PHASE
    eq = tally.call(pb.equilibrium, p, pb.Branch.MINUS)
    base = tally.call(pb.equilibrium_state, full, p, eq)
    direction = _fourier_direction(n, inp["mode"], inp["part"])
    perm = np.asarray(inp["perm"])
    idx = np.empty(2 * n, dtype=int)
    idx[0::2], idx[1::2] = 2 * perm, 2 * perm + 1

    integ = ("trajectory_finite", "grid_matches_step")
    with tally.op("simulator.integrate", *integ) as op:
        hist = pb.HistorySpec.perturbed(base, direction, inp["amplitude"])
        first = _checked_integration(tally, op, full, p, hist, t_end, step)
    with tally.op("simulator.integrate", *integ, "permutation_equivariance") as op:
        hist = pb.HistorySpec.perturbed(base[idx], direction[idx], inp["amplitude"])
        second = _checked_integration(tally, op, full, p, hist, t_end, step)
        dev = float(np.max(np.abs(second.states - first.states[:, idx])))
        op.check("permutation_equivariance", dev < 1e-9)

    with tally.op("phasemodel.releq_solve", "locked_relation") as op:
        omega_hat = tally.call(pb.releq_solve, p, tau)[0]
        op.check("locked_relation", abs(omega_hat + p.coupling * math.sin(omega_hat * tau) - 1.0) < 1e-9)
    with tally.op("simulator.integrate", *integ, "stays_synchronized") as op:
        rot = pb.ModelKind.PHASE_ROTATING_FRAME
        sync = np.zeros(2 * n)
        sync[0::2] = 1.0 / math.sqrt(n)
        hist = pb.HistorySpec.perturbed(np.zeros(2 * n), sync, inp["sync_amplitude"])
        traj = _checked_integration(tally, op, rot, p, hist, t_end, step, omega=omega_hat - 1.0)
        pos = traj.states[:, 0::2]
        op.check("stays_synchronized", float(np.max(pos.max(axis=1) - pos.min(axis=1))) <= 1e-12)


# ---------------------------------------------------------------------------
# analysis: spectra, crossing maps, locked branches and the CLI, no integration

ANALYSIS_SIZES = {
    "full": dict(points=24, taus=51, couplings=2, window=3.0 * math.pi, curves=401, rightmost=251,
                 releq="0:15.7"),
    "tiny": dict(points=4, taus=11, couplings=1, window=3.0 * math.pi, curves=21, rightmost=11,
                 releq="0:9.5"),
}
ANALYSIS_CHECKS = (
    "blocks_match_closed_form",
    "crossing_on_axis",
    "root_residual",
    "stability_matches_crossings",
    "census_matches_crossings",
    "branch_points_locked",
    "birth_at_fold",
    "phase_crossing_on_axis",
    "cli_exit_zero",
    "cli_rows",
)
TAU_MAX = 25.0


def _stratified(rng, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw per equal stratum, in shuffled order (Latin hypercube)."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return [float(v) for v in lo + (hi - lo) * rng.permutation(u)]


def make_analysis_inputs(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng(seed)
    sz = ANALYSIS_SIZES[size]
    m = sz["points"]
    ks = _stratified(rng, m, 1.05, 3.0)
    mus = _stratified(rng, m, 0.05, 2.0)
    nodes = [int(v) for v in rng.permutation([2 + i % 4 for i in range(m)])]
    branches = [str(v) for v in rng.permutation(["plus" if i % 2 else "minus" for i in range(m)])]
    # antithetic couplings keep the summed branch-scan cost nearly seed-independent
    u, v = rng.uniform(size=2)
    ku = [u, 1.0 - u][: sz["couplings"]]
    mv = [v, 1.0 - v][: sz["couplings"]]
    return dict(
        points=[dict(n=a, k=b, mu=c, branch=d) for a, b, c, d in zip(nodes, ks, mus, branches)],
        taus=int(sz["taus"]),
        couplings=[dict(k=float(0.7 + 0.8 * a), mu=float(0.3 + 1.7 * b)) for a, b in zip(ku, mv)],
        window=sz["window"],
        cli_seed=int(rng.integers(0, 2**31 - 1)),
        cli=_cli_commands(sz),
    )


def _cli_commands(sz: dict) -> list[list[str]]:
    return [
        ["curves", "--nodes", "2", "--K", "1.05", "--mu-grid", f"0.05:0.45:{sz['curves']}",
         "--block", "fix", "--eq", "minus"],
        ["rightmost", "--nodes", "2", "--K", "1.05", "--mu", "0.3", "--eq", "minus",
         "--tau-grid", f"0:25:{sz['rightmost']}"],
        ["snmap", "--nodes", "2", "--K", "1.05", "--mu", "0.3", "--eq", "minus", "--tau-window", "0:25"],
        ["releq", "--K", "1", "--tau-window", sz["releq"]],
        ["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "0:6"],
        ["phasediff-check", "--nodes", "3", "--K", "1.05", "--mu", "0.075", "--tau", "9.5"],
    ]


def _census_box(r0: float, r1: float, s0: float) -> "pb.CensusBox":
    # every root with Re >= 0 has |lambda|^2 <= |r1||lambda| + |r0| + |s0|
    bound = (abs(r1) + math.sqrt(r1 * r1 + 4.0 * (abs(r0) + abs(s0)))) / 2.0 + 1.0
    return pb.CensusBox((1e-6, bound), (-bound, bound))


def _spectral_point(pt: dict, taus: np.ndarray, tally: Tally) -> None:
    n, k, mu, branch = pt["n"], pt["k"], pt["mu"], pt["branch"]
    p = pb.NetworkParams(n, k, mu)
    blocks = None
    with tally.op("charfun.build_blocks", "blocks_match_closed_form") as op:
        eq = tally.call(pb.equilibrium, p, pb.Branch(branch))
        blocks = tally.call(pb.build_blocks, pb.ModelKind.FULL_PHASE, p, eq)
        probe = complex(0.3, 0.7)
        ok = True
        for name, blk in (("fix", blocks.fix), ("standard", blocks.standard)):
            co = full_phase_coeffs(n, k, mu, branch, name)
            want = quasi_poly(probe, 1.7, *co)
            ok = ok and abs(blk.eval(probe, 1.7) - want) <= 1e-12 * poly_scale(probe, 1.7, *co)
        op.check("blocks_match_closed_form", ok)
    if blocks is None:
        return

    for name, blk in (("fix", blocks.fix), ("standard", blocks.standard)):
        r0, r1, s0 = full_phase_coeffs(n, k, mu, branch, name)
        crossings, scanned = [], False
        with tally.op("snmap.sn_scan", "crossing_on_axis") as op:
            found = tally.call(pb.sn_scan, blk, (0.0, TAU_MAX))
            for c in found:
                lam = complex(0.0, c.omega)
                res = abs(quasi_poly(lam, c.tau_star, r0, r1, s0))
                op.check("crossing_on_axis", res <= 1e-7 * poly_scale(lam, c.tau_star, r0, r1, s0))
            crossings, scanned = [(c.tau_star, c.delta_sign) for c in found], True

        # unstable roots on each interval between successive crossings: at
        # tau = 0+ the roots with Re > 0 are those of the quadratic
        # lambda^2 + r1 lambda + r0 + s0, and each crossing moves one conjugate
        # pair across the axis in the direction of its delta sign
        edges = [0.0, *(t for t, _ in crossings), TAU_MAX]
        disc = cmath.sqrt(r1 * r1 - 4.0 * (r0 + s0))
        expected = [sum(((-r1 + sg * disc) / 2.0).real > 0.0 for sg in (1.0, -1.0))]
        for _, sign in crossings:
            expected.append(expected[-1] + 2 * sign)
        box = _census_box(r0, r1, s0)
        for (a, b), want in zip(zip(edges[:-1], edges[1:]), expected):
            if b - a < 1e-9:
                continue
            with tally.op("spectrum.root_census", "census_matches_crossings") as op:
                mid = 0.5 * (a + b)
                count = tally.call(pb.root_census, blk, mid, box)
                if scanned:  # otherwise the scan's failure is counted already
                    # tell a miscounting census from a wrong crossing list
                    aliased = count != want and dense_census(mid, box, r0, r1, s0) == want
                    op.check("census_matches_crossings", count == want,
                             "root_census undercount" if aliased else None)

        prev = None
        for tau in taus:
            tau = float(tau)
            with tally.op("spectrum.rightmost_root", "root_residual", "stability_matches_crossings") as op:
                warm = (prev,) if prev is not None and tau > 0.0 else ()
                est = tally.call(pb.rightmost_root, blk, tau, extra_seeds=warm)
                prev = est.lam
                res = abs(quasi_poly(est.lam, tau, r0, r1, s0))
                op.check("root_residual", res <= 1e-9 * poly_scale(est.lam, tau, r0, r1, s0))
                slot = min(int(np.searchsorted(edges, tau, side="right")) - 1, len(expected) - 1)
                near = min((abs(tau - e) for e in edges[1:-1]), default=math.inf)
                if scanned and near > 1e-6:
                    op.check("stability_matches_crossings", (est.lam.real > 1e-6) == (expected[slot] > 0))


def _check_births(branches, k: float, t0: float, tally: Tally) -> None:
    """Each fold-born pair of branches must start at the exact fold delay."""
    born: dict[float, list] = {}
    for br in branches:
        if br.birth_tau > t0 + 1e-9:
            born.setdefault(round(br.birth_tau, 9), []).append(br)
    for birth, pair in sorted(born.items()):
        with tally.op("phasemodel.fold_birth", "birth_at_fold") as op:
            guess = float(np.mean([br.omegas[0] for br in pair]))
            fold = fold_point(k, guess, birth)
            ok = fold is not None and abs(birth - fold[1]) <= 1e-5
            late = fold is not None and birth > fold[1]
            if not op.check("birth_at_fold", ok, "late fold birth" if late else None):
                tally.bad_births += 1


def _check_branch_points(op, branches, k: float) -> None:
    worst = 0.0
    for br in branches:
        g = br.omegas + k * np.sin(br.omegas * br.taus) - 1.0
        worst = max(worst, float(np.max(np.abs(g))))
    op.check("branch_points_locked", worst <= 1e-9)


def _phase_coupling(cp: dict, window: float, tally: Tally) -> None:
    k, mu = cp["k"], cp["mu"]
    p = pb.NetworkParams(2, k, mu)
    with tally.op("phasemodel.releq_branches", "branch_points_locked") as op:
        branches = tally.call(pb.releq_branches, p, (0.0, window))
        _check_branch_points(op, branches, k)
    _check_births(branches, k, 0.0, tally)
    by_id = {br.branch_id: br for br in branches}
    for block in (pb.BlockKind.FIX, pb.BlockKind.STANDARD):
        with tally.op("phasemodel.relative_hopf_scan", "phase_crossing_on_axis") as op:
            for pc in tally.call(pb.relative_hopf_scan, p, block, (0.0, window)):
                c = pc.crossing
                br = by_id.get(pc.branch_id)
                om = None
                if br is not None:
                    om = locked_omega(k, c.tau_star, float(np.interp(c.tau_star, br.taus, br.omegas)))
                ok = om is not None
                if ok:
                    co = phase_coeffs(2, k, mu, om, c.tau_star, block.value)
                    lam = complex(0.0, c.omega)
                    ok = abs(quasi_poly(lam, c.tau_star, *co)) <= 1e-7 * poly_scale(lam, c.tau_star, *co)
                op.check("phase_crossing_on_axis", ok)


def _read_csv(path: str) -> tuple[dict, list[dict]]:
    meta, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                meta[key] = val.strip()
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


def _check_cli_rows(cmd: str, argv: list[str], meta: dict, rows: list[dict], tally: Tally) -> bool:
    """Independent checks on the rows one README command wrote."""
    f = {key: float(val) for key, val in meta.items() if _is_float(val)}
    if cmd == "curves":
        k, n = f["K"], int(f["n_nodes"])
        return len(rows) > 0 and all(
            _on_axis(full_phase_coeffs(n, k, float(r["value"]), meta["eq"], meta["block"]), r)
            for r in rows
        )
    if cmd == "rightmost":
        want = int(argv[argv.index("--tau-grid") + 1].split(":")[2])
        n, k, mu = int(f["n_nodes"]), f["K"], f["mu"]
        ok = len(rows) == want
        for r in rows:
            co = full_phase_coeffs(n, k, mu, meta["eq"], r["block"])
            lam, tau = complex(float(r["re_lambda"]), float(r["im_lambda"])), float(r["tau"])
            ok = ok and abs(quasi_poly(lam, tau, *co)) <= 1e-9 * poly_scale(lam, tau, *co)
        return ok
    if cmd == "snmap":
        n, k, mu = int(f["n_nodes"]), f["K"], f["mu"]
        co = full_phase_coeffs(n, k, mu, meta["eq"], meta["block"])
        got = [(float(r["tau"]), int(r["delta_sign"])) for r in rows]
        return (
            len(got) == len(SNMAP_TARGETS)
            and all(abs(t - wt) <= 0.01 and s == ws for (t, s), (wt, ws) in zip(got, SNMAP_TARGETS))
            and all(_on_axis(co, r) for r in rows)
        )
    if cmd == "releq":
        k = f["K"]
        worst = max(
            abs(float(r["omega_hat"]) + k * math.sin(float(r["omega_hat"]) * float(r["tau"])) - 1.0)
            for r in rows
        )
        branches = {}
        for r in rows:
            b = branches.setdefault(
                int(r["branch_id"]), SimpleNamespace(birth_tau=float(r["birth_tau"]), taus=[], omegas=[])
            )
            b.taus.append(float(r["tau"]))
            b.omegas.append(float(r["omega_hat"]))
        t0 = float(argv[argv.index("--tau-window") + 1].split(":")[0])
        _check_births(branches.values(), k, t0, tally)
        return worst <= 1e-9 and len(branches) > 0
    if cmd == "zero-roots":
        k, n = f["K"], int(f["n_nodes"])
        ok = len(rows) > 0
        for r in rows:
            m = int(r["n"])
            denom = 1.0 + (-1.0) ** (m + 1) * k
            ok = ok and denom > 0.0 and abs(float(r["tau"]) - (math.pi / 2 + m * math.pi) / denom) <= 1e-12 * (1 + m)
            ok = ok and abs(float(r["delta0"]) - (-1.0) ** m * k * n / (n - 1) * denom) <= 1e-12
        return ok
    if cmd == "phasediff-check":
        return len(rows) > 0 and max(float(r["rel_err"]) for r in rows) < 1e-10
    raise ValueError(cmd)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _on_axis(co, row) -> bool:
    lam, tau = complex(0.0, float(row["omega"])), float(row["tau"])
    return abs(quasi_poly(lam, tau, *co)) <= 1e-7 * poly_scale(lam, tau, *co)


def _cli_part(commands: list[list[str]], seed: int, workdir: str, tally: Tally) -> None:
    for i, argv in enumerate(commands):
        argv = list(argv)
        if argv[0] == "phasediff-check":
            argv += ["--seed", str(seed)]
        out = os.path.join(workdir, f"{i}-{argv[0]}.csv")
        with tally.op("cli.main", "cli_exit_zero", "cli_rows") as op:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tally.call(cli.main, [*argv, "--out", out])
            if op.check("cli_exit_zero", code == 0):
                meta, rows = _read_csv(out)
                op.check("cli_rows", _check_cli_rows(argv[0], argv, meta, rows, tally))
            else:
                op.check("cli_rows", False)


def run_analysis_pass(inp: dict, tally: Tally) -> None:
    taus = np.linspace(0.0, TAU_MAX, inp["taus"])
    for pt in inp["points"]:
        _spectral_point(pt, taus, tally)
    for cp in inp["couplings"]:
        _phase_coupling(cp, inp["window"], tally)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=os.getcwd()) as workdir:
        _cli_part(inp["cli"], inp["cli_seed"], workdir, tally)


WORKLOADS = {
    "orbit": (make_orbit_inputs, run_orbit_pass, ORBIT_CHECKS),
    "network": (make_network_inputs, run_network_pass, NETWORK_CHECKS),
    "analysis": (make_analysis_inputs, run_analysis_pass, ANALYSIS_CHECKS),
}
