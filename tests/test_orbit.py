"""Fourier orbit profiles: fitting, collocation refinement, reuse as history.

The reference orbit (3 nodes, K = 1.05, mu = 0.075, tau = 9.5) is pinned by
its refined period; the refinement is seeded from a handful of dominant
coefficients, so the test exercises the whole Gauss-Newton path.
"""

from dataclasses import replace

import numpy as np
import pytest

from pllbif import orbit
from pllbif import (
    Branch,
    HistorySpec,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    NotPeriodicError,
    OrbitProfile,
    Trajectory,
    equilibrium,
    equilibrium_state,
    fit_profile,
    integrate,
    isotypic_direction,
    pair_difference_direction,
    period_estimate,
    refine_orbit,
    normalize,
    rhs,
    state_dim,
    symmetry_classify,
    SymmetryTag,
)

P3 = NetworkParams(3, 1.05, 0.075, delay=9.5)
REF_PERIOD = 24.189514576278501


def seed_profile(period=24.2, harmonics=4):
    """Coarse truncation of the reference orbit, a Gauss-Newton basin member."""
    a = np.zeros((3, harmonics + 1))
    b = np.zeros((3, harmonics + 1))
    a[0, 0], a[0, 1], a[0, 2] = -0.8726, -0.2613, -0.0133
    a[1, 0], a[1, 1], a[1, 2] = -0.8726, +0.2613, -0.0133
    a[2, 0], a[2, 2] = -0.8860, -0.00268
    b[0, 2], b[0, 3] = 0.00778, 0.00049
    b[1, 2], b[1, 3] = 0.00778, -0.00049
    b[2, 2] = 0.00249
    return OrbitProfile(ModelKind.FULL_PHASE, P3, period, a, b)


def pattern_seed(cos1, sin1=0.0):
    """H = 1 seed about the equilibrium: first harmonic cos1, sin1 at the crossing frequency."""
    eq_state = equilibrium_state(ModelKind.FULL_PHASE, P3, equilibrium(P3, Branch.MINUS))
    a = np.zeros((3, 2))
    b = np.zeros((3, 2))
    a[:, 0], a[:, 1], b[:, 1] = eq_state[0::2], cos1, sin1
    return OrbitProfile(ModelKind.FULL_PHASE, P3, 2.0 * np.pi / 0.29423, a, b)


@pytest.fixture(scope="module")
def refined():
    return refine_orbit(seed_profile(), harmonics=10)


def test_profile_from_nested_lists():
    ref = seed_profile()
    listed = OrbitProfile(
        ModelKind.FULL_PHASE, P3, ref.period, ref.cos_coeffs.tolist(), ref.sin_coeffs.tolist()
    )
    assert listed.harmonics == ref.harmonics
    assert np.array_equal(listed.state(1.3), ref.state(1.3))
    assert listed.residual_norm() == ref.residual_norm()


def test_refined_period_and_residual(refined):
    assert refined.period == pytest.approx(REF_PERIOD, abs=1e-8)
    assert refined.residual_norm() < 1e-10
    # the orbit did not collapse to the nearby equilibrium
    amp1 = np.hypot(refined.cos_coeffs[:, 1], refined.sin_coeffs[:, 1])
    assert amp1[0] == pytest.approx(0.261349005, abs=1e-6)
    assert amp1[1] == pytest.approx(amp1[0], abs=1e-9)


def test_refined_orbit_has_pair_swap_structure(refined):
    # node 2 equals node 1 advanced half a period: odd harmonics flip sign
    for mat in (refined.cos_coeffs, refined.sin_coeffs):
        flipped = mat[0].copy()
        flipped[1::2] *= -1.0
        assert np.max(np.abs(mat[1] - flipped)) < 1e-9
        # node 3 runs at twice the base frequency: odd harmonics vanish
        assert np.max(np.abs(mat[2, 1::2])) < 1e-9


def test_refinement_recovers_from_a_nudged_period(refined):
    nudged = OrbitProfile(
        refined.kind,
        refined.params,
        refined.period + 2e-3,
        refined.cos_coeffs,
        refined.sin_coeffs,
    )
    again = refine_orbit(nudged)
    assert again.period == pytest.approx(REF_PERIOD, abs=1e-8)


def test_velocities_differentiate_positions(refined):
    ts = np.linspace(0.0, refined.period, 17)
    eps = 1e-6
    fd = (refined.positions(ts + eps) - refined.positions(ts - eps)) / (2 * eps)
    assert np.max(np.abs(refined.velocities(ts) - fd)) < 1e-6


def test_profile_state_interleaves(refined):
    s = refined.state()
    assert s.shape == (6,)
    assert np.allclose(s[0::2], refined.positions([0.0])[0])
    assert np.allclose(s[1::2], refined.velocities([0.0])[0])


def test_with_harmonics_pads_and_truncates(refined):
    wide = refined.with_harmonics(14)
    assert wide.harmonics == 14
    assert np.all(wide.cos_coeffs[:, 11:] == 0.0)
    back = wide.with_harmonics(10)
    assert np.allclose(back.cos_coeffs, refined.cos_coeffs)
    # dropping real content raises the model residual
    narrow = refined.with_harmonics(2)
    assert narrow.residual_norm() > refined.residual_norm()


def test_profile_serves_as_history(refined):
    # short continuation from the profile keeps the symmetry class
    traj = integrate(ModelKind.FULL_PHASE, P3, refined, 90.0, step=9.5 / 100)
    cls = symmetry_classify(traj, refined.period)
    assert cls.tag is SymmetryTag.Z2_SPATIO_TEMPORAL
    assert cls.pair == (1, 2)


@pytest.mark.parametrize("start", [0.0, 7.0])
def test_fit_profile_recovers_synthetic_coefficients(refined, start):
    # exact series samples, packaged as a trajectory
    step = 0.05
    times = np.arange(int((start + 60.0) / step) + 1) * step
    states = np.zeros((len(times), 6))
    states[:, 0::2] = refined.positions(times)
    states[:, 1::2] = refined.velocities(times)
    derivs = np.zeros_like(states)
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, derivs, history, step)
    fit = fit_profile(traj, (start, start + 60.0), harmonics=6)
    assert fit.period == pytest.approx(REF_PERIOD, rel=2e-4)
    amp1 = np.hypot(fit.cos_coeffs[0, 1], fit.sin_coeffs[0, 1])
    assert amp1 == pytest.approx(0.261349, abs=1e-3)
    # time 0 of the fit is the window's first sample
    assert np.max(np.abs(fit.state(0.0) - states[times >= start][0])) < 1e-6


def test_fit_profile_takes_the_fundamental_when_a_harmonic_leads_the_velocity():
    # the second harmonic is the smaller one in position but, weighted by k,
    # the larger one in velocity: a velocity spectrum would start at T/2
    a = np.zeros((3, 3))
    b = np.zeros((3, 3))
    a[:, 0] = -0.87
    a[:, 1] = 0.3, -0.3, 0.0
    a[:, 2] = 0.2, 0.2, -0.1
    b[:, 2] = 0.05, -0.05, 0.0
    series = OrbitProfile(ModelKind.FULL_PHASE, P3, REF_PERIOD, a, b)
    step = 0.05
    times = np.arange(2001) * step
    states = np.zeros((len(times), 6))
    states[:, 0::2] = series.positions(times)
    states[:, 1::2] = series.velocities(times)
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, np.zeros_like(states), history, step)
    fit = fit_profile(traj, (0.0, 100.0), harmonics=4)
    assert fit.period == pytest.approx(REF_PERIOD, rel=1e-12)
    assert np.max(np.abs(fit.positions(times) - states[:, 0::2])) < 1e-10


def fit_misfit(traj, window, w, harmonics):
    """Least-squares misfit of a Fourier series of frequency w over the window."""
    mask = (traj.times >= window[0]) & (traj.times <= window[1])
    s = traj.times[mask] - traj.times[mask][0]
    xs = traj.states[mask][:, 0::2]
    cols = [np.ones_like(s)]
    for k in range(1, harmonics + 1):
        cols += [np.cos(k * w * s), np.sin(k * w * s)]
    m = np.column_stack(cols)
    return float(np.sum((xs - m @ np.linalg.lstsq(m, xs, rcond=None)[0]) ** 2))


def test_fit_of_a_simulated_segment_refines_to_the_orbit(refined):
    traj = integrate(ModelKind.FULL_PHASE, P3, refined, 250.0, step=9.5 / 100)
    fit = fit_profile(traj, (60.0, 250.0), 8)
    assert refine_orbit(fit, 16).period == pytest.approx(REF_PERIOD, abs=1e-10)
    # the fitted frequency minimizes the misfit
    w = fit.base_frequency
    best = fit_misfit(traj, (60.0, 250.0), w, 8)
    for off in (-1e-7, 1e-7):
        assert fit_misfit(traj, (60.0, 250.0), w * (1.0 + off), 8) > best


def test_fit_profile_window_validation(refined):
    step = 0.05
    times = np.arange(201) * step
    states = np.zeros((len(times), 6))
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, np.zeros_like(states), history, step)
    with pytest.raises(InvalidParamError):
        fit_profile(traj, (5.0, 5.0))
    with pytest.raises(NotPeriodicError):
        fit_profile(traj, (0.0, 10.0), harmonics=40)  # too few samples


@pytest.mark.parametrize("resting", ["zero", "equilibrium"])
def test_fit_profile_refuses_a_motionless_window(resting):
    step = 0.05
    times = np.arange(2001) * step
    states = np.zeros((len(times), 6))
    if resting == "equilibrium":
        states[:] = equilibrium_state(ModelKind.FULL_PHASE, P3, equilibrium(P3, Branch.MINUS))
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, np.zeros_like(states), history, step)
    with pytest.raises(NotPeriodicError):
        fit_profile(traj, (0.0, 100.0))


@pytest.mark.parametrize("harmonics", [0, -1, -3])
def test_fit_profile_refuses_harmonics_below_one(harmonics):
    # refine_orbit and with_harmonics refuse them too
    step = 0.05
    times = np.arange(201) * step
    states = np.zeros((len(times), 6))
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, np.zeros_like(states), history, step)
    with pytest.raises(InvalidParamError):
        fit_profile(traj, (0.0, 10.0), harmonics=harmonics)


def test_fit_profile_refuses_a_non_integer_harmonic_count():
    step = 0.05
    times = np.arange(201) * step
    states = np.zeros((len(times), 6))
    history = HistorySpec.constant(states[0])
    traj = Trajectory(ModelKind.FULL_PHASE, P3, times, states, np.zeros_like(states), history, step)
    with pytest.raises(InvalidParamError):
        fit_profile(traj, (0.0, 10.0), harmonics=2.5)


def test_refine_orbit_refuses_a_non_integer_harmonic_count():
    # int(10.5) would refine at H = 10 without saying so
    with pytest.raises(InvalidParamError):
        refine_orbit(seed_profile(), harmonics=10.5)


def test_with_harmonics_refuses_a_non_integer_count():
    with pytest.raises(InvalidParamError):
        seed_profile().with_harmonics(3.5)


def series_loop(a, b, w, ts, order=0):
    """d^order/dt^order of sum_k a_k cos(k w t) + b_k sin(k w t), one harmonic at a time."""
    out = np.zeros((len(ts), a.shape[0]))
    for k in range(a.shape[1]):
        ph = k * w * ts[:, None] + order * np.pi / 2.0
        out += (k * w) ** order * (a[:, k] * np.cos(ph) + b[:, k] * np.sin(ph))
    return out


def interleave(x, v):
    out = np.empty((x.shape[0], 2 * x.shape[1]))
    out[:, 0::2] = x
    out[:, 1::2] = v
    return out


def test_series_match_a_harmonic_loop(refined):
    ts = np.linspace(-refined.period, 2.0 * refined.period, 41)
    w, a, b = refined.base_frequency, refined.cos_coeffs, refined.sin_coeffs
    assert np.max(np.abs(refined.positions(ts) - series_loop(a, b, w, ts))) <= 1e-12
    assert np.max(np.abs(refined.velocities(ts) - series_loop(a, b, w, ts, 1))) <= 1e-12


@pytest.mark.parametrize("kind", [ModelKind.FULL_PHASE, ModelKind.PHASE_DIFFERENCE])
def test_residual_matches_a_harmonic_loop(kind):
    # coefficients far from any orbit, so that every series enters the residual
    p = normalize(P3)
    n_comp, h, period, samples = state_dim(kind, 3) // 2, 6, 24.2, 56
    rng = np.random.default_rng(7)
    a = rng.normal(scale=0.3, size=(n_comp, h + 1))
    b = rng.normal(scale=0.3, size=(n_comp, h + 1))
    b[:, 0] = 0.0
    w = 2.0 * np.pi / period
    ts = (period / samples) * np.arange(samples)
    now = interleave(series_loop(a, b, w, ts), series_loop(a, b, w, ts, 1))
    then = interleave(series_loop(a, b, w, ts - p.delay), series_loop(a, b, w, ts - p.delay, 1))
    field = np.array([rhs(kind, p, x, xd) for x, xd in zip(now, then)])
    want = (series_loop(a, b, w, ts, 2) - field[:, 1::2]).ravel()
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(orbit._residual(kind, p, a, b, period, samples) - want)) <= 1e-12


def test_refine_rejects_hopeless_seed():
    # a far-off candidate whose Gauss-Newton stalls must not be reported
    a = np.zeros((3, 3))
    b = np.zeros((3, 3))
    a[:, 1] = 2.5
    a[0, 2] = 0.75
    junk = OrbitProfile(ModelKind.FULL_PHASE, P3, 40.0, a, b)
    with pytest.raises(NotPeriodicError, match="stalled"):
        refine_orbit(junk)


def test_refine_refuses_a_seed_that_falls_to_the_equilibrium():
    # the equilibrium solves the collocation at any period, with residual ~1e-12
    with pytest.raises(NotPeriodicError, match="equilibrium"):
        refine_orbit(pattern_seed(0.05 * pair_difference_direction(3, (1, 2))[0::2]), harmonics=16)


@pytest.mark.parametrize("harmonics", [1, 16])
def test_refine_stops_on_a_singular_system(harmonics):
    # no harmonic at all: the residual does not move with the period, whose
    # Jacobian column is exactly zero, so the normal equations are singular
    flat = pattern_seed(0.0)
    seed = replace(flat, period=21.35, cos_coeffs=flat.cos_coeffs + [[0.01, 0.0]])
    with pytest.raises(NotPeriodicError, match="stalled .* after 0 steps, stopped by a singular system"):
        refine_orbit(seed, harmonics=harmonics)


_RE, _IM = isotypic_direction(3, 1, "real")[0::2], isotypic_direction(3, 1, "imag")[0::2]


@pytest.mark.parametrize(
    "cos1, sin1, tag, pair",
    [
        (pair_difference_direction(3, (1, 2))[0::2], 0.0, SymmetryTag.Z2_SPATIO_TEMPORAL, (1, 2)),
        (_RE, 0.0, SymmetryTag.Z2_SPATIAL, (2, 3)),
        (_RE / np.sqrt(2.0), _IM / np.sqrt(2.0), SymmetryTag.ROTATING_WAVE, None),
    ],
    ids=["pair-swap", "spatial", "rotating"],
)
def test_each_c_axial_pattern_refines_to_its_orbit(cos1, sin1, tag, pair):
    # one orbit per C-axial subgroup of the standard block's D3 action, each
    # seeded from its pattern at the crossing frequency and held 200 units
    prof = refine_orbit(pattern_seed(0.4 * cos1, 0.4 * sin1), harmonics=16)
    assert prof.period == pytest.approx(REF_PERIOD, rel=1e-3)
    traj = integrate(ModelKind.FULL_PHASE, P3, prof, 200.0, step=9.5 / 100)
    period = period_estimate(traj, 0.3)
    assert period == pytest.approx(prof.period, rel=1e-5)
    cls = symmetry_classify(traj, period)
    assert (cls.tag, cls.pair) == (tag, pair)


def loop_jacobian(col, u, r):
    """The forward difference of the whole residual, one column at a time."""
    jac = np.empty((r.size, u.size))
    for j in range(u.size):
        du = 1e-7 * max(1.0, abs(u[j]))
        up = u.copy()
        up[j] += du
        jac[:, j] = (col.residual(up[:-1], float(up[-1])) - r) / du
    return jac


def assert_jacobian_near_the_loop(col, u):
    # Both Jacobians are forward differences; their period columns are the
    # same difference.  A coefficient column moves one component's position
    # and delayed position by table entries of size <= 1 (velocities and
    # accelerations enter linearly), and every second partial of the field's
    # velocity entries in positions and delayed positions is at most 2 K mu
    # in size (K mu / (n - 1) per coupling term, n - 1 terms).  With steps
    # du <= 1e-7 max(1, X), X the largest coefficient or collocated position:
    # - the loop differences r along its column, where |d2r| <= (1 + 1)^2 2 K mu,
    #   so its truncation error is at most du/2 8 K mu = 4 K mu du;
    # - the chain rule differences the field in the position and the delayed
    #   position, at most du/2 2 K mu each: 2 K mu du in all.
    # Rounding adds at most 2 * 10 eps / 1e-7 to each of the four differences
    # (every entry is a sum of terms below 10 in size).
    p = col.params
    a, b = col.unpack(u[:-1])
    _, st, de, _ = orbit._collocate(p, a, b, float(u[-1]), col.samples)
    x = max(1.0, np.max(np.abs(u[:-1])), np.max(np.abs(st[:, 0::2])), np.max(np.abs(de)))
    k_mu = p.coupling * p.filter_gain
    tol = 6.0 * k_mu * 1e-7 * x + 4.0 * 2.0 * 10.0 * np.finfo(float).eps / 1e-7
    r = col.residual(u[:-1], float(u[-1]))
    jac, loop = col.jacobian(u, r), loop_jacobian(col, u, r)
    assert np.max(np.abs(jac - loop)) <= tol
    assert np.array_equal(jac[:, -1], loop[:, -1])


def test_the_kept_collocation_gives_the_recollocated_jacobian():
    # refine_orbit passes the collocation of the accepted iterate's residual
    # to the Jacobian instead of collocating that iterate again
    prof = seed_profile().with_harmonics(10)
    col = orbit._Collocation(prof.kind, normalize(P3), 3, 10, 88, 0)
    u = np.concatenate([prof.cos_coeffs.ravel(), prof.sin_coeffs[:, 1:].ravel(), [prof.period]])
    r, coll = col.evaluate(u[:-1], float(u[-1]))
    assert np.array_equal(r, col.residual(u[:-1], float(u[-1])))
    assert np.array_equal(col.jacobian(u, r, coll), col.jacobian(u, r))


@pytest.mark.parametrize("turns", [0, 1])
@pytest.mark.parametrize("harmonics", [10, 16])
def test_jacobian_matches_a_column_loop(harmonics, turns):
    # One more turn of every mean phase is the same orbit, with coefficients
    # above 1 whose columns take larger steps than their neighbours.
    prof = seed_profile().with_harmonics(harmonics)
    a, b = prof.cos_coeffs.copy(), prof.sin_coeffs
    a[:, 0] += 2.0 * np.pi * turns
    col = orbit._Collocation(prof.kind, normalize(P3), 3, harmonics, 8 * (harmonics + 1), 0)
    assert_jacobian_near_the_loop(col, np.concatenate([a.ravel(), b[:, 1:].ravel(), [prof.period]]))


@pytest.mark.parametrize("nodes", [2, 3])
def test_difference_jacobian_matches_a_column_loop(nodes):
    # coefficients far from any orbit, so that every partial enters
    kind, h = ModelKind.PHASE_DIFFERENCE, 6
    n_comp = state_dim(kind, nodes) // 2
    rng = np.random.default_rng(nodes)
    u = np.append(rng.normal(scale=0.3, size=n_comp * (2 * h + 1)), 24.2)
    p = normalize(NetworkParams(nodes, 1.05, 0.075, delay=9.5))
    assert_jacobian_near_the_loop(orbit._Collocation(kind, p, n_comp, h, 8 * (h + 1), 1), u)
