"""Delay integration and orbit classification.

Synthetic trajectories (states filled in by hand, derivatives to match) stand
in for expensive runs wherever only the classifier or the period extractor is
under test.
"""

import math

import numpy as np
import pytest

from pllbif import (
    Branch,
    HistorySpec,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    NotPeriodicError,
    OrbitProfile,
    StepTooLargeError,
    SymmetryTag,
    Trajectory,
    equilibrium,
    equilibrium_state,
    integrate,
    isotypic_direction,
    pair_difference_direction,
    period_estimate,
    rhs,
    symmetry_classify,
    sync_direction,
)

P2 = NetworkParams(2, 1.05, 0.3, delay=2.0)


def test_step_guard():
    eq = equilibrium(P2, Branch.MINUS)
    hist = HistorySpec.constant(equilibrium_state(ModelKind.FULL_PHASE, P2, eq))
    with pytest.raises(StepTooLargeError):
        integrate(ModelKind.FULL_PHASE, P2, hist, 5.0, step=0.6)
    with pytest.raises(InvalidParamError):
        integrate(ModelKind.FULL_PHASE, P2, hist, -1.0, step=0.1)


def test_step_count_beyond_the_memory_budget_is_refused():
    # 4e9 steps would need about 290 GB; the refusal comes before any allocation,
    # also when the history on [-tau, 0] alone would hold most of the floats
    eq = equilibrium(P2, Branch.MINUS)
    hist = HistorySpec.constant(equilibrium_state(ModelKind.FULL_PHASE, P2, eq))
    for params, t_end in ((NetworkParams(2, 1.05, 0.3), 4.0), (P2, 1e-3)):
        with pytest.raises(InvalidParamError, match="budget"):
            integrate(ModelKind.FULL_PHASE, params, hist, t_end, step=1e-9)


def test_equilibrium_is_preserved():
    eq = equilibrium(P2, Branch.MINUS)
    hist = HistorySpec.constant(equilibrium_state(ModelKind.FULL_PHASE, P2, eq))
    traj = integrate(ModelKind.FULL_PHASE, P2, hist, 40.0, step=0.25)
    drift = np.max(np.abs(traj.states - traj.states[0]))
    assert drift < 1e-12


def test_grid_divides_the_delay():
    eq = equilibrium(P2, Branch.MINUS)
    hist = HistorySpec.constant(equilibrium_state(ModelKind.FULL_PHASE, P2, eq))
    traj = integrate(ModelKind.FULL_PHASE, P2, hist, 10.0, step=0.3)
    # step snaps down to tau/m
    m = round(2.0 / traj.step)
    assert m * traj.step == pytest.approx(2.0, abs=1e-15)
    assert traj.step <= 0.3


def test_fourth_order_convergence():
    # zero-delay limit reduces to plain RK4; halving the step gains ~16x
    p = NetworkParams(2, 1.05, 0.3, delay=0.0)
    x0 = np.array([0.3, 0.0, -0.2, 0.1])
    hist = HistorySpec.constant(x0)
    ref = integrate(ModelKind.FULL_PHASE, p, hist, 2.0, step=1.0 / 512).states[-1]
    errs = []
    for step in (0.05, 0.025):
        got = integrate(ModelKind.FULL_PHASE, p, hist, 2.0, step=step).states[-1]
        errs.append(np.max(np.abs(got - ref)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


def test_history_direction_enters_linearly():
    eq = equilibrium(P2, Branch.MINUS)
    base = equilibrium_state(ModelKind.FULL_PHASE, P2, eq)
    d = pair_difference_direction(2, (1, 2))
    h = HistorySpec.perturbed(base, d, 0.25)
    assert np.allclose(h.state(), base + 0.25 * d)
    assert np.allclose(h.state(-1.3), h.state(0.0))  # constant in time
    with pytest.raises(InvalidParamError):
        HistorySpec.perturbed(base, d, -0.1).state()


def test_direction_helpers_are_unit_vectors():
    for v in (
        sync_direction(3),
        pair_difference_direction(3, (1, 3)),
        isotypic_direction(3, 1),
        isotypic_direction(3, 1, part="imag"),
    ):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.all(v[1::2] == 0.0)  # positions only


def test_trajectory_dense_output_matches_grid():
    eq = equilibrium(P2, Branch.MINUS)
    base = equilibrium_state(ModelKind.FULL_PHASE, P2, eq)
    hist = HistorySpec.perturbed(base, sync_direction(2), 0.2)
    traj = integrate(ModelKind.FULL_PHASE, P2, hist, 12.0, step=0.1)
    for k in (0, 7, len(traj.times) - 1):
        assert np.allclose(traj.at(float(traj.times[k])), traj.states[k], atol=1e-12)
    # negative times fall back to the stored history snapshot
    assert np.allclose(traj.at(-0.5), hist.state())
    # csv round trip stays in sync with the node view
    assert traj.node(2).shape == (len(traj.times), 2)


P3 = NetworkParams(3, 1.05, 0.075, delay=9.5)


def coarse_orbit():
    """The README's coarse three-node orbit candidate: a non-constant history."""
    a = np.zeros((3, 5))
    b = np.zeros((3, 5))
    a[0, :3] = [-0.873, -0.261, -0.013]
    a[1, :3] = [-0.873, +0.261, -0.013]
    a[2, 0], a[2, 2] = -0.886, -0.0027
    b[0, 2], b[1, 2], b[2, 2] = 0.0078, 0.0078, 0.0025
    return OrbitProfile(ModelKind.FULL_PHASE, P3, 24.2, a, b)


def test_first_derivative_reads_the_delayed_history():
    prof = coarse_orbit()
    traj = integrate(ModelKind.FULL_PHASE, P3, prof, 5.0, step=9.5 / 100)
    want = rhs(ModelKind.FULL_PHASE, P3, prof.state(0.0), prof.state(-9.5))
    assert np.array_equal(traj.derivs[0], want)


def test_trajectory_before_zero_is_the_history():
    prof = coarse_orbit()
    traj = integrate(ModelKind.FULL_PHASE, P3, prof, 5.0, step=9.5 / 100)
    for t in (-9.5, -5.0, -0.5, 0.0):
        assert np.allclose(traj.at(t), prof.state(t), rtol=0.0, atol=1e-15)
    # the history moves: a t = 0 snapshot would be far off here
    assert np.max(np.abs(traj.at(-5.0) - traj.states[0])) > 0.1


def test_fourth_order_convergence_through_the_delay():
    # three delay intervals from a moving history: history samples, segment
    # midpoints and grid points all feed the delayed stages
    prof = coarse_orbit()
    ref = integrate(ModelKind.FULL_PHASE, P3, prof, 28.5, step=9.5 / 512).states[-1]
    errs = []
    for m in (16, 32):
        got = integrate(ModelKind.FULL_PHASE, P3, prof, 28.5, step=9.5 / m).states[-1]
        errs.append(np.max(np.abs(got - ref)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 <= order <= 4.3


# ---------------------------------------------------------------------------
# synthetic trajectories for the classifier


def synthetic(n, funs, t_end=80.0, step=0.05, params=None):
    """Trajectory whose node positions follow ``funs`` exactly."""
    p = params or NetworkParams(n, 1.05, 0.3, delay=2.0)
    times = np.arange(int(t_end / step) + 1) * step
    states = np.zeros((len(times), 2 * n))
    derivs = np.zeros_like(states)
    eps = 1e-6
    for i, f in enumerate(funs):
        pos = f(times)
        vel = (f(times + eps) - f(times - eps)) / (2 * eps)
        acc = (f(times + eps) - 2 * pos + f(times - eps)) / eps**2
        states[:, 2 * i] = pos
        states[:, 2 * i + 1] = vel
        derivs[:, 2 * i] = vel
        derivs[:, 2 * i + 1] = acc
    return Trajectory(ModelKind.FULL_PHASE, p, times, states, derivs, states[0].copy(), step)


T0 = 7.3


def test_classify_fully_sync():
    f = lambda t: np.sin(2 * np.pi * t / T0)
    traj = synthetic(3, [f, f, f])
    cls = symmetry_classify(traj, T0)
    assert cls.tag is SymmetryTag.FULLY_SYNC
    assert cls.pair is None
    assert cls.residual < 1e-6


def test_classify_rotating_wave_either_direction():
    base = lambda shift: (lambda t: np.sin(2 * np.pi * (t + shift * T0) / T0))
    for sign in (+1, -1):
        funs = [base(sign * i / 3.0) for i in range(3)]
        cls = symmetry_classify(synthetic(3, funs), T0)
        assert cls.tag is SymmetryTag.ROTATING_WAVE


def test_classify_pair_swap_with_half_period_shift():
    f1 = lambda t: np.sin(2 * np.pi * t / T0) + 0.3 * np.sin(4 * np.pi * t / T0)
    f2 = lambda t: f1(t + T0 / 2.0)
    f3 = lambda t: 0.5 * np.sin(4 * np.pi * t / T0)  # half-period component
    cls = symmetry_classify(synthetic(3, [f1, f2, f3]), T0)
    assert cls.tag is SymmetryTag.Z2_SPATIO_TEMPORAL
    assert cls.pair == (1, 2)


def test_classify_frozen_pair():
    f1 = lambda t: np.sin(2 * np.pi * t / T0) + 0.40 * np.sin(4 * np.pi * t / T0)
    f3 = lambda t: np.cos(2 * np.pi * t / T0)
    cls = symmetry_classify(synthetic(3, [f1, f1, f3]), T0)
    assert cls.tag is SymmetryTag.Z2_SPATIAL
    assert cls.pair == (1, 2)


def test_classify_asymmetric():
    funs = [
        lambda t: np.sin(2 * np.pi * t / T0),
        lambda t: 0.55 * np.sin(2 * np.pi * t / T0 + 1.1),
        lambda t: 0.2 * np.cos(2 * np.pi * t / T0 + 0.4),
    ]
    cls = symmetry_classify(synthetic(3, funs), T0)
    assert cls.tag is SymmetryTag.ASYMMETRIC


def test_classify_needs_enough_trajectory():
    f = lambda t: np.sin(2 * np.pi * t / T0)
    traj = synthetic(3, [f, f, f], t_end=10.0)
    with pytest.raises(InvalidParamError):
        symmetry_classify(traj, T0)


def test_period_estimate_on_synthetic_signal():
    # long tail: the estimator wants >= 6 upward mean crossings after the transient
    traj = synthetic(
        2, [lambda t: np.sin(2 * np.pi * t / T0), lambda t: np.cos(2 * np.pi * t / T0)], t_end=160.0
    )
    assert period_estimate(traj) == pytest.approx(T0, abs=1e-4)


def test_period_estimate_rejects_flat_signal():
    traj = synthetic(2, [lambda t: 0.0 * t + 1.0, lambda t: 0.0 * t - 1.0])
    with pytest.raises(NotPeriodicError):
        period_estimate(traj)
