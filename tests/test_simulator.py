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
    NonFiniteError,
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
    state_dim,
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
# the integrator against a per-step reference loop


def reference_integrate(kind, params, history, t_end, step, omega=None):
    """Method-of-steps RK4 that evaluates the whole field at every stage.

    Delayed stage values come from the history sampled on the half-step grid
    for the first delay interval, and from the grid and its cubic midpoint
    once per step after that; ``integrate`` must reproduce it bit for bit.
    """
    tau = params.delay
    if tau > 0.0:
        m = max(4, math.ceil(tau / step - 1e-12))
        h = tau / m
        past = np.array([history.state(t) for t in np.linspace(-tau, 0.0, 2 * m + 1)])
    else:
        m, h = 0, step
        past = np.array([history.state(0.0)])

    def f(y, d):
        return rhs(kind, params, y, y if d is None else d, omega)

    def hermite(y0, f0, y1, f1):
        a, b, th = 0.25, 0.25, 0.5
        return (
            a * (1.0 + 2.0 * th) * y0
            + b * (3.0 - 2.0 * th) * y1
            + th * a * h * f0
            - b * (1.0 - th) * h * f1
        )

    nsteps = math.ceil(t_end / h - 1e-12)
    times = np.arange(nsteps + 1) * h
    states = np.empty((nsteps + 1, len(past[0])))
    derivs = np.empty_like(states)
    states[0] = past[-1]
    derivs[0] = f(past[-1], past[0])
    for k in range(nsteps):
        if m == 0:
            dh = d1 = None
        elif k < m:
            dh, d1 = past[2 * k + 1], past[2 * k + 2]
        else:
            j = k - m
            d1 = states[j + 1]
            dh = hermite(states[j], derivs[j], d1, derivs[j + 1])
        y = states[k]
        k1 = derivs[k]
        k2 = f(y + 0.5 * h * k1, dh)
        k3 = f(y + 0.5 * h * k2, dh)
        k4 = f(y + h * k3, d1)
        states[k + 1] = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        derivs[k + 1] = f(states[k + 1], d1)
    return times, states, derivs


def _kick(kind, n):
    """A constant history off every equilibrium: positions spread, one velocity nudged."""
    base = np.zeros(state_dim(kind, n))
    base[0::2] = np.linspace(-0.9, 0.4, len(base) // 2)
    base[1] = 0.05
    return HistorySpec.constant(base)


def assert_matches_reference(kind, params, history, t_end, step):
    omega = 0.8 if kind is ModelKind.PHASE_ROTATING_FRAME else None
    traj = integrate(kind, params, history, t_end, step, omega=omega)
    times, states, derivs = reference_integrate(kind, params, history, t_end, step, omega)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivs, derivs)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
@pytest.mark.parametrize(
    "delay, t_end, step",
    [
        (0.0, 3.0, 0.1),  # delay-free: the input is evaluated per stage
        (2.0, 7.0, 0.5),  # m = 4, the smallest interval
        (2.0, 1.3, 0.1),  # t_end < tau: part of the first interval only
        (2.0, 9.3, 0.1),  # a partial last interval
    ],
)
def test_integrate_matches_the_per_step_reference(kind, delay, t_end, step):
    p = NetworkParams(3, 1.05, 0.3, delay=delay)
    assert_matches_reference(kind, p, _kick(kind, 3), t_end, step)


def test_integrate_matches_the_reference_from_a_moving_history():
    assert_matches_reference(ModelKind.FULL_PHASE, P3, coarse_orbit(), 30.0, 9.5 / 20)


@pytest.mark.parametrize(
    "kind", [k for k in ModelKind if k is not ModelKind.PHASE_DIFFERENCE], ids=lambda k: k.value
)
def test_integrate_matches_the_reference_at_sixty_four_nodes(kind):
    p = NetworkParams(64, 1.05, 0.3, delay=1.0)
    assert_matches_reference(kind, p, _kick(kind, 64), 2.6, 0.1)


def test_runaway_trajectory_is_stopped_at_the_step_it_leaves_bounds():
    # the frame term -mu omega drives the velocities past 1e8 in the step to t = 13.3
    p = NetworkParams(3, 1.05, 0.3, delay=2.0)
    hist = HistorySpec.constant(np.zeros(6))
    with pytest.raises(NonFiniteError, match=r"^trajectory left bounds near t = 13\.3$"):
        integrate(ModelKind.PHASE_ROTATING_FRAME, p, hist, 100.0, 0.1, omega=1e7)


def test_nan_history_is_stopped_at_the_first_step():
    hist = HistorySpec.constant(np.full(4, np.nan))
    with pytest.raises(NonFiniteError, match=r"^trajectory left bounds near t = 0\.25$"):
        integrate(ModelKind.FULL_PHASE, P2, hist, 5.0, step=0.25)


def test_dense_output_past_the_end_is_refused():
    eq = equilibrium(P2, Branch.MINUS)
    hist = HistorySpec.perturbed(equilibrium_state(ModelKind.FULL_PHASE, P2, eq), sync_direction(2), 0.2)
    traj = integrate(ModelKind.FULL_PHASE, P2, hist, 10.0, step=0.1)
    t_end = float(traj.times[-1])
    for t in (50.0, 1e9, math.nan, t_end + 1e-6):
        with pytest.raises(InvalidParamError, match="outside the trajectory"):
            traj.at(t)
    # a rounding past the last node still reads the final state
    T = 2.9
    assert np.array_equal(traj.at(t_end - T / 2 + T / 2), traj.states[-1])
    assert np.array_equal(traj.at(np.nextafter(t_end, math.inf)), traj.states[-1])


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
