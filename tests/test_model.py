import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pllbif import (
    Branch,
    DimensionMismatchError,
    HistorySpec,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    NoEquilibriumError,
    NonFiniteError,
    UnsupportedKindError,
    compile_rhs,
    difference_pairs,
    equilibria,
    equilibrium,
    equilibrium_state,
    integrate,
    isotypic_direction,
    normalize,
    rhs,
    state_dim,
    sync_direction,
)
from pllbif.model import _compile_parts
from pllbif.simulator import _FLOAT_DIM, _advance_arrays, _advance_floats


def test_params_validation():
    with pytest.raises(InvalidParamError):
        NetworkParams(1, 1.0, 0.5)
    with pytest.raises(InvalidParamError):
        NetworkParams(2, -1.0, 0.5)
    with pytest.raises(InvalidParamError):
        NetworkParams(2, 1.0, 0.0)
    with pytest.raises(InvalidParamError):
        NetworkParams(2, 1.0, 0.5, delay=-0.1)
    with pytest.raises(InvalidParamError):
        NetworkParams(2, math.nan, 0.5)


def test_normalize_scales_and_is_idempotent():
    p = NetworkParams(3, 2.1, 0.15, free_freq=2.0, delay=4.75)
    q = normalize(p)
    assert q.free_freq == 1.0
    assert q.coupling == pytest.approx(1.05)
    assert q.filter_gain == pytest.approx(0.075)
    assert q.delay == pytest.approx(9.5)
    assert normalize(q) is q


def test_state_dims():
    assert state_dim(ModelKind.FULL_PHASE, 3) == 6
    assert state_dim(ModelKind.PHASE, 5) == 10
    assert state_dim(ModelKind.PHASE_DIFFERENCE, 2) == 4
    assert state_dim(ModelKind.PHASE_DIFFERENCE, 3) == 12
    with pytest.raises(UnsupportedKindError):
        state_dim(ModelKind.PHASE_DIFFERENCE, 4)


def test_difference_pairs_lexicographic():
    assert difference_pairs(2) == [(0, 1), (1, 0)]
    assert difference_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_equilibria_frozen_values():
    # sin(2 phi) = -1/K at K = 1.05; branches told apart by cos(2 phi)
    eqs = equilibria(NetworkParams(2, 1.05, 0.3))
    assert [e.branch for e in eqs] == [Branch.PLUS, Branch.MINUS]
    plus, minus = eqs
    assert minus.phi == pytest.approx(-0.9403204832682618, abs=1e-15)
    assert plus.phi == pytest.approx(-0.6304758435266348, abs=1e-15)
    assert minus.cos_two_phi == pytest.approx(-0.3049106779729929, abs=1e-15)
    assert plus.cos_two_phi == pytest.approx(-minus.cos_two_phi, abs=1e-15)
    for e in eqs:
        assert math.sin(2.0 * e.phi) == pytest.approx(-1.0 / 1.05, abs=1e-14)


def test_equilibria_below_threshold_raises():
    with pytest.raises(NoEquilibriumError):
        equilibria(NetworkParams(2, 0.95, 0.3))


def test_equilibria_coincide_at_threshold():
    eqs = equilibria(NetworkParams(2, 1.0, 0.3))
    assert len(eqs) == 1
    assert eqs[0].phi == pytest.approx(-math.pi / 4)
    assert eqs[0].cos_two_phi == 0.0
    # both labels resolve to the same point
    assert equilibrium(NetworkParams(2, 1.0, 0.3), Branch.MINUS).phi == eqs[0].phi


def test_equilibrium_is_rhs_fixed_point():
    p = NetworkParams(3, 1.05, 0.075, delay=9.5)
    for br in Branch:
        eq = equilibrium(p, br)
        x = np.zeros(6)
        x[0::2] = eq.phi
        out = rhs(ModelKind.FULL_PHASE, p, x, x)
        assert np.max(np.abs(out)) < 1e-14


def test_rhs_dimension_check():
    p = NetworkParams(2, 1.05, 0.3, delay=1.0)
    with pytest.raises(DimensionMismatchError):
        rhs(ModelKind.FULL_PHASE, p, np.zeros(5), np.zeros(5))


def test_rhs_normalizes_at_the_boundary():
    # physical parameters and their normalized image give the same field
    phys = NetworkParams(2, 2.1, 0.6, free_freq=2.0, delay=0.85)
    x = np.array([0.3, -0.1, -0.4, 0.2])
    xd = np.array([0.1, 0.0, 0.2, -0.3])
    a = rhs(ModelKind.FULL_PHASE, phys, x, xd)
    b = rhs(ModelKind.FULL_PHASE, normalize(phys), x, xd)
    assert np.allclose(a, b, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from([ModelKind.FULL_PHASE, ModelKind.PHASE]),
)
def test_rhs_permutation_equivariance(n, seed, kind):
    """Relabeling nodes commutes with the vector field."""
    rng = np.random.default_rng(seed)
    p = NetworkParams(n, 1.2, 0.4, delay=1.3)
    x = rng.uniform(-2.0, 2.0, 2 * n)
    xd = rng.uniform(-2.0, 2.0, 2 * n)
    perm = rng.permutation(n)
    idx = np.empty(2 * n, dtype=int)
    idx[0::2] = 2 * perm
    idx[1::2] = 2 * perm + 1
    direct = rhs(kind, p, x, xd)[idx]
    permuted = rhs(kind, p, x[idx], xd[idx])
    assert np.allclose(direct, permuted, atol=1e-12)


def test_rotating_frame_needs_omega():
    p = NetworkParams(2, 1.05, 0.3, delay=1.0)
    x = np.zeros(4)
    with pytest.raises(UnsupportedKindError):
        rhs(ModelKind.PHASE_ROTATING_FRAME, p, x, x)
    out = rhs(ModelKind.PHASE_ROTATING_FRAME, p, x, x, omega=0.9)
    assert out.shape == (4,)


# ---------------------------------------------------------------------------
# the O(N) coupling sums against the model equations summed pair by pair


def oracle_rhs(kind, params, state, delayed, omega=None):
    """The field written out term by term from the model equations, O(N^2)."""
    p = normalize(params)
    n = p.n_nodes
    mu = p.filter_gain
    gain = p.coupling * mu / (n - 1)
    out = np.empty_like(state)
    out[0::2] = state[1::2]
    if kind is ModelKind.PHASE_DIFFERENCE:
        pairs = difference_pairs(n)
        where = {pair: idx for idx, pair in enumerate(pairs)}
        shift = p.free_freq * p.delay
        for idx, (i, j) in enumerate(pairs):
            und = sum(math.sin(state[2 * where[i, l]] + shift) for l in range(n) if l != i)
            dly = sum(math.sin(delayed[2 * where[j, l]] + shift) for l in range(n) if l != j)
            out[2 * idx + 1] = -mu * state[2 * idx + 1] - gain * (und - dly)
        return out
    for i in range(n):
        x = state[2 * i]
        acc = -mu * state[2 * i + 1]
        if kind is ModelKind.FULL_PHASE:
            acc += mu * p.free_freq
        if kind is ModelKind.PHASE_ROTATING_FRAME:
            acc -= mu * omega
        for j in range(n):
            if j == i:
                continue
            d = delayed[2 * j]
            if kind is ModelKind.FULL_PHASE:
                acc += gain * (math.sin(d - x) + math.sin(d + x))
            elif kind is ModelKind.PHASE:
                acc += gain * math.sin(d - x - p.free_freq * p.delay)
            else:
                acc += gain * math.sin(d - x - (omega + p.free_freq) * p.delay)
        out[2 * i + 1] = acc
    return out


ORACLE_CASES = [
    (kind, n)
    for kind in (ModelKind.FULL_PHASE, ModelKind.PHASE, ModelKind.PHASE_ROTATING_FRAME)
    for n in (2, 3, 16, 128)
] + [(ModelKind.PHASE_DIFFERENCE, n) for n in (2, 3)]


@pytest.mark.parametrize(
    "kind,n", ORACLE_CASES, ids=[f"{k.value}-{n}" for k, n in ORACLE_CASES]
)
def test_rhs_matches_pairwise_oracle(kind, n):
    rng = np.random.default_rng(1000 + n)
    p = NetworkParams(n, 2.6, 0.8, free_freq=1.3, delay=1.7)
    dim = state_dim(kind, n)
    omega = 0.35 if kind is ModelKind.PHASE_ROTATING_FRAME else None
    compiled = compile_rhs(kind, p, omega)
    xs = rng.uniform(-4.0, 4.0, (5, dim))
    xds = rng.uniform(-4.0, 4.0, (5, dim))
    batch = compiled(xs, xds)
    for x, xd, row in zip(xs, xds, batch):
        want = oracle_rhs(kind, p, x, xd, omega)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(compiled(x, xd) - want)) <= 1e-12 * scale
        assert np.max(np.abs(rhs(kind, p, x, xd, omega=omega) - want)) <= 1e-12 * scale
        assert np.max(np.abs(row - want)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_stepper_equals_the_array_stepper(data):
    """Bit for bit over one delay interval, at every network size the integrator steps on floats.

    A run that leaves bounds raises the same error on both paths; the array
    path has written the rows before it, the float path none.
    """
    n = data.draw(st.integers(min_value=2, max_value=_FLOAT_DIM // 2))
    m = data.draw(st.integers(min_value=1, max_value=8))
    p = NetworkParams(
        n,
        data.draw(st.floats(0.1, 10.0)),
        data.draw(st.floats(0.01, 10.0)),
        free_freq=data.draw(st.floats(0.5, 2.0)),
        delay=1.0,
    )
    h = data.draw(st.floats(1e-3, 2.0))
    state = data.draw(st.lists(st.floats(-1e8, 1e8), min_size=2 * n, max_size=2 * n))
    # the doubled delayed input: 2 (sum_j sin d_j - sin d_i) lies in [2 (1 - N), 2 (N - 1)]
    span = 2.0 * (n - 1)
    inputs = data.draw(st.lists(st.floats(-span, span), min_size=2 * m * n, max_size=2 * m * n))
    inputs = np.array(inputs).reshape(2 * m, n)
    _, local, constants = _compile_parts(ModelKind.FULL_PHASE, p)
    times = h * np.arange(m + 1)
    outcomes = []
    for advance, field in ((_advance_arrays, local), (_advance_floats, constants)):
        states, derivs = np.zeros((m + 1, 2 * n)), np.zeros((m + 1, 2 * n))
        states[0] = state
        derivs[0] = local(states[0], inputs[-1])
        try:
            with np.errstate(invalid="ignore"):
                advance(field, states, derivs, times, h, 0, m, inputs)
        except NonFiniteError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((states.tobytes(), derivs.tobytes()))
    assert outcomes[0] == outcomes[1]


@given(c=st.floats(-1.0, 1.0), d=st.floats(-1e8, 1e8), gain=st.floats(0.0, 1e8))
@example(c=5e-324, d=1.5, gain=1.0)
@example(c=-0.75, d=2.5e-320, gain=3.0)
@example(c=1e-310, d=-1e-310, gain=1e8)
@example(c=0.9999999999999999, d=99999999.99999999, gain=99999999.99999999)
@example(c=-1.0, d=-1e8, gain=1e8)
def test_doubling_the_input_rounds_like_doubling_the_cosine(c, d, gain):
    # the factor 2 moved from the cosine to the delayed input: doubling is
    # exact, so both products round the same real number, subnormals included
    before = gain * (2.0 * c * d)
    after = gain * (c * (2.0 * d))
    assert np.float64(before).tobytes() == np.float64(after).tobytes()


class _ShortPast:
    """A history with the right shape at t = 0 and one coordinate missing before."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def state(self, t=0.0):
        return self.vec if t == 0.0 else self.vec[:-1]


def test_malformed_history_sample_is_rejected():
    p = NetworkParams(2, 1.05, 0.3, delay=2.0)
    base = equilibrium_state(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS))
    with pytest.raises(DimensionMismatchError):
        integrate(ModelKind.FULL_PHASE, p, _ShortPast(base), 5.0, step=0.1)


def test_integration_is_permutation_equivariant_at_64_nodes():
    n = 64
    p = NetworkParams(n, 1.05, 0.3, delay=2.0)
    base = equilibrium_state(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS))
    kick = isotypic_direction(n, 5)
    perm = np.random.default_rng(7).permutation(n)
    idx = np.empty(2 * n, dtype=int)
    idx[0::2], idx[1::2] = 2 * perm, 2 * perm + 1
    first = integrate(ModelKind.FULL_PHASE, p, HistorySpec.perturbed(base, kick, 0.05), 40.0, 0.1)
    second = integrate(
        ModelKind.FULL_PHASE, p, HistorySpec.perturbed(base[idx], kick[idx], 0.05), 40.0, 0.1
    )
    assert np.max(np.abs(second.states - first.states[:, idx])) < 1e-9


def test_synchronized_rotating_frame_history_stays_synchronized():
    n = 64
    p = NetworkParams(n, 1.05, 0.3, delay=2.0)
    hist = HistorySpec.perturbed(np.zeros(2 * n), sync_direction(n), 0.03)
    traj = integrate(ModelKind.PHASE_ROTATING_FRAME, p, hist, 40.0, 0.1, omega=-0.04)
    pos = traj.states[:, 0::2]
    assert np.any(pos != 0.0)
    assert np.all(pos == pos[:, :1])
