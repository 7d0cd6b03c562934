"""Characteristic blocks: evaluation, factorization, isotypic structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    Branch,
    IndexOutOfRangeError,
    ModelKind,
    NetworkParams,
    block_product,
    blocks_from_gain,
    build_blocks,
    constant_quasi_polynomial,
    equilibrium,
    full_determinant,
    isotypic_basis,
    releq_branches,
    releq_solve,
)


def test_constant_block_eval_matches_formula():
    q = constant_quasi_polynomial(0.7, 0.3, -0.2, delay=1.5)
    lam = 0.4 + 1.1j
    want = lam * lam + 0.3 * lam + 0.7 - 0.2 * np.exp(-lam * 1.5)
    assert q.eval(lam) == pytest.approx(want, abs=1e-15)
    # delay override
    want2 = lam * lam + 0.3 * lam + 0.7 - 0.2 * np.exp(-lam * 2.5)
    assert q.eval(lam, 2.5) == pytest.approx(want2, abs=1e-15)
    assert not q.tau_dependent


def test_eval_many_matches_scalar():
    p = NetworkParams(2, 1.0, 1.0)
    br = releq_branches(p, (0.0, 8.0))[0]
    lams = np.array([0.1 + 0.2j, -0.3 + 1.0j, 0.0 + 0.0j])
    for q in (
        constant_quasi_polynomial(0.7, 0.3, -0.2, delay=1.5),
        build_blocks(ModelKind.PHASE, p, br).standard.with_delay(3.0),
    ):
        vals = q.eval(lams)
        assert vals.shape == lams.shape
        for lam, v in zip(lams, vals):
            assert v == pytest.approx(q.eval(lam), abs=1e-14)


def test_b_c_map():
    # b = r1^2 - 2 r0, c = r0^2 - s0^2
    q = constant_quasi_polynomial(0.7, 0.3, -0.2, delay=1.5)
    b, c = q.b_c(1.5)
    assert b == pytest.approx(0.09 - 1.4)
    assert c == pytest.approx(0.49 - 0.04)


def test_with_delay_round_trip():
    q = constant_quasi_polynomial(0.5, 0.2, 0.1, delay=1.0)
    q2 = q.with_delay(3.0)
    lam = 0.2 - 0.6j
    assert q2.eval(lam) == pytest.approx(q.eval(lam, 3.0), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), j=st.integers(min_value=0, max_value=8))
def test_isotypic_rows_are_orthonormal(n, j):
    j = j % n
    rows = isotypic_basis(n, j)
    assert rows.shape == (2, 2 * n)
    gram = rows @ rows.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    # position row touches only even slots, velocity row only odd ones
    assert np.all(rows[0, 1::2] == 0)
    assert np.all(rows[1, 0::2] == 0)


def test_isotypic_stack_is_unitary():
    n = 5
    stack = np.vstack([isotypic_basis(n, j) for j in range(n)])
    assert np.allclose(stack @ stack.conj().T, np.eye(2 * n), atol=1e-12)


def test_isotypic_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        isotypic_basis(4, 4)
    with pytest.raises(IndexOutOfRangeError):
        isotypic_basis(4, -1)


def test_multiplicities():
    blocks = blocks_from_gain(NetworkParams(6, 1.2, 0.4, delay=2.0), 0.37)
    assert blocks.multiplicities == (1, 5)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(min_value=-1.0, max_value=1.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=2, max_value=5),
)
def test_full_phase_determinant_factors(re, im, n):
    """det(lam I - A0 - Atau e^{-lam tau}) = P_fix * P_std^(N-1) on every formulation.

    Full phase at an equilibrium, the phase model at a locked rotation rate,
    and for N <= 3 the difference model at its constant C = (Omega - 1) tau,
    whose P_fix carries the fictitious factor (none for N = 2).
    """
    p = NetworkParams(n, 1.05, 0.3, delay=2.2)
    omega_hat = releq_solve(p, 2.2)[0]
    cases = [
        (ModelKind.FULL_PHASE, equilibrium(p, Branch.MINUS)),
        (ModelKind.PHASE, omega_hat),
    ]
    if n <= 3:
        cases.append((ModelKind.PHASE_DIFFERENCE, (omega_hat - 1.0) * 2.2))
    lam = complex(re, im)
    for kind, point in cases:
        det = full_determinant(kind, p, point, lam)
        prod = block_product(kind, p, point, lam)
        scale = max(1.0, abs(det))
        assert abs(det - prod) / scale < 1e-9, kind


def test_blocks_from_gain_matches_manual_formula():
    n, mu, a, tau = 4, 0.4, 0.23, 1.9
    blocks = blocks_from_gain(NetworkParams(n, 1.2, mu), a, delay=tau)
    lam = -0.2 + 0.8j
    efix = lam * lam + mu * lam + a - a * np.exp(-lam * tau)
    estd = lam * lam + mu * lam + a + a / (n - 1) * np.exp(-lam * tau)
    assert blocks.fix.eval(lam) == pytest.approx(efix, abs=1e-14)
    assert blocks.standard.eval(lam) == pytest.approx(estd, abs=1e-14)


def test_coefficient_derivatives_by_finite_difference():
    # PHASE blocks on a locked branch and PHASE_DIFFERENCE blocks carry
    # tau-dependent r0 and s0
    p = NetworkParams(2, 1.0, 1.0)
    br = releq_branches(p, (0.0, 8.0))[0]
    blocks = (
        build_blocks(ModelKind.PHASE, p, br).standard,
        build_blocks(ModelKind.PHASE_DIFFERENCE, p, 0.4).fix,
        build_blocks(ModelKind.PHASE_DIFFERENCE, p, 0.4).standard,
    )
    tau, h = 3.0, 1e-6
    for blk in blocks:
        assert blk.tau_dependent
        d = blk.dcoeffs(tau)
        hi, lo = blk.coeffs(tau + h), blk.coeffs(tau - h)
        for want, c_hi, c_lo in zip(d, hi, lo):
            assert float(want) == pytest.approx(float(c_hi - c_lo) / (2 * h), abs=1e-5)
