"""Characteristic blocks: evaluation, factorization, isotypic structure."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    Branch,
    IndexOutOfRangeError,
    InvalidParamError,
    ModelKind,
    NetworkParams,
    QuasiPolynomial,
    block_product,
    blocks_from_gain,
    build_blocks,
    constant_quasi_polynomial,
    crossing_angle,
    equilibrium,
    full_determinant,
    isotypic_basis,
    isotypic_direction,
    releq_branches,
    releq_solve,
    rightmost_root,
    unstable_count,
)
from pllbif.snmap import _b_c

from branch_blocks import branch_blocks


def test_constant_block_eval_matches_formula():
    q = constant_quasi_polynomial(0.7, 0.3, -0.2)
    lam = 0.4 + 1.1j
    want = lam * lam + 0.3 * lam + 0.7 - 0.2 * np.exp(-lam * 1.5)
    assert q.eval(lam, 1.5) == pytest.approx(want, abs=1e-15)
    want2 = lam * lam + 0.3 * lam + 0.7 - 0.2 * np.exp(-lam * 2.5)
    assert q.eval(lam, 2.5) == pytest.approx(want2, abs=1e-15)
    assert not q.tau_dependent


def test_eval_many_matches_scalar():
    p = NetworkParams(2, 1.0, 1.0)
    br = releq_branches(p, (0.0, 8.0))[0]
    lams = np.array([0.1 + 0.2j, -0.3 + 1.0j, 0.0 + 0.0j])
    for q, tau in (
        (constant_quasi_polynomial(0.7, 0.3, -0.2), 1.5),
        (branch_blocks(p, br).standard, 3.0),
    ):
        vals = q.eval(lams, tau)
        assert vals.shape == lams.shape
        for lam, v in zip(lams, vals):
            assert v == pytest.approx(q.eval(lam, tau), abs=1e-14)


def test_snapshot_is_the_coefficients_delay_and_slopes_as_floats():
    # one block pair of each formulation, and one along a locked branch
    p = NetworkParams(2, 1.05, 0.3)
    br = releq_branches(p, (0.0, 8.0))[0]
    pairs = (
        build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.MINUS)),
        build_blocks(ModelKind.PHASE, p, releq_solve(p, 3.0)[0]),
        branch_blocks(p, br),
        build_blocks(ModelKind.PHASE_DIFFERENCE, p, 0.4),
    )
    tau = 3.0
    for blk in (q for pair in pairs for q in (pair.fix, pair.standard)):
        slopes = blk.dcoeffs(tau) if blk.tau_dependent else (0.0, 0.0)
        want = tuple(float(v) for v in (*blk.at(tau), tau, *slopes))
        got = blk.snapshot(tau)
        assert [type(v) for v in got] == [float] * 6
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_every_evaluation_names_its_delay():
    assert "delay" not in {f.name for f in dataclasses.fields(QuasiPolynomial)}
    for func in (QuasiPolynomial.at, QuasiPolynomial.eval, crossing_angle, rightmost_root, unstable_count):
        assert inspect.signature(func).parameters["tau"].default is inspect.Parameter.empty, func


def test_b_c_map():
    # b = r1^2 - 2 r0, c = r0^2 - s0^2
    b, c = _b_c(*constant_quasi_polynomial(0.7, 0.3, -0.2).at(1.5))
    assert b == pytest.approx(0.09 - 1.4)
    assert c == pytest.approx(0.49 - 0.04)


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


@pytest.mark.parametrize("component", [isotypic_basis, isotypic_direction])
def test_a_non_integer_isotypic_index_is_refused(component):
    # j = 1.5 in the root-of-unity pattern gives [1, -1, 1]/sqrt(3), no isotypic row
    with pytest.raises(InvalidParamError):
        component(3, 1.5)


def test_multiplicities():
    blocks = blocks_from_gain(NetworkParams(6, 1.2, 0.4), lambda t: 0.37, lambda t: 0.0)
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
    blocks = blocks_from_gain(NetworkParams(n, 1.2, mu), lambda t: a, lambda t: 0.0)
    lam = -0.2 + 0.8j
    efix = lam * lam + mu * lam + a - a * np.exp(-lam * tau)
    estd = lam * lam + mu * lam + a + a / (n - 1) * np.exp(-lam * tau)
    assert blocks.fix.eval(lam, tau) == pytest.approx(efix, abs=1e-14)
    assert blocks.standard.eval(lam, tau) == pytest.approx(estd, abs=1e-14)


def test_coefficient_derivatives_by_finite_difference():
    # blocks on a locked branch and PHASE_DIFFERENCE blocks carry
    # tau-dependent r0 and s0
    p = NetworkParams(2, 1.0, 1.0)
    br = releq_branches(p, (0.0, 8.0))[0]
    blocks = (
        branch_blocks(p, br).standard,
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
