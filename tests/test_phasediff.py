"""Consistency of the pairwise-difference formulation with the block picture."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllbif import (
    ModelKind,
    NetworkParams,
    UnsupportedKindError,
    block_product,
    build_blocks,
    determinant_n3,
    fictitious_roots,
    linearization_matrices,
)

DIFF = ModelKind.PHASE_DIFFERENCE


def test_two_node_blocks_match_manual_formula():
    p = NetworkParams(2, 1.05, 0.3, delay=1.7)
    c = 0.4
    blocks = build_blocks(DIFF, p, c)
    mu = 0.3
    a = 1.05 * mu * np.cos(c + 1.7)  # modal gain K mu cos(C + omega_M tau)
    lam = 0.3 + 0.9j
    e = np.exp(-lam * 1.7)
    assert blocks.fix.eval(lam, 1.7) == pytest.approx(lam**2 + mu * lam + a - a * e, abs=1e-13)
    assert blocks.standard.eval(lam, 1.7) == pytest.approx(lam**2 + mu * lam + a + a * e, abs=1e-13)


def test_p1_carries_the_persistent_zero_root():
    blocks = build_blocks(DIFF, NetworkParams(2, 1.05, 0.3, delay=1.7), 0.4)
    assert abs(blocks.fix.eval(0.0, 1.7)) < 1e-14
    assert abs(blocks.standard.eval(0.0, 1.7)) > 1e-3


def test_two_node_only():
    with pytest.raises(UnsupportedKindError):
        determinant_n3(NetworkParams(2, 1.05, 0.3, delay=1.0), 0.0, 0.1)


def test_linearization_shapes_and_velocity_rows():
    a0, atau = linearization_matrices(DIFF, NetworkParams(3, 1.05, 0.075, delay=9.5), 0.4)
    assert a0.shape == (12, 12) and atau.shape == (12, 12)
    # position rows: x' = v, untouched by the delayed part
    for idx in range(6):
        row = np.zeros(12)
        row[2 * idx + 1] = 1.0
        assert np.array_equal(a0[2 * idx], row)
        assert not atau[2 * idx].any()


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(min_value=-0.6, max_value=0.6),
    im=st.floats(min_value=-1.5, max_value=1.5),
    c=st.floats(min_value=-3.0, max_value=3.0),
)
def test_determinant_equals_block_product(re, im, c):
    """The 12-dim determinant factors into fictitious roots times the blocks."""
    p = NetworkParams(3, 1.05, 0.075, delay=9.5)
    lam = complex(re, im)
    det = determinant_n3(p, c, lam)
    blocks = block_product(DIFF, p, c, lam)
    scale = max(1.0, abs(det), abs(blocks))
    assert abs(det - blocks) / scale < 1e-8


def test_fictitious_root_classification():
    p = NetworkParams(3, 1.05, 0.075, delay=9.5)
    roots = {fr.lam: fr.is_fictitious for fr in fictitious_roots(p, 0.4)}
    # zero is shared with the synchronized block, so it is genuine
    assert roots == {0.0: False, -0.075: True}
