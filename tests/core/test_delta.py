"""Tests for change-based (anchor/delta) encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import (
    anchor_positions,
    compute_deltas,
    consecutive_delta_variance_ratio,
    reconstruct_from_deltas,
)


class TestAnchorPositions:
    @pytest.mark.parametrize(
        "tokens,group,expected",
        [(10, 10, [0]), (11, 10, [0, 10]), (25, 10, [0, 10, 20]), (5, 2, [0, 2, 4])],
    )
    def test_positions(self, tokens, group, expected):
        np.testing.assert_array_equal(anchor_positions(tokens, group), expected)

    @pytest.mark.parametrize("tokens,group", [(0, 10), (10, 0), (-1, 5)])
    def test_invalid(self, tokens, group):
        with pytest.raises(ValueError):
            anchor_positions(tokens, group)


class TestComputeDeltas:
    def test_anchor_values_extracted(self, rng):
        tensor = rng.normal(size=(3, 25, 4))
        decomposition = compute_deltas(tensor, group_size=10)
        np.testing.assert_array_equal(decomposition.anchors, tensor[:, [0, 10, 20], :])

    def test_delta_is_difference_to_anchor(self, rng):
        tensor = rng.normal(size=(2, 23, 5))
        decomposition = compute_deltas(tensor, group_size=10)
        np.testing.assert_allclose(
            decomposition.deltas[:, 13, :], tensor[:, 13, :] - tensor[:, 10, :], rtol=1e-6
        )

    def test_delta_zero_at_anchor_positions(self, rng):
        tensor = rng.normal(size=(2, 30, 4))
        decomposition = compute_deltas(tensor, group_size=10)
        np.testing.assert_allclose(decomposition.deltas[:, [0, 10, 20], :], 0.0)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            compute_deltas(np.zeros((5, 5)))

    def test_roundtrip_exact(self, rng):
        tensor = rng.normal(size=(3, 37, 6)).astype(np.float32)
        decomposition = compute_deltas(tensor, group_size=10)
        np.testing.assert_allclose(reconstruct_from_deltas(decomposition), tensor, atol=1e-6)

    def test_reconstruct_with_lossy_deltas_keeps_anchor_exact(self, rng):
        tensor = rng.normal(size=(2, 21, 4)).astype(np.float32)
        decomposition = compute_deltas(tensor, group_size=10)
        decomposition.deltas[:] += 0.5
        rebuilt = reconstruct_from_deltas(decomposition)
        np.testing.assert_allclose(rebuilt[:, [0, 10, 20], :], tensor[:, [0, 10, 20], :], atol=1e-6)


class TestVarianceRatios:
    def test_consecutive_ratio_matches_paper_range(self, kv):
        """Insight 1: consecutive-delta variance is 2.4-2.9x lower."""
        for tensor in (kv.k, kv.v):
            ratio = consecutive_delta_variance_ratio(tensor)
            assert 2.2 < ratio < 3.2

    @pytest.mark.parametrize("which", ["k", "v"])
    def test_anchor_group_ratio_above_one(self, kv, which):
        """Anchor-group deltas must still be meaningfully smaller than originals:
        deltas reach up to ``group_size - 1`` tokens back, so the ratio sits
        below the consecutive one of Figure 3 but well above 1."""
        tensor = getattr(kv, which)
        decomposition = compute_deltas(tensor)
        mask = np.ones(decomposition.num_tokens, dtype=bool)
        mask[anchor_positions(decomposition.num_tokens, decomposition.group_size)] = False
        ratio = np.var(tensor) / np.var(decomposition.deltas[:, mask, :])
        assert 1.5 < ratio < consecutive_delta_variance_ratio(tensor)

    def test_consecutive_requires_two_tokens(self):
        with pytest.raises(ValueError):
            consecutive_delta_variance_ratio(np.zeros((2, 1, 3)))

    def test_white_noise_has_ratio_below_one(self, rng):
        """Independent tokens: deltas have twice the variance of the values."""
        tensor = rng.normal(size=(2, 500, 8))
        assert consecutive_delta_variance_ratio(tensor) < 0.7


@settings(max_examples=25, deadline=None)
@given(
    layers=st.integers(1, 4),
    tokens=st.integers(1, 60),
    channels=st.integers(1, 6),
    group=st.integers(1, 16),
)
def test_delta_roundtrip_property(layers, tokens, channels, group):
    """compute_deltas followed by reconstruct_from_deltas is the identity."""
    rng = np.random.default_rng(layers * 7919 + tokens * 31 + channels)
    tensor = rng.normal(size=(layers, tokens, channels)).astype(np.float32)
    decomposition = compute_deltas(tensor, group_size=group)
    np.testing.assert_allclose(reconstruct_from_deltas(decomposition), tensor, atol=1e-5)
