"""Unit tests for configuration objects."""

import pytest

from repro.core.config import DelayMode, SdurConfig


class TestSdurConfig:
    def test_defaults_are_baseline_sdur(self):
        config = SdurConfig()
        assert config.reorder_threshold == 0
        assert config.delay_mode is DelayMode.OFF
        assert not config.bloom_readsets
        assert config.store_gc_interval is None

    def test_with_reordering_copies(self):
        base = SdurConfig()
        tuned = base.with_reordering(16)
        assert tuned.reorder_threshold == 16
        assert base.reorder_threshold == 0
        assert tuned.history_window == base.history_window

    def test_with_delaying_copies(self):
        tuned = SdurConfig().with_delaying(DelayMode.FIXED, fixed=0.02)
        assert tuned.delay_mode is DelayMode.FIXED
        assert tuned.delay_fixed == 0.02

    def test_frozen(self):
        with pytest.raises(Exception):
            SdurConfig().reorder_threshold = 5  # type: ignore[misc]


class TestDelayMode:
    def test_values(self):
        assert DelayMode("off") is DelayMode.OFF
        assert DelayMode("auto") is DelayMode.AUTO
        assert DelayMode("fixed") is DelayMode.FIXED
