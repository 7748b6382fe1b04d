"""Unit tests for configuration objects."""

import pytest

from repro.core.config import DelayMode, SdurConfig


class TestSdurConfig:
    def test_defaults_are_baseline_sdur(self):
        config = SdurConfig()
        assert config.reorder_threshold == 0
        assert config.delay_mode is DelayMode.OFF
        assert config.store_gc_interval is None

    def test_frozen(self):
        with pytest.raises(Exception):
            SdurConfig().reorder_threshold = 5  # type: ignore[misc]


class TestDelayMode:
    def test_values(self):
        assert DelayMode("off") is DelayMode.OFF
        assert DelayMode("auto") is DelayMode.AUTO
        assert DelayMode("fixed") is DelayMode.FIXED
