"""Configuration dataclasses: paper defaults, validation, derivation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.config import (
    BusConfig,
    LocalStoreConfig,
    LSEConfig,
    MachineConfig,
    MainMemoryConfig,
    MFCConfig,
    latency1_config,
    paper_config,
)


class TestPaperDefaults:
    def test_table2_main_memory(self):
        cfg = paper_config()
        assert cfg.main_memory.size == 512 * 1024 * 1024
        assert cfg.main_memory.latency == 150
        assert cfg.main_memory.ports == 1

    def test_table2_local_store(self):
        cfg = paper_config()
        assert cfg.local_store.size == 156 * 1024
        assert cfg.local_store.latency == 6
        assert cfg.local_store.ports == 3

    def test_table4_bus(self):
        cfg = paper_config()
        assert cfg.bus.num_buses == 4
        assert cfg.bus.bytes_per_cycle == 8
        assert cfg.bus.total_bandwidth == 32

    def test_table4_mfc(self):
        cfg = paper_config()
        assert cfg.mfc.command_queue_size == 16
        assert cfg.mfc.command_latency == 30

    def test_default_spe_count(self):
        assert paper_config().num_spes == 8
        assert paper_config(3).num_spes == 3

    def test_latency1_sets_both_latencies(self):
        cfg = latency1_config()
        assert cfg.main_memory.latency == 1
        assert cfg.local_store.latency == 1
        # Everything else untouched.
        assert cfg.bus == paper_config().bus
        assert cfg.mfc == paper_config().mfc


class TestValidation:
    def test_rejects_zero_spes(self):
        with pytest.raises(ValueError):
            MachineConfig(num_spes=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MainMemoryConfig(latency=0)

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            LocalStoreConfig(ports=0)

    def test_rejects_frame_region_overflow(self):
        with pytest.raises(ValueError):
            LocalStoreConfig(frame_region=200 * 1024)

    def test_rejects_frames_exceeding_region(self):
        lse = LSEConfig(num_frames=4096, frame_size_words=32)
        with pytest.raises(ValueError, match="frame region"):
            MachineConfig(lse=lse)

    def test_rejects_tiny_mfc_transfer(self):
        with pytest.raises(ValueError):
            MFCConfig(max_transfer_size=2)

    def test_rejects_zero_bus(self):
        with pytest.raises(ValueError):
            BusConfig(num_buses=0)


class TestDerivation:
    def test_with_latency(self):
        cfg = paper_config().with_latency(42)
        assert cfg.main_memory.latency == 42
        assert cfg.local_store.latency == 6  # unchanged

    def test_with_spes(self):
        assert paper_config().with_spes(2).num_spes == 2

    def test_replace_is_pure(self):
        base = paper_config()
        derived = base.with_latency(1)
        assert base.main_memory.latency == 150
        assert derived is not base

    def test_prefetch_region(self):
        ls = LocalStoreConfig()
        assert ls.prefetch_region == ls.size - ls.frame_region

    def test_frame_size_bytes(self):
        assert LSEConfig(frame_size_words=32).frame_size_bytes == 128

    def test_configs_are_hashable_and_frozen(self):
        cfg = paper_config()
        hash(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_spes = 4  # type: ignore[misc]
