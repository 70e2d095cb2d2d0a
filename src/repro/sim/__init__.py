"""Simulation kernel: engine, components, configuration and statistics."""

from repro.sim.component import Component
from repro.sim.config import (
    BusConfig,
    DSEConfig,
    LocalStoreConfig,
    LSEConfig,
    MachineConfig,
    MainMemoryConfig,
    MFCConfig,
    SPUConfig,
    WatchdogConfig,
    latency1_config,
    paper_config,
)
from repro.sim.engine import (
    Callback,
    Engine,
    SimulationDeadlock,
    SimulationLimitExceeded,
    register_callback,
)
from repro.sim.sanitize import InvariantViolation, Sanitizer
from repro.sim.snapshot import CheckpointError, load_checkpoint, save_checkpoint
from repro.sim.watchdog import ProgressWatchdog, SimulationLivelock
from repro.sim.stats import (
    Bucket,
    BusStats,
    FaultStats,
    InstructionMix,
    MachineStats,
    MemoryStats,
    MFCStats,
    SchedulerStats,
    SpuStats,
    TimeBreakdown,
)

__all__ = [
    "Component",
    "Engine",
    "Callback",
    "register_callback",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "SimulationDeadlock",
    "SimulationLimitExceeded",
    "SimulationLivelock",
    "ProgressWatchdog",
    "Sanitizer",
    "InvariantViolation",
    "MachineConfig",
    "MainMemoryConfig",
    "LocalStoreConfig",
    "BusConfig",
    "MFCConfig",
    "SPUConfig",
    "LSEConfig",
    "DSEConfig",
    "WatchdogConfig",
    "paper_config",
    "latency1_config",
    "Bucket",
    "TimeBreakdown",
    "InstructionMix",
    "SpuStats",
    "BusStats",
    "MemoryStats",
    "MFCStats",
    "SchedulerStats",
    "FaultStats",
    "MachineStats",
]
