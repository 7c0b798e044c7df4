"""Erasure-coded resilient remote memory.

Split-level Reed-Solomon coding over GF(2^8), copyset-aware placement with
analytic and Monte Carlo data-loss analysis, and a deterministic simulated
cluster driving the full read/write data path (late-binding reads, async
parity writes, corruption detection and correction, slab regeneration).
"""

__version__ = "0.1.0"

from .coding import (
    CodecParams,
    make_codec,
    encode,
    decode,
    detect_corruption,
    correct_corruption,
    min_splits,
)
from .placement import (
    ClusterShape,
    PlacementPlan,
    build_codingsets,
    build_eccache,
    select_members,
    count_copysets,
    loss_probability_analytic,
    loss_probability_montecarlo,
    load_imbalance,
)
from .simulator import Cluster, FaultScript, LatencyModel, inject
from .manager import ManagerConfig, ResilienceManager
from .analysis import (
    config_hash,
    emit_report,
    load_config,
    run_datapath,
    run_load_balance,
    run_loss_curves,
    run_scenario,
    validate_config,
)

__all__ = [
    "CodecParams",
    "make_codec",
    "encode",
    "decode",
    "detect_corruption",
    "correct_corruption",
    "min_splits",
    "ClusterShape",
    "PlacementPlan",
    "build_codingsets",
    "build_eccache",
    "select_members",
    "count_copysets",
    "loss_probability_analytic",
    "loss_probability_montecarlo",
    "load_imbalance",
    "Cluster",
    "FaultScript",
    "LatencyModel",
    "inject",
    "ManagerConfig",
    "ResilienceManager",
    "config_hash",
    "emit_report",
    "load_config",
    "run_datapath",
    "run_load_balance",
    "run_loss_curves",
    "run_scenario",
    "validate_config",
]
