"""Verification utilities: exhaustive sweeps, sharded parallel runs,
and random workloads."""

from .exhaustive import (
    SweepEpoch,
    VerificationResult,
    pair_shards,
    valid_pairs,
    verify_two_sort_circuit,
    verify_two_sort_shard,
)
from .parallel import (
    available_executors,
    default_jobs,
    register_executor,
    run_sharded,
    verify_two_sort_sharded,
)
from .random_valid import (
    ValidStringSource,
    measurement_sweep,
    verify_random_pairs,
)

__all__ = [
    "SweepEpoch",
    "VerificationResult",
    "pair_shards",
    "valid_pairs",
    "verify_two_sort_circuit",
    "verify_two_sort_shard",
    "available_executors",
    "default_jobs",
    "register_executor",
    "run_sharded",
    "verify_two_sort_sharded",
    "ValidStringSource",
    "measurement_sweep",
    "verify_random_pairs",
]
