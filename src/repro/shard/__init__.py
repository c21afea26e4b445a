"""Multi-process sharding with scatter/gather top-k routing.

The extreme-scale recipe (PANDA, PAPERS.md) applied to the fused GSKNN
kernel: partition the reference table across long-lived shard worker
processes (:class:`~repro.shard.map.ShardMap` — panel-aligned so shard
boundaries never split a GEMM tile), scatter each query batch to the
owning shards, solve the fused kernel locally per shard against warm
per-shard plans, and gather/merge the partial top-k lists
(:func:`repro.select.vectorized.merge_topk`) into a result
**bit-identical** to a single-process solve on the same data.

See docs/DISTRIBUTED.md for the shard map, the transport contract, and
the per-shard failure ladder.
"""

from .map import ShardMap
from .router import ShardedAllKnn
from .transport import (
    LocalTransport,
    ProcessTransport,
    ShardTransport,
    ShardWorld,
    TRANSPORTS,
    resolve_transport,
)

__all__ = [
    "ShardMap",
    "ShardedAllKnn",
    "ShardTransport",
    "ShardWorld",
    "LocalTransport",
    "ProcessTransport",
    "TRANSPORTS",
    "resolve_transport",
]
