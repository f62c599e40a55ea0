"""Hash sharding: how the example set is partitioned across workers.

An example's shard is the stable content hash of its key modulo the shard
count.  It is deterministic across coordinator processes and independent of
batch composition, so an example always lands on the same shard and
per-example worker state (saturations) stays warm across batches, folds,
and service restarts.  Because the service merges per-shard results back
into input order, the *coverage results* are identical for every shard
count; sharding only moves work between workers.
"""

from __future__ import annotations

import zlib
from typing import Hashable, List, Sequence


def stable_hash(key: object) -> int:
    """Process-independent 32-bit hash of a value's canonical repr.

    Built-in ``hash`` is salted per process (PYTHONHASHSEED), so it would
    assign the same example to different shards in coordinator restarts;
    CRC32 over the repr is stable for the str/int/float/bytes/bool tuples
    examples are made of.
    """
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace"))


def partition_keys(keys: Sequence[Hashable], shards: int) -> List[List[int]]:
    """Indices of ``keys`` per shard: ``stable_hash(key) % shards``.

    Every index appears exactly once, and duplicate keys share a bucket.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for index, key in enumerate(keys):
        buckets[stable_hash(key) % shards].append(index)
    return buckets
