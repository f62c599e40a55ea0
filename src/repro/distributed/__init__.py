"""Sharded multi-process evaluation: the distributed tier of the backend stack.

The paper's Castor leans on an in-memory RDBMS for parallel set-at-a-time
evaluation; this package scales that same seam across *processes* (and,
over the socket transport, across hosts).  See ``docs/distributed.md`` for
the topology, the wire protocol, and the failure semantics.

Public surface:

* :class:`EvaluationService` — the coordinator (sticky sharding, fan-out,
  bitset merge, worker lifecycle);
* :class:`ShardedSQLiteBackend` / :class:`RemoteBackend` — ``sqlite``
  storage placed on a local fleet (``shards=N``) or a persistent server
  (``service_address=``);
* :class:`ShardFailedError` / :class:`WorkerError` — failure surface;
* :func:`partition_keys` / :class:`ShardAssigner` — sharding strategies;
* the :mod:`~repro.distributed.protocol` framing and
  :mod:`~repro.distributed.worker` entry points.
"""

from .backend import ShardedSQLiteBackend
from .client import (
    RemoteBackend,
    RemoteEvaluationService,
    ServerError,
    ServiceClient,
    payload_content_hash,
)
from .protocol import (
    AuthenticationError,
    HandleBusyError,
    PipeTransport,
    ProtocolVersionError,
    QuotaExceededError,
    ServerBusyError,
    ServerDrainingError,
    SocketTransport,
    TransportError,
    UnknownHandleError,
    decode_frame,
    encode_frame,
)
from .service import (
    EvaluationService,
    ShardFailedError,
    WorkerError,
    default_shard_count,
)
from .server import ServiceServer
from .sharding import SHARDING_STRATEGIES, ShardAssigner, partition_keys, stable_hash
from .wire import WIRE_VERSION, JsonWireCodec, WireFormatError
from .worker import InstancePayload

__all__ = [
    "AuthenticationError",
    "EvaluationService",
    "HandleBusyError",
    "InstancePayload",
    "JsonWireCodec",
    "PipeTransport",
    "ProtocolVersionError",
    "QuotaExceededError",
    "RemoteBackend",
    "RemoteEvaluationService",
    "SHARDING_STRATEGIES",
    "ServerBusyError",
    "ServerDrainingError",
    "ServerError",
    "ServiceClient",
    "ServiceServer",
    "ShardAssigner",
    "ShardFailedError",
    "ShardedSQLiteBackend",
    "SocketTransport",
    "TransportError",
    "UnknownHandleError",
    "WIRE_VERSION",
    "WireFormatError",
    "WorkerError",
    "decode_frame",
    "default_shard_count",
    "encode_frame",
    "partition_keys",
    "payload_content_hash",
    "stable_hash",
]
