"""Sharded multi-process evaluation: the distributed tier of the backend stack.

The paper's Castor leans on an in-memory RDBMS for parallel set-at-a-time
evaluation; this package scales that same seam across spawned worker
*processes* on pipes, and serves warm fleets to remote learning sessions
from a persistent server.  See ``docs/distributed.md`` for the topology,
the wire protocol, and the failure semantics.

Public surface:

* :class:`EvaluationService` — the coordinator (hash sharding, fan-out,
  bitset merge, worker lifecycle);
* :class:`ShardedSQLiteBackend` / :class:`RemoteBackend` — ``sqlite``
  storage placed on a local fleet (``shards=N``) or a persistent server
  (``service_address=``);
* :class:`ShardFailedError` / :class:`WorkerError` — failure surface;
* :func:`partition_keys` / :func:`stable_hash` — hash sharding;
* the :mod:`~repro.distributed.protocol` framing and the
  :mod:`~repro.distributed.worker` process entry point.
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
from .sharding import partition_keys, stable_hash
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
    "ServerBusyError",
    "ServerDrainingError",
    "ServerError",
    "ServiceClient",
    "ServiceServer",
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
