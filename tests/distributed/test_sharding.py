"""Unit tests: hash sharding and the length-prefixed frame protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    JsonWireCodec,
    decode_frame,
    encode_frame,
    partition_keys,
    stable_hash,
)
from repro.distributed.protocol import TransportError


KEYS = [("advisedby", (f"s{i}", f"p{i % 3}"), True) for i in range(20)]


def assert_is_partition(buckets, count):
    """Every index appears in exactly one bucket."""
    seen = sorted(i for bucket in buckets for i in bucket)
    assert seen == list(range(count))


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_partition_keys_yields_a_true_partition(shards):
    buckets = partition_keys(KEYS, shards)
    assert len(buckets) == shards
    assert_is_partition(buckets, len(KEYS))


def test_partitioning_is_deterministic():
    assert partition_keys(KEYS, 3) == partition_keys(KEYS, 3)


def test_hash_assignment_is_independent_of_arrival_order():
    """Hash sharding pins a key to its shard regardless of batch mix."""

    def shard_of(keys):
        return {
            keys[index]: shard
            for shard, bucket in enumerate(partition_keys(keys, 4))
            for index in bucket
        }

    assert shard_of(KEYS) == shard_of(list(reversed(KEYS)))


def test_stable_hash_is_not_process_salted():
    # Known value pinned down: CRC32 of the repr, which PYTHONHASHSEED
    # cannot perturb (unlike builtin hash of strings).
    assert stable_hash(("advisedby", ("s1", "p2"), True)) == 366298622


def test_partition_keys_pins_the_shard_map():
    """The shard every example lands on is fixed: warm worker saturations
    stay on the shard that built them across releases."""
    assert partition_keys(KEYS, 2) == [
        [0, 2, 3, 6, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19],
        [1, 4, 5, 7, 12, 18],
    ]
    assert partition_keys(KEYS, 4) == [
        [2, 3, 8, 9, 10, 14, 15, 16],
        [1, 5, 7, 12, 18],
        [0, 6, 11, 13, 17, 19],
        [4],
    ]


def test_partition_rejects_zero_shards():
    with pytest.raises(ValueError):
        partition_keys(KEYS, 0)


# --------------------------------------------------------------------- #
# Property tests (hypothesis)
# --------------------------------------------------------------------- #
key_strategy = st.tuples(
    st.sampled_from(["advisedby", "tempadvisedby", "taughtby"]),
    st.tuples(st.text(max_size=6), st.integers(-5, 5)),
    st.booleans(),
)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(key_strategy, max_size=40), shards=st.integers(1, 6))
def test_partition_invariants_hold_for_any_input(keys, shards):
    buckets = partition_keys(keys, shards)
    assert len(buckets) == shards
    assert_is_partition(buckets, len(keys))
    # Duplicate keys share a bucket.
    first_bucket = {}
    for shard, bucket in enumerate(buckets):
        for index in bucket:
            shard_of = first_bucket.setdefault(keys[index], shard)
            assert shard_of == shard


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(key_strategy, max_size=40), data=st.data())
def test_no_reordering_of_a_batch_moves_a_key(keys, data):
    """A key's shard depends on the key alone, never on arrival order."""
    shards = data.draw(st.integers(1, 6))
    shuffled = data.draw(st.permutations(keys))

    def shard_of(batch):
        return {
            batch[index]: shard
            for shard, bucket in enumerate(partition_keys(batch, shards))
            for index in bucket
        }

    assert shard_of(keys) == shard_of(shuffled)


# --------------------------------------------------------------------- #
# Protocol framing
# --------------------------------------------------------------------- #
def test_frame_roundtrip():
    message = ("coverage_batch", {"clauses": [1, 2], "examples": ("a", "b")})
    frame = encode_frame(message)
    assert frame[:4] == len(frame[4:]).to_bytes(4, "big")
    assert decode_frame(frame) == message


def test_frame_rejects_corruption():
    frame = bytearray(encode_frame("payload"))
    with pytest.raises(TransportError):
        decode_frame(bytes(frame[:3]))  # truncated header
    frame[3] ^= 0xFF  # header length no longer matches the body
    with pytest.raises(TransportError):
        decode_frame(bytes(frame))


def test_decode_frame_rejects_oversized_length_header(monkeypatch):
    """The embedded length is checked against the cap before unpickling."""
    from repro.distributed import protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    oversized = (1000).to_bytes(4, "big") + b"x" * 1000
    with pytest.raises(TransportError, match="exceeds limit"):
        protocol.decode_frame(oversized)


def test_pipe_transport_enforces_the_frame_cap(monkeypatch):
    """Regression: PipeTransport.recv must refuse oversized frames.

    Connection.recv_bytes() allocates the whole message before decode_frame
    ever sees the length header, so the cap has to ride on recv_bytes's own
    maxlength — symmetric with SocketTransport, which checks the header
    before reading the body.  (The cap is monkeypatched small; the real one
    would need a >1 GiB allocation to exercise.)
    """
    import multiprocessing

    from repro.distributed import protocol
    from repro.distributed.protocol import PipeTransport

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
    left, right = multiprocessing.Pipe(duplex=True)
    sender, receiver = PipeTransport(left), PipeTransport(right)
    try:
        sender.send("small is fine")
        assert receiver.recv() == "small is fine"
        # An impolite peer ships an over-cap frame as raw bytes.
        left.send_bytes(b"\x00" * (64 * 1024))
        with pytest.raises(TransportError):
            receiver.recv()
    finally:
        sender.close()
        receiver.close()


def test_socket_transport_surfaces_timeouts_as_transport_error():
    """A peer that accepts but never replies must not hang recv forever."""
    import socket as socket_module

    from repro.distributed.protocol import connect as connect_transport

    listener = socket_module.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    transport = connect_transport(
        f"{host}:{port}", timeout=5.0, request_timeout=0.2,
        codec=JsonWireCodec(),
    )
    try:
        with pytest.raises(TransportError, match="timed out"):
            transport.recv()
    finally:
        transport.close()
        listener.close()


def test_connect_has_no_default_codec():
    """``connect`` refuses to open a socket transport without a codec."""
    from repro.distributed.protocol import connect as connect_transport

    with pytest.raises(TypeError):
        connect_transport("127.0.0.1:1", timeout=0.1)


def test_socket_transport_has_no_default_codec():
    """Pickle never reaches a socket by default: the codec is required."""
    import socket as socket_module

    from repro.distributed.protocol import SocketTransport

    left, right = socket_module.socketpair()
    try:
        with pytest.raises(TypeError):
            SocketTransport(left)
    finally:
        left.close()
        right.close()
