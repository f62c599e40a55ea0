"""The persistent evaluation server: warm cross-run reuse, concurrent
sessions, payload skipping, and lifecycle hardening."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import LearningSession, SessionConfig
from repro.database import RelationSchema, Schema
from repro.datasets import uwcse
from repro.distributed import (
    InstancePayload,
    RemoteBackend,
    ServiceClient,
    ServiceServer,
    ShardedSQLiteBackend,
)
from repro.experiments.harness import LearnerSpec, run_variant
from repro.learning.bottom_clause import BottomClauseConfig
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters


@pytest.fixture(scope="module")
def tiny_bundle():
    return uwcse.load(
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5), seed=5
    )


@pytest.fixture(scope="module")
def server():
    server = ServiceServer("127.0.0.1", 0, shards=2)
    server.start_in_thread()
    yield server
    server.shutdown()


def progolem_spec() -> LearnerSpec:
    def factory(schema):
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=2,
                beam_width=2,
                max_armg_rounds=2,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=20),
            ),
        )

    return LearnerSpec("ProGolem", factory)


def sqlite_baseline(bundle, variant):
    """The local single-connection sqlite result a server run must match."""
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        return run_variant(bundle, variant, progolem_spec(), folds=2, session=session)


def as_key(result):
    clauses = [str(c) for c in result.definition] if result.definition else []
    return (
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    )


# --------------------------------------------------------------------- #
# Sequential runs: one server process, many sessions, zero re-ships
# --------------------------------------------------------------------- #
def test_two_sequential_runs_share_one_warm_instance(tiny_bundle, server):
    variant = tiny_bundle.variant_names[0]
    baseline = sqlite_baseline(tiny_bundle, variant)

    with LearningSession.connect(server.address) as first:
        run1 = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=first
        )
        stats1 = first.evaluation_stats()
    with LearningSession.connect(server.address) as second:
        run2 = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=second
        )
        stats2 = second.evaluation_stats()
        server_stats = second.server_stats()

    # Byte-identical definitions and metrics vs the per-run path.
    assert as_key(run1) == as_key(baseline)
    assert as_key(run2) == as_key(baseline)
    # The first session ships the payload once; the second (same content
    # hash, same handle) ships nothing at all.
    assert stats1["reloads_full"] == 1
    assert stats2["reloads_full"] == 0
    assert stats2["register_hits"] >= 1
    # Both sessions landed on the same registered handle.
    assert len(server_stats["instances"]) >= 1
    assert any(
        entry["register_hits"] >= 1
        for entry in server_stats["instances"].values()
    )


def test_service_address_places_sqlite_on_the_server(tiny_bundle, server):
    """A connected session prepares instances on a ``RemoteBackend`` that
    still reports the storage name ``sqlite`` (so ``copy()`` resolves)."""
    with LearningSession(SessionConfig(service_address=server.address)) as session:
        assert session.config.backend == "sqlite"
        prepared = session.prepare(tiny_bundle.instance(tiny_bundle.variant_names[0]))
        assert type(prepared.backend) is RemoteBackend
        assert prepared.backend_name == "sqlite"
        assert prepared.copy().same_contents(prepared)


def test_concurrent_sessions_share_the_server(tiny_bundle, server):
    variants = tiny_bundle.variant_names[:2]
    baselines = {
        variant: sqlite_baseline(tiny_bundle, variant)
        for variant in variants
    }

    results: dict = {}
    errors: list = []

    def run_one(variant: str) -> None:
        try:
            with LearningSession.connect(server.address) as session:
                results[variant] = run_variant(
                    tiny_bundle, variant, progolem_spec(), folds=2, session=session
                )
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append((variant, exc))

    threads = [
        threading.Thread(target=run_one, args=(variant,)) for variant in variants
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, f"concurrent sessions failed: {errors}"
    for variant in variants:
        assert as_key(results[variant]) == as_key(baselines[variant])


# --------------------------------------------------------------------- #
# Registry behavior through the raw client
# --------------------------------------------------------------------- #
def test_hello_reports_the_fleet_size_and_handles(server):
    with ServiceClient(server.address) as client:
        hello = client.hello()
    assert set(hello) == {"pid", "shards", "handles"}
    assert hello["shards"] == 2 and hello["pid"] == os.getpid()


def test_remote_backend_without_a_server_says_how_to_bind_one():
    backend = RemoteBackend()
    try:
        with pytest.raises(RuntimeError) as excinfo:
            backend.coverage_service()
        message = str(excinfo.value)
        assert "LearningSession.connect(address)" in message
        assert "RemoteBackend(address=" in message
    finally:
        backend.close()


def test_register_probe_and_unregister(server):
    schema = Schema([RelationSchema("r", ["a", "b"])], name="probe")
    payload = InstancePayload(schema, {"r": [(1, 2), (3, 4)]})
    with ServiceClient(server.address) as client:
        assert client.ping()
        probe = client.request("register", ("probe-handle", "hash-1"))
        assert probe["needs_payload"] and not probe["known"]
        client.request("load", ("probe-handle", "hash-1", payload))
        probe = client.request("register", ("probe-handle", "hash-1"))
        assert not probe["needs_payload"] and probe["known"]
        # A different data version on the same handle needs a new payload.
        probe = client.request("register", ("probe-handle", "hash-2"))
        assert probe["needs_payload"] and probe["known"]
        assert client.unregister("probe-handle")
        assert not client.unregister("probe-handle")


def test_session_recovers_from_server_side_eviction(tiny_bundle, server):
    """An unregistered/evicted handle is transparently re-registered (the
    payload ships again) instead of failing every later batch."""
    variant = tiny_bundle.variant_names[0]
    with LearningSession.connect(server.address) as session:
        first = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=session
        )
        prepared = session.prepare(tiny_bundle.instance(variant))
        remote = prepared.backend.remote_service
        assert remote is not None and remote.handle is not None
        # Simulate operator action / LRU eviction between two batches.
        session.client.unregister(remote.handle)
        shipped_before = remote.reloads_full
        second = run_variant(
            tiny_bundle, variant, progolem_spec(), folds=2, session=session
        )
        assert as_key(second) == as_key(first)
        assert remote.reloads_full == shipped_before + 1


def test_mutated_data_retires_the_superseded_handle(tiny_bundle, server):
    """A session whose source data mutates registers a new content-
    qualified handle and unregisters its old one — no stranded fleets."""
    variant = tiny_bundle.variant_names[0]
    source = tiny_bundle.instance(variant).with_backend("memory")
    relation = source.schema.relations[0]
    with LearningSession.connect(server.address) as session:
        run_variant(tiny_bundle, variant, progolem_spec(), folds=2, session=session)
        # The bundle caches its own instance; drive prepare() directly on a
        # mutable source to exercise the retirement path.
        prepared = session.prepare(source)
        remote = prepared.backend.coverage_service()
        remote._ensure_registered()
        old_handle = remote.handle
        source.add_tuples(
            relation.name, [("retire-witness",) * len(relation.attributes)]
        )
        prepared = session.prepare(source)  # re-converted after mutation
        fresh = prepared.backend.coverage_service()
        fresh._ensure_registered()
        assert fresh.handle != old_handle
        handles = session.server_stats()["instances"].keys()
        assert old_handle not in handles, "superseded handle must be retired"
        assert fresh.handle in handles


def test_server_errors_carry_the_remote_traceback(server):
    from repro.distributed import ServerError

    with ServiceClient(server.address) as client:
        with pytest.raises(ServerError, match="unknown instance handle"):
            client.request(
                "coverage_batch", ("never-registered", None, None, [], [])
            )
        with pytest.raises(ServerError, match="unknown request kind"):
            client.request("no_such_request", None)
        assert client.ping(), "the connection survives server-side errors"


def test_batches_with_a_stale_data_version_are_rejected(server):
    """A batch carrying a content hash the server does not hold errors out
    instead of silently answering from another client's data."""
    schema = Schema([RelationSchema("r", ["a", "b"])], name="stale")
    payload = InstancePayload(schema, {"r": [(1, 2)]})
    with ServiceClient(server.address) as client:
        client.request("load", ("stale-handle", "hash-1", payload))
        from repro.distributed import ServerError

        with pytest.raises(ServerError, match="different data version"):
            client.request(
                "coverage_batch", ("stale-handle", "hash-2", None, [], [])
            )
        # The matching hash sails past the version check (and fails later,
        # on the bogus spec — proving the check sits in front).
        with pytest.raises(ServerError, match="spec"):
            client.request(
                "coverage_batch", ("stale-handle", "hash-1", None, [], [])
            )
        client.unregister("stale-handle")


def test_shared_handle_with_divergent_data_stays_correct(tiny_bundle, server):
    """Two sessions pinning one instance_handle to *different* data must
    each keep getting their own (correct) results — at re-ship cost, never
    silently wrong ones."""
    variant_a, variant_b = tiny_bundle.variant_names[:2]
    baseline_a = sqlite_baseline(tiny_bundle, variant_a)
    with LearningSession.connect(
        server.address, instance_handle="shared-handle"
    ) as session_a, LearningSession.connect(
        server.address, instance_handle="shared-handle"
    ) as session_b:
        first = run_variant(
            tiny_bundle, variant_a, progolem_spec(), folds=2, session=session_a
        )
        # B hijacks the handle with different data (another variant).
        run_variant(
            tiny_bundle, variant_b, progolem_spec(), folds=2, session=session_b
        )
        # A's next run detects the version mismatch, re-ships, and stays
        # correct instead of evaluating against B's instance.
        second = run_variant(
            tiny_bundle, variant_a, progolem_spec(), folds=2, session=session_a
        )
    assert as_key(first) == as_key(baseline_a)
    assert as_key(second) == as_key(baseline_a)


# --------------------------------------------------------------------- #
# Lifecycle hardening
# --------------------------------------------------------------------- #
def test_evaluation_service_close_is_idempotent(tiny_bundle):
    instance = tiny_bundle.instance(tiny_bundle.variant_names[0]).with_backend(
        ShardedSQLiteBackend()
    )
    service = instance.backend.coverage_service()
    service.close()  # never started: still safe
    service.start()
    pids = [pid for pid in service.worker_pids() if pid is not None]
    assert pids
    service.close()
    service.close()  # idempotent
    # close() then start() works (lazy respawn contract).
    service.start()
    assert any(pid is not None for pid in service.worker_pids())
    service.close()


def test_sigkilled_coordinator_leaks_no_workers(tmp_path, tiny_bundle):
    """Satellite regression: workers must die with their coordinator even
    when the coordinator is SIGKILLed (no atexit, no finalizers)."""
    script = tmp_path / "coordinator.py"
    script.write_text(
        textwrap.dedent(
            """
            import time
            from repro import LearningSession, SessionConfig
            from repro.datasets import uwcse

            # Guarded: the spawn context re-imports this script inside each
            # worker process to rebuild __main__.
            if __name__ == "__main__":
                bundle = uwcse.load(
                    uwcse.UwCseConfig(num_students=8, num_professors=3, num_courses=4),
                    seed=1,
                )
                session = LearningSession(
                    SessionConfig(backend="sqlite", shards=2)
                )
                instance = session.prepare(bundle.instance(bundle.variant_names[0]))
                service = instance.backend.coverage_service().start()
                pids = [p for p in service.worker_pids() if p is not None]
                print("PIDS:" + ",".join(map(str, pids)), flush=True)
                time.sleep(120)  # killed long before this elapses
            """
        )
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("PIDS:"), f"unexpected banner: {line!r}"
        worker_pids = [int(p) for p in line.strip()[5:].split(",") if p]
        assert worker_pids
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

        deadline = time.time() + 15
        alive = set(worker_pids)
        while alive and time.time() < deadline:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.discard(pid)
            if alive:
                time.sleep(0.2)
        assert not alive, f"workers survived the coordinator's SIGKILL: {alive}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_serve_cli_accepts_sessions(tiny_bundle):
    """`python -m repro.distributed.service --serve` end to end."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.distributed.service",
            "--serve", "127.0.0.1:0", "--shards", "1",
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        address = banner.strip().rsplit("listening on ", 1)[1]
        variant = tiny_bundle.variant_names[0]
        baseline = sqlite_baseline(tiny_bundle, variant)
        with LearningSession.connect(address) as session:
            served = run_variant(
                tiny_bundle, variant, progolem_spec(), folds=2, session=session
            )
            client = session.client
            assert client.hello()["pid"] == proc.pid
            client.shutdown_server()
        assert as_key(served) == as_key(baseline)
        proc.wait(timeout=15)
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
