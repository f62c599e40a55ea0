"""Warm-session vs cold-per-run benchmark (and persistent-server smoke gate).

Measures what the session API buys on **repeated** learning runs — the
cross-validation / parameter-sweep / multi-user pattern the persistent
server exists for:

* **cold** — every run builds a fresh :class:`LearningSession` (the old
  per-run world: instance conversion, service spawn, payload ship, and
  saturation materialization are paid every time);
* **warm** — all runs share one session: the prepared instance, the worker
  fleet, and the saturation store persist, so runs after the first skip
  the spin-up entirely.

With ``--server`` the same comparison runs against a **persistent
evaluation server** (``python -m repro.distributed.service --serve``),
started by the benchmark as a subprocess.  Each run then executes in its
own *client subprocess* (``--client-run``), proving the cross-process
warm-reuse contract: the first client ships the instance payload, every
later client's content hash matches the registered handle and ships
nothing (``reloads_full == 0`` — asserted, non-zero exit otherwise).

Parity is the hard gate: learned definitions and fold metrics must be
byte-identical across every run of every mode, or the exit status is
non-zero.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_session_server.py
        [--quick] [--runs N] [--folds N] [--shards N]
        [--backend {sqlite,sqlite-sharded}]
        [--server] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import LearningSession, SessionConfig  # noqa: E402
from repro.datasets import uwcse  # noqa: E402
from repro.experiments.harness import LearnerSpec, run_variant  # noqa: E402
from repro.learning.bottom_clause import BottomClauseConfig  # noqa: E402
from repro.obs import provenance, span as obs_span, tracer as obs_tracer  # noqa: E402
from repro.progolem.progolem import ProGolemLearner, ProGolemParameters  # noqa: E402


def load_bundle(quick: bool):
    config = (
        uwcse.UwCseConfig(num_students=10, num_professors=3, num_courses=5)
        if quick
        else uwcse.UwCseConfig(num_students=20, num_professors=6, num_courses=10)
    )
    return uwcse.load(config, seed=5)


def learner_spec() -> LearnerSpec:
    def factory(schema):
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=3,
                beam_width=2,
                max_armg_rounds=3,
                max_clauses=4,
                bottom_clause=BottomClauseConfig(max_depth=2, max_total_literals=30),
            ),
        )

    return LearnerSpec("ProGolem", factory)


def result_key(result) -> List[object]:
    # Ordered, not sorted: clause order is part of a definition's identity,
    # and the gate must catch order divergence between warm/cold/server.
    clauses = (
        [str(clause) for clause in result.definition] if result.definition else []
    )
    return [
        round(result.precision, 9),
        round(result.recall, 9),
        round(result.f1, 9),
        result.folds,
        clauses,
    ]


def one_run(bundle, variant: str, folds: int, session: LearningSession):
    start = time.perf_counter()
    result = run_variant(bundle, variant, learner_spec(), folds=folds, session=session)
    return time.perf_counter() - start, result


def run_local(bundle, variant, folds, runs, config) -> Dict[str, object]:
    """Cold (fresh session per run) vs warm (one shared session)."""
    cold_seconds: List[float] = []
    keys: List[object] = []
    for _ in range(runs):
        with LearningSession(config) as session:
            elapsed, result = one_run(bundle, variant, folds, session)
        cold_seconds.append(elapsed)
        keys.append(result_key(result))

    warm_seconds: List[float] = []
    with LearningSession(config) as session:
        for _ in range(runs):
            elapsed, result = one_run(bundle, variant, folds, session)
            warm_seconds.append(elapsed)
            keys.append(result_key(result))

    parity_ok = all(key == keys[0] for key in keys)
    cold_total, warm_total = sum(cold_seconds), sum(warm_seconds)
    return {
        "cold_seconds": [round(s, 4) for s in cold_seconds],
        "warm_seconds": [round(s, 4) for s in warm_seconds],
        "cold_total": round(cold_total, 4),
        "warm_total": round(warm_total, 4),
        "speedup": round(cold_total / warm_total, 3) if warm_total else None,
        "parity_ok": parity_ok,
        "result_key": keys[0],
    }


# --------------------------------------------------------------------- #
# Persistent-server mode
# --------------------------------------------------------------------- #
def client_run(
    address: str, quick: bool, variant: str, folds: int, token: Optional[str]
) -> int:
    """One harness run against the server; JSON report on stdout.

    Runs in its own process (``--client-run``) so the content-hash warm
    path is exercised across process boundaries, exactly like two separate
    harness invocations against one long-lived server.
    """
    bundle = load_bundle(quick)
    start = time.perf_counter()
    with LearningSession.connect(address, token=token) as session:
        result = run_variant(
            bundle, variant, learner_spec(), folds=folds, session=session
        )
        stats = session.evaluation_stats()
    elapsed = time.perf_counter() - start
    print(
        json.dumps(
            {
                "elapsed": round(elapsed, 4),
                "result_key": result_key(result),
                "reloads_full": stats["reloads_full"],
                "register_hits": stats["register_hits"],
            }
        )
    )
    return 0


#: Server mode always runs with auth enabled: the smoke must exercise the
#: token path end to end, and an unauthenticated persistent server is not
#: a configuration the benchmark should bless.
AUTH_TOKEN = "bench-session-secret"


def _client_args(address, quick, variant, folds) -> List[str]:
    args = [
        sys.executable, os.path.abspath(__file__),
        "--client-run", "--address", address,
        "--variant", variant, "--folds", str(folds),
        "--token", AUTH_TOKEN,
    ]
    if quick:
        args.append("--quick")
    return args


def drain_under_load_smoke(
    server, address, env, quick, variant, folds, expected_key
) -> Dict[str, object]:
    """SIGTERM the server while a client run is mid-batch.

    The graceful-drain contract: the in-flight batch finishes (the client
    may even complete with full parity), any *further* request gets a typed
    error — never a hang, never a half-written reply — and the server
    itself exits 0.
    """
    from repro.distributed import ServiceClient

    admin = ServiceClient(address, token=AUTH_TOKEN, client_name="bench-admin")
    client = subprocess.Popen(
        _client_args(address, quick, variant, folds),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        # Fire the signal only once the client is demonstrably mid-run: its
        # warm register bumps the handle's hit counter.
        def hits(status):
            return sum(
                entry.get("register_hits", 0)
                for entry in status.get("handles", {}).values()
            )

        baseline = hits(admin.server_status())
        deadline = time.time() + 120
        while time.time() < deadline:
            if hits(admin.server_status()) > baseline:
                break
            time.sleep(0.1)
        time.sleep(0.3)  # let the first post-register batch take flight
        server.send_signal(signal.SIGTERM)
        stdout, stderr = client.communicate(timeout=180)
    finally:
        if client.poll() is None:
            client.kill()
            client.communicate()
        try:
            admin.close()
        except Exception:  # noqa: BLE001 - the server is going down
            pass
    try:
        server_exit = server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server_exit = None  # never exited: the drain hung
    completed = client.returncode == 0
    parity = None
    typed_error = None
    if completed:
        report = json.loads(stdout.strip().splitlines()[-1])
        parity = report["result_key"] == expected_key
    else:
        typed_error = bool(
            re.search(
                r"ServerDrainingError|ServerError|TransportError"
                r"|ConnectionRefusedError|ConnectionError",
                stderr,
            )
        )
    return {
        "server_exit": server_exit,
        "client_completed": completed,
        "client_parity": parity,
        "client_typed_error": typed_error,
    }


def run_server_mode(quick, variant, folds, runs, shards) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.distributed.service",
            "--serve", "127.0.0.1:0", "--shards", str(shards),
            "--auth-token", AUTH_TOKEN,
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        if "listening on " not in banner:
            raise RuntimeError(
                f"server failed to start (banner: {banner!r}, "
                f"exit={server.poll()})"
            )
        address = banner.strip().rsplit("listening on ", 1)[1]
        # Drain any further server stdout on a daemon thread so a chatty
        # server (or a worker inheriting the piped fd) can never fill the
        # pipe buffer and deadlock the benchmark mid-batch.
        threading.Thread(target=server.stdout.read, daemon=True).start()
        print(f"persistent server up at {address}")

        reports: List[Dict[str, object]] = []
        for index in range(runs):
            args = _client_args(address, quick, variant, folds)
            output = subprocess.run(args, env=env, capture_output=True, text=True)
            if output.returncode != 0:
                # Surface the client's own traceback — a bare
                # CalledProcessError would hide it from the CI log.
                print(output.stdout, file=sys.stderr)
                print(output.stderr, file=sys.stderr)
                raise RuntimeError(
                    f"client run {index + 1} failed with exit "
                    f"{output.returncode} (stderr above)"
                )
            report = json.loads(output.stdout.strip().splitlines()[-1])
            reports.append(report)
            print(
                f"  client run {index + 1}: {report['elapsed']:.2f}s, "
                f"payloads shipped={report['reloads_full']}, "
                f"register hits={report['register_hits']}"
            )
        print("drain smoke: SIGTERM while a client run is mid-batch")
        drain = drain_under_load_smoke(
            server, address, env, quick, variant, folds,
            reports[0]["result_key"],
        )
        print(
            f"  server exit={drain['server_exit']}, client "
            f"completed={drain['client_completed']} "
            f"(parity={drain['client_parity']}, "
            f"typed error={drain['client_typed_error']})"
        )
        return {
            "address": address,
            "auth": True,
            "run_seconds": [r["elapsed"] for r in reports],
            "reloads_full": [r["reloads_full"] for r in reports],
            "register_hits": [r["register_hits"] for r in reports],
            "result_keys": [r["result_key"] for r in reports],
            "drain": drain,
        }
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            # Never mask the real failure with TimeoutExpired, and never
            # leave the server running for the rest of a CI job.
            server.kill()
            server.wait(timeout=10)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small workload")
    parser.add_argument("--runs", type=int, default=3, help="repeat runs per mode")
    parser.add_argument("--folds", type=int, default=2)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--backend",
        default="sqlite-sharded",
        choices=("sqlite", "sqlite-sharded"),
        help="sqlite in process, or sqlite placed on a fleet of --shards "
        "workers (default)",
    )
    parser.add_argument(
        "--server", action="store_true",
        help="also run the persistent-server smoke (subprocess clients)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record spans over the in-process (cold/warm) runs and write "
        "a repro-trace JSON dump to OUT.json",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        default=None,
        help="also/instead write the trace as Chrome trace_event JSON",
    )
    # Internal: one client run against a running server (see client_run).
    parser.add_argument("--client-run", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--address", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--variant", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--token", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.client_run:
        # Dispatch before any dataset work: the parent always passes
        # --variant, and the client builds its own bundle exactly once.
        if not args.address or not args.variant:
            parser.error("--client-run requires --address and --variant")
        return client_run(
            args.address, args.quick, args.variant, args.folds, args.token
        )

    bundle = load_bundle(args.quick)
    variant = args.variant or bundle.variant_names[0]

    config = SessionConfig(
        backend="sqlite",
        shards=args.shards if args.backend == "sqlite-sharded" else None,
    )
    print(
        f"workload: UW-CSE[{variant}] x {args.runs} runs, folds={args.folds}, "
        f"backend={args.backend}, shards={config.shards}"
    )
    if args.trace or args.trace_chrome:
        obs_tracer().enable(process="bench")
    with obs_span("bench.mode", benchmark="session_server", mode="local"):
        local = run_local(bundle, variant, args.folds, args.runs, config)
    print(
        f"cold (new session per run): {local['cold_total']:.2f}s total "
        f"{local['cold_seconds']}"
    )
    print(
        f"warm (one shared session):  {local['warm_total']:.2f}s total "
        f"{local['warm_seconds']}"
    )
    print(f"warm-session speedup: {local['speedup']}x")

    failures: List[str] = []
    if not local["parity_ok"]:
        failures.append("local warm-vs-cold definitions/metrics diverged")

    summary: Dict[str, object] = {
        "benchmark": "session_server",
        "workload": f"uwcse[{variant}]",
        "runs": args.runs,
        "folds": args.folds,
        "backend": args.backend,
        "shards": config.shards,
        "local": local,
    }

    if args.server:
        server_report = run_server_mode(
            args.quick, variant, args.folds, max(2, args.runs), args.shards
        )
        summary["server"] = server_report
        if any(
            key != local["result_key"] for key in server_report["result_keys"]
        ):
            failures.append(
                "server-mode definitions diverged from the per-run path"
            )
        if server_report["reloads_full"][0] != 1:
            failures.append(
                "first client run should ship exactly one payload, shipped "
                f"{server_report['reloads_full'][0]}"
            )
        if any(n != 0 for n in server_report["reloads_full"][1:]):
            failures.append(
                "warm client runs shipped payloads: "
                f"{server_report['reloads_full'][1:]} (expected all 0)"
            )
        drain = server_report["drain"]
        if drain["server_exit"] != 0:
            failures.append(
                f"drained server exited {drain['server_exit']} (expected 0)"
            )
        if drain["client_completed"]:
            if not drain["client_parity"]:
                failures.append(
                    "client completing through a drain produced divergent results"
                )
        elif not drain["client_typed_error"]:
            failures.append(
                "client interrupted by the drain died without a typed error"
            )
        warm_runs = server_report["run_seconds"][1:]
        print(
            "server mode (auth on): first run "
            f"{server_report['run_seconds'][0]:.2f}s, "
            f"warm runs {warm_runs}, payload ships "
            f"{server_report['reloads_full']}"
        )

    summary["parity_ok"] = not failures
    summary["provenance"] = provenance(benchmark="session_server")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")
    if args.trace:
        print(f"wrote trace to {obs_tracer().dump_json(args.trace)}")
    if args.trace_chrome:
        print(f"wrote Chrome trace to {obs_tracer().dump_chrome(args.trace_chrome)}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("parity OK: identical definitions/metrics across every mode and run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
