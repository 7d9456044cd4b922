"""The HA acceptance scenario from the issue, end to end.

A 3-replica pool under pipelined load survives (a) one replica wedging
mid-stream and (b) a poisoned checkpoint pushed through the canary
path — with zero user-visible errors beyond typed ``degraded`` answers,
the rollback recorded in the manifest — and bit-for-bit parity over
real sockets between a pool of one with hedging off and the bare
service.  ``build_serving_stack`` builds a pool at every replica count,
so the bare reference service is built in-process here.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import (GoldenSet, ReplicaPool, RestartBackoff,
                           RolloutPolicy)
from repro.serving.faults import (CheckpointSwapper, PoisonedCheckpoint,
                                  valid_requests, wedge_replica)
from repro.serving.rollout import CanaryController, STAGE_IDLE
from repro.serving.server import ServingStack, SocketServer

pytestmark = pytest.mark.serving

SRC = str(Path(__file__).resolve().parents[2] / "src")
SAMPLES = "2000"

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}


class TestInProcessAcceptance:
    def test_pool_survives_wedge_and_poisoned_canary(self, schema,
                                                     make_service, mem_sink,
                                                     tmp_path):
        """Pipelined load + one wedged replica + one poisoned canary
        push: every user answer stays typed, the poison's version never
        reaches a user, and the rollback lands in the manifest."""
        bus, _sink = mem_sink
        manager = CheckpointManager(tmp_path / "ckpts")

        def build_service(_replica_id=0):
            return make_service(model=LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(0)))

        pool = ReplicaPool(
            [build_service(i) for i in range(3)],
            service_factory=build_service,
            min_healthy=1, failure_threshold=2, stale_after_s=0.1,
            hedge_ms=10.0, dispatch_timeout_s=0.5, bus=bus,
            restart_backoff=lambda: RestartBackoff(
                base_delay=0.001, max_delay=0.001,
                rng=np.random.default_rng(0)))

        def factory():
            return LogisticRegression(schema.cardinalities,
                                      rng=np.random.default_rng(0))

        controller = CanaryController(
            pool, manager, factory,
            golden=GoldenSet(list(valid_requests(schema, count=4))),
            policy=RolloutPolicy(mirror_fraction=1.0, min_mirrored=8),
            bus=bus, sleep=lambda _d: None)

        stop = threading.Event()
        answers, client_errors = [], []

        def client():
            while not stop.is_set():
                try:
                    answers.append(pool.predict(REQ))
                except Exception as exc:  # noqa: BLE001 — must not happen
                    client_errors.append(exc)
                    return

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        wedged = None
        try:
            # (a) wedge one replica mid-stream; the prober must
            # quarantine and restart it without any client noticing.
            time.sleep(0.05)
            wedged = wedge_replica(pool.replicas[0])
            deadline = time.monotonic() + 30.0
            while (pool.replicas[0].restarts == 0
                   and time.monotonic() < deadline):
                pool.check_replicas()
                time.sleep(0.02)
            assert pool.replicas[0].restarts >= 1
            wedged.release()  # free the blocked dispatch threads

            # (b) push a poisoned (drift) checkpoint: canary-staged,
            # mirrored, judged, rolled back — all under live load.
            poison = PoisonedCheckpoint(manager).write(
                LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(0)),
                kind="drift")
            deadline = time.monotonic() + 30.0
            while (controller.manifest.data["rollbacks"] == 0
                   and time.monotonic() < deadline):
                controller.poll_once()
                pool.check_replicas()
                time.sleep(0.01)
        finally:
            stop.set()
            if wedged is not None:
                wedged.release()
            for thread in threads:
                thread.join(timeout=30.0)

        assert not client_errors
        assert controller.manifest.data["rollbacks"] == 1
        assert poison in controller.manifest.bad_paths
        assert controller.stage == STAGE_IDLE
        assert len(answers) > 0
        poison_version = "epoch-00000001"
        for response in answers:
            # Typed answers only; the poisoned version is never visible.
            assert response.status in ("ok", "degraded")
            assert response.model_version != poison_version
        # The fleet is whole again after both faults.
        assert len(pool.healthy_replicas()) == 3


# ----------------------------------------------------------------------
# Subprocess smoke: the CLI wiring of the same guarantees
# ----------------------------------------------------------------------
def start_server(*extra_args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", "LR",
         "--samples", SAMPLES, "--mode", "socket", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise AssertionError(
            f"server exited before ready (code {proc.wait()})")
    ready = json.loads(line)
    assert ready["status"] == "ready"
    return proc, ready["host"], ready["port"]


def rpc(host, port, payloads, timeout=30.0):
    responses = []
    with socket.create_connection((host, port), timeout=timeout) as conn:
        stream = conn.makefile("rw")
        for payload in payloads:
            stream.write(json.dumps(payload) + "\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
    return responses


def shutdown(proc, host, port):
    try:
        rpc(host, port, [{"op": "shutdown"}], timeout=5.0)
    except OSError:
        pass
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()


class TestPoolOfOneParity:
    def test_replicas_1_hedge_0_matches_single_instance(self, make_service):
        """The differential guarantee over real sockets: a pool of one
        with hedging off answers bit-for-bit like the bare service."""
        requests = [{"features": {"field_0": i % 4, "field_1": i % 3},
                     "request_id": f"p{i}"} for i in range(8)]
        requests.append({"features": {"no_such_field": 1},
                         "request_id": "bad"})

        pool = ReplicaPool([make_service()], hedge_ms=0.0)
        stacks = [ServingStack(service=make_service(),
                               model_name="lr", dataset="test"),
                  ServingStack(service=pool, model_name="lr",
                               dataset="test", pool=pool)]
        answers = []
        for stack in stacks:
            server = SocketServer(stack)
            host, port = server.start()
            try:
                answers.append(rpc(host, port, requests))
            finally:
                server.shutdown()
        single, pooled = answers

        assert len(single) == len(pooled) == len(requests)
        for a, b in zip(single, pooled):
            assert a["status"] == b["status"]
            assert a["request_id"] == b["request_id"]
            assert a.get("served_by") == b.get("served_by")
            assert a.get("model_version") == b.get("model_version")
            pa, pb = a.get("probability"), b.get("probability")
            if pa is None or pb is None:
                assert pa == pb
            else:
                assert struct.pack("<d", pa) == struct.pack("<d", pb)


class TestPoolOfOneStaysLive:
    def test_replicas_1_sheds_and_reports_latency(self):
        """``--replicas 1`` keeps the latency estimate live: the queue's
        ``--max-wait-ms`` shedding and the health probe both read it."""
        from repro.serving.server import (build_serving_stack,
                                          handle_request_line)

        stack = build_serving_stack("LR", "criteo", "quick",
                                    samples=int(SAMPLES), replicas=1)
        server = SocketServer(stack, max_wait_ms=1000.0)  # never started
        for i in range(4):
            response, _ = handle_request_line(
                json.dumps({"features": {"field_0": i}}), stack.service)
            assert response["status"] == "ok"
        assert server.queue.put((None, "{}", None, None))
        assert server.queue.estimated_wait_s() > 0
        health, _ = handle_request_line('{"op": "health"}', stack.service)
        assert health["latency_ewma_ms"] > 0


class TestPooledServerSmoke:
    def test_pipelined_clients_against_a_wedgy_pool(self):
        """3 replicas, replica 0 flaky-injected: every pipelined request
        answers typed, and per-replica series reach the metrics op."""
        proc, host, port = start_server("--replicas", "3",
                                        "--hedge-ms", "50",
                                        "--inject", "flaky:3")
        n_clients, n_requests = 3, 12
        failures = []

        def client(tag):
            try:
                with socket.create_connection((host, port),
                                              timeout=30.0) as conn:
                    stream = conn.makefile("rw")
                    for i in range(n_requests):
                        stream.write(json.dumps(
                            {"features": {"field_0": i % 5},
                             "request_id": f"{tag}-{i}"}) + "\n")
                    stream.flush()
                    got = [json.loads(stream.readline())
                           for _ in range(n_requests)]
                assert {r["request_id"] for r in got} == {
                    f"{tag}-{i}" for i in range(n_requests)}
                for response in got:
                    assert response["status"] in ("ok", "degraded", "shed")
            except Exception as exc:  # surfaced after join
                failures.append((tag, exc))

        try:
            threads = [threading.Thread(target=client, args=(f"c{c}",))
                       for c in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not failures, failures

            health, = rpc(host, port, [{"op": "health"}])
            assert health["replicas"], "pool health must list replicas"
            metrics, = rpc(host, port, [{"op": "metrics"}])
            assert any(key.startswith("replica.0.") for key in metrics), (
                "per-replica series missing from the pool snapshot")
        finally:
            shutdown(proc, host, port)

    def test_poisoned_canary_rolls_back_over_the_wire(self, tmp_path):
        """Exact accounting end to end: live traffic mirrors onto a
        poisoned canary, the rollout op reports the rollback, and no
        user answer ever carried the poisoned version."""
        from repro.serving.server import build_serving_stack

        ckpt_dir = tmp_path / "ckpts"
        stack = build_serving_stack("LR", "criteo", "quick",
                                    samples=int(SAMPLES))
        manager = CheckpointManager(ckpt_dir)
        model = stack.service.replicas[0].service.model
        CheckpointSwapper(manager).write_valid(model)

        proc, host, port = start_server(
            "--replicas", "3", "--canary-mirror", "1.0",
            "--checkpoint-dir", str(ckpt_dir),
            "--reload-interval", "0.1")
        try:
            ready, = rpc(host, port, [{"op": "ready"}])
            assert ready["model_version"] == "epoch-00000001"
            PoisonedCheckpoint(manager).write(model, kind="drift")
            poison_version = "epoch-00000002"
            deadline = time.monotonic() + 60.0
            rollbacks = 0
            while rollbacks == 0 and time.monotonic() < deadline:
                answers = rpc(host, port, [
                    {"features": {"field_0": i % 5},
                     "request_id": f"m{i}"} for i in range(16)])
                for response in answers:
                    assert response["status"] in ("ok", "degraded")
                    assert response["model_version"] != poison_version
                state, = rpc(host, port, [{"op": "rollout"}])
                rollbacks = state.get("rollbacks", 0)
            assert rollbacks == 1, "canary rollback never landed"
            state, = rpc(host, port, [{"op": "rollout"}])
            assert state["stage"] == "idle"
            assert state["bad"], "poison must be remembered as bad"
            # The fleet still serves the promoted epoch after rollback.
            ready, = rpc(host, port, [{"op": "ready"}])
            assert ready["model_version"] == "epoch-00000001"
        finally:
            shutdown(proc, host, port)
