"""End-to-end service tests over real TCP, against a subprocess server.

Covers the full acceptance loop: start the server, ingest, query,
checkpoint, kill (gracefully and with SIGKILL), restart, and verify every
stream resumes from its last checkpoint with bit-identical factors.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.exceptions import ServiceError

from helpers import TINY_KWARGS, live_chunks, tiny_config, warm_records, wire_records


def feed_stream(client, stream_id, seed, n_chunks=2):
    client.create_stream(stream_id, **tiny_config().to_dict())
    client.ingest(stream_id, wire_records(warm_records(seed=seed)))
    client.start_stream(stream_id)
    for chunk in live_chunks(n_chunks, seed=seed + 100):
        client.ingest(stream_id, wire_records(chunk))
    flush = client.flush(stream_id)
    assert flush["deferred_errors"] == []


class TestOverTcp:
    def test_lifecycle_ingest_query(self, launch):
        server = launch()
        with server.client() as client:
            assert client.ping()["pong"]
            feed_stream(client, "taxi", seed=21)
            factors = client.factors("taxi")
            assert len(factors["factors"]) == 3
            fitness = client.fitness("taxi")
            assert 0.0 <= fitness["fitness"] <= 1.0
            anomalies = client.anomalies("taxi", k=5)
            assert anomalies["scored"] > 0
            telemetry = client.telemetry("taxi")["telemetry"]
            assert telemetry["records_ingested"] == 30 + 2 * 8
            assert client.stats("taxi")["phase"] == "live"
            rows = client.streams()["streams"]
            assert rows[0]["stream"] == "taxi"
            with pytest.raises(ServiceError) as excinfo:
                client.factors("ghost")
            assert excinfo.value.code == "unknown_stream"
            client.shutdown()
        assert server.wait() == 0

    def test_shutdown_with_idle_connection_exits_cleanly(self, launch):
        # Another client sits idle in the server's readline while a second
        # one sends shutdown: stop() must close that connection and let its
        # handler return, not leave it for the loop teardown to cancel.
        server = launch()
        with socket.create_connection(("127.0.0.1", server.port)) as idle:
            with server.client() as client:
                assert client.ping()["pong"]
                client.shutdown()
            assert server.wait() == 0
            assert idle.recv(1) == b""  # the server closed it
        output = server.process.stdout.read()
        assert "Traceback" not in output
        assert "CancelledError" not in output

    def test_graceful_restart_resumes_bit_exactly(self, launch, tmp_path):
        root = str(tmp_path / "state")
        server = launch("--checkpoint-root", root)
        with server.client() as client:
            for position in range(3):
                feed_stream(client, f"tenant-{position}", seed=30 + position)
            before = {
                f"tenant-{position}": client.factors(f"tenant-{position}")
                for position in range(3)
            }
            detectors_before = {
                stream: client.anomalies(stream, k=50) for stream in before
            }
            fitness_before = {
                stream: client.fitness(stream)["fitness"] for stream in before
            }
            client.shutdown()  # graceful: checkpoints everything
        assert server.wait() == 0

        restarted = launch("--checkpoint-root", root)
        with restarted.client() as client:
            assert client.ping()["streams"] == 3
            for stream, factors in before.items():
                after = client.factors(stream)
                for fa, fb in zip(factors["factors"], after["factors"]):
                    # JSON round-trips floats exactly: bit-equal comparison.
                    assert np.array_equal(np.array(fa), np.array(fb))
                assert client.anomalies(stream, k=50) == detectors_before[stream]
                # Restore recomputes the window norm exactly; fitness may
                # move by float-drift noise only.
                assert client.fitness(stream)["fitness"] == pytest.approx(
                    fitness_before[stream], abs=1e-12
                )
            # The recovered streams keep ingesting.
            extra = live_chunks(3, seed=130)[2]
            client.ingest("tenant-0", wire_records(extra))
            assert client.flush("tenant-0")["deferred_errors"] == []
            client.shutdown()
        assert restarted.wait() == 0

    def test_sigkill_recovers_from_last_checkpoint(self, launch, tmp_path):
        root = str(tmp_path / "state")
        server = launch("--checkpoint-root", root)
        with server.client() as client:
            for position in range(2):
                feed_stream(client, f"tenant-{position}", seed=40 + position)
            client.checkpoint_all()
            checkpointed = {
                f"tenant-{position}": client.factors(f"tenant-{position}")
                for position in range(2)
            }
            # Post-checkpoint work that the hard kill will throw away.
            lost = live_chunks(3, seed=140)[2]
            client.ingest("tenant-0", wire_records(lost))
            client.flush("tenant-0")
        server.kill()

        restarted = launch("--checkpoint-root", root)
        with restarted.client() as client:
            assert client.ping()["streams"] == 2
            for stream, factors in checkpointed.items():
                after = client.factors(stream)
                for fa, fb in zip(factors["factors"], after["factors"]):
                    assert np.array_equal(np.array(fa), np.array(fb))
            # The lost chunk can simply be re-sent: the recovered clock is
            # the checkpoint's, so the records are not behind it.
            client.ingest("tenant-0", wire_records(lost))
            assert client.flush("tenant-0")["deferred_errors"] == []
            client.shutdown()
        assert restarted.wait() == 0

    def test_count_triggered_checkpoints_limit_data_loss(self, launch, tmp_path):
        root = str(tmp_path / "state")
        server = launch(
            "--checkpoint-root", root, "--checkpoint-events", "10"
        )
        with server.client() as client:
            feed_stream(client, "s", seed=50, n_chunks=4)
            telemetry = client.telemetry("s")["telemetry"]
            # The server checkpointed on its own while serving.
            assert telemetry["checkpoints_written"] >= 1
        server.kill()  # no graceful checkpoint

        restarted = launch("--checkpoint-root", root)
        with restarted.client() as client:
            stats = client.stats("s")
            assert stats["phase"] == "live"
            assert stats["events_applied"] > 0
            client.shutdown()
        assert restarted.wait() == 0
