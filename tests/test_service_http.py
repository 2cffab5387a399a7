"""HTTP adapter + blessed client (``repro.service.http`` / ``.client``).

One real server per test on an ephemeral port; the stdlib client runs
in a thread (it is blocking urllib) while the server loop owns the main
thread's event loop.  Typed errors must round-trip: the class the
server raised is the class the client re-raises.
"""

import asyncio
import gc
import json
import socket
import sys
import threading
import urllib.request

import pytest

from repro.api import JobState, ServiceError, submit_plan
from repro.harness.executor import ExperimentRequest
from repro.service import ServiceConfig, SimulationService
from repro.service.client import ServiceClient
from repro.service.errors import InvalidRequestError, JobNotFoundError
from repro.service.http import (
    _MAX_BODY,
    _SWITCH_INTERVAL_S,
    ServiceServer,
    serve,
)

WORKLOAD = "FIB"


def _serve(tmp_path, client_body, **config_overrides):
    """Run *client_body(client)* in a thread against a live server."""
    defaults = dict(
        root=str(tmp_path / "service"),
        store_root=str(tmp_path / "store"),
        backoff_base=0.01,
    )
    defaults.update(config_overrides)
    service = SimulationService(ServiceConfig(**defaults))
    outcome = {}

    async def main():
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", tenant="t", timeout=30
        )

        def run_client():
            try:
                outcome["result"] = client_body(client)
            except BaseException as exc:  # pragma: no cover - reraised
                outcome["error"] = exc
            finally:
                loop.call_soon_threadsafe(server._shutdown.set)

        loop = asyncio.get_running_loop()
        thread = threading.Thread(target=run_client)
        thread.start()
        try:
            await asyncio.wait_for(server.serve_forever(
                install_signals=False
            ), timeout=120)
        finally:
            thread.join(timeout=10)

    asyncio.run(main())
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("result")


class TestRoundTrip:
    def test_submit_wait_result(self, tmp_path):
        def body(client):
            assert client.health()["ok"]
            assert client.ready()["ready"]
            handle = client.submit(ExperimentRequest(WORKLOAD, "baseline"))
            result = handle.result(timeout=60)
            assert result.cycles > 0
            assert handle.state() is JobState.DONE
            record = handle.poll()
            assert record["tenant"] == "t"
            assert [e["state"] for e in record["events"]][:2] == [
                "submitted", "running",
            ]
            stats = client.stats()
            assert stats["counters"]["done"] == 1
            return result.cycles

        assert _serve(tmp_path, body) > 0

    def test_submit_plan_facade(self, tmp_path):
        def body(client):
            handles = submit_plan(
                [
                    ExperimentRequest(WORKLOAD, "baseline"),
                    ExperimentRequest(WORKLOAD, "cars"),
                ],
                client=client,
            )
            assert len(handles) == 2
            results = [h.result(timeout=120) for h in handles]
            assert all(r.cycles > 0 for r in results)
            assert results[0].technique == "baseline"
            assert results[1].technique == "cars"

        _serve(tmp_path, body)

    def test_minimal_body_defaults_config(self, tmp_path):
        # Hand-written curl-style submissions: workload alone is enough.
        def body(client):
            payload = client.call(
                "POST", "/v1/jobs",
                {"request": {"workload": WORKLOAD}},
            )
            from repro.service.client import JobHandle

            handle = JobHandle(client, payload["job_id"])
            assert handle.result(timeout=60).technique == "baseline"

        _serve(tmp_path, body)

    def test_body_carrying_backend_key_is_admitted(self, tmp_path):
        # Bodies written for the simulator's former second timing backend
        # still carry "backend"; the key is ignored, not refused.
        def body(client):
            from repro.service.client import JobHandle

            request = ExperimentRequest(WORKLOAD, "baseline").to_dict()
            request["backend"] = "vectorized"
            post = urllib.request.Request(
                client.base_url + "/v1/jobs",
                data=json.dumps({"request": request}).encode(),
                headers={"Content-Type": "application/json",
                         "X-Repro-Tenant": client.tenant},
                method="POST",
            )
            with urllib.request.urlopen(post, timeout=30) as resp:
                assert resp.status == 202
                payload = json.loads(resp.read().decode())
            handle = JobHandle(client, payload["job_id"])
            assert handle.result(timeout=60).cycles > 0

        _serve(tmp_path, body)


class TestTypedErrors:
    def test_unknown_job_is_404_class(self, tmp_path):
        def body(client):
            with pytest.raises(JobNotFoundError):
                client.call("GET", "/v1/jobs/nope")

        _serve(tmp_path, body)

    def test_bad_body_is_400_class(self, tmp_path):
        def body(client):
            with pytest.raises(InvalidRequestError):
                client.call("POST", "/v1/jobs", {"request": {}})
            with pytest.raises(InvalidRequestError):
                client.call(
                    "POST", "/v1/jobs",
                    {"request": {"workload": WORKLOAD, "config": "nope"}},
                )

        _serve(tmp_path, body)

    @pytest.mark.parametrize("framing", [
        f"Content-Length: {_MAX_BODY + 1}",
        "Content-Length: ten",
        "Content-Length: -1",
        "Transfer-Encoding: chunked",
    ], ids=["over-limit", "not-a-number", "negative", "chunked"])
    def test_unframable_body_gets_one_400_and_a_close(
        self, tmp_path, framing
    ):
        # The body is a whole second request.  A server that cannot tell
        # where the body ends must not answer it as the next request.
        smuggled = b"GET /v1/stats HTTP/1.1\r\n\r\n"

        def body(client):
            port = int(client.base_url.rsplit(":", 1)[1])
            replies = b""
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.settimeout(5)
                sock.sendall(
                    f"POST /v1/jobs HTTP/1.1\r\n{framing}\r\n\r\n".encode()
                    + smuggled
                )
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        replies += chunk
                except (socket.timeout, ConnectionResetError):
                    pass  # still open after the replies, or reset
            return replies

        replies = _serve(tmp_path, body)
        assert replies.count(b"HTTP/1.1 ") == 1, replies
        head, _, blob = replies.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(blob)["error"]["code"] == InvalidRequestError.code

    def test_failed_job_result_raises_journaled_code(self, tmp_path):
        def body(client):
            handle = client.submit(
                ExperimentRequest(WORKLOAD, "no_such_technique")
            )
            assert handle.wait(timeout=60) is JobState.FAILED
            with pytest.raises(ServiceError):
                handle.result(timeout=60)

        _serve(tmp_path, body)


class TestServeEntryPoint:
    def test_tunes_interpreter_while_serving_and_restores_it(self, tmp_path):
        # serve() shortens the GIL switch interval and freezes what
        # startup built for as long as it serves, then puts both back.
        seen = {}

        def ready(server):
            seen["interval"] = sys.getswitchinterval()
            seen["frozen"] = gc.get_freeze_count()
            server._shutdown.set()

        before = sys.getswitchinterval()
        serve(
            ServiceConfig(
                root=str(tmp_path / "service"),
                store_root=str(tmp_path / "store"),
            ),
            port=0, ready_callback=ready,
        )
        assert seen["interval"] == pytest.approx(_SWITCH_INTERVAL_S)
        assert seen["interval"] < before
        assert seen["frozen"] > 0
        assert sys.getswitchinterval() == before
        assert gc.get_freeze_count() == 0
