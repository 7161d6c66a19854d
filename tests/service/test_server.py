"""HTTP round-trip tests: server in a background thread, blocking client."""

import contextlib
import http.client
import json
import socket
import threading
import types
import urllib.request

import pytest

from repro.bist import BistConfig
from repro.errors import JobNotFoundError, ServiceError
from repro.service import CampaignSpec, JobQueue
from repro.service.client import ServiceClient
from repro.service.server import BistServiceServer

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def fast_spec(profiles=("paper-qpsk-1ghz",)) -> CampaignSpec:
    return CampaignSpec(profiles=profiles, bist_config=FAST_CONFIG)


@pytest.fixture()
def service(tmp_path):
    """A live server on an ephemeral port + a client; drained on teardown."""
    import asyncio

    ready = threading.Event()
    state = {}

    def run_server():
        async def main():
            queue = JobQueue(tmp_path / "store", num_workers=2)
            server = BistServiceServer(queue, port=0)
            await server.start()
            state["port"] = server.port
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(10.0), "server never came up"
    client = ServiceClient(f"http://127.0.0.1:{state['port']}", timeout_seconds=30.0)
    yield client
    try:
        client.drain()
    except ServiceError:
        pass  # already drained by the test
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "server thread did not shut down"


def raw_request(client: ServiceClient, method: str, path: str, body: bytes = b"") -> tuple:
    """Bypass the client's error unwrapping to assert raw status codes."""
    host = client._base_url.split("//", 1)[1]
    connection = http.client.HTTPConnection(host, timeout=10.0)
    connection.request(method, path, body=body or None)
    response = connection.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    connection.close()
    return response.status, payload


def raw_exchange(client: ServiceClient, data: bytes) -> tuple:
    """Send ``data`` over a raw socket, half-close it, and parse the reply."""
    host, port = client._base_url.split("//", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRoundTrip:
    def test_submit_status_result_flow(self, service):
        status, health = raw_request(service, "GET", "/health")
        assert (status, health["status"]) == (200, "ok")
        job_id = service.submit(fast_spec())
        status = service.wait(job_id, timeout_seconds=120.0)
        assert status["state"] == "done"
        result = service.result(job_id)
        assert result["job_id"] == job_id
        assert "campaign service:" in result["summary_text"]
        assert result["summary"]["sections"]["service"]["scenarios_total"] == 1
        assert len(result["outcomes"]) == 1
        assert service.stats()["jobs"]["done"] == 1

    def test_jobs_listing(self, service):
        first = service.submit(fast_spec())
        service.wait(first, timeout_seconds=120.0)
        jobs = service.jobs()
        assert [job["job_id"] for job in jobs] == [first]

    def test_drain_shuts_the_service_down(self, service):
        response = service.drain()
        assert response["status"] == "draining"


class TestProtocolErrors:
    def test_unknown_job_is_404(self, service):
        with pytest.raises(JobNotFoundError):
            service.status("job-424242")

    def test_result_of_running_job_is_409(self, service):
        job_id = service.submit(fast_spec())
        status, payload = raw_request(service, "GET", f"/jobs/{job_id}/result")
        # Terminal-state race: a very fast job may already be done.
        assert status in (200, 409)
        if status == 409:
            assert "results exist only" in payload["error"]
        service.wait(job_id, timeout_seconds=120.0)

    def test_bad_spec_is_400(self, service):
        status, payload = raw_request(
            service, "POST", "/jobs", json.dumps({"profiles": []}).encode()
        )
        assert status == 400
        assert "invalid campaign spec" in payload["error"]

    def test_malformed_axis_entry_is_400_not_500(self, service):
        body = {"profiles": ["paper-qpsk-1ghz"], "impairments": [["x"]]}
        status, payload = raw_request(service, "POST", "/jobs", json.dumps(body).encode())
        assert status == 400
        assert "invalid campaign spec" in payload["error"]

    def test_unknown_amplifier_type_is_400_not_500(self, service):
        impairment = {"amplifier": {"type": "Foo", "params": {}}}
        body = {"profiles": ["paper-qpsk-1ghz"], "impairments": [["foo", impairment]]}
        status, payload = raw_request(service, "POST", "/jobs", json.dumps(body).encode())
        assert status == 400
        assert "invalid campaign spec" in payload["error"]
        assert "'Foo'" in payload["error"]

    def test_non_json_body_is_400(self, service):
        status, payload = raw_request(service, "POST", "/jobs", b"not json")
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_unknown_path_is_404(self, service):
        status, payload = raw_request(service, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, service):
        status, _ = raw_request(service, "POST", "/health")
        assert status == 405
        status, _ = raw_request(service, "GET", "/drain")
        assert status == 405

    def test_unknown_job_resource_is_404(self, service):
        status, _ = raw_request(service, "GET", "/jobs/job-000001/weird")
        assert status == 404

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
        ],
        ids=["negative-length", "body-shorter-than-length"],
    )
    def test_bad_content_length_is_400(self, service, request_bytes):
        status, payload = raw_exchange(service, request_bytes)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert service.jobs() == []


def stub_urlopen(monkeypatch, read) -> None:
    """Make every client request answer 2xx with a body from ``read()``."""
    response = types.SimpleNamespace(read=read)
    monkeypatch.setattr(
        urllib.request, "urlopen", lambda request, timeout: contextlib.nullcontext(response)
    )


class TestClientTransport:
    @pytest.mark.parametrize(
        "failure",
        [
            ConnectionResetError(104, "Connection reset by peer"),
            TimeoutError("timed out"),
            http.client.IncompleteRead(b'{"jobs": [', 40),
        ],
        ids=lambda failure: type(failure).__name__,
    )
    def test_failure_while_reading_raises_service_error(self, monkeypatch, failure):
        def read():
            raise failure

        stub_urlopen(monkeypatch, read)
        with pytest.raises(ServiceError, match=type(failure).__name__) as caught:
            ServiceClient("http://127.0.0.1:1").jobs()
        assert caught.value.__cause__ is failure

    def test_non_json_success_body_raises_service_error(self, monkeypatch):
        stub_urlopen(monkeypatch, lambda: b"<html>ok</html>")
        with pytest.raises(ServiceError, match="not JSON"):
            ServiceClient("http://127.0.0.1:1").stats()

    def test_unreachable_endpoint_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_seconds=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.stats()

    def test_wait_times_out_with_service_error(self, service, monkeypatch):
        job_id = service.submit(fast_spec())
        with monkeypatch.context() as patch:
            # A fast job can finish before the first poll; a status that
            # stays non-terminal makes the zero timeout certain to expire.
            patch.setattr(service, "status", lambda job: {"job_id": job, "state": "running"})
            with pytest.raises(ServiceError, match="still"):
                service.wait(job_id, timeout_seconds=0.0, poll_seconds=0.01)
        service.wait(job_id, timeout_seconds=120.0)
