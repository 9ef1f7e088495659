"""The HTTP face: endpoints, error mapping, client, serve() lifecycle."""

import http.client
import json
import os
import textwrap
import threading
import urllib.request

import pytest

from repro.core.config import DesignPoint
from repro.core.export import results_to_json
from repro.core.sweep import dma_design_space, run_sweep
from repro.serve import SweepService
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.httpd import (
    MAX_BODY_BYTES, design_from_json, make_server, serve)

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


@pytest.fixture
def endpoint(tmp_path):
    """A live server on an ephemeral port; yields (client, service)."""
    service = SweepService(str(tmp_path), batch_window=0.005)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


class TestDesignFromJson:
    def test_round_trips_fields(self):
        d = DesignPoint(lanes=4, partitions=2)
        assert design_from_json(dict(d.__dict__)).__dict__ == d.__dict__

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown design field"):
            design_from_json({"lanes": 4, "warp_speed": 9})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            design_from_json([1, 2, 3])


class TestEndpoints:
    def test_health(self, endpoint):
        client, service = endpoint
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["cache_dir"] == service.cache_dir
        assert doc["cached_points"] == 0
        assert doc["fidelity"] == "per-workload"

    def test_workloads(self, endpoint):
        client, _service = endpoint
        assert WORKLOAD in client.workloads()

    def test_sweep_then_stats(self, endpoint):
        client, _service = endpoint
        designs = quick_designs(2)
        doc = client.sweep(WORKLOAD, designs)
        assert doc["workload"] == WORKLOAD
        assert doc["service"]["dispatches"] == 2
        serial = json.loads(results_to_json(run_sweep(WORKLOAD, designs)))
        got = [{k: v for k, v in record.items() if k != "fidelity"}
               for record in doc["results"]]
        assert got == serial
        stats = client.stats()
        assert stats["service"]["dispatches"] == 2
        assert stats["engine"]["evaluated"] == 2

    def test_second_sweep_hits(self, endpoint):
        client, _service = endpoint
        designs = quick_designs(1)
        client.sweep(WORKLOAD, designs)
        doc = client.sweep(WORKLOAD, designs)
        assert doc["service"] == {"points": 1, "hits": 1, "joins": 0,
                                  "dispatches": 0, "failures": 0,
                                  "tier": "exact"}

    def test_query_edp_over_explicit_designs(self, endpoint):
        client, _service = endpoint
        doc = client.query("edp", WORKLOAD, designs=quick_designs(3))
        assert doc["kind"] == "edp"
        assert doc["edp_optimal"]["workload"] == WORKLOAD
        assert doc["service"]["points"] == 3

    def test_warm_only_query_never_simulates(self, endpoint):
        client, _service = endpoint
        designs = quick_designs(2)
        client.sweep(WORKLOAD, designs[:1])
        doc = client.query("sweep", WORKLOAD, designs=designs,
                           evaluate=False)
        assert doc["service"]["tier"] == "warm"
        assert doc["missing"] == 1
        assert len(doc["results"]) == 1

    def test_designs_accept_plain_dicts(self, endpoint):
        client, _service = endpoint
        doc = client.sweep(WORKLOAD, [{"lanes": 2, "partitions": 2}])
        assert doc["service"]["points"] == 1


class TestErrorMapping:
    def test_unknown_workload_is_400(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="unknown workload") as info:
            client.sweep("not-a-workload", quick_designs(1))
        assert info.value.status == 400

    def test_unknown_design_field_is_400(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="unknown design field"):
            client.sweep(WORKLOAD, [{"warp_speed": 9}])

    def test_bad_kind_is_400(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="kind") as info:
            client.query("bogus", WORKLOAD, designs=quick_designs(1))
        assert info.value.status == 400

    def test_empty_sweep_is_400(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="non-empty"):
            client.sweep(WORKLOAD, [])

    def test_fast_without_calibration_is_400(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="no calibration") as info:
            client.sweep(WORKLOAD, quick_designs(1), fidelity="fast")
        assert info.value.status == 400

    def test_malformed_json_body_is_400(self, endpoint):
        client, _service = endpoint
        req = urllib.request.Request(
            client.base_url + "/query", data=b"this is not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400

    @staticmethod
    def _post_with_length(client, length):
        """POST /query announcing ``length`` body bytes but sending none;
        returns ``(status, error message)``."""
        host, port = client.base_url.split("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            return response.status, json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_oversized_body_is_413_before_reading(self, endpoint):
        # No body follows the header: a server that tried to read the
        # announced bytes would block until the client timed out.
        client, service = endpoint
        status, error = self._post_with_length(client,
                                               str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in error
        assert service.metrics.snapshot()["requests"] == 0

    @pytest.mark.parametrize("length", ["-1", "12abc", "1.5"])
    def test_bad_content_length_is_400(self, endpoint, length):
        client, service = endpoint
        status, error = self._post_with_length(client, length)
        assert status == 400
        assert "Content-Length" in error
        assert service.metrics.snapshot()["requests"] == 0

    def test_unknown_get_endpoint_is_404(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError) as info:
            client._request("/nope")
        assert info.value.status == 404

    def test_unknown_post_endpoint_is_404(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError) as info:
            client._request("/nope", payload={})
        assert info.value.status == 404

    def test_service_error_carries_server_message(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError) as info:
            client.sweep("not-a-workload", quick_designs(1))
        assert "see GET /workloads" in info.value.message
        assert "HTTP 400" in str(info.value)


FIR_SOURCE = textwrap.dedent("""\
    from repro import frontend as fe

    TAPS, N = 4, 32

    @fe.kernel(description="4-tap FIR filter")
    def fir_mini(x: fe.Array("x", N, word_bytes=8, kind="input"),
                 h: fe.Array("h", TAPS, word_bytes=8, kind="input"),
                 y: fe.Array("y", N - TAPS + 1, word_bytes=8,
                             kind="output")):
        for i in fe.parallel_range(N - TAPS + 1):
            acc = 0.0
            for t in range(TAPS):
                acc = acc + x[i + t] * h[t]
            y[i] = acc
    """)


@pytest.fixture
def clean_registry():
    """Undo dynamic registrations made through the server in-process."""
    from repro.workloads import registry
    before = set(registry._INSTANCES)
    paths = set(registry._LOADED_KERNEL_PATHS)
    env = os.environ.get(registry.ENV_KERNEL_PATHS)
    yield
    for name in set(registry._INSTANCES) - before:
        registry.unregister_workload(name)
    registry._LOADED_KERNEL_PATHS.clear()
    registry._LOADED_KERNEL_PATHS.update(paths)
    if env is None:
        os.environ.pop(registry.ENV_KERNEL_PATHS, None)
    else:
        os.environ[registry.ENV_KERNEL_PATHS] = env


class TestKernelEndpoint:
    def test_submit_then_sweep_then_warm_requery(self, endpoint,
                                                 clean_registry):
        """A brand-new kernel goes end-to-end: POST /kernels, sweep it,
        re-query — the second pass must be all store hits, no dispatch."""
        client, service = endpoint
        doc = client.submit_kernel(FIR_SOURCE, filename="fir_mini.py")
        assert doc["kernels"] == [{"name": "fir-mini",
                                   "description": "4-tap FIR filter",
                                   "source": "frontend"}]
        assert "fir-mini" in client.workloads()
        details = client._request("/workloads")["details"]
        assert {"name": "fir-mini", "source": "frontend"} in details

        designs = [{"lanes": 1, "partitions": 1}, {"lanes": 2,
                                                   "partitions": 2}]
        cold = client.sweep("fir-mini", designs)
        assert cold["service"]["dispatches"] == 2
        assert all(not r.get("failed") for r in cold["results"])

        warm = client.sweep("fir-mini", designs)
        assert warm["service"] == {"points": 2, "hits": 2, "joins": 0,
                                   "dispatches": 0, "failures": 0,
                                   "tier": "exact"}
        assert client.stats()["service"]["dispatches"] == 2

    def test_resubmit_is_idempotent(self, endpoint, clean_registry):
        client, service = endpoint
        first = client.submit_kernel(FIR_SOURCE, filename="fir_mini.py")
        assert client.submit_kernel(FIR_SOURCE,
                                    filename="fir_mini.py") == first
        kernels_dir = os.path.join(service.cache_dir, "kernels")
        assert len(os.listdir(kernels_dir)) == 1

    def test_unloadable_source_is_400(self, endpoint, clean_registry):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="failed to execute") as info:
            client.submit_kernel("this is not python !!!")
        assert info.value.status == 400

    def test_kernel_free_source_is_400(self, endpoint, clean_registry):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="no kernels"):
            client.submit_kernel("x = 1\n")

    def test_empty_source_is_400(self, endpoint, clean_registry):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="non-empty") as info:
            client.submit_kernel("")
        assert info.value.status == 400

    def test_builtin_name_collision_is_400(self, endpoint, clean_registry):
        client, _service = endpoint
        source = FIR_SOURCE.replace('@fe.kernel(description="4-tap FIR '
                                    'filter")',
                                    '@fe.kernel(name="aes-aes")')
        with pytest.raises(ServiceError, match="builtin") as info:
            client.submit_kernel(source)
        assert info.value.status == 400

    def test_unknown_workload_mentions_kernels_endpoint(self, endpoint):
        client, _service = endpoint
        with pytest.raises(ServiceError, match="POST /kernels"):
            client.sweep("never-registered", quick_designs(1))


class TestServeLifecycle:
    def test_ready_callback_and_shutdown(self, tmp_path):
        lines = []
        boxed = {}
        bound = threading.Event()

        def ready(server):
            boxed["server"] = server
            bound.set()

        thread = threading.Thread(
            target=serve, args=(str(tmp_path),),
            kwargs={"port": 0, "batch_window": 0.005,
                    "out": lines.append, "ready": ready},
            daemon=True)
        thread.start()
        assert bound.wait(timeout=10)
        host, port = boxed["server"].server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        assert client.health()["status"] == "ok"
        boxed["server"].shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert any("listening on" in line for line in lines)
