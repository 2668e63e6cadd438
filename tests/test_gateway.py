import calendar
import dataclasses
import email.utils
import errno
import http.client
import json
import logging
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztrv import (
    ConfigError,
    GatewayConfig,
    Keystore,
    Mode,
    MockMerchant,
    VerificationRequest,
    VerifierConfig,
    ZtrvGateway,
    load_config,
    request_to_wire,
)
from ztrv import gateway as gateway_module
from ztrv.gateway import HANDLER_THREADS, parse_listen_address
from ztrv.registry import PER_ENTRY_BYTES


def _post(url, body: bytes, headers=None):
    req = urllib.request.Request(url, data=body, method="POST",
                                 headers=headers or
                                 {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post_request(gateway_url, request: VerificationRequest):
    body = json.dumps(request_to_wire(request)).encode()
    return _post(f"{gateway_url}/execute", body)


@pytest.fixture
def merchant():
    with MockMerchant() as server:
        yield server


@pytest.fixture
def gateway(merchant, keystore, tmp_path):
    config = GatewayConfig(
        listen_address="127.0.0.1:0",
        upstream_url=f"{merchant.base_url}/fulfill",
        keystore_path=str(tmp_path / "unused.json"),
    )
    with ZtrvGateway(config, keystore=keystore) as server:
        yield server


def _idle_config() -> GatewayConfig:
    return GatewayConfig(listen_address="127.0.0.1:0",
                         upstream_url="http://127.0.0.1:9/unused",
                         keystore_path="unused.json")


@pytest.fixture(scope="module")
def idle_gateway(keystore):
    """A gateway for requests that must all be rejected; nothing listens
    upstream."""
    with ZtrvGateway(_idle_config(), keystore=keystore) as server:
        yield server


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _write_config(tmp_path, **overrides):
    obj = {"listen_address": "127.0.0.1:0",
           "upstream_url": "http://127.0.0.1:9/x",
           "keystore_path": str(tmp_path / "ks.json")}
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def test_load_config_minimal_fills_defaults(tmp_path):
    config = load_config(_write_config(tmp_path))
    assert config.verifier.mode is Mode.FULL
    assert config.verifier.window == 60.0
    assert config.verifier.skew_tolerance == 0.0
    assert config.request_body_limit == 64 * 1024


def test_load_config_window_and_skew(tmp_path):
    config = load_config(_write_config(tmp_path, window=5,
                                       skew_tolerance=2.5))
    assert config.verifier == VerifierConfig(window=5.0, skew_tolerance=2.5)
    assert config.verifier.mode is Mode.FULL
    # either one alone keeps the other's default
    assert (load_config(_write_config(tmp_path, skew_tolerance=1)).verifier
            == VerifierConfig(skew_tolerance=1.0))
    assert (load_config(_write_config(tmp_path, window=7)).verifier
            == VerifierConfig(window=7.0))


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="surprise"):
        load_config(_write_config(tmp_path, surprise=1))
    # the gateway always binds the whole context and consumes every nonce
    for key, value in (("mode", "full"), ("mode", "baseline"),
                       ("context_fields", ["merchant_id", "scope"])):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            load_config(_write_config(tmp_path, **{key: value}))


def test_readme_config_table_lists_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("\n")
    start = next(i for i, line in enumerate(lines)
                 if re.fullmatch(r"\| key +\| meaning +\| default +\|", line))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([a-z_]+)` ", line).group(1))
    assert sorted(rows) == sorted(gateway_module._CONFIG_KEYS)


def test_load_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="window"):
        load_config(_write_config(tmp_path, window=0))
    with pytest.raises(ConfigError, match="upstream_url"):
        load_config(_write_config(tmp_path, upstream_url="ftp://nope"))
    with pytest.raises(ConfigError, match="listen_address"):
        load_config(_write_config(tmp_path, listen_address="nocolon"))
    with pytest.raises(ConfigError, match="request_body_limit"):
        load_config(_write_config(tmp_path, request_body_limit=True))
    # json reads NaN and Infinity, and 1e400 as inf; each must fail here,
    # not in stage 3 of every request the gateway would go on to serve.
    # The number goes in as raw JSON text: json.dumps cannot write 1e400.
    for key in ("window", "skew_tolerance"):
        for text in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
            path = _write_config(tmp_path, **{key: "NUMBER"})
            path.write_text(path.read_text().replace('"NUMBER"', text))
            with pytest.raises(ConfigError, match=key):
                load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_parse_listen_address():
    assert parse_listen_address("0.0.0.0:8080") == ("0.0.0.0", 8080)
    for bad in ("nope", ":80", "h:port", "h:70000"):
        with pytest.raises(ConfigError):
            parse_listen_address(bad)


# ---------------------------------------------------------------------------
# end-to-end over HTTP
# ---------------------------------------------------------------------------

def test_wall_clock_never_steps_back(monkeypatch):
    clock = gateway_module._WallClock()  # what ZtrvGateway.clock holds
    readings = iter([5_000_000_000, 9_000_000_000, 2_000_000_000,
                     8_000_000_000, 12_000_000_000])
    monkeypatch.setattr(gateway_module.time, "time_ns", lambda: next(readings))
    seen = [clock.now_ms() for _ in range(5)]
    # the steps back to 2 s and 8 s are held at 9 s
    assert seen == [5_000, 9_000, 9_000, 9_000, 12_000]


def test_happy_path_forwards_upstream(gateway, merchant, make_request):
    request = make_request(now=gateway.clock.now_ms())
    status, body, headers = _post_request(gateway.base_url, request)
    assert status == 200
    assert json.loads(body) == {"fulfilled": request.mandate.mandate_id}
    assert headers.get("X-ZTRV-Decision") == "ACCEPT"
    assert merchant.ledger.count(request.mandate.mandate_id) == 1


def test_replay_rejected_with_403_and_no_ledger_entry(gateway, merchant,
                                                      make_request):
    request = make_request(now=gateway.clock.now_ms())
    assert _post_request(gateway.base_url, request)[0] == 200
    status, body, _ = _post_request(gateway.base_url, request)
    assert status == 403
    decision = json.loads(body)
    assert decision["outcome"] == "REJECT"
    assert decision["reason"] == "ReplayDetected"
    assert decision["mandate_id"] == request.mandate.mandate_id
    assert merchant.ledger.count(request.mandate.mandate_id) == 1


def test_wrong_context_rejected_before_upstream(gateway, merchant,
                                                make_request):
    request = make_request(now=gateway.clock.now_ms())
    moved = VerificationRequest(
        request.mandate,
        dataclasses.replace(request.context, merchant_id="mallory"))
    status, body, _ = _post_request(gateway.base_url, moved)
    assert status == 403
    assert json.loads(body)["reason"] == "ContextMismatch"
    assert len(merchant.ledger) == 0


def test_truncated_json_malformed(gateway, merchant):
    status, body, _ = _post(f"{gateway.base_url}/execute", b'{"mandate": {')
    assert status == 403
    assert json.loads(body)["reason"] == "MalformedRequest"
    assert len(merchant.ledger) == 0


def test_unknown_wire_key_malformed(gateway, make_request):
    wire = request_to_wire(make_request(now=gateway.clock.now_ms()))
    wire["mandate"]["debug"] = True
    status, body, _ = _post(f"{gateway.base_url}/execute",
                            json.dumps(wire).encode())
    assert status == 403
    assert json.loads(body)["reason"] == "MalformedRequest"


@pytest.mark.parametrize("body", [b"[" * 2000, b'{"a":' * 2000],
                         ids=["array", "object"])
def test_deeply_nested_json_malformed(gateway, merchant, body):
    status, payload, _ = _post(f"{gateway.base_url}/execute", body)
    assert status == 403
    assert json.loads(payload)["reason"] == "MalformedRequest"
    assert len(merchant.ledger) == 0


@pytest.mark.parametrize("part, key, value", [
    ("mandate", "mandate_id", None), ("mandate", "nonce", 7),
    ("mandate", "issued_at", "123"), ("mandate", "issued_at", True),
    ("mandate", "issued_at", -1), ("mandate", "context_hash", []),
    ("mandate", "key_id", 5), ("payload", "amount", 1.5),
    ("payload", "currency", {"c": "USD"}), ("context", "task_id", 3),
    ("context", "agent_id", []), ("context", "merchant_id", None),
    ("context", "scope", False),
])
def test_wrong_field_types_are_malformed_decisions(gateway, merchant,
                                                   make_request, part, key,
                                                   value):
    # the wire decoder passes field values through; stage 1 rejects them
    wire = request_to_wire(make_request(now=gateway.clock.now_ms()))
    parts = {"mandate": wire["mandate"], "payload": wire["mandate"]["payload"],
             "context": wire["context"]}
    parts[part][key] = value
    status, body, _ = gateway.handle_execute(json.dumps(wire).encode())
    assert status == 403
    assert json.loads(body) == {"outcome": "REJECT",
                                "reason": "MalformedRequest", "mandate_id": ""}
    assert len(merchant.ledger) == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children)
                      | st.dictionaries(st.text(), children)),
    max_leaves=20)


@settings(deadline=None)
@given(body=st.binary() | _json_values.map(lambda v: json.dumps(v).encode()))
def test_any_body_that_is_not_a_request_is_malformed(idle_gateway, body):
    status, payload, headers = idle_gateway.handle_execute(body)
    assert (status, headers) == (403, {})
    assert json.loads(payload)["reason"] == "MalformedRequest"


def test_oversized_body_rejected(merchant, keystore, tmp_path):
    config = GatewayConfig(
        listen_address="127.0.0.1:0",
        upstream_url=f"{merchant.base_url}/fulfill",
        keystore_path=str(tmp_path / "unused.json"),
        request_body_limit=512,
    )
    with ZtrvGateway(config, keystore=keystore) as gw:
        status, body, _ = _post(f"{gw.base_url}/execute", b"x" * 4096)
        assert status == 403
        assert json.loads(body)["reason"] == "MalformedRequest"
        assert len(merchant.ledger) == 0


def test_healthz_and_stats(gateway, make_request):
    status, body = _get(f"{gateway.base_url}/healthz")
    assert (status, body) == (200, b"ok")
    request = make_request(now=gateway.clock.now_ms())
    _post_request(gateway.base_url, request)
    status, body = _get(f"{gateway.base_url}/stats")
    assert status == 200
    stats = json.loads(body)
    assert stats["live_count"] == 1
    assert stats["peak_count"] == 1
    assert stats["bytes_estimate"] == PER_ENTRY_BYTES
    assert stats["evicted_total"] == 0


def test_unknown_paths_404(gateway):
    assert _get(f"{gateway.base_url}/nope")[0] == 404
    assert _post(f"{gateway.base_url}/verify", b"{}")[0] == 404


def test_upstream_down_yields_502_and_burns_nonce(keystore, tmp_path,
                                                  make_request):
    config = GatewayConfig(
        listen_address="127.0.0.1:0",
        upstream_url="http://127.0.0.1:9/unreachable",  # discard port
        keystore_path=str(tmp_path / "unused.json"),
    )
    with ZtrvGateway(config, keystore=keystore) as gw:
        request = make_request(now=gw.clock.now_ms())
        status, body, _ = _post_request(gw.base_url, request)
        assert status == 502
        echoed = json.loads(body)
        assert echoed["decision"]["outcome"] == "ACCEPT"
        assert echoed["decision"]["mandate_id"] == request.mandate.mandate_id
        # nonce stays consumed: the replay window must not reopen
        status, body, _ = _post_request(gw.base_url, request)
        assert status == 403
        assert json.loads(body)["reason"] == "ReplayDetected"


def test_ledger_http_endpoint(gateway, merchant, make_request):
    request = make_request(now=gateway.clock.now_ms())
    _post_request(gateway.base_url, request)
    status, body = _get(f"{merchant.base_url}/ledger")
    assert status == 200
    entries = json.loads(body)["entries"]
    assert [e["mandate_id"] for e in entries] == [request.mandate.mandate_id]


def test_decision_ledger_consistency_concurrent(gateway, merchant,
                                                make_request):
    # 10 distinct requests, each posted twice concurrently: ledger must hold
    # each mandate exactly once
    now = gateway.clock.now_ms()
    requests = [make_request(now=now) for _ in range(10)]
    jobs = [(r, json.dumps(request_to_wire(r)).encode())
            for r in requests for _ in range(2)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda job: _post(f"{gateway.base_url}/execute", job[1]), jobs))
    statuses = sorted(status for status, _, _ in results)
    assert statuses.count(200) == 10
    assert statuses.count(403) == 10
    for request in requests:
        assert merchant.ledger.count(request.mandate.mandate_id) == 1


def test_keystore_loaded_from_file(merchant, tmp_path, issuer, make_request):
    ks_path = tmp_path / "ks.json"
    Keystore.for_issuers(issuer).save(ks_path)
    config = GatewayConfig(
        listen_address="127.0.0.1:0",
        upstream_url=f"{merchant.base_url}/fulfill",
        keystore_path=str(ks_path),
    )
    with ZtrvGateway(config) as gw:  # no injected keystore: reads the file
        request = make_request(now=gw.clock.now_ms())
        assert _post_request(gw.base_url, request)[0] == 200


# ---------------------------------------------------------------------------
# upstream forward: one HTTP/1.0 exchange under one deadline
# ---------------------------------------------------------------------------

class _FakeUpstream:
    """A raw-socket upstream that records each request it reads and answers
    it with ``answer``, sent as is, then closes the connection.

    With ``interval`` set, the answer is sent a byte at a time, ``interval``
    seconds apart.
    """

    def __init__(self, answer: bytes, interval: float = 0.0):
        self._answer = answer
        self._interval = interval
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/pay?x=1"
        self.requests: list[bytes] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            with conn:
                conn.settimeout(10)
                try:
                    self.requests.append(self._read_request(conn))
                    if self._interval:
                        for byte in self._answer:
                            time.sleep(self._interval)
                            conn.sendall(bytes([byte]))
                    else:
                        conn.sendall(self._answer)
                except OSError:
                    pass  # the gateway gave up on the answer

    @staticmethod
    def _read_request(conn) -> bytes:
        received = b""
        while True:
            head, end, body = received.partition(b"\r\n\r\n")
            if end:
                length = int(head.lower().partition(b"content-length: ")[2]
                             .partition(b"\r\n")[0])
                if len(body) >= length:
                    return received
            chunk = conn.recv(65536)
            if not chunk:
                raise ConnectionError("closed before the end of the request")
            received += chunk

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(10)
        assert not self._thread.is_alive()


@pytest.fixture
def fake_upstream():
    upstreams = []

    def _make(answer: bytes, interval: float = 0.0) -> _FakeUpstream:
        upstreams.append(_FakeUpstream(answer, interval))
        return upstreams[-1]

    yield _make
    for upstream in upstreams:
        upstream.close()


def _gateway_to(upstream_url: str, keystore) -> ZtrvGateway:
    return ZtrvGateway(GatewayConfig(listen_address="127.0.0.1:0",
                                     upstream_url=upstream_url,
                                     keystore_path="unused.json"),
                       keystore=keystore)


def _assert_502_and_nonce_burnt(gw, request):
    status, body, headers = _post_request(gw.base_url, request)
    assert status == 502
    assert headers.get("X-ZTRV-Decision") == "ACCEPT"
    decision = json.loads(body)["decision"]
    assert decision["outcome"] == "ACCEPT"
    assert decision["mandate_id"] == request.mandate.mandate_id
    status, body, _ = _post_request(gw.base_url, request)
    assert status == 403
    assert json.loads(body)["reason"] == "ReplayDetected"


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 409 Conflict\r\nContent-Length: 21\r\n\r\n"
    b'{"error":"duplicate"}',
    # no Content-Length: the body ends where the connection does
    b'HTTP/1.0 409 Conflict\r\n\r\n{"error":"duplicate"}',
], ids=["content-length", "until-close"])
def test_upstream_error_status_relayed(keystore, make_request, fake_upstream,
                                       answer):
    upstream = fake_upstream(answer)
    with _gateway_to(upstream.url, keystore) as gw:
        request = make_request(now=gw.clock.now_ms())
        body = json.dumps(request_to_wire(request)).encode()
        status, relayed, headers = _post(f"{gw.base_url}/execute", body)
    assert status == 409
    assert relayed == b'{"error":"duplicate"}'
    assert headers.get("X-ZTRV-Decision") == "ACCEPT"
    # the forward: an HTTP/1.0 POST to the URL's path and query, and the
    # agent's body as is
    head, _, forwarded = upstream.requests[0].partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == b"POST /pay?x=1 HTTP/1.0"
    assert b"X-ZTRV-Decision: ACCEPT" in lines
    assert forwarded == body


@pytest.mark.parametrize("answer", [
    b"garbage\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
    b"",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
    b"HTTP/1.1 100 Continue\r\n\r\n",
], ids=["garbage-status-line", "short-body", "closed", "chunked", "interim"])
def test_unreadable_upstream_answer_yields_502_and_burns_nonce(
        keystore, make_request, fake_upstream, answer):
    with _gateway_to(fake_upstream(answer).url, keystore) as gw:
        _assert_502_and_nonce_burnt(gw, make_request(now=gw.clock.now_ms()))


def test_upstream_deadline_covers_the_whole_answer(keystore, make_request,
                                                   fake_upstream, monkeypatch):
    # a byte every fifth of the deadline: no single read ever times out
    monkeypatch.setattr(gateway_module, "UPSTREAM_TIMEOUT_S", SHORT_TIMEOUT_S)
    answer = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
    upstream = fake_upstream(answer, interval=SHORT_TIMEOUT_S / 5)
    with _gateway_to(upstream.url, keystore) as gw:
        request = make_request(now=gw.clock.now_ms())
        started = time.monotonic()
        status, _, _ = _post_request(gw.base_url, request)
        assert status == 502
        assert time.monotonic() - started < 4 * SHORT_TIMEOUT_S


def test_https_upstream_is_never_sent_in_clear(keystore, make_request,
                                               merchant, monkeypatch):
    # the plaintext merchant cannot complete a TLS handshake
    monkeypatch.setattr(gateway_module, "UPSTREAM_TIMEOUT_S", SHORT_TIMEOUT_S)
    url = f"https://{merchant.host}:{merchant.port}/fulfill"
    with _gateway_to(url, keystore) as gw:
        _assert_502_and_nonce_burnt(gw, make_request(now=gw.clock.now_ms()))
    assert len(merchant.ledger) == 0


@pytest.mark.parametrize("instant", [
    0,
    calendar.timegm((2000, 2, 29, 12, 30, 5)),
    calendar.timegm((2024, 2, 29, 23, 59, 59)),
    calendar.timegm((2025, 12, 31, 23, 59, 59)),
    calendar.timegm((2026, 1, 1, 0, 0, 0)),
    calendar.timegm((2099, 7, 4, 9, 8, 7)),
])
def test_date_is_imf_fixdate(instant):
    assert gateway_module._http_date(instant) == \
        email.utils.formatdate(instant, usegmt=True)


# ---------------------------------------------------------------------------
# serving model: accepting handler threads and a request read deadline
# ---------------------------------------------------------------------------

SHORT_TIMEOUT_S = 0.5


@pytest.fixture
def pooled_gateway(keystore, monkeypatch):
    """A started gateway whose connections time out after SHORT_TIMEOUT_S."""
    monkeypatch.setattr(gateway_module, "READ_TIMEOUT_S", SHORT_TIMEOUT_S)
    with ZtrvGateway(_idle_config(), keystore=keystore) as server:
        yield server


def _connect(service) -> http.client.HTTPConnection:
    # the client waits 10x the server's read timeout before giving up
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=10 * SHORT_TIMEOUT_S)
    conn.connect()
    return conn


@pytest.mark.parametrize("make_service", [
    lambda keystore: ZtrvGateway(_idle_config(), keystore=keystore),
    lambda keystore: MockMerchant(),
], ids=["gateway", "merchant"])
def test_shutdown_of_unstarted_service_returns(make_service, keystore):
    service = make_service(keystore)
    # in a daemon thread, so a shutdown that hangs fails the test and not
    # the whole run
    stopper = threading.Thread(target=service.shutdown, daemon=True)
    stopper.start()
    stopper.join(3)
    assert not stopper.is_alive()


def test_failed_accept_keeps_every_worker(keystore, monkeypatch):
    service = ZtrvGateway(_idle_config(), keystore=keystore)
    accept = socket.socket.accept
    failures = iter(range(HANDLER_THREADS))

    def failing_accept(sock):
        # each worker's first accept fails as accept(2) may on Linux when a
        # pending connection has a network error
        if (sock.getsockname()[1] == service.port
                and next(failures, None) is not None):
            raise OSError(errno.EPROTO, "protocol error")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", failing_accept)
    with service:
        assert _post(f"{service.base_url}/execute", b"{}")[0] == 403
        assert all(worker.is_alive() for worker in service._workers)


def test_stalled_request_head_is_closed(pooled_gateway):
    address = (pooled_gateway.host, pooled_gateway.port)
    with socket.create_connection(address,
                                  timeout=10 * SHORT_TIMEOUT_S) as sock:
        sock.sendall(b"POST /execute HTTP/1.1\r\nHost: ztrv\r\n")
        assert sock.recv(1) == b""


def test_trickled_request_head_is_closed_at_the_deadline(pooled_gateway):
    # a byte every fifth of the timeout: no single read ever times out
    address = (pooled_gateway.host, pooled_gateway.port)
    started = time.monotonic()
    with socket.create_connection(address) as sock:
        sock.settimeout(SHORT_TIMEOUT_S / 5)
        sock.sendall(b"POST /execute HTTP/1.1\r\nX-Pad: ")
        closed = False
        while not closed and time.monotonic() - started < 10 * SHORT_TIMEOUT_S:
            try:
                sock.sendall(b"a")
                closed = sock.recv(1) == b""
            except TimeoutError:
                pass
            except ConnectionError:
                closed = True
    assert closed
    assert time.monotonic() - started < 4 * SHORT_TIMEOUT_S


def test_idle_keepalive_connection_is_closed(pooled_gateway):
    conn = _connect(pooled_gateway)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert (response.status, response.read()) == (200, b"ok")
        assert conn.sock.recv(1) == b""  # closed by the read deadline
    finally:
        conn.close()


def test_every_open_keepalive_connection_is_served(keystore):
    # one more connection than the waiting workers, all in use at once; the
    # client gives up well before the server's read deadline could free a
    # worker, so no connection may wait for another to end
    conns = []
    with ZtrvGateway(_idle_config(), keystore=keystore) as service:
        try:
            for _ in range(HANDLER_THREADS + 1):
                conn = http.client.HTTPConnection(
                    service.host, service.port,
                    timeout=gateway_module.READ_TIMEOUT_S / 4)
                conns.append(conn)
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert (response.status, response.read()) == (200, b"ok")
            for conn in conns:
                conn.request("POST", "/execute", body=b"{}")
            for conn in conns:
                response = conn.getresponse()
                assert response.status == 403
                body = json.loads(response.read())
                assert body["reason"] == "MalformedRequest"
        finally:
            for conn in conns:
                conn.close()
        # the workers started for the extra connections exit once idle
        deadline = time.monotonic() + 5
        while (len(service._workers) > HANDLER_THREADS
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert len(service._workers) == HANDLER_THREADS


def test_fresh_connections_start_no_threads(pooled_gateway, monkeypatch):
    starts = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for _ in range(200):
        conn = _connect(pooled_gateway)
        try:
            conn.request("POST", "/execute", body=b"{}")
            assert conn.getresponse().status == 403
        finally:
            conn.close()
    assert starts == []


def test_access_log_at_debug(idle_gateway, caplog):
    caplog.set_level(logging.DEBUG, logger="ztrv.gateway")
    assert _get(f"{idle_gateway.base_url}/healthz")[0] == 200
    assert any('"GET /healthz HTTP/1.1" 200' in record.getMessage()
               for record in caplog.records)


# ---------------------------------------------------------------------------
# request reader: RFC 9112 syntax, the head limits and body framing
# ---------------------------------------------------------------------------

MALFORMED = {"outcome": "REJECT", "reason": "MalformedRequest",
             "mandate_id": ""}


def _exchange(service, data: bytes) -> list[tuple[int, dict, bytes]]:
    """Send ``data`` on a new connection and read until the server closes
    it; ``(status, headers, body)`` of each response, in order."""
    received = b""
    with socket.create_connection((service.host, service.port),
                                  timeout=10 * SHORT_TIMEOUT_S) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with request bytes still unread
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {name.lower(): value.strip() for name, _, value in
                   (line.partition(":") for line in lines)}
        length = int(headers.get("content-length", 0))
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        received = rest[length:]
    return responses


def _assert_malformed_and_closed(responses):
    # one answer only: nothing sent after the rejected request is read
    assert len(responses) == 1
    status, headers, body = responses[0]
    assert status == 403
    assert headers["connection"] == "close"
    assert json.loads(body) == MALFORMED


@pytest.mark.parametrize("framing", [
    b"Content-Length: 0_7\r\n",
    b"Content-Length: +7\r\n",
    b"Content-Length: 7\r\nContent-Length: 3\r\n",
    b"Content-Length: 7\r\nContent-Length: 7\r\n",
    b"Content-Length: 7, 7\r\n",
    b"Transfer-Encoding: chunked\r\nContent-Length: 7\r\n",
], ids=["underscore", "plus", "two-values", "twice", "list", "chunked"])
def test_body_framing_other_than_one_content_length_is_unreadable(
        pooled_gateway, framing):
    # a GET pipelined after a 7-byte body: a reader that takes any of these
    # framings as 7 answers it, one that takes 3 reads garbage
    request = (b"POST /execute HTTP/1.1\r\nHost: ztrv\r\n" + framing +
               b"\r\n" + b'{"a":1}' + b"GET /healthz HTTP/1.1\r\n\r\n")
    _assert_malformed_and_closed(_exchange(pooled_gateway, request))


@pytest.mark.parametrize("head", [
    b"hello\r\n\r\n",
    b"\r\nGET /healthz HTTP/1.1\r\n\r\n",
    b"GET /healthz\r\n\r\n",
    b"GET  /healthz HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/2.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nHost: ztrv\r\n folded\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nHost : ztrv\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nHost\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-A: b\rc\r\n\r\n",
    b"GET /healthz HTTP/1.1\nHost: ztrv\n\n",
    b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n",
    b"GET /" + b"a" * 65_530 + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-A: " + b"b" * 65_530 + b"\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-A: " + b"b" * 200_000 + b"\r\n\r\n",
], ids=["garbage", "empty-line-first", "http-0.9", "double-space",
        "http-2", "obs-fold", "space-before-colon", "no-colon", "bare-cr",
        "bare-lf", "101-headers", "long-request-line", "long-header-line",
        "unterminated-line"])
def test_unreadable_head_is_a_malformed_decision(pooled_gateway, head):
    _assert_malformed_and_closed(_exchange(pooled_gateway, head))


@pytest.mark.parametrize("path, fields", [
    (b"/healthz", b"X-A: b\r\n" * 99),
    (b"/healthz?" + b"a" * 65_512, b""),
    (b"/healthz", b"X-A: " + b"b" * 65_529 + b"\r\n"),
], ids=["100-headers", "long-request-line", "long-header-line"])
def test_head_at_the_limits_is_read(pooled_gateway, path, fields):
    # lines of up to 65,536 bytes, CRLF included, and 100 header lines
    head = (b"GET " + path + b" HTTP/1.1\r\n" + fields +
            b"Connection: close\r\n")
    lines = head.split(b"\r\n")[:-1]
    assert len(lines) <= 101
    assert max(len(line) + 2 for line in lines) <= 65_536
    responses = _exchange(pooled_gateway, head + b"\r\n")
    assert [status for status, _, _ in responses] == \
        [200 if path == b"/healthz" else 404]


@pytest.mark.parametrize("method", ["PUT", "DELETE", "HEAD", "OPTIONS"])
def test_method_no_route_serves_is_not_found(pooled_gateway, method):
    request = (f"{method} /execute HTTP/1.1\r\nHost: ztrv\r\n"
               "Content-Length: 2\r\n\r\n{}").encode()
    responses = _exchange(pooled_gateway, request)
    assert [(status, json.loads(body)) for status, _, body in responses] \
        == [(404, {"error": "not found"})]


def test_pipelined_requests_are_answered_in_order(pooled_gateway):
    responses = _exchange(pooled_gateway,
                          b"POST /execute HTTP/1.1\r\nContent-Length: \t2 \r\n"
                          b"\r\n{}GET /healthz HTTP/1.1\r\n\r\n"
                          b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert [status for status, _, _ in responses] == [403, 200, 404]
    assert json.loads(responses[0][2]) == MALFORMED
    assert responses[1][1]["content-type"] == "text/plain"
    assert all("date" in headers for _, headers, _ in responses)


def test_http10_closes_unless_kept_alive(pooled_gateway):
    twice = b"GET /healthz HTTP/1.0\r\n\r\n" * 2
    assert [status for status, _, _ in _exchange(pooled_gateway, twice)] \
        == [200]
    kept = (b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert [status for status, _, _ in _exchange(pooled_gateway, kept)] \
        == [200, 200]


def test_expect_100_continue(pooled_gateway):
    address = (pooled_gateway.host, pooled_gateway.port)
    with socket.create_connection(address,
                                  timeout=10 * SHORT_TIMEOUT_S) as sock:
        sock.sendall(b"POST /execute HTTP/1.1\r\nExpect: 100-continue\r\n"
                     b"Content-Length: 2\r\nConnection: close\r\n\r\n")
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b"{}")
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert response.startswith(b"HTTP/1.1 403 Forbidden\r\n")
    assert json.loads(response.partition(b"\r\n\r\n")[2]) == MALFORMED
