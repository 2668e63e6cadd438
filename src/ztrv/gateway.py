"""HTTP mediation layer: verify every mandate, forward only accepted ones.

The gateway sits between agents and a merchant/PSP backend.  A request is
forwarded upstream only after the full verification pipeline accepts it, so
rejection happens before any externally observable side effect.  Rejections
are always HTTP 403 carrying the Decision JSON, including oversized or
unparseable bodies (fail-closed: there is no 400 path).

A mock merchant backend with an append-only ledger is included; the ledger
is the ground truth for "did an attack reach the payment infrastructure"
in end-to-end tests.
"""

from __future__ import annotations

import io
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer

from .mandate import Keystore, request_from_wire
from .registry import NonceRegistry
from .verifier import Decision, Mode, VerifierConfig, verify

log = logging.getLogger("ztrv.gateway")

DEFAULT_BODY_LIMIT = 64 * 1024
UPSTREAM_TIMEOUT_S = 10.0
# handler threads kept waiting in accept(); more start while connections
# hold these, so every open connection is served at once
HANDLER_THREADS = 16
# the most time a connection gets to deliver one whole request, from the
# wait for its first byte to the end of its body; it is closed after that
READ_TIMEOUT_S = 10.0
LISTEN_BACKLOG = 128
ACCEPT_RETRY_S = 0.05
SHUTDOWN_WAIT_S = 5.0


class ConfigError(ValueError):
    """Configuration file invalid; message names the offending field."""


@dataclass(frozen=True)
class GatewayConfig:
    listen_address: str
    upstream_url: str
    keystore_path: str
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    request_body_limit: int = DEFAULT_BODY_LIMIT


def parse_listen_address(address: str) -> tuple[str, int]:
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError("listen_address must be host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError("listen_address port must be an integer") from None
    if not 0 <= port <= 65535:
        raise ConfigError("listen_address port out of range")
    return host, port


_CONFIG_KEYS = frozenset({
    "listen_address", "upstream_url", "keystore_path", "request_body_limit",
    "mode", "window", "skew_tolerance", "context_fields",
})


def _config_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string")
    return value


def _config_number(obj: dict, key: str, default: float) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigError(f"{key} must be finite") from None


def load_config(path) -> GatewayConfig:
    """Parse and validate the flat JSON config; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    listen_address = _config_str(obj, "listen_address")
    parse_listen_address(listen_address)

    upstream_url = _config_str(obj, "upstream_url")
    parts = urllib.parse.urlsplit(upstream_url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise ConfigError("upstream_url must be an http(s) URL")

    keystore_path = _config_str(obj, "keystore_path")

    limit = obj.get("request_body_limit", DEFAULT_BODY_LIMIT)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
        raise ConfigError("request_body_limit must be a positive integer")

    mode_name = obj.get("mode", Mode.FULL.value)
    if not isinstance(mode_name, str):
        raise ConfigError("mode must be a string")
    try:
        mode = Mode.parse(mode_name)
    except ValueError as exc:
        raise ConfigError(f"mode: {exc}") from exc

    fields = obj.get("context_fields")
    if fields is not None:
        if (not isinstance(fields, list)
                or any(not isinstance(f, str) for f in fields)):
            raise ConfigError("context_fields must be a list of strings")
        fields = tuple(fields)

    try:
        kwargs = {
            "mode": mode,
            "window": _config_number(obj, "window", 60.0),
            "skew_tolerance": _config_number(obj, "skew_tolerance", 0.0),
        }
        if fields is not None:
            kwargs["context_fields"] = fields
        verifier_config = VerifierConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return GatewayConfig(
        listen_address=listen_address,
        upstream_url=upstream_url,
        keystore_path=keystore_path,
        verifier=verifier_config,
        request_body_limit=limit,
    )


# ---------------------------------------------------------------------------
# HTTP plumbing shared by gateway and mock merchant
# ---------------------------------------------------------------------------

class _WallClock:
    """Unix milliseconds from the system clock, never decreasing.

    A step back of the system clock (an NTP adjustment) is held at the
    latest reading: going back could make a stale mandate fresh again after
    its nonce was swept from the registry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._now = 0

    def now_ms(self) -> int:
        wall = time.time_ns() // 1_000_000
        with self._lock:
            if wall > self._now:
                self._now = wall
            return self._now


class _Listener(HTTPServer):
    # a burst beyond the waiting workers waits in the kernel's accept queue
    # instead of having its SYNs dropped at TCPServer's default of 5
    request_queue_size = LISTEN_BACKLOG


class _HttpService:
    """An HTTP server whose handler threads each accept their own connections.

    HANDLER_THREADS workers are started up front, each blocked in
    ``accept()`` on the shared listener.  A worker serves the connection it
    gets until the client closes it or a request is not read within
    READ_TIMEOUT_S.  A worker that takes a connection while no other worker
    waits starts one more, so a new connection never waits for an open one
    to end; a worker that finishes while HANDLER_THREADS others wait exits.
    No thread is started per connection while fewer than HANDLER_THREADS
    connections are open.
    """

    def __init__(self, host: str, port: int, handler_cls):
        self._server = _Listener((host, port), handler_cls)
        self._lock = threading.Lock()
        self._workers: set[threading.Thread] = set()
        self._waiting = 0  # workers in accept() or on their way back to it
        self._stopping = threading.Event()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "_HttpService":
        with self._lock:
            for _ in range(HANDLER_THREADS):
                self._add_worker()
        return self

    def _add_worker(self) -> None:
        # the caller holds self._lock
        worker = threading.Thread(target=self._serve, daemon=True,
                                  name=f"ztrv-http-{self.port}")
        worker.start()
        # listed once started: shutdown() may run after an interrupt here
        self._workers.add(worker)
        self._waiting += 1

    def _serve(self) -> None:
        server = self._server
        listener = server.socket
        while True:
            try:
                # looked up on every call, never cached: perfbench counts
                # connections by replacing socket.socket.accept
                conn, address = listener.accept()
            except OSError as exc:
                if self._stopping.is_set():
                    return
                # Linux reports some errors of a pending connection, and
                # EMFILE, from accept(2); keep serving, without spinning
                log.warning("accept failed: %s", exc)
                self._stopping.wait(ACCEPT_RETRY_S)
                continue
            with self._lock:
                self._waiting -= 1
                if not self._waiting and not self._stopping.is_set():
                    try:
                        self._add_worker()
                    except RuntimeError as exc:
                        # out of threads: the next connection waits in the
                        # backlog until a worker is free
                        log.warning("cannot start a handler thread: %s", exc)
            try:
                server.finish_request(conn, address)
            except Exception:
                server.handle_error(conn, address)
            finally:
                server.shutdown_request(conn)
            with self._lock:
                if self._waiting >= HANDLER_THREADS:
                    self._workers.discard(threading.current_thread())
                    return
                self._waiting += 1

    def serve_forever(self) -> None:
        """Serve until shutdown() is called from another thread."""
        self.start()
        self._stopping.wait()

    def shutdown(self) -> None:
        """Stop accepting and wait up to SHUTDOWN_WAIT_S for the workers.

        Shutting the listener down wakes every worker blocked in accept() (on
        Linux), so an idle or never-started service stops at once.  A worker
        still serving a connection finishes that connection first.
        """
        with self._lock:
            self._stopping.set()  # under the lock: no worker starts after it
            workers = list(self._workers)
        try:
            self._server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down and closed
        self._server.server_close()
        deadline = time.monotonic() + SHUTDOWN_WAIT_S
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown()


class _DeadlineReader(socket.SocketIO):
    """Socket reads that fail once ``deadline`` (monotonic) has passed.

    A timeout per read alone would let a client that trickles a byte now and
    then hold its connection for good.
    """

    deadline = 0.0

    def readinto(self, b):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request not read in time")
        self._sock.settimeout(remaining)
        return super().readinto(b)


class _JsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S

    def setup(self):
        super().setup()
        self.rfile.close()
        self._reader = _DeadlineReader(self.connection, "rb")
        self.rfile = io.BufferedReader(self._reader)

    def handle_one_request(self):
        # one deadline for the whole request; on its TimeoutError the base
        # class closes the connection, and the gateway's body read answers
        # with a 403 first
        self._reader.deadline = time.monotonic() + self.timeout
        super().handle_one_request()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s", self.address_string(), format % args)

    def send_payload(self, status: int, body: bytes,
                     content_type: str = "application/json",
                     extra_headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_json(self, status: int, obj,
                  extra_headers: dict | None = None) -> None:
        self.send_payload(status, json.dumps(obj).encode("utf-8"),
                          extra_headers=extra_headers)


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

class ZtrvGateway(_HttpService):
    """The verification gateway service.

    All handler threads share one registry, so the exactly-one-accept
    property holds across concurrent HTTP requests.  Requests are verified
    at the time read from ``clock``, a never-backward wall clock.
    """

    def __init__(self, config: GatewayConfig, *,
                 keystore: Keystore | None = None):
        self.config = config
        self.keystore = keystore if keystore is not None \
            else Keystore.from_file(config.keystore_path)
        self.registry = NonceRegistry()
        self.clock = _WallClock()
        gateway = self

        class Handler(_JsonHandler):
            def do_POST(self):
                if self.path != "/execute":
                    self.send_json(404, {"error": "not found"})
                    return
                body = self._read_body()
                if body is None:
                    # oversized or unreadable: rejected without parsing;
                    # drop the connection rather than draining the stream
                    self.close_connection = True
                status, payload, headers = gateway.handle_execute(body)
                self.send_payload(status, payload, extra_headers=headers)

            def do_GET(self):
                if self.path == "/healthz":
                    self.send_payload(200, b"ok", content_type="text/plain")
                elif self.path == "/stats":
                    stats = gateway.registry.stats()
                    self.send_json(200, {
                        "live_count": stats.live_count,
                        "peak_count": stats.peak_count,
                        "evicted_total": stats.evicted_total,
                        "bytes_estimate": stats.bytes_estimate,
                    })
                else:
                    self.send_json(404, {"error": "not found"})

            def _read_body(self) -> bytes | None:
                if "Transfer-Encoding" in self.headers:
                    return None
                length_text = self.headers.get("Content-Length")
                if length_text is None:
                    return None
                try:
                    length = int(length_text)
                except ValueError:
                    return None
                if length < 0 or length > gateway.config.request_body_limit:
                    return None
                try:
                    return self.rfile.read(length)
                except OSError:
                    return None

        host, port = parse_listen_address(config.listen_address)
        super().__init__(host, port, Handler)

    def handle_execute(self, body: bytes | None) -> tuple[int, bytes, dict]:
        """Core /execute logic; returns (status, response body, headers).

        ``body`` is None when it could not be read.  Such a body, or one that
        does not decode to a request, reaches the verifier as None, and
        stage 1 rejects it like any other malformed request.
        """
        request = None
        if body is not None:
            try:
                request = request_from_wire(json.loads(body))
            except (ValueError, RecursionError):
                # WireFormatError and UnicodeDecodeError are ValueErrors;
                # json raises RecursionError on deeply nested input
                pass

        decision = verify(request, self.clock.now_ms(), self.config.verifier,
                          self.registry, self.keystore)
        if not decision.accepted:
            return 403, json.dumps(decision.to_wire()).encode("utf-8"), {}
        return self._forward(body, decision)

    def _forward(self, body: bytes, decision: Decision) -> tuple[int, bytes, dict]:
        upstream = urllib.request.Request(
            self.config.upstream_url, data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "X-ZTRV-Decision": "ACCEPT"})
        headers = {"X-ZTRV-Decision": "ACCEPT"}
        try:
            with urllib.request.urlopen(upstream,
                                        timeout=UPSTREAM_TIMEOUT_S) as resp:
                return resp.status, resp.read(), headers
        except urllib.error.HTTPError as exc:
            # the upstream answered; relay its status and body as-is
            return exc.code, exc.read(), headers
        except (urllib.error.URLError, OSError) as exc:
            log.warning("upstream unreachable after accept: %s", exc)
            # the nonce stays consumed: releasing it would reopen the
            # replay window; retry means issuing a fresh mandate
            payload = {"decision": decision.to_wire(),
                       "error": "upstream unreachable"}
            return 502, json.dumps(payload).encode("utf-8"), headers


# ---------------------------------------------------------------------------
# Mock merchant backend
# ---------------------------------------------------------------------------

class MerchantLedger:
    """Append-only record of fulfilled mandate ids with arrival time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: list[tuple[str, int]] = []

    def record(self, mandate_id: str, at_ms: int) -> None:
        with self._lock:
            self._entries.append((mandate_id, at_ms))

    def entries(self) -> list[tuple[str, int]]:
        with self._lock:
            return list(self._entries)

    def count(self, mandate_id: str) -> int:
        with self._lock:
            return sum(1 for mid, _ in self._entries if mid == mandate_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class MockMerchant(_HttpService):
    """Trivial upstream: acknowledges everything and writes the ledger."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.ledger = MerchantLedger()
        self.clock = _WallClock()
        merchant = self

        class Handler(_JsonHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0) or 0)
                body = self.rfile.read(length) if length > 0 else b""
                mandate_id = ""
                try:
                    obj = json.loads(body)
                    mandate_id = obj["mandate"]["mandate_id"]
                except (ValueError, KeyError, TypeError):
                    pass
                merchant.ledger.record(mandate_id, merchant.clock.now_ms())
                self.send_json(200, {"fulfilled": mandate_id})

            def do_GET(self):
                if self.path == "/ledger":
                    entries = [{"mandate_id": mid, "at_ms": at}
                               for mid, at in merchant.ledger.entries()]
                    self.send_json(200, {"entries": entries})
                else:
                    self.send_json(404, {"error": "not found"})

        super().__init__(host, port, Handler)
