"""HTTP mediation layer: verify every mandate, forward only accepted ones.

The gateway sits between agents and a merchant/PSP backend.  A request is
forwarded upstream only after the full verification pipeline accepts it, so
rejection happens before any externally observable side effect.  Rejections
are always HTTP 403 carrying the Decision JSON (fail-closed: there is no 400
path).  That includes oversized or unparseable bodies, and request heads the
HTTP/1.1 reader here cannot read: it accepts only RFC 9112 syntax within the
head limits http.client applies, and a body framed by one Content-Length.
Any other request is answered with MalformedRequest and its connection
closed.

An accepted request is forwarded as one HTTP/1.0 POST on a new connection,
and the upstream's answer is read by the same reader under one deadline for
the whole exchange.  An upstream that cannot be reached, or whose answer
cannot be read, gets the agent a 502 carrying the decision; the nonce stays
consumed.  The module needs no urllib.request, http.client or email; only
a gateway with an https upstream loads ssl.

A mock merchant backend with an append-only ledger is included; the ledger
is the ground truth for "did an attack reach the payment infrastructure"
in end-to-end tests.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http import HTTPStatus

from .mandate import Keystore, request_from_wire
from .registry import NonceRegistry
from .verifier import Decision, Outcome, Reason, VerifierConfig, verify

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


# the characters a request-target may hold (_REQUEST_LINE), and so the
# characters of an upstream URL
_URL = re.compile(r"[!-~]+")


def parse_upstream_url(url: str) -> tuple[bool, str, int, bytes]:
    """``(tls, host, port, head)`` for forwarding to ``url``.

    ``tls`` is true for https.  ``head`` is the forwarded request's head up
    to the Content-Length value: an HTTP/1.0 POST to the URL's path and
    query.  Raises ConfigError unless ``url`` is an http(s) URL with a host
    whose characters all fit in a request line.
    """
    error = ConfigError("upstream_url must be an http(s) URL")
    if _URL.fullmatch(url) is None:
        raise error
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
    except ValueError:  # brackets that do not close, a port not in range
        raise error from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise error
    tls = parts.scheme == "https"
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    head = (f"POST {target} HTTP/1.0\r\n"
            f"Host: {parts.netloc.rpartition('@')[2]}\r\n"
            "Content-Type: application/json\r\n"
            "X-ZTRV-Decision: ACCEPT\r\n"
            "Content-Length: ").encode("ascii")
    return tls, parts.hostname, port or (443 if tls else 80), head


_CONFIG_KEYS = frozenset({
    "listen_address", "upstream_url", "keystore_path", "request_body_limit",
    "window", "skew_tolerance",
})


def _config_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string")
    return value


def _config_number(obj: dict, key: str) -> float:
    value = obj[key]
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
    parse_upstream_url(upstream_url)

    keystore_path = _config_str(obj, "keystore_path")

    limit = obj.get("request_body_limit", DEFAULT_BODY_LIMIT)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
        raise ConfigError("request_body_limit must be a positive integer")

    # a key left out keeps VerifierConfig's default; the mode is always FULL
    try:
        verifier_config = VerifierConfig(**{
            key: _config_number(obj, key)
            for key in ("window", "skew_tolerance") if key in obj})
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

# the head limits http.client applies: lines of at most MAX_LINE bytes, CRLF
# included, and at most MAX_HEADERS header lines after the request line
MAX_LINE = 65_536
MAX_HEADERS = 100
# bytes asked of one recv; a request that does not fit takes several
RECV_SIZE = 8192

_TOKEN = r"[-!#$%&'*+.^_`|~0-9A-Za-z]+"
# RFC 9112 §3: method SP request-target SP HTTP-version, HTTP/1.x only
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([!-~]+) HTTP/1\.([0-9])")
# RFC 9112 §4: HTTP-version SP status-code [SP reason-phrase], HTTP/1.x only.
# Only a final status, 2xx to 5xx, is taken: a 1xx answer to an HTTP/1.0
# request breaks RFC 9110 §15.2, and relayed it would read as an interim one.
_STATUS_LINE = re.compile(
    r"HTTP/1\.[0-9] ([2-5][0-9][0-9])(?: [\t\x20-\x7e\x80-\xff]*)?")
# RFC 9112 §5: field-name ":" OWS field-value OWS.  A name must touch its
# colon, so obs-fold and whitespace before the colon do not match; nor does
# a control character other than HTAB, bare CR and LF included.
_FIELD_LINE = re.compile(rf"({_TOKEN}):([\t\x20-\x7e\x80-\xff]*)")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
# RFC 9110 §5.6.7 names, in English whatever the locale
_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
                "Oct", "Nov", "Dec")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_TEXT_PLAIN = {"Content-Type": "text/plain"}
# (status, body, headers) of a request no route serves
_NOT_FOUND = (404, json.dumps({"error": "not found"}).encode("utf-8"), {})
# of a request head that cannot be read: the decision stage 1 gives an
# unreadable body
_MALFORMED = (403, json.dumps({"outcome": Outcome.REJECT.value,
                               "reason": Reason.MALFORMED_REQUEST.value,
                               "mandate_id": ""}).encode("utf-8"), {})


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


def _http_date(second: int) -> str:
    """The RFC 9110 IMF-fixdate of a Unix second, as a Date field value."""
    t = time.gmtime(second)
    return (f"{_DAY_NAMES[t.tm_wday]}, {t.tm_mday:02d} "
            f"{_MONTH_NAMES[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _parse_head(head: bytearray, start_line: re.Pattern,
                ) -> tuple[re.Match, dict[str, str]] | None:
    """``(start, fields)`` of a message head, or None.

    ``head`` ends before the empty line.  ``start`` is ``start_line``
    matched on the first line.  Field names are lower-cased; a field sent
    several times has its values joined by ", " (RFC 9110 §5.3).  None means
    the head breaks RFC 9112's syntax or the limits above.
    """
    lines = head.decode("latin-1").split("\r\n")
    if len(lines) > MAX_HEADERS + 1:
        return None
    if len(head) > MAX_LINE - 2 and any(len(line) > MAX_LINE - 2
                                        for line in lines):
        return None
    start = start_line.fullmatch(lines[0])
    if start is None:
        return None
    fields: dict[str, str] = {}
    for line in lines[1:]:
        field = _FIELD_LINE.fullmatch(line)
        if field is None:
            return None
        name, value = field[1].lower(), field[2].strip(" \t")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return start, fields


def _framed_length(fields: dict[str, str]) -> int | None:
    """The body length a head's fields state, -1 if they state none, or None.

    None means the framing cannot be read: any Transfer-Encoding, or a
    Content-Length that is not 1*DIGIT (RFC 9110 §8.6), several of them
    included.
    """
    if "transfer-encoding" in fields:
        return None
    length_text = fields.get("content-length")
    if length_text is None:
        return -1
    if not (length_text.isascii() and length_text.isdigit()):
        return None
    try:
        return int(length_text)
    except ValueError:
        return None  # more digits than int() converts


def _remaining(deadline: float) -> float:
    """Seconds left until ``deadline`` (monotonic); TimeoutError if none."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("deadline passed")
    return remaining


def _receive(conn: socket.socket, buffer: bytearray, recv_buffer: memoryview,
             deadline: float) -> int:
    """Append the next bytes ``conn`` delivers to ``buffer``; 0 at its end.

    Raises TimeoutError once ``deadline`` (monotonic) has passed.  A timeout
    per read alone would let a peer that trickles a byte now and then hold
    its connection for good.
    """
    conn.settimeout(_remaining(deadline))
    count = conn.recv_into(recv_buffer)
    buffer += recv_buffer[:count]
    return count


def _read_head(conn: socket.socket, buffer: bytearray,
               recv_buffer: memoryview, deadline: float) -> bytearray | None:
    """The message head at the front of ``buffer``, read from ``conn`` as
    needed.

    The head and the empty line that ends it are taken from ``buffer``;
    bytes after them stay there.  None means the head breaks the limits
    above, or ends its lines with a bare LF, which this reader does not
    accept; ``buffer`` then holds what was read.  Raises EOFError when
    ``conn`` ends before the head does, and TimeoutError once ``deadline``
    has passed.
    """
    end = buffer.find(b"\r\n\r\n")
    while end < 0:
        # limits on the head so far: its last line and its line count
        if (len(buffer) - buffer.rfind(b"\n") > MAX_LINE
                or buffer.count(b"\n") > MAX_HEADERS + 1
                or b"\n\n" in buffer):
            return None
        searched = max(0, len(buffer) - 3)
        if not _receive(conn, buffer, recv_buffer, deadline):
            raise EOFError("closed before the end of the head")
        end = buffer.find(b"\r\n\r\n", searched)
    head = buffer[:end]
    del buffer[:end + 4]
    return head


class _HttpService:
    """An HTTP/1.1 server whose handler threads each accept their own
    connections.

    HANDLER_THREADS workers are started up front, each blocked in
    ``accept()`` on the shared listener.  A worker serves the connection it
    gets until the client closes it or a request is not read within
    READ_TIMEOUT_S.  A worker that takes a connection while no other worker
    waits starts one more, so a new connection never waits for an open one
    to end; a worker that finishes while HANDLER_THREADS others wait exits.
    No thread is started per connection while fewer than HANDLER_THREADS
    connections are open.

    Each request is read by ``_serve_connection`` and answered by the
    subclass's ``route``.
    """

    def __init__(self, host: str, port: int, body_limit: int):
        # create_server sets SO_REUSEADDR; a burst beyond the waiting workers
        # waits in the kernel's accept queue instead of having its SYNs dropped
        self._listener = socket.create_server((host, port),
                                              backlog=LISTEN_BACKLOG)
        self.host, self.port = self._listener.getsockname()[:2]
        self._body_limit = body_limit
        self._date = (0, "")  # (unix second, its Date header value)
        self._lock = threading.Lock()
        self._workers: set[threading.Thread] = set()
        self._waiting = 0  # workers in accept() or on their way back to it
        self._stopping = threading.Event()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def route(self, method: str, path: str, fields: dict[str, str],
              body: bytes | None) -> tuple[int, bytes, dict]:
        """``(status, body, headers)`` answering one GET or POST request.

        ``fields`` are the request's header fields by lower-cased name.
        ``body`` is None when it could not be read; the connection is
        closed after the answer.  The answer's Content-Type is JSON unless
        ``headers`` names another.
        """
        raise NotImplementedError

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
        listener = self._listener
        recv_buffer = memoryview(bytearray(RECV_SIZE))
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
                self._serve_connection(conn, address[0], recv_buffer)
            except OSError:
                pass  # timed out, or the client went away: nothing to answer
            except Exception:
                log.exception("error serving a connection from %s",
                              address[0])
            finally:
                try:
                    conn.shutdown(socket.SHUT_WR)
                except OSError:
                    pass  # already reset by the client
                conn.close()
            with self._lock:
                if self._waiting >= HANDLER_THREADS:
                    self._workers.discard(threading.current_thread())
                    return
                self._waiting += 1

    def _serve_connection(self, conn: socket.socket, client: str,
                          recv_buffer: memoryview) -> None:
        """Answer the requests on ``conn`` until it is to be closed.

        Each request has READ_TIMEOUT_S from the wait for its first byte to
        the end of its body.  A head not read by then, or cut off by the
        client, closes the connection unanswered; a head that cannot be read
        gets the 403 in _MALFORMED and the connection is closed.  Bytes read
        past a request's body start the next request.
        """
        buffer = bytearray()
        while True:
            deadline = time.monotonic() + READ_TIMEOUT_S
            try:
                head = _read_head(conn, buffer, recv_buffer, deadline)
            except EOFError:
                return
            if head is None:
                head, request = buffer, None
            else:
                request = _parse_head(head, _REQUEST_LINE)
            if request is None:
                status, payload, headers = _MALFORMED
                keep_alive = False
            else:
                start, fields = request
                method, path, minor_version = start.groups()
                http11 = minor_version != "0"
                keep_alive = http11
                connection = fields.get("connection")
                if connection is not None:
                    options = {option.strip()
                               for option in connection.lower().split(",")}
                    if "close" in options:
                        keep_alive = False
                    elif "keep-alive" in options:
                        keep_alive = True
                if method == "GET" or method == "POST":
                    body = self._read_body(conn, buffer, recv_buffer, deadline,
                                           method, fields, http11)
                    if body is None:
                        # rejected without parsing; drop the connection
                        # rather than draining the stream
                        keep_alive = False
                    status, payload, headers = self.route(method, path,
                                                          fields, body)
                else:
                    # closed after the answer: its body is not read, and
                    # a HEAD request would not expect the answer's body
                    status, payload, headers = _NOT_FOUND
                    keep_alive = False
            if log.isEnabledFor(logging.DEBUG):
                # before the answer, so that a client that has it can find
                # the line
                line = head.partition(b"\r\n")[0].decode("latin-1")
                log.debug('%s "%s" %d', client, line, status)
            self._respond(conn, status, payload, headers, keep_alive)
            if not keep_alive:
                return

    def _read_body(self, conn: socket.socket, buffer: bytearray,
                   recv_buffer: memoryview, deadline: float, method: str,
                   fields: dict[str, str], http11: bool) -> bytes | None:
        """The request body, taken from the front of ``buffer``, or None.

        None means the body cannot be read: framing _framed_length cannot
        read; a Content-Length over the body limit; none on a POST; or a
        body not delivered by ``deadline``.
        """
        length = _framed_length(fields)
        if length is None or length > self._body_limit:
            return None
        if length < 0:
            return b"" if method == "GET" else None
        if (http11 and length > len(buffer)
                and fields.get("expect", "").lower() == "100-continue"):
            conn.sendall(_CONTINUE)
        try:
            while len(buffer) < length:
                if not _receive(conn, buffer, recv_buffer, deadline):
                    return None
        except OSError:
            return None
        body = bytes(buffer[:length])
        del buffer[:length]
        return body

    def _respond(self, conn: socket.socket, status: int, body: bytes,
                 headers: dict, keep_alive: bool) -> None:
        second = int(time.time())
        if self._date[0] != second:
            self._date = (second, _http_date(second))
        lines = [f"HTTP/1.1 {status} {_PHRASES.get(status, '')}",
                 f"Date: {self._date[1]}",
                 f"Content-Length: {len(body)}"]
        if "Content-Type" not in headers:
            lines.append("Content-Type: application/json")
        lines += [f"{name}: {value}" for name, value in headers.items()]
        if not keep_alive:
            lines.append("Connection: close")
        lines.append("\r\n")
        # the head and the body in two sends; see README "Serving model"
        conn.sendall("\r\n".join(lines).encode("latin-1"))
        conn.sendall(body)

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
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down and closed
        self._listener.close()
        deadline = time.monotonic() + SHUTDOWN_WAIT_S
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown()


def _read_answer(conn: socket.socket, deadline: float,
                 ) -> tuple[int, bytes] | None:
    """``(status, body)`` of the answer to a request sent on ``conn``.

    The request was HTTP/1.0, so the answer is not chunked (RFC 9112 §6.1):
    its body ends after its one Content-Length, or where ``conn`` ends.
    None means the answer cannot be read: a status line other than
    ``HTTP/1.x`` and a final status, a head _parse_head or _framed_length
    cannot read, or a body shorter than its length.  Raises TimeoutError
    once ``deadline`` has passed.
    """
    buffer = bytearray()
    recv_buffer = memoryview(bytearray(RECV_SIZE))
    try:
        head = _read_head(conn, buffer, recv_buffer, deadline)
    except EOFError:
        return None
    answer = None if head is None else _parse_head(head, _STATUS_LINE)
    if answer is None:
        return None
    status, fields = answer
    length = _framed_length(fields)
    if length is None:
        return None
    if length < 0:
        while _receive(conn, buffer, recv_buffer, deadline):
            pass
    else:
        while len(buffer) < length:
            if not _receive(conn, buffer, recv_buffer, deadline):
                return None
        del buffer[length:]
    return int(status[1]), bytes(buffer)


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
        tls, upstream_host, upstream_port, self._forward_head = \
            parse_upstream_url(config.upstream_url)
        self._upstream = (upstream_host, upstream_port)
        self._tls = None
        if tls:
            # only a gateway with an https upstream loads OpenSSL; one
            # verifying context serves every forward
            import ssl
            self._tls = ssl.create_default_context()
        host, port = parse_listen_address(config.listen_address)
        super().__init__(host, port, config.request_body_limit)

    def route(self, method: str, path: str, fields: dict[str, str],
              body: bytes | None) -> tuple[int, bytes, dict]:
        if method == "POST":
            if path == "/execute":
                return self.handle_execute(body)
        elif path == "/healthz":
            return 200, b"ok", _TEXT_PLAIN
        elif path == "/stats":
            stats = self.registry.stats()
            return 200, json.dumps({
                "live_count": stats.live_count,
                "peak_count": stats.peak_count,
                "evicted_total": stats.evicted_total,
                "bytes_estimate": stats.bytes_estimate,
            }).encode("utf-8"), {}
        return _NOT_FOUND

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
        """Post ``body`` upstream and relay the answer's status and body.

        The whole exchange, from connecting to the end of the answer, has
        UPSTREAM_TIMEOUT_S.  An upstream that cannot be reached in time, or
        whose answer _read_answer cannot read, gets 502 with the decision.
        """
        deadline = time.monotonic() + UPSTREAM_TIMEOUT_S
        headers = {"X-ZTRV-Decision": "ACCEPT"}
        try:
            with self._connect(deadline) as conn:
                conn.settimeout(_remaining(deadline))
                # the head and the body in one send
                conn.sendall(self._forward_head + b"%d\r\n\r\n" % len(body)
                             + body)
                answer = _read_answer(conn, deadline)
        except OSError as exc:
            log.warning("upstream unreachable after accept: %s", exc)
            error = "upstream unreachable"
        else:
            if answer is not None:
                return answer[0], answer[1], headers
            log.warning("upstream answer unreadable after accept")
            error = "upstream answer unreadable"
        # the nonce stays consumed: releasing it would reopen the replay
        # window; retry means issuing a fresh mandate
        payload = {"decision": decision.to_wire(), "error": error}
        return 502, json.dumps(payload).encode("utf-8"), headers

    def _connect(self, deadline: float) -> socket.socket:
        """A new connection to the upstream, TLS-wrapped for https."""
        conn = socket.create_connection(self._upstream,
                                        timeout=_remaining(deadline))
        if self._tls is None:
            return conn
        try:
            conn.settimeout(_remaining(deadline))
            return self._tls.wrap_socket(conn,
                                         server_hostname=self._upstream[0])
        except BaseException:
            conn.close()  # wrap_socket closes what it has taken over
            raise


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
    """Trivial upstream: acknowledges every POST and writes the ledger."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.ledger = MerchantLedger()
        self.clock = _WallClock()
        super().__init__(host, port, DEFAULT_BODY_LIMIT)

    def route(self, method: str, path: str, fields: dict[str, str],
              body: bytes | None) -> tuple[int, bytes, dict]:
        if method == "POST":
            mandate_id = ""
            try:
                mandate_id = json.loads(body)["mandate"]["mandate_id"]
            except (ValueError, KeyError, TypeError):
                pass  # an unreadable body (None) is a TypeError
            self.ledger.record(mandate_id, self.clock.now_ms())
            payload = {"fulfilled": mandate_id}
            return 200, json.dumps(payload).encode("utf-8"), {}
        if path == "/ledger":
            entries = [{"mandate_id": mid, "at_ms": at}
                       for mid, at in self.ledger.entries()]
            return 200, json.dumps({"entries": entries}).encode("utf-8"), {}
        return _NOT_FOUND
