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
and the upstream's answer is parsed by the same reader, _Reader, under one
deadline for the whole exchange.  An upstream that cannot be reached, or whose answer
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
from dataclasses import asdict, dataclass, field
from http import HTTPStatus

from .mandate import Keystore, decode_json, request_from_wire
from .registry import NonceRegistry
from .verifier import Decision, Reason, VerifierConfig, check, decide

log = logging.getLogger("ztrv.gateway")

DEFAULT_BODY_LIMIT = 64 * 1024
UPSTREAM_TIMEOUT_S = 10.0
# the longest upstream answer body relayed; a longer one is unreadable
ANSWER_LIMIT = 1 << 20
# handler threads kept waiting in accept(); more start while connections
# hold these, so every open connection is served at once
HANDLER_THREADS = 16
# the most time a connection gets to deliver one whole request, from the
# wait for its first byte to the end of its body; it is closed after that
READ_TIMEOUT_S = 10.0
LISTEN_BACKLOG = 128
ACCEPT_RETRY_S = 0.05
SHUTDOWN_WAIT_S = 5.0
# how often serve_forever wakes to let a signal handler (Ctrl-C) run
SIGNAL_POLL_S = 0.25
# distinct request bodies whose stage 1-2 outcome the gateway remembers, and
# the longest such body; a longer one is checked afresh each time it is
# sent.  Together they keep the memo under ~2.5 MB.
MEMO_ENTRIES = 256
MEMO_BODY_LIMIT = 4096


class ConfigError(ValueError):
    """Configuration file invalid; message names the offending field."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway settings, checked on construction; ConfigError names the
    offending field."""

    listen_address: str
    upstream_url: str
    keystore_path: str
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    request_body_limit: int = DEFAULT_BODY_LIMIT

    def __post_init__(self):
        for key in ("listen_address", "upstream_url", "keystore_path"):
            value = getattr(self, key)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{key} must be a non-empty string")
        parse_listen_address(self.listen_address)
        parse_upstream_url(self.upstream_url)
        limit = self.request_body_limit
        if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
            raise ConfigError("request_body_limit must be a positive integer")


def parse_listen_address(address: str) -> tuple[str, int]:
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError("listen_address must be host:port")
    # the listener is IPv4 only
    if ":" in host or "[" in host:
        raise ConfigError("listen_address host must be an IPv4 address or "
                          "host name")
    # int() would also read "8_0", "+80", " 80" and non-ASCII digits
    if not (port_text.isascii() and port_text.isdigit()):
        raise ConfigError("listen_address port must be ASCII digits")
    port = int(port_text)
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
        with open(path, "rb") as fh:
            obj = decode_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a repeated name is a WireFormatError, and bytes that are not text
        # a UnicodeDecodeError: ValueErrors both, as JSONDecodeError is
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    # a key left out keeps VerifierConfig's default; the mode is always FULL
    try:
        verifier_config = VerifierConfig(**{
            key: _config_number(obj, key)
            for key in ("window", "skew_tolerance") if key in obj})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return GatewayConfig(
        listen_address=obj.get("listen_address"),
        upstream_url=obj.get("upstream_url"),
        keystore_path=obj.get("keystore_path"),
        verifier=verifier_config,
        request_body_limit=obj.get("request_body_limit", DEFAULT_BODY_LIMIT),
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


class _WallClock:
    """Unix milliseconds from the system clock, never decreasing.

    A step back of the system clock (an NTP adjustment) is held at the
    latest reading, so no request's freshness is judged at an earlier
    instant than an earlier request's was.  What keeps a stale mandate from
    being accepted again after its nonce was evicted is the registry's
    high-water time: a claim dated back is taken at the latest claim's
    instant and refused past the mandate's last fresh instant (see
    ``registry``).
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


class _Reader:
    """Parses the HTTP/1.x messages whose bytes are appended to ``buffer``;
    it reads no socket."""

    def __init__(self, start_line: re.Pattern):
        self.start_line = start_line
        self.buffer = bytearray()
        # the start of the line being read and of its unsearched bytes, and
        # the number of lines before it
        self.scan = (0, 0, 0)

    def head(self) -> tuple[re.Match, dict[str, str]] | None | bool:
        """``(start, fields)`` of the head at the front of ``buffer``, taken
        from it with its empty line; None until it ends, and False if it
        breaks RFC 9112's syntax or the limits above.

        Each line is checked once, as its LF arrives: it must fit the limits
        and end with CRLF, not a bare LF.  ``start`` is ``start_line``
        matched on the first line; the others must be fields.  Field names
        are lower-cased; a field sent several times has its values joined by
        ", " (RFC 9110 §5.3).  After False, nothing is taken from ``buffer``.
        """
        buffer = self.buffer
        line, searched, count = self.scan
        while True:
            newline = buffer.find(b"\n", searched)
            if newline < 0:
                # the line so far, without its LF, already fills MAX_LINE
                if len(buffer) - line >= MAX_LINE:
                    return False
                self.scan = (line, len(buffer), count)
                return None
            # no CR (13) before the LF is a bare LF
            if (newline == line or buffer[newline - 1] != 13
                    or newline + 1 - line > MAX_LINE):
                return False
            if newline == line + 1:  # the empty line
                break
            if count > MAX_HEADERS:
                return False
            count += 1
            line = searched = newline + 1
        self.scan = (0, 0, 0)
        if not count:  # the head starts with the empty line
            return False
        first, *field_lines = buffer[:line - 2].decode("latin-1").split("\r\n")
        start = self.start_line.fullmatch(first)
        if start is None:
            return False
        fields: dict[str, str] = {}
        for text in field_lines:
            field = _FIELD_LINE.fullmatch(text)
            if field is None:
                return False
            name, value = field[1].lower(), field[2].strip(" \t")
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        del buffer[:newline + 1]
        return start, fields

    def body(self, length: int) -> bytes | None:
        """The first ``length`` bytes of ``buffer``, taken from it; None
        while it holds fewer."""
        if len(self.buffer) < length:
            return None
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        return body


def _fill(conn: socket.socket, reader: _Reader, deadline: float) -> bool:
    """Append the next bytes ``conn`` delivers to ``reader.buffer``; False
    at its end.  Raises TimeoutError once ``deadline`` (monotonic) has
    passed: a timeout per read alone would let a peer that trickles a byte
    now and then hold its connection for good."""
    conn.settimeout(_remaining(deadline))
    data = conn.recv(RECV_SIZE)
    reader.buffer += data
    return bool(data)


def _read(conn: socket.socket, reader: _Reader, deadline: float, step,
          *args):
    """What ``step(*args)`` returns once it is not None, filling ``reader``
    from ``conn`` until then; None if ``conn`` ends first."""
    while (result := step(*args)) is None:
        if not _fill(conn, reader, deadline):
            return None
    return result


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
        # connections waiting for the first byte of their next request
        self._idle: set[socket.socket] = set()
        self._stopping = threading.Event()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def route(self, method: str | None, path: str | None,
              body: bytes | None) -> tuple[int, bytes, dict]:
        """``(status, body, headers)`` answering one GET or POST request.

        ``body`` is None when it could not be read, and all three are None
        for a request whose head cannot be read; either way the connection
        is closed after the answer.  The answer's Content-Type is JSON
        unless ``headers`` names another.
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
                self._serve_connection(conn, address[0])
            except (TimeoutError, ConnectionError):
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

    def _serve_connection(self, conn: socket.socket, client: str) -> None:
        """Answer the requests on ``conn`` until it is to be closed.

        Each request has READ_TIMEOUT_S from the wait for its first byte to
        the end of its body.  A head not read by then, or cut off by the
        client, closes the connection unanswered; a head that cannot be read
        is answered by ``route(None, None, None)`` and the connection is
        closed.  Bytes read past a request's body start the next request.
        """
        reader = _Reader(_REQUEST_LINE)
        while True:
            deadline = time.monotonic() + READ_TIMEOUT_S
            if not reader.buffer and not self._await_request(conn, reader,
                                                             deadline):
                return
            request = _read(conn, reader, deadline, reader.head)
            if request is None:
                return
            if not request:
                status, payload, headers = self.route(None, None, None)
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
                    body = self._read_body(conn, reader, deadline, method,
                                           fields, http11)
                    if body is None:
                        # rejected without parsing; drop the connection
                        # rather than draining the stream
                        keep_alive = False
                    status, payload, headers = self.route(method, path, body)
                else:
                    # closed after the answer: its body is not read, and
                    # a HEAD request would not expect the answer's body
                    status, payload, headers = _NOT_FOUND
                    keep_alive = False
            if log.isEnabledFor(logging.DEBUG):
                # before the answer, so that a client that has it can find
                # the line; a head that cannot be read is still in the
                # reader's buffer
                line = (reader.buffer.partition(b"\r\n")[0].decode("latin-1")
                        if not request else start.string)
                log.debug('%s "%s" %d', client, line, status)
            self._respond(conn, status, payload, headers, keep_alive)
            if not keep_alive:
                return

    def _await_request(self, conn: socket.socket, reader: _Reader,
                       deadline: float) -> bool:
        """Read the first bytes of the next request into ``reader``; False
        if ``conn`` ends first or the service is stopping.

        While it waits, ``conn`` is idle: ``shutdown`` ends its reading, so
        that no idle keep-alive connection holds a worker for READ_TIMEOUT_S.
        """
        with self._lock:
            if self._stopping.is_set():
                return False
            self._idle.add(conn)
        try:
            return _fill(conn, reader, deadline)
        finally:
            with self._lock:
                self._idle.discard(conn)

    def _read_body(self, conn: socket.socket, reader: _Reader,
                   deadline: float, method: str, fields: dict[str, str],
                   http11: bool) -> bytes | None:
        """The request body, taken from the front of ``reader``, or None.

        None means the body cannot be read: framing _framed_length cannot
        read; a Content-Length over the body limit; none on a POST; or a
        body not delivered by ``deadline``.
        """
        length = _framed_length(fields)
        if length is None or length > self._body_limit:
            return None
        if length < 0:
            return b"" if method == "GET" else None
        if (http11 and length > len(reader.buffer)
                and fields.get("expect", "").lower() == "100-continue"):
            conn.sendall(_CONTINUE)
        try:
            return _read(conn, reader, deadline, reader.body, length)
        except OSError:
            return None

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
        """Serve until shutdown() is called from another thread, or a
        signal handler raises."""
        self.start()
        # never an untimed wait: the kernel may hand SIGINT to a worker
        # thread, and then Python runs its handler only once this thread
        # wakes on its own
        while not self._stopping.wait(SIGNAL_POLL_S):
            pass

    def shutdown(self) -> None:
        """Stop accepting and wait up to SHUTDOWN_WAIT_S for the workers.

        Shutting the listener down wakes every worker blocked in accept() (on
        Linux), so an idle or never-started service stops at once.  A
        connection waiting for its next request is closed; a worker reading
        or answering a request finishes it first.
        """
        with self._lock:
            self._stopping.set()  # under the lock: no worker starts after it
            workers = list(self._workers)
            # under the lock: its worker has not closed any of these yet;
            # the worker's recv wakes with end of stream
            for conn in self._idle:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # already reset by the client
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
    ``HTTP/1.x`` and a final status, a head _Reader or _framed_length
    cannot read, a body shorter than its length, or one longer than
    ANSWER_LIMIT.  Raises TimeoutError once ``deadline`` has passed.
    """
    reader = _Reader(_STATUS_LINE)
    answer = _read(conn, reader, deadline, reader.head)
    if not answer:
        return None
    status, fields = answer
    length = _framed_length(fields)
    if length is None or length > ANSWER_LIMIT:
        return None
    if length < 0:  # the body ends where conn does, unless it is too long
        if _read(conn, reader, deadline, reader.body, ANSWER_LIMIT + 1):
            return None
        return int(status[1]), bytes(reader.buffer)
    body = _read(conn, reader, deadline, reader.body, length)
    return None if body is None else (int(status[1]), body)


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

# The 403 body of each rejecting reason, with %s for the mandate id: what
# json.dumps(decision.to_wire()) writes.  A rejected decision's mandate_id
# is "" or, past stage 1, 32 lowercase hex characters, which json.dumps
# writes as they are.
_REJECT_BODIES = {
    reason: json.dumps(Decision(reason, "%s").to_wire()).encode("utf-8")
    for reason in Reason if reason is not Reason.AUTHORIZED}


class ZtrvGateway(_HttpService):
    """The verification gateway service.

    All handler threads share one registry, so the exactly-one-accept
    property holds across concurrent HTTP requests.  Requests are verified
    at the time read from ``clock``, a never-backward wall clock.

    The gateway remembers what stages 1-2 concluded for the last
    MEMO_ENTRIES distinct bodies of at most MEMO_BODY_LIMIT bytes, so a
    resent body skips its decode and ``check``; stages 3-5 run on every
    request.  An outcome is reused only while the body's key_id names the
    key it was checked under.
    """

    def __init__(self, config: GatewayConfig, *,
                 keystore: Keystore | None = None):
        self.config = config
        self.keystore = keystore if keystore is not None \
            else Keystore.from_file(config.keystore_path)
        self.registry = NonceRegistry()
        self.clock = _WallClock()
        # body -> (request, check's answer with signature_ns 0), oldest
        # first; read without the lock, written under it
        self._memo: dict[bytes, tuple] = {}
        self._memo_lock = threading.Lock()
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

    def route(self, method: str | None, path: str | None,
              body: bytes | None) -> tuple[int, bytes, dict]:
        # an unreadable head reaches the verifier like an unreadable body
        if method is None or (method == "POST" and path == "/execute"):
            return self.handle_execute(body)
        if method == "GET" and path == "/healthz":
            return 200, b"ok", _TEXT_PLAIN
        if method == "GET" and path == "/stats":
            stats = asdict(self.registry.stats())
            return 200, json.dumps(stats).encode("utf-8"), {}
        return _NOT_FOUND

    def handle_execute(self, body: bytes | None) -> tuple[int, bytes, dict]:
        """Core /execute logic; returns (status, response body, headers).

        ``body`` is None when it could not be read.  Such a body, or one that
        does not decode to a request, reaches the verifier as None, and
        stage 1 rejects it like any other malformed request.
        """
        started_ns = time.perf_counter_ns()
        request, checked = self._check(body)
        decision = decide(request, checked, self.clock.now_ms(),
                          self.config.verifier, self.registry, started_ns)
        if not decision.accepted:
            return (403, _REJECT_BODIES[decision.reason]
                    % decision.mandate_id.encode(), {})
        return self._forward(body, decision)

    def _check(self, body: bytes | None) -> tuple:
        """``(request, check's answer)`` for ``body``: remembered, if the
        memo holds ``body`` and its key_id still names the key it was
        checked under (signature_ns is then 0), else decoded and checked."""
        keystore = self.keystore
        remember = body is not None and len(body) <= MEMO_BODY_LIMIT
        if remember:
            seen = self._memo.get(body)
            if seen is not None:
                request, (reason, public_key, _) = seen
                # a malformed body is malformed under any keystore
                if (reason is Reason.MALFORMED_REQUEST or keystore.lookup(
                        request.mandate.key_id) == public_key):
                    return seen
        request = None
        if body is not None:
            try:
                request = request_from_wire(decode_json(body))
            except (ValueError, RecursionError):
                # WireFormatError and UnicodeDecodeError are ValueErrors;
                # json raises RecursionError on deeply nested input
                pass
        checked = check(request, keystore)
        if remember:
            reason, public_key, _ = checked
            if reason is Reason.MALFORMED_REQUEST:
                request = None  # nothing of it is read again
            memo = self._memo
            with self._memo_lock:
                memo[body] = request, (reason, public_key, 0)
                if len(memo) > MEMO_ENTRIES:
                    del memo[next(iter(memo))]
        return request, checked

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

    def route(self, method: str | None, path: str | None,
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
