"""Closed-loop HTTP/1.1 load over loopback, on raw sockets.

Each of a few threads, one per connection, sends one request, waits for
the whole response, and only then sends the next.  A request is written
with a single ``sendall``, so the client adds no write-write stall of its
own.  With ``keepalive`` each thread keeps one connection, across calls
too; without it every request opens a new connection and asks the server
to close it.
"""

from __future__ import annotations

import itertools
import re
import socket
import threading
import time

HOST = "127.0.0.1"
TIMEOUT_S = 10.0
_CONTENT_LENGTH = re.compile(rb"(?im)^content-length:[ \t]*(\d+)[ \t]*\r?$")


def frame(body: bytes, keepalive: bool) -> bytes:
    """A complete POST /execute request carrying ``body``."""
    connection = b"" if keepalive else b"Connection: close\r\n"
    return (b"POST /execute HTTP/1.1\r\nHost: " + HOST.encode() +
            b"\r\nContent-Type: application/json\r\n" + connection +
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, bytes]:
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed before the response")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = _CONTENT_LENGTH.search(head)
    if not head.startswith(b"HTTP/1.") or not head[9:12].isdigit() \
            or match is None:
        raise ConnectionError("malformed response head")
    length = int(match.group(1))
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside the response body")
        body += chunk
    return int(head[9:12]), body[:length]


def get(port: int, path: str) -> int:
    """Status of a GET on a fresh connection; 0 when it cannot connect."""
    request = (f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n"
               "Connection: close\r\n\r\n").encode()
    try:
        with socket.create_connection((HOST, port), timeout=TIMEOUT_S) as sock:
            return _exchange(sock, request)[0]
    except OSError:
        return 0


def closed_loop(port: int, requests: list[bytes], order: list[int],
                start: int, sockets: list, keepalive: bool,
                seconds: float) -> tuple[list[tuple], float]:
    """Send ``requests[order[k]]`` for k = start, start+1, ... until the time
    is up or ``order`` runs out.

    One thread runs per slot of ``sockets``.  With ``keepalive`` a slot holds
    that thread's open connection (or None) from one call to the next; the
    caller closes what is left with ``close_all``.

    Returns ``(results, elapsed_s)``; each result is ``(k, status, body,
    latency_ns)``, with status 0 for a transport error or timeout, after
    which that thread stops.  Latency runs from before the connect (fresh
    connections) or the send to the end of the response.
    """
    positions = itertools.count(start)
    limit = len(order)
    per_thread: list[list[tuple]] = [[] for _ in sockets]

    def worker(slot: int, out: list) -> None:
        clock = time.perf_counter_ns
        sock, sockets[slot] = sockets[slot], None
        try:
            while clock() < deadline:
                k = next(positions)
                if k >= limit:
                    break
                request = requests[order[k]]
                t0 = clock()
                try:
                    if sock is None:
                        sock = socket.create_connection((HOST, port),
                                                        timeout=TIMEOUT_S)
                    status, body = _exchange(sock, request)
                except OSError as exc:
                    status, body = 0, repr(exc).encode()
                latency = clock() - t0
                out.append((k, status, body, latency))
                if status == 0:
                    return  # the run has failed; do not spin on a dead server
                if not keepalive:
                    sock.close()
                    sock = None
            sockets[slot], sock = sock, None
        finally:
            if sock is not None:
                sock.close()

    threads = [threading.Thread(target=worker, args=(slot, out))
               for slot, out in enumerate(per_thread)]
    t_start = time.perf_counter_ns()
    deadline = t_start + int(seconds * 1e9)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = (time.perf_counter_ns() - t_start) / 1e9
    results = sorted(itertools.chain.from_iterable(per_thread))
    return results, elapsed


def close_all(sockets: list) -> None:
    for slot, sock in enumerate(sockets):
        if sock is not None:
            sock.close()
            sockets[slot] = None
