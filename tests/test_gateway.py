import base64
import calendar
import dataclasses
import email.utils
import errno
import http.client
import json
import logging
import random
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztrv import (
    ConfigError,
    Decision,
    ExecutionContext,
    GatewayConfig,
    IssuerKey,
    Keystore,
    Mandate,
    Mode,
    MockMerchant,
    NonceRegistry,
    PaymentPayload,
    Reason,
    VerificationRequest,
    VerifierConfig,
    ZtrvGateway,
    issue_mandate,
    load_config,
    request_from_wire,
    request_to_wire,
    verify,
)
from ztrv import gateway as gateway_module
from ztrv import mandate as mandate_module
from ztrv.gateway import (HANDLER_THREADS, MAX_HEADERS, MAX_LINE,
                          MEMO_BODY_LIMIT, MEMO_ENTRIES, parse_listen_address)
from ztrv.mandate import decode_json, request_problem
from ztrv.registry import PER_ENTRY_BYTES

from conftest import T0


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


@pytest.mark.parametrize("key, value", [
    ("request_body_limit", 0),
    ("request_body_limit", -5),
    ("request_body_limit", True),
    ("request_body_limit", 1.5),
    ("keystore_path", None),
    ("keystore_path", ""),
    ("listen_address", "nocolon"),
    ("listen_address", "[::1]:8080"),  # the listener is IPv4 only
    ("listen_address", "::1:8080"),
    ("upstream_url", "ftp://nope"),
])
def test_gateway_config_validates_on_construction(key, value):
    # the same checks as load_config, for a config built in Python
    fields = {"listen_address": "127.0.0.1:0",
              "upstream_url": "http://127.0.0.1:9/x",
              "keystore_path": "ks.json", key: value}
    with pytest.raises(ConfigError, match=key):
        GatewayConfig(**fields)


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


def test_load_config_refuses_a_repeated_name(tmp_path):
    # json would keep the second window and drop the first without a word
    path = _write_config(tmp_path, window=5)
    path.write_text(path.read_text().replace('"window"',
                                             '"window": 600, "window"'))
    with pytest.raises(ConfigError, match="repeated name 'window'"):
        load_config(path)
    for text in (b'{"a": {"b": 1, "b": 2}}', b"\xff{}", b"[" * 100_000):
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def test_parse_listen_address():
    assert parse_listen_address("0.0.0.0:8080") == ("0.0.0.0", 8080)
    # int() reads each of the last five as 80
    for bad in ("nope", ":80", "h:port", "h:70000", "127.0.0.1:8_0",
                "h:+80", "h: 80", "h:80 ", "h:\u0668\u0660"):
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


@pytest.mark.parametrize("kind, statuses, reason", [
    ("replay", [200, 403, 403, 403, 403], "ReplayDetected"),
    ("bad-signature", [403, 403], "InvalidSignature"),
])
def test_resends_ask_the_engine_once(merchant, issuer, make_request,
                                     monkeypatch, kind, statuses, reason):
    asked = []
    engine_verify = mandate_module.ENGINE.verify

    def counting_verify(*args):
        asked.append(args)
        return engine_verify(*args)

    monkeypatch.setattr(mandate_module.ENGINE, "verify", counting_verify)
    # a gateway of its own, whose request memo alone keeps the resends off
    # the engine
    with _gateway_to(f"{merchant.base_url}/fulfill",
                     Keystore.for_issuers(issuer)) as gw:
        request = make_request(now=gw.clock.now_ms())
        if kind == "bad-signature":
            request = _flip_bit(request)
        answers = [_post_request(gw.base_url, request) for _ in statuses]
    assert [status for status, _, _ in answers] == statuses
    assert all(json.loads(body)["reason"] == reason
               for status, body, _ in answers if status == 403)
    assert len(asked) == 1
    assert merchant.ledger.count(request.mandate.mandate_id) == (
        kind == "replay")


@pytest.mark.parametrize("fault", [OSError, MemoryError, RuntimeError])
def test_a_failing_ed25519_call_fails_closed(merchant, issuer, make_request,
                                             monkeypatch, fault):
    def failing_verify(*args):
        raise fault("Ed25519 call failed")

    with _gateway_to(f"{merchant.base_url}/fulfill",
                     Keystore.for_issuers(issuer)) as gw:
        request = make_request(now=gw.clock.now_ms())
        body = _body(request)
        with monkeypatch.context() as patch:
            patch.setattr(mandate_module.ENGINE, "verify", failing_verify)
            answers = _exchange(gw, b"POST /execute HTTP/1.1\r\n"
                                b"Connection: close\r\nContent-Length: %d"
                                b"\r\n\r\n%s" % (len(body), body))
        # refused, or closed unanswered; never accepted, never remembered
        assert [status for status, _, _ in answers] in ([], [403], [502])
        assert len(merchant.ledger) == 0
        assert body not in gw._memo
        # the same body, once the engine answers, is decided afresh
        assert [_post(f"{gw.base_url}/execute", body)[0]
                for _ in range(2)] == [200, 403]
        assert merchant.ledger.count(request.mandate.mandate_id) == 1
        # and no handler thread was lost
        assert _post_request(gw.base_url,
                             make_request(now=gw.clock.now_ms()))[0] == 200


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


@pytest.mark.parametrize("member, decoy", [
    ("", '"mandate": null'), ('"mandate": ', '"nonce": "decoy"'),
    ('"payload": ', '"amount": 1'), ('"context": ', '"scope": "/decoy"'),
], ids=["request", "mandate", "payload", "context"])
def test_repeated_json_name_is_malformed(gateway, merchant, make_request,
                                         member, decoy):
    # the signed value comes last, where json.loads would keep it; an
    # upstream keeping the first would read the decoy
    body = json.dumps(request_to_wire(make_request(
        now=gateway.clock.now_ms())))
    at = body.index(member + "{") + len(member) + 1
    body = body[:at] + decoy + ", " + body[at:]
    status, payload, _ = _post(f"{gateway.base_url}/execute", body.encode())
    assert status == 403
    assert json.loads(payload) == {"outcome": "REJECT",
                                   "reason": "MalformedRequest",
                                   "mandate_id": ""}
    assert len(merchant.ledger) == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children)
                      | st.dictionaries(st.text(), children)),
    max_leaves=20)

_JSON_ENCODINGS = ("utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
                   "utf-32", "utf-32-le", "utf-32-be")
# lone surrogates included, which JSON text may carry raw or escaped
_any_text = st.text(st.characters()
                    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))


def _outcome(decode, body):
    """What ``decode(body)`` gives: its value's repr (NaN compares equal
    that way), or the class of the exception it raises."""
    try:
        return repr(decode(body))
    except Exception as exc:  # RecursionError is not a ValueError
        return type(exc)


def _repeated_name(name, first, second, in_array):
    obj = "{%s: %s, %s: %s}" % (json.dumps(name), json.dumps(first),
                                json.dumps(name), json.dumps(second))
    return (f"[{obj}]" if in_array else obj).encode()


@settings(deadline=None)
@given(body=st.one_of(
    st.binary(),
    # any JSON document, in each encoding json.loads detects, BOM or not
    st.builds(lambda doc, encoding: json.dumps(doc).encode(encoding),
              _json_values, st.sampled_from(_JSON_ENCODINGS)),
    # lone surrogates, escaped or written raw as surrogatepass reads them
    st.builds(lambda text, ascii, encoding: json.dumps(
                  text, ensure_ascii=ascii).encode(encoding, "surrogatepass"),
              _any_text, st.booleans(),
              st.sampled_from(("utf-8", "utf-16-le", "utf-32-be"))),
    st.builds(_repeated_name, st.text(max_size=3), _json_values,
              _json_values, st.booleans()),
    # nesting from well inside the recursion limit to well past it
    st.builds(lambda depth, opener: (opener * depth).encode(),
              st.integers(1, 3_000), st.sampled_from(('[', '{"a":'))),
))
def test_shared_decoder_decodes_as_json_loads(body):
    assert (_outcome(mandate_module.decode_json, body)
            == _outcome(lambda b: json.loads(
                b, object_pairs_hook=mandate_module._unique_names), body))


# The path from body bytes to a checked request as it was before the wire
# format moved into mandate, kept as the oracle of the test below: a
# repeated-name hook raising ValueError, a set of names built per object,
# a decoder per object and stage 1 by regex.

def _oracle_unique_names(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated name in a JSON object")
    return obj


def _oracle_require_keys(obj, expected):
    if not isinstance(obj, dict) or set(obj) != set(expected):
        raise ValueError("wrong names")
    return obj


def _oracle_request(body):
    text = body.decode(json.detect_encoding(body), "surrogatepass")
    obj = json.loads(text, object_pairs_hook=_oracle_unique_names)
    obj = _oracle_require_keys(obj, ("mandate", "context"))
    mandate = _oracle_require_keys(obj["mandate"], (
        "mandate_id", "nonce", "issued_at", "context_hash", "payload",
        "key_id", "signature"))
    payload = _oracle_require_keys(mandate["payload"], ("amount", "currency"))
    try:
        signature = base64.b64decode(mandate["signature"], validate=True)
    except (ValueError, TypeError) as exc:
        raise ValueError("bad base64") from exc
    context = _oracle_require_keys(obj["context"], (
        "task_id", "agent_id", "merchant_id", "scope"))
    return VerificationRequest(
        Mandate(mandate["mandate_id"], mandate["nonce"], mandate["issued_at"],
                mandate["context_hash"],
                PaymentPayload(payload["amount"], payload["currency"]),
                mandate["key_id"], signature),
        ExecutionContext(**context))


def _utf8(value):
    try:
        value.encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


_HEX32, _HEX64, _CURRENCY = (re.compile(p).fullmatch for p in (
    r"[0-9a-f]{32}", r"[0-9a-f]{64}", r"[A-Z]{3}"))


def _oracle_shaped(request):
    m, c = request.mandate, request.context

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    def text(v):
        return isinstance(v, str) and v and _utf8(v)

    return (isinstance(m.mandate_id, str) and _HEX32(m.mandate_id)
            and isinstance(m.nonce, str) and _HEX32(m.nonce)
            and count(m.issued_at)
            and isinstance(m.context_hash, str) and _HEX64(m.context_hash)
            and count(m.payload.amount)
            and isinstance(m.payload.currency, str)
            and _CURRENCY(m.payload.currency)
            and text(m.key_id) and len(m.signature) == 64
            and all(text(getattr(c, name)) for name in (
                "task_id", "agent_id", "merchant_id", "scope")))


def _checked(read, shaped, body):
    """``repr`` of the request ``read(body)`` gives (NaN compares equal that
    way) if ``shaped`` passes it, else "reject"."""
    try:
        request = read(body)
    except (ValueError, RecursionError):
        return "reject"
    return repr(request) if shaped(request) else "reject"


class _Object(list):
    """A JSON object as its (name, value) members, which may repeat a name."""


def _members(value):
    if isinstance(value, dict):
        return _Object((name, _members(v)) for name, v in value.items())
    return value


def _dumps(value):
    if isinstance(value, _Object):
        return "{%s}" % ", ".join(f"{json.dumps(name)}: {_dumps(v)}"
                                  for name, v in value)
    return json.dumps(value)


_WIRE = request_to_wire(VerificationRequest(
    issue_mandate(IssuerKey.from_seed("k", bytes(32)),
                  ExecutionContext("t", "a", "m", "s"),
                  PaymentPayload(4999, "USD"), now=T0,
                  rng=random.Random(18)),
    ExecutionContext("t", "a", "m", "s")))
_WIRE_NAMES = sorted({name for obj in (_WIRE, _WIRE["mandate"],
                                       _WIRE["mandate"]["payload"],
                                       _WIRE["context"]) for name in obj})
# strings where a regex and str methods could part ways
_TRICKY = st.sampled_from([
    "ＵＳＤ", "ÄBC", "ǅAB", "usd", "US", "USD\n", "\ud800SD",
    "０" * 32, "٠" * 32, "ABCDEF" * 5 + "00", "0" * 31 + "\n", "0" * 32 + "\n",
    "a" * 64, "A" * 64, "\udfff" * 32, "", "0" * 32])


def _objects(value):
    """Every object in ``value``, outermost first."""
    if isinstance(value, _Object):
        yield value
        for _, member in value:
            yield from _objects(member)
    elif isinstance(value, list):
        for item in value:
            yield from _objects(item)


@st.composite
def _mutated_request(draw):
    """A valid request body with one to three members of its objects
    dropped, added, renamed, repeated, retyped or swapped for a
    wire-shaped object from elsewhere."""
    body = _members(_WIRE)
    names = st.sampled_from(_WIRE_NAMES) | st.text(max_size=4)
    values = _json_values | _TRICKY | st.integers(0, 3).map(
        lambda i: list(_objects(_members(_WIRE)))[i])
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(list(_objects(body))))
        at = draw(st.integers(0, max(0, len(obj) - 1)))
        # retyping keeps the shape, so most of these reach stage 1
        kind = draw(st.sampled_from(
            ["drop", "add", "rename", "repeat"] + ["retype"] * 4))
        if kind == "add" or not obj:
            obj.insert(at, (draw(names), draw(values)))
        elif kind == "drop":
            del obj[at]
        elif kind == "rename":
            obj[at] = (draw(names), obj[at][1])
        elif kind == "repeat":
            obj.insert(draw(st.integers(0, len(obj))),
                       (obj[at][0], draw(values | st.just(obj[at][1]))))
        else:
            obj[at] = (obj[at][0], draw(values))
    return _dumps(body).encode()


def _body_with(part, name, value):
    wire = json.loads(json.dumps(_WIRE))
    {"mandate": wire["mandate"], "payload": wire["mandate"]["payload"],
     "context": wire["context"]}[part][name] = value
    return json.dumps(wire).encode()


@settings(deadline=None, max_examples=300)
@given(body=st.binary() | _mutated_request())
@example(body=_body_with("payload", "currency", "ＵＳＤ"))
@example(body=_body_with("payload", "currency", "ÄBC"))
@example(body=_body_with("payload", "currency", "ǅAB"))
@example(body=_body_with("payload", "currency", "USD\n"))
@example(body=_body_with("payload", "currency", "uSD"))
@example(body=_body_with("payload", "currency", "US1"))
@example(body=_body_with("mandate", "mandate_id", "０" * 32))
@example(body=_body_with("mandate", "nonce", "٠" * 32))
@example(body=_body_with("mandate", "nonce", "0123456789ABCDEF" * 2))
@example(body=_body_with("mandate", "context_hash", "A" * 64))
@example(body=_body_with("mandate", "mandate_id", "0" * 31 + "\n"))
@example(body=_body_with("mandate", "context_hash", "0" * 32))
@example(body=_body_with("mandate", "mandate_id", 7))
@example(body=_body_with("mandate", "nonce", "\ud800" * 32))
@example(body=_body_with("mandate", "key_id", "\udc80"))
@example(body=_body_with("context", "scope", "\ud800"))
@example(body=_dumps(_members(_WIRE)).encode())
def test_wire_path_decides_as_before(body):
    assert (_checked(lambda b: request_from_wire(
                mandate_module.decode_json(b)),
                lambda r: request_problem(r) is None, body)
            == _checked(_oracle_request, _oracle_shaped, body))


@settings(deadline=None)
@given(body=st.binary() | _json_values.map(lambda v: json.dumps(v).encode()))
def test_any_body_that_is_not_a_request_is_malformed(idle_gateway, body):
    status, payload, headers = idle_gateway.handle_execute(body)
    assert (status, headers) == (403, {})
    assert json.loads(payload)["reason"] == "MalformedRequest"


@pytest.mark.parametrize("reason", [r for r in Reason
                                    if r is not Reason.AUTHORIZED])
@pytest.mark.parametrize("mandate_id", ["", "0123456789abcdef" * 2])
def test_reject_body_is_the_decisions_json(reason, mandate_id):
    decision = Decision(reason, mandate_id)
    assert (gateway_module._REJECT_BODIES[reason] % mandate_id.encode()
            == json.dumps(decision.to_wire()).encode())


def _rewrite(request, **changes):
    return dataclasses.replace(request, mandate=dataclasses.replace(
        request.mandate, **changes))


def _recontext(request, **changes):
    return dataclasses.replace(request, context=dataclasses.replace(
        request.context, **changes))


def _flip_bit(request):
    signature = bytearray(request.mandate.signature)
    signature[5] ^= 0x10
    return _rewrite(request, signature=bytes(signature))


# the attack kinds of the replay storm, each as a rewrite of a valid request
# and the reason it is rejected with; the mandate id is the request's own
_STORM_KINDS = {
    "cross-context": (lambda r: _recontext(r, merchant_id="m-other"),
                      "ContextMismatch"),
    "scope-redirect": (lambda r: _recontext(r, scope="/admin/refund"),
                       "ContextMismatch"),
    "bad-signature": (_flip_bit, "InvalidSignature"),
    "unknown-key": (lambda r: _rewrite(r, key_id="rogue-issuer"),
                    "InvalidSignature"),
}


@pytest.mark.parametrize("kind", ["replay", "stale", "unparseable",
                                  *_STORM_KINDS])
def test_storm_rejects_answer_the_decisions_json(gateway, merchant,
                                                 make_request, kind):
    now = gateway.clock.now_ms()
    request = make_request(now=T0 if kind == "stale" else now)
    body = json.dumps(request_to_wire(request)).encode()
    mandate_id = request.mandate.mandate_id
    if kind == "replay":
        assert _post(f"{gateway.base_url}/execute", body)[0] == 200
        reason = "ReplayDetected"
    elif kind == "stale":
        reason = "MandateExpired"
    elif kind == "unparseable":
        body, reason, mandate_id = body[:-7], "MalformedRequest", ""
    else:
        rewrite, reason = _STORM_KINDS[kind]
        body = json.dumps(request_to_wire(rewrite(request))).encode()
    status, payload, _ = _post(f"{gateway.base_url}/execute", body)
    assert status == 403
    assert payload == json.dumps(
        Decision(Reason(reason), mandate_id).to_wire()).encode()
    assert len(merchant.ledger) == (kind == "replay")


def test_serving_builds_no_json_decoder(gateway, merchant, make_request,
                                        monkeypatch):
    inits = []
    init = json.JSONDecoder.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "__init__", counting_init)
    now = gateway.clock.now_ms()
    statuses = []
    for _ in range(50):  # each accepted, then replayed
        body = json.dumps(request_to_wire(make_request(now=now))).encode()
        statuses += [_post(f"{gateway.base_url}/execute", body)[0]
                     for _ in range(2)]
    assert statuses == [200, 403] * 50
    assert inits == []


# ---------------------------------------------------------------------------
# the request memo: what stages 1-2 concluded, remembered per body
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self, now: int):
        self.now = now

    def now_ms(self) -> int:
        return self.now


def _memo_gateway(keystore, now: int) -> ZtrvGateway:
    """An unstarted gateway on a settable clock whose forward answers 200
    with the body it was given."""
    gw = ZtrvGateway(_idle_config(), keystore=keystore)
    gw.clock = _Clock(now)
    gw._forward = lambda body, decision: (200, b"forwarded " + body, {})
    return gw


def _body(request: VerificationRequest) -> bytes:
    return json.dumps(request_to_wire(request)).encode()


def _twin_answer(body, now, registry, keystore) -> tuple[int, bytes]:
    """What the gateway must answer for ``body``: ``verify`` on a freshly
    decoded request, against a registry of its own."""
    try:
        request = request_from_wire(decode_json(body))
    except (ValueError, RecursionError):
        request = None
    decision = verify(request, now, VerifierConfig(), registry, keystore)
    if decision.accepted:
        return 200, b"forwarded " + body
    return 403, json.dumps(decision.to_wire()).encode()


_LATE = IssuerKey.generate("late-issuer", rng=random.Random(0x1A7E))
_SEND_KINDS = ("fresh", "resend", "other-context", "re-encoded", "bit-flip",
               "unknown-key", "garbage", "oversized")
_GARBAGE = (b'{"mandate": ', b'{"mandate": {}, "context": {}}')


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.one_of(
    st.tuples(st.sampled_from(_SEND_KINDS), st.integers(0, 1)),
    st.tuples(st.just("add-key"), st.sampled_from([_LATE.key_id,
                                                   "test-issuer"])),
    st.tuples(st.just("tick"), st.sampled_from([1, 61_001]))),
    max_size=30))
@example(steps=[("unknown-key", 0), ("add-key", _LATE.key_id),
                ("unknown-key", 0), ("unknown-key", 0)])
@example(steps=[("resend", 0), ("add-key", "test-issuer"), ("resend", 0),
                ("bit-flip", 1), ("tick", 61_001), ("resend", 1)])
@example(steps=[("other-context", 0), ("re-encoded", 0), ("resend", 0),
                ("re-encoded", 0), ("other-context", 0)])
def test_memoized_answers_equal_verify_on_a_fresh_decode(issuer, steps):
    # sends from a small pool, resent as they were, under another context or
    # in other JSON bytes, interleaved with a key added (or rebound) and with
    # the clock stepped past the window: each answer is the one verify
    # gives on the same bytes, decoded afresh
    keystore = Keystore.for_issuers(issuer)
    rng = random.Random(21)
    now = T0

    def issue(key, **context):
        ctx = ExecutionContext(task_id=f"task-{rng.random()}", agent_id="a1",
                               merchant_id="m1", scope="/checkout/confirm")
        ctx = dataclasses.replace(ctx, **context)
        return VerificationRequest(issue_mandate(
            key, ctx, PaymentPayload(100, "USD"), now=now, rng=rng), ctx)

    pool = [issue(issuer) for _ in range(2)]
    bodies = {
        "resend": [_body(r) for r in pool],
        "other-context": [_body(VerificationRequest(
            r.mandate, dataclasses.replace(r.context, merchant_id="m2")))
            for r in pool],
        # other whitespace, and members in another order
        "re-encoded": [json.dumps(request_to_wire(r), indent=1,
                                  sort_keys=True).encode() for r in pool],
        "bit-flip": [_body(_flip_bit(r)) for r in pool],
        "unknown-key": [_body(issue(_LATE)) for _ in range(2)],
        "garbage": _GARBAGE,
        "oversized": [_body(issue(issuer, scope="/s" * MEMO_BODY_LIMIT))
                      for _ in range(2)],
    }
    twin = NonceRegistry()
    gw = _memo_gateway(keystore, now)
    try:
        for kind, arg in steps:
            if kind == "add-key":
                keystore.add(arg, _LATE.public_key)
                continue
            if kind == "tick":
                now = gw.clock.now = now + arg
                continue
            body = (_body(issue(issuer)) if kind == "fresh"
                    else bodies[kind][arg])
            status, payload, _ = gw.handle_execute(body)
            assert (status, payload) == _twin_answer(body, now, twin,
                                                     keystore), kind
        assert all(len(body) <= MEMO_BODY_LIMIT for body in gw._memo)
    finally:
        gw.shutdown()


def test_resent_body_is_decoded_once_while_its_key_stands(issuer,
                                                          make_request,
                                                          monkeypatch):
    decoded = []
    from_wire = gateway_module.request_from_wire
    monkeypatch.setattr(gateway_module, "request_from_wire",
                        lambda obj: decoded.append(obj) or from_wire(obj))
    keystore = Keystore.for_issuers(issuer)
    request = make_request()
    gw = _memo_gateway(keystore, T0)
    try:
        body = _body(request)
        statuses = [gw.handle_execute(body)[0] for _ in range(3)]
        assert statuses == [200, 403, 403]
        assert len(decoded) == 1
        # key_id now names another key: the outcome is not reused
        keystore.add(issuer.key_id, _LATE.public_key)
        status, payload, _ = gw.handle_execute(body)
        assert (status, json.loads(payload)["reason"]) == (
            403, "InvalidSignature")
        assert len(decoded) == 2
        gw.handle_execute(body)
        assert len(decoded) == 2
    finally:
        gw.shutdown()


def test_memo_holds_at_most_its_bound_and_no_long_body(issuer, keystore,
                                                       make_request):
    long_body = _body(make_request(context=ExecutionContext(
        "t", "a", "m", "/s" * MEMO_BODY_LIMIT)))
    assert len(long_body) > MEMO_BODY_LIMIT
    gw = _memo_gateway(keystore, T0)
    try:
        bodies = [b'{"n": %d}' % i for i in range(MEMO_ENTRIES + 40)]
        for body in bodies:
            for sent in (body, long_body):
                assert gw.handle_execute(sent)[0] in (200, 403)
                assert len(gw._memo) <= MEMO_ENTRIES
                assert long_body not in gw._memo
        # the oldest bodies made room for the newest
        assert list(gw._memo) == bodies[-MEMO_ENTRIES:]
    finally:
        gw.shutdown()


def test_memo_answers_right_under_racing_threads(issuer, keystore,
                                                 make_request):
    # more distinct bodies than the memo holds, each sent by every thread,
    # on more threads than cores: each mandate is accepted exactly once,
    # every other send is a replay, and the memo stays within its bound
    bodies = [_body(make_request()) for _ in range(MEMO_ENTRIES + 44)]
    gw = _memo_gateway(keystore, T0 + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = [pool.submit(lambda k: [gw.handle_execute(body)[:2] for
                                           body in bodies[k:] + bodies[:k]], k)
                    for k in range(0, 80, 10)]
            answers = [a for run in runs for a in run.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
        gw.shutdown()
    accepted = sorted(payload for status, payload in answers if status == 200)
    assert accepted == sorted(b"forwarded " + body for body in bodies)
    assert all(json.loads(payload)["reason"] == "ReplayDetected"
               for status, payload in answers if status != 200)
    assert len(gw._memo) <= MEMO_ENTRIES


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


def _assert_502_and_nonce_burnt(gw, request) -> str:
    """Post ``request``, expecting a 502; return its error."""
    status, body, headers = _post_request(gw.base_url, request)
    assert status == 502
    assert headers.get("X-ZTRV-Decision") == "ACCEPT"
    answer = json.loads(body)
    assert answer["decision"]["outcome"] == "ACCEPT"
    assert answer["decision"]["mandate_id"] == request.mandate.mandate_id
    status, body, _ = _post_request(gw.base_url, request)
    assert status == 403
    assert json.loads(body)["reason"] == "ReplayDetected"
    return answer["error"]


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


@pytest.mark.parametrize("make_head", [
    lambda size: b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % size,
    # no Content-Length: the body ends where the connection does
    lambda size: b"HTTP/1.0 200 OK\r\n\r\n",
], ids=["content-length", "until-close"])
def test_upstream_answer_over_the_limit_yields_502(keystore, make_request,
                                                   fake_upstream, monkeypatch,
                                                   make_head):
    monkeypatch.setattr(gateway_module, "ANSWER_LIMIT", 64)
    upstream = fake_upstream(make_head(64) + b"x" * 64)
    with _gateway_to(upstream.url, keystore) as gw:
        status, body, _ = _post_request(gw.base_url,
                                        make_request(now=gw.clock.now_ms()))
    assert (status, body) == (200, b"x" * 64)
    upstream = fake_upstream(make_head(65) + b"x" * 65)
    with _gateway_to(upstream.url, keystore) as gw:
        error = _assert_502_and_nonce_burnt(
            gw, make_request(now=gw.clock.now_ms()))
    assert error == "upstream answer unreadable"


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


def _stop_in_background(service) -> threading.Thread:
    # in a daemon thread, so a shutdown that hangs fails the test and not
    # the whole run
    stopper = threading.Thread(target=service.shutdown, daemon=True)
    stopper.start()
    return stopper


def test_shutdown_closes_an_idle_keepalive_connection():
    with MockMerchant() as service:
        conn = _connect(service)
        try:
            conn.request("GET", "/ledger")
            assert conn.getresponse().read() == b'{"entries": []}'
            began = time.monotonic()
            stopper = _stop_in_background(service)
            assert conn.sock.recv(1) == b""  # closed, not left to time out
            stopper.join(1)
            assert not stopper.is_alive()
            assert time.monotonic() - began < 1
        finally:
            conn.close()


def test_shutdown_answers_a_request_being_read():
    with MockMerchant() as service:
        with socket.create_connection((service.host, service.port),
                                      timeout=10 * SHORT_TIMEOUT_S) as sock:
            deadline = time.monotonic() + 5
            while not service._idle and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._idle  # its worker waits for the first byte
            sock.sendall(b"GET /ledger HTTP/1.1\r\n")
            while service._idle and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not service._idle  # and now reads the head
            stopper = _stop_in_background(service)
            sock.sendall(b"Host: m\r\n\r\n")
            with sock.makefile("rb") as answer:
                assert answer.readline() == b"HTTP/1.1 200 OK\r\n"
                rest = answer.read()  # to the end: closed once answered
            assert rest.endswith(b'\r\n\r\n{"entries": []}')
            assert b"Connection: close" not in rest  # an HTTP/1.1 request
            stopper.join(1)
            assert not stopper.is_alive()


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
    # a head that cannot be read is logged by its first line too
    refused = _exchange(idle_gateway, b"GET  /healthz HTTP/1.1\r\n\r\n")
    assert [status for status, _, _ in refused] == [403]
    messages = [record.getMessage() for record in caplog.records]
    assert any('"GET /healthz HTTP/1.1" 200' in m for m in messages)
    assert any('"GET  /healthz HTTP/1.1" 403' in m for m in messages)


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


def test_head_at_both_limits_is_read_in_linear_time(idle_gateway):
    # 100 header lines, 99 of MAX_LINE bytes with their CRLF (6.5 MB): a
    # reader that rescans the whole head after each read spends seconds of
    # CPU on it
    line = b"X-A: " + b"b" * (MAX_LINE - 7) + b"\r\n"
    head = (b"GET /healthz HTTP/1.1\r\n" + line * (MAX_HEADERS - 1) +
            b"Connection: close\r\n\r\n")
    started = time.process_time()
    responses = _exchange(idle_gateway, head)
    spent = time.process_time() - started
    assert [status for status, _, _ in responses] == [200]
    assert spent < 1


# start lines, each with the pattern that takes it (None: neither does)
_START_LINES = [
    (b"GET /healthz HTTP/1.1", gateway_module._REQUEST_LINE),
    (b"POST /execute HTTP/1.0", gateway_module._REQUEST_LINE),
    (b"HTTP/1.1 200 OK", gateway_module._STATUS_LINE),
    (b"HTTP/1.0 409", gateway_module._STATUS_LINE),
    (b"GET  /healthz HTTP/1.1", None),
    (b"", None),  # the head starts with the empty line
]
_FIELD_LINES = [b"Host: ztrv", b"Content-Length: 2", b"X-A: b\t ", b"x-a:c"]
# field lines _read_head refuses; the last is MAX_LINE + 1 bytes with CRLF
_REFUSED_LINES = [b"X-A: b\rc", b" folded", b"X-A: " + b"b" * (MAX_LINE - 6)]
# sent after each head
_TRAILER = b"{}"


@st.composite
def _sendable_heads(draw):
    """``(data, sizes, refused, pattern)``: a head and _TRAILER, the sizes
    of the reads to split them into, whether the head is refused whatever
    its start line, and the pattern its start line matches."""
    start, pattern = draw(st.sampled_from(_START_LINES))
    fields = draw(st.lists(st.sampled_from(_FIELD_LINES + _REFUSED_LINES[:2]),
                           max_size=4))
    # at most one long line, at the limit or one byte over it, so that the
    # data fits in the socket's buffer
    long = draw(st.sampled_from([None, b"X-A: " + b"b" * (MAX_LINE - 7),
                                 _REFUSED_LINES[2]]))
    if long is not None:
        fields.insert(draw(st.integers(0, len(fields))), long)
    pad = draw(st.sampled_from([0, MAX_HEADERS, MAX_HEADERS + 1]))
    if pad:
        fields = (fields + [b"X-B: c"] * pad)[:pad]
    lines = [start, *fields, b""]
    ends = [b"\r\n"] * len(lines)
    if draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = b"\n"  # a bare LF
    data = b"".join(map(bytes.__add__, lines, ends)) + _TRAILER
    cuts = sorted(set(draw(st.lists(st.integers(1, len(data) - 1),
                                    max_size=8))))
    sizes = [end - begin for begin, end in zip([0] + cuts, cuts)]
    refused = (b"\n" in ends or not start or len(fields) > MAX_HEADERS
               or any(field in _REFUSED_LINES for field in fields))
    return data, sizes, refused, pattern


class _SplitSocket(socket.socket):
    """A socket whose reads return at most the next of ``sizes`` bytes."""

    sizes = iter(())

    def recv_into(self, buffer, nbytes=0, flags=0):
        return super().recv_into(buffer, next(self.sizes, nbytes), flags)


def _read_sent_head(data: bytes, sizes: list[int], start_line):
    """``(start's groups, fields)`` _read_head reads from ``data`` sent
    through a socketpair, in reads of ``sizes`` bytes and then of the rest;
    None if it refuses the head."""
    sender, receiver = socket.socketpair()
    with sender, _SplitSocket(fileno=receiver.detach()) as reader:
        reader.sizes = iter(sizes)
        sender.settimeout(5)
        sender.sendall(data)
        buffer = bytearray()
        head = gateway_module._read_head(
            reader, buffer, memoryview(bytearray(len(data))),
            time.monotonic() + 10, start_line)
    if head is None:
        assert data.startswith(buffer)  # what was read is left in buffer
        return None
    assert _TRAILER.startswith(buffer)  # the head, and only it, is taken
    start, fields = head
    return start.groups(), fields


@pytest.mark.parametrize("start_line", [gateway_module._REQUEST_LINE,
                                        gateway_module._STATUS_LINE],
                         ids=["request", "status"])
@settings(max_examples=25, deadline=None)
@given(head=_sendable_heads())
def test_head_is_read_alike_however_it_arrives(start_line, head):
    data, sizes, refused, pattern = head
    whole = _read_sent_head(data, [], start_line)
    assert _read_sent_head(data, sizes, start_line) == whole
    assert (whole is None) == (refused or pattern is not start_line)


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
