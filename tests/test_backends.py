"""HTTP backend clients against a local stub server."""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from chunkkit import backends
from chunkkit.backends import BackendHandle, HttpEmbedder, HttpGenerator, HttpScorer
from chunkkit.errors import ProtocolError, TransportError
from chunkkit.scoring import perplexity


class StubHandler(BaseHTTPRequestHandler):
    """Uniform scorer, echo generator, and length-based embedder. The path
    and raw body of each request are appended to ``received``. A text in
    ``VECTORS`` is embedded as the malformed value given there; a text
    scored in a context in ``LOGPROBS`` gets that value for each token."""

    received: list[tuple[str, bytes]] = []
    VECTORS = {
        "__nan__": [float("nan"), 1.0],
        "__inf__": [1.0, float("-inf")],
        "__huge__": [10 ** 400, 1.0],
        "__bool__": [True, 1.0],
        "__string__": ["1.0", 1.0],
        "__nested__": [[1.0], 1.0],
        "__null__": None,
        "__short__": [1.0],
    }
    LOGPROBS = {"__bool__": True, "__string__": "-1.5", "__null__": None,
                "__huge__": -10 ** 400}

    def log_message(self, *args):  # quiet test output
        pass

    def _payload(self) -> dict:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.received.append((self.path, body))
        return json.loads(body)

    def _reply(self, data: dict, status: int = 200) -> None:
        body = json.dumps(data).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        payload = self._payload()
        if self.path == "/v1/score":
            tokens = list(payload["text"])
            if payload.get("context") == "__mismatch__":
                self._reply({"tokens": tokens, "logprobs": [-1.0]})
                return
            if payload.get("context") in self.LOGPROBS:
                value = self.LOGPROBS[payload["context"]]
                self._reply({"tokens": tokens, "logprobs": [value] * len(tokens)})
                return
            self._reply({
                "tokens": tokens,
                "logprobs": [-math.log(16)] * len(tokens),
            })
        elif self.path == "/v1/generate":
            prompt = payload["prompt"]
            if "repeat after me:" in prompt:
                nonce = prompt.split("repeat after me:")[1].strip()
                self._reply({"text": f"you said {nonce}", "finish_reason": "stop"})
            else:
                self._reply({"text": "ok", "finish_reason": "length"})
        elif self.path == "/v1/embed":
            vectors = [self.VECTORS.get(t, [float(len(t)), 1.0])
                       for t in payload["texts"]]
            self._reply({"vectors": vectors})
        else:
            self._reply({"error": "no such path"}, status=404)


@pytest.fixture(scope="module")
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def handle(endpoint: str, **kw) -> BackendHandle:
    return BackendHandle(endpoint=endpoint, model="stub", timeout=5.0, **kw)


class TestHttpScorer:
    def test_score_round_trip(self, stub_server):
        scorer = HttpScorer(handle(stub_server))
        scored = scorer.score("abcd")
        assert len(scored.tokens) == 4
        assert perplexity(scored) == pytest.approx(16.0)

    def test_length_mismatch_is_protocol_error(self, stub_server):
        scorer = HttpScorer(handle(stub_server))
        with pytest.raises(ProtocolError, match="mismatch"):
            scorer.score("abcd", context="__mismatch__")

    @pytest.mark.parametrize("context,message", [
        ("__bool__", "must be numbers"), ("__string__", "must be numbers"),
        ("__null__", "must be numbers"), ("__huge__", "too large"),
    ])
    def test_logprob_not_a_float_is_protocol_error(self, stub_server, context,
                                                   message):
        # float() read true as 1.0 (clamped to 0.0) and "-1.5" as -1.5
        scorer = HttpScorer(handle(stub_server))
        with pytest.raises(ProtocolError, match=message):
            scorer.score("ab", context=context)

    def test_unreachable_backend_reports_attempts(self):
        scorer = HttpScorer(
            BackendHandle(endpoint="http://127.0.0.1:9", model="m",
                          timeout=0.2, retries=2)
        )
        with pytest.raises(TransportError) as err:
            scorer.score("abc")
        assert err.value.attempts == 3

    def test_context_left_truncation_flagged(self, stub_server):
        scorer = HttpScorer(handle(stub_server, max_context_chars=5))
        scored = scorer.score("ab", context="0123456789")
        assert scored.truncated
        assert json.loads(StubHandler.received[-1][1])["context"] == "56789"

    def test_http_error_status_is_transport_error(self, stub_server):
        scorer = HttpScorer(handle(stub_server))
        scorer.handle = handle(stub_server)
        # unknown path returns 404
        with pytest.raises(TransportError):
            scorer._post("/v1/nope", {})

    def test_api_key_env_sets_bearer_header(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_TOKEN", "sekrit")
        scorer = HttpScorer(handle(stub_server, api_key_env="STUB_TOKEN"))
        assert scorer._session.headers["Authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize("endpoint", [
        "", "127.0.0.1:9", "ftp://127.0.0.1:9", "http://", "http://127.0.0.1:abc",
        "http://127.0.0.1:99999"])
    def test_endpoint_must_be_an_http_url_with_a_host(self, endpoint):
        with pytest.raises(ValueError):
            BackendHandle(endpoint=endpoint, model="m")

    def test_handle_validation(self):
        with pytest.raises(ValueError):
            BackendHandle(endpoint="http://x", model="m", max_in_flight=0)
        for timeout in (0, -1.0, math.nan):
            with pytest.raises(ValueError, match="timeout must be > 0"):
                BackendHandle(endpoint="http://x", model="m", timeout=timeout)


class TestHttpGenerator:
    def test_echo_nonce(self, stub_server):
        gen = HttpGenerator(handle(stub_server))
        result = gen.generate("repeat after me: zq81x")
        assert "zq81x" in result.text
        assert not result.truncated

    def test_length_stop_flagged(self, stub_server):
        gen = HttpGenerator(handle(stub_server))
        result = gen.generate("anything else")
        assert result.truncated

    def test_request_body_is_pinned(self, stub_server):
        # every call decodes near-greedily; the body is pinned byte for byte
        HttpGenerator(handle(stub_server)).generate("repeat after me: zq81x")
        assert StubHandler.received[-1] == (
            "/v1/generate",
            b'{"model": "stub", "prompt": "repeat after me: zq81x", '
            b'"temperature": 0.1, "top_p": 0.1, "max_tokens": 1024}',
        )


class TestHttpEmbedder:
    def test_vectors_align_with_inputs(self, stub_server):
        emb = HttpEmbedder(handle(stub_server))
        vectors = emb.embed_many(["ab", "abcd"])
        assert [v[0] for v in vectors] == [2.0, 4.0]
        single = emb.embed("xyz")
        assert single[0] == 3.0

    def test_empty_text_rejected_locally(self, stub_server):
        emb = HttpEmbedder(handle(stub_server))
        with pytest.raises(ValueError):
            emb.embed_many(["ok", ""])

    def test_vectors_are_float_tuples(self, stub_server):
        (vector,) = HttpEmbedder(handle(stub_server)).embed_many(["abc"])
        assert vector == (3.0, 1.0) and all(type(x) is float for x in vector)

    @pytest.mark.parametrize("text", [
        "__nan__", "__inf__", "__huge__", "__bool__", "__string__", "__nested__",
        "__null__",
    ])
    def test_non_finite_or_non_number_component_is_protocol_error(
            self, stub_server, text):
        # a NaN component made cosine return 1.0: min(1.0, nan) is 1.0
        emb = HttpEmbedder(handle(stub_server))
        with pytest.raises(ProtocolError, match="lists of finite numbers"):
            emb.embed_many(["ok", text])

    def test_vectors_of_two_lengths_are_protocol_error(self, stub_server):
        emb = HttpEmbedder(handle(stub_server))
        with pytest.raises(ProtocolError, match="differ in length"):
            emb.embed_many(["ok", "__short__"])


class TestConcurrencyBound:
    def test_parallel_scoring_under_semaphore(self, stub_server):
        scorer = HttpScorer(handle(stub_server, max_in_flight=2))
        results = []
        errors = []

        def work():
            try:
                results.append(perplexity(scorer.score("xy")))
            except Exception as exc:  # noqa: BLE001 - collecting for assert
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8


class _CannedResponse:
    """What ``requests.Session.post`` returns, reduced to the parts used."""

    def __init__(self, body):
        self.body = body

    def raise_for_status(self):
        pass

    def json(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


def canned(client, body):
    client._session.post = lambda *args, **kwargs: _CannedResponse(body)
    return client


class TestMalformedReplies:
    """Replies are checked without a server: ``_session.post`` is stubbed."""

    CALLS = {
        "score": (HttpScorer, lambda c: c.score("abc")),
        "generate": (HttpGenerator, lambda c: c.generate("a prompt")),
        "embed": (HttpEmbedder, lambda c: c.embed_many(["abc"])),
    }

    @pytest.mark.parametrize("body", [[], "text", 3, None],
                             ids=["list", "string", "number", "null"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_body_not_an_object_is_protocol_error(self, call, body):
        cls, invoke = self.CALLS[call]
        client = canned(cls(handle("http://127.0.0.1:9")), body)
        with pytest.raises(ProtocolError, match="not a JSON object"):
            invoke(client)

    def test_body_not_json_is_protocol_error(self):
        scorer = canned(HttpScorer(handle("http://127.0.0.1:9")),
                        requests.JSONDecodeError("Expecting value", "<html>", 0))
        with pytest.raises(ProtocolError, match="response is not JSON"):
            scorer.score("ab")

    def test_request_that_cannot_be_sent_is_transport_error(self):
        scorer = HttpScorer(handle("http://127.0.0.1:9"))
        calls = []

        def post(*args, **kwargs):
            calls.append(args)
            raise requests.exceptions.InvalidURL("Failed to parse")

        scorer._session.post = post
        with pytest.raises(TransportError, match="Failed to parse") as err:
            scorer.score("ab")
        assert err.value.attempts == 1 and len(calls) == 1  # not retried

    def test_nan_logprob_is_protocol_error(self):
        scorer = canned(HttpScorer(handle("http://127.0.0.1:9")),
                        {"tokens": ["a", "b"], "logprobs": [-1.0, float("nan")]})
        with pytest.raises(ProtocolError, match="NaN"):
            scorer.score("ab")

    def test_well_formed_reply_still_scores(self):
        scorer = canned(HttpScorer(handle("http://127.0.0.1:9")),
                        {"tokens": ["a", "b"], "logprobs": [-1.0, 0.5]})
        assert scorer.score("ab").logprobs == (-1.0, 0.0)


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each request with the next ``(status, headers)`` of the
    server's script; a 200 is a uniform score."""

    def log_message(self, *args):  # quiet test output
        pass

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen += 1
        status, headers = self.server.script.pop(0)
        tokens = list(payload["text"])
        body = json.dumps({"tokens": tokens, "logprobs": [-1.0] * len(tokens)}
                          if status == 200 else {"error": status}).encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.seen, server.script = 0, []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def waits(monkeypatch):
    """The seconds each retry waited; nothing actually sleeps."""
    recorded: list[float] = []
    monkeypatch.setattr(backends.time, "sleep", recorded.append)
    return recorded


def scripted_scorer(server, retries: int) -> HttpScorer:
    return HttpScorer(handle(f"http://127.0.0.1:{server.server_address[1]}",
                             retries=retries))


class TestRetries:
    def test_429_and_503_are_retried_within_the_budget(self, scripted_server, waits):
        scripted_server.script = [(429, {"Retry-After": "1.5"}), (503, {}), (200, {})]
        scored = scripted_scorer(scripted_server, retries=2).score("abc")
        assert scored.logprobs == (-1.0, -1.0, -1.0)
        assert scripted_server.seen == 3
        # Retry-After is honoured; without it the second wait is the jittered
        # backoff of attempt 2
        assert waits[0] == 1.5
        assert 2 * backends._RETRY_BACKOFF <= waits[1] <= 4 * backends._RETRY_BACKOFF

    def test_exhausted_budget_is_transport_error(self, scripted_server, waits):
        scripted_server.script = [(503, {}), (500, {}), (200, {})]
        with pytest.raises(TransportError, match="500") as err:
            scripted_scorer(scripted_server, retries=1).score("abc")
        assert err.value.attempts == 2
        assert scripted_server.seen == 2
        assert len(waits) == 1

    def test_client_error_is_not_retried(self, scripted_server, waits):
        scripted_server.script = [(400, {}), (200, {})]
        with pytest.raises(TransportError) as err:
            scripted_scorer(scripted_server, retries=2).score("abc")
        assert err.value.attempts == 1
        assert scripted_server.seen == 1
        assert waits == []

    @pytest.mark.parametrize("retry_after,expected", [
        ("0", 0.0),
        ("-3", 0.0),
        ("2.5", 2.5),
        ("86400", backends._RETRY_WAIT_MAX),
        ("Thu, 01 Jan 1970 00:00:00 GMT", 0.0),  # a date in the past
        ("Fri, 01 Jan 9999 00:00:00 GMT", backends._RETRY_WAIT_MAX),
    ])
    def test_retry_after_is_honoured_up_to_the_cap(self, retry_after, expected):
        assert backends._retry_wait(1, retry_after) == expected

    @pytest.mark.parametrize("retry_after", [None, "", "soon", "nan"])
    def test_unusable_retry_after_backs_off_with_jitter(self, retry_after):
        for attempt in (1, 2):
            wait = backends._retry_wait(attempt, retry_after)
            assert (attempt * backends._RETRY_BACKOFF <= wait
                    <= 2 * attempt * backends._RETRY_BACKOFF)
