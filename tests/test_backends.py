"""HTTP backend clients against a local stub server."""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chunkkit.backends import BackendHandle, HttpEmbedder, HttpGenerator, HttpScorer
from chunkkit.errors import ProtocolError, TransportError
from chunkkit.scoring import GenerationParams, perplexity


class StubHandler(BaseHTTPRequestHandler):
    """Uniform scorer, echo generator, and length-based embedder."""

    def log_message(self, *args):  # quiet test output
        pass

    def _payload(self) -> dict:
        length = int(self.headers["Content-Length"])
        return json.loads(self.rfile.read(length))

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
            vectors = [[float(len(t)), 1.0] for t in payload["texts"]]
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
        assert scored.context_len == 5

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

    def test_handle_validation(self):
        with pytest.raises(ValueError):
            BackendHandle(endpoint="", model="m")
        with pytest.raises(ValueError):
            BackendHandle(endpoint="http://x", model="m", max_in_flight=0)


class TestHttpGenerator:
    def test_echo_nonce(self, stub_server):
        gen = HttpGenerator(handle(stub_server))
        result = gen.generate("repeat after me: zq81x")
        assert "zq81x" in result.text
        assert not result.truncated

    def test_length_stop_flagged(self, stub_server):
        gen = HttpGenerator(handle(stub_server))
        result = gen.generate("anything else", GenerationParams(max_tokens=4))
        assert result.truncated


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

    def test_nan_logprob_is_protocol_error(self):
        scorer = canned(HttpScorer(handle("http://127.0.0.1:9")),
                        {"tokens": ["a", "b"], "logprobs": [-1.0, float("nan")]})
        with pytest.raises(ProtocolError, match="NaN"):
            scorer.score("ab")

    def test_well_formed_reply_still_scores(self):
        scorer = canned(HttpScorer(handle("http://127.0.0.1:9")),
                        {"tokens": ["a", "b"], "logprobs": [-1.0, 0.5]})
        assert scorer.score("ab").logprobs == (-1.0, 0.0)
