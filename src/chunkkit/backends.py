"""HTTP backend clients for scoring, generation, and embedding.

Wire contract (JSON over HTTP, paths relative to the handle's endpoint):

- POST /v1/score    {model, text, context?} -> {tokens: [str], logprobs: [num]}
  (logprobs cover the text only; context tokens are conditioned on but
  excluded)
- POST /v1/generate {model, prompt, temperature, top_p, max_tokens}
                    -> {text: str, finish_reason?: str}
  (near-greedy: temperature 0.1, top_p 0.1, max_tokens 1024 on every call;
  a missing finish_reason is "stop")
- POST /v1/embed    {model, texts: [str]} -> {vectors: [[num]]}

Requests retry a bounded number of times on transport failures and on 429
and 5xx replies, honouring a Retry-After header, and log each retry at
WARNING; each client enforces its handle's in-flight limit with a
semaphore, so callers may fan out across threads freely.
``HttpScorer.score_many`` sends a request list on the client's own
threads, at most ``max_in_flight`` of them; ``eval``'s ``concurrency``
sets how many.

The client is the standard library's ``http.client``: one kept-alive
connection per client and thread, checked before reuse, so a connection
the server closed while idle is replaced without a failed attempt. The
client owns its connections and its pool: ``close()`` (or leaving a
``with`` block) stops the pool's threads, then closes every connection its
threads opened. A
proxy named by the environment (``HTTP_PROXY``, ``HTTPS_PROXY``,
``NO_PROXY``) is honoured, HTTPS verifies the server against
``ssl.create_default_context()``, and a redirect is not followed.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import math
import os
import random
import re
import select
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.utils import parsedate_to_datetime
from typing import Iterator
from urllib.parse import unquote, urlsplit

from .config import finite_number
from .errors import ProtocolError, TransportError
from .scoring import GenerationResult, ScoredText

_RETRY_BACKOFF = 0.2  # seconds, times the attempt number, plus up to as much jitter
_RETRY_WAIT_MAX = 10.0  # seconds: the longest wait between attempts, Retry-After too
_DECODING = {"temperature": 0.1, "top_p": 0.1, "max_tokens": 1024}  # near-greedy
# seconds: a day, far inside what a socket timeout and the platform's time_t
# take (about 9.2e9 s, 2**63 ns, overflows)
_TIMEOUT_MAX = 86400.0
# the userinfo ("user:password@") of an endpoint, with its scheme if any
_USERINFO = re.compile(r"([^/?#]*//)?[^/?#]*@")
# what http.client cannot send in a header value: a control character
# (a line break would end the header) or a character beyond Latin-1
_UNSENDABLE = re.compile(r"[^\x20-\x7e\xa0-\xff]")

logger = logging.getLogger(__name__)


def _retry_wait(attempt: int, retry_after: str | None) -> float:
    """Seconds to wait after failed attempt ``attempt``: the server's
    Retry-After (delta-seconds or an HTTP date) when it sent one, else a
    jittered backoff that grows with the attempt; at most _RETRY_WAIT_MAX."""
    wait = None
    if retry_after:
        try:
            wait = float(retry_after)
        except ValueError:
            try:
                wait = parsedate_to_datetime(retry_after).timestamp() - time.time()
            except (TypeError, ValueError):
                pass
    if wait is None or math.isnan(wait):
        wait = _RETRY_BACKOFF * attempt * (1.0 + random.random())
    return min(max(wait, 0.0), _RETRY_WAIT_MAX)


@dataclass(frozen=True)
class BackendHandle:
    """Where and how to reach one model endpoint.

    ``api_key_env`` names an environment variable holding a bearer token;
    secrets never live in config files, so an endpoint with userinfo
    (``user:password@``) is rejected, and no message echoes it.
    ``max_context_chars`` keeps the last that many characters of a context
    (at least 1; null keeps it whole): a limit of 0 would send every context
    empty, so every conditional score would equal the unconditional one.
    """

    endpoint: str
    model: str
    timeout: float = 30.0
    max_in_flight: int = 4
    retries: int = 2
    max_context_chars: int | None = None
    api_key_env: str | None = None

    def __post_init__(self):
        if _USERINFO.match(self.endpoint):
            # named without the endpoint, whose userinfo may hold a password
            raise ValueError("endpoint must carry no credentials (user:password@); "
                             "name a variable holding a bearer token in api_key_env")
        url = urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a "
                             f"host, got {self.endpoint!r}")
        try:
            url.port
        except ValueError:  # urllib's message quotes what follows the last ":"
            raise ValueError("Port of the endpoint must be a number in 0-65535") from None
        if not 0 < self.timeout <= _TIMEOUT_MAX:
            raise ValueError(f"timeout must be > 0 and <= {_TIMEOUT_MAX:g} s, "
                             f"got {self.timeout}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_context_chars is not None and self.max_context_chars < 1:
            raise ValueError(f"max_context_chars must be >= 1 or null, "
                             f"got {self.max_context_chars}")
        try:  # the model id goes into every request and report header
            self.model.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"model holds a lone surrogate at index {exc.start}, "
                             f"got {self.model!r}") from None


def _dropped(sock) -> bool:
    """Whether an idle kept-alive socket is readable: the server has closed
    it (or sent what no request asked for), so it must carry no request."""
    if hasattr(select, "poll"):  # no limit on the descriptor's number
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _HttpClient:
    def __init__(self, handle: BackendHandle):
        self.handle = handle
        self._url = handle.endpoint.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        token = os.environ.get(handle.api_key_env) if handle.api_key_env else None
        if token:
            # the message names the variable, never its value
            if _UNSENDABLE.search(token):
                raise ValueError(f"the value of {handle.api_key_env} cannot be sent "
                                 f"in a header: it holds a control character or "
                                 f"one beyond Latin-1")
            self._headers["Authorization"] = f"Bearer {token}"
        self._tls = (ssl.create_default_context()
                     if urlsplit(self._url).scheme == "https" else None)
        self._local = threading.local()  # this thread's connection
        self._opened: list[http.client.HTTPConnection] = []  # by every thread
        self._opened_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(handle.max_in_flight)

    def close(self) -> None:
        """Close every connection this client's threads opened. Call it
        after the last request; a later request opens a connection again."""
        with self._opened_lock:
            opened = list(self._opened)
        for conn in opened:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self) -> tuple[http.client.HTTPConnection, str, dict]:
        """A connection to the endpoint, or to the proxy the environment
        names for it, with the prefix of its request targets and the
        headers of its requests. Nothing is sent yet."""
        url = urlsplit(self._url)
        origin_form = url._replace(scheme="", netloc="").geturl()
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and urllib.request.proxy_bypass(url.netloc):
            proxy = None
        if not proxy:
            return self._open(url.hostname, url.port), origin_form, self._headers
        via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if via.scheme != "http" or not via.hostname:
            # named without its userinfo, which may hold a password
            raise ValueError(f"proxy {via.scheme}://{via.hostname or ''} is not "
                             f"an http:// URL with a host")
        auth = {}
        if via.username is not None:
            credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
            auth["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii"))
        conn = self._open(via.hostname, via.port or 80)
        if self._tls is None:  # the proxy forwards the absolute-form URL
            return conn, self._url, {**self._headers, **auth}
        conn.set_tunnel(url.hostname, url.port, auth)
        return conn, origin_form, self._headers

    def _open(self, host: str, port: int | None) -> http.client.HTTPConnection:
        if self._tls is None:
            return http.client.HTTPConnection(host, port, timeout=self.handle.timeout)
        return http.client.HTTPSConnection(host, port, timeout=self.handle.timeout,
                                           context=self._tls)

    def _exchange(self, path: str, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on this thread's connection and its whole reply."""
        local = self._local
        if getattr(local, "conn", None) is None:
            local.conn, local.prefix, local.headers = self._connect()
            with self._opened_lock:
                self._opened.append(local.conn)
        elif local.conn.sock is not None and _dropped(local.conn.sock):
            local.conn.close()  # the next request opens a new connection
        conn = local.conn
        try:
            conn.request("POST", local.prefix + path, body, local.headers)
            response = conn.getresponse()
            return response, response.read()
        except BaseException:
            conn.close()  # a request cut short leaves the connection unusable
            raise

    def _post(self, path: str, payload: dict) -> dict:
        url = self._url + path
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.handle.retries + 1
        last_error: object = None
        for attempt in range(1, attempts + 1):
            retry_after = None
            try:
                with self._slots:
                    response, raw = self._exchange(path, body)
            except http.client.InvalidURL as exc:  # the request cannot be built
                raise TransportError(f"{url}: {exc}", attempts=attempt) from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            except ValueError as exc:  # a proxy URL that cannot be used
                raise TransportError(f"{url}: {exc}", attempts=attempt) from exc
            else:
                status = f"HTTP {response.status} {response.reason}"
                if response.status < 300:
                    try:
                        data = json.loads(raw)
                    except ValueError as exc:  # not JSON, or not UTF-8/16/32
                        raise ProtocolError(f"{url}: response is not JSON: {exc}") from exc
                    if not isinstance(data, dict):
                        raise ProtocolError(f"{url}: response is not a JSON object")
                    return data
                if response.status < 400:
                    raise TransportError(
                        f"{url}: {status}, redirect to "
                        f"{response.getheader('Location')} not followed",
                        attempts=attempt)
                if response.status != 429 and response.status < 500:
                    # the request itself is at fault
                    raise TransportError(f"{url}: {status}", attempts=attempt)
                last_error = status
                retry_after = response.getheader("Retry-After")
            if attempt < attempts:
                wait = _retry_wait(attempt, retry_after)
                logger.warning("%s: attempt %d of %d failed (%s); retrying in %.2f s",
                               url, attempt, attempts, last_error, wait)
                time.sleep(wait)
        raise TransportError(f"{url}: {last_error}", attempts=attempts)


class HttpScorer(_HttpClient):
    """Log-probability scoring against a remote /v1/score endpoint.

    :meth:`score_many` sends a list on ``min(threads, max_in_flight)``
    threads, each request through :meth:`score`. The pool starts on first
    use and serves every later list, so each thread keeps its connection;
    at one thread the list runs inline and no thread starts.
    """

    def __init__(self, handle: BackendHandle, threads: int = 1):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(handle)
        self._threads = min(threads, handle.max_in_flight)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Stop the pool, dropping requests not yet sent; close every connection."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        super().close()

    def score_many(self, requests: list[tuple[str, str | None]]) -> Iterator[ScoredText]:
        """The result of each ``(text, context)`` request, in order, yielded
        as it completes; a request that failed raises its error when its
        result is read."""
        if self._threads == 1:
            return (self.score(text, context) for text, context in requests)
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self._threads,
                                                thread_name_prefix="HttpScorer")
            pool = self._pool
        return pool.map(lambda request: self.score(*request), requests)

    def score(self, text: str, context: str | None = None) -> ScoredText:
        if not text:
            raise ValueError("cannot score empty text")
        truncated = False
        limit = self.handle.max_context_chars
        if context and limit is not None and len(context) > limit:
            # keep the most recent context; mark the result
            context = context[len(context) - limit:]
            truncated = True
        payload: dict = {"model": self.handle.model, "text": text}
        if context is not None:
            payload["context"] = context
        data = self._post("/v1/score", payload)
        tokens = data.get("tokens")
        logprobs = data.get("logprobs")
        if not isinstance(tokens, list) or not isinstance(logprobs, list):
            raise ProtocolError("score response needs 'tokens' and 'logprobs' lists")
        if len(tokens) != len(logprobs):
            raise ProtocolError(
                f"token/logprob length mismatch: {len(tokens)} vs {len(logprobs)}"
            )
        if not all(type(x) in (int, float) for x in logprobs):
            raise ProtocolError("invalid score response: logprobs must be numbers")
        try:
            logprobs = tuple(map(float, logprobs))
            # checked before the clamp, which would take +Infinity to 0
            if not all(map(math.isfinite, logprobs)):
                raise ValueError("a logprob is NaN or infinite")
            return ScoredText(
                tokens=tuple(str(t) for t in tokens),
                logprobs=tuple(min(x, 0.0) for x in logprobs),
                truncated=truncated,
            )
        except (OverflowError, ValueError) as exc:
            # huge int, non-finite logprob, no tokens, perplexity out of range
            raise ProtocolError(f"invalid score response: {exc}") from exc


class HttpGenerator(_HttpClient):
    """Text generation against a remote /v1/generate endpoint."""

    def generate(self, prompt: str) -> GenerationResult:
        if not prompt:
            raise ValueError("cannot generate from an empty prompt")
        data = self._post(
            "/v1/generate", {"model": self.handle.model, "prompt": prompt, **_DECODING}
        )
        text = data.get("text")
        finish_reason = data.get("finish_reason", "stop")
        if not isinstance(text, str) or not isinstance(finish_reason, str):
            raise ProtocolError("generate response needs a string 'text' and, "
                                "if present, a string 'finish_reason'")
        return GenerationResult(text=text, finish_reason=finish_reason)


class HttpEmbedder(_HttpClient):
    """Embedding against a remote /v1/embed endpoint."""

    def embed_many(self, texts: list[str]) -> list[tuple[float, ...]]:
        if not texts:
            return []
        if any(not t for t in texts):
            raise ValueError("cannot embed empty text")
        data = self._post(
            "/v1/embed", {"model": self.handle.model, "texts": list(texts)}
        )
        vectors = data.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError(
                "embed response needs one vector per input text"
            )
        if not all(isinstance(v, list) and all(map(finite_number, v)) for v in vectors):
            raise ProtocolError("embed vectors must be lists of finite numbers")
        if len(set(map(len, vectors))) > 1:
            raise ProtocolError("embed vectors differ in length")
        return [tuple(map(float, v)) for v in vectors]

    def embed(self, text: str) -> tuple[float, ...]:
        return self.embed_many([text])[0]
