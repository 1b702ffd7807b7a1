"""A fake remote LM: ``POST /v1/score`` served by the same ``NGramScorer``
the offline workloads use, following the README's wire contract.

    python3 perfbench/fake_server.py <corpus.jsonl> <order>

Prints ``port <n>`` once it listens on 127.0.0.1 and serves until it is
terminated. ``GET /stats`` returns the number of score requests received
and their body bytes.

Each score reply leaves ``SERVICE_S`` after its request arrived, a
stand-in for a remote model's service time; the server's own parsing and
scoring happen inside that time, so how fast the host runs them does not
show. On a shared 2-CPU host, with each reply held 5 ms on top of the
server's own work, a pass's wall time moved by up to 45% with the host's
load: the CPU time per request on both sides, and the wake-ups between
them, were as long as the hold. With a 50 ms service time that includes
the server's work, passes with both CPUs saturated by other processes ran
within 3% of passes on a quiet host. Client concurrency and request
batching cut exactly this waiting.

Each response goes out in one write (buffered ``wfile``) with Nagle's
algorithm off. With unbuffered writes the headers and the body leave as two
segments and the second waits on the client's delayed ACK, about 40 ms a
request, which would measure this server instead of chunkkit.
"""

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from chunkkit.scoring import NGramScorer
from chunkkit.text import load_corpus

SERVICE_S = 0.050


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"   # keep-alive, as requests.Session expects
    wbufsize = -1                   # one write per response
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            self._reply(200, dict(self.server.stats))

    def do_POST(self):
        received = time.monotonic()
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        with self.server.lock:
            self.server.stats["requests"] += 1
            self.server.stats["request_bytes"] += length
        if self.path != "/v1/score":
            self._reply(404, {"error": "not found"})
            return
        try:
            request = json.loads(raw)
            scored = self.server.scorer.score(request["text"], request.get("context"))
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        time.sleep(max(0.0, received + SERVICE_S - time.monotonic()))
        self._reply(200, {"tokens": list(scored.tokens), "logprobs": list(scored.logprobs)})

    def log_message(self, format, *args):
        pass


def main() -> None:
    corpus, order = sys.argv[1], int(sys.argv[2])
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.scorer = NGramScorer(order=order, corpus=[d.text for d in load_corpus(corpus)])
    server.lock = threading.Lock()
    server.stats = {"requests": 0, "request_bytes": 0}
    print(f"port {server.server_address[1]}", flush=True)
    parent = os.getppid()

    def watch_parent():  # never outlive the benchmark run that started us
        while os.getppid() == parent:
            time.sleep(1)
        server.shutdown()

    threading.Thread(target=watch_parent, daemon=True).start()
    server.serve_forever()


if __name__ == "__main__":
    main()
