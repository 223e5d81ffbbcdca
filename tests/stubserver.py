"""Minimal full-logit HTTP server for the remote-policy tests.

Wraps any in-process policy behind the POST /v1/logits protocol so the
remote client can be exercised without an actual model server.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from asgdec.policy import PolicyContext


class LogitServer:
    def __init__(self, policy, host="127.0.0.1", port=0):
        self.policy = policy
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                if self.path != "/v1/logits":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length))
                    ctx = PolicyContext(
                        tuple(int(t) for t in body["prompt"]),
                        tuple(int(t) for t in body["generated"]),
                    )
                    dist = outer.policy.next_distribution(ctx)
                    payload = json.dumps(
                        {"logprobs": [float(x) for x in dist.logprobs]}
                    ).encode()
                except Exception as exc:  # malformed request -> 400
                    self.send_error(400, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer((host, port), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def endpoint(self):
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self.thread.start()
        return self

    def stop(self):
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
