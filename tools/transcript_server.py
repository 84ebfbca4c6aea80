#!/usr/bin/env python3
"""Serve recorded transcripts as a local model server's generate endpoint.

    python tools/transcript_server.py SOURCE [--host 127.0.0.1] [--port 11434]

SOURCE is a transcript file, or a directory whose ``*.jsonl`` files are all
transcripts, such as ``src/graphqa/data/transcripts``. The server answers
Ollama's non-streaming ``POST /api/generate`` (``{"model", "prompt", ...}``
in, ``{"model", "response", "done"}`` out) with the response recorded for
that exact (model, prompt) pair. So ``graphqa eval --endpoint`` runs the
live HTTP client and gets the replies a ``--replay`` eval gets. A request
with no recorded response is an HTTP 404, and a body that is not a JSON
object with a string ``model`` and ``prompt`` an HTTP 400; either reply is
a JSON object whose ``error`` field says why. The server only reads its
source: it never writes a transcript.

It prints ``serving http://HOST:PORT`` once it listens (``--port 0`` takes
a free port) and serves one request at a time until it is stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from graphqa.datafiles import file_lines
from graphqa.llm import Transcript, read_transcript, request_hash


def load_source(source: str) -> Transcript:
    """One transcript of every entry in ``source``, each named by its file and line."""
    paths = [source]
    if os.path.isdir(source):
        paths = [os.path.join(source, name) for name in sorted(os.listdir(source)) if name.endswith(".jsonl")]
    entries, where = [], []
    for path in paths:
        for lineno, entry in read_transcript(file_lines(path)):
            entries.append(entry)
            where.append(f"{path} line {lineno}")
    return Transcript(entries, where.__getitem__)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        if self.path != "/api/generate":
            return self._reply(404, {"error": f"no endpoint {self.path}"})
        try:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        except (TypeError, ValueError):  # no length, or a body that is not JSON
            body = None
        model, prompt = (body.get("model"), body.get("prompt")) if isinstance(body, dict) else (None, None)
        if type(model) is not str or type(prompt) is not str:
            return self._reply(400, {"error": "the body must be a JSON object with a string model and prompt"})
        response = self.server.transcript.lookup(model, prompt)
        if response is None:
            error = f"no recorded response for model {model!r} (request {request_hash(model, prompt)[:12]})"
            return self._reply(404, {"error": error})
        self._reply(200, {"model": model, "response": response, "done": True})

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # a line per call would bury the caller's own output


def make_server(source: str, host: str = "127.0.0.1", port: int = 0) -> HTTPServer:
    """A server, bound and listening, that answers from ``source``'s transcripts."""
    transcript = load_source(source)
    server = HTTPServer((host, port), _Handler)
    server.transcript = transcript
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", help="a transcript file or a directory of transcript files")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=11434)
    args = parser.parse_args(argv)
    server = make_server(args.source, args.host, args.port)
    print(f"serving http://{args.host}:{server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
