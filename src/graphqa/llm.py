"""LLM gateway: HTTP completion client, transcript replay, and extraction
of Cypher from raw model output.

The live backend speaks the single-turn "generate" convention of local model
servers (POST {model, prompt, stream: false, options} -> {"response": ...})
over the standard library's ``urllib``, always at temperature 0.
A replay backend answers exclusively from a transcript, keyed by exact
(model, prompt) match, which makes any pipeline run reproducible offline; a
run record holds the same pairs for both of its calls. A replay miss raises:
it never silently falls back to a live call.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import NamedTuple

from .datafiles import atomic_write
from .errors import GatewayError, ReplayMissError

TRANSCRIPT_SCHEMA_VERSION = "1"
DEFAULT_TIMEOUT_S = 120.0
# Sampling options sent with every live completion: greedy decoding, so a
# recorded transcript is what the model would answer again.
_GENERATE_OPTIONS = {"temperature": 0.0}
# The most of a reply body a live completion reads; a longer body is an
# error, so a faulty endpoint cannot make the client hold all it sends.
_MAX_RESPONSE_BYTES = 1 << 20


class CompletionRequest(NamedTuple):
    model_name: str
    prompt: str


def request_hash(model_name: str, prompt: str) -> str:
    digest = hashlib.sha256()
    digest.update(model_name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class TranscriptEntry(NamedTuple):
    model_name: str
    prompt: str
    response: str
    timestamp: str = ""

    @property
    def key(self) -> tuple[str, str]:
        return (self.model_name, self.prompt)


class Transcript:
    """Recorded (model, prompt) -> response pairs, stored as JSON lines."""

    def __init__(self, entries: list[TranscriptEntry] | None = None):
        self.entries: list[TranscriptEntry] = list(entries or [])
        self._index: dict[tuple[str, str], str] = {e.key: e.response for e in self.entries}

    def add(self, entry: TranscriptEntry) -> None:
        self.entries.append(entry)
        self._index[entry.key] = entry.response

    def lookup(self, model_name: str, prompt: str) -> str | None:
        return self._index.get((model_name, prompt))

    def __len__(self) -> int:
        return len(self.entries)

    def dumps(self) -> str:
        lines = [json.dumps({"kind": "transcript", "schema_version": TRANSCRIPT_SCHEMA_VERSION})]
        for entry in self.entries:
            lines.append(
                json.dumps(
                    {
                        "request_sha256": request_hash(entry.model_name, entry.prompt),
                        "model": entry.model_name,
                        "prompt": entry.prompt,
                        "response": entry.response,
                        "timestamp": entry.timestamp,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Transcript":
        transcript = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GatewayError(f"transcript line {lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise GatewayError(f"transcript line {lineno}: not a JSON object")
            if obj.get("kind") == "transcript":
                if obj.get("schema_version") != TRANSCRIPT_SCHEMA_VERSION:
                    raise GatewayError(f"unsupported transcript schema_version {obj.get('schema_version')!r}")
                continue
            try:
                entry = TranscriptEntry(
                    model_name=obj["model"],
                    prompt=obj["prompt"],
                    response=obj["response"],
                    timestamp=obj.get("timestamp", ""),
                )
            except KeyError as exc:
                raise GatewayError(f"transcript line {lineno}: missing field {exc.args[0]!r}") from exc
            if not all(isinstance(text, str) for text in (entry.model_name, entry.prompt, entry.response)):
                raise GatewayError(f"transcript line {lineno}: model, prompt and response must be strings")
            expected = obj.get("request_sha256")
            if expected and expected != request_hash(entry.model_name, entry.prompt):
                raise GatewayError(f"transcript line {lineno}: request hash mismatch")
            transcript.add(entry)
        return transcript

    @classmethod
    def load(cls, path: str) -> "Transcript":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


class LiveBackend:
    """HTTP client for an Ollama-style generate endpoint."""

    def __init__(self, base_url: str, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.url = base_url.rstrip("/") + "/api/generate"
        self.timeout_s = timeout_s

    def complete(self, request: CompletionRequest) -> str:
        # Imported here: the HTTP stack (http.client, email, ssl, socket)
        # costs about 20 ms at start-up, and replay never needs it.
        import http.client
        import urllib.request

        body = {"model": request.model_name, "prompt": request.prompt, "stream": False, "options": _GENERATE_OPTIONS}
        deadline = time.monotonic() + self.timeout_s
        try:
            http_request = urllib.request.Request(
                self.url, data=json.dumps(body).encode("utf-8"), headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(http_request, timeout=self.timeout_s) as http_response:
                raw = _read_body(http_response, deadline, self.timeout_s)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # OSError covers refused connections, timeouts (the deadline's
            # too) and HTTP >= 400 (urllib.error.HTTPError); ValueError a
            # malformed URL.
            raise GatewayError(f"completion request failed: {exc}") from exc
        if len(raw) > _MAX_RESPONSE_BYTES:
            raise GatewayError(f"endpoint response larger than {_MAX_RESPONSE_BYTES} bytes")
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise GatewayError(f"endpoint returned invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "response" not in payload:
            raise GatewayError("endpoint response missing 'response' field")
        response = payload["response"]
        if not isinstance(response, str):
            raise GatewayError("endpoint response 'response' field is not a string")
        return response


def _read_body(http_response, deadline: float, timeout_s: float) -> bytes:
    """The reply body, up to one byte past the size cap, read in chunks.

    No chunk is requested past ``deadline``. ``timeout_s`` bounds each wait
    on the socket, so a server that drips its body holds a request for at
    most about twice ``timeout_s``.
    """
    chunks: list[bytes] = []
    size = 0
    while size <= _MAX_RESPONSE_BYTES:
        if time.monotonic() > deadline:
            raise TimeoutError(f"reply not complete within {timeout_s} s")
        chunk = http_response.read1(_MAX_RESPONSE_BYTES + 1 - size)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


class ReplayBackend:
    """Answers completions from a transcript; a miss is an error."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def complete(self, request: CompletionRequest) -> str:
        response = self.transcript.lookup(request.model_name, request.prompt)
        if response is None:
            raise ReplayMissError(
                f"no recorded response for model {request.model_name!r} "
                f"(request {request_hash(request.model_name, request.prompt)[:12]})"
            )
        return response


class Gateway:
    """Shared completion entry point over one backend.

    A lock serializes in-flight requests: one model at a time on a
    memory-constrained device.
    """

    def __init__(self, backend):
        self.backend = backend
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: CompletionRequest) -> str:
        with self._lock:
            self.calls += 1
            return self.backend.complete(request)


# --- Cypher extraction -----------------------------------------------------------


class CypherCandidate(NamedTuple):
    extracted_query: str | None
    extraction_method: str | None = None  # fenced-block | keyword-scan | whole-text


_QUERY_STARTERS = ("MATCH", "RETURN")


def _starts_with_query(text: str) -> bool:
    stripped = text.lstrip()
    return any(
        stripped.startswith(word) and not stripped[len(word) : len(word) + 1].isalnum()
        for word in _QUERY_STARTERS
    )


def _first_fenced_block(text: str) -> str | None:
    start = text.find("```")
    if start < 0:
        return None
    body_start = text.find("\n", start)
    if body_start < 0:
        # One-line fence such as ```MATCH (n) RETURN n```
        body_start = start + 3
        end = text.find("```", body_start)
        return text[body_start:end] if end > body_start else None
    end = text.find("```", body_start)
    if end < 0:
        return text[body_start + 1 :]
    return text[body_start + 1 : end]


def _scan_statement(text: str) -> str | None:
    """Find the first MATCH/RETURN and take through end of statement.

    The statement ends at a semicolon, a blank line, a closing code fence, or
    the end of the text, whichever comes first.
    """
    best: int | None = None
    for word in _QUERY_STARTERS:
        idx = text.find(word)
        while idx >= 0:
            before_ok = idx == 0 or not (text[idx - 1].isalnum() or text[idx - 1] == "_")
            after = text[idx + len(word) : idx + len(word) + 1]
            after_ok = not (after.isalnum() or after == "_")
            if before_ok and after_ok:
                if best is None or idx < best:
                    best = idx
                break
            idx = text.find(word, idx + 1)
    if best is None:
        return None
    tail = text[best:]
    cut = len(tail)
    for terminator in (";", "\n\n", "```"):
        pos = tail.find(terminator)
        if pos >= 0:
            cut = min(cut, pos + (1 if terminator == ";" else 0))
    return tail[:cut].strip()


def extract_cypher(llm_text: str) -> CypherCandidate:
    """Pull a Cypher query out of raw model output.

    Precedence: first fenced code block, then the first statement starting at
    a MATCH/RETURN keyword, then the whole text when it already is a bare
    query. A candidate always begins with MATCH or RETURN after trimming; if
    none is found the candidate is empty (downstream this grades as a failed
    query, the "nan" database outcome).
    """
    fenced = _first_fenced_block(llm_text)
    if fenced is not None:
        block = fenced.strip()
        # Drop a language tag line such as "cypher".
        first_line, _, rest = block.partition("\n")
        if first_line.strip().lower() in ("cypher", "cql", "sql") and rest.strip():
            block = rest.strip()
        if _starts_with_query(block):
            return CypherCandidate(block.rstrip(";").strip(), "fenced-block")
        statement = _scan_statement(block)
        if statement is not None:
            return CypherCandidate(statement.rstrip(";").strip(), "fenced-block")

    statement = _scan_statement(llm_text)
    if statement is not None:
        method = "whole-text" if llm_text.strip() == statement else "keyword-scan"
        return CypherCandidate(statement.rstrip(";").strip(), method)

    return CypherCandidate(None)
