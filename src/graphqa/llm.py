"""LLM gateway: HTTP completion client, transcript replay, and extraction
of Cypher from raw model output.

The live backend speaks the single-turn "generate" convention of local model
servers (POST {model, prompt, stream: false, options} -> {"response": ...})
over the standard library's ``urllib``, always at temperature 0.
A replay backend answers exclusively from a transcript, keyed by exact
(model, prompt) match, which makes any pipeline run reproducible offline; a
run record holds the same pairs for both of its calls, so the CLI replays an
eval's run records too. A replay miss raises: it never silently falls back to
a live call.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .datafiles import atomic_write, json_lines, sorted_json
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
    # A lone surrogate (argv decodes a stray byte to one) is hashed as its
    # three UTF-8-style bytes; every valid string keeps its strict digest.
    return hashlib.sha256(f"{model_name}\x00{prompt}".encode("utf-8", "surrogatepass")).hexdigest()


class TranscriptEntry(NamedTuple):
    model_name: str
    prompt: str
    response: str
    timestamp: str = ""


def _invalid_json(lineno: int, exc: json.JSONDecodeError) -> GatewayError:
    return GatewayError(f"transcript line {lineno}: invalid JSON: {exc.msg}")


def _entry_number(position: int) -> str:
    return f"entry {position + 1}"


class Transcript:
    """Recorded (model, prompt) -> response pairs, stored as JSON lines.

    Each request has one response: an entry that repeats a recorded request
    with another response is a ``GatewayError`` that names both entries,
    ``name(i)`` naming the one at position ``i`` of ``entries`` (by line in
    a loaded file). An identical repeat is kept.
    """

    def __init__(self, entries: Iterable[TranscriptEntry] = (), name: Callable[[int], str] = _entry_number):
        self.entries: list[TranscriptEntry] = []
        self._index: dict[tuple[str, str], str] = {}
        kept, index = self.entries, self._index
        for entry in entries:
            key = entry[:2]  # (model_name, prompt), the key lookup takes
            if index.setdefault(key, entry.response) != entry.response:
                first = next(i for i, known in enumerate(kept) if known[:2] == key)
                raise GatewayError(
                    f"transcript {name(len(kept))}: response differs from {name(first)} for the same model and prompt"
                )
            kept.append(entry)

    def lookup(self, model_name: str, prompt: str) -> str | None:
        return self._index.get((model_name, prompt))

    def __len__(self) -> int:
        return len(self.entries)

    def dumps(self) -> str:
        """The transcript document; each line's keys are sorted, and one encoder writes every line."""
        lines = [sorted_json({"kind": "transcript", "schema_version": TRANSCRIPT_SCHEMA_VERSION})]
        for entry in self.entries:
            lines.append(
                sorted_json(
                    {
                        "request_sha256": request_hash(entry.model_name, entry.prompt),
                        "model": entry.model_name,
                        "prompt": entry.prompt,
                        "response": entry.response,
                        "timestamp": entry.timestamp,
                    }
                )
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> Transcript:
        entries: list[TranscriptEntry] = []
        linenos: list[int] = []
        for lineno, obj in json_lines(text.splitlines(), _invalid_json):
            if type(obj) is not dict:
                raise GatewayError(f"transcript line {lineno}: not a JSON object")
            if obj.get("kind") == "transcript":
                if obj.get("schema_version") != TRANSCRIPT_SCHEMA_VERSION:
                    raise GatewayError(f"unsupported transcript schema_version {obj.get('schema_version')!r}")
                continue
            try:
                model_name, prompt, response = obj["model"], obj["prompt"], obj["response"]
            except KeyError as exc:
                raise GatewayError(f"transcript line {lineno}: missing field {exc.args[0]!r}") from exc
            if type(model_name) is not str or type(prompt) is not str or type(response) is not str:
                raise GatewayError(f"transcript line {lineno}: model, prompt and response must be strings")
            timestamp = obj.get("timestamp", "")
            if type(timestamp) is not str:
                raise GatewayError(f"transcript line {lineno}: timestamp must be a string")
            expected = obj.get("request_sha256")
            if expected and expected != request_hash(model_name, prompt):
                raise GatewayError(f"transcript line {lineno}: request hash mismatch")
            entries.append(TranscriptEntry(model_name, prompt, response, timestamp))
            linenos.append(lineno)
        return cls(entries, lambda i: f"line {linenos[i]}")

    @classmethod
    def load(cls, path: str) -> Transcript:
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
