import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from graphqa.errors import GatewayError, ReplayMissError
from graphqa.llm import (
    CompletionRequest,
    CypherCandidate,
    Gateway,
    LiveBackend,
    ReplayBackend,
    Transcript,
    TranscriptEntry,
    extract_cypher,
    request_hash,
)

TOWER_QUERY = "MATCH (t:Tower {Tower: 4}) RETURN t.Lat AS Lat, t.Long AS Long"


class _StubHandler(BaseHTTPRequestHandler):
    # Faulty replies, chosen by the request's model name.
    FAULTS = {
        "http-500": (500, b'{"error": "model crashed"}'),
        "not-json": (200, b"<html>busy</html>"),
        "no-response": (200, b"{}"),
        "null-response": (200, b'{"response": null}'),
        "list-response": (200, b'{"response": ["a"]}'),
        "oversize": (200, b'{"response": "' + b"x" * 2**20 + b'"}'),  # 1 MiB + 16 bytes
    }

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        self.server.received.append((self.path, self.headers["Content-Type"], raw))
        body = json.loads(raw)
        if body["model"] == "slow":
            time.sleep(0.3)
        if body["model"] == "drip":
            self._drip(b'{"response": "' + b"d" * 14 + b'"}', interval_s=0.02)
            return
        # Deterministic canned reply derived from the prompt.
        response = {"response": f"echo({body['model']}): {body['prompt'][-20:]}"}
        if body["model"] == "counter":  # one query, whatever the prompt
            response = {"response": "MATCH (t:Tower) RETURN count(t) AS towers"}
        status, payload = self.FAULTS.get(body["model"], (200, json.dumps(response).encode()))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _drip(self, payload, interval_s):
        """Send a whole, valid reply one byte at a time; stop once the client has gone."""
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        try:
            for i in range(len(payload)):
                self.wfile.write(payload[i : i + 1])
                time.sleep(interval_s)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.received = []  # (path, content type, raw body) per request
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def stub_server(stub):
    return f"http://127.0.0.1:{stub.server_port}"


def test_live_request_body_is_the_generate_wire_format(stub, stub_server):
    LiveBackend(stub_server + "/").complete(CompletionRequest("m1", "say hi"))
    ((path, content_type, raw),) = stub.received
    assert path == "/api/generate"
    assert content_type == "application/json"
    body = json.loads(raw)
    assert body == {"model": "m1", "prompt": "say hi", "stream": False, "options": {"temperature": 0.0}}
    assert type(body["options"]["temperature"]) is float


@pytest.mark.parametrize(
    "model, message",
    [
        ("http-500", "completion request failed: HTTP Error 500"),
        ("not-json", "endpoint returned invalid JSON"),
        ("no-response", "endpoint response missing 'response' field"),
        ("null-response", "endpoint response 'response' field is not a string"),
        ("list-response", "endpoint response 'response' field is not a string"),
        ("oversize", "endpoint response larger than 1048576 bytes"),
    ],
)
def test_live_faulty_replies_raise_gateway_error(stub_server, model, message):
    gateway = Gateway(LiveBackend(stub_server))
    with pytest.raises(GatewayError, match=message):
        gateway.complete(CompletionRequest(model, "p"))


def test_live_read_timeout_raises_gateway_error(stub_server):
    with pytest.raises(GatewayError, match="completion request failed: .*timed out"):
        LiveBackend(stub_server, timeout_s=0.1).complete(CompletionRequest("slow", "p"))


def test_live_dripped_body_is_cut_at_the_deadline(stub_server):
    # 30 bytes at 50 B/s: each byte arrives well inside the socket timeout,
    # but the whole reply takes 0.6 s.
    started = time.monotonic()
    with pytest.raises(GatewayError, match="completion request failed: reply not complete within 0.1 s"):
        LiveBackend(stub_server, timeout_s=0.1).complete(CompletionRequest("drip", "p"))
    assert time.monotonic() - started < 0.5


def test_transcript_round_trip(tmp_path):
    transcript = Transcript(
        [
            TranscriptEntry("m", "prompt one", "reply one", "2025-08-01T00:00:00Z"),
            TranscriptEntry("m", "prompt two", "reply\nwith newline", ""),
        ]
    )
    path = tmp_path / "t.jsonl"
    transcript.save(str(path))
    loaded = Transcript.load(str(path))
    assert len(loaded) == 2
    assert loaded.lookup("m", "prompt one") == "reply one"
    assert loaded.lookup("m", "prompt two") == "reply\nwith newline"
    assert loaded.dumps() == transcript.dumps()


def test_transcript_hash_mismatch_rejected(tmp_path):
    bad = json.dumps(
        {"request_sha256": "0" * 64, "model": "m", "prompt": "p", "response": "r", "timestamp": ""}
    )
    with pytest.raises(GatewayError):
        Transcript.loads('{"kind": "transcript", "schema_version": "1"}\n' + bad)


HEADER = '{"kind": "transcript", "schema_version": "1"}'


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "transcript line 2: entry must be an object$"),
        ('"reply"', "transcript line 2: entry must be an object$"),
        ("null", "transcript line 2: entry must be an object$"),
        (
            '{"model": 1, "prompt": "p", "response": "r", "request_sha256": "0"}',
            "transcript line 2: entry field 'model' has the wrong type int$",
        ),
        ('{"model": "m", "prompt": "p", "response": 5}', "transcript line 2: entry field 'response' has the wrong type int$"),
        ("{oops", "transcript line 2: invalid JSON: Expecting property name enclosed in double quotes$"),
        ("{} {}", "transcript line 2: invalid JSON: Extra data$"),
        ('\ufeff{"model": "m", "prompt": "p", "response": "r"}', r"transcript line 2: invalid JSON: Unexpected UTF-8 BOM \("),
        ('{"model": "m", "response": "r"}', "transcript line 2: missing field 'prompt'$"),
        (
            json.dumps({"request_sha256": "0" * 64, "model": "m", "prompt": "p", "response": "r"}),
            "transcript line 2: request hash mismatch$",
        ),
        ('{"kind": "transcript", "schema_version": "1"}', "transcript line 2: a second header line; the header is line 1$"),
        ('{"model": "m", "prompt": "p", "response": "r", "timestamp": 5}', "transcript line 2: entry field 'timestamp' has the wrong type int$"),
    ],
)
def test_malformed_transcript_line_rejected(line, message):
    with pytest.raises(GatewayError, match=f"^{message}"):
        Transcript.loads(HEADER + "\n" + line)


@pytest.mark.parametrize("unchecked", ['"request_sha256": ""', '"request_sha256": null', '"request_sha256": 0', '"note": 5'])
def test_a_falsy_request_hash_and_an_unknown_field_are_not_checked(unchecked):
    transcript = Transcript.loads(HEADER + '\n{"model": "m", "prompt": "p", "response": "r", ' + unchecked + "}")
    assert transcript.entries == [TranscriptEntry("m", "p", "r")]


MISSING_TRANSCRIPT_HEADER = 'missing header line {"kind": "transcript", "schema_version": "1"}$'


@pytest.mark.parametrize(
    "text, message",
    [
        ("", f"transcript line 1: {MISSING_TRANSCRIPT_HEADER}"),
        ('{"model": "m", "prompt": "p", "response": "r"}', f"transcript line 1: {MISSING_TRANSCRIPT_HEADER}"),
        (f'\n\n[]\n{HEADER}', f"transcript line 3: {MISSING_TRANSCRIPT_HEADER}"),
        ('{"kind": "header", "schema_version": "1"}', f"transcript line 1: {MISSING_TRANSCRIPT_HEADER}"),
        ('{"kind": "transcript", "schema_version": "2"}', "transcript line 1: unsupported schema_version '2'$"),
        ('{"kind": "transcript"}', "transcript line 1: unsupported schema_version None$"),
    ],
    ids=["empty", "no-header", "header-not-first", "a-dataset-header", "version-2", "no-version"],
)
def test_a_transcript_needs_its_header_first(text, message):
    with pytest.raises(GatewayError, match=f"^{message}"):
        Transcript.loads(text)
    assert Transcript.loads(f"\n \n{HEADER}\n").entries == []


def test_a_prompt_holding_a_lone_surrogate_is_hashed_and_checked():
    assert request_hash("m", "p") == hashlib.sha256(b"m\x00p").hexdigest()  # valid text keeps its digest
    prompt = "tower \ud800"
    line = {"request_sha256": request_hash("m", prompt), "model": "m", "prompt": prompt, "response": "r"}
    transcript = Transcript.loads(HEADER + "\n" + json.dumps(line))
    assert transcript.lookup("m", prompt) == "r"
    assert Transcript.loads(transcript.dumps()).entries == transcript.entries
    line["request_sha256"] = "0" * 64
    with pytest.raises(GatewayError, match="^transcript line 2: request hash mismatch$"):
        Transcript.loads(HEADER + "\n" + json.dumps(line))


def test_padded_line_loads_and_whitespace_only_line_is_skipped():
    line = json.dumps({"model": "m", "prompt": "p", "response": "r"})
    transcript = Transcript.loads("\n".join([HEADER, " \t ", f"  {line}\t"]))
    assert transcript.entries == [TranscriptEntry("m", "p", "r")]
    # The skipped line still counts: the next line is line 4.
    with pytest.raises(GatewayError, match="^transcript line 4: entry must be an object$"):
        Transcript.loads("\n".join([HEADER, " \t ", f"  {line}\t", "[]"]))


def test_a_request_has_one_response():
    first, second = (json.dumps({"model": "m", "prompt": "p", "response": reply}) for reply in ("a", "b"))
    other_model = json.dumps({"model": "n", "prompt": "p", "response": "b"})
    text = "\n".join([HEADER, first, other_model, second])
    with pytest.raises(GatewayError, match="^transcript line 4: response differs from line 2 for the same model and prompt$"):
        Transcript.loads(text)
    entries = [TranscriptEntry("m", "p", "a"), TranscriptEntry("n", "p", "b"), TranscriptEntry("m", "p", "b")]
    with pytest.raises(GatewayError, match="^transcript entry 3: response differs from entry 1 "):
        Transcript(entries)
    with pytest.raises(GatewayError, match="^transcript run c: response differs from run a "):
        Transcript(entries, lambda i: f"run {'abc'[i]}")
    # An identical repeat loads and is kept, as before.
    repeated = Transcript.loads("\n".join([HEADER, first, first]))
    assert len(repeated) == 2 and repeated.lookup("m", "p") == "a"
    transcript = Transcript([TranscriptEntry("m", "p", "a"), TranscriptEntry("m", "p", "a", "2025-08-01T00:00:00Z")])
    assert len(transcript) == 2


def test_replay_hit_and_miss():
    transcript = Transcript([TranscriptEntry("m", "p", "r")])
    gateway = Gateway(ReplayBackend(transcript))
    assert gateway.complete(CompletionRequest("m", "p")) == "r"
    with pytest.raises(ReplayMissError):
        gateway.complete(CompletionRequest("m", "other prompt"))
    with pytest.raises(ReplayMissError):
        gateway.complete(CompletionRequest("other-model", "p"))


def test_live_stub_is_deterministic(stub_server):
    gateway = Gateway(LiveBackend(stub_server))
    request = CompletionRequest("m1", "say hi")
    assert gateway.complete(request) == gateway.complete(request)


def test_a_live_eval_replays_from_its_own_out_directory(stub_server, tmp_path):
    from graphqa.cli import EXIT_OK, main
    from graphqa.evaluation import load_run_records

    # "counter" answers with a query the engine runs; every call to "http-500" fails.
    args = ["eval", "--models", "m1,counter,http-500", "--originals-only"]
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert main([*args, "--endpoint", stub_server, "--out", str(live)]) == EXIT_OK
    assert main([*args, "--replay", str(live), "--out", str(replay)]) == EXIT_OK
    for name in ("report.txt", "report.csv"):
        assert (replay / name).read_bytes() == (live / name).read_bytes()

    def runs(directory, name):
        """The run records of a runs file, without their timings."""
        records = load_run_records(str(directory / name))[1]
        assert len(records) == 7
        return [record._replace(run=record.run._replace(durations={})) for record in records]

    for name in ("m1.runs.jsonl", "counter.runs.jsonl"):
        assert runs(replay, name) == runs(live, name)
    assert {record.run.db_output for record in runs(live, "counter.runs.jsonl")} == {"[<Record towers=13>]"}
    # A call that failed live left no response, so it replays as a miss.
    for record in runs(live, "http-500.runs.jsonl"):
        assert record.run.failure.startswith("task1: completion request failed: HTTP Error 500")
    for record in runs(replay, "http-500.runs.jsonl"):
        assert record.run.failure.startswith("task1: no recorded response for model 'http-500'")


def test_live_gateway_error_on_unreachable_endpoint():
    gateway = Gateway(LiveBackend("http://127.0.0.1:1", timeout_s=0.2))
    with pytest.raises(GatewayError, match="completion request failed"):
        gateway.complete(CompletionRequest("m", "p"))
    # URLs without a scheme fail the same way (urllib raises ValueError for
    # the first, URLError for the second).
    for url in ("127.0.0.1", "127.0.0.1:1"):
        with pytest.raises(GatewayError, match="completion request failed: .*unknown url type"):
            LiveBackend(url).complete(CompletionRequest("m", "p"))


def test_request_hash_distinguishes_model_and_prompt():
    assert request_hash("a", "p") != request_hash("b", "p")
    assert request_hash("a", "p") != request_hash("a", "q")


# --- extraction ---------------------------------------------------------------


def test_extract_fenced_block():
    candidate = extract_cypher(f"```cypher\n{TOWER_QUERY}\n```")
    assert candidate.extracted_query == TOWER_QUERY
    assert candidate.extraction_method == "fenced-block"


def test_extract_fenced_block_without_language_tag():
    candidate = extract_cypher(f"Some preamble.\n```\n{TOWER_QUERY};\n```\nDone.")
    assert candidate.extracted_query == TOWER_QUERY
    assert candidate.extraction_method == "fenced-block"


def test_extract_keyword_scan_mid_line():
    candidate = extract_cypher(f"Here is the query: {TOWER_QUERY}")
    assert candidate.extracted_query == TOWER_QUERY
    assert candidate.extraction_method == "keyword-scan"


def test_extract_keyword_scan_skips_a_keyword_inside_a_word():
    candidate = extract_cypher("The RETURNED rows come from MATCH (n) RETURN n")
    assert candidate == CypherCandidate("MATCH (n) RETURN n", "keyword-scan")


def test_extract_whole_text():
    candidate = extract_cypher(TOWER_QUERY)
    assert candidate.extracted_query == TOWER_QUERY
    assert candidate.extraction_method == "whole-text"


def test_extract_stops_at_statement_end():
    text = f"{TOWER_QUERY};\nHope this helps!"
    assert extract_cypher(text).extracted_query == TOWER_QUERY
    text = f"{TOWER_QUERY}\n\nExplanation: the query matches tower 4."
    assert extract_cypher(text).extracted_query == TOWER_QUERY


def test_extract_multiline_fenced_query():
    multiline = "MATCH (t:Tower {Tower: 4})\nRETURN t.Lat AS Lat"
    candidate = extract_cypher(f"```\n{multiline}\n```")
    assert candidate.extracted_query == multiline


FENCES = {
    # A fence with no newline after it holds its query on one line.
    "one-line": ("Try ```MATCH (n) RETURN n``` here", "MATCH (n) RETURN n"),
    # A fence that is never closed runs to the end of the text, blank lines included.
    "unclosed": ("```cypher\nMATCH (n)\n\nRETURN n;", "MATCH (n)\n\nRETURN n"),
    # A bare language tag on the block's first line is dropped, and the rest taken whole.
    "bare-tag-line": ("```\ncypher\nMATCH (n)\n\nRETURN n\n```", "MATCH (n)\n\nRETURN n"),
    # Prose before the query inside the block: the statement is scanned for there.
    "prose-then-query": ("```\nHere it is:\nMATCH (n) RETURN n;\nThat is all.\n```", "MATCH (n) RETURN n"),
}


@pytest.mark.parametrize("text, query", FENCES.values(), ids=FENCES)
def test_extract_each_shape_of_fenced_block(text, query):
    assert extract_cypher(text) == CypherCandidate(query, "fenced-block")


def test_extract_failure_returns_no_candidate():
    candidate = extract_cypher("I cannot answer that.")
    assert candidate.extracted_query is None
    assert candidate.extraction_method is None


def test_extract_lowercase_prose_return_not_picked_up():
    candidate = extract_cypher("I will return to this question later.")
    assert candidate.extracted_query is None


def test_extracted_candidates_always_start_with_match_or_return():
    samples = [
        f"```cypher\n{TOWER_QUERY}\n```",
        f"notes\n{TOWER_QUERY}",
        "RETURN 1",
        "```json\n{}\n```\nUse MATCH (n) RETURN n",
        "CREATE (n) RETURN n",
    ]
    for text in samples:
        candidate = extract_cypher(text)
        if candidate.extracted_query is not None:
            assert candidate.extracted_query.startswith(("MATCH", "RETURN"))
