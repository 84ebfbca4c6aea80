"""``tools/transcript_server.py`` answers the live HTTP client from the
shipped transcripts, so a live eval reproduces the replay eval's reports."""

import importlib.util
import json
import shutil
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from graphqa.cli import EXIT_OK, main
from graphqa.datafiles import data_path
from graphqa.evaluation import load_run_records

ROOT = Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location("transcript_server", ROOT / "tools" / "transcript_server.py")
transcript_server = importlib.util.module_from_spec(spec)
spec.loader.exec_module(transcript_server)

MODELS = "llama3.1:8b,llama3.2:3b,gemma2:2b,deepseek-coder:6.7b"


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture()
def source(tmp_path):
    """A copy of the shipped transcripts, for the server to serve."""
    shutil.copytree(data_path("transcripts"), tmp_path / "transcripts")
    return tmp_path / "transcripts"


@pytest.fixture()
def endpoint(source):
    server = transcript_server.make_server(str(source))
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def _runs_without_durations(path: Path) -> list:
    return [record._replace(run=record.run._replace(durations={})) for record in load_run_records(str(path))[1]]


def test_a_live_eval_through_the_server_writes_the_replay_reports(endpoint, source, tmp_path):
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert main(["eval", "--models", MODELS, "--endpoint", endpoint, "--out", str(live)]) == EXIT_OK
    assert main(["eval", "--models", MODELS, "--replay", data_path("transcripts"), "--out", str(replay)]) == EXIT_OK
    for name in ("report.txt", "report.csv"):
        assert (live / name).read_bytes() == (replay / name).read_bytes()
    runs = sorted(path.name for path in replay.glob("*.runs.jsonl"))
    assert len(runs) == 4 and sorted(path.name for path in live.glob("*.runs.jsonl")) == runs
    for name in runs:
        assert _runs_without_durations(live / name) == _runs_without_durations(replay / name)
    assert _files(source) == _files(Path(data_path("transcripts")))  # serving wrote nothing


@pytest.mark.parametrize(
    "body, status, error",
    [
        ({"model": "llama3.1:8b", "prompt": "no such prompt"}, 404, "no recorded response for model 'llama3.1:8b'"),
        ({"model": "llama3.1:8b"}, 400, "the body must be a JSON object with a string model and prompt"),
        (["llama3.1:8b", "p"], 400, "the body must be a JSON object with a string model and prompt"),
    ],
    ids=["miss", "no-prompt", "not-an-object"],
)
def test_a_miss_or_a_malformed_request_gets_an_http_error_with_a_json_body(endpoint, body, status, error):
    request = urllib.request.Request(endpoint + "/api/generate", data=json.dumps(body).encode("utf-8"))
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=5)
    with caught.value as reply:
        assert reply.code == status
        assert reply.headers["Content-Type"] == "application/json"
        assert json.loads(reply.read())["error"].startswith(error)

