"""``tools/make_fixtures.py`` regenerates the shipped data byte for byte.

The script builds its transcripts through ``pipeline.run_stage1``, so a
change to stage 1 that alters any database output embedded in a stage-2
prompt shows up here as a transcript that differs from the shipped one.
"""

import importlib.util
import os
from pathlib import Path

from graphqa import data_path

SCRIPT = Path(__file__).parent.parent / "tools" / "make_fixtures.py"
GENERATED = ["msa_dataset.jsonl", "corpus.json"] + [
    os.path.join("transcripts", name)
    for name in ("gemma2_2b.jsonl", "llama3.2_3b.jsonl", "llama3.1_8b.jsonl", "deepseek-coder_6.7b.jsonl")
]


def test_make_fixtures_reproduces_shipped_data(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.DATA_DIR = str(tmp_path)

    make_fixtures.main()

    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(GENERATED)
    for name in GENERATED:
        assert (tmp_path / name).read_bytes() == Path(data_path(name)).read_bytes(), name
