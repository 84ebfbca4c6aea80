import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle/generators helpers

from graphqa import data_path
from graphqa.evaluation import load_corpus
from graphqa.graph import generate_msa_fixture, load_dataset, serialize_dataset
from graphqa.pipeline import load_templates


@pytest.fixture(scope="session")
def dataset_text() -> str:
    return serialize_dataset(generate_msa_fixture())


@pytest.fixture(scope="session")
def fixture_graph(dataset_text):
    return load_dataset(dataset_text)


@pytest.fixture(scope="session")
def shipped_dataset_path() -> str:
    return data_path("msa_dataset.jsonl")


@pytest.fixture(scope="session")
def shipped_corpus_path() -> str:
    return data_path("corpus.json")


@pytest.fixture(scope="session")
def transcripts_dir() -> str:
    return data_path("transcripts")


@pytest.fixture(scope="session")
def corpus(shipped_corpus_path):
    return load_corpus(shipped_corpus_path)


@pytest.fixture(scope="session")
def templates():
    return load_templates()
