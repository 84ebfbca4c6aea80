"""The names each package exports are exactly the ones its callers outside
the tests import through it: the CLI, ``tools/make_fixtures.py`` and
``perfbench/``. Tests import everything else from the defining module."""

import importlib

import pytest

SURFACE = {
    "graphqa": {"__version__", "data_path"},
    "graphqa.cypher": {"canonicalize_query", "execute", "haversine_distance", "parse_query", "serialize_records"},
    "graphqa.graph": {
        "GeneratorConfig",
        "dataset_to_graph",
        "generate_msa_fixture",
        "load_dataset",
        "load_dataset_file",
        "serialize_dataset",
    },
    "graphqa.evaluation": {
        "QuestionSpec",
        "compute_metrics",
        "corpus_instances",
        "evaluate_model",
        "load_corpus",
        "load_run_records",
        "metric_rows",
        "render_csv_report",
        "render_text_report",
        "save_corpus",
        "save_run_records",
        "validate_corpus",
    },
}


@pytest.mark.parametrize("package", SURFACE)
def test_package_exports_exactly_its_public_names(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == SURFACE[package]
    for name in module.__all__:
        assert getattr(module, name) is not None
