from .dataset import dataset_to_graph, load_dataset, load_dataset_file, serialize_dataset

__all__ = [
    "GeneratorConfig",
    "dataset_to_graph",
    "generate_msa_fixture",
    "load_dataset",
    "load_dataset_file",
    "serialize_dataset",
]


def __getattr__(name: str):
    # The generator loads on first use: answering a question never runs it.
    if name in ("GeneratorConfig", "generate_msa_fixture"):
        from . import fixture

        return getattr(fixture, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
