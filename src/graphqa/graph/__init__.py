from .dataset import dataset_to_graph, load_dataset, load_dataset_file, serialize_dataset
from .fixture import GeneratorConfig, generate_msa_fixture

__all__ = [
    "GeneratorConfig",
    "dataset_to_graph",
    "generate_msa_fixture",
    "load_dataset",
    "load_dataset_file",
    "serialize_dataset",
]
