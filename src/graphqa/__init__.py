"""graphqa: natural-language question answering over an embedded property
graph, plus the offline evaluation harness for grading it.

The question-answering workflow lives in ``graphqa.pipeline``, the query
engine in ``graphqa.cypher`` and the graph store in ``graphqa.graph``;
importing the package itself loads none of them.
"""

from .datafiles import data_path

__version__ = "0.1.0"

__all__ = ["data_path", "__version__"]
