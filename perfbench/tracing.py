"""In-memory spans around the public functions of each graphqa layer.

``install`` replaces each traced name in the namespace of the module that
calls it (for example ``graphqa.pipeline.execute``) with a wrapper that
records one span per call: name, start, end, parent span and operation id.
Nothing under ``src/`` changes; a name that a later version no longer has is
skipped and its metrics read 0. The untraced run never calls ``install``.

A span's self time is its duration minus the durations of its child spans.
Calls are nested in one thread, so child spans never overlap.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name). A dotted attribute names a method on a
# class in that module. Each module is the one whose code calls the name.
TARGETS = [
    ("graphqa.pipeline", "schema_description", "graph.store.schema"),
    ("graphqa.graph.dataset", "parse_dataset", "graph.dataset.parse"),
    ("graphqa.graph.dataset", "dataset_to_graph", "graph.dataset.build"),
    ("graphqa.cypher.parser", "tokenize", "cypher.tokens.tokenize"),
    ("graphqa.pipeline", "parse_query", "cypher.parser.parse"),
    ("graphqa.cypher", "parse_query", "cypher.parser.parse"),
    ("graphqa.cypher.executor", "enumerate_bindings", "cypher.executor.match"),
    ("graphqa.pipeline", "execute", "cypher.executor.execute"),
    ("graphqa.cypher", "execute", "cypher.executor.execute"),
    ("graphqa.pipeline", "serialize_records", "cypher.records.serialize"),
    ("graphqa.cypher", "serialize_records", "cypher.records.serialize"),
    ("graphqa.llm", "Transcript.load", "llm.transcript_load"),
    ("graphqa.llm", "Gateway.complete", "llm.complete"),
    ("graphqa.pipeline", "extract_cypher", "llm.extract"),
    ("graphqa.evaluation.harness", "answer_question", "pipeline.answer"),
    ("graphqa.pipeline", "answer_question", "pipeline.answer"),
    ("graphqa.evaluation.harness", "grade_run", "evaluation.grade"),
    ("graphqa.evaluation", "compute_metrics", "evaluation.aggregate"),
    ("graphqa.evaluation", "render_text_report", "evaluation.render"),
    ("graphqa.evaluation", "render_csv_report", "evaluation.render"),
]

# Spans whose EngineError is counted: the outermost engine calls, so an error
# raised by tokenize or enumerate_bindings is counted once, by its caller.
_ERROR_SPANS = {"cypher.parser.parse", "cypher.executor.execute"}


def _note_result(tracer: "Tracer", name: str, result) -> None:
    counts = tracer.counts
    if name == "cypher.executor.match":
        counts["bindings"] += len(result)
    elif name == "cypher.executor.execute":
        counts["rows"] += len(result.rows)
    elif name == "cypher.records.serialize":
        counts["output_bytes"] += len(result.encode("utf-8"))
    elif name == "llm.extract":
        counts["extract_misses"] += result.extracted_query is None
    elif name == "pipeline.answer":
        for key, prompt in (("task1_prompt_chars", result.task1_prompt), ("task2_prompt_chars", result.task2_prompt)):
            counts[key] += len(prompt)
            tracer.maxima[key] = max(tracer.maxima.get(key, 0), len(prompt))


class Tracer:
    """Spans kept in flat arrays, plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.op = 0
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.skipped: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        tracer = self
        counts_errors = name in _ERROR_SPANS

        def traced(*args, **kwargs):
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._open[-1] if tracer._open else -1)
            if name == "pipeline.answer" and not tracer._open:
                tracer.op += 1
            tracer.ops.append(tracer.op)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counts_errors and hasattr(exc, "kind"):
                    tracer.counts["errors." + exc.kind] += 1
                raise
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.starts[index] = start
                tracer.ends[index] = end
            _note_result(tracer, name, result)
            return result

        return traced

    def add_spans(self, dump: dict, op: int) -> None:
        """Append the spans a child process recorded, keeping their nesting."""
        base = len(self.names)
        self.names.extend(dump["names"])
        self.starts.extend(dump["starts"])
        self.ends.extend(dump["ends"])
        self.parents.extend(p + base if p >= 0 else -1 for p in dump["parents"])
        self.ops.extend(op for _ in dump["names"])
        self.counts.update(dump["counts"])
        for key, value in dump["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "starts": list(self.starts),
            "ends": list(self.ends),
            "parents": list(self.parents),
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }

    def self_times(self) -> tuple[dict[str, tuple[int, float]], float]:
        """Per span name: (calls, total self seconds); and top-level seconds."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        self_s = list(durations)
        top_level = 0.0
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= durations[index]
            else:
                top_level += durations[index]
        totals: dict[str, tuple[int, float]] = {}
        for name, seconds in zip(self.names, self_s):
            calls, total = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, total + seconds)
        return totals, top_level

    def write(self, path: str, meta: dict, limit: int = 200_000) -> None:
        """Write a JSON header line, then one tab-separated line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, spans=len(self.names), written=min(limit, len(self.names)))) + "\n")
            fh.write("name\tstart\tend\tparent\top\n")
            for index in range(min(limit, len(self.names))):
                fh.write(
                    f"{self.names[index]}\t{self.starts[index]:.9f}\t{self.ends[index]:.9f}"
                    f"\t{self.parents[index]}\t{self.ops[index]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every name in ``TARGETS`` that this version of graphqa has."""
    for module_name, attribute, span_name in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.skipped.append(f"{module_name}.{attribute}")
            continue
        *class_path, leaf = attribute.split(".")
        for part in class_path:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(leaf) if class_path else getattr(owner, leaf, None)
        if raw is None:
            tracer.skipped.append(f"{module_name}.{attribute}")
        elif isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(span_name, raw.__func__)))
        else:
            setattr(owner, leaf, tracer.wrap(span_name, raw))
