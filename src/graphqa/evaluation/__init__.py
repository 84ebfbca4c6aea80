from .corpus import QuestionSpec, corpus_instances, load_corpus, save_corpus, validate_corpus
from .harness import evaluate_model, load_run_records, metric_rows, save_run_records
from .report import render_csv_report, render_text_report
from .scoring import compute_metrics

__all__ = [
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
]
