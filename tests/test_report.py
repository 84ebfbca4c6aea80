import csv
import io
import re

import pytest

from graphqa.errors import ValidationError
from graphqa.evaluation import render_csv_report, render_text_report
from graphqa.evaluation.scoring import MetricsReport, ModelScores


def _report():
    return MetricsReport(
        scores={
            "llama3.1:8b": ModelScores(
                n=77,
                em_score=100.0 * 29 / 77,
                content_score=100.0 * 47 / 77,
                output_score=100.0 * 74 / 77,
                misinformation_score=100.0 * 4 / 77,
                absolute_score=100.0 * 44 / 77,
                absolute_em_only=100.0 * 29 / 77,
            ),
            "gemma2:2b": ModelScores(
                n=77,
                em_score=100.0 * 12 / 77,
                content_score=100.0 * 40 / 77,
                output_score=100.0 * 59 / 77,
                misinformation_score=100.0 * 27 / 77,
                absolute_score=100.0 * 26 / 77,
                absolute_em_only=100.0 * 11 / 77,
            ),
        }
    )


def test_text_report_shape_and_rounding():
    text = render_text_report(_report())
    assert "Scores per model" in text
    assert "Misinformation" in text
    assert "Absolute (EM only)" in text
    # One row per model, one-decimal percentages.
    line = next(l for l in text.splitlines() if l.startswith("llama3.1:8b"))
    assert "37.7%" in line and "61.0%" in line and "96.1%" in line and "57.1%" in line
    line = next(l for l in text.splitlines() if l.startswith("gemma2:2b"))
    assert "15.6%" in line and "51.9%" in line and "76.6%" in line and "33.8%" in line


def test_csv_round_trip_reloads_to_equal_report():
    report = _report()
    rows = list(csv.DictReader(io.StringIO(render_csv_report(report))))
    reloaded = {
        row.pop("model"): ModelScores(n=int(row.pop("n")), **{key: float(value) for key, value in row.items()})
        for row in rows
    }
    assert reloaded == report.scores  # every score at full precision


def test_render_is_deterministic():
    assert render_text_report(_report()) == render_text_report(_report())
    assert render_csv_report(_report()) == render_csv_report(_report())


def test_empty_report_rejected():
    with pytest.raises(ValidationError):
        render_text_report(MetricsReport(scores={}))
    with pytest.raises(ValidationError):
        render_csv_report(MetricsReport(scores={}))


def test_length_rows_are_sorted_by_model_keeping_run_order_within_each():
    lengths = (
        ("llama3.1:8b", "Where is tower 4?", 44),
        ("gemma2:2b", "Where is tower 4?", None),
        ("llama3.1:8b", "How many sensors are on tower 8?", 21),
        ("gemma2:2b", "How many sensors are on tower 8?", 9),
        ("llama3.1:8b", "Are there sensors on tower 22?", 2),
    )
    text = render_text_report(_report()._replace(lengths=lengths))
    table = text.split("(original questions)\n")[1].splitlines()
    assert [re.split(r"\s{2,}", row) for row in table[2:]] == [
        ["gemma2:2b", "Where is tower 4?", "-"],
        ["gemma2:2b", "How many sensors are on tower 8?", "9"],
        ["llama3.1:8b", "Where is tower 4?", "44"],
        ["llama3.1:8b", "How many sensors are on tower 8?", "21"],
        ["llama3.1:8b", "Are there sensors on tower 22?", "2"],
    ]
