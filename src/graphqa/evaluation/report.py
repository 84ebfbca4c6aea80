"""Report rendering: aligned text tables and a delimited (CSV) form.

The text form mirrors the benchmark write-up layout: one score table with
EM / Content / Output / Absolute columns, an absolute-score comparison table,
a misinformation table, and a content-length table for the original (not
rephrased) questions. Percentages are rendered to one decimal place. The CSV
form carries full-precision scores.
"""

from __future__ import annotations

import csv
import io

from ..errors import ValidationError
from .scoring import MetricsReport, ModelScores


def _pct(value: float) -> str:
    return f"{value:.1f}%"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_text_report(report: MetricsReport) -> str:
    if not report.scores:
        raise ValidationError("empty report")
    models = sorted(report.scores)
    sections: list[str] = []

    rows = [
        [m, str(s.n), _pct(s.em_score), _pct(s.content_score), _pct(s.output_score), _pct(s.absolute_score)]
        for m, s in ((m, report.scores[m]) for m in models)
    ]
    sections.append(
        "Scores per model\n"
        + _table(["Model", "N", "EM score", "Content score", "Output score", "Absolute score"], rows)
    )

    rows = [
        [m, _pct(report.scores[m].absolute_em_only), _pct(report.scores[m].absolute_score)]
        for m in models
    ]
    sections.append(
        "Absolute score: exact-match-only vs content-based\n"
        + _table(["Model", "Absolute (EM only)", "Absolute"], rows)
    )

    rows = [[m, _pct(report.scores[m].misinformation_score)] for m in models]
    sections.append("Misinformation\n" + _table(["Model", "Misinformation score"], rows))

    length_rows: list[list[str]] = []
    for model in models:
        for run, spec, grades in report.graded.get(model, []):
            if run.question == spec.question:  # original phrasing only
                length = grades.content_length
                length_rows.append([model, spec.question, str(length) if length is not None else "-"])
    if length_rows:
        sections.append(
            "Content length of correct database responses (original questions)\n"
            + _table(["Model", "Question", "Content length"], length_rows)
        )

    return "\n\n".join(sections) + "\n"


def render_csv_report(report: MetricsReport) -> str:
    if not report.scores:
        raise ValidationError("empty report")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("model", *ModelScores._fields))
    for model in sorted(report.scores):
        n, *percentages = report.scores[model]
        writer.writerow([model, n, *map(repr, percentages)])
    return buffer.getvalue()
