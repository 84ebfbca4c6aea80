"""Operator command line.

Subcommands:

    gen-data   Generate a tower/sensor dataset file.
    ask        Answer one question (or run an interactive loop).
    eval       Run a benchmark corpus against one or more models and report.
    report     Rebuild report files from saved run records.

Every command is deterministic given its inputs (config, seed, replay
transcripts or run records); report files in particular are byte-stable
across reruns. Exit codes distinguish failure classes: 2 config, 3 gateway,
4 corpus, 5 engine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .datafiles import atomic_write, data_path
from .errors import (
    CorpusError,
    DatasetFormatError,
    EngineError,
    GatewayError,
    GraphQAError,
    TemplateError,
    ValidationError,
)
from .graph import load_dataset_file, serialize_dataset
from .llm import Gateway, LiveBackend, ReplayBackend, Transcript, TranscriptEntry
from .pipeline import PipelineConfig, answer_question, load_templates

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATEWAY = 3
EXIT_CORPUS = 4
EXIT_ENGINE = 5


class CliError(GraphQAError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def sanitize_model_name(model: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", model)


def _load_graph(path: str):
    try:
        return load_dataset_file(path)
    except OSError as exc:
        raise CliError(f"cannot read dataset {path}: {exc}", EXIT_CONFIG) from exc
    except (DatasetFormatError, ValidationError, UnicodeDecodeError) as exc:
        raise CliError(f"dataset {path}: {exc}", EXIT_ENGINE) from exc


def _cannot_write(path: str, exc: OSError) -> CliError:
    # An atomic write's own message names its temporary file, not ``path``.
    return CliError(f"cannot write {path}: {exc.strerror or exc}", EXIT_CONFIG)


def _write(path: str, text: str) -> None:
    try:
        atomic_write(path, text)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _load_templates(directory: str | None):
    try:
        return load_templates(directory)
    except (OSError, TemplateError) as exc:
        raise CliError(f"templates: {exc}", EXIT_CONFIG) from exc


def _make_gateway(args: argparse.Namespace, models: list[str]) -> Gateway:
    """One gateway for every call a command makes to ``models``."""
    if args.replay:
        return Gateway(ReplayBackend(_replay_transcript(args.replay, list(dict.fromkeys(models)))))
    endpoint = args.endpoint or os.environ.get("GRAPHQA_ENDPOINT")
    if not endpoint:
        raise CliError("either --replay or --endpoint (or GRAPHQA_ENDPOINT) is required", EXIT_CONFIG)
    return Gateway(LiveBackend(endpoint))


def _replay_transcript(source: str, models: list[str]) -> Transcript:
    """The transcript ``--replay source`` holds, with an entry for each of ``models``.

    ``source`` is a transcript file, a directory of ``<model>.jsonl``
    transcripts, or an ``eval --out`` directory: one that holds a
    ``.runs.jsonl`` file replays its run records.
    """
    try:
        runs_names = _runs_names(source) if os.path.isdir(source) else []
        if runs_names:
            transcript, recorded = _transcript_of_runs(source, runs_names)
    except OSError as exc:
        raise CliError(f"cannot read run records in {source}: {exc}", EXIT_CONFIG) from exc
    if not runs_names:
        paths = [source]
        if os.path.isdir(source):  # one file per model
            paths = [os.path.join(source, sanitize_model_name(model) + ".jsonl") for model in models]
        entries = []
        for path in paths:
            try:
                entries.extend(Transcript.load(path).entries)
            except OSError as exc:
                raise CliError(f"cannot read transcript {path}: {exc}", EXIT_CONFIG) from exc
            except (GatewayError, UnicodeDecodeError) as exc:
                raise CliError(f"transcript {path}: {exc}", EXIT_GATEWAY) from exc
        transcript = Transcript(entries)
        recorded = {entry.model_name for entry in entries}
    for model in models:
        if model not in recorded:
            raise CliError(f"--replay {source} has no entry for model {model!r}", EXIT_CONFIG)
    return transcript


def _runs_names(directory: str) -> list[str]:
    return sorted(name for name in os.listdir(directory) if name.endswith(".runs.jsonl"))


def _load_runs(path: str) -> list:
    from .evaluation import load_run_records  # only run records load the grading code

    try:
        return load_run_records(path)[1]
    except UnicodeDecodeError as exc:
        raise CliError(f"run record file {path}: {exc}", EXIT_CORPUS) from exc


def _transcript_of_runs(directory: str, names: list[str]) -> tuple[Transcript, set[str]]:
    """The calls the run records in ``directory`` made, and the models they name.

    A call that failed left no response and gives no entry, so it replays as
    a miss; a model whose every call failed is still named.
    """
    entries: list[TranscriptEntry] = []
    where: list[str] = []
    recorded: set[str] = set()
    for name in names:
        path = os.path.join(directory, name)
        for number, record in enumerate(_load_runs(path), start=1):
            run = record.run
            recorded.update((run.model_task1, run.model_task2))
            for entry in (
                TranscriptEntry(run.model_task1, run.task1_prompt, run.task1_response),
                TranscriptEntry(run.model_task2, run.task2_prompt, run.answer),
            ):
                if entry.response is not None:
                    entries.append(entry)
                    where.append(f"{path} record {number}")
    return Transcript(entries, where.__getitem__), recorded


def _add_common_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", default=data_path("msa_dataset.jsonl"), help="dataset file")
    parser.add_argument("--templates", default=None, help="prompt template directory")
    parser.add_argument("--endpoint", default=None, help="live completion endpoint base URL")
    parser.add_argument(
        "--replay", default=None, help="replay source: a transcript file, a transcript directory or an eval --out directory"
    )
    parser.add_argument("--model-task1", default="llama3.1:8b", help="model for query generation")
    parser.add_argument("--model-task2", default=None, help="model for summarization (default: task-1 model)")


def cmd_gen_data(args: argparse.Namespace) -> int:
    from .graph.fixture import GeneratorConfig, generate_msa_fixture  # ask never loads the generator

    config = GeneratorConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = GeneratorConfig.from_dict(json.load(fh))
        except OSError as exc:
            raise CliError(f"cannot read config {args.config}: {exc}", EXIT_CONFIG) from exc
        except (json.JSONDecodeError, UnicodeDecodeError, ValidationError) as exc:
            raise CliError(f"config {args.config}: {exc}", EXIT_CONFIG) from exc
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    if args.tower_count is not None:
        config = config._replace(tower_count=args.tower_count)
    try:
        graph = generate_msa_fixture(config)
    except ValidationError as exc:
        raise CliError(f"generator: {exc}", EXIT_CONFIG) from exc
    _write(args.out, serialize_dataset(graph))
    print(f"wrote {args.out}: {len(graph.nodes())} nodes, {len(graph.relationships())} relationships")
    return EXIT_OK


def _run_one_question(question: str, graph, gateway, config, show_query: bool) -> tuple[str, bool]:
    run = answer_question(question, graph, gateway, config)
    lines = []
    if show_query:
        lines.append(f"query: {run.extracted_query or '(none)'}")
        lines.append(f"db output: {run.db_output}")
        lines.append(f"answer: {run.answer if run.answer is not None else '(no answer)'}")
    else:
        lines.append(run.answer if run.answer is not None else f"(no answer: {run.failure})")
    return "\n".join(lines), run.failure is None


def cmd_ask(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data)
    templates = _load_templates(args.templates)
    config = PipelineConfig(
        model_task1=args.model_task1, model_task2=args.model_task2, templates=templates
    )
    gateway = _make_gateway(args, [config.model_task1, config.task2_model])

    if args.question is not None:
        text, ok = _run_one_question(args.question, graph, gateway, config, args.show_query)
        print(text)
        return EXIT_OK if ok else EXIT_GATEWAY

    # Interactive read-answer-print loop; each question is independent.
    for line in sys.stdin:
        question = line.strip()
        if not question:
            continue
        text, _ = _run_one_question(question, graph, gateway, config, args.show_query)
        print(text)
        sys.stdout.flush()
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation  # imported here so that ask never loads the grading code

    graph = _load_graph(args.data)
    templates = _load_templates(args.templates)
    try:
        specs = evaluation.load_corpus(args.corpus)
        evaluation.validate_corpus(graph, specs)
    except CorpusError as exc:
        raise CliError(str(exc), EXIT_CORPUS) from exc

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        raise CliError("--models must name at least one model", EXIT_CONFIG)
    # Each model's runs go to one file; a second model that maps to the same
    # file would overwrite the first's runs while the report counts both.
    runs_names: dict[str, str] = {}
    for model in models:
        runs_name = sanitize_model_name(model) + ".runs.jsonl"
        if runs_name in runs_names:
            first = runs_names[runs_name]
            raise CliError(f"--models names {first!r} and {model!r}, which would both write {runs_name}", EXIT_CONFIG)
        runs_names[runs_name] = model
    gateway = _make_gateway(args, [name for model in models for name in (model, args.model_task2 or model)])
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc

    all_rows = []
    for runs_name, model in runs_names.items():
        config = PipelineConfig(model_task1=model, model_task2=args.model_task2, templates=templates)
        records = evaluation.evaluate_model(
            graph, specs, gateway, config, include_rephrasings=not args.originals_only
        )
        runs_path = os.path.join(args.out, runs_name)
        try:
            evaluation.save_run_records(runs_path, model, records)
        except OSError as exc:
            raise _cannot_write(runs_path, exc) from exc
        all_rows.extend(evaluation.metric_rows(records, {s.id: s for s in specs}))
        print(f"{model}: {len(records)} runs -> {runs_path}")

    report = evaluation.compute_metrics(all_rows)
    _write(os.path.join(args.out, "report.txt"), evaluation.render_text_report(report))
    _write(os.path.join(args.out, "report.csv"), evaluation.render_csv_report(report))
    print(f"report -> {os.path.join(args.out, 'report.txt')}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from . import evaluation

    rows = []
    # A run counted twice (a copied file, or a repeated line) would skew every
    # percentage, so each (model, question, variant) may appear once.
    first_file: dict[tuple[str, str, int], str] = {}
    try:
        names = _runs_names(args.runs)
        if not names:
            raise CliError(f"--runs {args.runs}: no .runs.jsonl files", EXIT_CORPUS)
        for name in names:
            records = _load_runs(os.path.join(args.runs, name))
            for record in records:
                key = (record.run.model_task1, record.question_id, record.variant)
                if key in first_file:
                    raise CliError(
                        f"{name} repeats the run of {key[0]!r} on {key[1]!r} variant {key[2]}, "
                        f"already in {first_file[key]}",
                        EXIT_CORPUS,
                    )
                first_file[key] = name
            rows.extend(evaluation.metric_rows(records))
    except OSError as exc:
        raise CliError(f"cannot read run records in {args.runs}: {exc}", EXIT_CONFIG) from exc
    if not rows:
        raise CliError(f"--runs {args.runs}: the .runs.jsonl files hold no runs", EXIT_CORPUS)
    report = evaluation.compute_metrics(rows)
    if args.format == "table-text":
        text = evaluation.render_text_report(report)
        default_name = "report.txt"
    else:
        text = evaluation.render_csv_report(report)
        default_name = "report.csv"
    out = args.out or os.path.join(args.runs, default_name)
    _write(out, text)
    print(f"report -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument(
        "--config", default=None, help="generator config: a JSON object of integer tower_count, attached_sensors, seed"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tower-count", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("ask", help="answer a question")
    p.add_argument("question", nargs="?", default=None, help="one-shot question (omit for stdin loop)")
    _add_common_pipeline_args(p)
    p.add_argument("--show-query", action="store_true", help="print query and db output too")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("eval", help="evaluate models over a corpus")
    p.add_argument("--corpus", default=data_path("corpus.json"), help="corpus JSON file")
    p.add_argument("--models", required=True, help="comma-separated model names")
    p.add_argument("--out", required=True, help="output directory for runs and reports")
    p.add_argument("--originals-only", action="store_true", help="skip rephrased variants")
    _add_common_pipeline_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="rebuild reports from run records")
    p.add_argument("--runs", required=True, help="directory containing .runs.jsonl files")
    p.add_argument(
        "--format", choices=("table-text", "delimited-values"), default="table-text"
    )
    p.add_argument("--out", default=None, help="output file (default: into --runs)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except (EngineError, DatasetFormatError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
