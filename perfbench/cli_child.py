"""Traced ``graphqa.cli`` invocation, started by the cli-cold traced run.

Usage: python3 cli_child.py <spans.json> <graphqa cli arguments...>

Imports the CLI, wraps the traced names, runs ``main`` with the remaining
arguments, writes the recorded spans to <spans.json> and exits with the CLI's
exit code. Import time is not in any span; the parent measures it apart.
"""

import json
import sys

import graphqa.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = graphqa.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    sys.exit(code)
