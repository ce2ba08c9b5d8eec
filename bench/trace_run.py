"""Run the aometrics CLI in-process with a span around each layer.

Usage: python3 bench/trace_run.py SPANS_JSON RUN_ID CLI_ARG...

Each public function is wrapped under the module attribute its caller
looks it up by, so ``src/`` stays untouched. Spans (name, start, end,
parent, run id) are kept in memory and written to SPANS_JSON when the CLI
returns. A wrapped name that no longer exists is listed as missing, so
its layer is reported as missing rather than as zero. The exit code is
the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _files(args, kwargs, result) -> dict:
    return {"files": sum(len(v.files) for v in result)}


def _tokens(args, kwargs, result) -> dict:
    tokens, _ = result
    return {"tokens": len(tokens) - 1, "bytes": len(args[0].encode("utf-8"))}  # END excluded


def _decls(args, kwargs, result) -> dict:
    count = 0
    todo = [*result.classes, *result.aspects]
    while todo:
        decl = todo.pop()
        count += 1 + len(decl.methods) + len(decl.attributes) + len(decl.pointcuts)
        count += len(getattr(decl, "advices", ()))
        todo.extend(decl.nested)
    return {"decls": count, "errors": int(result.has_errors)}


def _chars(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


#: (module, attribute its caller looks up, span name, counter)
TARGETS = (
    ("aometrics.cli", "main", "cli", None),
    ("aometrics.cli", "scan_corpus", "scanner", _files),
    ("aometrics.cli", "parse_source", "parser", _decls),
    ("aometrics.parser", "tokenize", "lexer", _tokens),
    ("aometrics.parser", "parse_pointcut_expression", "pointcuts.parse", None),
    ("aometrics.cli", "measure_version", "metrics", None),
    ("aometrics.metrics", "extract_signature_pattern", "pointcuts.signature", None),
    ("aometrics.metrics", "classify_joinpoint_categories", "metrics.classify", None),
    ("aometrics.report", "classify_joinpoint_categories", "metrics.classify", None),
    ("aometrics.cli", "write_log", "report.log", _chars),
    ("aometrics.cli", "write_json", "report.json", _chars),
    ("aometrics.cli", "write_csv", "report.csv", _chars),
    ("aometrics.cli", "compare_versions", "report.compare", None),
    ("aometrics.cli", "render_table", "report.table", _chars),
    ("aometrics.cli", "render_trends", "report.trends", _chars),
)


class Tracer:
    """Records one span per wrapped call; spans nest through a stack."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, done_ns, parent index, counters]
        # done_ns also covers counting, so a parent's self time excludes it.
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            span[3] = clock()
            return result

        return traced


def main() -> int:
    spans_path, run_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    missing = []
    for module_name, attr, span, counter in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span, counter))
    if "aometrics.cli.main" in missing:
        print("aometrics.cli.main is missing", file=sys.stderr)
        return 3
    cli = importlib.import_module("aometrics.cli")
    code = 1
    try:
        code = cli.main(argv)
    finally:
        record = {
            "run_id": run_id,
            "exit_code": code,
            "missing": missing,
            "fields": ["name", "start_ns", "end_ns", "done_ns", "parent", "counters"],
            "spans": tracer.spans,
        }
        spans_path.write_text(json.dumps(record, separators=(",", ":")), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
