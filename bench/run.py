"""Benchmark runner for the aometrics CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from ``fixtures/mini-uas`` with the seed,
then runs the real CLI on it in a closed loop with one client: one
subprocess at a time, the next started only after the previous one
exited and its reports passed the oracle gate. The loop stops once the
next run would pass ``--seconds``.

Every run is followed by a run of ``reference.py``, a fixed pure-Python
workload that imports nothing from aometrics. Times are reported in
reference seconds: each measured time is multiplied by ``REF_S`` over the
time of the reference run next to it, so a host that runs the reference
in ``REF_S`` reads plain seconds. On a small shared host the speed lent to
one process drifts by a quarter over minutes as other tenants come and go
(CPU time drifts with wall time, so it is not only waiting); the ratio of
neighbouring runs cancels that drift. Raw times are kept in the results
file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the timed runs). With ``--trace 1`` untraced and traced
runs alternate, and it carries the per-layer metrics of the traced runs
(medians) plus the tracing overhead. Earlier stdout lines and
``.bench_work/results/`` hold the environment, the corpus properties, the
report digest and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import corpus as corpus_mod
import gate
import trace_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CLI_TIMEOUT_S = 120
#: Nominal time of one reference run, in seconds; the unit of every
#: reported time (see the module docstring).
REF_S = 0.2
SETUP_CODE = "import aometrics.cli, aometrics.weights; aometrics.weights.default_weights()"
MB = 1e6

#: Per-layer metric -> (unit, span names it is computed from).
LAYER_METRICS = {
    "scanner.s": ("s", ("scanner",)),
    "scanner.files": ("count", ("scanner",)),
    "lexer.s": ("s", ("lexer",)),
    "lexer.tokens": ("count", ("lexer",)),
    "lexer.MB_per_s": ("MB/s", ("lexer",)),
    "parser.self_s": ("s", ("parser", "lexer", "pointcuts.parse")),
    "parser.decls": ("count", ("parser",)),
    "parser.units_with_errors": ("count", ("parser",)),
    "pointcuts.parse_s": ("s", ("pointcuts.parse",)),
    "pointcuts.parse_calls": ("count", ("pointcuts.parse",)),
    "pointcuts.signature_s": ("s", ("pointcuts.signature",)),
    "pointcuts.signature_calls": ("count", ("pointcuts.signature",)),
    "pointcuts.kinded_primitives": ("count", ()),
    "pointcuts.signature_calls_per_kinded_primitive": ("ratio", ("pointcuts.signature",)),
    "metrics.self_s": ("s", ("metrics", "metrics.classify", "pointcuts.signature")),
    "metrics.classify_calls": ("count", ("metrics.classify",)),
    "report.s": ("s", ("report.log", "report.json", "report.csv", "report.compare", "report.table", "report.trends")),
    "report.json_s": ("s", ("report.json",)),
    "report.out_MB": ("MB", ("report.log", "report.json", "report.csv", "report.table", "report.trends")),
    "cli.self_s": ("s", ("cli",)),
    "trace.overhead_s": ("s", ()),
}
#: Wrapped name -> span name, for mapping missing wrappers to layers.
SPAN_OF_TARGET = {f"{module}.{attr}": span for module, attr, span, _ in trace_run.TARGETS}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_MB: float
    exit_code: int


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path) -> Sample:
    """Run one child to completion; rusage comes from wait4 on its pid."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB, proc.returncode)


# -- environment ---------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args: argparse.Namespace, props: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": props,
    }


# -- runs ------------------------------------------------------------------------


class Bench:
    def __init__(self, corpus: corpus_mod.Corpus, work: Path):
        self.corpus = corpus
        self.work = work
        self.corpus_dir = (work / "corpus").resolve()
        self.out_dir = work / "out"
        self.digest: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, traced: bool = False, run_id: int = 0) -> tuple[Sample, Path | None]:
        """One gated CLI run; returns its sample and the traced spans file."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        cli_args = self.corpus.cli_args(self.corpus_dir, self.out_dir)
        spans = None
        if traced:
            spans = self.work / f"spans-{run_id}.json"
            cmd = [sys.executable, str(BENCH / "trace_run.py"), str(spans), str(run_id), *cli_args]
        else:
            cmd = [sys.executable, "-m", "aometrics.cli", *cli_args]
        stdout_path, stderr_path = self.work / "stdout.txt", self.work / "stderr.txt"
        sample = spawn(cmd, stdout_path, stderr_path)
        self.attempted += 1
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        problems = gate.check_run(self.corpus, self.out_dir, sample.exit_code, stdout, stderr)
        digest = gate.report_digest(self.out_dir, self.corpus_dir, stdout)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"report digest {digest[:12]} differs from {self.digest[:12]}")
        if traced and not spans.is_file():
            problems.append("traced run wrote no spans")
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems[:5]))
        return sample, spans if traced and spans.is_file() else None

    def gate_self_test(self) -> list[str]:
        """The gate must reject the last reports against wrong oracles."""
        stdout = (self.work / "stdout.txt").read_text(encoding="utf-8")
        stderr = (self.work / "stderr.txt").read_text(encoding="utf-8")
        last = self.corpus.versions[-1]
        wrong = {
            "wpa": replace(last, wpa=last.wpa + 1),
            "nac": replace(last, class_attributes=last.class_attributes + 1),
            "per_class wmca": replace(
                last, per_class=[(n, m + 1, a, j) for n, m, a, j in last.per_class]
            ),
        }
        errors = []
        for name, version in wrong.items():
            bad = replace(self.corpus, versions=[*self.corpus.versions[:-1], version])
            if not gate.check_run(bad, self.out_dir, 0, stdout, stderr):
                errors.append(f"gate accepted a wrong expected {name}")
        return errors


def probe(work: Path, cmd: list[str]) -> Sample:
    """Run a helper process that must succeed."""
    sample = spawn([sys.executable, *cmd], work / "probe.out", work / "probe.err")
    if sample.exit_code != 0:
        raise RuntimeError(f"{cmd[0]} failed: " + (work / "probe.err").read_text()[-500:])
    return sample


def setup_probe(work: Path) -> float:
    """Wall time of a fresh process that imports the CLI and builds the weights."""
    return probe(work, ["-c", SETUP_CODE]).wall_s


def reference_probe(work: Path) -> Sample:
    return probe(work, [str(BENCH / "reference.py")])


def layer_values(spans_path: Path, kinded: int, scale: float) -> tuple[dict, list[str]]:
    """Per-layer totals of one traced run, and the missing wrapped names.

    Span times are multiplied by ``scale`` to give reference seconds.
    """
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = record["spans"]
    covered = [0] * len(spans)
    for name, start, end, done, parent, counters in spans:
        if parent >= 0:
            covered[parent] += done - start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for i, (name, start, end, done, parent, counters) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start) * scale / 1e9
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i]) * scale / 1e9
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    reports = ("report.log", "report.json", "report.csv", "report.compare", "report.table", "report.trends")
    lexer_s = total.get("lexer", 0.0)
    values = {
        "scanner.s": total.get("scanner", 0.0),
        "scanner.files": counts.get("scanner.files", 0),
        "lexer.s": lexer_s,
        "lexer.tokens": counts.get("lexer.tokens", 0),
        "lexer.MB_per_s": counts.get("lexer.bytes", 0) / MB / lexer_s if lexer_s else 0.0,
        "parser.self_s": self_s.get("parser", 0.0),
        "parser.decls": counts.get("parser.decls", 0),
        "parser.units_with_errors": counts.get("parser.errors", 0),
        "pointcuts.parse_s": self_s.get("pointcuts.parse", 0.0),
        "pointcuts.parse_calls": calls.get("pointcuts.parse", 0),
        "pointcuts.signature_s": self_s.get("pointcuts.signature", 0.0),
        "pointcuts.signature_calls": calls.get("pointcuts.signature", 0),
        "pointcuts.kinded_primitives": kinded,
        "pointcuts.signature_calls_per_kinded_primitive": calls.get("pointcuts.signature", 0) / kinded
        if kinded
        else 0.0,
        "metrics.self_s": self_s.get("metrics", 0.0) + self_s.get("metrics.classify", 0.0),
        "metrics.classify_calls": calls.get("metrics.classify", 0),
        "report.s": sum(self_s.get(n, 0.0) for n in reports),
        "report.json_s": self_s.get("report.json", 0.0),
        "report.out_MB": sum(counts.get(f"{n}.bytes", 0) for n in reports) / MB,
        "cli.self_s": self_s.get("cli", 0.0),
        # Breakdown kept in the results file only: each is zero by design
        # on some workload (compare writes no log; measure compares nothing).
        "report.log_s": self_s.get("report.log", 0.0),
        "report.compare_s": self_s.get("report.compare", 0.0),
        "traced_wall_s": total.get("cli", 0.0),
    }
    return values, record["missing"]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    fixture = ROOT / "fixtures" / "mini-uas"
    if not (ROOT / "src" / "aometrics" / "cli.py").is_file() or not fixture.is_dir():
        print(f"error: {ROOT} holds no aometrics sources and fixtures", file=sys.stderr)
        return 2

    corpus = corpus_mod.generate(args.workload, args.seed, fixture)
    again = corpus_mod.generate(args.workload, args.seed, fixture)
    failures = []
    if again.digest() != corpus.digest():
        failures.append("the same seed gave a different corpus")
    props = corpus.properties()

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(corpus, work)
    env = environment(args, props)
    try:
        corpus.write(bench.corpus_dir)
        bench.run()  # warm-up: page cache and bytecode; gated, not timed
        failures += bench.gate_self_test()
        start = time.perf_counter()
        deadline = start + args.seconds
        # (sample, reference run after it); the set-up probe comes after that.
        untraced: list[tuple[Sample, Sample]] = []
        traced: list[tuple[Sample, Path | None, Sample]] = []
        setup: list[tuple[float, Sample]] = []
        longest = 0.0
        while True:
            do_trace = bool(args.trace) and len(traced) < len(untraced)
            t0 = time.perf_counter()
            if do_trace:
                sample, spans = bench.run(traced=True, run_id=len(traced))
                traced.append((sample, spans, reference_probe(work)))
            else:
                untraced.append((bench.run()[0], reference_probe(work)))
                if not args.trace:
                    setup.append((setup_probe(work), untraced[-1][1]))
            longest = max(longest, time.perf_counter() - t0)
            enough = len(untraced) >= 3 if not args.trace else len(traced) >= 2
            if enough and time.perf_counter() + longest > deadline:
                break
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(bench.corpus_dir, ignore_errors=True)
        shutil.rmtree(bench.out_dir, ignore_errors=True)

    failures += bench.failures
    walls = [s.wall_s * REF_S / ref.wall_s for s, ref in untraced]
    wall = statistics.median(walls)
    raw = {
        "wall_s": [s.wall_s for s, _ in untraced],
        "cpu_s": [s.cpu_s for s, _ in untraced],
        "reference_wall_s": [ref.wall_s for _, ref in untraced],
        "reference_cpu_s": [ref.cpu_s for _, ref in untraced],
        "setup_s": [t for t, _ in setup],
    }
    detail: dict = {
        "digest": bench.digest,
        "measured_s": measured_s,
        "reference_s": REF_S,
        "wall_s": _quartiles(walls),
        "raw": {key: _quartiles(values) for key, values in raw.items()},
        "peak_rss_MB": _quartiles([s.peak_rss_MB for s, _ in untraced]),
        "samples": raw,
    }
    if args.trace:
        per_run = []
        missing: set[str] = set()
        for sample, spans, ref in traced:
            if spans is None:
                continue
            scale = REF_S / ref.wall_s
            values, gone = layer_values(spans, corpus.kinded, scale)
            values["trace.overhead_s"] = sample.wall_s * scale - wall
            per_run.append(values)
            missing.update(gone)
            if spans.name != "spans-0.json":
                spans.unlink()
        missing_layers = {SPAN_OF_TARGET.get(name, name) for name in missing}
        metrics = {}
        for name, (unit, needs) in LAYER_METRICS.items():
            if not per_run or missing_layers.intersection(needs) or (name == "cli.self_s" and missing_layers):
                metrics[name] = {"value": None, "unit": unit, "missing": True}
            else:
                middle = statistics.median_low if unit == "count" else statistics.median
                metrics[name] = {"value": middle(r[name] for r in per_run), "unit": unit}
        detail["layers"] = {key: _quartiles([r[key] for r in per_run]) for key in (per_run[0] if per_run else {})}
        detail["missing"] = sorted(missing)
    else:
        cpus = [s.cpu_s * REF_S / ref.cpu_s for s, ref in untraced]
        setups = [t * REF_S / ref.wall_s for t, ref in setup]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "source_MB_per_s": {"value": props["bytes"] / MB / wall, "unit": "MB/s"},
            "peak_rss_MB": {"value": statistics.median(s.peak_rss_MB for s, _ in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        detail["cpu_s"] = _quartiles(cpus)
        detail["setup_s"] = _quartiles(setups)

    result = {
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    detail["error_rate"] = len(bench.failures) / bench.attempted
    detail["failures"] = failures
    record = {"environment": env, "detail": detail, "result": result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
