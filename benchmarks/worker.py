"""One workload in a fresh process: import coexist, generate the configs,
then run passes over the cases until the time budget is spent.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 benchmarks/worker.py --workload NAME --seed N --setup-only

`coexist` must come from the checkout's `src/` (run.py sets PYTHONPATH).
The last line on stdout is one JSON object: the monotonic-clock time at
which set-up ended and, unless --setup-only, the passes and their checks.
With --trace 1, untraced and traced passes alternate, so the per-layer
numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import coexist  # noqa: E402
from coexist import cli  # noqa: E402
from coexist.errors import CoexistError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_case(case, cfg, out_dir: Path):
    """Call the CLI layer for one case; returns (result, exit code)."""
    if case.command == "analyze":
        return cli.cmd_analyze(cfg, str(out_dir)), 0
    if case.command == "trace":
        return cli.cmd_trace(cfg, str(out_dir))
    return cli.cmd_table(cfg, str(out_dir)), 0


def _check(case, result, code: int) -> list[str]:
    if case.command == "analyze":
        return workloads.check_analyze(case, result)
    if case.command == "trace":
        return workloads.check_trace(case, result, code)
    return workloads.check_table(case, result)


def _csv_path(case, cfg, out_dir: Path) -> Path | None:
    if case.command == "trace":
        return out_dir / cfg.outputs.branch_csv_path
    if case.command == "table":
        return out_dir / cfg.outputs.table_csv_path
    return None


class Runner:
    def __init__(self, cases, configs, work: Path, tracer: tracing.Tracer | None):
        self.cases, self.configs, self.work, self.tracer = cases, configs, work, tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.csv_bytes: dict[str, bytes] = {}
        self.case_seconds: dict[str, list[float]] = {c.label: [] for c in cases}

    def run_pass(self, pass_no: int, traced: bool) -> float:
        """One pass over every case; returns the summed time of the CLI calls."""
        wall = 0.0
        if traced:
            self.tracer.install()
        try:
            for i, (case, cfg) in enumerate(zip(self.cases, self.configs)):
                wall += self._run_one(f"{pass_no}:{i}", case, cfg, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        return wall

    def _run_one(self, case_id: str, case, cfg, traced: bool) -> float:
        out_dir = self.work / case.label
        if traced:
            self.tracer.case = case_id
        self.attempted += 1
        problems: list[str] = []
        t0 = time.perf_counter()
        try:
            result, code = _run_case(case, cfg, out_dir)
        except CoexistError as exc:
            seconds = time.perf_counter() - t0
            self.failed += 1
            print(f"case {case.label}: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.case_seconds[case.label].append(seconds)
            return seconds
        except Exception as exc:  # an untyped error is a defect: count it and keep measuring
            seconds = time.perf_counter() - t0
            problems.append(f"untyped {type(exc).__name__}: {exc}")
        else:
            seconds = time.perf_counter() - t0
            problems = _check(case, result, code)
            csv_path = _csv_path(case, cfg, out_dir)
            if csv_path is not None:
                data = csv_path.read_bytes()
                if self.csv_bytes.setdefault(case.label, data) != data:
                    problems.append(f"{csv_path.name} differs from the first pass")
        self.case_seconds[case.label].append(seconds)
        if problems:
            self.failed += 1
            self.problems.extend(f"case {case.label}: {p}" for p in problems)
            for p in problems:
                print(f"case {case.label}: check failed: {p}", file=sys.stderr)
        return seconds


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "coexist": coexist.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(coexist.__file__).resolve().parents:
        print(f"coexist imported from {coexist.__file__}, not from the checkout's src/", file=sys.stderr)
        return 2
    cases = workloads.make_cases(args.workload, args.seed)
    configs = [cli.RunConfig.from_dict(c.config) for c in cases]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    work = args.out / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cases, configs, work, tracer)
    walls: list[float] = []
    traced_walls: list[float] = []
    per_pass_layers: list[dict] = []
    start = time.monotonic()
    try:
        for pass_no in itertools.count():
            # with tracing, untraced and traced passes alternate, untraced first
            traced = bool(args.trace) and pass_no % 2 == 1
            t_pass = time.monotonic()
            first_span = len(tracer.spans) if traced else 0
            wall = runner.run_pass(pass_no, traced)
            if traced:
                if tracer.errors:
                    print("\n".join(tracer.errors), file=sys.stderr)
                    return 2
                ladder = {f"{pass_no}:{i}" for i, c in enumerate(cases) if c.ladder}
                per_pass_layers.append(tracing.layer_metrics(tracer.spans, first_span, ladder))
                traced_walls.append(wall)
            else:
                walls.append(wall)
            now = time.monotonic()
            # start another pass only if it should end within the budget
            if (traced_walls or not args.trace) and now - start + (now - t_pass) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "ready": ready,
        "walls": walls,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "case_seconds": {k: statistics.median(v) for k, v in runner.case_seconds.items()},
        "env": _environment(),
    }
    if args.trace:
        missing = tracer.missing_spans(args.workload)
        if missing:
            print(f"traced run: expected spans never fired on {args.workload}: {missing}", file=sys.stderr)
            return 2
        layers = {}
        for name, (_, unit) in per_pass_layers[0].items():
            vals = [p[name][0] for p in per_pass_layers]
            # median over traced passes; counts and bytes stay whole numbers
            median = statistics.median_low if unit in ("count", "B") else statistics.median
            layers[name] = (median(vals), unit)
        layers["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        result["traced_walls"] = traced_walls
        result["per_layer"] = layers
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps(
                [[s.name, s.site, s.case, s.parent, s.start, s.end, s.info] for s in tracer.spans],
                separators=(",", ":"),
            )
        )
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
