"""Benchmark of the coexist pipeline, end to end and layer by layer.

    python3 benchmarks/run.py --workload analyze-ladder|trace-branch|table-sweep
                              --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/coexist`. Set-up is
timed first: several fresh processes each import coexist from `src/` and
generate the workload's configs, and setup_s is their median time from
spawn to ready. Then one fresh process runs the workload: closed loop, one
client, one case at a time through `coexist.cli.cmd_analyze`, `cmd_trace`
or `cmd_table`, passing over all cases until S seconds are spent (at least
one pass). Every output is checked (see workloads.py). BLAS runs on one
thread in every child.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s (median time of one pass; failing cases are timed until they
raise), setup_s, peak_rss_mb (ru_maxrss of the workload process) and
ok_ratio (cases that passed their checks over cases attempted, i.e.
1 - fail_ratio). With --trace 1 it reports the per-layer metrics of a
traced pass and trace.overhead_s, the traced minus the untraced pass time.
The environment, per-case times and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
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


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; returns its last JSON line and its spawn time."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t_spawn),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1]), t_spawn


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if not (ROOT / "src" / "coexist" / "__init__.py").is_file():
        print(f"no coexist package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for _ in range(SETUP_PROBES):
        probe, t_spawn = _spawn([*common, "--setup-only"], deadline)
        setup.append(probe["ready"] - t_spawn)
    child, t_spawn = _spawn(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)], deadline
    )
    setup.append(child["ready"] - t_spawn)

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in child["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(child["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    env = dict(child["env"], git_commit=_git_commit())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setup,
        "pass_walls_s": child["walls"],
        "traced_pass_walls_s": child.get("traced_walls", []),
        "case_seconds": child["case_seconds"],
        "problems": child["problems"],
        "spans_path": child.get("spans_path"),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    print(
        f"{args.workload}: {len(child['walls'])} untraced and {len(record['traced_pass_walls_s'])} traced passes, "
        f"fail_ratio {failed}/{attempted}"
    )
    for problem in child["problems"]:
        print("check failed: " + problem)
    print(json.dumps({"correct": not child["problems"], "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
