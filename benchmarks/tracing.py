"""Span tracing of the coexist layers from outside the package.

`Tracer.install` replaces each traced function in every coexist module
namespace that holds it, so a call is recorded whichever module looks the
name up (`coexist.spectrum._cg` and `coexist.operators._cg` are both the CG
kernel, seen from two sites). A span holds the function name, the site, the
case id, the parent span, start and end, and a few counts read from the
arguments or the result. Spans stay in memory; the caller writes them out.

`layer_metrics` turns the spans of one pass into the per-layer metrics, and
`missing_spans` names the spans a workload expects that never fired, so a
wrapper in the wrong namespace fails loudly instead of reading as zero cost.
A function the program no longer has is not expected: its counters read 0.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

# Layer boundaries the per-layer metrics read, by defining module.
TRACED = {
    "mesh": ("build_mesh",),
    "operators": ("assemble_laplacian", "bordered_solve", "solve_bordered_system", "_cg"),
    "spectrum": ("principal_eigenpair", "second_eigenvalue", "second_eigenpair"),
    "nonlinearity": ("apply", "apply_derivative"),
    "diagnostics": ("run_analysis", "compute_z_s", "psi_k_table"),
    "continuation": ("trace_branch", "solve_at_amplitude", "fit_local_expansion"),
    "cli": ("cmd_analyze", "cmd_trace", "cmd_table", "_write_json", "write_branch_csv", "write_table_csv"),
}

CMDS = ("cli.cmd_analyze", "cli.cmd_trace", "cli.cmd_table")
WRITERS = ("cli._write_json", "cli.write_branch_csv", "cli.write_table_csv")
SECOND = ("spectrum.second_eigenvalue", "spectrum.second_eigenpair")

# (span name, site or None for any site) that must fire on each workload.
_COMMON = (
    ("mesh.build_mesh", None),
    ("operators.assemble_laplacian", None),
    ("operators.bordered_solve", None),
    ("operators.solve_bordered_system", "operators"),
    ("operators._cg", "operators"),
    ("operators._cg", "spectrum"),
    ("spectrum.principal_eigenpair", None),
    ("diagnostics.compute_z_s", None),
)
EXPECTED = {
    "analyze-ladder": _COMMON
    + (
        ("spectrum.second_eigenvalue", None),
        ("diagnostics.run_analysis", None),
        ("cli.cmd_analyze", None),
        ("cli._write_json", None),
    ),
    "trace-branch": _COMMON
    + (
        ("spectrum.second_eigenvalue", None),
        ("diagnostics.run_analysis", None),
        ("nonlinearity.apply", "continuation"),
        ("nonlinearity.apply_derivative", "continuation"),
        ("continuation.trace_branch", None),
        ("continuation.solve_at_amplitude", None),
        ("continuation.fit_local_expansion", None),
        ("operators.solve_bordered_system", "continuation"),
        ("cli.cmd_trace", None),
        ("cli._write_json", None),
        ("cli.write_branch_csv", None),
    ),
    "table-sweep": _COMMON
    + (
        ("diagnostics.psi_k_table", None),
        ("cli.cmd_table", None),
        ("cli.write_table_csv", None),
    ),
}


@dataclass(slots=True)
class Span:
    name: str
    site: str
    case: str
    parent: int  # index into the span list, -1 for a case root
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _first_arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _info(name: str, args, kwargs, result) -> dict:
    """Counts read at the layer boundary."""
    if name == "operators._cg":
        return {"iters": int(result[2]), "n": int(_first_arg(args, kwargs, 1, "b").size)}
    if name == "operators.assemble_laplacian":
        return {"n": int(result.n), "nnz": int(result.matrix.nnz)}
    if name == "mesh.build_mesh":
        return {"n": int(result.n_nodes)}
    if name == "continuation.solve_at_amplitude":
        return {"newton_iters": int(result.newton_iters)}
    if name in WRITERS:
        return {"bytes": os.path.getsize(_first_arg(args, kwargs, 0, "path"))}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = ""
        self.installed: set[tuple[str, str]] = set()
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, site: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, site, self.case, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.info = {"error": type(exc).__name__, "iterations": getattr(exc, "iterations", None)}
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            try:
                span.info = _info(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                self.errors.append(f"{name}@{site}: cannot read span counts: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded coexist namespace."""
        targets = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"coexist.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn) and getattr(fn, "__module__", None) == f"coexist.{layer}":
                    targets[id(fn)] = (f"{layer}.{fname}", fn)
        for modname, module in sorted(sys.modules.items()):
            if modname != "coexist" and not modname.startswith("coexist."):
                continue
            site = modname.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None:
                    name, fn = hit
                    setattr(module, attr, self._wrap(name, site, fn))
                    self._patches.append((module, attr, fn))
                    self.installed.add((name, site))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def missing_spans(self, workload: str) -> list[str]:
        fired = {(s.name, s.site) for s in self.spans}
        fired_names = {name for name, _ in fired}
        missing = []
        for name, site in EXPECTED[workload]:
            if site is None:
                if any(n == name for n, _ in self.installed) and name not in fired_names:
                    missing.append(name)
            elif (name, site) in self.installed and (name, site) not in fired:
                missing.append(f"{name}@{site}")
        return missing


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n); 0.0 when fewer
    than two mesh sizes are available."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(s) for _, s in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(all_spans: list[Span], first: int, ladder_cases: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass whose spans start at index
    first, as {name: (value, unit)}.

    ladder_cases holds the case ids of the (0,pi)^2 squares whose
    successful spans give the log-log scaling exponents in n_nodes.
    """
    child_s = [0.0] * len(all_spans)
    for s in all_spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    spans = all_spans[first:]

    def of(*names, site=None):
        return [s for s in spans if s.name in names and (site is None or s.site == site)]

    def secs(sel):
        return sum(s.seconds for s in sel)

    def self_s(pick):
        return sum(s.seconds - child_s[i] for i, s in enumerate(spans, first) if pick(s.name))

    def per(a, b):
        return a / b if b else 0.0

    def ancestors(s):
        while s.parent >= 0:
            s = all_spans[s.parent]
            yield s

    def exp(*names):
        case_n = {s.case: s.info["n"] for s in of("mesh.build_mesh") if "n" in s.info}
        pts = [
            (case_n[s.case], s.seconds)
            for s in of(*names)
            if s.case in ladder_cases and s.case in case_n and "error" not in s.info
        ]
        return _slope(pts)

    def iters(sel):
        return sum(s.info.get("iters") or s.info.get("iterations") or 0 for s in sel)

    nnz = {s.case: s.info["nnz"] for s in of("operators.assemble_laplacian") if "nnz" in s.info}
    cg = of("operators._cg")
    cg_bytes = sum(
        s.info["iters"] * (12 * nnz[s.case] + 4 * (s.info["n"] + 1) + 16 * s.info["n"])
        for s in cg
        if "iters" in s.info and s.case in nnz
    )

    builds = of("mesh.build_mesh")
    principal = of("spectrum.principal_eigenpair")
    second = [s for s in of(*SECOND) if s.parent < 0 or all_spans[s.parent].name not in SECOND]
    points = of("continuation.solve_at_amplitude")
    ok_points = [p for p in points if "error" not in p.info]
    steps = sum(p.info.get("newton_iters") or p.info.get("iterations") or 0 for p in points)
    newton_solves = set(map(id, of("operators.solve_bordered_system", site="continuation")))
    newton_cg = [s for s in cg if any(id(a) in newton_solves for a in ancestors(s))]

    return {
        "mesh.build_calls": (len(builds), "count"),
        "mesh.build_s": (secs(builds), "s"),
        "operators.assemble_s": (secs(of("operators.assemble_laplacian")), "s"),
        "operators.bordered_solve_calls": (len(of("operators.solve_bordered_system")), "count"),
        "operators.bordered_solve_s": (secs(of("operators.solve_bordered_system")), "s"),
        "operators.cg_calls": (len(cg), "count"),
        "operators.cg_iters": (iters(cg), "count"),
        "operators.cg_s": (secs(cg), "s"),
        "operators.cg_bytes_computed": (cg_bytes, "B"),
        "spectrum.principal_calls": (len(principal), "count"),
        "spectrum.principal_s": (secs(principal), "s"),
        "spectrum.second_calls": (len(second), "count"),
        "spectrum.second_s": (secs(second), "s"),
        "spectrum.cg_iters": (iters(of("operators._cg", site="spectrum")), "count"),
        "spectrum.failed": (sum("error" in s.info for s in principal + second), "count"),
        "spectrum.principal_calls_per_mesh": (per(len(principal), len(builds)), "count/mesh"),
        "spectrum.principal_exp": (exp("spectrum.principal_eigenpair"), "1"),
        "spectrum.second_exp": (exp(*SECOND), "1"),
        "nonlinearity.apply_calls": (len(of("nonlinearity.apply", "nonlinearity.apply_derivative")), "count"),
        "nonlinearity.apply_s": (secs(of("nonlinearity.apply", "nonlinearity.apply_derivative")), "s"),
        "diagnostics.run_analysis_s": (secs(of("diagnostics.run_analysis")), "s"),
        "diagnostics.self_s": (self_s(lambda n: n.startswith("diagnostics.")), "s"),
        "diagnostics.corrector_calls": (len(of("diagnostics.compute_z_s")), "count"),
        "diagnostics.corrector_s": (secs(of("diagnostics.compute_z_s")), "s"),
        "diagnostics.corrector_exp": (exp("diagnostics.compute_z_s"), "1"),
        "diagnostics.psi_k_table_s": (secs(of("diagnostics.psi_k_table")), "s"),
        "continuation.trace_s": (secs(of("continuation.trace_branch")), "s"),
        "continuation.self_s": (self_s(lambda n: n.startswith("continuation.")), "s"),
        "continuation.points": (len(points), "count"),
        "continuation.points_ok_ratio": (per(len(ok_points), len(points)), "ratio"),
        "continuation.newton_steps": (steps, "count"),
        "continuation.newton_steps_per_point": (per(steps, len(points)), "steps/point"),
        "continuation.linear_solve_s": (secs(of("operators.solve_bordered_system", site="continuation")), "s"),
        "continuation.cg_iters_per_step": (per(iters(newton_cg), steps), "iters/step"),
        "cli.cmd_self_s": (self_s(CMDS.__contains__), "s"),
        "cli.write_s": (secs(of(*WRITERS)), "s"),
        "cli.bytes_written": (sum(s.info.get("bytes", 0) for s in of(*WRITERS)), "B"),
    }
