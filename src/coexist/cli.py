"""Configuration ingestion, pipeline orchestration, and report/CSV
emission.

    coexist <analyze|trace|table> --config cfg.json
            [--out-dir DIR] [--override key=value ...]

Exit codes: 0 success, 1 configuration, I/O or out-of-memory error (a
lambda1 that rounds to lambda0 included), 3 solver non-convergence (a
non-finite value on the branch included), and argparse's 2 for a usage
error. Reports are JSON with full-precision floats; branch and table
data are RFC-4180 CSV, floats as %.17g with -0.0 written 0, so identical
configs reproduce byte-identical files at a fixed BLAS thread count (1
against 2 moves the last digits of a 512^2 branch.csv's l2_norm_U and
residual; table.csv, and branch.csv at 128^2, stay identical); the
report's `environment` records the thread variables as set, not the
count BLAS used.
Reruns rewrite each file in place, sparing ext4 a flush per file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .continuation import DEFAULT_S_VALUES, Branch, fit_consistency, fit_supported, trace_branch
from .diagnostics import AnalysisResult, cr_report, psi_k_table, run_analysis
from .errors import ConfigError, ConvergenceError, as_number
from .mesh import DomainSpec
from .nonlinearity import NonlinearityModel
from .operators import Laplacian

__all__ = ["RunConfig", "Outputs", "cmd_analyze", "cmd_trace", "cmd_table", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 3

DEFAULT_K_LIST = (3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Outputs:
    report_path: str = "report.json"
    branch_csv_path: str = "branch.csv"
    table_csv_path: str = "table.csv"


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    model: NonlinearityModel
    s_values: tuple[float, ...] = DEFAULT_S_VALUES
    outputs: Outputs = field(default_factory=Outputs)
    k_list: tuple[int, ...] = DEFAULT_K_LIST
    eta_list: tuple[float, ...] | None = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {"domain", "model", "s_values", "outputs", "k_list", "eta_list"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            dom = raw["domain"]
            domain = (dom["kind"], tuple(tuple(b) for b in dom["bounds"]), tuple(dom["resolution"]))
            unknown = set(dom) - {"kind", "bounds", "resolution"}
            if unknown:  # before the spec checks itself
                raise ConfigError(f"unknown domain fields: {sorted(unknown)}")
            spec = DomainSpec(*domain)
        except KeyError as exc:
            raise ConfigError(f"domain is missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed domain section: {exc}") from None
        model = NonlinearityModel.from_dict(raw.get("model", {"kind": "free"}))
        out_raw = _section(raw, "outputs")
        bad = set(out_raw) - {f.name for f in fields(Outputs)}
        if bad:
            raise ConfigError(f"unknown output fields: {sorted(bad)}")
        for key, path in out_raw.items():
            if not isinstance(path, str) or not path:  # "" would name the out-dir itself
                raise ConfigError(f"outputs.{key} must be a non-empty path string, got {path!r}")
        s_values = _numbers(raw, "s_values", DEFAULT_S_VALUES)
        if any(s == 0.0 for s in s_values):
            raise ConfigError("s_values must not contain 0 (the trivial branch)")
        if len(set(s_values)) != len(s_values):
            raise ConfigError("s_values must not contain duplicates")
        if not fit_supported(s_values):
            raise ConfigError(f"s_values must hold >= 5 values spanning both signs of s, got {list(s_values)}")
        k_list = _numbers(raw, "k_list", DEFAULT_K_LIST, integer=True)
        if any(not 3 <= k <= 8 for k in k_list):
            raise ConfigError(f"k_list entries must lie in 3..8, got {list(k_list)}")
        return RunConfig(
            domain=spec,
            model=model,
            s_values=s_values,
            outputs=Outputs(**out_raw),
            k_list=k_list,
            eta_list=_numbers(raw, "eta_list", None) if "eta_list" in raw else None,
        )

    def to_dict(self) -> dict:
        d = {
            "domain": {
                "kind": self.domain.kind,
                "bounds": [list(b) for b in self.domain.bounds],
                "resolution": list(self.domain.resolution),
            },
            "model": self.model.to_dict(),
            "s_values": list(self.s_values),
            "outputs": {f.name: getattr(self.outputs, f.name) for f in fields(Outputs)},
            "k_list": list(self.k_list),
        }
        if self.eta_list is not None:
            d["eta_list"] = list(self.eta_list)
        return d

    def resolved_eta_list(self) -> tuple[float, ...]:
        if self.eta_list is not None:
            return self.eta_list
        if self.model.kind == "psi_k":
            return (self.model.eta,)
        return (1.0,)


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object, got {section!r}")
    return section


def _numbers(raw: dict, key: str, default, integer: bool = False) -> tuple:
    try:
        values = tuple(as_number(x, f"{key} entry", integer) for x in raw.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a list of numbers: {exc}") from None
    if not values:
        raise ConfigError(f"{key} must not be empty")
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(f"{key} must hold finite numbers, got {list(values)}")
    return values


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):  # before the overrides index into it
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        _apply_override(raw, item)
    return RunConfig.from_dict(raw)


def _apply_override(raw: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key=value")
    key, text = item.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _base_report(cfg: RunConfig) -> dict:
    try:  # besides the config, the output bytes depend on these
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "version": __version__,
        "timestamp_utc": _timestamp(),
        "environment": {"numpy": np.__version__, "blas": blas, **{v: os.environ.get(v) for v in threads}},
        "config": cfg.to_dict(),
    }


def _resolve(out_dir: str | None, path: str) -> Path:
    p = Path(path)
    if out_dir is not None and not p.is_absolute():
        p = Path(out_dir) / p
    if not os.path.isdir(p.parent):  # spares a failing mkdir syscall
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_text(path: Path, text: str) -> None:
    """Rewrite path in place, cut only where the old file was longer: open("w")
    truncates to zero, and ext4 (auto_da_alloc) then starts writeback at
    close(), about 100 us a file."""
    data, written = text.encode(), 0
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        old_size = os.fstat(fh.fileno()).st_size  # 0 for /dev/null, a FIFO or a tty
        try:
            while written < len(data):
                written += fh.write(data[written:])
        finally:  # a rewrite that raises leaves the file empty, not the old tail
            size = written if written == len(data) else 0
            if old_size > size:
                fh.truncate(size)


def _write_json(path: Path, payload: dict) -> None:
    # compact: an indent would select json's pure-Python encoder
    _write_text(path, json.dumps(payload) + "\n")


def write_branch_csv(path: Path, branch: Branch, L: Laplacian) -> None:
    """One row per point; l2_norm_U is U's weighted norm, the full grid's."""
    rows = "".join(
        "%.17g,%.17g,%.17g,%.17g,%d\r\n"
        % (p.s + 0.0, p.lam + 0.0, math.sqrt(L.weight * float(p.U @ p.U)) + 0.0, p.residual + 0.0, p.newton_iters)
        for p in branch.points
    )
    _write_text(path, "s,lambda,l2_norm_U,residual,newton_iters\r\n" + rows)


def write_table_csv(path: Path, rows) -> None:
    text = "".join(
        "%d,%.17g,%.17g,%.17g,%s\r\n" % (k, eta + 0.0, mu_s + 0.0, mu_ss + 0.0, ctype)
        for k, eta, mu_s, mu_ss, ctype in rows
    )
    _write_text(path, "k,eta,mu_s,mu_ss,type\r\n" + text)


def _analysis_report(cfg: RunConfig, analysis: AnalysisResult) -> dict:
    report = _base_report(cfg)
    report["cr_report"] = cr_report(analysis.lambda0, analysis.lambda1)
    report["m_at_bifurcation"] = analysis.m_at_bifurcation
    report["moments"] = {"I3": analysis.I3, "I4": analysis.I4, "M_hat": analysis.M_hat}
    report["diagnostics"] = analysis.diagnostics.to_dict()
    return report


def cmd_analyze(cfg: RunConfig, out_dir: str | None = None) -> dict:
    """Spectrum -> bifurcation checks -> diagnostics; writes the JSON report."""
    analysis = run_analysis(cfg.domain, cfg.model)
    report = _analysis_report(cfg, analysis)
    _write_json(_resolve(out_dir, cfg.outputs.report_path), report)
    return report


def cmd_trace(cfg: RunConfig, out_dir: str | None = None) -> tuple[dict, int]:
    """Analyze, trace the branch over cfg.s_values, write CSV + report.

    Returns (report, exit_code); a truncated branch still exits 0 when
    the converged points still carry the fit, EXIT_SOLVER otherwise.
    """
    analysis = run_analysis(cfg.domain, cfg.model)
    branch = trace_branch(analysis, sorted(cfg.s_values))
    csv_path = _resolve(out_dir, cfg.outputs.branch_csv_path)
    write_branch_csv(csv_path, branch, analysis.operator)

    report = _analysis_report(cfg, analysis)
    branch_block: dict = {
        "csv_path": str(csv_path),
        "n_points": len(branch.points),
        "truncations": list(branch.truncations),
    }
    if branch.fit is not None:
        branch_block["fit"] = branch.fit.to_dict()
        branch_block["consistency"] = fit_consistency(branch.fit, analysis.diagnostics.mu_s, analysis.diagnostics.mu_ss)
    report["branch"] = branch_block
    _write_json(_resolve(out_dir, cfg.outputs.report_path), report)
    code = EXIT_OK if branch.fit is not None else EXIT_SOLVER
    return report, code


def cmd_table(cfg: RunConfig, out_dir: str | None = None) -> list:
    """Interaction-family sweep over k_list x eta_list; writes the CSV."""
    rows = psi_k_table(cfg.domain, list(cfg.k_list), list(cfg.resolved_eta_list()))
    write_table_csv(_resolve(out_dir, cfg.outputs.table_csv_path), rows)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexist",
        description="Bifurcation diagnostics for semilinear elliptic Dirichlet problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "run the diagnostics pipeline and write the JSON report"),
        ("trace", "analyze, then trace the nontrivial branch and write CSV"),
        ("table", "sweep the power-interaction family and write CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, value parsed as JSON (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        if args.command == "analyze":
            report = cmd_analyze(cfg, args.out_dir)
            print(json.dumps({"type": report["diagnostics"]["type"], "lambda0": report["cr_report"]["lambda0"]}))
            return EXIT_OK
        if args.command == "trace":
            report, code = cmd_trace(cfg, args.out_dir)
            print(json.dumps({"n_points": report["branch"]["n_points"], "fit": report["branch"].get("fit")}))
            return code
        rows = cmd_table(cfg, args.out_dir)
        print(f"wrote {len(rows)} table rows")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"out of memory on a grid of {math.prod(cfg.domain.resolution)} nodes: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
