"""Configuration ingestion, pipeline orchestration, and report/CSV
emission.

    coexist <analyze|trace|table|verify> --config cfg.json
            [--out-dir DIR] [--override key=value ...]

Exit codes: 0 success, 1 configuration or I/O error, 2 verification
failure, 3 solver non-convergence. Reports are JSON with full-precision
floats; branch and table data are RFC-4180 CSV with 17 significant
digits so identical configs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .continuation import DEFAULT_S_VALUES, Branch, fit_supported, trace_branch
from .diagnostics import AnalysisResult, Tolerances, bifurcation_point, psi_k_table, run_analysis
from .errors import ConfigError, ConvergenceError, SolvabilityError, as_number
from .mesh import DomainSpec, build_mesh, l2_norm
from .nonlinearity import NonlinearityModel

__all__ = ["RunConfig", "Outputs", "cmd_analyze", "cmd_trace", "cmd_table", "cmd_verify", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_SOLVER = 3

# fit-vs-diagnostics consistency thresholds for the trace report
def _slope_tol(mu_s: float) -> float:
    return max(1e-3, 0.01 * abs(mu_s))


def _curvature_tol(mu_ss: float) -> float:
    return max(5e-3, 0.02 * abs(mu_ss))


@dataclass(frozen=True)
class Outputs:
    report_path: str = "report.json"
    branch_csv_path: str = "branch.csv"
    table_csv_path: str = "table.csv"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    model: NonlinearityModel
    s_values: tuple[float, ...] = DEFAULT_S_VALUES
    tolerances: Tolerances = field(default_factory=Tolerances)
    outputs: Outputs = field(default_factory=Outputs)
    k_list: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    eta_list: tuple[float, ...] | None = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {"domain", "model", "s_values", "tolerances", "outputs", "k_list", "eta_list"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            dom = raw["domain"]
            spec = DomainSpec(
                kind=dom["kind"],
                bounds=tuple(tuple(b) for b in dom["bounds"]),
                resolution=tuple(dom["resolution"]),
            )
        except KeyError as exc:
            raise ConfigError(f"domain is missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed domain section: {exc}") from None
        spec.validate()
        model = NonlinearityModel.from_dict(raw.get("model", {"kind": "free"}))
        tol_raw = _section(raw, "tolerances")
        known_tols = {f.name for f in dataclasses.fields(Tolerances)}
        bad = set(tol_raw) - known_tols
        if bad:
            raise ConfigError(f"unknown tolerance fields: {sorted(bad)}")
        tolerances = Tolerances(**tol_raw)
        tolerances.validate()
        out_raw = _section(raw, "outputs")
        bad = set(out_raw) - {f.name for f in dataclasses.fields(Outputs)}
        if bad:
            raise ConfigError(f"unknown output fields: {sorted(bad)}")
        s_values = _numbers(raw, "s_values", DEFAULT_S_VALUES)
        if any(s == 0.0 for s in s_values):
            raise ConfigError("s_values must not contain 0 (the trivial branch)")
        if len(set(s_values)) != len(s_values):
            raise ConfigError("s_values must not contain duplicates")
        if not fit_supported(s_values):
            raise ConfigError(f"s_values must hold >= 5 values spanning both signs of s, got {list(s_values)}")
        k_list = _numbers(raw, "k_list", (3, 4, 5, 6, 7, 8), integer=True)
        if any(not 3 <= k <= 8 for k in k_list):
            raise ConfigError(f"k_list entries must lie in 3..8, got {list(k_list)}")
        return RunConfig(
            domain=spec,
            model=model,
            s_values=s_values,
            tolerances=tolerances,
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
            "tolerances": {
                k: v for k, v in dataclasses.asdict(self.tolerances).items() if v is not None
            },
            "outputs": self.outputs.to_dict(),
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
    return {
        "version": __version__,
        "timestamp_utc": _timestamp(),
        "config": cfg.to_dict(),
    }


def _resolve(out_dir: str | None, path: str) -> Path:
    p = Path(path)
    if out_dir is not None and not p.is_absolute():
        p = Path(out_dir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def write_branch_csv(path: Path, branch: Branch, mesh) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "lambda", "l2_norm_U", "residual", "newton_iters"])
        for p in branch.points:
            w.writerow([_fmt(p.s), _fmt(p.lam), _fmt(l2_norm(mesh, p.U)), _fmt(p.residual), p.newton_iters])


def write_table_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "eta", "mu_s", "mu_ss", "type"])
        for r in rows:
            w.writerow([r.k, _fmt(r.eta), _fmt(r.mu_s), _fmt(r.mu_ss), str(r.ctype)])


def _analysis_report(cfg: RunConfig, analysis: AnalysisResult) -> dict:
    report = _base_report(cfg)
    report["cr_report"] = analysis.cr_report.to_dict()
    report["m_at_bifurcation"] = analysis.m_at_bifurcation
    report["lambda_equals_m_plus_V_L"] = {
        "lambda0": analysis.cr_report.lambda0,
        "V_L": analysis.model.V_L,
        "m": analysis.m_at_bifurcation,
    }
    report["diagnostics"] = analysis.diagnostics.to_dict()
    return report


def cmd_analyze(cfg: RunConfig, out_dir: str | None = None) -> dict:
    """Spectrum -> bifurcation checks -> diagnostics; writes the JSON report."""
    mesh = build_mesh(cfg.domain)
    analysis = run_analysis(mesh, cfg.model, cfg.tolerances)
    report = _analysis_report(cfg, analysis)
    _write_json(_resolve(out_dir, cfg.outputs.report_path), report)
    return report


def cmd_trace(cfg: RunConfig, out_dir: str | None = None) -> tuple[dict, int]:
    """Analyze, trace the branch over cfg.s_values, write CSV + report.

    Returns (report, exit_code); a truncated branch still exits 0 when
    the converged points still carry the fit, EXIT_SOLVER otherwise.
    """
    mesh = build_mesh(cfg.domain)
    analysis = run_analysis(mesh, cfg.model, cfg.tolerances)
    branch = trace_branch(analysis, sorted(cfg.s_values), newton_tol=cfg.tolerances.newton_tol)
    csv_path = _resolve(out_dir, cfg.outputs.branch_csv_path)
    write_branch_csv(csv_path, branch, mesh)

    report = _analysis_report(cfg, analysis)
    d = analysis.diagnostics
    branch_block: dict = {
        "csv_path": str(csv_path),
        "n_points": len(branch.points),
        "truncations": list(branch.truncations),
    }
    if branch.fit is not None:
        a, b = branch.fit.a, branch.fit.b
        branch_block["fit"] = branch.fit.to_dict()
        branch_block["consistency"] = {
            "a_minus_mu_s": a - d.mu_s,
            "a_tol": _slope_tol(d.mu_s),
            "a_ok": abs(a - d.mu_s) <= _slope_tol(d.mu_s),
            "twob_minus_mu_ss": 2 * b - d.mu_ss,
            "twob_tol": _curvature_tol(d.mu_ss),
            "twob_ok": abs(2 * b - d.mu_ss) <= _curvature_tol(d.mu_ss),
        }
    report["branch"] = branch_block
    _write_json(_resolve(out_dir, cfg.outputs.report_path), report)
    code = EXIT_OK if branch.fit is not None else EXIT_SOLVER
    return report, code


def cmd_table(cfg: RunConfig, out_dir: str | None = None) -> list:
    """Interaction-family sweep over k_list x eta_list; writes the CSV."""
    mesh = build_mesh(cfg.domain)
    rows = psi_k_table(mesh, list(cfg.k_list), list(cfg.resolved_eta_list()), cfg.tolerances)
    write_table_csv(_resolve(out_dir, cfg.outputs.table_csv_path), rows)
    return rows


def cmd_verify(cfg: RunConfig, out_dir: str | None = None) -> tuple[dict, int]:
    """The bifurcation-point checks only; no corrector solve."""
    _, _, cr = bifurcation_point(build_mesh(cfg.domain), cfg.tolerances)
    print(f"lambda0          = {cr.lambda0:.12g}")
    print(f"lambda1          = {cr.lambda1:.12g}")
    print(f"gap              = {cr.gap:.12g}  (kernel_dim_ok={cr.kernel_dim_ok})")
    print(
        f"transversality   = {cr.transversality_value:.12g}  (transversality_ok={cr.transversality_ok})"
    )
    report = _base_report(cfg)
    report["cr_report"] = cr.to_dict()
    _write_json(_resolve(out_dir, cfg.outputs.report_path), report)
    return report, EXIT_OK if cr.bifurcation_point_certified else EXIT_VERIFY


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
        ("verify", "check the bifurcation-point conditions only"),
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
        if args.command == "table":
            rows = cmd_table(cfg, args.out_dir)
            print(f"wrote {len(rows)} table rows")
            return EXIT_OK
        _, code = cmd_verify(cfg, args.out_dir)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, SolvabilityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
