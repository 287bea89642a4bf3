"""Workload cases for the coexist benchmark and the checks on their outputs.

A case is one call into the CLI layer (`cmd_analyze`, `cmd_trace` or
`cmd_table`) with a generated config dict. The seed shuffles the case order
and draws each |eta| from [0.5, 4]; every case keeps its sign of eta, and the
expected co-existence type depends only on that sign (checked at |eta| = 0.5
and 4). The program receives nothing but the config dicts.

Why each workload exists:

analyze-ladder  The spectrum layer (principal and second eigensolves) does
                almost all the work. Every case has its own mesh, so no
                sharing can help, and the meshes form a ladder that shows how
                cost grows with N. It keeps the four configurations that
                raise ConvergenceError on the seed (interval (0,pi) at 2000
                and 10000 nodes, (0,1) at 400, (0,1)^2 at 64^2), so they
                count as failures instead of being hidden. 512^2 is left out:
                one analysis takes over a minute.
trace-branch    Continuation (Newton steps and their bordered CG solves) and
                the nonlinearity do most of the work; they do none in the
                other two workloads.
table-sweep     The spectrum layer runs principal eigensolves only, one per
                eta on the same mesh, plus many corrector solves and CSV
                output. An eigendata-sharing change shows here and not in
                analyze-ladder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PI = math.pi
POLY_COEFFS = (0.0, -1.0, 0.5, 0.2, -0.1, 0.05)
ETA_RANGE = (0.5, 4.0)
EIGEN_RTOL = 1e-8
N_TABLE_ETAS = 8
K_LIST = (3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Case:
    label: str
    command: str  # "analyze", "trace" or "table"
    config: dict
    ladder: bool = False  # a (0,pi)^2 square of the scaling ladder


def _domain(bounds, resolution) -> dict:
    kind = "interval" if len(bounds) == 1 else "rectangle"
    return {"kind": kind, "bounds": [list(b) for b in bounds], "resolution": list(resolution)}


def _psi(k: int, sign: int, rng: random.Random) -> dict:
    return {"kind": "psi_k", "k": k, "eta": sign * rng.uniform(*ETA_RANGE)}


def _poly(_rng: random.Random) -> dict:
    return {"kind": "polynomial", "coeffs": list(POLY_COEFFS)}


_SQ = ((0.0, PI), (0.0, PI))
_RECT = ((0.0, PI), (0.0, 2 * PI))
_LINE = ((0.0, PI),)

# (label, command, bounds, resolution, model factory, on the scaling ladder)
_ANALYZE = (
    ("interval-400-psi3+", _LINE, (400,), lambda r: _psi(3, 1, r), False),
    ("interval-2000-psi3+", _LINE, (2000,), lambda r: _psi(3, 1, r), False),
    ("interval-10000-psi3-", _LINE, (10000,), lambda r: _psi(3, -1, r), False),
    ("square-64-psi3+", _SQ, (64, 64), lambda r: _psi(3, 1, r), True),
    ("square-128-poly", _SQ, (128, 128), _poly, True),
    ("square-256-psi3-", _SQ, (256, 256), lambda r: _psi(3, -1, r), True),
    ("rect-96x192-psi4-", _RECT, (96, 192), lambda r: _psi(4, -1, r), False),
    ("unit-interval-400-psi3+", ((0.0, 1.0),), (400,), lambda r: _psi(3, 1, r), False),
    ("unit-square-64-psi4+", ((0.0, 1.0), (0.0, 1.0)), (64, 64), lambda r: _psi(4, 1, r), False),
)

_TRACE = (
    ("square-128-psi3+", _SQ, (128, 128), lambda r: _psi(3, 1, r)),
    ("square-128-poly", _SQ, (128, 128), _poly),
    ("rect-96x192-psi4-", _RECT, (96, 192), lambda r: _psi(4, -1, r)),
    ("interval-400-psi3+", _LINE, (400,), lambda r: _psi(3, 1, r)),
)

_TABLE = (
    ("square-128", _SQ, (128, 128)),
    ("interval-400", _LINE, (400,)),
)

WORKLOADS = ("analyze-ladder", "trace-branch", "table-sweep")


def make_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases for one seed, in the order they run."""
    rng = random.Random(seed)
    if workload == "analyze-ladder":
        cases = [
            Case(label, "analyze", {"domain": _domain(b, n), "model": model(rng)}, ladder)
            for label, b, n, model, ladder in _ANALYZE
        ]
    elif workload == "trace-branch":
        cases = [
            Case(label, "trace", {"domain": _domain(b, n), "model": model(rng)})
            for label, b, n, model in _TRACE
        ]
    elif workload == "table-sweep":
        cases = []
        for label, b, n in _TABLE:
            etas = [(1 if i % 2 == 0 else -1) * rng.uniform(*ETA_RANGE) for i in range(N_TABLE_ETAS)]
            config = {
                "domain": _domain(b, n),
                "model": {"kind": "psi_k", "k": 3, "eta": 1.0},
                "k_list": list(K_LIST),
                "eta_list": etas,
            }
            cases.append(Case(label, "table", config))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(cases)
    return cases


def expected_type(model: dict) -> str:
    """Co-existence type the paper's table gives for the model's sign pair."""
    if model["kind"] == "polynomial":
        if tuple(model["coeffs"]) != POLY_COEFFS:
            raise ValueError("expected type is only tabulated for the benchmark polynomial")
        return "VI"
    k, eta = model["k"], model["eta"]
    if k == 3:
        return "VI" if eta > 0 else "IX"
    if k == 4:
        return "I" if eta > 0 else "III"
    return "II"


def _axis_eigenvalue(lo: float, hi: float, n: int, j: int) -> float:
    h = (hi - lo) / (n + 1)
    return 4.0 / h**2 * math.sin(j * PI / (2 * (n + 1))) ** 2


def closed_form_lambdas(domain: dict) -> tuple[float, float]:
    """Lowest two eigenvalues of the discrete Dirichlet Laplacian:
    sum over axes of 4/h^2 sin^2(j pi / (2(n+1))), with j = 1 on every axis
    for lambda0 and j = 2 on one axis for lambda1."""
    axes = [(lo, hi, n) for (lo, hi), n in zip(domain["bounds"], domain["resolution"])]
    base = [_axis_eigenvalue(lo, hi, n, 1) for lo, hi, n in axes]
    lam0 = sum(base)
    lam1 = min(lam0 - b + _axis_eigenvalue(lo, hi, n, 2) for b, (lo, hi, n) in zip(base, axes))
    return lam0, lam1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_eigen(domain: dict, cr_report: dict) -> list[str]:
    lam0, lam1 = closed_form_lambdas(domain)
    problems = []
    if _rel(cr_report["lambda0"], lam0) > EIGEN_RTOL:
        problems.append(f"lambda0 {cr_report['lambda0']!r} differs from closed form {lam0!r}")
    if abs(cr_report["gap"] - (lam1 - lam0)) > EIGEN_RTOL * lam1:
        problems.append(f"gap {cr_report['gap']!r} differs from closed form {lam1 - lam0!r}")
    return problems


def check_analyze(case: Case, report: dict) -> list[str]:
    problems = check_eigen(case.config["domain"], report["cr_report"])
    want = expected_type(case.config["model"])
    if report["diagnostics"]["type"] != want:
        problems.append(f"type {report['diagnostics']['type']} != expected {want}")
    return problems


def check_trace(case: Case, report: dict, exit_code: int) -> list[str]:
    problems = check_analyze(case, report)
    branch = report["branch"]
    n_want = len(report["config"]["s_values"])
    if exit_code != 0:
        problems.append(f"trace exit code {exit_code}")
    if branch["n_points"] != n_want:
        problems.append(f"branch has {branch['n_points']} of {n_want} points")
    consistency = branch.get("consistency", {})
    for key in ("a_ok", "twob_ok"):
        if consistency.get(key) is not True:
            problems.append(f"branch fit {key} is {consistency.get(key)}")
    return problems


def check_table(case: Case, rows) -> list[str]:
    etas = case.config["eta_list"]
    want = [(k, eta) for eta in etas for k in case.config["k_list"]]
    got = [(r.k, r.eta) for r in rows]
    if got != want:
        return [f"table rows (k, eta) {got} != expected {want}"]
    problems = []
    for r in rows:
        t = expected_type({"kind": "psi_k", "k": r.k, "eta": r.eta})
        if str(r.ctype) != t:
            problems.append(f"row k={r.k} eta={r.eta!r}: type {r.ctype} != expected {t}")
    return problems
