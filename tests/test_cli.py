import ast
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coexist.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    RunConfig,
    cmd_analyze,
    cmd_table,
    cmd_trace,
    load_config,
    main,
    write_branch_csv,
    write_table_csv,
)
import coexist
from coexist import CoexistenceType, DomainSpec, Laplacian, TableRow, diagnostics, eigendata
from coexist.continuation import Branch, BranchPoint
from coexist.errors import ConfigError, as_number

PI = math.pi


def base_config(**model):
    return {
        "domain": {"kind": "interval", "bounds": [[0.0, PI]], "resolution": [100]},
        "model": model or {"kind": "psi_k", "k": 4, "eta": 1.0},
    }


def rounded_gap_config():
    # lambda1 - lambda0 rounds to exactly 0 on this grid of aspect 1e9
    return {
        "domain": {"kind": "rectangle", "bounds": [[0.0, 1.0], [0.0, 1e9]], "resolution": [3, 3]},
        "model": {"kind": "psi_k", "k": 3, "eta": 1.0},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_truncated_at(tmp_path, innermost, config, *overrides):
    """trace on a demo config with overrides exits 3 with no points, each
    side truncated at its innermost amplitude +-innermost."""
    path = Path(__file__).parents[1] / "demos" / "configs" / f"{config}.json"
    args = ["--config", str(path), "--out-dir", str(tmp_path)]
    for override in overrides:
        args += ["--override", override]
    assert main(["trace", *args]) == EXIT_SOLVER
    branch = json.loads((tmp_path / "report.json").read_text())["branch"]
    assert branch["n_points"] == 0
    assert [t.split(":")[0] for t in branch["truncations"]] == [
        f"branch truncated at s=-{innermost}",
        f"branch truncated at s={innermost}",
    ]


@pytest.mark.parametrize("integer", [False, True])
def test_as_number_values_and_messages(integer):
    # exact floats (ints in an integer field) return at once; other types
    # take the checked path, with the same values and messages as before
    field = "model.k" if integer else "model.eta"
    kind = "an integer" if integer else "a number"
    for bad in (True, "1.0"):
        with pytest.raises(ConfigError) as err:
            as_number(bad, field, integer)
        assert str(err.value) == f"{field} must be {kind}, got {bad!r}"
    got = as_number(np.int64(3), field, integer)
    assert got == 3 and type(got) is (int if integer else float)
    if integer:
        with pytest.raises(ConfigError, match=r"must be an integer, got np\.float64\(2\.5\)"):
            as_number(np.float64(2.5), field, integer)
    else:
        got = as_number(np.float64(2.5), field, integer)
        assert got == 2.5 and type(got) is float
    x = 7 if integer else 7.25
    assert as_number(x, field, integer) is x


class TestConfig:
    def test_load_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.domain.resolution == (100,)
        assert cfg.model.kind == "psi_k"
        assert len(cfg.s_values) == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        raw = base_config()
        raw["solver"] = "magic"
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_config(write_config(tmp_path, raw))

    def test_bad_tolerance_rejected(self, tmp_path):
        raw = base_config()
        raw["tolerances"] = {"eigen_tol": -1.0}
        with pytest.raises(ConfigError, match=r"unknown config fields: \['tolerances'\]"):
            load_config(write_config(tmp_path, raw))

    def test_removed_solvability_tol_rejected(self, tmp_path):
        # the corrector has no multiplier to check and keeps its own CG
        # target, the sign pair and the gap follow from the box's structure,
        # Newton stops at F's rounding floor, and the principal sine mode is
        # the stencil's exact eigenvector, so these knobs are gone, not ignored,
        # and with them the tolerances section
        path = write_config(tmp_path, base_config())
        removed = (
            ("eigen_tol", "1e-10"),
            ("solvability_tol", "1e-8"),
            ("linear_tol", "1e-10"),
            ("zero_tol", "1e-6"),
            ("gap_tol", "1e-6"),
            ("newton_tol", "1e-10"),
        )
        for name, value in removed:
            with pytest.raises(ConfigError, match=r"unknown config fields: \['tolerances'\]"):
                load_config(path, [f"tolerances.{name}={value}"])

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path, ["model.eta=-1.0", "domain.resolution=[50]"])
        assert cfg.model.eta == -1.0
        assert cfg.domain.resolution == (50,)

    def test_override_requires_equals(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["model.eta"])

    def test_zero_s_value_rejected(self, tmp_path):
        raw = base_config()
        raw["s_values"] = [-0.1, 0.0, 0.1]
        with pytest.raises(ConfigError, match="trivial"):
            load_config(write_config(tmp_path, raw))

    def test_duplicate_s_values_rejected(self, tmp_path):
        raw = base_config()
        raw["s_values"] = [0.1, 0.1]
        with pytest.raises(ConfigError, match="duplicates"):
            load_config(write_config(tmp_path, raw))

    def test_out_of_range_k_list_rejected(self, tmp_path):
        raw = base_config()
        raw["k_list"] = [2, 3]
        with pytest.raises(ConfigError, match="3..8"):
            load_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize(
        "override",
        [
            # a removed tolerance is an unknown field, whatever its value
            "tolerances.eigen_tol=abc",
            "tolerances.eigen_tol=NaN",
            "tolerances.eigen_tol=Infinity",
            'domain.resolution=["x"]',
            'domain.bounds=[[0,"pi"]]',
            # an unhashable kind is malformed, not a crash in the kind lookup
            "domain.kind=[1]",
            'model.k="x"',
            'eta_list=["x"]',
            's_values=["x"]',
            'k_list=["x"]',
            "model.eta=NaN",
            "eta_list=[NaN]",
            "s_values=[NaN,0.1]",
            "tolerances=5",
            "outputs=5",
            "model.k=Infinity",
            "model.k=1001",
            "k_list=[Infinity]",
            "domain.resolution=[Infinity]",
            "domain.bounds=[[0,Infinity]]",
            # h^2 underflows to 0; then sum 4/h^2 is finite but its square is
            # not; then the square is finite but times prod 2/len it is not
            "domain.bounds=[[0,1e-300]]",
            "domain.bounds=[[0,1e-150]]",
            "domain.bounds=[[0,1e-70]]",
            "k_list=[]",
            "eta_list=[]",
            "s_values=[]",
            "s_values=[0.02,0.04]",
            "s_values=[0.02,0.04,0.06,0.08,0.1]",
            "s_values=[-0.06,-0.04,-0.02,0.02]",
            # integer fields take integers only; bools are not numbers
            "model.k=3.9",
            "domain.resolution=[50.7]",
            "k_list=[3.5,4]",
            'model.k="3"',
            "model.eta=true",
            "domain.resolution=[true]",
            "domain.bounds=[[false,1]]",
            "eta_list=[true]",
            "s_values=[true,-0.1,-0.2,0.2,0.3]",
            "tolerances.eigen_tol=true",
            # finite, but mu_ss = -2 g''(0)^2 M_hat overflows for psi_3
            "model.eta=1e200",
            "eta_list=[1e200]",
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override):
        path = write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0))
        # eta_list is the table's input; every other field reaches analyze
        command = "table" if override.startswith("eta_list=") else "analyze"
        code = main([command, "--config", path, "--out-dir", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, override",
        [
            ("analyze", "outputs.report_path=5"),
            ("analyze", "outputs.report_path=null"),
            ("trace", "outputs.branch_csv_path=[1]"),
            # "" would name the out-dir itself, which does not exist yet
            ("analyze", 'outputs.report_path=""'),
            ("trace", 'outputs.branch_csv_path=""'),
            ("table", 'outputs.table_csv_path=""'),
        ],
    )
    def test_non_string_output_path_is_config_error(self, tmp_path, capsys, command, override):
        path = write_config(tmp_path, base_config())
        out_dir = tmp_path / "out"
        code = main([command, "--config", path, "--out-dir", str(out_dir), "--override", override])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {override.split('=')[0]} must be")
        assert not out_dir.exists()

    def test_override_on_non_object_root_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, [1, 2])
        code = main(["analyze", "--config", path, "--override", "model.eta=1"])
        assert code == EXIT_CONFIG
        assert "config root must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [("model.V_L=2", "V_L"), ("model.foo=1", "foo"), ("domain.foo=1", "foo")],
    )
    def test_unknown_model_or_domain_field_is_config_error(self, tmp_path, capsys, override, field):
        path = write_config(tmp_path, base_config())
        code = main(["analyze", "--config", path, "--out-dir", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: unknown {override.split('.')[0]} fields")
        assert repr(field) in err

    def test_echo_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestAnalyze:
    def test_quartic_report(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        report = cmd_analyze(cfg, out_dir=str(tmp_path))
        assert report["diagnostics"]["type"] == "I"
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["diagnostics"] == report["diagnostics"]

    def test_report_json_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        report = cmd_analyze(cfg, out_dir=str(tmp_path))
        assert json.loads(json.dumps(report)) == report

    def test_sixth_power_type_ii(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(kind="psi_k", k=6, eta=1.0)))
        report = cmd_analyze(cfg, out_dir=str(tmp_path))
        assert report["diagnostics"]["type"] == "II"

    @pytest.mark.parametrize("v_l", [-2.0, -0.5, 1.0, 3.0])
    def test_linear_model_mass_relation(self, tmp_path, v_l):
        cfg = load_config(write_config(tmp_path, base_config(kind="linear", V_L=v_l)))
        report = cmd_analyze(cfg, out_dir=str(tmp_path))
        assert report["diagnostics"]["type"] == "II"
        lam0 = report["cr_report"]["lambda0"]
        assert report["m_at_bifurcation"] == lam0 - v_l

    def test_report_moments(self, tmp_path):
        # the three per-mesh numbers that mu_s and mu_ss are computed from,
        # once, and no copy of lambda0 or of a per-model moment
        cfg = load_config(write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0)))
        cmd_analyze(cfg, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        eig = eigendata(cfg.domain)
        assert report["moments"] == {"I3": eig.I3, "I4": eig.I4, "M_hat": eig.M_hat}
        assert "lambda_equals_m_plus_V_L" not in report
        assert "lambda0" not in report["diagnostics"] and "moments" not in report["diagnostics"]

    def test_report_records_environment(self, tmp_path, monkeypatch):
        # outputs are byte-identical only at a fixed BLAS thread count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        cmd_analyze(load_config(write_config(tmp_path, base_config())), out_dir=str(tmp_path))
        env = json.loads((tmp_path / "report.json").read_text())["environment"]
        assert list(env) == ["numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        assert env["numpy"] == np.__version__
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == ("1", None, "2")

    def test_rerun_from_echoed_config_reproduces(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0)))
        first = cmd_analyze(cfg, out_dir=str(tmp_path))
        echoed = RunConfig.from_dict(first["config"])
        second = cmd_analyze(echoed, out_dir=str(tmp_path))
        assert second["diagnostics"]["mu_s"] == first["diagnostics"]["mu_s"]
        assert second["diagnostics"]["mu_ss"] == first["diagnostics"]["mu_ss"]
        assert second["cr_report"] == first["cr_report"]

    def test_square_domain_cr_report(self, tmp_path):
        raw = {
            "domain": {"kind": "rectangle", "bounds": [[0.0, PI], [0.0, PI]], "resolution": [32, 32]},
            "model": {"kind": "psi_k", "k": 4, "eta": 1.0},
        }
        cr = cmd_analyze(load_config(write_config(tmp_path, raw)), out_dir=str(tmp_path))["cr_report"]
        assert cr["kernel_dim_ok"] is True
        assert cr["lambda0"] == pytest.approx(2.0, abs=5e-3)
        assert cr["gap"] == pytest.approx(3.0, abs=2e-2)


class TestTrace:
    def test_quartic_branch_csv(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        report, code = cmd_trace(cfg, out_dir=str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "branch.csv").read_text().splitlines()
        assert lines[0] == "s,lambda,l2_norm_U,residual,newton_iters"
        assert len(lines) == 11
        lam0 = report["cr_report"]["lambda0"]
        for row in lines[1:]:
            assert float(row.split(",")[1]) > lam0
        cons = report["branch"]["consistency"]
        assert cons["a_ok"] and cons["twob_ok"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        cmd_trace(load_config(cfg_path), out_dir=str(out1))
        cmd_trace(load_config(cfg_path), out_dir=str(out2))
        assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()

    def test_shorter_rewrite_in_one_dir_equals_fresh_run(self, tmp_path):
        # files are rewritten in place and cut to length: no stale rows
        # of the 10-point branch, and the shorter report still parses
        cfg_path = write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0))
        short = "s_values=[-0.1,-0.05,-0.02,0.02,0.05,0.1]"
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        cmd_trace(load_config(cfg_path), out_dir=str(same))
        long_report = (same / "report.json").stat().st_size
        report, _ = cmd_trace(load_config(cfg_path, [short]), out_dir=str(same))
        cmd_trace(load_config(cfg_path, [short]), out_dir=str(fresh))
        assert (same / "branch.csv").read_bytes() == (fresh / "branch.csv").read_bytes()
        assert len((same / "branch.csv").read_text().splitlines()) == 7
        assert (same / "report.json").stat().st_size < long_report
        assert json.loads((same / "report.json").read_text()) == report

    @pytest.mark.parametrize(
        "config, overrides",
        [("psi3_interval", []), ("psi4_interval", []), ("psi3_rectangle", ["domain.resolution=[25,47]"])],
        ids=["psi3-interval", "psi4-interval", "psi3-rectangle-25x47"],
    )
    def test_consistency_block_is_the_literal_bounds(self, tmp_path, config, overrides):
        # the fit's verdict: six keys in order, each bit for bit the formula
        cfg = load_config(Path(__file__).parents[1] / "demos" / "configs" / f"{config}.json", overrides)
        report, code = cmd_trace(cfg, out_dir=str(tmp_path))
        assert code == EXIT_OK
        mu_s, mu_ss = report["diagnostics"]["mu_s"], report["diagnostics"]["mu_ss"]
        a, b = report["branch"]["fit"]["a"], report["branch"]["fit"]["b"]
        a_tol, twob_tol = max(1e-3, 0.01 * abs(mu_s)), max(5e-3, 0.02 * abs(mu_ss))
        want = {
            "a_minus_mu_s": a - mu_s,
            "a_tol": a_tol,
            "a_ok": abs(a - mu_s) <= a_tol,
            "twob_minus_mu_ss": 2 * b - mu_ss,
            "twob_tol": twob_tol,
            "twob_ok": abs(2 * b - mu_ss) <= twob_tol,
        }
        cons = report["branch"]["consistency"]
        assert list(cons) == list(want)
        assert json.dumps(cons) == json.dumps(want)
        assert json.loads((tmp_path / "report.json").read_text())["branch"]["consistency"] == want

    def test_free_model_eigenline(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(kind="free")))
        report, code = cmd_trace(cfg, out_dir=str(tmp_path))
        assert code == EXIT_OK
        lam0 = report["cr_report"]["lambda0"]
        for row in (tmp_path / "branch.csv").read_text().splitlines()[1:]:
            assert abs(float(row.split(",")[1]) - lam0) <= 1e-8


class TestTable:
    def test_types_across_powers(self, tmp_path):
        raw = base_config()
        raw["k_list"] = [3, 4, 5, 6]
        cfg = load_config(write_config(tmp_path, raw))
        rows = cmd_table(cfg, out_dir=str(tmp_path))
        types = [str(r.ctype) for r in rows]
        assert types == ["VI", "I", "II", "II"]
        csv_lines = (tmp_path / "table.csv").read_text().splitlines()
        assert csv_lines[0] == "k,eta,mu_s,mu_ss,type"
        assert len(csv_lines) == 5

    def test_negative_eta_quartic(self, tmp_path):
        raw = base_config(kind="psi_k", k=4, eta=-1.0)
        raw["k_list"] = [4]
        cfg = load_config(write_config(tmp_path, raw))
        rows = cmd_table(cfg, out_dir=str(tmp_path))
        assert str(rows[0].ctype) == "III"

    def test_zero_eta_all_type_ii(self, tmp_path):
        raw = base_config()
        raw["k_list"] = [3, 4, 7]
        raw["eta_list"] = [0.0]
        cfg = load_config(write_config(tmp_path, raw))
        rows = cmd_table(cfg, out_dir=str(tmp_path))
        assert all(str(r.ctype) == "II" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        raw = base_config(kind="psi_k", k=3, eta=1.0)
        raw["k_list"] = [3, 4]
        cfg_path = write_config(tmp_path, raw)
        cmd_table(load_config(cfg_path), out_dir=str(tmp_path / "t1"))
        cmd_table(load_config(cfg_path), out_dir=str(tmp_path / "t2"))
        assert (tmp_path / "t1/table.csv").read_bytes() == (tmp_path / "t2/table.csv").read_bytes()

    def test_shorter_rewrite_in_one_dir_equals_fresh_run(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0))
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        cmd_table(load_config(cfg_path, ["k_list=[3,4,5,6,7,8]"]), out_dir=str(same))
        cmd_table(load_config(cfg_path, ["k_list=[3]"]), out_dir=str(same))
        cmd_table(load_config(cfg_path, ["k_list=[3]"]), out_dir=str(fresh))
        assert (same / "table.csv").read_bytes() == (fresh / "table.csv").read_bytes()
        assert len((same / "table.csv").read_text().splitlines()) == 2
        # a longer rewrite over the short file needs no cut
        cmd_table(load_config(cfg_path, ["k_list=[3,4,5,6,7,8]"]), out_dir=str(same))
        cmd_table(load_config(cfg_path, ["k_list=[3,4,5,6,7,8]"]), out_dir=str(fresh))
        assert (same / "table.csv").read_bytes() == (fresh / "table.csv").read_bytes()


class TestTableSharesEigenStage:
    @pytest.mark.parametrize("n_etas", [1, 8])
    def test_one_principal_eigensolve_per_mesh(self, tmp_path, monkeypatch, n_etas):
        # one bifurcation point and one corrector solve per mesh
        calls = {"bifurcation_point": 0, "bordered_solve": 0}
        for name in calls:
            original = getattr(diagnostics, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(diagnostics, name, counting)
        raw = base_config()
        raw["eta_list"] = [0.5 * (i + 1) * (-1) ** i for i in range(n_etas)]
        rows = cmd_table(load_config(write_config(tmp_path, raw)), out_dir=str(tmp_path))
        assert len(rows) == 6 * n_etas
        assert calls == {"bifurcation_point": 1, "bordered_solve": 1}


def _csv_oracle(header, rows) -> bytes:
    """RFC-4180 rows as csv.writer renders them, floats as 17 significant
    digits with -0.0 written 0: the CSV format the writers promise."""

    def fmt(x):
        x = float(x)
        return format(0.0 if x == 0.0 else x, ".17g")

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, (int, str)) else fmt(c) for c in row])
    return buf.getvalue().encode()


class TestCsvBytes:
    def test_table_csv_bytes(self, tmp_path):
        etas = [0.0, -0.0, 1e-300, -2.5, 0.1, 1e150]
        types = list(CoexistenceType)
        rows = []
        for i, (eta, k) in enumerate((eta, k) for eta in etas for k in range(3, 9)):
            mu_s = -0.0 if i % 5 == 0 else eta * k / 3.0 - 1e-17 * i
            mu_ss = -0.0 if i % 7 == 1 else (i - 17.5) * math.pi * 10.0 ** (i % 11 - 5)
            rows.append(TableRow(k=k, eta=eta, mu_s=mu_s, mu_ss=mu_ss, ctype=types[i % len(types)]))
        assert {r.ctype for r in rows} == set(types)
        write_table_csv(tmp_path / "table.csv", rows)
        want = _csv_oracle(
            ["k", "eta", "mu_s", "mu_ss", "type"], [(r.k, r.eta, r.mu_s, r.mu_ss, str(r.ctype)) for r in rows]
        )
        got = (tmp_path / "table.csv").read_bytes()
        assert got == want
        assert b"-0," not in got and b"-0\r" not in got and got.count(b"\r\n") == len(rows) + 1

    def test_branch_csv_bytes(self, tmp_path):
        L = Laplacian(DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (5, 8)))
        rng = np.random.default_rng(7)
        points = tuple(
            BranchPoint(s=s, lam=2.0 + s / 3.0, U=rng.standard_normal(L.n) * abs(s), residual=res, newton_iters=it)
            for s, res, it in ((-0.1, 3.5e-16, 1), (-1e-300, -0.0, 0), (0.05, 0.0, 2), (1e150, 1.25e-13, 12))
        )
        branch = Branch(points=points, lambda0=2.0)
        write_branch_csv(tmp_path / "branch.csv", branch, L)
        want = _csv_oracle(
            ["s", "lambda", "l2_norm_U", "residual", "newton_iters"],
            [(p.s, p.lam, math.sqrt(L.weight * float(p.U @ p.U)), p.residual, p.newton_iters) for p in points],
        )
        assert (tmp_path / "branch.csv").read_bytes() == want


@pytest.mark.parametrize(
    "config, overrides",
    [("psi3_interval", []), ("psi3_rectangle", ["domain.resolution=[25,47]"])],
    ids=["interval", "rectangle-25x47"],
)
def test_cr_report_block_is_one_contract(tmp_path, config, overrides):
    # analyze and trace write one cr_report block, byte for byte, with its
    # five keys in order and the transversality identity as -1
    cfg = load_config(Path(__file__).parents[1] / "demos" / "configs" / f"{config}.json", overrides)
    cmd_analyze(cfg, out_dir=str(tmp_path / "analyze"))
    cmd_trace(cfg, out_dir=str(tmp_path / "trace"))
    reports = {c: json.loads((tmp_path / c / "report.json").read_text()) for c in ("analyze", "trace")}
    blocks = {json.dumps(r["cr_report"]) for r in reports.values()}
    assert len(blocks) == 1
    cr = reports["analyze"]["cr_report"]
    assert list(cr) == ["lambda0", "lambda1", "gap", "kernel_dim_ok", "transversality_value"]
    assert cr["transversality_value"] == -1.0 and cr["kernel_dim_ok"] is True
    for command in ("analyze", "trace"):
        assert reports[command]["m_at_bifurcation"] == cr["lambda0"] - cfg.model.V_L


class TestMain:
    def test_analyze_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert '"type": "I"' in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["[[0,1,2]]", "[[0]]"])
    def test_bounds_not_a_pair_exit_one(self, tmp_path, capsys, bounds):
        config = Path(__file__).parents[1] / "demos" / "configs" / "psi3_interval.json"
        args = ["--config", str(config), "--out-dir", str(tmp_path), "--override", f"domain.bounds={bounds}"]
        code = main(["analyze", *args])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "configuration error" in err and "bounds[0]" in err

    def test_invalid_resolution_exit_one(self, tmp_path):
        raw = base_config()
        raw["domain"]["resolution"] = [2]
        path = write_config(tmp_path, raw)
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["10", "1e-10", "1e-20", "abc"])
    def test_removed_linear_tol_exit_one(self, tmp_path, capsys, value):
        # a corrector CG target above ||rhs|| returns CG's zero start, a wrong
        # type with exit 0, so the corrector keeps its own target: no knob
        config = Path(__file__).parents[1] / "demos" / "configs" / "psi3_interval.json"
        override = f"tolerances.linear_tol={value}"
        code = main(["analyze", "--config", str(config), "--out-dir", str(tmp_path), "--override", override])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown config fields: ['tolerances']" in captured.err

    def test_rounded_gap_is_config_error_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # every command refuses a lambda1 that rounds to lambda0 (exit 1),
        # with no corrector solve and so no warning from one
        calls = []
        monkeypatch.setattr(diagnostics, "bordered_solve", lambda *args: calls.append(args))
        path = write_config(tmp_path, rounded_gap_config())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("analyze", "trace", "table"):
                assert main([command, "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err.count("lambda1 - lambda0 = 0.000e+00 is rounding") == 3

    @pytest.mark.parametrize(
        "config, s_values, innermost",
        [
            ("psi3_interval", "[-1e200,-1e199,-1e198,1e198,1e199,1e200]", "1e+198"),
            ("psi4_interval", "[-1e200,-1e199,-1e198,1e198,1e199,1e200]", "1e+198"),
        ],
    )
    def test_non_finite_branch_exit_three(self, tmp_path, config, s_values, innermost):
        # s^2 overflows at the innermost amplitude of each side: that side
        # truncates there, with no RuntimeWarning and no NaN residual
        assert_truncated_at(tmp_path, innermost, config, f"s_values={s_values}")

    def test_underflowing_amplitudes_exit_three(self, tmp_path):
        # s^2 underflows to 0, which the predictor divides by. psi_5 has
        # mu_s = mu_ss = 0, so no amplitude is too small for the expansion
        s_values = "s_values=[-1e-200,-1e-199,-1e-198,1e-198,1e-199,1e-200]"
        assert_truncated_at(tmp_path, "1e-200", "psi3_interval", s_values, "model.k=5")

    @pytest.mark.parametrize(
        "s_values", ["[-1e-100,-1e-99,-1e-98,1e-98,1e-99,1e-100]", "[-1e-200,-1e-199,-1e-198,1e-198,1e-199,1e-200]"]
    )
    def test_unresolvable_amplitudes_exit_one(self, tmp_path, capsys, s_values):
        # |mu_s| |s| = 6.8e-101 (or 6.8e-201) at the smallest |s| is far
        # below the ulp of lambda0 ~ 1: lambda(s) would equal lambda0 to the
        # last bit, and the fit would read a = b = 0
        path = Path(__file__).parents[1] / "demos" / "configs" / "psi3_interval.json"
        args = ["--config", str(path), "--out-dir", str(tmp_path), "--override", f"s_values={s_values}"]
        assert main(["trace", *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "ulps of lambda0" in err
        assert not (tmp_path / "branch.csv").exists()

    def test_out_of_memory_grid_exit_one(self, tmp_path, capsys):
        # 10^15 nodes on one axis ask for petabytes, beyond the address
        # space, so the allocation fails before anything is allocated
        config = Path(__file__).parents[1] / "demos" / "configs" / "psi3_interval.json"
        override = "domain.resolution=[1000000000000000]"
        code = main(["analyze", "--config", str(config), "--out-dir", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("out of memory on a grid of 1000000000000000 nodes: ") and err.count("\n") == 1

    def test_unwritable_output_exit_one(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path = write_config(tmp_path, base_config())
        code = main(
            ["analyze", "--config", path, "--out-dir", str(tmp_path), "--override",
             f'outputs.report_path="{blocker}/report.json"']
        )
        assert code == EXIT_CONFIG

    def test_existing_out_dir_makes_no_mkdir_call(self, tmp_path, monkeypatch):
        calls = []
        mkdir = Path.mkdir

        def counting(self, *args, **kwargs):
            calls.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting)
        path = write_config(tmp_path, base_config())
        out = tmp_path / "missing" / "nested"
        assert main(["trace", "--config", path, "--out-dir", str(out)]) == EXIT_OK
        assert (out / "branch.csv").is_file() and (out / "report.json").is_file()
        assert out in calls
        calls.clear()
        for command in ("analyze", "trace", "table"):
            assert main([command, "--config", path, "--out-dir", str(out)]) == EXIT_OK
        assert calls == [] and (out / "table.csv").is_file()

    @pytest.mark.skipif(os.devnull != "/dev/null", reason="needs /dev/null")
    def test_device_output_is_written_not_cut(self, tmp_path):
        # a device has no length to cut: the report goes to /dev/null, exit 0
        path = write_config(tmp_path, base_config())
        argv = ["analyze", "--config", path, "--out-dir", str(tmp_path), "--override", "outputs.report_path=/dev/null"]
        assert main(argv) == EXIT_OK
        assert not (tmp_path / "report.json").exists()

    def test_symlinked_output_is_written_through(self, tmp_path):
        target = tmp_path / "elsewhere" / "report.json"
        target.parent.mkdir()
        target.write_text("x" * 100_000)
        (tmp_path / "out").mkdir()
        link = tmp_path / "out" / "report.json"
        link.symlink_to(target)
        path = write_config(tmp_path, base_config())
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert json.loads(target.read_text())["diagnostics"]["type"] == "I"

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file-size limits")
    def test_failed_write_leaves_an_empty_file(self, tmp_path):
        # a file-size limit makes the rewrite fail part-way for real (the
        # first write stops at the limit, the next raises EFBIG): the report
        # is left empty, not holding the old report's tail, and the exit is 1
        path = write_config(tmp_path, base_config())
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "report.json").stat().st_size > 256
        script = f"""
import resource, signal, sys
from coexist.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (256, 256))
sys.exit(main(["analyze", "--config", {path!r}, "--out-dir", {str(tmp_path)!r}]))
"""
        src = str(Path(coexist.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert out.returncode == EXIT_CONFIG
        assert out.stderr.startswith("I/O error: [Errno 27]")
        assert (tmp_path / "report.json").read_bytes() == b""

    def test_verify_is_not_a_command(self, tmp_path, capsys):
        # the cr_report block is analyze's; argparse rejects the old command
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit):
            main(["verify", "--config", path, "--out-dir", str(tmp_path)])
        assert "invalid choice: 'verify'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_trace_and_table_commands(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["trace", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "branch.csv").exists()
        assert main(["table", "--config", path, "--out-dir", str(tmp_path), "--override", "k_list=[3,4]"]) == EXIT_OK
        assert (tmp_path / "table.csv").exists()


def test_commands_run_without_scipy(tmp_path):
    # numpy is the package's only runtime dependency: importing the CLI and
    # analysing, tracing and tabulating a 64^2 square and, through the FFT
    # branch, a long last, first and only axis must not load any scipy module
    domains = [
        {"kind": "rectangle", "bounds": [[0, PI], [0, PI]], "resolution": [64, 64]},
        {"kind": "rectangle", "bounds": [[0, PI], [0, 2 * PI]], "resolution": [6, 700]},
        {"kind": "rectangle", "bounds": [[0, 2 * PI], [0, PI]], "resolution": [700, 6]},
        {"kind": "interval", "bounds": [[0, PI]], "resolution": [2000]},
    ]
    script = f"""
import sys
import coexist.cli as cli
for domain in {domains!r}:
    cfg = cli.RunConfig.from_dict({{
        "domain": domain,
        "model": {{"kind": "psi_k", "k": 3, "eta": 1.0}},
    }})
    cli.cmd_analyze(cfg, {str(tmp_path)!r})
    assert cli.cmd_trace(cfg, {str(tmp_path)!r})[1] == cli.EXIT_OK
    cli.cmd_table(cfg, {str(tmp_path)!r})
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(coexist.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_imports_no_scipy():
    # no import of scipy anywhere in the package, at module level or inside a function
    offenders = []
    for path in sorted(Path(coexist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []
