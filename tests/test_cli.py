import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from coexist.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    RunConfig,
    cmd_analyze,
    cmd_table,
    cmd_trace,
    cmd_verify,
    load_config,
    main,
)
import coexist
from coexist import diagnostics
from coexist.errors import ConfigError

PI = math.pi


def base_config(**model):
    return {
        "domain": {"kind": "interval", "bounds": [[0.0, PI]], "resolution": [100]},
        "model": model or {"kind": "psi_k", "k": 4, "eta": 1.0},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
        raw["tolerances"] = {"newton_tol": -1.0}
        with pytest.raises(ConfigError, match="newton_tol"):
            load_config(write_config(tmp_path, raw))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path, ["model.eta=-1.0", "domain.resolution=[50]", "tolerances.gap_tol=10"])
        assert cfg.model.eta == -1.0
        assert cfg.domain.resolution == (50,)
        assert cfg.tolerances.gap_tol == 10

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
            "tolerances.eigen_tol=abc",
            "tolerances.eigen_tol=NaN",
            "tolerances.zero_tol=Infinity",
            'domain.resolution=["x"]',
            'domain.bounds=[[0,"pi"]]',
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
            "k_list=[Infinity]",
            "domain.resolution=[Infinity]",
            "domain.bounds=[[0,Infinity]]",
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
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override):
        path = write_config(tmp_path, base_config())
        code = main(["analyze", "--config", path, "--out-dir", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "configuration error" in err and "Traceback" not in err

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

    def test_rerun_from_echoed_config_reproduces(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(kind="psi_k", k=3, eta=1.0)))
        first = cmd_analyze(cfg, out_dir=str(tmp_path))
        echoed = RunConfig.from_dict(first["config"])
        second = cmd_analyze(echoed, out_dir=str(tmp_path))
        assert second["diagnostics"]["mu_s"] == first["diagnostics"]["mu_s"]
        assert second["diagnostics"]["mu_ss"] == first["diagnostics"]["mu_ss"]
        assert second["cr_report"] == first["cr_report"]


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


class TestTableSharesEigenStage:
    @pytest.mark.parametrize("n_etas", [1, 8])
    def test_one_principal_eigensolve_per_mesh(self, tmp_path, monkeypatch, n_etas):
        # one principal eigensolve and one corrector solve per mesh
        calls = {"principal_eigenpair": 0, "bordered_solve": 0}
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
        assert calls == {"principal_eigenpair": 1, "bordered_solve": 1}


class TestVerify:
    def test_certifies_interval(self, tmp_path, capsys):
        cfg = load_config(write_config(tmp_path, base_config()))
        report, code = cmd_verify(cfg, out_dir=str(tmp_path))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gap" in out and "transversality" in out
        assert report["cr_report"]["kernel_dim_ok"]

    def test_synthetic_gap_tol_fails(self, tmp_path):
        report, code = cmd_verify(
            load_config(write_config(tmp_path, base_config()), ["tolerances.gap_tol=10"]),
            out_dir=str(tmp_path),
        )
        assert code == EXIT_VERIFY
        assert not report["cr_report"]["kernel_dim_ok"]

    def test_square_domain(self, tmp_path):
        raw = {
            "domain": {"kind": "rectangle", "bounds": [[0.0, PI], [0.0, PI]], "resolution": [32, 32]},
            "model": {"kind": "psi_k", "k": 4, "eta": 1.0},
        }
        report, code = cmd_verify(load_config(write_config(tmp_path, raw)), out_dir=str(tmp_path))
        assert code == EXIT_OK
        assert report["cr_report"]["lambda0"] == pytest.approx(2.0, abs=5e-3)
        assert report["cr_report"]["gap"] == pytest.approx(3.0, abs=2e-2)

    def test_solves_no_corrector(self, tmp_path, monkeypatch):
        calls = []
        original = diagnostics.compute_z_s

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "compute_z_s", counting)
        config = Path(__file__).parents[1] / "demos" / "configs" / "psi3_interval.json"
        report, code = cmd_verify(load_config(config), out_dir=str(tmp_path))
        assert code == EXIT_OK and report["cr_report"]["kernel_dim_ok"]
        assert calls == []


def test_analyze_and_verify_agree_below_default_eigen_tol(tmp_path):
    # eigen_tol = 1e-11 is finer than the second mode's residual at 400
    # nodes; both commands certify lambda1 by the same rule
    raw = base_config()
    raw["domain"]["resolution"] = [400]
    raw["tolerances"] = {"eigen_tol": 1e-11}
    cfg = load_config(write_config(tmp_path, raw))
    analyzed = cmd_analyze(cfg, out_dir=str(tmp_path / "a"))["cr_report"]
    verified, code = cmd_verify(cfg, out_dir=str(tmp_path / "v"))
    assert code == EXIT_OK
    for key in ("lambda0", "lambda1", "gap"):
        assert verified["cr_report"][key] == analyzed[key]


class TestMain:
    def test_analyze_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert '"type": "I"' in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_resolution_exit_one(self, tmp_path):
        raw = base_config()
        raw["domain"]["resolution"] = [2]
        path = write_config(tmp_path, raw)
        assert main(["analyze", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_verify_failure_exit_two(self, tmp_path):
        path = write_config(tmp_path, base_config())
        code = main(
            ["verify", "--config", path, "--out-dir", str(tmp_path), "--override", "tolerances.gap_tol=10"]
        )
        assert code == EXIT_VERIFY

    def test_solver_failure_exit_three(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        code = main(
            ["analyze", "--config", path, "--out-dir", str(tmp_path), "--override", "tolerances.eigen_tol=1e-30"]
        )
        assert code == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_unwritable_output_exit_one(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path = write_config(tmp_path, base_config())
        code = main(
            ["analyze", "--config", path, "--out-dir", str(tmp_path), "--override",
             f'outputs.report_path="{blocker}/report.json"']
        )
        assert code == EXIT_CONFIG

    def test_trace_and_table_commands(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["trace", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "branch.csv").exists()
        assert main(["table", "--config", path, "--out-dir", str(tmp_path), "--override", "k_list=[3,4]"]) == EXIT_OK
        assert (tmp_path / "table.csv").exists()


def test_commands_run_without_scipy(tmp_path):
    # scipy backs only the DST of axes over 512 nodes; importing the CLI and
    # analysing and tracing a 64^2 square must not load any of it
    script = f"""
import sys
import coexist.cli as cli
cfg = cli.RunConfig.from_dict({{
    "domain": {{"kind": "rectangle", "bounds": [[0, 3.14159], [0, 3.14159]], "resolution": [64, 64]}},
    "model": {{"kind": "psi_k", "k": 3, "eta": 1.0}},
}})
cli.cmd_analyze(cfg, {str(tmp_path)!r})
assert cli.cmd_trace(cfg, {str(tmp_path)!r})[1] == cli.EXIT_OK
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(coexist.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
