import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

import jsccdisp.channel as ch
import jsccdisp.source as sa
from conftest import two_orbit_cyclic
from jsccdisp.cli import main

LN2 = math.log(2.0)
REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "problem_file.schema.json").read_text())
TERNARY = str(REPO / "docs" / "examples" / "ternary_asymmetric.json")

BSC_PROBLEM = {
    "source": {"probs": [0.5, 0.5], "distortion": [[0.0, 1.0], [1.0, 0.0]]},
    "channel": {"matrix": [[0.89, 0.11], [0.11, 0.89]]},
    "rho": 1.0,
    "eps": 0.1,
    "units": "bits",
    "sim": {"seed": 7, "trials": 2000, "n_list": [200]},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BSC_PROBLEM))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so that each call appends its arguments."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestProblemFile:
    def test_example_files_validate_against_schema(self):
        for path in (REPO / "docs" / "examples").glob("*.json"):
            jsonschema.validate(json.loads(path.read_text()), SCHEMA)

    def test_fixture_validates(self):
        jsonschema.validate(BSC_PROBLEM, SCHEMA)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": {"matrix": [[1.0, 0.0]]')
        code, _, err = run(["channel", str(bad)], capsys)
        assert code == 2
        assert "line" in err

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {}}))
        code, _, err = run(["channel", str(bad)], capsys)
        assert code == 2
        assert "channel.matrix" in err

    def test_invalid_row_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"matrix": [[0.7, 0.7]]}}))
        code, _, err = run(["channel", str(bad)], capsys)
        assert code == 2
        assert "channel.matrix" in err


class TestChannelCommand:
    def test_bsc_report(self, problem_file, capsys):
        code, out, _ = run(["channel", problem_file, "--n-list", "1000"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["units"] == "bits"
        assert rep["capacity"] == pytest.approx(0.500084, abs=1e-5)
        assert rep["capacity_set_is_singleton"] is True
        assert rep["v_min"] == pytest.approx(0.8907017, abs=1e-6)
        assert rep["rates"][0]["rate"] == pytest.approx(0.461837, abs=1e-5)

    def test_identity_channel_zero_dispersion(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(
            {"channel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}))
        code, out, _ = run(["channel", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["v_min"] == pytest.approx(0.0, abs=1e-9)
        assert rep["v_max"] == pytest.approx(0.0, abs=1e-9)
        assert rep["v_min_positive"] is False

    @pytest.mark.parametrize("n_list", ["0", "-5", "100.9", "100,inf"])
    def test_bad_n_list_exit_2(self, problem_file, n_list, capsys):
        code, _, err = run(["channel", problem_file, "--n-list", n_list], capsys)
        assert code == 2
        assert "--n-list" in err

    def test_units_conversion_entrywise(self, problem_file, capsys):
        _, out_bits, _ = run(["channel", problem_file, "--units", "bits"], capsys)
        _, out_nats, _ = run(["channel", problem_file, "--units", "nats"], capsys)
        bits = json.loads(out_bits)
        nats = json.loads(out_nats)
        assert bits["capacity"] == pytest.approx(nats["capacity"] / LN2,
                                                 abs=1e-12)
        assert bits["v_min"] == pytest.approx(nats["v_min"] / LN2 ** 2,
                                              abs=1e-12)
        assert bits["rates"][0]["rate"] == pytest.approx(
            nats["rates"][0]["rate"] / LN2, abs=1e-12)

    def test_no_lp_library_imported(self, tmp_path):
        # importing scipy.optimize would cost about 0.3 s and 25 MB per process
        path = tmp_path / "channel_6x3.json"
        path.write_text(json.dumps({"channel": {"matrix": two_orbit_cyclic(3).tolist()}}))
        ternary = REPO / "docs" / "examples" / "ternary_asymmetric.json"
        script = (
            "import sys\n"
            "from jsccdisp.cli import main\n"
            f"assert main(['channel', {str(path)!r}]) == 0\n"
            f"assert main(['jscc', {str(ternary)!r}]) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_no_scipy_imported(self, tmp_path):
        # importing scipy.special would cost about 0.3 s and 24 MB per process
        path = tmp_path / "channel_6x3.json"
        path.write_text(json.dumps({"channel": {"matrix": two_orbit_cyclic(3).tolist()}}))
        examples = REPO / "docs" / "examples"
        ternary = str(examples / "ternary_asymmetric.json")
        bsc = str(examples / "bsc011_hamming.json")
        argvs = [["channel", str(path)], ["source", ternary, "-D", "0.1"],
                 ["jscc", ternary], ["separation", "--paper-fig3"]]
        argvs += [["simulate", bsc, "--what", what, "--trials", "2000",
                   "--workers", "2"] for what in ("excess", "clt-mi", "xi")]
        script = (
            "import sys\n"
            "from jsccdisp.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"


class TestSourceCommand:
    def test_rdf_report(self, problem_file, capsys):
        code, out, _ = run(
            ["source", problem_file, "--distortion", "0.1"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["rate"] == pytest.approx(0.5310044, abs=1e-6)
        assert rep["d_max"] == pytest.approx(0.5, abs=1e-12)

    def test_one_rdf_solve(self, monkeypatch, capsys):
        # the rate, the slope and V_S all come from one solve at D
        rdfs = count_calls(monkeypatch, sa, "rdf")
        code, out, _ = run(["source", TERNARY, "-D", "0.1"], capsys)
        assert code == 0
        assert len(rdfs) == 1
        assert "v_s" in json.loads(out)

    def test_requires_distortion(self, problem_file, capsys):
        code, _, err = run(["source", problem_file], capsys)
        assert code == 2
        assert "--distortion" in err


class TestJsccCommand:
    def test_threshold_row(self, problem_file, capsys):
        code, out, _ = run(["jscc", problem_file, "--n-list", "1000"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["d_star"] == pytest.approx(0.11, abs=1e-6)
        assert rep["thresholds"][0]["d_n_with_vlow"] == pytest.approx(
            0.123085, abs=1e-4)

    def test_eps_half_constant_column(self, tmp_path, capsys):
        prob = dict(BSC_PROBLEM, eps=0.5)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, out, _ = run(["jscc", str(path), "--n-list", "100,1000,10000"],
                           capsys)
        assert code == 0
        rep = json.loads(out)
        ds = {t["d_n_with_vlow"] for t in rep["thresholds"]}
        assert len(ds) == 1
        assert ds.pop() == pytest.approx(rep["d_star"], abs=1e-12)

    def test_lossless_table(self, problem_file, capsys):
        code, out, _ = run(
            ["jscc", problem_file, "--lossless", "--n-list", "10000"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["mode"] == "lossless"
        assert rep["h_over_c"] == pytest.approx(1.9996639, abs=1e-6)

    def test_boundary_exit_4(self, tmp_path, capsys):
        prob = dict(BSC_PROBLEM, rho=4.0)  # lossless regime; D* = 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(["jscc", str(path)], capsys)
        assert code == 4
        assert "boundary" in err

    def test_eps_flag_overrides_file(self, problem_file, capsys):
        _, out, _ = run(["jscc", problem_file, "--n-list", "1000"], capsys)
        code, over, _ = run(["jscc", problem_file, "--n-list", "1000",
                             "--eps", "0.001"], capsys)
        assert code == 0
        base, over = json.loads(out), json.loads(over)
        assert (base["eps"], over["eps"]) == (0.1, 0.001)
        # a smaller eps asks for a larger rate margin, so D_n grows
        assert (over["thresholds"][0]["d_n_with_vlow"]
                > base["thresholds"][0]["d_n_with_vlow"])

    def test_zero_distortion_rate_solved_once(self, monkeypatch, capsys):
        # R(P, 0) bounds D* and every D_n target: one solve serves them all
        rdfs = count_calls(monkeypatch, sa, "rdf")
        code, _, _ = run(["jscc", TERNARY, "--n-list", "100,1000,10000"], capsys)
        assert code == 0
        assert [args[1] for args in rdfs].count(0.0) == 1

    def test_lossless_solves_channel_once(self, monkeypatch, capsys):
        vertices = count_calls(monkeypatch, ch, "vmin_vmax")
        capacities = count_calls(monkeypatch, ch, "capacity")
        code, _, _ = run(["jscc", TERNARY, "--lossless",
                          "--n-list", "100,1000,10000"], capsys)
        assert code == 0
        assert (len(vertices), len(capacities)) == (1, 1)

    def test_csv_format(self, problem_file, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(["jscc", problem_file, "--format", "csv",
                          "--out", str(out_path), "--n-list", "100,1000"],
                         capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("n,")
        assert len(lines) == 3


class TestSeparationCommand:
    def test_default_lambda_curves(self, capsys):
        code, out, _ = run(["separation", "--eps-grid", "0.01,0.1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps,lambda,eps_tilde"
        assert len(lines) == 1 + 8 * 2  # default eight lambda curves

    def test_symmetric_cell(self, capsys):
        code, out, _ = run(
            ["separation", "--eps-grid", "0.1", "--lambda-list", "1"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[2])
        assert value == pytest.approx(0.0105, abs=1e-4)

    def test_empty_grid_exit_2(self, capsys):
        code, _, err = run(
            ["separation", "--eps-grid", ",", "--lambda-list", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--eps-grid", "0.1,1.5"],
        ["--eps-grid", "0,0.1"],
        ["--eps-grid", "nan"],
        ["--eps-grid", "0.1", "--lambda-list", "-1"],
        ["--eps-grid", "0.1", "--lambda-list", "inf"],
    ])
    def test_bad_grid_exit_2(self, argv, capsys):
        code, _, err = run(["separation"] + argv, capsys)
        assert code == 2
        assert argv[-2] in err

    @pytest.mark.parametrize("argv", [
        ["separation", "--paper-fig3", "--tol", "5"],
        ["separation", "--paper-fig3", "--eps", "0.1"],  # not --eps-grid
        ["channel", TERNARY, "--seed", "1"],
        ["jscc", TERNARY, "--tol", "1e-6"],
        ["simulate", TERNARY, "--what", "xi", "--units", "nats"],
    ])
    def test_unread_flag_exit_2(self, argv):
        # each command accepts only the common flags it reads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_paper_fig3_preset(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(["separation", "--paper-fig3", "--out",
                          str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 8 * 200


class TestSimulateCommand:
    def test_missing_sim_block_exit_3(self, tmp_path, capsys):
        prob = {k: v for k, v in BSC_PROBLEM.items() if k != "sim"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(
            ["simulate", str(path), "--what", "xi", "--n-list", "50"], capsys)
        assert code == 3

    @pytest.mark.parametrize("what", ["excess", "clt-mi", "xi"])
    @pytest.mark.parametrize("flag,value", [
        ("--trials", "0"), ("--trials", "-3"), ("--trials", "1.5"),
        ("--workers", "0"), ("--workers", "-3"), ("--workers", "two"),
        ("--uep-classes", "0"), ("--uep-classes", "-5"), ("--uep-classes", "x"),
    ])
    def test_bad_trials_or_workers_exit_2(self, problem_file, what, flag,
                                          value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", problem_file, "--what", what, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_sim_trials_exit_2(self, tmp_path, capsys):
        prob = dict(BSC_PROBLEM, sim={"seed": 7, "trials": 0, "n_list": [50]})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(["simulate", str(path), "--what", "xi"], capsys)
        assert code == 2
        assert "sim.trials" in err

    def test_clt_block_lengths_do_not_overlap(self, problem_file, capsys):
        # each block length's samples are freed before the next is drawn,
        # so two block lengths peak where one does
        def peak(n_list):
            tracemalloc.start()
            try:
                code, _, _ = run(["simulate", problem_file, "--what", "clt-mi",
                                  "--trials", "524288", "--n-list", n_list],
                                 capsys)
                assert code == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("100")  # one-time allocations of the first call
        assert peak("100,100") <= 1.1 * peak("100")

    def test_xi_report(self, problem_file, capsys):
        code, out, _ = run(
            ["simulate", problem_file, "--what", "xi", "--n-list", "50"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["results"][0]["bound_respected"] is True

    def test_byte_identical_across_runs_and_workers(self, problem_file,
                                                    tmp_path, capsys):
        outs = []
        for i, workers in enumerate((1, 1, 4)):
            path = tmp_path / f"r{i}.json"
            code, _, _ = run(
                ["simulate", problem_file, "--what", "excess",
                 "--trials", "2000", "--workers", str(workers),
                 "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_ternary_excess_estimate(self, capsys):
        # the estimate and its boundary trials as the parent computed them
        # with one rdf solve per source type
        code, out, _ = run(
            ["simulate", TERNARY, "--what", "excess", "--n-list", "500",
             "--trials", "2000", "--seed", "7"], capsys)
        assert code == 0
        res = json.loads(out)["results"][0]
        assert res["estimate"] == 0.0845
        assert res["diagnostics"]["boundary_trials"] == 0

    def test_uep_byte_identical(self, problem_file, tmp_path, capsys):
        outs = []
        for i, workers in enumerate((1, 4)):
            path = tmp_path / f"u{i}.json"
            code, _, _ = run(
                ["simulate", problem_file, "--what", "uep",
                 "--trials", "1500", "--eps", "0.2", "--n-list", "128",
                 "--workers", str(workers), "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_excess_solves_capacity_once(self, problem_file, monkeypatch,
                                         capsys):
        capacities = count_calls(monkeypatch, ch, "capacity")
        code, out, _ = run(
            ["simulate", problem_file, "--what", "excess", "--eps", "0.001",
             "--n-list", "100,200", "--trials", "200"], capsys)
        assert code == 0
        assert len(capacities) == 1
        assert [r["eps_target"] for r in json.loads(out)["results"]] == [0.001] * 2

    def test_clt_jscc_solves_once(self, monkeypatch, capsys):
        # one capacity solve; one rdf for D*, then one for the gradient at D*
        capacities = count_calls(monkeypatch, ch, "capacity")
        rdfs = count_calls(monkeypatch, sa, "rdf")
        code, _, _ = run(
            ["simulate", TERNARY, "--what", "clt-jscc",
             "--n-list", "100,1000,10000", "--trials", "200"], capsys)
        assert code == 0
        assert (len(capacities), len(rdfs)) == (1, 2)

    def test_excess_estimate_near_target(self, problem_file, capsys):
        code, out, _ = run(
            ["simulate", problem_file, "--what", "excess",
             "--n-list", "1000", "--trials", "5000"], capsys)
        assert code == 0
        rep = json.loads(out)
        row = rep["results"][0]
        slack = max(3 * row["std_error"], 0.04)
        assert abs(row["estimate"] - row["eps_target"]) <= slack

    def test_reports_reparse_as_json(self, problem_file, capsys):
        for what in ("xi", "mi-cont"):
            code, out, _ = run(
                ["simulate", problem_file, "--what", what,
                 "--n-list", "50", "--trials", "200"], capsys)
            assert code == 0
            json.loads(out)  # must round-trip

    def test_dball_bound_respected(self, problem_file, capsys):
        code, out, _ = run(
            ["simulate", problem_file, "--what", "dball", "--n-list", "10"],
            capsys)
        assert code == 0
        rep = json.loads(out)
        assert all(r["bound_respected"] for r in rep["results"])

    def test_mi_cont_all_hold(self, problem_file, capsys):
        code, out, _ = run(
            ["simulate", problem_file, "--what", "mi-cont",
             "--trials", "500"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["all_held"] is True
