import argparse
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import jsonschema
import pytest

import jsccdisp.channel as ch
import jsccdisp.cli as cli
import jsccdisp.jscc as jscc
import jsccdisp.source as sa
import jsccdisp.uep as uep
from conftest import two_orbit_cyclic
from jsccdisp.cli import main
from jsccdisp.errors import BoundaryDistortion

LN2 = math.log(2.0)
REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "src" / "jsccdisp" / "problem_file.schema.json").read_text())
TERNARY = str(REPO / "docs" / "examples" / "ternary_asymmetric.json")
BSC011 = str(REPO / "docs" / "examples" / "bsc011_hamming.json")

BSC_PROBLEM = {
    "source": {"probs": [0.5, 0.5], "distortion": [[0.0, 1.0], [1.0, 0.0]]},
    "channel": {"matrix": [[0.89, 0.11], [0.11, 0.89]]},
    "rho": 1.0,
    "eps": 0.1,
    "units": "bits",
    "sim": {"seed": 7, "trials": 2000, "n_list": [200]},
}


# the fields of BSC_PROBLEM that a mutation replaces or deletes, and keys
# the schema does not list
MUTABLE_PATHS = [
    ("source",), ("source", "probs"), ("source", "probs", 0),
    ("source", "distortion"), ("source", "distortion", 1),
    ("source", "distortion", 1, 0), ("source", "note"),
    ("channel",), ("channel", "matrix"), ("channel", "matrix", 0),
    ("channel", "matrix", 0, 1), ("rho",), ("eps",), ("units",), ("rhoo",),
    ("sim",), ("sim", "seed"), ("sim", "trials"), ("sim", "n_list"),
    ("sim", "n_list", 0), ("sim", "extra"),
]
# what a mutation puts there: finite JSON values on both sides of the
# schema's bounds, nested up to the depth of a matrix
MUTATIONS = [None, True, False, -1, 0, 1, 2, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0,
             "bits", "nats", "bit", "1", [], [0.5], [1, 2], [0.5, "x"],
             [[0.5, 0.5]], [[-1.0]], [[]], {}, {"x": 1}, {"probs": [1.0]},
             {"matrix": [[1.0]]}]


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

    @pytest.mark.parametrize("field,change", [
        ("'eps'", {"eps": "0.1"}),
        ("'eps'", {"eps": True}),
        ("'eps'", {"eps": None}),
        ("'eps'", {"eps": 0}),
        ("'eps'", {"eps": 1}),
        ("'eps'", {"eps": 1.5}),
        ("'rho'", {"rho": True}),
        ("'rho'", {"rho": "1"}),
        ("'rho'", {"rho": 0}),
        ("'rho'", {"rho": -2.0}),
        ("'rhoo'", {"rhoo": 2.0}),
        ("'note'", {"source": dict(BSC_PROBLEM["source"], note="x")}),
        ("'name'", {"channel": dict(BSC_PROBLEM["channel"], name="bsc")}),
        ("field 'source'", {"source": [1]}),
        ("field 'sim'", {"sim": 5}),
        ("field 'units'", {"units": "bit"}),
    ])
    def test_schema_violations_exit_2(self, tmp_path, capsys, field, change):
        # every file the schema rejects exits 2 and names its field
        prob = dict(BSC_PROBLEM, **change)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(prob, SCHEMA)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, out, err = run(["jscc", str(path), "--n-list", "100"], capsys)
        assert (code, out) == (2, "")
        assert field in err

    def test_infinite_rho_exit_2(self, tmp_path, capsys):
        # json parses the Infinity token, and jsonschema accepts the float
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(BSC_PROBLEM, rho=2.0))
                        .replace("2.0", "Infinity"))
        code, out, err = run(["jscc", str(path), "--n-list", "100"], capsys)
        assert (code, out) == (2, "")
        assert "field 'rho'" in err

    def test_loader_and_tests_read_one_schema(self):
        assert cli.SCHEMA_PATH == REPO / "src" / "jsccdisp" / "problem_file.schema.json"
        assert json.loads(cli.SCHEMA_PATH.read_text()) == SCHEMA
        assert not list((REPO / "docs").rglob("*schema*"))

    def test_schema_uses_only_the_loader_keywords(self):
        # the loader reads these keywords and no other; the two annotations
        # constrain nothing
        read = {"type", "enum", "minimum", "exclusiveMinimum",
                "exclusiveMaximum", "properties", "required",
                "additionalProperties", "items", "minItems", "$schema", "title"}

        def walk(schema):
            assert set(schema) <= read
            assert schema.get("additionalProperties", False) is False
            for sub in schema.get("properties", {}).values():
                walk(sub)
            if "items" in schema:
                walk(schema["items"])

        walk(SCHEMA)

    @pytest.mark.parametrize("path", MUTABLE_PATHS,
                             ids=lambda path: ".".join(map(str, path)))
    def test_loader_agrees_with_jsonschema(self, path):
        # replace or delete one field of the fixture: the loader's check
        # accepts the file exactly when jsonschema does, and a rejection
        # names the field
        validator = jsonschema.Draft202012Validator(SCHEMA)
        for value in MUTATIONS + ["delete"]:
            prob = json.loads(json.dumps(BSC_PROBLEM))
            node = prob
            for key in path[:-1]:
                node = node[key]
            if value != "delete":
                node[path[-1]] = value
            elif isinstance(node, list) or path[-1] in node:
                del node[path[-1]]
            try:
                cli._check(prob, SCHEMA)
            except cli.ProblemFileError as exc:
                assert not validator.is_valid(prob), (value, str(exc))
                assert path[0] in str(exc), (value, str(exc))
            else:
                assert validator.is_valid(prob), value

    @pytest.mark.parametrize("bad,need", [
        (math.nan, "a finite number"), (True, "a finite number"),
        (-0.5, ">= 0")])
    @pytest.mark.parametrize("at", [0, 3])
    def test_number_array_names_its_first_bad_item(self, bad, need, at):
        # the error names the first entry of the array that fails, with
        # the indices of the rows on the way to it
        row = [1, 0.0, 0.5, 0.5]
        row[at] = bad
        if at < 3:
            row[3] = -1.0
        prob = dict(BSC_PROBLEM, channel={"matrix": [[1, 0, 0, 0], row]})
        with pytest.raises(cli.ProblemFileError) as exc:
            cli._check(prob, SCHEMA)
        assert str(exc.value) == (f"field 'channel.matrix', item [1][{at}]: "
                                  f"{json.dumps(bad)} is not {need}")

    def test_loading_imports_no_validator(self):
        # the loader walks the schema itself; jsonschema is a test extra and
        # scipy is not a runtime dependency
        script = (
            "import sys\n"
            "from jsccdisp.cli import load_problem_file\n"
            f"load_problem_file({TERNARY!r})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('jsonschema', 'scipy')))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    def test_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("[1, 2]")
        code, _, err = run(["channel", str(path)], capsys)
        assert code == 2
        assert "top level" in err


class TestNumericFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["channel", TERNARY, "--tol", "0"], "--tol"),
        (["channel", TERNARY, "--tol=-1e-9"], "--tol"),
        (["channel", TERNARY, "--tol", "nan"], "--tol"),
        (["source", TERNARY, "-D", "0.1", "--tol", "inf"], "--tol"),
        (["jscc", TERNARY, "--eps", "0"], "--eps"),
        (["jscc", TERNARY, "--eps", "1.5"], "--eps"),
        (["channel", TERNARY, "--eps", "nan"], "--eps"),
        (["source", TERNARY, "-D", "nan"], "--distortion"),
        (["source", TERNARY, "-D", "inf"], "--distortion"),
        (["source", TERNARY, "--distortion", "-0.1"], "--distortion"),
        (["source", TERNARY, "-D", "x"], "--distortion"),
        (["simulate", TERNARY, "--what", "uep", "--uep-gamma", "nan"],
         "--uep-gamma"),
        (["simulate", TERNARY, "--what", "uep", "--uep-gamma=-inf"],
         "--uep-gamma"),
        (["separation", "--eps-grid", "0.1", "--lambda-list", "1", "--out="],
         "--out"),
        (["source", TERNARY, "-D", "0.1", "--out", ""], "--out"),
    ])
    def test_out_of_domain_exit_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_non_finite_report_exit_3(self, monkeypatch, tmp_path, capsys):
        # a report with a NaN in it writes nothing, not a NaN token
        real = sa._tilted
        monkeypatch.setattr(sa, "_tilted",
                            lambda *a, **k: real(*a, **k)[:2] + (math.nan,))
        code, out, err = run(["source", TERNARY, "-D", "0.1"], capsys)
        assert (code, out) == (3, "")
        assert "non-finite" in err
        path = tmp_path / "report.json"
        code, _, _ = run(["source", TERNARY, "-D", "0.1", "--out", str(path)],
                         capsys)
        assert code == 3 and not path.exists()


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


# the names the package re-exports from its Monte-Carlo layer
MCSIM_NAMES = [
    "CltResult", "SimConfig", "SimResult", "UepConfig", "UepResult",
    "dball_bound", "dball_count_exact", "eta_n", "excess_event_probability",
    "first_order_jscc_samples", "first_order_mi_samples", "gamma_n",
    "mi_continuity_check", "sample_channel_output", "sample_source_block",
    "uep_simulate", "xi_n_violation_rate",
]
# those of them that jsccdisp.uep defines; jsccdisp.mcsim defines the rest
UEP_NAMES = [
    "UepConfig", "UepResult", "dball_bound", "dball_count_exact", "eta_n",
    "gamma_n", "mi_continuity_check", "uep_simulate",
]


class TestLazyMonteCarlo:
    def test_loads_on_first_use(self):
        # the analytic commands neither run jsccdisp.mcsim nor import a
        # thread pool; a serial simulation runs mcsim but starts no pool
        bsc = str(REPO / "docs" / "examples" / "bsc011_hamming.json")
        script = (
            "import contextlib, io, json, sys\n"
            "import jsccdisp.cli\n"
            "from jsccdisp.cli import main\n"
            "import jsccdisp\n"
            "lazy = sys.modules['jsccdisp.mcsim']\n"
            "def state():\n"
            "    # type() does not trigger the load, attribute access does\n"
            "    return [type(lazy).__name__ == '_LazyModule',\n"
            "            'concurrent.futures' in sys.modules]\n"
            "states = [state()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['jscc', {TERNARY!r}]) == 0\n"
            "    assert main(['separation', '--paper-fig3']) == 0\n"
            "    states.append(state())\n"
            "    listed = dir(jsccdisp)\n"
            "    states.append(state())\n"
            f"    assert main(['simulate', {bsc!r}, '--what', 'xi',\n"
            "                 '--trials', '5000', '--workers', '1']) == 0\n"
            "states.append(state())\n"
            f"names, in_uep = {MCSIM_NAMES!r}, {UEP_NAMES!r}\n"
            "imported = {}\n"
            "for name in names:\n"
            "    exec(f'from jsccdisp import {name} as value', {}, imported)\n"
            "    home = 'uep' if name in in_uep else 'mcsim'\n"
            "    assert imported['value'] is getattr(\n"
            "        sys.modules[f'jsccdisp.{home}'], name), name\n"
            "star = {}\n"
            "exec('from jsccdisp import *', star)\n"
            "print(json.dumps({'states': states,\n"
            "                  'listed': [n for n in names if n in listed],\n"
            "                  'star': [n for n in names if n in star]}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout.splitlines()[-1])
        assert out["states"] == [[True, False], [True, False], [True, False],
                                 [False, False]]
        assert out["listed"] == out["star"] == MCSIM_NAMES

    def test_draws_load_no_pool_logging_or_uep(self):
        # excess and xi at two workers run on plain threads: neither
        # concurrent.futures nor logging, nor numpy.ma, nor the UEP half
        # of the Monte-Carlo layer is imported; a uep run loads the latter
        bsc = str(REPO / "docs" / "examples" / "bsc011_hamming.json")
        script = (
            "import contextlib, io, json, os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from jsccdisp.cli import main\n"
            "names = ['concurrent.futures', 'logging', 'numpy.ma',\n"
            "         'jsccdisp.uep']\n"
            "def loaded():\n"
            "    return [name for name in names if name in sys.modules]\n"
            "states = []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for what in ('excess', 'xi'):\n"
            f"        assert main(['simulate', {bsc!r}, '--what', what,\n"
            "                     '--trials', '40000', '--workers', '2']) == 0\n"
            "        states.append(loaded())\n"
            f"    assert main(['simulate', {bsc!r}, '--what', 'uep',\n"
            "                 '--trials', '2000', '--workers', '2']) == 0\n"
            "    states.append(loaded())\n"
            "print(json.dumps(states))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [
            [], [], ["jsccdisp.uep"]]

    def test_unknown_name_raises(self):
        import jsccdisp

        with pytest.raises(AttributeError, match="no_such_name"):
            jsccdisp.no_such_name  # noqa: B018

    def test_huge_worker_count_starts_few_threads(self, monkeypatch, capsys,
                                                  pool_sizes):
        # two batches and more, so that the run starts a pool
        monkeypatch.setattr(cli.mcsim.os, "cpu_count", lambda: 2)
        bsc = str(REPO / "docs" / "examples" / "bsc011_hamming.json")
        trials = str(2 * cli.mcsim.DEFAULT_BATCH + 1)
        outs = []
        for workers in ("1", str(10 ** 6)):
            code, out, _ = run(["simulate", bsc, "--what", "xi", "--trials",
                                trials, "--workers", workers], capsys)
            assert code == 0
            outs.append(out)
        assert pool_sizes == [2]
        assert outs[0] == outs[1]


class TestMain:
    def test_start_up_frozen_while_a_command_runs(self, monkeypatch, capsys):
        # the objects that exist before the command are out of the
        # collector's generations during it, and back in them after it
        frozen = []
        real = cli.build_parser

        def recording(argv):
            frozen.append(gc.get_freeze_count())
            return real(argv)

        monkeypatch.setattr(cli, "build_parser", recording)
        before = gc.get_freeze_count()
        code, _, _ = run(["separation", "--eps-grid", "0.1"], capsys)
        assert code == 0
        assert frozen[0] > 1000
        assert gc.get_freeze_count() == before == 0


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

    @pytest.mark.parametrize("path", [BSC011, TERNARY],
                             ids=["bsc011", "ternary"])
    def test_v_s_where_source_dispersion_returns(self, path, capsys):
        # one boundary rule: the command prints V_S exactly where
        # source_dispersion gives it, 1e-12 from either end by 1e-3 of that
        src = cli.load_problem_file(path)["source"]
        dm = sa.d_max(src)
        for d, inside in ((1e-12 * 0.999, False), (1e-12 * 1.001, True),
                          (dm - 1e-12 * 1.001, True),
                          (dm - 1e-12 * 0.999, False)):
            try:
                v_s = sa.source_dispersion(src, d)
            except BoundaryDistortion:
                v_s = None
            code, out, _ = run(["source", path, "-D", repr(d),
                                "--units", "nats"], capsys)
            assert code == 0
            assert (v_s is not None, json.loads(out).get("v_s")) == (inside,
                                                                    v_s)

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

    def test_lossless_table_reads_no_rho(self, tmp_path, capsys):
        # the file without rho gives the same bytes as the file with it
        problem = json.loads(pathlib.Path(BSC011).read_text())
        del problem["rho"]
        path = tmp_path / "norho.json"
        path.write_text(json.dumps(problem))
        outs = []
        for file in (BSC011, str(path)):
            for fmt in ("json", "csv"):
                code, out, err = run(["jscc", file, "--lossless", "--n-list",
                                      "100,1000", "--format", fmt], capsys)
                assert (code, err) == (0, "")
                outs.append(out)
        assert outs[:2] == outs[2:]

    def test_boundary_exit_4(self, tmp_path, capsys):
        prob = dict(BSC_PROBLEM, rho=4.0)  # lossless regime; D* = 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(["jscc", str(path)], capsys)
        assert code == 4
        assert "boundary" in err

    def test_one_boundary_rule(self, tmp_path, capsys):
        # rho*C = 0.99999999653 nats puts D* = 1.0e-10 inside (0, d_max) by
        # the 1e-12 rule of source._tilted, and both commands judge D* by
        # that rule alone; a 1e-9 rule would refuse this D*
        near = tmp_path / "near.json"
        near.write_text(json.dumps(dict(BSC_PROBLEM, rho=1.9996638822216264)))
        lossless = tmp_path / "lossless.json"
        lossless.write_text(json.dumps(dict(BSC_PROBLEM, rho=4.0)))
        clt = ["--what", "clt-jscc", "--n-list", "1000", "--trials", "500"]
        code, out, _ = run(["jscc", str(near), "--n-list", "1000"], capsys)
        assert code == 0
        d_star = json.loads(out)["d_star"]
        assert d_star == 1.0000000484278952e-10
        code, out, _ = run(["simulate", str(near), *clt], capsys)
        assert code == 0
        assert [r["d_star"] for r in json.loads(out)["results"]] == [d_star]
        # D* = 0: both commands raise BoundaryDistortion
        for argv in (["jscc", str(lossless)],
                     ["simulate", str(lossless), *clt]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (4, "")
            assert err.startswith("boundary error: V_S")

    @pytest.mark.parametrize("path,rho", [
        (BSC011, None), (TERNARY, None),
        (None, 1.9996638822216264),  # test_one_boundary_rule's near file
    ], ids=["bsc011", "ternary", "near"])
    def test_d_star_and_v_s_from_one_search(self, path, rho, tmp_path,
                                            capsys):
        # jscc and clt-jscc read D* and V_S(P, D*) off one _tilted_at_rate
        if path is None:
            path = tmp_path / "near.json"
            path.write_text(json.dumps(dict(BSC_PROBLEM, rho=rho)))
            path = str(path)
        pb = cli._jscc_problem(cli.load_problem_file(path))
        rep = jscc.dispersion_report(pb)
        d_star, _, _, v_s = sa._tilted_at_rate(pb.source,
                                               pb.rho * rep.capacity)
        assert (rep.d_star, rep.v_s_at_d_star) == (d_star, v_s)
        code, out, _ = run(["simulate", path, "--what", "clt-jscc",
                            "--n-list", "100", "--trials", "500"], capsys)
        assert code == 0
        assert [r["d_star"] for r in json.loads(out)["results"]] == [d_star]

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


def parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``, which may exit."""
    try:
        parse(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["--help", "jscc"], ["jscc"],
        ["separation", "--paper-fig3", "--tol", "5"],
        ["jscc", TERNARY, "extra"],
    ] + [[cmd, "--help"] for cmd in cli._COMMANDS])
    def test_output_equals_the_full_parser(self, argv, capsys):
        # main builds only the subparser argv names; help, usage errors and
        # the top-level usage line read as they do from the parser with all
        # five subcommands, which every invocation built before
        got = parse_outcome(main, argv, capsys)
        want = parse_outcome(cli.build_parser([]).parse_args, argv, capsys)
        assert got == want and got[0] in (0, 2)
        assert got[1] or got[2]

    def test_builds_only_the_named_subparser(self):
        sub = next(a for a in cli.build_parser(["source"])._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["source"]
        sub = next(a for a in cli.build_parser(["--help"])._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS)


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

    @pytest.mark.parametrize("argv,message", [
        (["jscc", BSC011, "--n-list="], "--n-list: empty grid"),
        (["separation", "--eps-grid", "0.1", "--lambda-list="],
         "--lambda-list: empty grid"),
        (["separation", "--eps-grid="], "--eps-grid: empty grid"),
        (["separation", "--paper-fig3", "--eps-grid", "0.3"], "--eps-grid"),
        (["separation", "--paper-fig3", "--lambda-list", "7"],
         "--lambda-list"),
    ], ids=["empty-n-list", "empty-lambda-list", "empty-eps-grid",
            "fig3-eps-grid", "fig3-lambda-list"])
    def test_given_grid_is_never_ignored(self, argv, message, capsys):
        # an empty grid is refused as one, not read as no flag, and the
        # --paper-fig3 preset takes no grid beside it
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)

    def test_underflowing_split(self, capsys):
        # the channel side of the first two rows is below the smallest
        # double; it once turned eps_tilde into 0.0 with a RuntimeWarning
        code, out, err = run(["separation", "--eps-grid", "5e-324,1e-300",
                              "--lambda-list", "1e-308,1"], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        tilde = [float(r[2]) for r in rows]
        assert tilde[0] == 5e-324
        assert tilde[1] == pytest.approx(1e-300, rel=1e-12)
        assert tilde[2:] == [0.0, 0.0]  # about 1e-645 and 1e-600

    def test_split_round_cap_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.jscc, "_MAX_SPLIT_ROUNDS", 1)
        code, out, err = run(["separation", "--eps-grid", "0.1",
                              "--lambda-list", "2"], capsys)
        assert (code, out) == (3, "")
        assert "eps = 0.1 at lambda = 2:" in err

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

    @pytest.mark.parametrize("field,sim", [
        ("sim.n_list", {"n_list": [0]}),
        ("sim.n_list", {"n_list": [-3]}),
        ("sim.n_list", {"n_list": [2.5, 100]}),
        ("sim.n_list", {"n_list": ["100"]}),
        ("sim.n_list", {"n_list": [True]}),
        ("sim.n_list", {"n_list": []}),
        ("sim.n_list", {"n_list": 100}),
        ("sim.trials", {"trials": 2.5}),
        ("sim.trials", {"trials": "10"}),
        ("sim.seed", {"seed": 2.5}),
        ("sim.seed", {"seed": None}),
        ("sim", {"n_lists": [50]}),
        ("sim.seed", {"seed": -3}),
    ])
    def test_bad_sim_block_exit_2(self, tmp_path, capsys, field, sim):
        # every block the schema rejects exits 2 and names its field
        prob = dict(BSC_PROBLEM, sim={"seed": 7, "trials": 10, "n_list": [50],
                                      **sim})
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(prob, SCHEMA)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(["simulate", str(path), "--what", "xi"], capsys)
        assert code == 2
        assert f"'{field}'" in err

    @pytest.mark.parametrize("what", ["xi", "mi-cont"])
    def test_negative_seed_exit_2(self, problem_file, what, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", problem_file, "--what", what, "--seed", "-1",
                  "--trials", "100", "--n-list", "50"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_sim_trials_exit_2(self, tmp_path, capsys):
        prob = dict(BSC_PROBLEM, sim={"seed": 7, "trials": 0, "n_list": [50]})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code, _, err = run(["simulate", str(path), "--what", "xi"], capsys)
        assert code == 2
        assert "sim.trials" in err

    @pytest.mark.parametrize("what", ["clt-mi", "clt-jscc"])
    def test_clt_with_one_trial_exit_2(self, tmp_path, problem_file, what,
                                       monkeypatch, capsys):
        # a sample variance needs two samples: one trial, from the flag or
        # from the file, is refused before any sampling, with no warning
        prob = dict(BSC_PROBLEM, sim={"seed": 7, "trials": 1, "n_list": [50]})
        path = tmp_path / "one.json"
        path.write_text(json.dumps(prob))
        batches = count_calls(monkeypatch, cli.mcsim, "_fill_batches")
        for argv in (["simulate", problem_file, "--what", what, "--trials",
                      "1", "--n-list", "50"],
                     ["simulate", str(path), "--what", what]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert f"--what {what} needs at least 2 trials" in err
        assert batches == []

    @pytest.mark.parametrize("what", ["excess", "xi"])
    def test_one_trial_is_enough_outside_the_clt_modes(self, problem_file,
                                                       what, capsys):
        code, out, _ = run(["simulate", problem_file, "--what", what,
                            "--trials", "1", "--n-list", "50"], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["trials"] == 1

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
        # the estimate and its boundary trials; one rdf solve per source
        # type gave 0.0845 from numpy's binomial channel rows, within
        # 4 sqrt(2) standard errors (0.035) of this inverse-CDF stream
        code, out, _ = run(
            ["simulate", TERNARY, "--what", "excess", "--n-list", "500",
             "--trials", "2000", "--seed", "7"], capsys)
        assert code == 0
        res = json.loads(out)["results"][0]
        assert res["estimate"] == 0.0865
        assert res["diagnostics"]["boundary_trials"] == 0

    def test_bsc011_excess_pinned(self, capsys):
        # 10^6 trials at seed 7: the same bytes at one and at two workers.
        # The estimate is within 3 standard errors (0.00084) of the exact
        # lemma-level 0.086209, and within 4 sqrt(2) standard errors of the
        # 0.086261 numpy's binomial draws gave
        bsc = str(REPO / "docs" / "examples" / "bsc011_hamming.json")
        outs = [run(["simulate", bsc, "--what", "excess", "--trials",
                     "1000000", "--seed", "7", "--workers", workers], capsys)
                for workers in ("1", "2")]
        assert outs[0] == outs[1]
        code, out, _ = outs[0]
        assert code == 0
        res = json.loads(out)["results"][0]
        assert res["estimate"] == 0.08617
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
        # one capacity solve; one rdf for R(P, 0), and none at D*: the
        # gradient at D* is read off the search that found D*
        capacities = count_calls(monkeypatch, ch, "capacity")
        rdfs = count_calls(monkeypatch, sa, "rdf")
        code, _, _ = run(
            ["simulate", TERNARY, "--what", "clt-jscc",
             "--n-list", "100,1000,10000", "--trials", "200"], capsys)
        assert code == 0
        assert (len(capacities), len(rdfs)) == (1, 1)

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

    def test_mi_cont_one_input_channel(self, tmp_path, monkeypatch, capsys):
        # one input letter leaves no direction to move p in: every trial is
        # the check at q = p, delta = 0 up to the rounding of renormalising
        # q, and it holds
        path = tmp_path / "one_input.json"
        path.write_text(json.dumps({
            "channel": {"matrix": [[0.3, 0.7]]},
            "sim": {"seed": 1, "trials": 50, "n_list": [100]}}))
        calls = count_calls(monkeypatch, uep, "mi_continuity_check")
        code, out, _ = run(["simulate", str(path), "--what", "mi-cont"],
                           capsys)
        assert code == 0
        rep = json.loads(out)["results"]
        assert rep["held"] == rep["trials"] == 50
        assert rep["all_held"] is True
        deltas = [args[3] for args in calls]
        assert len(deltas) == 50 and 0.0 in deltas and max(deltas) <= 1e-15

    def test_mi_cont_all_hold(self, problem_file, capsys):
        code, out, _ = run(
            ["simulate", problem_file, "--what", "mi-cont",
             "--trials", "500"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["all_held"] is True


class TestRefusals:
    # FILE stands for a problem file holding ``problem``, or for a path
    # with no file at all where ``problem`` is None
    @pytest.mark.parametrize("problem,argv,message", [
        (None, ["channel", "FILE"], "cannot read"),
        ({"source": {"probs": [0.5, 0.5],
                     "distortion": [[0.0, 1.0], [1.0, 0.5]]}},
         ["source", "FILE", "-D", "0.1"],
         "field 'source': every source symbol needs a zero-distortion"),
        ({"source": BSC_PROBLEM["source"]}, ["channel", "FILE"],
         "this command needs field 'channel' in the file"),
        (None, ["separation"], "separation needs --eps-grid or --paper-fig3"),
    ], ids=["unreadable-file", "source-spec", "missing-field",
            "separation-no-grid"])
    def test_exit_2(self, problem, argv, message, tmp_path, capsys):
        path = tmp_path / "problem.json"
        if problem is not None:
            path.write_text(json.dumps(problem))
        code, out, err = run([str(path) if a == "FILE" else a for a in argv],
                             capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_default_block_length(self, tmp_path, capsys):
        # no --n-list and no sim block: one rate row, at n = 1000
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"channel": BSC_PROBLEM["channel"],
                                    "eps": 0.1}))
        code, out, _ = run(["channel", str(path)], capsys)
        assert code == 0
        assert [row["n"] for row in json.loads(out)["rates"]] == [1000]
