"""Command-line surface: exit codes, output files, run records, config."""

import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from freeprob import __version__, brownfield, cli
from freeprob.errors import (
    EXIT_CODES,
    InternalInconsistencyError,
    MeasureFormatError,
    WordSpecError,
    exit_code_for,
)
from freeprob.matio import save_matrix
from freeprob.measures import ScalarMeasure
from freeprob.rdiagonal import OperatorTag


@pytest.fixture()
def two_point_file(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(ScalarMeasure(((0.0, 0.5), (1.0, 0.5))).to_json())
    return path


def _run(argv):
    return cli.main([str(a) for a in argv])


# -- exit codes ----------------------------------------------------------------


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        _run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--dim", "32", "--out-dir", tmp_path])
    assert exc.value.code == 2


def test_unknown_tag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--tag", "nope", "--dim", "32", "--seed", "1",
              "--out-dir", tmp_path])
    assert exc.value.code == 2


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["--version"])
    assert exc.value.code == 0
    assert "freeprob" in capsys.readouterr().out


def _run_python(*args):
    """A fresh interpreter that imports freeprob from this checkout's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_prints_version():
    proc = _run_python("-m", "freeprob", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"freeprob {__version__}"


def test_radial_recipe_alone_imports_scipy_interpolate():
    # scipy.interpolate is most of the package's import time; only the
    # radial recipe reads it, so importing the package must not load it
    script = (
        "import sys\n"
        "import freeprob, freeprob.cli\n"
        "print('scipy.interpolate' in sys.modules)\n"
        "freeprob.brown_rdiagonal(freeprob.ScalarMeasure(((0.0, 0.5), (1.0, 0.5))))\n"
        "print('scipy.interpolate' in sys.modules)\n"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_malformed_measure_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["rdiag", bad, "--out-dir", tmp_path]) == 3
    assert "error:" in capsys.readouterr().err


def test_missing_measure_file_exits_3(tmp_path):
    assert _run(["rdiag", tmp_path / "absent.json", "--out-dir", tmp_path]) == 3


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("entry", ["algebra-json", "algebra-csv", "field", "rdiag", "config"])
def test_unreadable_input_file_exits_3(two_point_file, tmp_path, capsys, entry, content):
    path = tmp_path / ("x.csv" if entry == "algebra-csv" else "x.json")
    if content is not None:
        path.write_bytes(content)
    argv = {
        "algebra-json": ["algebra", path],
        "algebra-csv": ["algebra", path],
        "field": ["field", "--matrix", path, "--grid-n", "8"],
        "rdiag": ["rdiag", path],
        "config": ["rdiag", two_point_file, "--config", path],
    }[entry]
    assert _run([*argv, "--out-dir", tmp_path / "out"]) == 3
    assert "error: cannot read" in capsys.readouterr().err


def test_simulate_without_seed_exits_4(tmp_path):
    code = _run(["simulate", "--tag", "W1F12", "--dim", "32",
                 "--out-dir", tmp_path])
    assert code == 4


def test_simulate_odd_dim_exits_4(tmp_path):
    code = _run(["simulate", "--tag", "W1F12", "--dim", "33", "--seed", "1",
                 "--out-dir", tmp_path])
    assert code == 4


def test_simulate_huge_dim_exits_4(tmp_path, capsys):
    code = _run(["simulate", "--tag", "W1F12", "--dim", "400000", "--seed", "1",
                 "--out-dir", tmp_path])
    assert code == 4
    assert "256 MB cap" in capsys.readouterr().err


def test_simulate_zero_seeds_exits_4(tmp_path):
    out = tmp_path / "sim"
    code = _run(["simulate", "--tag", "W1F12", "--dim", "32", "--seed", "1",
                 "--seeds", "0", "--out-dir", out])
    assert code == 4
    assert not out.exists()


def test_dirac_measure_exits_6(tmp_path):
    path = tmp_path / "dirac.json"
    path.write_text(ScalarMeasure(((1.0, 1.0),)).to_json())
    assert _run(["rdiag", path, "--out-dir", tmp_path]) == 6


def test_double_collision_exits_8(tmp_path):
    # node at 0 hits the first eigenvalue; the jittered probe hits the second
    dx = 2.0 / 40
    matrix = np.diag([0.0, 0.5 * dx + 0.5j * dx])
    path = tmp_path / "collide.json"
    save_matrix(path, matrix)
    code = _run(["field", "--matrix", path, "--grid=-1,1,-1,1,41,41",
                 "--epsilon", "0", "--out-dir", tmp_path / "out"])
    assert code == 8


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_exits_4(tmp_path, epsilon):
    path = tmp_path / "t.json"
    save_matrix(path, np.diag([0.0, 0.5j]))
    code = _run(["field", "--matrix", path, "--grid-n", "8",
                 "--epsilon", epsilon, "--out-dir", tmp_path / "out"])
    assert code == 4


def test_mixed_generator_sizes_exits_9(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(a, np.eye(2, dtype=complex))
    save_matrix(b, np.eye(3, dtype=complex))
    assert _run(["algebra", a, b, "--out-dir", tmp_path / "out"]) == 9


@pytest.mark.parametrize("command", ["field", "algebra"])
@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entry_exits_3(tmp_path, capsys, command, suffix, bad):
    path = tmp_path / f"bad{suffix}"
    save_matrix(path, np.array([[1.0, 0.0], [bad, 0.5j]]))
    argv = ["--matrix", path, "--grid-n", "8"] if command == "field" else [path]
    assert _run([command, *argv, "--out-dir", tmp_path / "out"]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_unreachable_error_codes_still_mapped():
    # no subcommand parses words or can disagree with itself on purpose,
    # so these taxonomy entries are asserted on the mapping directly
    assert exit_code_for(WordSpecError("x")) == 10
    assert exit_code_for(InternalInconsistencyError("x")) == 70
    assert EXIT_CODES[MeasureFormatError] == 3


# -- rdiag ---------------------------------------------------------------------


def test_rdiag_outputs(two_point_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(["rdiag", two_point_file, "--out-dir", out]) == 0
    assert "atom 0.5" in capsys.readouterr().out

    radial = json.loads((out / "two_point_radial.json").read_text())
    assert radial["atoms"] == [[0.0, 0.0, 0.5]]
    assert abs(radial["support"][1] - 2 ** -0.5) <= 1e-12

    rows = (out / "two_point_cdf.csv").read_text().strip().splitlines()
    assert rows[0] == "r,cdf"
    table = {line.split(",")[0]: float(line.split(",")[1]) for line in rows[1:]}
    # F(1/2) = 1/(2(1 - 1/4)) = 2/3, the dyadic grid hits 0.5 exactly
    assert abs(table["0.5"] - 2.0 / 3.0) <= 1e-9
    assert abs(table["0.0"] - 0.5) <= 1e-9


def test_rdiag_run_record_digests(two_point_file, tmp_path):
    out = tmp_path / "out"
    _run(["rdiag", two_point_file, "--out-dir", out])
    record = json.loads((out / "run_record.json").read_text())
    assert record["command"][0] == "freeprob"
    assert record["command"][1] == "rdiag"
    assert record["seed"] is None
    assert record["wall_time_s"] >= 0.0
    assert set(record["outputs"]) == {"two_point_radial.json", "two_point_cdf.csv"}
    for name, digest in record["outputs"].items():
        assert sha256((out / name).read_bytes()).hexdigest() == digest


def test_run_record_thread_settings(two_point_file, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    _run(["rdiag", two_point_file, "--out-dir", out])
    record = json.loads((out / "run_record.json").read_text())
    assert record["blas_thread_env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }
    assert record["affinity_cpus"] == len(os.sched_getaffinity(0)) >= 1
    assert "run_record.json" not in record["outputs"]


# -- simulate --------------------------------------------------------------


def test_simulate_outputs(tmp_path):
    out = tmp_path / "out"
    code = _run(["simulate", "--tag", "E12_plus_F12", "--dim", "32",
                 "--seeds", "2", "--seed", "7", "--out-dir", out])
    assert code == 0
    summary = json.loads((out / "simulation_summary.json").read_text())
    assert summary["tag"] == "E12_plus_F12"
    assert summary["dim"] == 32
    assert summary["eigenvalue_count"] == 64
    assert summary["cdf_end"] == 1.0
    assert 0.0 <= summary["ks_distance"] <= 1.0
    assert len(summary["child_seeds"]) == 2
    for idx in range(2):
        lines = (out / f"eigenvalues_seed{idx}.csv").read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 33
    cdf_lines = (out / "empirical_cdf.csv").read_text().splitlines()
    assert len(cdf_lines) == 65


def test_simulate_same_seed_reproduces(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        _run(["simulate", "--tag", "W1F12", "--dim", "32", "--seed", "11",
              "--out-dir", out])
        record = json.loads((out / "run_record.json").read_text())
        digests.append(record["outputs"])
    assert digests[0] == digests[1]


def test_simulate_different_seeds_differ(tmp_path):
    digests = []
    for seed in ("11", "12"):
        out = tmp_path / seed
        _run(["simulate", "--tag", "W1F12", "--dim", "32", "--seed", seed,
              "--out-dir", out])
        record = json.loads((out / "run_record.json").read_text())
        digests.append(record["outputs"]["empirical_cdf.csv"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("tag", [t.value for t in OperatorTag])
def test_simulate_every_tag(tmp_path, tag):
    out = tmp_path / "out"
    code = _run(["simulate", "--tag", tag, "--dim", "64", "--seeds", "1",
                 "--seed", "5", "--out-dir", out])
    assert code == 0
    lines = (out / "eigenvalues_seed0.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 65


def test_simulate_eigensolve_failure_exits_7(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code = _run(["simulate", "--tag", "W1_plus_F12", "--dim", "32", "--seed", "1",
                 "--out-dir", tmp_path / "out"])
    assert code == 7
    assert "eigensolve failed" in capsys.readouterr().err


def test_simulate_w1f12_counts_kernel_as_atom(tmp_path):
    # the kernel half of the spectrum is exact zeros, at the law's jump of
    # 1/2 at radius 0
    out = tmp_path / "out"
    code = _run(["simulate", "--tag", "W1F12", "--dim", "256", "--seed", "3",
                 "--out-dir", out])
    assert code == 0
    summary = json.loads((out / "simulation_summary.json").read_text())
    assert summary["ks_distance"] < 0.1


# -- field -----------------------------------------------------------------


def test_field_outputs(tmp_path):
    rng = np.random.default_rng(3)
    matrix = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / 4.0
    path = tmp_path / "m.json"
    save_matrix(path, matrix)
    out = tmp_path / "out"
    code = _run(["field", "--matrix", path, "--grid-n", "24", "--out-dir", out])
    assert code == 0
    meta = json.loads((out / "field_meta.json").read_text())
    assert meta["path"] == "svd"
    assert meta["grid"]["nx"] == 24
    assert meta["epsilon"] > 0.0
    assert meta["total_mass"] == pytest.approx(1.0, abs=0.15)
    field_lines = (out / "field.csv").read_text().splitlines()
    assert field_lines[0] == "x,y,value,mass"
    assert len(field_lines) == 1 + 24 * 24
    mass_lines = (out / "mass.csv").read_text().splitlines()
    assert len(mass_lines) == 1 + 22 * 22


def test_field_tag_requires_seed(tmp_path):
    code = _run(["field", "--tag", "W1F12", "--out-dir", tmp_path / "out"])
    assert code == 4


def test_field_from_tag(tmp_path):
    out = tmp_path / "out"
    code = _run(["field", "--tag", "W1F12", "--dim", "16", "--seed", "5",
                 "--grid-n", "20", "--out-dir", out])
    assert code == 0
    meta = json.loads((out / "field_meta.json").read_text())
    assert meta["source"] == "W1F12"


def test_field_epsilon_below_gram_rounding_exits_4(tmp_path, capsys):
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    path = tmp_path / "rank_one.json"
    save_matrix(path, np.outer(u, v.conj()))
    code = _run(["field", "--matrix", path, "--grid=-1,1,-1,1,5,5",
                 "--epsilon", "1e-300", "--out-dir", tmp_path / "out"])
    assert code == 4
    assert "--epsilon 0 or a larger epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--grid-n", "8"], ["--grid=-1,1,-1,1,5,5"]])
def test_field_non_square_matrix_exits_9(tmp_path, capsys, grid):
    path = tmp_path / "wide.json"
    save_matrix(path, np.ones((3, 4), dtype=complex))
    code = _run(["field", "--matrix", path, *grid, "--out-dir", tmp_path / "out"])
    assert code == 9
    assert "square matrix" in capsys.readouterr().err


def test_field_above_size_cap_exits_4_at_once(tmp_path, capsys, monkeypatch):
    # an 8x8 matrix on a 6000^2 grid needs a 288 MB value array
    def evaluated(*args):
        raise AssertionError("a grid row was evaluated")

    monkeypatch.setattr(brownfield, "_svd_column", evaluated)
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(8, dtype=complex))
    code = _run(["field", "--matrix", path, "--grid-n", "6000",
                 "--out-dir", tmp_path / "out"])
    assert code == 4
    assert "6000 x 6000 field needs ~274 MB, above the 256 MB cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_field_bad_grid_exits_4(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(2, dtype=complex))
    code = _run(["field", "--matrix", path, "--grid", "0,1,0,1",
                 "--out-dir", tmp_path / "out"])
    assert code == 4


# -- algebra ---------------------------------------------------------------


def _write_gens(tmp_path, *matrices):
    paths = []
    for idx, matrix in enumerate(matrices):
        path = tmp_path / f"gen{idx}.json"
        save_matrix(path, np.asarray(matrix, dtype=complex))
        paths.append(path)
    return paths


def test_algebra_reducible_report(tmp_path, capsys):
    e11 = [[1, 0], [0, 0]]
    e12 = [[0, 1], [0, 0]]
    paths = _write_gens(tmp_path, e11, e12)
    out = tmp_path / "out"
    assert _run(["algebra", *paths, "--out-dir", out]) == 0
    assert "reducible" in capsys.readouterr().out
    report = json.loads((out / "algebra_report.json").read_text())
    assert report["ambient_dim"] == 2
    assert report["closure_dim"] == 3
    assert report["transitive"] is False
    assert report["subspace"]["kind"] in ("radical_image", "commutant_eigenspace")
    assert report["subspace"]["verified"] is True


def test_algebra_transitive_with_kfold(tmp_path, capsys):
    rng = np.random.default_rng(0)
    gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)]
    paths = _write_gens(tmp_path, *gens)
    out = tmp_path / "out"
    code = _run(["algebra", *paths, "--kfold", "2", "--seed", "9",
                 "--out-dir", out])
    assert code == 0
    assert "transitive" in capsys.readouterr().out
    report = json.loads((out / "algebra_report.json").read_text())
    assert report["transitive"] is True
    assert report["closure_dim"] == 9
    assert report["subspace"] is None
    assert report["kfold"] == {"k": 2, "result": True}


def test_algebra_above_size_cap_exits_4(tmp_path, capsys):
    paths = _write_gens(tmp_path, np.zeros((64, 64)), np.zeros((64, 64)))
    assert _run(["algebra", *paths, "--out-dir", tmp_path / "o"]) == 4
    assert "cap" in capsys.readouterr().err


def test_algebra_kfold_without_seed_exits_4(tmp_path):
    paths = _write_gens(tmp_path, np.eye(2))
    code = _run(["algebra", *paths, "--kfold", "2", "--out-dir", tmp_path / "o"])
    assert code == 4


# -- config file -------------------------------------------------------------


def test_config_supplies_out_dir(two_point_file, tmp_path):
    target = tmp_path / "from_config"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(target)}))
    assert _run(["rdiag", two_point_file, "--config", config]) == 0
    assert (target / "run_record.json").exists()


def test_explicit_flag_beats_config(two_point_file, tmp_path):
    config_target = tmp_path / "from_config"
    flag_target = tmp_path / "from_flag"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(config_target)}))
    code = _run(["rdiag", two_point_file, "--config", config,
                 "--out-dir", flag_target])
    assert code == 0
    assert (flag_target / "run_record.json").exists()
    assert not config_target.exists()


def test_explicit_flag_equal_to_default_beats_config(
    two_point_file, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": "from_config", "threads": 4}))
    code = _run(["rdiag", two_point_file, "--out-dir", ".", "--threads", "1",
                 "--config", config])
    assert code == 0
    assert not (tmp_path / "from_config").exists()
    record = json.loads((tmp_path / "run_record.json").read_text())
    assert record["config"]["out_dir"] == "."
    assert record["config"]["threads"] == 1


def test_config_fills_flags_not_given(two_point_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 3}))
    out = tmp_path / "out"
    assert _run(["rdiag", two_point_file, "--config", config, "--out-dir", out]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["config"]["threads"] == 3


def test_unknown_config_key_exits_3(two_point_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_spacing": 1}))
    code = _run(["rdiag", two_point_file, "--config", config,
                 "--out-dir", tmp_path / "out"])
    assert code == 3


@pytest.mark.parametrize(
    "payload",
    [
        {"threads": "4"},
        {"threads": 2.0},
        {"threads": True},
        {"epsilon": "big"},
        {"epsilon": False},
        {"grid": 5},
        {"out_dir": None},
    ],
)
def test_config_value_of_wrong_type_exits_3(two_point_file, tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code = _run(["rdiag", two_point_file, "--config", config,
                 "--out-dir", tmp_path / "out"])
    assert code == 3
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exits_4(two_point_file, tmp_path, threads):
    out = tmp_path / "out"
    assert _run(["rdiag", two_point_file, "--threads", threads, "--out-dir", out]) == 4
    assert not out.exists()


def test_config_threads_below_one_exits_4(two_point_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 0}))
    out = tmp_path / "out"
    assert _run(["rdiag", two_point_file, "--config", config, "--out-dir", out]) == 4
    assert not out.exists()


def test_config_must_be_object(two_point_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code = _run(["rdiag", two_point_file, "--config", config,
                 "--out-dir", tmp_path / "out"])
    assert code == 3


# -- verify ----------------------------------------------------------------


class _FakeResults:
    def __init__(self, all_passed):
        self.lines = ["criterion 1 PASS  stub  [0.00s]"]
        self.passed_count = 9 if all_passed else 8
        self.total = 9
        self.all_passed = all_passed

    def to_json(self):
        return {"passed": self.passed_count, "total": self.total}


@pytest.mark.parametrize("all_passed,expected", [(True, 0), (False, 1)])
def test_verify_exit_code_tracks_results(
    tmp_path, monkeypatch, capsys, all_passed, expected
):
    from freeprob import acceptance

    monkeypatch.setattr(
        acceptance, "run_all", lambda threads=1: _FakeResults(all_passed)
    )
    out = tmp_path / "out"
    assert _run(["verify", "--out-dir", out]) == expected
    printed = capsys.readouterr().out
    assert "criterion 1 PASS" in printed
    assert json.loads((out / "acceptance_report.json").read_text())["total"] == 9
    record = json.loads((out / "run_record.json").read_text())
    assert "acceptance_report.json" in record["outputs"]
