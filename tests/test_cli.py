"""Command-line surface: exit codes, output files, run records."""

import json
import os
import subprocess
import sys
import tracemalloc
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from freeprob import __version__, algstruct, brownfield, cli, config
from freeprob.errors import (
    EXIT_CODES,
    InternalInconsistencyError,
    MeasureFormatError,
    WordSpecError,
    exit_code_for,
)
from freeprob.matio import save_matrix
from freeprob.measures import ScalarMeasure
from freeprob.rdiagonal import OperatorTag, RadialPlanarMeasure


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
@pytest.mark.parametrize("entry", ["algebra-json", "field", "rdiag"])
def test_unreadable_input_file_exits_3(tmp_path, capsys, entry, content):
    path = tmp_path / "x.json"
    if content is not None:
        path.write_bytes(content)
    argv = {
        "algebra-json": ["algebra", path],
        "field": ["field", "--matrix", path, "--grid-n", "8"],
        "rdiag": ["rdiag", path],
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
    out = tmp_path / "out"
    code = _run(["simulate", "--tag", "W1F12", "--dim", "400000", "--seed", "1",
                 "--out-dir", out])
    assert code == 4
    assert "256 MiB cap" in capsys.readouterr().err
    assert not out.exists()


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


def test_double_collision_exits_0(tmp_path):
    # node at 0 hits the first eigenvalue; the second sits half a cell
    # diagonal away, where a distance on the node reads
    dx = 2.0 / 40
    matrix = np.diag([0.0, 0.5 * dx + 0.5j * dx])
    path = tmp_path / "collide.json"
    save_matrix(path, matrix)
    code = _run(["field", "--matrix", path, "--grid=-1,1,-1,1,41,41",
                 "--epsilon", "0", "--out-dir", tmp_path / "out"])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "field_meta.json").read_text())
    assert meta["flagged_nodes"] == [[20, 20]]
    assert "sentinel_nodes" not in meta


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
@pytest.mark.parametrize("suffix", [".json"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entry_exits_3(tmp_path, capsys, command, suffix, bad):
    # save_matrix refuses such a matrix; json.dumps writes its NaN or
    # Infinity, which Python's json.loads reads back
    path = tmp_path / f"bad{suffix}"
    data = [[1.0, 0.0], [0.0, 0.0], [bad, 0.0], [0.0, 0.5]]
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": data}))
    argv = ["--matrix", path, "--grid-n", "8"] if command == "field" else [path]
    assert _run([command, *argv, "--out-dir", tmp_path / "out"]) == 3
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("blocker", ["out", "parent"])
def test_unwritable_out_dir_exits_3(two_point_file, tmp_path, capsys, blocker):
    # --out-dir names an existing file, or a directory below one
    (tmp_path / "taken").write_text("not a directory")
    out = tmp_path / "taken" if blocker == "out" else tmp_path / "taken" / "out"
    assert _run(["rdiag", two_point_file, "--out-dir", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "not a directory"


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exits_4(gen_file, tmp_path, threads):
    # field is the one command that takes --threads
    out = tmp_path / "field"
    argv = ["field", "--matrix", gen_file, "--grid-n", "8", "--threads", threads]
    assert _run([*argv, "--out-dir", out]) == 4
    assert not out.exists()


@pytest.mark.parametrize("source", ["matrix", "tag"])
def test_threads_above_ceiling_exit_4_before_any_work(tmp_path, monkeypatch, capsys, source):
    # a tall grid and --threads 100000 would start 100000 threads; the
    # refusal comes before the matrix is read or built and before any pool
    def refused(*args, **kwargs):
        raise AssertionError("reached past the thread check")

    for name in ("load_matrix", "build_m2_free_m2"):
        monkeypatch.setattr(cli, name, refused)
    monkeypatch.setattr(brownfield, "ThreadPoolExecutor", refused)
    source_argv = (["--matrix", tmp_path / "absent.json"] if source == "matrix"
                   else ["--tag", "W1F12", "--seed", "1"])
    for threads in ("257", "100000"):
        out = tmp_path / threads
        argv = ["field", *source_argv, "--grid=-1,1,-1,1,3,100000", "--threads", threads]
        assert _run([*argv, "--out-dir", out]) == 4
        assert f"--threads must lie in [1, 256], got {threads}" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture()
def gen_file(tmp_path):
    path = tmp_path / "g.json"
    save_matrix(path, np.eye(2, dtype=complex))
    return path


# each command takes only the flags it reads: --seed and --out-dir where it
# reads them, and --threads on field alone
@pytest.mark.parametrize(
    "argv",
    [
        ["rdiag", "{measure}", "--seed", "1"],
        ["rdiag", "{measure}", "--threads", "2"],
        ["simulate", "--tag", "W1F12", "--dim", "8", "--seed", "1", "--threads", "2"],
        ["algebra", "{gen}", "--threads", "2"],
        ["verify", "--seed", "7"],
        ["verify", "--threads", "2"],
        ["field", "--matrix", "{gen}", "--tag", "W1F12"],
        ["field", "--matrix", "{gen}", "--grid=-1,1,-1,1,8,8", "--grid-n", "64"],
        # 256 is the automatic grid's size, refused all the same when given
        ["field", "--matrix", "{gen}", "--grid=-1,1,-1,1,8,8", "--grid-n", "256"],
    ],
    ids=["rdiag-seed", "rdiag-threads", "simulate-threads", "algebra-threads", "verify-seed",
         "verify-threads", "field-matrix-tag", "field-grid-grid-n", "field-grid-grid-n-default"],
)
def test_unread_or_conflicting_flag_exits_2(two_point_file, gen_file, tmp_path, argv):
    out = tmp_path / "out"
    argv = [a.format(measure=two_point_file, gen=gen_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        _run([*argv, "--out-dir", out])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--matrix", "{gen}", "--dim", "16"],
        ["field", "--matrix", "{gen}", "--seed", "1"],
        ["algebra", "{gen}", "--seed", "1"],
    ],
    ids=["field-matrix-dim", "field-matrix-seed", "algebra-seed-without-kfold"],
)
def test_flag_of_another_mode_exits_4_before_loading(gen_file, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "load_matrix", _refuse_if_called)
    out = tmp_path / "out"
    assert _run([*(a.format(gen=gen_file) for a in argv), "--out-dir", out]) == 4
    assert "reads" in capsys.readouterr().err
    assert not out.exists()


def test_config_option_exits_2(tmp_path):
    # settings come from flags only; there is no settings file
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"threads": 2}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--tag", "W1F12", "--dim", "8", "--seed", "1",
              "--config", config_file, "--out-dir", out])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "algebra"])
def test_csv_matrix_exits_3(tmp_path, capsys, command):
    # JSON is the only matrix encoding, whatever the file holds
    path = tmp_path / "m.csv"
    path.write_text("1.0,0.0,0.0,0.0\n0.0,0.0,1.0,0.0\n")
    argv = ["--matrix", path, "--grid-n", "8"] if command == "field" else [path]
    out = tmp_path / "out"
    assert _run([command, *argv, "--out-dir", out]) == 3
    assert "unsupported matrix extension '.csv'" in capsys.readouterr().err
    assert not out.exists()


def test_field_matrix_non_list_data_exits_3(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "data": 5}))
    out = tmp_path / "out"
    assert _run(["field", "--matrix", path, "--grid-n", "8", "--out-dir", out]) == 3
    assert "matrix data must be a list" in capsys.readouterr().err
    assert not out.exists()


def test_unreachable_error_codes_still_mapped():
    # no subcommand parses words or can disagree with itself on purpose,
    # so these entries are asserted on the mapping
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


def test_rdiag_atom_near_zero(tmp_path):
    # half the mass at 1e-100: the z grid runs out to |z| = 2^60 / 1e-200,
    # and the curve's radii near 1e-100 crowd closer than a cubic spline's
    # coefficients can take
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"atoms": [[1e-100, 0.5], [1.0, 0.5]]}))
    out = tmp_path / "out"
    assert _run(["rdiag", path, "--out-dir", out]) == 0
    payload = json.loads((out / "tiny_radial.json").read_text())
    radii, cum = np.array(payload["cdf"]).T
    assert np.all(np.isfinite(cum)) and np.all(np.diff(cum) >= 0.0)
    radial = RadialPlanarMeasure(0.0, radii, cum, *payload["support"])
    # the ball of radius r(t) = S(t - 1)^(-1/2) has mass t; the squared law
    # (d_1e-200 + d_1)/2 has, to within 1e-200, the S of (d0 + d1)/2 on
    # w > -1/2: S(w) = 2 (1 + w) / (1 + 2 w)
    for t in (0.55, 0.75, 0.9):
        w = t - 1.0
        s = 2.0 * (1.0 + w) / (1.0 + 2.0 * w)
        assert abs(radial.cdf(s**-0.5) - t) <= 1e-6


@pytest.mark.parametrize("command", ["rdiag", "simulate", "field", "algebra"])
def test_run_record_digests(two_point_file, tmp_path, command):
    matrix = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
    gens = _write_gens(tmp_path, matrix, matrix.T)
    argv, seed, expected, settings = {
        "rdiag": ([two_point_file], None, {"two_point_radial.json", "two_point_cdf.csv"},
                  {"threads": None}),
        "simulate": (
            ["--tag", "W1F12", "--dim", "16", "--seeds", "2", "--seed", "4"],
            4,
            {"eigenvalues_seed0.csv", "eigenvalues_seed1.csv", "empirical_cdf.csv",
             "simulation_summary.json"},
            {"threads": None},
        ),
        "field": (["--matrix", gens[0], "--grid=-40,40,-40,40,12,12", "--epsilon", "0.001"],
                  None, {"field.csv", "mass.csv", "field_meta.json"},
                  {"epsilon": 0.001, "grid": "-40,40,-40,40,12,12"}),
        "algebra": ([*gens, "--kfold", "2", "--seed", "6"], 6, {"algebra_report.json"},
                    {"threads": None}),
    }[command]
    out = tmp_path / "out"
    assert _run([command, *argv, "--out-dir", out]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["command"][:2] == ["freeprob", command]
    assert record["seed"] == seed
    # the resolved flags, exactly these four, whether given or left at
    # default, and null for a flag the command does not take
    assert record["config"] == {
        "threads": 1, "out_dir": str(out), "epsilon": None, "grid": None, **settings,
    }
    assert record["wall_time_s"] >= 0.0
    written = {path.name for path in out.iterdir()} - {"run_record.json"}
    assert set(record["outputs"]) == written == expected
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


def test_simulate_passes_the_typed_tag_to_spectrum(tmp_path, monkeypatch):
    # perfbench's tracer names the spectrum span after the second positional
    # argument, so it must be the plain string from the command line
    calls = []
    spectrum = cli.spectrum
    monkeypatch.setattr(cli, "spectrum", lambda *args: calls.append(args) or spectrum(*args))
    assert _run(["simulate", "--tag", "W1F12", "--dim", "8", "--seeds", "2",
                 "--seed", "1", "--out-dir", tmp_path / "out"]) == 0
    # an OperatorTag compares equal to its name, so the type is checked too
    assert [(type(args[1]), args[1]) for args in calls] == [(str, "W1F12")] * 2


@pytest.mark.parametrize(
    "atom, message",
    [(1e-300, "the support's least point 1e-300 lies too far below its end 1"),
     (1e160, "the support's least point 1 lies too far below its end 1e+160")],
    ids=["t-squared-underflows", "t-squared-overflows"],
)
def test_rdiag_atom_past_the_double_range_exits_4(tmp_path, capsys, atom, message):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"atoms": [[atom, 0.5], [1.0, 0.5]]}))
    out = tmp_path / "out"
    assert _run(["rdiag", path, "--out-dir", out]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_eigensolve_failure_exits_7(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code = _run(["simulate", "--tag", "W1_plus_F12", "--dim", "32", "--seed", "1",
                 "--out-dir", tmp_path / "out"])
    assert code == 7
    assert "eigensolve failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_last_eigensolve_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    # the first two seeds finish; the third seed's eigensolve fails
    solved = []
    eigvals = np.linalg.eigvals

    def fail_third(a):
        if len(solved) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        solved.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fail_third)
    out = tmp_path / "out"
    code = _run(["simulate", "--tag", "W1_plus_F12", "--dim", "32", "--seeds", "3",
                 "--seed", "1", "--out-dir", out])
    assert code == 7
    assert len(solved) == 2
    assert "eigensolve failed" in capsys.readouterr().err
    assert not out.exists()


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_field_small_grid_outputs_strict_json(tmp_path):
    # below 5 nodes per axis the noise floor cannot be estimated; it is
    # written as null, so every JSON output parses without Infinity or NaN
    path = tmp_path / "m.json"
    save_matrix(path, np.diag([0.3, 0.4 + 0.2j]))
    out = tmp_path / "out"
    assert _run(["field", "--matrix", path, "--grid-n", "4", "--out-dir", out]) == 0
    parsed = {
        p.name: json.loads(p.read_text(), parse_constant=_refuse_constant)
        for p in out.glob("*.json")
    }
    assert set(parsed) == {"field_meta.json", "run_record.json"}
    assert parsed["field_meta.json"]["noise_floor"] is None


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
    # an 8x8 matrix on a 6000^2 grid needs a 288,000,000-byte value array
    def evaluated(*args):
        raise AssertionError("a grid row was evaluated")

    monkeypatch.setattr(brownfield, "_svd_column", evaluated)
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(8, dtype=complex))
    code = _run(["field", "--matrix", path, "--grid-n", "6000",
                 "--out-dir", tmp_path / "out"])
    assert code == 4
    assert "6000 x 6000 field needs 274.7 MiB, above the 256 MiB cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_field_tag_gram_above_cap_refused_before_the_model(tmp_path, capsys):
    # at N = 2898 one worker needs its Gram pair, 32 N^2 bytes, and a
    # one-node batch, 16 N^2, past the 256 MiB cap; the refusal must come
    # before the Haar build
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = _run(["field", "--tag", "W1F12", "--dim", "2898", "--seed", "1",
                     "--out-dir", out])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "Gram pair of a 2898 x 2898 matrix" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20


def _refuse_if_called(*args, **kwargs):
    raise AssertionError("called before the size check")


@pytest.mark.parametrize("epsilon", [[], ["--epsilon", "1e-3"]], ids=["default", "explicit"])
def test_field_matrix_gram_above_cap_refused_after_load(tmp_path, capsys, monkeypatch, epsilon):
    # under a 1536-byte cap the 8 x 8 grid's values (512 bytes) fit, and the
    # 40 x 40 Gram pair with an 8-node batch (256000 bytes) is refused before
    # the default epsilon's 2-norm or the covering grid's eigensolve
    monkeypatch.setattr(config, "MAX_SYSTEM_BYTES", 1536)
    monkeypatch.setattr(brownfield, "default_epsilon", _refuse_if_called)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse_if_called)
    rng = np.random.default_rng(4)
    path = tmp_path / "m.json"
    save_matrix(path, rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    out = tmp_path / "out"
    code = _run(["field", "--matrix", path, "--grid-n", "8", *epsilon, "--out-dir", out])
    assert code == 4
    assert "Gram pair of a 40 x 40 matrix" in capsys.readouterr().err
    assert not out.exists()


def test_field_worker_pool_above_cap_exits_4(tmp_path, capsys, monkeypatch):
    # an 8 x 8 matrix on an 8-node grid: each worker holds an 8-node batch
    # and the Gram pair, (16 * 8 + 32) * 64 = 10240 bytes, so a 20000-byte
    # cap admits one worker and refuses four
    monkeypatch.setattr(config, "MAX_SYSTEM_BYTES", 20000)
    rng = np.random.default_rng(6)
    path = tmp_path / "m.json"
    save_matrix(path, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    argv = ["field", "--matrix", path, "--grid-n", "8"]
    assert _run([*argv, "--threads", "1", "--out-dir", tmp_path / "one"]) == 0

    def evaluated(*args):
        raise AssertionError("a grid row was evaluated")

    monkeypatch.setattr(brownfield, "_svd_column", evaluated)
    out = tmp_path / "four"
    assert _run([*argv, "--threads", "4", "--out-dir", out]) == 4
    assert "4 worker(s), each with the Gram pair of a 8 x 8 matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["tag", "zero"])
def test_field_without_epsilon_skips_the_gram_check(tmp_path, monkeypatch, source):
    # at epsilon 0, given or the default of a zero matrix, no Gram pair is
    # built, so a cap below its size (2048 bytes at N = 8) does not refuse
    monkeypatch.setattr(config, "MAX_SYSTEM_BYTES", 1536)
    if source == "tag":
        argv = ["--tag", "W1F12", "--dim", "8", "--seed", "1", "--epsilon", "0"]
    else:
        path = tmp_path / "zero.json"
        save_matrix(path, np.zeros((8, 8), dtype=complex))
        argv = ["--matrix", path]
    out = tmp_path / "out"
    assert _run(["field", *argv, "--grid-n", "8", "--out-dir", out]) == 0
    assert json.loads((out / "field_meta.json").read_text())["path"] == "eigenvalues"


def test_field_eigensolve_failure_exits_7(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    path = tmp_path / "t.json"
    save_matrix(path, np.diag([0.0, 0.5j]))
    code = _run(["field", "--matrix", path, "--grid=-1,1,-1,1,8,8", "--epsilon", "0",
                 "--out-dir", tmp_path / "out"])
    assert code == 7
    assert "eigensolve failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("solver", "epsilon"),
    [("eigvals", []), ("eigvals", ["--epsilon", "0"]), ("norm", [])],
    ids=["covering-grid", "covering-grid-epsilon-0", "default-epsilon-svd"],
)
def test_field_covering_grid_eigensolve_failure_exits_7(tmp_path, monkeypatch, capsys,
                                                        solver, epsilon):
    # without --grid the matrix's eigenvalues place the grid, and without
    # --epsilon its 2-norm's SVD sets the scale; either failure exits 7
    def fail(*args):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    path = tmp_path / "t.json"
    save_matrix(path, np.diag([0.0, 0.5j]))
    out = tmp_path / "out"
    assert _run(["field", "--matrix", path, "--grid-n", "8", *epsilon, "--out-dir", out]) == 7
    assert "eigensolve failed: did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_field_epsilon_0_covering_grid_solves_the_spectrum_once(tmp_path, monkeypatch):
    # the covering grid and the epsilon = 0 kernel share one eigensolve, and
    # the field equals an explicit --grid run over the same bounds
    eigvals = np.linalg.eigvals
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rng = np.random.default_rng(12)
    path = tmp_path / "m.json"
    save_matrix(path, rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    covered = tmp_path / "covered"
    assert _run(["field", "--matrix", path, "--grid-n", "16", "--epsilon", "0",
                 "--out-dir", covered]) == 0
    assert calls == [(10, 10)]
    grid = json.loads((covered / "field_meta.json").read_text())["grid"]
    bounds = ",".join(repr(grid[k]) for k in ("x_min", "x_max", "y_min", "y_max"))
    explicit = tmp_path / "explicit"
    assert _run(["field", "--matrix", path, f"--grid={bounds},16,16", "--epsilon", "0",
                 "--out-dir", explicit]) == 0
    assert (covered / "field.csv").read_bytes() == (explicit / "field.csv").read_bytes()


def test_field_tag_outputs_equal_at_one_and_two_threads(tmp_path):
    argv = ["field", "--tag", "W1_plus_F12", "--dim", "32", "--seed", "2", "--grid-n", "24"]
    names = ("field.csv", "mass.csv", "field_meta.json")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert _run([*argv, "--threads", threads, "--out-dir", out]) == 0
        runs.append([(out / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    assert json.loads(runs[0][2])["path"] == "svd"


def test_field_epsilon_help_reads_the_scale(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EPSILON_SCALE", 2.5e-4)
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            _run(["field", "--help"])
    finally:
        monkeypatch.undo()
        cli.build_parser.cache_clear()
    assert exc.value.code == 0
    assert "0.00025*||T||^2" in capsys.readouterr().out


def test_field_bad_grid_exits_4(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, np.eye(2, dtype=complex))
    code = _run(["field", "--matrix", path, "--grid", "0,1,0,1",
                 "--out-dir", tmp_path / "out"])
    assert code == 4


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--grid-n", "2"], "at least 3 nodes"),
        (["--grid=1,0,0,1,8,8"], "min < max"),
        (["--grid-n", "6000"], "6000 x 6000 field needs 274.7 MiB"),
    ],
    ids=["two-nodes", "min-above-max", "values-above-cap"],
)
def test_field_tag_bad_grid_refused_before_the_model(tmp_path, capsys, monkeypatch, grid, message):
    def built(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "build_m2_free_m2", built)
    out = tmp_path / "out"
    code = _run(["field", "--tag", "W1F12", "--dim", "1024", "--seed", "1", *grid,
                 "--out-dir", out])
    assert code == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [([], "||T||_2 = 1e+155 squares past the double range"),
     (["--epsilon", "0", "--grid-n", "8"],
      "grid cells of 2.14e+154 x 7.14e+153 square past the double range")],
    ids=["default-epsilon", "laplacian-cells"],
)
def test_field_matrix_past_the_double_range_exits_4(tmp_path, capsys, flags, message):
    path = tmp_path / "vast.json"
    save_matrix(path, np.diag([1e155, 1.0]).astype(complex))
    out = tmp_path / "out"
    assert _run(["field", "--matrix", path, *flags, "--out-dir", out]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "flags", [["--kfold", "4", "--seed", "1"], ["--kfold", "0", "--seed", "1"], ["--kfold", "2"]]
)
def test_algebra_bad_kfold_refused_before_closure(tmp_path, monkeypatch, capsys, flags):
    closures = []
    monkeypatch.setattr(cli, "close_algebra", lambda mats: closures.append(mats))
    rng = np.random.default_rng(4)
    paths = _write_gens(tmp_path, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    out = tmp_path / "out"
    assert _run(["algebra", *paths, *flags, "--out-dir", out]) == 4
    assert closures == []
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "shape, result, expected",
    [(np.asarray, True, {"commutant": 1, "radical": 1}),
     # the radical image answers the subspace search, so the k-fold decision
     # never runs and the commutant is never formed
     (np.triu, False, {"commutant": 0, "radical": 1})],
    ids=["ginibre", "triangular"],
)
def test_algebra_kfold_computes_commutant_and_radical_once(tmp_path, monkeypatch, shape, result, expected):
    calls = {"commutant": 0, "radical": 0}
    for name in calls:
        original = getattr(algstruct, name)

        def counted(span, name=name, original=original):
            calls[name] += 1
            return original(span)

        monkeypatch.setattr(algstruct, name, counted)
    rng = np.random.default_rng(8)
    gens = [shape(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) for _ in range(2)]
    paths = _write_gens(tmp_path, *gens)
    out = tmp_path / "out"
    assert _run(["algebra", *paths, "--kfold", "2", "--seed", "3", "--out-dir", out]) == 0
    assert json.loads((out / "algebra_report.json").read_text())["kfold"]["result"] is result
    assert calls == expected


def test_algebra_kfold_on_a_reducible_pair_passes_the_size_cap(tmp_path):
    # M_17 of the 1-dimensional commutant would need 368.4 MiB, but the
    # radical image is a proper invariant subspace, so the answer is False
    rng = np.random.default_rng(17)
    gens = [np.triu(rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))) for _ in range(2)]
    paths = _write_gens(tmp_path, *gens)
    out = tmp_path / "out"
    assert _run(["algebra", *paths, "--kfold", "17", "--seed", "1", "--out-dir", out]) == 0
    assert json.loads((out / "algebra_report.json").read_text())["kfold"] == {"k": 17, "result": False}


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
        acceptance, "run_all", lambda: _FakeResults(all_passed)
    )
    out = tmp_path / "out"
    assert _run(["verify", "--out-dir", out]) == expected
    printed = capsys.readouterr().out
    assert "criterion 1 PASS" in printed
    assert json.loads((out / "acceptance_report.json").read_text())["total"] == 9
    record = json.loads((out / "run_record.json").read_text())
    assert "acceptance_report.json" in record["outputs"]
