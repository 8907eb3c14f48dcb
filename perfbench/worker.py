"""One worker process of a benchmark run: set up, run operations, check them.

Usage (started by run.py, which sets the BLAS thread variables first):

    python3 perfbench/worker.py --workload NAME --seed N --first I --count K
        --result FILE [--trace]

The worker imports freeprob from the checkout's src/, writes the inputs of
operations I .. I+K-1, notes when the first operation is ready, then runs
each operation through freeprob.cli.main or the package API, timing only
the program call, and checks every output with checks.py.  With --trace it
runs each operation twice on the same inputs, untraced and under a Tracer,
so the traced run can report its own overhead; the traced pass goes second
on even operations and first on odd ones, so that neither pass always
finds the caches warm.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import freeprob  # noqa: E402
from freeprob import cli, matmodel  # noqa: E402
from run import BLAS_ENV  # noqa: E402
from tracing import Tracer  # noqa: E402

SPECTRA_TAGS = ("W1F12", "E12_plus_F12", "W1_plus_F12")
SPECTRA_DIM = 1024
WORDS_DIM = 512
WORD = "c(W1) c(V1) c(W1) c(V1)"
FIELD_N = 50
FIELD_GRID = 96
FIELD_THREADS = 2
ALGEBRA_N = 8
ALGEBRA_FAMILIES = ("ginibre", "triangular", "blocks")
# block sizes k of the block family, one per round in this order; a fixed
# schedule keeps the mix of closure dims, and so of costs, the same on
# every seed
ALGEBRA_BLOCKS = (3, 5, 2, 6, 4, 1, 7)


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    key = sum(ord(c) << (8 * i) for i, c in enumerate(workload[:7]))
    return np.random.default_rng([seed, key, index])


def op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / math.sqrt(2 * n)


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    data = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
    path.write_text(json.dumps({"rows": matrix.shape[0], "cols": matrix.shape[1], "data": data}))


# -- workloads -------------------------------------------------------------------
#
# prepare(index, seed, inputs) -> op dict (writes input files)
# run(op, out) -> exit code of the command, or the API results
# check(op, out, result) -> list of problems


class Spectra:
    uses_cli = True
    program_threads = 1

    def prepare(self, index, seed, inputs):
        rng = op_rng("spectra", seed, index)
        return {"tag": SPECTRA_TAGS[index % 3], "seed": op_seed(rng)}

    def run(self, op, out):
        return cli.main(
            ["simulate", "--tag", op["tag"], "--dim", str(SPECTRA_DIM), "--seeds", "1",
             "--seed", str(op["seed"]), "--out-dir", str(out)]
        )

    def check(self, op, out, result):
        eigs = checks.read_complex_csv(out / "eigenvalues_seed0.csv")
        return checks.check_spectrum(op["tag"], eigs, SPECTRA_DIM)


class Words:
    uses_cli = False
    program_threads = 1

    def prepare(self, index, seed, inputs):
        rng = op_rng("words", seed, index)
        return {"seed": op_seed(rng)}

    def run(self, op, out):
        model = matmodel.build_m2_free_m2(WORDS_DIM // 2, op["seed"])
        residuals = matmodel.exact_identity_residuals(model)
        tau = matmodel.word_trace(model, WORD)
        group = matmodel.build_free_group(WORDS_DIM, op["seed"])
        eye = np.eye(WORDS_DIM, dtype=complex)
        factors = (group.u_b, eye, group.u_b @ group.u_b, eye, matmodel.centered(group.u_a))
        gap = matmodel.trace_factorization_check(*factors)
        return model, residuals, tau, factors, gap

    def check(self, op, out, result):
        model, residuals, tau, factors, gap = result
        return checks.check_words(
            residuals,
            tau,
            checks.alternating_trace(model.factor("W1"), model.factor("V1")),
            (gap.lhs, gap.rhs),
            checks.factorization_sides(*factors),
        )


class Field:
    uses_cli = True
    program_threads = FIELD_THREADS

    def prepare(self, index, seed, inputs):
        rng = op_rng("field", seed, index)
        matrix = ginibre(rng, FIELD_N)
        path = inputs / f"M{index}.json"
        write_matrix(path, matrix)
        picks = rng.choice(FIELD_GRID * FIELD_GRID, size=8, replace=False).tolist()
        return {"matrix": matrix, "path": path, "picks": picks}

    def run(self, op, out):
        return cli.main(
            ["field", "--matrix", str(op["path"]), "--threads", str(FIELD_THREADS),
             "--grid-n", str(FIELD_GRID), "--out-dir", str(out)]
        )

    def check(self, op, out, result):
        matrix = op["matrix"]
        epsilon = checks.field_epsilon(matrix)
        meta = json.loads((out / "field_meta.json").read_text())
        problems = []
        if abs(meta["epsilon"] - epsilon) > 1e-9 * epsilon:
            problems.append(f"epsilon {meta['epsilon']!r}, expected {epsilon!r}")
        rows = checks.read_rows(out / "field.csv")
        problems += checks.check_field_nodes(matrix, rows, op["picks"], epsilon)
        problems += checks.check_quadrant_masses(matrix, checks.read_rows(out / "mass.csv"))
        return problems


class Algebra:
    uses_cli = True
    program_threads = 1

    def prepare(self, index, seed, inputs):
        rng = op_rng("algebra", seed, index)
        family = ALGEBRA_FAMILIES[index % 3]
        n, k = ALGEBRA_N, 0
        gens = [ginibre(rng, n), ginibre(rng, n)]
        if family == "triangular":
            gens = [np.triu(g) for g in gens]
        elif family == "blocks":
            k = ALGEBRA_BLOCKS[(index // 3) % len(ALGEBRA_BLOCKS)]
            q, r = np.linalg.qr(ginibre(rng, n))
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            for g in gens:
                g[:k, k:] = 0.0
                g[k:, :k] = 0.0
            gens = [q @ g @ q.conj().T for g in gens]
        paths = [inputs / f"g{index}_{i}.json" for i in range(2)]
        for path, g in zip(paths, gens):
            write_matrix(path, g)
        return {"family": family, "k": k, "gens": gens, "paths": paths, "seed": op_seed(rng)}

    def run(self, op, out):
        return cli.main(
            ["algebra", *map(str, op["paths"]), "--kfold", "2", "--seed", str(op["seed"]),
             "--out-dir", str(out)]
        )

    def check(self, op, out, result):
        report = json.loads((out / "algebra_report.json").read_text())
        return checks.check_algebra(report, op["family"], ALGEBRA_N, op["k"], op["gens"])


WORKLOADS = {
    "spectra": Spectra(),
    "words": Words(),
    "field": Field(),
    "algebra": Algebra(),
}


# -- environment record ---------------------------------------------------------------


def blas_runtime() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    info = {"openblas": None, "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


# -- main --------------------------------------------------------------------------


def run_op(workload, op, out: Path, problems: list[str], span=nullcontext) -> tuple[float, bool]:
    """Time one program call, check its output; returns (seconds, failed).

    span() is entered inside the timed region, around the program call only.
    """
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        with span():
            result = workload.run(op, out)
        elapsed = time.perf_counter() - start
    except Exception:  # the program raised: count it as a failed operation
        elapsed = time.perf_counter() - start
        print(traceback.format_exc(), file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, True
    if isinstance(result, int) and result != 0:
        print(f"operation {op} exited with {result}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, True
    try:
        found = workload.check(op, out, result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        found = [f"unreadable output: {exc!r}"]
    problems.extend(f"op {out.name}: {p}" for p in found)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(freeprob.__file__).resolve().parents:
        print(f"freeprob imported from {freeprob.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = args.result.parent / args.result.stem
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = [workload.prepare(i, args.seed, inputs)
           for i in range(args.first, args.first + args.count)]
    ready_at = time.monotonic()

    result = {"ready_at": ready_at, "op_s": [], "traced_op_s": [], "failed": 0,
              "problems": [], "raw": {}, "peaks": {}, "spans": []}
    tracer = Tracer() if args.trace else None

    def plain(i, op):
        seconds, failed = run_op(workload, op, work_dir / f"op{i}", result["problems"])
        result["op_s"].append(seconds)
        result["failed"] += failed

    def traced(i, op):
        tracer.op = i
        tracer.install()
        span = (lambda: tracer.span("cli")) if workload.uses_cli else nullcontext
        try:
            seconds, failed = run_op(workload, op, work_dir / f"op{i}t", result["problems"], span)
        finally:
            tracer.uninstall()
        result["traced_op_s"].append(seconds)
        result["failed"] += failed

    for i, op in zip(range(args.first, args.first + args.count), ops):
        passes = [plain]
        if tracer is not None:
            passes = [plain, traced] if i % 2 == 0 else [traced, plain]
        for run_pass in passes:
            run_pass(i, op)
    if tracer is not None:
        result["raw"] = tracer.raw_metrics()
        result["peaks"] = dict(tracer.peaks)
        result["spans"] = tracer.spans
    shutil.rmtree(work_dir, ignore_errors=True)

    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["program_threads"] = workload.program_threads
    result["blas_env"] = {k: os.environ.get(k) for k in BLAS_ENV}
    result["numpy"] = np.__version__
    result["scipy"] = scipy.__version__
    result.update(blas_runtime())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
