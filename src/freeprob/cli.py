"""Command-line surface: radial laws, matrix simulations, spectral fields,
algebra reports, and the acceptance verifier, all with reproducible run
records.

Each command returns its output files as text; only once it succeeds does
main write them plus a run_record.json with the command line, master seed,
the resolved RECORDED_FLAGS, wall time, BLAS thread variables, usable CPU
count, and a sha256 digest per output, so a failed command leaves no
directory behind.  Settings come from flags only, and matrices from JSON
files.  Stochastic commands need an explicit --seed; there is no silent
entropy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .brownfield import (
    EPSILON_SCALE,
    GRID_N,
    MAX_THREADS,
    GridSpec,
    field_csv_text,
    field_metadata,
    logdet_field,
    mass_csv_text,
    require_gram_fits,
)
from .algstruct import close_algebra, find_invariant_subspace, kfold_transitive
from .errors import (
    DomainError,
    FreeprobError,
    MeasureFormatError,
    exit_code_for,
)
from .matio import load_matrix, read_text
from .matmodel import (
    build_m2_free_m2,
    derive_rng,
    ks_distance,
    realize,
    spectrum,
)
from .measures import ScalarMeasure
from .rdiagonal import (
    SUPPORT_MARGIN,
    OperatorTag,
    brown_rdiagonal,
    catalog_brown,
    pullback_radii,
)

# flags whose resolved values run_record.json keeps as its "config" block
RECORDED_FLAGS = ("threads", "out_dir", "epsilon", "grid")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CommandResult(NamedTuple):
    """A command's output texts by file name, its summary and its exit code."""

    outputs: dict[str, str]
    summary: str
    code: int = 0


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, rows) -> str:
    return header + "\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n"


def _write_outputs(args, outputs: dict[str, str], started: float) -> None:
    """The CLI's one disk writer: out_dir, each output, then run_record.json."""
    record = {
        "command": args.raw_argv,
        "seed": getattr(args, "seed", None),
        "config": {key: getattr(args, key, None) for key in RECORDED_FLAGS}
        | {"out_dir": str(args.out_dir)},
        "wall_time_s": time.perf_counter() - started,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "outputs": {n: sha256(t.encode()).hexdigest() for n, t in outputs.items()},
    }
    path = args.out_dir
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, text in {**outputs, "run_record.json": _json_text(record)}.items():
            path = args.out_dir / name
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MeasureFormatError(f"cannot write {path}: {exc}") from exc


def _require_seed(args, command: str) -> int:
    if args.seed is None:
        raise DomainError(
            f"{command} is stochastic; pass an explicit --seed (no silent entropy)"
        )
    return args.seed


def _child_seed(master: int, label: str) -> int:
    return int(derive_rng(master, label).integers(0, 2**63))


def _half_dim(dim: int) -> int:
    if dim < 2 or dim % 2 != 0:
        raise DomainError(f"--dim must be an even integer >= 2, got {dim}")
    return dim // 2


def _parse_grid(text: str) -> tuple[float, float, float, float, int, int]:
    parts = text.split(",")
    if len(parts) != 6:
        raise DomainError(
            "--grid expects XMIN,XMAX,YMIN,YMAX,NX,NY (six comma-separated values)"
        )
    try:
        return (*(float(p) for p in parts[:4]), int(parts[4]), int(parts[5]))
    except ValueError as exc:
        raise DomainError(f"bad --grid value: {exc}") from exc


# -- subcommands ---------------------------------------------------------------


def cmd_rdiag(args) -> CommandResult:
    mu = ScalarMeasure.from_json(read_text(args.measure_file))
    radial = brown_rdiagonal(mu)
    stem = Path(args.measure_file).stem
    rows = radial.cdf_csv_rows()
    return CommandResult(
        # to_json already returns serialized text, so it is written verbatim
        {
            f"{stem}_radial.json": radial.to_json() + "\n",
            f"{stem}_cdf.csv": _csv_text("r,cdf", rows),
        },
        f"radial law: atom {radial.center_atom_mass:.6g}, support "
        f"[{radial.support_inner:.6g}, {radial.support_outer:.6g}], "
        f"{len(rows)} CDF rows",
    )


def cmd_simulate(args) -> CommandResult:
    seed = _require_seed(args, "simulate")
    tag = OperatorTag(args.tag)
    half_dim = _half_dim(args.dim)
    if args.seeds < 1:
        raise DomainError(f"--seeds must be >= 1, got {args.seeds}")

    catalog = catalog_brown(tag)
    outputs = {}
    all_radii = []
    seed_list = [_child_seed(seed, f"simulate-{idx}") for idx in range(args.seeds)]
    for idx, child in enumerate(seed_list):
        model = build_m2_free_m2(half_dim, child)
        # the tag as typed: perfbench's tracer names its span after this argument
        eigenvalues = spectrum(model, args.tag)
        pairs = zip(eigenvalues.real.tolist(), eigenvalues.imag.tolist())
        outputs[f"eigenvalues_seed{idx}.csv"] = _csv_text("re,im", pairs)
        all_radii.append(pullback_radii(tag, eigenvalues))

    pooled = np.sort(np.concatenate(all_radii))
    cum = np.arange(1, pooled.size + 1) / pooled.size
    outputs["empirical_cdf.csv"] = _csv_text("r,cdf", zip(pooled.tolist(), cum.tolist()))

    ks = ks_distance(pooled, catalog.cdf)
    margin_violations = int(np.sum(pooled > catalog.support_outer + SUPPORT_MARGIN))
    outputs["simulation_summary.json"] = _json_text({
        "tag": tag.value,
        "dim": args.dim,
        "master_seed": seed,
        "child_seeds": seed_list,
        "eigenvalue_count": int(pooled.size),
        "ks_distance": float(ks),
        "support_outer": catalog.support_outer,
        "support_margin_violations": margin_violations,
        "cdf_end": float(cum[-1]),
    })
    return CommandResult(
        outputs,
        f"{tag.value}: dim {args.dim}, {args.seeds} seed(s), KS {ks:.4f}, "
        f"{margin_violations} support violations",
    )


def _field_matrix(args, grid: GridSpec) -> tuple[np.ndarray, str]:
    """The field's matrix and its label.  A catalog operator is never zero,
    so unless epsilon is 0 its workers' Gram buffers past the size cap are
    refused before the Haar build."""
    if args.matrix is not None:
        if args.dim is not None or args.seed is not None:
            raise DomainError("field --matrix reads neither --dim nor --seed")
        return load_matrix(args.matrix), Path(args.matrix).name
    seed = _require_seed(args, "field with --tag")
    tag = OperatorTag(args.tag)
    dim = 128 if args.dim is None else args.dim
    half_dim = _half_dim(dim)
    if grid.epsilon != 0.0:
        require_gram_fits(dim, grid.nx, min(args.threads, grid.ny))
    model = build_m2_free_m2(half_dim, _child_seed(seed, "field"))
    return realize(model, tag), tag.value


def cmd_field(args) -> CommandResult:
    """Build the requested grid, load or realize the matrix, and let
    logdet_field fill in the covering bounds and the default epsilon."""
    if not 1 <= args.threads <= MAX_THREADS:
        raise DomainError(f"--threads must lie in [1, {MAX_THREADS}], got {args.threads}")
    if args.grid is not None:
        *bounds, nx, ny = _parse_grid(args.grid)
    else:
        bounds = [None] * 4
        nx = ny = GRID_N if args.grid_n is None else args.grid_n
    # node counts, bounds and a given epsilon are checked before the matrix
    # is loaded or built
    grid = GridSpec(*bounds, nx, ny, epsilon=args.epsilon)
    matrix, label = _field_matrix(args, grid)
    field = logdet_field(matrix, grid, threads=args.threads)
    return CommandResult(
        {
            "field.csv": field_csv_text(field),
            "mass.csv": mass_csv_text(field),
            # wall time lives in run_record.json; outputs stay digest-stable
            "field_meta.json": _json_text(field_metadata(field, source=label)),
        },
        f"field[{label}]: {nx}x{ny} nodes, path {field.path}, "
        f"total mass {field.total_mass():.6f}",
    )


def cmd_algebra(args) -> CommandResult:
    # refuse a misused --seed or --kfold before any file loads or the closure runs
    if args.kfold is not None:
        _require_seed(args, "algebra --kfold")
    elif args.seed is not None:
        raise DomainError("algebra reads --seed only with --kfold")
    mats = [load_matrix(p) for p in args.matrix_files]
    n = mats[0].shape[0]
    if args.kfold is not None and not 1 <= args.kfold <= n:
        raise DomainError(f"--kfold must lie in [1, {n}], got {args.kfold}")
    span = close_algebra(mats)
    report = find_invariant_subspace(span)
    payload = {
        "ambient_dim": span.ambient_dim,
        "closure_dim": span.dim,
        "closure_residual": span.closure_residual,
        "gap_flagged": span.gap_flagged,
        "transitive": report.kind == "none",
        "subspace": None if report.kind == "none" else report.to_json(),
    }
    verdict = "transitive" if payload["transitive"] else "reducible"
    if args.kfold is not None:
        # k-fold transitivity implies transitivity, so a verified proper
        # invariant subspace already answers False
        result = payload["transitive"] and kfold_transitive(
            span, args.kfold, derive_rng(args.seed, f"kfold-{args.kfold}")
        )
        payload["kfold"] = {"k": args.kfold, "result": result}
        verdict += f", {args.kfold}-fold: {result}"
    return CommandResult(
        {"algebra_report.json": _json_text(payload)},
        f"algebra: dim {span.dim} in M_{span.ambient_dim}, {verdict}",
    )


def cmd_verify(args) -> CommandResult:
    from . import acceptance

    results = acceptance.run_all()
    tally = f"acceptance: {results.passed_count}/{results.total} criteria passed"
    return CommandResult(
        {"acceptance_report.json": _json_text(results.to_json())},
        "\n".join([*results.lines, tally]),
        0 if results.all_passed else 1,
    )


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parent per shared flag, so each command takes only the flags it reads
    seed, out_dir = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    seed.add_argument("--seed", type=int, default=None, help="master seed (no silent entropy)")
    out_dir.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("."), help="output directory")

    parser = argparse.ArgumentParser(
        prog="freeprob",
        description="Spectral distributions of non-normal operators and transitivity of matrix algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rdiag = sub.add_parser(
        "rdiag", parents=[out_dir], help="radial law of a rotation-invariant spectral distribution from a scalar measure file"
    )
    p_rdiag.add_argument("measure_file", help="scalar measure JSON file")
    p_rdiag.set_defaults(func=cmd_rdiag)

    tags = [t.value for t in OperatorTag]
    p_sim = sub.add_parser(
        "simulate", parents=[seed, out_dir], help="sample catalog operators at finite dimension and compare with the limit law"
    )
    p_sim.add_argument("--tag", required=True, choices=tags)
    p_sim.add_argument("--dim", type=int, required=True, help="full matrix dimension (even)")
    p_sim.add_argument("--seeds", type=int, default=1, help="number of independent models")
    p_sim.set_defaults(func=cmd_simulate)

    p_field = sub.add_parser(
        "field", parents=[seed, out_dir], help="log-determinant field and cell masses on a grid"
    )
    p_field.add_argument("--threads", type=int, default=1, help=f"worker threads for grid rows (1 to {MAX_THREADS})")
    source = p_field.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", default=None, help="matrix file (.json)")
    source.add_argument("--tag", default=None, choices=tags, help="catalog operator, realized with --seed")
    p_field.add_argument("--dim", type=int, default=None, help="dimension for --tag (even, default 128)")
    shape = p_field.add_mutually_exclusive_group()
    shape.add_argument("--grid", default=None, help="XMIN,XMAX,YMIN,YMAX,NX,NY (default: cover the spectrum)")
    shape.add_argument("--grid-n", dest="grid_n", type=int, default=None, help=f"nodes per axis (default {GRID_N})")
    p_field.add_argument("--epsilon", type=float, default=None, help=f"regularization (default {EPSILON_SCALE:g}*||T||^2)")
    p_field.set_defaults(func=cmd_field)

    p_alg = sub.add_parser(
        "algebra", parents=[seed, out_dir], help="closure, transitivity, and invariant-subspace report for generator matrices"
    )
    p_alg.add_argument("matrix_files", nargs="+", help="generator matrix files")
    p_alg.add_argument("--kfold", type=int, default=None, help="also decide k-fold transitivity (needs --seed)")
    p_alg.set_defaults(func=cmd_algebra)

    p_verify = sub.add_parser(
        "verify", parents=[out_dir], help="run the acceptance criteria and report pass/fail per criterion"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = ["freeprob", *argv]
    try:
        started = time.perf_counter()
        result = args.func(args)
        _write_outputs(args, result.outputs, started)
    except FreeprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(f"{result.summary} -> {args.out_dir}")
    return result.code


def entrypoint() -> None:
    sys.exit(main())
