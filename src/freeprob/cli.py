"""Command-line surface: radial laws, matrix simulations, spectral fields,
algebra reports, and the acceptance verifier, all with reproducible run
records.

Every command writes its outputs plus a run_record.json holding the command
line, master seed, config snapshot, wall time, the BLAS thread variables,
the number of CPUs the process may use, and a sha256 digest per output
file.  Stochastic commands refuse to run without an explicit --seed; there
is no silent entropy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SIZE
from .brownfield import (
    GridSpec,
    brown_laplacian,
    default_epsilon,
    field_csv_text,
    field_metadata,
    logdet_field,
    mass_csv_text,
)
from .algstruct import close_algebra, find_invariant_subspace, kfold_transitive
from .errors import (
    DimensionMismatchError,
    DomainError,
    FreeprobError,
    MeasureFormatError,
    exit_code_for,
)
from .matio import load_matrix, read_text
from .matmodel import (
    build_m2_free_m2,
    catalog_spectrum,
    derive_rng,
    ks_distance,
    realize,
)
from .measures import ScalarMeasure
from .rdiagonal import (
    SUPPORT_MARGIN,
    OperatorTag,
    brown_rdiagonal,
    catalog_brown,
    pullback_radii,
)

# config key -> (accepted JSON value types, what the error message asks for);
# JSON true and false are refused everywhere although bool subclasses int
CONFIG_KEYS = {
    "threads": ((int,), "an integer"),
    "out_dir": ((str,), "a string"),
    "epsilon": ((int, float, type(None)), "a number or null"),
    "grid": ((str, type(None)), "a string or null"),
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OutputWriter:
    """Writes command outputs under out_dir and tracks their digests."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.digests[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(
            name, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def _config_snapshot(args) -> dict:
    snap = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    snap["out_dir"] = str(snap["out_dir"])
    return snap


def _write_run_record(writer: OutputWriter, args, started: float) -> None:
    record = {
        "command": args.raw_argv,
        "seed": args.seed,
        "config": _config_snapshot(args),
        "wall_time_s": time.time() - started,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "outputs": dict(sorted(writer.digests.items())),
    }
    (writer.out_dir / "run_record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


def _require_seed(args, command: str) -> int:
    if args.seed is None:
        raise DomainError(
            f"{command} is stochastic; pass an explicit --seed (no silent entropy)"
        )
    return args.seed


def _child_seed(master: int, label: str) -> int:
    return int(derive_rng(master, label).integers(0, 2**63))


def _half_dim(args) -> int:
    if args.dim < 2 or args.dim % 2 != 0:
        raise DomainError(f"--dim must be an even integer >= 2, got {args.dim}")
    return args.dim // 2


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


def cmd_rdiag(args) -> int:
    started = time.time()
    mu = ScalarMeasure.from_json(read_text(args.measure_file))
    radial = brown_rdiagonal(mu)
    writer = OutputWriter(args.out_dir)
    stem = Path(args.measure_file).stem
    # to_json already returns serialized text, so write it verbatim
    writer.write_text(f"{stem}_radial.json", radial.to_json() + "\n")
    rows = radial.cdf_csv_rows()
    csv_text = "r,cdf\n" + "\n".join(f"{r!r},{f!r}" for r, f in rows) + "\n"
    writer.write_text(f"{stem}_cdf.csv", csv_text)
    _write_run_record(writer, args, started)
    print(
        f"radial law: atom {radial.center_atom_mass:.6g}, support "
        f"[{radial.support_inner:.6g}, {radial.support_outer:.6g}], "
        f"{len(rows)} CDF rows -> {writer.out_dir}"
    )
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
    seed = _require_seed(args, "simulate")
    tag = OperatorTag(args.tag)
    half_dim = _half_dim(args)
    if args.seeds < 1:
        raise DomainError(f"--seeds must be >= 1, got {args.seeds}")
    writer = OutputWriter(args.out_dir)

    catalog = catalog_brown(tag)
    all_radii = []
    seed_list = []
    for idx in range(args.seeds):
        child = _child_seed(seed, f"simulate-{idx}")
        seed_list.append(child)
        model = build_m2_free_m2(half_dim, child)
        eigenvalues = catalog_spectrum(tag, model)
        pairs = zip(eigenvalues.real.tolist(), eigenvalues.imag.tolist())
        lines = "\n".join(f"{re!r},{im!r}" for re, im in pairs)
        writer.write_text(f"eigenvalues_seed{idx}.csv", "re,im\n" + lines + "\n")
        all_radii.append(pullback_radii(tag, eigenvalues))

    pooled = np.sort(np.concatenate(all_radii))
    cum = np.arange(1, pooled.size + 1) / pooled.size
    rows = "\n".join(f"{r!r},{c!r}" for r, c in zip(pooled.tolist(), cum.tolist()))
    writer.write_text("empirical_cdf.csv", "r,cdf\n" + rows + "\n")

    ks = ks_distance(pooled, catalog.cdf)
    margin_violations = int(np.sum(pooled > catalog.support_outer + SUPPORT_MARGIN))
    summary = {
        "tag": tag.value,
        "dim": args.dim,
        "master_seed": seed,
        "child_seeds": seed_list,
        "eigenvalue_count": int(pooled.size),
        "ks_distance": float(ks),
        "support_outer": catalog.support_outer,
        "support_margin_violations": margin_violations,
        "cdf_end": float(cum[-1]),
    }
    writer.write_json("simulation_summary.json", summary)
    _write_run_record(writer, args, started)
    print(
        f"{tag.value}: dim {args.dim}, {args.seeds} seed(s), KS {ks:.4f}, "
        f"{margin_violations} support violations -> {writer.out_dir}"
    )
    return 0


def _field_matrix(args) -> tuple[np.ndarray, str]:
    if args.matrix is not None:
        return load_matrix(args.matrix), Path(args.matrix).name
    if args.tag is None:
        raise DomainError("field needs either --matrix FILE or --tag TAG")
    seed = _require_seed(args, "field with --tag")
    tag = OperatorTag(args.tag)
    model = build_m2_free_m2(_half_dim(args), _child_seed(seed, "field"))
    return realize(tag, model), tag.value


def cmd_field(args) -> int:
    started = time.time()
    matrix, label = _field_matrix(args)
    if matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"field needs a square matrix, got {matrix.shape}")
    epsilon = default_epsilon(matrix) if args.epsilon is None else args.epsilon
    if args.grid is not None:
        grid = GridSpec(*_parse_grid(args.grid), epsilon=epsilon)
    else:
        eigs = np.linalg.eigvals(matrix)
        grid = GridSpec.covering(eigs, n=args.grid_n, epsilon=epsilon)
    field = brown_laplacian(logdet_field(matrix, grid, threads=args.threads))
    writer = OutputWriter(args.out_dir)
    writer.write_text("field.csv", field_csv_text(field))
    writer.write_text("mass.csv", mass_csv_text(field))
    # wall time lives in run_record.json; outputs stay digest-stable
    writer.write_json("field_meta.json", field_metadata(field, source=label))
    _write_run_record(writer, args, started)
    print(
        f"field[{label}]: {grid.nx}x{grid.ny} nodes, path {field.path}, "
        f"total mass {field.total_mass():.6f} -> {writer.out_dir}"
    )
    return 0


def cmd_algebra(args) -> int:
    started = time.time()
    mats = [load_matrix(p) for p in args.matrix_files]
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
    if args.kfold is not None:
        seed = _require_seed(args, "algebra --kfold")
        rng = derive_rng(seed, f"kfold-{args.kfold}")
        payload["kfold"] = {
            "k": args.kfold,
            "result": kfold_transitive(span, args.kfold, rng),
        }
    writer = OutputWriter(args.out_dir)
    writer.write_json("algebra_report.json", payload)
    _write_run_record(writer, args, started)
    verdict = "transitive" if payload["transitive"] else "reducible"
    if args.kfold is not None:
        verdict += f", {args.kfold}-fold: {payload['kfold']['result']}"
    print(f"algebra: dim {span.dim} in M_{span.ambient_dim}, {verdict} -> {writer.out_dir}")
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    started = time.time()
    writer = OutputWriter(args.out_dir)
    results = acceptance.run_all(threads=args.threads)
    for line in results.lines:
        print(line)
    writer.write_json("acceptance_report.json", results.to_json())
    _write_run_record(writer, args, started)
    print(
        f"acceptance: {results.passed_count}/{results.total} criteria passed "
        f"-> {writer.out_dir}"
    )
    return 0 if results.all_passed else 1


# -- parser --------------------------------------------------------------------


class _Explicit(argparse.Action):
    """Store the value and record that the flag was given on the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.explicit = namespace.explicit | {self.dest}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.set_defaults(explicit=frozenset())
    common.add_argument("--seed", type=int, default=None, help="master seed (required for stochastic commands)")
    common.add_argument("--threads", type=int, default=1, action=_Explicit, help="worker thread cap")
    common.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("."), action=_Explicit, help="output directory")
    common.add_argument("--config", type=Path, default=None, help="JSON config file; flags override its values")

    parser = argparse.ArgumentParser(
        prog="freeprob",
        description="Spectral distributions of non-normal operators and transitivity of matrix algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rdiag = sub.add_parser(
        "rdiag", parents=[common], help="radial law of a rotation-invariant spectral distribution from a scalar measure file"
    )
    p_rdiag.add_argument("measure_file", help="scalar measure JSON file")
    p_rdiag.set_defaults(func=cmd_rdiag)

    tags = [t.value for t in OperatorTag]
    p_sim = sub.add_parser(
        "simulate", parents=[common], help="sample catalog operators at finite dimension and compare with the limit law"
    )
    p_sim.add_argument("--tag", required=True, choices=tags)
    p_sim.add_argument("--dim", type=int, required=True, help="full matrix dimension (even)")
    p_sim.add_argument("--seeds", type=int, default=1, help="number of independent models")
    p_sim.set_defaults(func=cmd_simulate)

    p_field = sub.add_parser(
        "field", parents=[common], help="log-determinant field and cell masses on a grid"
    )
    p_field.add_argument("--matrix", default=None, help="matrix file (.json or .csv)")
    p_field.add_argument("--tag", default=None, choices=tags, help="catalog operator instead of a file")
    p_field.add_argument("--dim", type=int, default=128, help="dimension for --tag (even)")
    p_field.add_argument("--grid", default=None, action=_Explicit, help="XMIN,XMAX,YMIN,YMAX,NX,NY (default: cover the spectrum)")
    p_field.add_argument("--grid-n", dest="grid_n", type=int, default=SIZE.grid_nx, help="nodes per axis for the automatic grid")
    p_field.add_argument("--epsilon", type=float, default=None, action=_Explicit, help="regularization (default 1e-6*||T||^2)")
    p_field.set_defaults(func=cmd_field)

    p_alg = sub.add_parser(
        "algebra", parents=[common], help="closure, transitivity, and invariant-subspace report for generator matrices"
    )
    p_alg.add_argument("matrix_files", nargs="+", help="generator matrix files")
    p_alg.add_argument("--kfold", type=int, default=None, help="also decide k-fold transitivity")
    p_alg.set_defaults(func=cmd_algebra)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the acceptance criteria and report pass/fail per criterion"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _apply_config(args) -> None:
    if args.config is None:
        return
    try:
        payload = json.loads(read_text(args.config))
    except json.JSONDecodeError as exc:
        raise MeasureFormatError(f"{args.config}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MeasureFormatError("config file must hold a JSON object")
    for key, value in payload.items():
        if key not in CONFIG_KEYS:
            raise MeasureFormatError(f"unknown config key {key!r}")
        types, wanted = CONFIG_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise MeasureFormatError(f"config key {key!r} must be {wanted}, got {value!r}")
        if key == "out_dir":
            value = Path(value)
        # a flag given on the command line wins over the config file
        if key not in args.explicit:
            setattr(args, key, value)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = ["freeprob", *argv]
    try:
        _apply_config(args)
        if args.threads < 1:
            raise DomainError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except FreeprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def entrypoint() -> None:
    sys.exit(main())
