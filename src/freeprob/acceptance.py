"""Nine numbered acceptance criteria with a frozen master seed.

Each criterion re-derives its target from closed forms and measures the
implementation against it at stated tolerances; nothing is fitted to the
observed output.  Criteria 3-5 share one matrix model per seed: the catalog
operators live in the same algebra, and the squared-operator laws follow
from the sampled spectra by the spectral mapping lambda -> lambda^2, so a
single eigensolve per operator per seed feeds all three comparisons.

run_all executes the criteria in order and returns an AcceptanceResults
consumed by both the CLI verify command and the acceptance test.  Every
stochastic criterion derives an independent child stream from MASTER_SEED
by label, so the criteria are decoupled and reproducible run to run.
"""

from __future__ import annotations

import io
import math
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from .algstruct import close_algebra, find_invariant_subspace, kfold_transitive
from .brownfield import (
    GridSpec,
    brown_laplacian,
    default_epsilon,
    logdet_field,
    mass_in_region,
)
from .errors import InternalInconsistencyError
from .matio import save_matrix
from .matmodel import (
    build_free_group,
    build_m2_free_m2,
    centered,
    derive_rng,
    empirical_radial_cdf,
    exact_identity_residuals,
    haar_unitary,
    ks_distance,
    realize,
    spectrum,
    trace_factorization_check,
    word_trace,
)
from .measures import ScalarMeasure, s_transform
from .rdiagonal import (
    OperatorTag,
    brown_rdiagonal,
    catalog_brown,
    conditional_cdf,
    pullback_radii,
)

# Frozen master seed.  All stochastic criteria derive child streams from it
# by label; changing it invalidates the recorded margins below.
MASTER_SEED = 42

SPECTRA_DIM = 1024
SPECTRA_SEEDS = 5
WORD_SEEDS = 10
SUPPORT_MARGIN = 0.05
ALTERNATING_WORD = "c(W1) c(V1) c(W1) c(V1)"

_SPECTRA_TAGS = (
    OperatorTag.W1F12,
    OperatorTag.E12_plus_F12,
    OperatorTag.W1_plus_F12,
)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one numbered criterion: verdict, headline, and evidence."""

    number: int
    title: str
    passed: bool
    headline: str
    runtime_s: float
    details: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number} {status}  {self.title}: "
            f"{self.headline}  [{self.runtime_s:.2f}s]"
        )

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "title": self.title,
            "passed": self.passed,
            "headline": self.headline,
            "runtime_s": self.runtime_s,
            "details": list(self.details),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class AcceptanceResults:
    """All criterion results plus the seed they were produced under."""

    master_seed: int
    results: tuple[CriterionResult, ...]

    @property
    def lines(self) -> list[str]:
        return [r.line for r in self.results]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed_count == self.total

    def to_json(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "passed": self.passed_count,
            "total": self.total,
            "all_passed": self.all_passed,
            "criteria": [r.to_json() for r in self.results],
        }


def _spectra_seeds() -> list[int]:
    rng = derive_rng(MASTER_SEED, "criteria-3-4-5-spectra")
    return [int(s) for s in rng.integers(0, 2**63, size=SPECTRA_SEEDS)]


class _SpectraCache:
    """One model and one eigensolve per catalog tag per seed.

    Criteria 3-5 all consume these spectra; the squared-operator statements
    are checked through the images of the sampled eigenvalues under the
    spectral mapping, not through separate eigensolves of squared matrices.
    """

    def __init__(self) -> None:
        self._samples: dict[OperatorTag, list] | None = None

    def samples(self) -> dict[OperatorTag, list]:
        if self._samples is None:
            out: dict[OperatorTag, list] = {tag: [] for tag in _SPECTRA_TAGS}
            for child in _spectra_seeds():
                model = build_m2_free_m2(SPECTRA_DIM // 2, child)
                for tag in _SPECTRA_TAGS:
                    out[tag].append(
                        spectrum(realize(tag, model), source=tag.value, seed=child)
                    )
            self._samples = out
        return self._samples


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# -- criteria ----------------------------------------------------------------


def _criterion_1() -> CriterionResult:
    started = time.time()
    mu = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
    ws = np.linspace(-0.5, 0.0, 52)[1:-1]
    worst = {"numeric": 0.0, "closed": 0.0}
    for w in ws:
        target = 2.0 * (w + 1.0) / (2.0 * w + 1.0)
        for method in worst:
            err = abs(s_transform(mu, float(w), method=method) - target)
            worst[method] = max(worst[method], err)
    runtime = time.time() - started
    passed = max(worst.values()) <= 1e-10 and runtime < 1.0
    return CriterionResult(
        number=1,
        title="S-transform closed form on the two-point measure",
        passed=passed,
        headline=(
            f"worst |S - 2(w+1)/(2w+1)| = {_fmt(max(worst.values()))} "
            f"over 50 points (bound 1e-10)"
        ),
        runtime_s=runtime,
        details=(
            f"numeric inversion route: worst error {_fmt(worst['numeric'])}",
            f"closed inversion route: worst error {_fmt(worst['closed'])}",
            "grid: 50 interior points of (-1/2, 0)",
        ),
    )


def _criterion_2() -> CriterionResult:
    started = time.time()
    mu = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
    radial = brown_rdiagonal(mu)
    law = catalog_brown(OperatorTag.W1F12)
    atom = radial.center_atom_mass
    outer_err = abs(radial.support_outer - law.support_outer)
    rs = np.linspace(0.0, law.support_outer - 1e-3, 4001)
    target = law.cdf(rs)
    sup_err = float(np.max(np.abs(np.asarray(radial.cdf(rs), dtype=float) - target)))
    runtime = time.time() - started
    passed = atom == 0.5 and outer_err <= 1e-10 and sup_err <= 1e-8 and runtime < 1.0
    return CriterionResult(
        number=2,
        title="radial recipe on the two-point measure",
        passed=passed,
        headline=(
            f"atom {atom!r} (exact 0.5), outer radius error {_fmt(outer_err)}, "
            f"CDF sup error {_fmt(sup_err)}"
        ),
        runtime_s=runtime,
        details=(
            f"atom mass: {atom!r}, required exactly 0.5",
            f"|outer - 1/sqrt(2)| = {_fmt(outer_err)} (bound 1e-10)",
            f"sup |F_num(r) - 1/(2(1-r^2))| = {_fmt(sup_err)} on "
            f"[0, 1/sqrt(2) - 1e-3] (bound 1e-8)",
        ),
    )


def _criterion_3(cache: _SpectraCache) -> CriterionResult:
    started = time.time()
    samples = cache.samples()[OperatorTag.W1F12]
    catalog = catalog_brown(OperatorTag.W1F12)
    cond = conditional_cdf(catalog)
    kernel_devs = []
    ks_values = []
    for sample in samples:
        emp = empirical_radial_cdf(sample, catalog.center)
        kernel_devs.append(abs(emp.atom_fraction - catalog.center_atom_mass))
        ks_values.append(ks_distance(emp.radii[emp.radii > 0.0], cond))
    worst_kernel = max(kernel_devs)
    mean_ks = float(np.mean(ks_values))
    runtime = time.time() - started
    passed = worst_kernel <= 0.02 and mean_ks <= 0.03 and runtime <= 600.0
    return CriterionResult(
        number=3,
        title="finite-dimensional radial law of the W1F12 operator",
        passed=passed,
        headline=(
            f"kernel fraction off by <= {worst_kernel:.4f} (bound 0.02), "
            f"mean conditional KS {mean_ks:.4f} (bound 0.03)"
        ),
        runtime_s=runtime,
        details=(
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "kernel deviations per seed: "
            + ", ".join(f"{d:.4f}" for d in kernel_devs),
            "conditional KS per seed (atom excluded): "
            + ", ".join(f"{k:.4f}" for k in ks_values),
            "runtime includes the shared eigensolves reused by criteria 4-5",
        ),
    )


def _criterion_4(cache: _SpectraCache) -> CriterionResult:
    started = time.time()
    samples = cache.samples()[OperatorTag.E12_plus_F12]
    catalog = catalog_brown(OperatorTag.E12_plus_F12)
    squared = catalog_brown(OperatorTag.E12_plus_F12_squared)
    ks_values = []
    ks_squared = []
    violations = 0
    for sample in samples:
        radii = pullback_radii(OperatorTag.E12_plus_F12, sample.eigenvalues)
        violations += int(np.sum(radii > catalog.support_outer + SUPPORT_MARGIN))
        ks_values.append(ks_distance(radii, catalog.cdf))
        # spectral mapping: the squared operator's radial samples are |lambda|^2
        ks_squared.append(ks_distance(radii * radii, squared.cdf))
    mean_ks = float(np.mean(ks_values))
    mean_ks_sq = float(np.mean(ks_squared))

    # Adjudicate the density-constant question numerically.  Candidate A is
    # the radial CDF family used by this package; candidates B and C are the
    # density forms with the radial factor dropped.
    rs = np.linspace(0.0, catalog.support_outer, 20001)
    mass_without_r = float(2.0 * np.trapezoid((1.0 - rs * rs) ** -2.0, rs))
    rho = np.linspace(1e-6, 0.5, 20001)
    probe = float(0.5 * np.trapezoid(rho**-1.0 * (1.0 - rho) ** -2.0, rho))
    note = (
        "density adjudication: F(r) = r^2/(1-r^2) on [0, 1/sqrt(2)] and its "
        "squared-coordinate pushforward F(rho) = rho/(1-rho) on [0, 1/2] are "
        "the normalized laws and match the sampled spectra "
        f"(mean KS {mean_ks:.4f} and {mean_ks_sq:.4f}). The density variant "
        "(1/pi)(1-r^2)^-2 dr dtheta without the radial factor integrates to "
        f"{mass_without_r:.4f}, not 1; restoring the factor r gives exactly 1 "
        "and recovers F. The squared-coordinate variant (1/(4 pi)) rho^-1 "
        "(1-rho)^-2 drho dtheta diverges at rho = 0 (truncated at 1e-6 it "
        f"already integrates to {probe:.1f}); the density consistent with "
        "F(rho) is (1/(2 pi)) (1-rho)^-2 with respect to drho dtheta, which "
        "integrates to exactly 1."
    )
    runtime = time.time() - started
    passed = (
        mean_ks <= 0.05
        and mean_ks_sq <= 0.05
        and violations == 0
        and runtime <= 600.0
    )
    return CriterionResult(
        number=4,
        title="finite-dimensional radial law of the E12 + F12 operator",
        passed=passed,
        headline=(
            f"mean KS {mean_ks:.4f}, squared-map mean KS {mean_ks_sq:.4f} "
            f"(bounds 0.05), {violations} support violations"
        ),
        runtime_s=runtime,
        details=(
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "KS per seed vs r^2/(1-r^2): "
            + ", ".join(f"{k:.4f}" for k in ks_values),
            "KS per seed of |lambda|^2 vs rho/(1-rho): "
            + ", ".join(f"{k:.4f}" for k in ks_squared),
            f"support bound 1/sqrt(2) + {SUPPORT_MARGIN}: {violations} "
            "eigenvalues outside across all seeds",
        ),
        notes=(note,),
    )


def _criterion_5(cache: _SpectraCache) -> CriterionResult:
    started = time.time()
    samples = cache.samples()[OperatorTag.W1_plus_F12]
    squared = catalog_brown(OperatorTag.W1_plus_F12_squared)
    ks_values = []
    violations = 0
    for sample in samples:
        # |lambda^2 - 1| is simultaneously the squared operator's distance to
        # its center 1 and the pullback coordinate of the unsquared law, so
        # one spectrum feeds both statements.
        radii = pullback_radii(OperatorTag.W1_plus_F12, sample.eigenvalues)
        violations += int(np.sum(radii > squared.support_outer + SUPPORT_MARGIN))
        ks_values.append(ks_distance(radii, squared.cdf))
    mean_ks = float(np.mean(ks_values))
    runtime = time.time() - started
    passed = mean_ks <= 0.05 and violations == 0 and runtime <= 600.0
    return CriterionResult(
        number=5,
        title="finite-dimensional law of the squared W1 + F12 operator",
        passed=passed,
        headline=(
            f"mean KS about center 1: {mean_ks:.4f} (bound 0.05), "
            f"{violations} eigenvalues outside |z^2 - 1| <= 1/sqrt(2) + 0.05"
        ),
        runtime_s=runtime,
        details=(
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "KS per seed of |lambda^2 - 1| vs r^2/(1-r^2): "
            + ", ".join(f"{k:.4f}" for k in ks_values),
            "containment in the ball about 1 and the |lambda^2 - 1| bound "
            "are the same inequality under the spectral mapping",
        ),
    )


def _criterion_6(threads: int) -> CriterionResult:
    started = time.time()
    n = 50
    rng = derive_rng(MASTER_SEED, "criterion-6")
    t = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / math.sqrt(2 * n)
    eigs = np.linalg.eigvals(t)
    radius = 1.3 * float(np.max(np.abs(eigs)))
    eps = default_epsilon(t)

    errors: dict[int, float] = {}
    fine = None
    for nodes in (128, 256):
        grid = GridSpec.square(radius, nodes, epsilon=eps)
        fld = brown_laplacian(logdet_field(t, grid, threads=threads))
        errors[nodes] = abs(fld.total_mass() - 1.0)
        fine = fld

    quadrants = {
        "++": lambda x, y: (x > 0) & (y > 0),
        "-+": lambda x, y: (x < 0) & (y > 0),
        "--": lambda x, y: (x < 0) & (y < 0),
        "+-": lambda x, y: (x > 0) & (y < 0),
    }
    signs = {
        "++": (1, 1),
        "-+": (-1, 1),
        "--": (-1, -1),
        "+-": (1, -1),
    }
    quad_rows = []
    worst_quad = 0.0
    for name, pred in quadrants.items():
        sx, sy = signs[name]
        count = int(np.sum((np.sign(eigs.real) == sx) & (np.sign(eigs.imag) == sy)))
        mass = mass_in_region(fine, pred)
        diff = abs(mass - count / n)
        worst_quad = max(worst_quad, diff)
        quad_rows.append(f"{name}: mass {mass:.4f}, count {count}/{n}, diff {diff:.4f}")

    halved = errors[256] <= 0.5 * errors[128]
    runtime = time.time() - started
    passed = worst_quad <= 0.02 and halved and runtime <= 60.0
    return CriterionResult(
        number=6,
        title="Laplacian mass of the log-determinant field",
        passed=passed,
        headline=(
            f"worst quadrant deviation {worst_quad:.4f} (bound 0.02), "
            f"total-mass error {_fmt(errors[128])} -> {_fmt(errors[256])} "
            f"on refinement"
        ),
        runtime_s=runtime,
        details=(
            f"random {n}x{n} matrix, grid half-width {radius:.4f}, "
            f"epsilon {eps:.3e} (1e-6 * ||T||^2)",
            *quad_rows,
            f"refinement: |mass - 1| = {errors[128]:.6f} at 128^2, "
            f"{errors[256]:.6f} at 256^2 (required at most half)",
            f"runtime {runtime:.1f}s (bound 60s); epsilon > 0 selects the "
            "batched Gram-Cholesky path, the exact-kernel path applies at "
            "epsilon = 0 only",
        ),
    )


def _criterion_7() -> CriterionResult:
    started = time.time()
    seeds = [
        int(s)
        for s in derive_rng(MASTER_SEED, "criterion-7").integers(
            0, 2**63, size=WORD_SEEDS
        )
    ]
    worst_residual = 0.0
    taus = {256: [], 512: []}
    for child in seeds:
        for dim in (256, 512):
            model = build_m2_free_m2(dim // 2, child)
            worst_residual = max(
                worst_residual, max(exact_identity_residuals(model).values())
            )
            taus[dim].append(abs(word_trace(model, ALTERNATING_WORD)))
    tau_means = {dim: float(np.mean(vals)) for dim, vals in taus.items()}

    gaps = {256: [], 512: []}
    for child in seeds:
        for dim in (256, 512):
            fg = build_free_group(dim, child)
            eye = np.eye(dim, dtype=complex)
            # centering Z keeps the two sides from both reducing to tau(U_b)
            result = trace_factorization_check(
                fg.u_b, eye, fg.u_b @ fg.u_b, eye, centered(fg.u_a)
            )
            gaps[dim].append(result.gap)
    gap_means = {dim: float(np.mean(vals)) for dim, vals in gaps.items()}

    runtime = time.time() - started
    passed = (
        worst_residual <= 1e-10
        and tau_means[512] < 0.1
        and tau_means[512] < tau_means[256]
        and gap_means[512] < 0.05
        and gap_means[512] < gap_means[256]
    )
    return CriterionResult(
        number=7,
        title="freeness identities and their dimension scaling",
        passed=passed,
        headline=(
            f"worst exact-identity residual {_fmt(worst_residual)} "
            f"(bound 1e-10), alternating word mean |tau| "
            f"{tau_means[512]:.4f} at 512, factorization gap "
            f"{_fmt(gap_means[512])} at 512"
        ),
        runtime_s=runtime,
        details=(
            f"{WORD_SEEDS} seeds per dimension",
            f"exact identities: worst residual {_fmt(worst_residual)} over "
            "dimensions 256 and 512",
            f"word {ALTERNATING_WORD!r}: mean |tau| {tau_means[256]:.4f} at "
            f"256 -> {tau_means[512]:.4f} at 512 (bound 0.1, must decrease)",
            f"trace factorization on (U_b, I, U_b^2, I; Z = c(U_a)): mean gap "
            f"{_fmt(gap_means[256])} at 256 -> {_fmt(gap_means[512])} at 512 "
            "(bound 0.05, must decrease)",
        ),
    )


def _random_algebra_generators(
    n: int, family: int, rng: np.random.Generator
) -> list[np.ndarray]:
    def ginibre() -> np.ndarray:
        return (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / math.sqrt(2 * n)

    if family == 0:
        return [ginibre(), ginibre()]
    if family == 1:
        return [
            np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for _ in range(2)
        ]
    if family == 2:
        return [np.triu(ginibre()), np.triu(ginibre())]
    if family == 3:
        k = int(rng.integers(1, n))
        q = haar_unitary(n, rng)
        gens = []
        for _ in range(2):
            block = np.zeros((n, n), dtype=complex)
            block[:k, :k] = (
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            )
            block[k:, k:] = (
                rng.standard_normal((n - k, n - k))
                + 1j * rng.standard_normal((n - k, n - k))
            )
            gens.append(q @ block @ q.conj().T)
        return gens
    return [ginibre()]


def _criterion_8() -> CriterionResult:
    started = time.time()
    rng = derive_rng(MASTER_SEED, "criterion-8")
    instances = 100
    burnside_disagreements = 0
    failed_verifications = 0
    chain_violations = 0
    transitive_count = 0
    for idx in range(instances):
        n = int(rng.integers(2, 7))
        family = int(rng.integers(0, 5))
        span = close_algebra(_random_algebra_generators(n, family, rng))
        # subspace re-verification, the dimension cross-check and the
        # agreement of both 2-fold routes each raise when they fail
        try:
            report = find_invariant_subspace(span)
            two_fold = kfold_transitive(
                span, 2, derive_rng(MASTER_SEED, f"criterion-8-kfold-{idx}")
            )
        except InternalInconsistencyError:
            failed_verifications += 1
            continue
        transitive = report.kind == "none"
        full = span.dim == n * n
        if transitive != full:
            burnside_disagreements += 1
        if transitive and not two_fold:
            chain_violations += 1
        if two_fold and not full:
            chain_violations += 1
        transitive_count += int(transitive)
    runtime = time.time() - started
    passed = (
        burnside_disagreements == 0
        and failed_verifications == 0
        and chain_violations == 0
        and runtime <= 60.0
    )
    return CriterionResult(
        number=8,
        title="algebra suite on random finite-dimensional instances",
        passed=passed,
        headline=(
            f"{instances} instances (N <= 6): {burnside_disagreements} "
            f"dimension-count disagreements, {failed_verifications} "
            f"failed verifications, {chain_violations} chain violations"
        ),
        runtime_s=runtime,
        details=(
            f"{transitive_count} transitive instances, "
            f"{instances - transitive_count - failed_verifications} "
            "with invariant subspaces",
            "every subspace report re-verified against the raw generators",
            "2-fold transitivity decided by both routes (projection lattice "
            "and orbit rank) on every instance with no disagreement",
            "chain checked: transitive implies 2-fold transitive implies "
            "full matrix algebra",
            f"runtime {runtime:.1f}s (bound 60s)",
        ),
    )


def _run_cli(argv: list[str]) -> int:
    from . import cli

    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _output_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "run_record.json":
            continue
        digests[path.name] = sha256(path.read_bytes()).hexdigest()
    return digests


def _criterion_9() -> CriterionResult:
    started = time.time()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)

        measure_path = base / "two_point.json"
        measure_path.write_text(ScalarMeasure(((0.0, 0.5), (1.0, 0.5))).to_json())
        rng = derive_rng(MASTER_SEED, "criterion-9")
        matrix_path = base / "matrix.json"
        save_matrix(
            matrix_path,
            (rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
            / math.sqrt(48),
        )

        repeats = {
            "rdiag": ["rdiag", str(measure_path)],
            "simulate": [
                "simulate", "--tag", "W1F12", "--dim", "64",
                "--seeds", "2", "--seed", "31337",
            ],
        }
        for name, argv in repeats.items():
            seen = []
            for run in ("a", "b"):
                out = base / f"{name}-{run}"
                code = _run_cli([*argv, "--out-dir", str(out)])
                if code != 0:
                    failures.append(f"{name} run {run} exited {code}")
                seen.append(_output_digests(out))
            if seen[0] != seen[1]:
                failures.append(f"{name}: repeated run produced different digests")

        field_digests = []
        for run, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = base / f"field-{run}"
            code = _run_cli(
                [
                    "field", "--matrix", str(matrix_path), "--grid-n", "40",
                    "--threads", threads, "--out-dir", str(out),
                ]
            )
            if code != 0:
                failures.append(f"field run {run} exited {code}")
            field_digests.append(_output_digests(out))
        if not (field_digests[0] == field_digests[1] == field_digests[2]):
            failures.append("field: digests differ across repeats or thread counts")

    runtime = time.time() - started
    passed = not failures
    return CriterionResult(
        number=9,
        title="command-line reproducibility",
        passed=passed,
        headline=(
            "identical digests across repeated runs and thread counts"
            if passed
            else "; ".join(failures)
        ),
        runtime_s=runtime,
        details=(
            "rdiag and seeded simulate repeated with identical outputs",
            "field run at 1, 4, and again 1 worker threads with bitwise "
            "identical outputs (rows are assembled by index, so the "
            "reduction order never changes)",
        ),
    )


def run_all(threads: int = 1) -> AcceptanceResults:
    """Run the nine criteria in order and collect their results."""
    cache = _SpectraCache()
    results = (
        _criterion_1(),
        _criterion_2(),
        _criterion_3(cache),
        _criterion_4(cache),
        _criterion_5(cache),
        _criterion_6(threads),
        _criterion_7(),
        _criterion_8(),
        _criterion_9(),
    )
    return AcceptanceResults(master_seed=MASTER_SEED, results=results)
