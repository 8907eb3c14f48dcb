"""Nine numbered acceptance criteria with a frozen master seed.

Each criterion re-derives its target from closed forms and measures the
implementation against it at stated tolerances; nothing is fitted to the
observed output.  Criteria 3-5 share one matrix model per seed: the catalog
operators live in the same algebra, and the squared-operator laws follow
from the sampled spectra by the spectral mapping lambda -> lambda^2.  Every
spectrum is a plain array of eigenvalues read from two n x n eigensolves of
the Haar rotation's blocks per seed (the model's cached block eigenvalues,
read through each Law's spectrum), shared by all three comparisons; each
criterion maps it to its law's radial coordinate
(pullback_radii) and measures a KS distance.  The W1F12 atom 1/2 at 0 is
exact by construction (the kernel is n exact zeros), so criterion 3 checks
only the law conditioned off the atom.

Each criterion is a check that returns its verdict, headline and evidence;
the _criterion decorator times it, applies its runtime bound and wraps the
outcome in a CriterionResult.  run_all executes the criteria in order and
returns an AcceptanceResults consumed by both the CLI verify command and the
acceptance test.  Every stochastic criterion derives an independent child
stream from MASTER_SEED by label, so the criteria are decoupled and
reproducible run to run.
"""

from __future__ import annotations

import functools
import io
import math
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable

import numpy as np
# loaded here, before any criterion's timer starts, so criterion 2's runtime
# bound times the radial recipe and not the import rdiagonal defers
import scipy.interpolate  # noqa: F401
import scipy.linalg

from .algstruct import close_algebra, find_invariant_subspace, kfold_transitive
from .brownfield import GridSpec, default_epsilon, logdet_field, mass_in_region
from .errors import InternalInconsistencyError
from .matio import save_matrix
from .matmodel import (
    build_free_group,
    build_m2_free_m2,
    centered,
    derive_rng,
    exact_identity_residuals,
    haar_unitary,
    ks_distance,
    trace_factorization_check,
    word_trace,
)
from .measures import ScalarMeasure, s_transform
from .rdiagonal import (
    SUPPORT_MARGIN,
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
ALTERNATING_WORD = "c(W1) c(V1) c(W1) c(V1)"

_SPECTRA_TAGS = (
    OperatorTag.W1F12,
    OperatorTag.E12_plus_F12,
    OperatorTag.W1_plus_F12,
)

Spectra = Callable[[], dict[OperatorTag, list[np.ndarray]]]


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
            "criteria": [asdict(r) for r in self.results],
        }


def _criterion(number: int, title: str, bound_s: float = math.inf):
    """Make a check into criterion number: time it and bound its runtime.

    The check returns (ok, headline, details) or (ok, headline, details,
    notes).  The criterion passes when ok holds and the check ran within
    bound_s seconds; the runtime and its bound close the details.
    """

    def wrap(check):
        @functools.wraps(check)
        def run(*args) -> CriterionResult:
            started = time.time()
            ok, headline, details, *notes = check(*args)
            runtime = time.time() - started
            bound = "no bound" if math.isinf(bound_s) else f"bound {bound_s:g} s"
            return CriterionResult(
                number=number,
                title=title,
                passed=bool(ok) and runtime <= bound_s,
                headline=headline,
                runtime_s=runtime,
                details=(*details, f"runtime {runtime:.2f} s ({bound})"),
                notes=tuple(notes[0]) if notes else (),
            )

        return run

    return wrap


def _child_seeds(label: str, count: int) -> list[int]:
    rng = derive_rng(MASTER_SEED, label)
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def _catalog_spectra() -> dict[OperatorTag, list[np.ndarray]]:
    """Each spectra tag's eigenvalues on SPECTRA_SEEDS models, one per seed:
    two n x n eigensolves of the model's rotation blocks serve all three."""
    out: dict[OperatorTag, list[np.ndarray]] = {tag: [] for tag in _SPECTRA_TAGS}
    for child in _child_seeds("criteria-3-4-5-spectra", SPECTRA_SEEDS):
        model = build_m2_free_m2(SPECTRA_DIM // 2, child)
        for tag in _SPECTRA_TAGS:
            out[tag].append(catalog_brown(tag).spectrum(model))
    return out


def _ks_over_seeds(
    samples: list[np.ndarray], tag: OperatorTag, cdf, outer: float | None = None
) -> tuple[float, str, int]:
    """Mean and per-seed KS distance of each seed's eigenvalues against cdf.

    The eigenvalues are read in tag's radial coordinate.  With outer given,
    radii past outer + SUPPORT_MARGIN are counted as support violations.
    """
    ks_values = []
    violations = 0
    for eigenvalues in samples:
        radii = pullback_radii(tag, eigenvalues)
        if outer is not None:
            violations += int(np.sum(radii > outer + SUPPORT_MARGIN))
        ks_values.append(ks_distance(radii, cdf))
    per_seed = ", ".join(f"{k:.4f}" for k in ks_values)
    return float(np.mean(ks_values)), per_seed, violations


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n matrix of entries a + ib with a, b standard normal."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# -- criteria ----------------------------------------------------------------


@_criterion(1, "S-transform closed form on the two-point measure", bound_s=1.0)
def _criterion_1():
    mu = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
    ws = np.linspace(-0.5, 0.0, 52)[1:-1]
    worst = {"numeric": 0.0, "closed": 0.0}
    for w in ws:
        target = 2.0 * (w + 1.0) / (2.0 * w + 1.0)
        for method in worst:
            err = abs(s_transform(mu, float(w), method=method) - target)
            worst[method] = max(worst[method], err)
    return (
        max(worst.values()) <= 1e-10,
        f"worst |S - 2(w+1)/(2w+1)| = {_fmt(max(worst.values()))} "
        f"over 50 points (bound 1e-10)",
        (
            f"numeric inversion route: worst error {_fmt(worst['numeric'])}",
            f"closed inversion route: worst error {_fmt(worst['closed'])}",
            "grid: 50 interior points of (-1/2, 0)",
        ),
    )


@_criterion(2, "radial recipe on the two-point measure", bound_s=1.0)
def _criterion_2():
    mu = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
    radial = brown_rdiagonal(mu)
    law = catalog_brown(OperatorTag.W1F12)
    outer_err = abs(radial.support_outer - law.support_outer)
    rs = np.linspace(0.0, law.support_outer - 1e-3, 4001)
    target = law.cdf(rs)
    sup_err = float(np.max(np.abs(np.asarray(radial.cdf(rs), dtype=float) - target)))
    return (
        outer_err <= 1e-10 and sup_err <= 1e-8,
        f"outer radius error {_fmt(outer_err)}, CDF sup error {_fmt(sup_err)}",
        (
            f"|outer - 1/sqrt(2)| = {_fmt(outer_err)} (bound 1e-10)",
            f"sup |F_num(r) - 1/(2(1-r^2))| = {_fmt(sup_err)} on "
            f"[0, 1/sqrt(2) - 1e-3] (bound 1e-8)",
            f"the atom {radial.center_atom_mass!r} at 0 is exact by construction "
            "and not checked: the recipe copies the measure's own atom at 0",
        ),
    )


@_criterion(3, "finite-dimensional radial law of the W1F12 operator", bound_s=600.0)
def _criterion_3(spectra: Spectra):
    tag = OperatorTag.W1F12
    # dropping the kernel's exact zeros conditions the sample off the atom
    nonzero = [mu[mu != 0.0] for mu in spectra()[tag]]
    mean_ks, per_seed, _ = _ks_over_seeds(
        nonzero, tag, conditional_cdf(catalog_brown(tag))
    )
    return (
        mean_ks <= 0.03,
        f"mean conditional KS {mean_ks:.4f} (bound 0.03)",
        (
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "conditional KS per seed (atom excluded): " + per_seed,
            "the atom 1/2 at 0 is exact by construction and not checked: the "
            "block route writes the kernel of W1 F12 (F12 = Q_1 Q_2* has rank "
            "n) as n exact zeros",
            "runtime includes building the models and the two n x n block "
            "eigensolves per seed that criteria 4-5 reuse",
        ),
    )


@_criterion(4, "finite-dimensional radial law of the E12 + F12 operator", bound_s=600.0)
def _criterion_4(spectra: Spectra):
    tag = OperatorTag.E12_plus_F12
    catalog = catalog_brown(tag)
    mean_ks, per_seed, violations = _ks_over_seeds(
        spectra()[tag], tag, catalog.cdf, catalog.support_outer
    )

    # Adjudicate the density-constant question in closed form.  Candidate A
    # is the radial CDF family used by this package; candidates B and C are
    # the density forms with the radial factor dropped, of masses
    # 2 int_0^a (1-r^2)^-2 dr and (1/2) int_rho0^(1/2) rho^-1 (1-rho)^-2 drho.
    a = catalog.support_outer
    mass_without_r = a / (1.0 - a * a) + math.atanh(a)
    rho0 = 1e-6
    probe = 0.5 * (2.0 - math.log(rho0 / (1.0 - rho0)) - 1.0 / (1.0 - rho0))
    note = (
        "density adjudication: F(r) = r^2/(1-r^2) on [0, 1/sqrt(2)] and its "
        "squared-coordinate pushforward F(rho) = rho/(1-rho) on [0, 1/2] are "
        "the normalized laws; the sampled spectra are measured against the "
        "first, and |lambda|^2 against the second would give the same KS "
        "distances, since r -> r^2 is monotone. The density variant "
        "(1/pi)(1-r^2)^-2 dr dtheta without the radial factor integrates to "
        f"{mass_without_r:.4f}, not 1; restoring the factor r gives exactly 1 "
        "and recovers F. The squared-coordinate variant (1/(4 pi)) rho^-1 "
        "(1-rho)^-2 drho dtheta diverges at rho = 0 (truncated at 1e-6 it "
        f"already integrates to {probe:.1f}); the density consistent with "
        "F(rho) is (1/(2 pi)) (1-rho)^-2 with respect to drho dtheta, which "
        "integrates to exactly 1."
    )
    return (
        mean_ks <= 0.05 and violations == 0,
        f"mean KS {mean_ks:.4f} (bound 0.05), {violations} support violations",
        (
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "KS per seed vs r^2/(1-r^2): " + per_seed,
            f"support bound 1/sqrt(2) + {SUPPORT_MARGIN}: {violations} "
            "eigenvalues outside across all seeds",
        ),
        (note,),
    )


@_criterion(5, "finite-dimensional law of the squared W1 + F12 operator", bound_s=600.0)
def _criterion_5(spectra: Spectra):
    tag = OperatorTag.W1_plus_F12
    squared = catalog_brown(OperatorTag.W1_plus_F12_squared)
    # |lambda^2 - 1| is simultaneously the squared operator's distance to its
    # center 1 and the pullback coordinate of the unsquared law, so one
    # spectrum feeds both statements.
    mean_ks, per_seed, violations = _ks_over_seeds(
        spectra()[tag], tag, squared.cdf, squared.support_outer
    )
    return (
        mean_ks <= 0.05 and violations == 0,
        f"mean KS about center 1: {mean_ks:.4f} (bound 0.05), {violations} "
        f"eigenvalues outside |z^2 - 1| <= 1/sqrt(2) + {SUPPORT_MARGIN}",
        (
            f"dimension {SPECTRA_DIM}, {SPECTRA_SEEDS} seeds",
            "KS per seed of |lambda^2 - 1| vs r^2/(1-r^2): " + per_seed,
            "containment in the ball about 1 and the |lambda^2 - 1| bound "
            "are the same inequality under the spectral mapping",
            "the |lambda^2 - 1| sample is |mu| over criterion 3's nonzero "
            "W1F12 eigenvalues mu, taken twice, by construction: both "
            "operators' spectra come from mu in eig(Q_2* W1 Q_1), and W1 + F12 "
            "has the eigenvalues +-sqrt(1 + mu)",
        ),
    )


@_criterion(6, "Laplacian mass of the log-determinant field", bound_s=60.0)
def _criterion_6():
    n = 50
    rng = derive_rng(MASTER_SEED, "criterion-6")
    t = _gaussian(rng, n) / math.sqrt(2 * n)
    eigs = np.linalg.eigvals(t)
    radius = 1.3 * float(np.max(np.abs(eigs)))
    eps = default_epsilon(t)

    fields = {
        nodes: logdet_field(t, GridSpec.square(radius, nodes, epsilon=eps))
        for nodes in (128, 256)
    }
    errors = {nodes: abs(fld.total_mass() - 1.0) for nodes, fld in fields.items()}
    fine = fields[256]

    # quadrant name -> signs of its real and imaginary parts
    quadrants = {"++": (1, 1), "-+": (-1, 1), "--": (-1, -1), "+-": (1, -1)}
    quad_rows = []
    worst_quad = 0.0
    for name, (sx, sy) in quadrants.items():

        def inside(x, y):
            return (sx * x > 0) & (sy * y > 0)

        count = int(np.sum(inside(eigs.real, eigs.imag)))
        mass = mass_in_region(fine, inside)
        diff = abs(mass - count / n)
        worst_quad = max(worst_quad, diff)
        quad_rows.append(f"{name}: mass {mass:.4f}, count {count}/{n}, diff {diff:.4f}")

    halved = errors[256] <= 0.5 * errors[128]
    return (
        worst_quad <= 0.02 and halved,
        f"worst quadrant deviation {worst_quad:.4f} (bound 0.02), "
        f"total-mass error {_fmt(errors[128])} -> {_fmt(errors[256])} "
        f"on refinement",
        (
            f"random {n}x{n} matrix, grid half-width {radius:.4f}, "
            f"epsilon {eps:.3e} (1e-6 * ||T||^2)",
            *quad_rows,
            f"refinement: |mass - 1| = {errors[128]:.6f} at 128^2, "
            f"{errors[256]:.6f} at 256^2 (required at most half)",
            "epsilon > 0 selects the batched Gram-Cholesky path, the "
            "exact-kernel path applies at epsilon = 0 only",
        ),
    )


@_criterion(7, "freeness identities and their dimension scaling")
def _criterion_7():
    worst_residual = 0.0
    taus = {256: [], 512: []}
    gaps = {256: [], 512: []}
    for child in _child_seeds("criterion-7", WORD_SEEDS):
        for dim in (256, 512):
            model = build_m2_free_m2(dim // 2, child)
            worst_residual = max(
                worst_residual, exact_identity_residuals(model)["rotation_unitarity"]
            )
            taus[dim].append(abs(word_trace(model, ALTERNATING_WORD)))
            fg = build_free_group(dim, child)
            eye = np.eye(dim, dtype=complex)
            # centering Z keeps the two sides from both reducing to tau(U_b)
            result = trace_factorization_check(
                fg.u_b, eye, fg.u_b @ fg.u_b, eye, centered(fg.u_a)
            )
            gaps[dim].append(result.gap)
    tau_means = {dim: float(np.mean(vals)) for dim, vals in taus.items()}
    gap_means = {dim: float(np.mean(vals)) for dim, vals in gaps.items()}

    return (
        worst_residual <= 1e-10
        and tau_means[512] < 0.1
        and tau_means[512] < tau_means[256]
        and gap_means[512] < 0.05
        and gap_means[512] < gap_means[256],
        f"worst rotation-unitarity residual {_fmt(worst_residual)} "
        f"(bound 1e-10), alternating word mean |tau| "
        f"{tau_means[512]:.4f} at 512, factorization gap "
        f"{_fmt(gap_means[512])} at 512",
        (
            f"{WORD_SEEDS} seeds per dimension",
            f"rotation unitarity: worst ||Q*Q - I||_F {_fmt(worst_residual)} "
            "over dimensions 256 and 512; the model's algebraic relations "
            "follow from it",
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
        return _gaussian(rng, n) / math.sqrt(2 * n)

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
        blocks = [
            scipy.linalg.block_diag(_gaussian(rng, k), _gaussian(rng, n - k))
            for _ in range(2)
        ]
        return [q @ block @ q.conj().T for block in blocks]
    return [ginibre()]


@_criterion(8, "algebra suite on random finite-dimensional instances", bound_s=60.0)
def _criterion_8():
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
        # subspace re-verification, the dimension cross-check and the orbit
        # route's confirmation of a 2-fold lattice pass each raise when they fail
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
    verification = (
        ("every subspace report re-verified against the raw generators",
         "2-fold transitivity: the projection-lattice route runs on every "
         "instance, and the orbit-rank route confirms every lattice pass "
         "with no disagreement")
        if failed_verifications == 0
        else (f"{failed_verifications} instances failed subspace re-verification "
              "or disagreed between the 2-fold routes",)
    )
    return (
        burnside_disagreements == 0
        and failed_verifications == 0
        and chain_violations == 0,
        f"{instances} instances (N <= 6): {burnside_disagreements} "
        f"dimension-count disagreements, {failed_verifications} "
        f"failed verifications, {chain_violations} chain violations",
        (
            f"{transitive_count} transitive instances, "
            f"{instances - transitive_count - failed_verifications} "
            "with invariant subspaces",
            *verification,
            "chain checked: transitive implies 2-fold transitive implies "
            "full matrix algebra",
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


@_criterion(9, "command-line reproducibility")
def _criterion_9():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)

        measure_path = base / "two_point.json"
        measure_path.write_text(ScalarMeasure(((0.0, 0.5), (1.0, 0.5))).to_json())
        rng = derive_rng(MASTER_SEED, "criterion-9")
        matrix_path = base / "matrix.json"
        save_matrix(matrix_path, _gaussian(rng, 24) / math.sqrt(48))

        simulate = [
            "simulate", "--tag", "W1F12", "--dim", "64",
            "--seeds", "2", "--seed", "31337",
        ]
        field = ["field", "--matrix", str(matrix_path), "--grid-n", "40", "--threads"]
        # each command's runs, which must write identical outputs
        runs = {
            "rdiag": [["rdiag", str(measure_path)]] * 2,
            "simulate": [simulate] * 2,
            "field": [[*field, threads] for threads in ("1", "4", "1")],
        }
        for name, argvs in runs.items():
            seen = []
            for run, argv in zip("abc", argvs):
                out = base / f"{name}-{run}"
                code = _run_cli([*argv, "--out-dir", str(out)])
                if code != 0:
                    failures.append(f"{name} run {run} exited {code}")
                seen.append(_output_digests(out))
            if any(digests != seen[0] for digests in seen):
                failures.append(f"{name}: repeated runs produced different digests")

    return (
        not failures,
        "; ".join(failures) or "identical digests across repeated runs and thread counts",
        (
            "rdiag and seeded simulate repeated with identical outputs",
            "field run at 1, 4, and again 1 worker threads with bitwise "
            "identical outputs (rows are assembled by index, so the "
            "reduction order never changes)",
        ),
    )


def run_all() -> AcceptanceResults:
    """Run the nine criteria in order and collect their results.

    Criteria 3-5 share one cached computation of the spectra, which runs,
    and is timed, within criterion 3.
    """
    spectra = functools.cache(_catalog_spectra)
    results = (
        _criterion_1(),
        _criterion_2(),
        _criterion_3(spectra),
        _criterion_4(spectra),
        _criterion_5(spectra),
        _criterion_6(),
        _criterion_7(),
        _criterion_8(),
        _criterion_9(),
    )
    return AcceptanceResults(master_seed=MASTER_SEED, results=results)
