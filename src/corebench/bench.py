"""Benchmark harness: dataset generation, construction sweeps, CSV output.

Experiments (``EXPERIMENTS`` holds their desk-scale default sizes):

* ``synth-gauss``   -- Gaussian unknown-mean study, reporting the relative
  error of the coreset posterior variance in the ``extra`` column.
* ``synth-vectors`` -- i.i.d. standard normal vectors.
* ``ortho``         -- axis-aligned vectors L_n = (1/N) e_n, the
  construction where simplex-constrained methods have error sqrt(N/M - 1).
* ``regress``       -- logistic/Poisson regression with a Laplace fit and a
  random-feature projection of ``default_sample_count(D + 1)`` samples;
  errors are measured in the projected space.

Budgets are swept over a log-spaced grid {1, ..., m_max}. Randomness is
split into named PCG64 streams: trial t of a run with root seed s uses
``SeedSequence(s, spawn_key=(t, k))`` with k = 0 for data, 1 for importance
sampling, 2 for uniform subsampling, and 3 for the projection draw, so every
row is reproducible bit-for-bit (timing columns aside). Trials run one
after another, and rows are emitted in (trial, algorithm, M) order.

``cpu_seconds`` is the CPU time of the constructing thread
(``time.thread_time``), with BLAS helper threads excluded: GIGA and FW
report it for the run up to each budget, leaving out the snapshots of the
weights at earlier budgets, and IS and RND for their one sweep.
"""

from __future__ import annotations

import csv
import io
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, giga
from .hilbert import CoresetProblem, WeightVector, _build_in_place, relative_error
from .models import (
    REGRESSION_MODELS,
    GaussianMeanData,
    LaplaceNotConverged,
    RegressionData,
    default_sample_count,
    expit,
    gaussian_embed,
    laplace,
    posterior_variance,
    project,
)

EXPERIMENTS = {
    "synth-gauss": dict(n=10, trials=1000, m_max=1),
    "synth-vectors": dict(n=10_000, dim=50, trials=20, m_max=1000),
    "ortho": dict(n=1000, trials=1, m_max=1000),
    "regress": dict(n=2000, trials=20, m_max=1000),
}
ALGORITHMS = ("giga", "fw", "is", "rnd")
CSV_COLUMNS = ("trial", "algorithm", "M", "rel_error", "size", "cpu_seconds", "extra")

_STREAM_DATA, _STREAM_IS, _STREAM_RND, _STREAM_PROJ = 0, 1, 2, 3


class DataError(Exception):
    """Malformed input data (CSV schema violations and the like)."""


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    n: int
    m_max: int
    trials: int
    seed: int
    dim: int = 0                 # read by synth-vectors only
    algorithms: tuple[str, ...] = ALGORITHMS
    model: str = "logistic"
    input_path: str | None = None
    label_col: str = "y"
    standardize: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("n", "m_max", "trials", "seed", "dim"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):    # numpy ints are Integral
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.experiment == "synth-vectors" and self.dim < 1:
            raise ValueError("dim must be >= 1 for synth-vectors")
        if self.model not in REGRESSION_MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.algorithms:
            raise ValueError(f"no algorithms selected; choose from {','.join(ALGORITHMS)}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"duplicate algorithms: {','.join(self.algorithms)}")


@dataclass(frozen=True)
class ResultRow:
    trial: int
    algorithm: str
    M: int
    rel_error: float
    size: int
    cpu_seconds: float
    extra: float | None = None


def log_grid(m_max: int) -> list[int]:
    """Strictly increasing log-spaced integer budgets from 1 to m_max (at most 20)."""
    if m_max < 1 or m_max % 1:
        raise ValueError("m_max must be >= 1 and integral")
    # geomspace returns its endpoints exactly, so the rounded grid holds 1 and m_max
    return np.unique(np.round(np.geomspace(1, m_max, 20)).astype(int)).tolist()


def _stream(seed: int, trial: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, purpose)))


def _stream_seed(seed: int, trial: int, purpose: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(trial, purpose))
               .generate_state(1, np.uint64)[0])


def _checkpoint_time(times: list[float], m: int) -> float:
    if not times:
        return 0.0
    return times[min(m, len(times)) - 1]


def _construction_rows(spec: ExperimentSpec, trial: int, grid: list[int],
                       problem: CoresetProblem, extra_fn=None) -> list[ResultRow]:
    """Run every requested algorithm over the budget grid and collect rows,
    in the CSV's (algorithm, M) order."""
    rows = []
    for alg in sorted(spec.algorithms):
        if alg in ("giga", "fw"):
            construct = giga.run if alg == "giga" else baselines.fw_coreset
            _, diag = construct(problem, grid[-1], checkpoints=grid)
            results = [(m, diag.snapshots[m], _checkpoint_time(diag.times, m)) for m in grid]
        else:
            seed = _stream_seed(spec.seed, trial, _STREAM_IS if alg == "is" else _STREAM_RND)
            t0 = time.thread_time()
            sweep = baselines.sampling_sweep(problem, grid, seed, alg.upper())
            cpu = time.thread_time() - t0
            results = [(m, sweep[m], cpu) for m in grid]
        rows += [ResultRow(trial, alg, m, relative_error(problem, w), w.nnz, cpu,
                           None if extra_fn is None else extra_fn(w)) for m, w, cpu in results]
    return rows


# --- experiments ---

def _gauss_trial(y: np.ndarray):
    """Embedded Gaussian-mean problem for observations y, with the relative
    error of the coreset posterior variance as its ``extra`` column."""
    data = GaussianMeanData(y)
    problem = gaussian_embed(data)
    v_exact = posterior_variance(data.n)

    def variance_error(weights: WeightVector) -> float:
        # the variance reads only the total weight, the same over problem or input rows
        return abs(posterior_variance(weights.total()) - v_exact) / v_exact

    return problem, variance_error


def ortho_problem(n: int) -> CoresetProblem:
    """Axis-aligned construction: L_n = (1/n) e_n, so sigma = 1, ||L|| = 1/sqrt(n)."""
    return _build_in_place(np.eye(n) / n)


def synth_regression_data(model: str, n: int, rng: np.random.Generator) -> RegressionData:
    """Synthetic regression draws: logistic has x in R^2 and true parameter
    [3, 3, 0]; Poisson has x in R^1 and true parameter [1, 0]."""
    if model == "logistic":
        x = rng.normal(size=(n, 2))
        u = x @ np.array([3.0, 3.0])          # intercept is 0
        y = np.where(rng.random(n) < expit(u), 1.0, -1.0)
    elif model == "poisson":
        x = rng.normal(size=(n, 1))
        y = rng.poisson(np.logaddexp(0.0, x[:, 0])).astype(float)
    else:
        raise ValueError(f"no synthetic generator for model {model!r}")
    return RegressionData(x, y)


def _trial_problems(spec: ExperimentSpec):
    """The experiment's ``trial -> (problem, extra_fn)`` function.

    Work shared by all trials (the ortho problem, the regression data and
    its Laplace fit) is done here, once per run, and so are its DataErrors.
    """
    if spec.experiment == "ortho":
        problem = ortho_problem(spec.n)
        return lambda trial: (problem, None)

    if spec.experiment == "regress":
        if spec.input_path is not None:
            data = load_csv(spec.input_path, spec.label_col, spec.model,
                            standardize=spec.standardize)
        else:
            data = synth_regression_data(spec.model, spec.n,
                                         _stream(spec.seed, 0, _STREAM_DATA))
        try:
            with np.errstate(over="ignore", invalid="ignore"):   # a failed fit raises below
                lap = laplace(spec.model, data)
        except LaplaceNotConverged as exc:
            raise DataError(f"Laplace fit failed: {exc}") from exc
        samples = default_sample_count(data.d + 1)

        def projected(trial):
            seed = _stream_seed(spec.seed, trial, _STREAM_PROJ)
            return project(spec.model, data, lap, samples, seed), None
        return projected

    def synthetic(trial):
        rng = _stream(spec.seed, trial, _STREAM_DATA)
        if spec.experiment == "synth-vectors":
            return _build_in_place(rng.normal(size=(spec.n, spec.dim))), None
        mu = rng.normal()            # drawn before y: the draw order fixes every row
        return _gauss_trial(rng.normal(mu, 1.0, size=spec.n))
    return synthetic


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every trial of the experiment in turn; rows in (trial, algorithm, M) order."""
    grid = log_grid(spec.m_max)
    trial_problem = _trial_problems(spec)
    rows = []
    for trial in range(spec.trials):
        # no name holds the problem, so one trial's problem is freed before the next is built
        rows += _construction_rows(spec, trial, grid, *trial_problem(trial))
    return rows


# --- CSV input/output ---

def write_csv(rows: list[ResultRow], out) -> None:
    """Write the rows as CSV to the open text file ``out``.

    The lines are those of ``csv.writer`` (excel dialect, ``\\r\\n`` line
    ends) joined by hand: every field is an integer, an algorithm name, a
    float's ``repr`` or empty, so none needs quoting.
    """
    out.write(",".join(CSV_COLUMNS) + "\r\n")
    out.writelines(f"{r.trial},{r.algorithm},{r.M},{r.rel_error!r},{r.size},{r.cpu_seconds!r},"
                   f"{'' if r.extra is None else repr(r.extra)}\r\n" for r in rows)


def load_csv(path: str, label_column: str, model: str,
             standardize: bool = False) -> RegressionData:
    """Read a regression dataset from a headered CSV file.

    All non-label columns are treated as numeric features. Logistic labels
    may be coded {0, 1} (mapped to {-1, +1}) or {-1, +1} directly; Poisson
    labels must be nonnegative integers. Schema problems and CSV parse
    errors raise DataError with the offending file line number (the header
    is line 1; a multi-line record gets its last line); a record's first
    non-numeric cell is named. With ``standardize``, features are
    shifted/scaled to mean 0 and variance 1 (constant columns are only
    centered).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:   # a BOM is no header text
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    records = _records(reader, path)
    try:
        header = next(records)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column {name!r}")
        seen.add(name)
    if label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not found "
                        f"(columns: {', '.join(header)})")
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns besides the label")

    xs, ys = [], []
    for record in records:
        if not record or all(not c.strip() for c in record):
            continue
        if len(record) != len(header):
            raise DataError(f"{path}: row {reader.line_num} has {len(record)} fields, "
                            f"expected {len(header)}")
        values = []
        for cell in record:
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: row {reader.line_num}: non-numeric value "
                                f"{cell.strip()!r}") from None
        xs.append([values[i] for i in feature_idx])
        ys.append(values[label_idx])
    if not ys:
        raise DataError(f"{path}: no data rows")

    x = np.asarray(xs)
    y = np.asarray(ys)
    if model == "logistic":
        present = set(np.unique(y).tolist())
        if present <= {0.0, 1.0}:
            y = np.where(y == 0.0, -1.0, 1.0)
        elif not present <= {-1.0, 1.0}:
            raise DataError(f"{path}: logistic labels must be coded "
                            f"{{0,1}} or {{-1,1}}, got {sorted(present)}")
    elif model == "poisson":
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise DataError(f"{path}: poisson labels must be nonnegative integers")
    if standardize:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        x = (x - mean) / np.where(std > 0, std, 1.0)
    try:
        return RegressionData(x, y)
    except ValueError as exc:        # e.g. a parsed "nan" cell
        raise DataError(f"{path}: {exc}") from exc


def _records(reader, path: str):
    """The records of a CSV reader; a parse error becomes a DataError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
