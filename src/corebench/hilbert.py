"""Inner-product-space primitives for coreset construction.

Vectors are plain 1-D float64 numpy arrays. A problem instance stores the
rows once, as unit rows ell_n = L_n / sigma_n and norms sigma_n = ||L_n||,
with the target sum L = sum_n L_n and its direction ell = L / ||L||. All
geometry is Euclidean on the stored coordinates; model-specific inner
products are absorbed into the embedding that produced the vectors.
Products of a vector with a vector or a matrix are ``ndarray.dot``: the
BLAS call of ``@``, so the same bits, with less set-up per call (GIGA and
FW take theirs the same way).

Zero-norm convention: u / ||u|| := 0 whenever ||u|| <= zero_tol(dim), with a
scale-aware tolerance guarding against catastrophic cancellation. For the
input rows and their sum, the tolerance is relative to the largest row norm,
so a problem does not depend on the units of its data.

Float floor: summing N terms of norm sigma_n in float64 carries a rounding
error of order eps * sigma, so no weights resolve L to a relative error
below ``floor = eps * sigma / ||L||``. GIGA stops at the floor, and FW
within ``baselines.FLOOR_MULTIPLE`` floors of it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

ZERO_TOL_COEFF = 1e-12
RENORM_INTERVAL = 64       # Projections moves between resyncs
WEIGHTED_SUM_BLOCK = 2 ** 16   # floats gathered at once by weighted_sum: 512 KB
EPS = sys.float_info.epsilon   # float64's machine epsilon, the unit of the floor


def zero_tol(dim: int) -> float:
    """Scale-aware threshold below which a vector is treated as zero."""
    return ZERO_TOL_COEFF * math.sqrt(dim)


def _as_float64(values, what: str, copy: bool = False) -> np.ndarray:
    """``values`` as a C-ordered float64 array, a fresh one with ``copy``.
    Raises ValueError ("<what>: ...") on complex entries, whose imaginary
    part the cast would drop, and on str or bytes entries, which it would
    parse as numbers."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        raise ValueError(f"{what}: complex entries")
    if values.dtype.kind in "SU":
        raise ValueError(f"{what}: non-numeric entries")
    return values.astype(np.float64, order="C", copy=copy)


@dataclass(eq=False)
class WeightVector:
    """Sparse nonnegative weights over the N rows of a problem: (index,
    weight) pairs (``CoresetProblem.to_original`` maps them to input rows).

    Stored weights are strictly positive and indices are unique, so the
    support size ||w||_0 equals len(indices). The constructor checks this;
    ``empty`` and ``from_dense`` hold it by construction and skip the checks.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"indices must be integers, not {indices.dtype}")
        self.indices = indices.astype(np.int64, copy=False)
        self.values = _as_float64(self.values, "invalid weight")
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be equal-length 1-D arrays")
        if np.unique(self.indices).size != self.indices.size:
            raise ValueError("duplicate indices in weight vector")
        if np.any(self.indices < 0):
            raise ValueError("negative index in weight vector")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("stored weights must be positive and finite")

    @classmethod
    def _unchecked(cls, indices: np.ndarray, values: np.ndarray) -> "WeightVector":
        """Weights from unique nonnegative int64 indices and positive finite
        float64 values, without the constructor's checks."""
        w = object.__new__(cls)
        w.indices, w.values = indices, values
        return w

    @classmethod
    def empty(cls) -> "WeightVector":
        return cls._unchecked(np.empty(0, dtype=np.int64), np.empty(0))

    @classmethod
    def from_dense(cls, w) -> "WeightVector":
        """The positive entries of a dense weight array, in index order.
        Every entry must be finite: NaN would otherwise drop out unseen.
        Complex and string entries raise, as in the constructor."""
        return cls._positive(_as_float64(w, "invalid weight").ravel())

    @classmethod
    def _positive(cls, w: np.ndarray) -> "WeightVector":
        """``from_dense`` of a 1-D float64 array, without its cast."""
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        idx = (w > 0).nonzero()[0]
        return cls._unchecked(idx, w[idx])

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(eq=False)
class CoresetProblem:
    """Immutable problem instance: unit rows, norms, target sum, its direction.

    Zero-norm input vectors are dropped at construction, so row n of the
    problem is input row ``kept_indices[n]``. Weights always index the
    problem's rows; ``to_original`` maps them to input rows. ``trivial``
    marks problems whose target sum has zero norm (w = 0 is optimal there).
    ``floor`` is the float64 error scale of the relative error (see the
    module docstring).
    """

    norms: np.ndarray         # (N,) sigma_n > 0
    sigma_total: float        # sigma = sum_n sigma_n
    target: np.ndarray        # (d,) L
    target_norm: float        # ||L||
    unit_vectors: np.ndarray  # (N, d) ell_n, so L_n = sigma_n ell_n
    unit_target: np.ndarray   # (d,) ell (zero vector when trivial)
    unit_scores: np.ndarray   # (N,) <ell_n, ell>
    kept_indices: np.ndarray  # (N,) increasing input row of each kept row
    trivial: bool
    floor: float              # eps * sigma / ||L||, 0 when trivial

    def __post_init__(self):
        for arr in (self.norms, self.target, self.unit_vectors,
                    self.unit_target, self.unit_scores, self.kept_indices):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.norms)

    @property
    def dimension(self) -> int:
        return len(self.target)

    def to_original(self, w: WeightVector) -> WeightVector:
        """The same weights, indexed by input row instead of problem row."""
        # kept_indices is increasing, so the mapped indices stay unique
        return WeightVector._unchecked(self.kept_indices[w.indices], w.values.copy())


class Projections:
    """Projections ``U @ x`` of a greedy scan's iterate x, carried from step
    to step of one construction run (``U`` is ``problem.unit_vectors``).

    ``move`` records x <- ``a * x + b * ell_n``, and the next ``of`` applies
    it (so a run's last move is never computed): the values become
    ``values * a + col * b``, or ``col * b`` when a = 0, as at a run's first
    move from x = 0, with the Gram column ``col = U @ ell_n``: O(N) instead
    of an N x d product. A missing column is computed while fewer than
    ``problem.dimension`` are cached, so the cache holds no more floats
    than ``U``. The values start dropped, and a move without its column,
    every RENORM_INTERVAL-th move and moves pending together drop them;
    ``of`` then recomputes them, so rounding carried by the moves never
    outlives RENORM_INTERVAL steps.

    The array ``of`` returns may be overwritten by the next ``of``. The
    carrier also holds two N-float work buffers, ``buffers``, for its
    caller's scan; ``of`` overwrites the first when it applies a move.
    """

    def __init__(self, problem: CoresetProblem):
        self._unit = problem.unit_vectors
        self._capacity = problem.dimension
        self._columns: dict[int, np.ndarray] = {}
        self._values = None
        self._moves = 0
        self._pending: list[tuple[int, float, float]] = []
        self.buffers = (np.empty(problem.n), np.empty(problem.n))

    def __len__(self) -> int:
        return len(self._columns)

    def of(self, x: np.ndarray) -> np.ndarray:
        """``U @ x`` after the pending moves: the carried values, or one
        product if they were dropped."""
        for n, a, b in self._pending:
            col = self._columns.get(n)
            if col is None and len(self._columns) < self._capacity:
                col = self._columns[n] = self._unit @ self._unit[n]
            self._moves += 1
            if col is None or self._moves % RENORM_INTERVAL == 0 or len(self._pending) > 1:
                self._values = None
            elif a == 0:
                self._values = col * b
            elif self._values is not None:
                work = self.buffers[0]
                self._values *= a
                np.multiply(col, b, out=work)
                self._values += work
        self._pending.clear()
        if self._values is None:
            self._values = self._unit @ x
        return self._values

    def move(self, n: int, a: float, b: float) -> None:
        """Record ``x <- a * x + b * ell_n`` for the next ``of``."""
        self._pending.append((n, a, b))


class Stop(Exception):
    """Raised by a construction step to end the run before its budget; its
    message is recorded as the run's stop reason."""


@dataclass(frozen=True)
class Step:
    """What one construction step did: the row ``n_t`` it picked, its step
    size ``gamma`` and the pick's ``score``, which is GIGA's geodesic score
    or FW's Frank-Wolfe gap <v_{n_t} - L(w), L - L(w)>. ``residual`` is
    GIGA's residual norm sqrt(J) after the step, and None for FW."""

    n_t: int
    gamma: float
    score: float
    residual: float | None = None


@dataclass(eq=False)
class Run:
    """What a construction run records: one ``Step`` per completed step,
    the cumulative CPU seconds of the calling thread after each (BLAS
    helper threads and checkpoint snapshots are not counted), why it
    stopped early (None when the whole budget ran) and the weights at each
    checkpoint."""

    traces: list[Step] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    stop_reason: str | None = None
    snapshots: dict[int, WeightVector] = field(default_factory=dict)

    @property
    def selected(self) -> list[int]:
        """The row picked at each completed step."""
        return [s.n_t for s in self.traces]


def iterate(step, snapshot, M: int, checkpoints=None) -> tuple[object, Run]:
    """Run one greedy construction for up to M steps.

    ``step(t)`` performs step t = 1..M and returns its ``Step``, or raises
    ``Stop`` to end the run early; ``snapshot()`` returns the output weights
    of the current iterate. M and each checkpoint are integral values of at
    least 1. Returns ``(final, run)``, where ``run.snapshots`` maps each
    checkpoint to the weights after that many steps (checkpoints past an
    early stop get the final weights). The clock of ``run.times`` stops
    while a checkpoint's snapshot is taken.
    """
    if M < 1 or M % 1:
        raise ValueError("iteration budget M must be >= 1 and integral")
    cps = set(checkpoints or ())
    if any(m < 1 or m % 1 for m in cps):
        raise ValueError("checkpoints must be >= 1 and integral")
    run = Run()
    t_start = time.thread_time()
    for t in range(1, int(M) + 1):
        try:
            record = step(t)
        except Stop as stop:
            run.stop_reason = str(stop)
            break
        now = time.thread_time()
        run.times.append(now - t_start)
        run.traces.append(record)
        if t in cps:
            run.snapshots[t] = snapshot()
            if t < M:       # only a further step reads the clock
                t_start += time.thread_time() - now
    done = len(run.times)
    final = run.snapshots[done] if done in run.snapshots else snapshot()
    for m in cps:
        run.snapshots.setdefault(m, final)
    return final, run


def build_problem(vectors) -> CoresetProblem:
    """Assemble a CoresetProblem from a sequence of equal-length vectors.

    Raises ValueError on input that is not 1-D or 2-D or has no entries,
    on complex, string or non-finite entries, or on norms that overflow
    float64. Zero-norm rows, those with a norm of at most ``zero_tol(dim)``
    times the largest row norm, are silently dropped (they cannot affect
    the objective); the returned problem's ``kept_indices`` records the
    input row of each kept row.

    The input is copied once, to C-ordered float64, and never aliased: the
    caller's array stays writeable and shares no memory with the problem.
    That copy, or its kept rows, divided in place by the row norms (taken
    in blocks of rows), is the problem's one N x d array ``unit_vectors``.
    """
    return _build_in_place(_as_float64(vectors, "invalid vector", copy=True))


def _build_in_place(V: np.ndarray) -> CoresetProblem:
    """``build_problem`` without its copy: V, a C-ordered float64 array
    that no one else holds, becomes the problem's ``unit_vectors`` in place
    (or its kept rows do, when a row is dropped: a boolean index copies).
    The package's own builders hand it the array they have just made.
    """
    if V.ndim == 1:
        V = V[None, :]
    if V.ndim != 2:
        raise ValueError(f"vectors must form a 1-D or 2-D array, not shape {V.shape}")
    if V.size == 0:
        raise ValueError("empty problem: need at least one vector with at least one entry")
    all_norms = np.empty(len(V))
    with np.errstate(over="ignore"):        # an overflow raises below
        for i in range(0, len(V), 256):     # no N x d temporary; np.linalg.norm's arithmetic
            block = V[i:i + 256]
            np.sqrt(np.add.reduce(block * block, axis=1), out=all_norms[i:i + 256])
        # relative to the largest row, not the floor: that is computed from the rows kept here
        tol = zero_tol(V.shape[1]) * all_norms.max()
        if not math.isfinite(tol):          # a NaN or inf entry makes its row's norm non-finite
            if not np.isfinite(V[~np.isfinite(all_norms)]).all():
                raise ValueError("invalid vector: non-finite entry")
            raise ValueError("vector norms overflow float64")
        keep = all_norms > tol
        kept_indices = keep.nonzero()[0]
        # a boolean index copies
        U, norms_kept = ((V, all_norms) if len(kept_indices) == len(V)
                         else (V[keep], all_norms[keep]))

        target = U.sum(axis=0)
        target_norm = math.sqrt(target.dot(target))      # np.linalg.norm's arithmetic
        sigma_total = float(norms_kept.sum())
    if not (math.isfinite(target_norm) and math.isfinite(sigma_total)):
        raise ValueError("vector norms overflow float64")
    trivial = target_norm <= tol

    U /= norms_kept[:, None]
    unit_target = target / target_norm if not trivial else np.zeros_like(target)

    return CoresetProblem(
        norms=norms_kept,
        sigma_total=sigma_total,
        target=target,
        target_norm=target_norm,
        unit_vectors=U,
        unit_target=unit_target,
        unit_scores=U.dot(unit_target),
        kept_indices=kept_indices,
        trivial=trivial,
        floor=0.0 if trivial else EPS * sigma_total / target_norm,
    )


def weighted_sum(problem: CoresetProblem, w: WeightVector) -> np.ndarray:
    """sum_n w_n L_n = sum_n (w_n sigma_n) ell_n, in O(||w||_0 * dim).

    The support is summed block by block of ``WEIGHTED_SUM_BLOCK // dim``
    rows into one d-vector, so no temporary holds more than
    ``WEIGHTED_SUM_BLOCK`` floats (or one row, when a row is longer). A
    support of one block gives the bits of the one product over its rows
    (but a -0.0 entry reads 0.0); a longer one rounds per block. An index
    past the problem's rows raises IndexError.
    """
    rows = max(WEIGHTED_SUM_BLOCK // problem.dimension, 1)
    total = np.zeros(problem.dimension)
    for start in range(0, w.nnz, rows):
        idx, values = w.indices[start:start + rows], w.values[start:start + rows]
        # take: the gather of fancy indexing, with less set-up per call
        total += (values * problem.norms.take(idx)).dot(problem.unit_vectors.take(idx, axis=0))
    return total


def relative_error(problem: CoresetProblem, w: WeightVector) -> float:
    """||L(w) - L|| / ||L|| for weights w over the problem's rows."""
    resid = weighted_sum(problem, w)
    resid -= problem.target
    err = math.sqrt(resid.dot(resid))       # np.linalg.norm's arithmetic
    if problem.trivial:
        tol = zero_tol(problem.dimension) * problem.norms.max(initial=0.0)
        return 0.0 if err <= tol else float("inf")
    return err / problem.target_norm
