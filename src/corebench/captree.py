"""Spherical cap-tree for branch-and-bound greedy selection.

Each node covers a cap {z : ||z|| = 1, <z, xi> >= r} containing all member
unit vectors. The search maximizes

    <ell_n, u> / sqrt(1 - <ell_n, v>^2)

over members, where u is the normalized residual direction and v the current
unit iterate (u and v orthonormal; v may be the zero vector at the first
step, in which case the objective degenerates to <ell_n, u>). Per-node upper
bounds prune subtrees; the representative vector (member closest to xi)
supplies cheap lower bounds. The objective is GIGA's selection objective
(``giga.cap_objective``); GIGA itself selects with a linear scan, and this
search is a standalone exact alternative to that scan.

Construction is a median-balanced two-pole split: the two (approximately)
farthest-apart members act as poles and members are assigned to the nearer
pole, balanced at the median so the depth stays within ceil(log2 N) + 8.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .giga import cap_objective
from .hilbert import zero_tol

LEAF_SIZE = 32


@dataclass(eq=False)
class CapNode:
    """A spherical cap (xi, r) with either two children or a leaf payload."""

    xi: np.ndarray
    r: float
    representative: int
    rep_vector: np.ndarray
    children: tuple["CapNode", "CapNode"] | None = None
    indices: np.ndarray | None = None           # leaf member indices
    vectors: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def build(unit_vectors: np.ndarray) -> CapNode:
    """Build a cap-tree over rows of ``unit_vectors`` (all unit norm)."""
    U = np.asarray(unit_vectors, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] == 0:
        raise ValueError("cap-tree needs at least one vector")
    return _build_node(U, np.arange(U.shape[0]))


def _build_node(U: np.ndarray, ids: np.ndarray) -> CapNode:
    sub = U[ids]
    mean = sub.mean(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm > zero_tol(U.shape[1]):
        xi = mean / mean_norm
        dots = sub @ xi
        r = float(dots.min())
    else:
        # degenerate mean (e.g. antipodal pair): whole-sphere cap
        xi = sub[0].copy()
        dots = sub @ xi
        r = -1.0
    rep_local = int(np.argmax(dots))
    node = CapNode(
        xi=xi,
        r=r,
        representative=int(ids[rep_local]),
        rep_vector=U[ids[rep_local]],
    )
    if ids.size <= LEAF_SIZE:
        node.indices = ids
        node.vectors = sub
        return node
    # approximately farthest pair: pole a farthest from an arbitrary member,
    # pole b farthest from a
    a = sub[int(np.argmin(sub @ sub[0]))]
    b = sub[int(np.argmin(sub @ a))]
    t = sub @ (a - b)
    order = np.argsort(-t, kind="stable")   # nearer pole a first
    half = ids.size // 2
    node.children = (
        _build_node(U, ids[order[:half]]),
        _build_node(U, ids[order[half:]]),
    )
    return node


def node_upper_bound(node: CapNode, u: np.ndarray, v: np.ndarray) -> float:
    """Upper bound on the objective over all unit vectors in the node's cap."""
    bu = float(node.xi @ u)
    bv = float(node.xi @ v)
    r = node.r
    if abs(bv) > r:
        return 1.0
    rb = np.sqrt(max(r * r - bv * bv, 0.0))
    if bu >= rb:
        return 1.0
    bperp = np.sqrt(max(1.0 - bu * bu - bv * bv, 0.0))
    den = bperp * bperp + bu * bu
    if den <= 0.0:
        return 1.0
    val = (bu * rb + bperp * np.sqrt(max(1.0 - r * r, 0.0))) / den
    return float(np.clip(val, -1.0, 1.0))


def node_lower_bound(node: CapNode, u: np.ndarray, v: np.ndarray) -> float:
    """Objective at the node's representative member (a valid lower bound)."""
    return float(cap_objective(node.rep_vector, u, v)[0])


def search(root: CapNode, u: np.ndarray, v: np.ndarray) -> tuple[int, float]:
    """Best-first branch-and-bound argmax of the objective.

    Returns (index, objective); the objective equals the exhaustive-scan
    maximum (the index may differ between tied maximizers).
    """
    best_idx = root.representative
    best_val = node_lower_bound(root, u, v)
    counter = 0
    frontier = [(-node_upper_bound(root, u, v), counter, root)]
    while frontier:
        neg_ub, _, node = heapq.heappop(frontier)
        if -neg_ub <= best_val:
            break   # heap is ordered: nothing left can beat the incumbent
        if node.is_leaf:
            vals = cap_objective(node.vectors, u, v)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_idx = int(node.indices[j])
        else:
            for child in node.children:
                lb = node_lower_bound(child, u, v)
                if lb > best_val:
                    best_val = lb
                    best_idx = child.representative
                ub = node_upper_bound(child, u, v)
                if ub > best_val:
                    counter += 1
                    heapq.heappush(frontier, (-ub, counter, child))
    return best_idx, best_val


def depth(node: CapNode) -> int:
    if node.is_leaf:
        return 1
    return 1 + max(depth(c) for c in node.children)
