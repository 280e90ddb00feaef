"""Merging of detections that several cameras report for one object.

Merging is single linkage over the frame's merge graph: detections are
nodes, and an edge joins two detections of one category from different
cameras, weighted by their center distance. The groups at a threshold
are the connected components of the edges shorter than it, which are
also the components of the minimum spanning forest cut there (Gower &
Ross, 1969). So one sorted edge list answers every threshold: Kruskal's
algorithm adds the edges in ascending order and reads the components
at each cut.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from ..errors import UsageError, checked_real
from .types import CATEGORIES, Detection, FusedDetection


class _Components:
    """Union-find that keeps each component's members.

    A component's root is its smallest member, and ``members`` maps
    each root to the component's members ascending. Roots only ever
    leave ``members``, so it stays in ascending order of root.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.members = {i: (i,) for i in range(n)}

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int):
        ra, rb = sorted((self.find(a), self.find(b)))
        if ra != rb:
            self.parent[rb] = ra
            self.members[ra] = tuple(sorted(self.members[ra] + self.members.pop(rb)))


def frame_detections(detections: Sequence[Detection]) -> list[Detection]:
    """The detections as a list, checked to come from one frame."""
    dets = list(detections)
    if len({d.frame_ts for d in dets}) > 1:
        raise UsageError("deduplicate works on one frame at a time")
    return dets


def merge_edges(dets: Sequence[Detection], limit: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merge graph's edges shorter than ``limit``, as arrays ``(d, i, j)``.

    Each edge joins detections ``i < j`` of one category from different
    cameras, and ``d`` is ``np.hypot`` of their center difference, the
    same expression a pairwise loop evaluates. A KD-tree under the
    Chebyshev norm proposes the pairs: that norm never exceeds the
    Euclidean one, so it misses no edge, and it squares nothing, so it
    neither overflows nor underflows. Cost: O(n log n + k) time and
    O(n + k) memory for k proposed pairs.
    """
    centers = np.array([d.center for d in dets], dtype=float).reshape(-1, 2)
    codes: dict[str, int] = {}
    cameras = np.array([codes.setdefault(d.camera_id, len(codes)) for d in dets], dtype=np.int64)
    found = []
    for category in CATEGORIES:
        nodes = np.array([k for k, d in enumerate(dets) if d.category == category], dtype=np.int64)
        if len(nodes) < 2:
            continue
        pairs = cKDTree(centers[nodes]).query_pairs(limit, p=np.inf, output_type="ndarray")
        i, j = nodes[pairs[:, 0]], nodes[pairs[:, 1]]
        cross = cameras[i] != cameras[j]
        i, j = i[cross], j[cross]
        with np.errstate(over="ignore"):
            d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
        short = d < limit
        found.append((d[short], i[short], j[short]))
    if not found:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0), empty, empty
    d, i, j = (np.concatenate(parts) for parts in zip(*found))
    return d, i, j


def merge_cuts(dets: Sequence[Detection], thresholds: Sequence[float]) -> Iterator[tuple[float, list[tuple[int, ...]]]]:
    """Single-linkage groups at each distinct threshold, ascending.

    Yields ``(threshold, groups)``: each group is its member indices
    ascending, and groups come in order of their smallest member. The
    edges below the largest threshold are found and sorted once, and
    each is added to a union-find once, so the whole sweep costs
    O(n log n + k log k + t n) for k candidate edges and t thresholds.
    """
    cuts = sorted(set(thresholds))
    d, i, j = merge_edges(dets, cuts[-1])
    order = np.argsort(d, kind="stable")
    d, i, j = d[order], i[order].tolist(), j[order].tolist()
    components = _Components(len(dets))
    added = 0
    for cut in cuts:
        below = int(np.searchsorted(d, cut, side="left"))
        for a, b in zip(i[added:below], j[added:below]):
            components.union(a, b)
        added = below
        yield cut, list(components.members.values())


def merge_group(dets: Sequence[Detection], members: tuple[int, ...], threshold: float) -> FusedDetection:
    """One group's fused detection.

    The center is the confidence-weighted mean of the members' centers
    (equal weights when every confidence is zero), the confidence is
    the members' maximum.
    """
    group = [dets[i] for i in members]
    if len(group) == 1:
        # the weights are exactly [1.0], and ``weights @ centers`` adds
        # 1.0 * center to 0.0, which turns -0.0 into 0.0
        x, y = group[0].center
        center = (x + 0.0, y + 0.0)
    else:
        weights = np.array([d.confidence for d in group])
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(group))
            total = weights.sum()
        merged = (weights / total) @ np.array([d.center for d in group])
        center = tuple(merged.tolist())
    return FusedDetection(
        category=group[0].category,
        center=center,
        confidence=max(d.confidence for d in group),
        cameras=tuple(sorted({d.camera_id for d in group})),
        threshold=threshold,
        merged_count=len(group),
    )


def sorted_fused(fused: list[FusedDetection]) -> tuple[FusedDetection, ...]:
    """Fused detections in output order: by center, then category; ties stay put."""
    return tuple(sorted(fused, key=lambda f: (f.center[0], f.center[1], f.category)))


def deduplicate(detections: Sequence[Detection], threshold: float) -> tuple[FusedDetection, ...]:
    """Group detections closer than ``threshold`` and merge each group.

    Two detections join the same group only when they share a category
    and come from different cameras; a single camera never produces
    duplicates of one object, so near-misses within a camera stay
    separate. Grouping is transitive. Each merged center is the
    confidence-weighted mean of the group and the merged confidence is
    the group maximum.

    Cost: O(n log n + k) for n detections and k pairs within
    ``threshold`` of each other per coordinate, plus the merges.
    """
    threshold = checked_real(threshold, "threshold", UsageError)
    if threshold < 0:
        raise UsageError("threshold must be non-negative")
    dets = frame_detections(detections)
    [(_, groups)] = merge_cuts(dets, (threshold,))
    return sorted_fused([merge_group(dets, members, threshold) for members in groups])
