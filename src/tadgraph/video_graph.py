"""Video graph construction: fixed temporal edges and dynamic semantic k-NN edges.

Nodes are snippet indices 0..L-1; an edge ``(i, j)`` means node j aggregates
the feature of node i. The forward path builds no L x L matrix: it runs the
temporal chain as a convolution and sums each layer's (k*L, 2) semantic edge
list with ``autodiff.gather_sum``, in the order ``gather_edges`` sorts it. The
dense adjacencies are test oracles: ``A[i, j] = 1`` for edge ``(i, j)``, so
``X @ A`` gathers neighbor features per column, ``(X @ A_fwd)[:, j] = x_{j+1}``
and ``A_fwd == A_bwd.T``.

The k-NN screens each node's candidates with a Gram-matrix form
``|a|^2 + |b|^2 - 2 a.b`` whose rounding slack is bounded, then ranks only the
candidates by the exact distance summed channel by channel. So its edges are
those of the dense channel-order form, exact ties included, at a fraction of
its cost. Columns that tie keep one another as candidates: on a zero-padded
tail window the padding columns are all equally near one another, and a real
column's nearest is often the origin, so each column keeps every padding
column. At L=256 and k=4 one call's candidates rise from 1,024 on a full
window to as many as 25,981. So the re-rank takes them in chunks of
``KNN_CHUNK`` distance terms: its per-channel working arrays stay one chunk
wide, however many candidates the screen keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError

# float64 distance terms per chunk of the k-NN's exact re-rank (0.5 MB): each
# chunk takes KNN_CHUNK // C candidates of C channels
KNN_CHUNK = 1 << 16


def temporal_adjacency(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward adjacency of the snippet chain, no self-loops."""
    if length < 1:
        raise ContractError("temporal_adjacency: graph needs at least one node")
    a_fwd = np.eye(length, k=-1)       # column j points at node j+1
    return a_fwd, a_fwd.T.copy()


def knn_semantic_edges(features: np.ndarray, k: int) -> np.ndarray:
    """Directed (neighbor, node) edges to each node's k nearest columns.

    Distances are Euclidean in feature space, the node itself is excluded,
    and ties resolve to the smaller node index. Returns an (k*L, 2) int
    array ordered node-major, nearest neighbor first. ``k == 0`` yields an
    empty edge list (semantic context disabled).

    A Gram-matrix screen picks each node's candidates: the columns within
    ``2 * slack`` of its k-th smallest screen value, where ``slack`` is four
    times the rounding error that the screen and the exact form can make
    together. Only the candidates are ranked by the exact distance, summed
    channel by channel, so the edges equal those of the dense form.

    Columns that tie stay one another's candidates, so m identical columns
    (the zero padding of a tail window) add about m^2 candidates. The
    re-rank gathers and sums ``KNN_CHUNK // C`` candidates at a time, so its
    three working arrays stay near ``3 * KNN_CHUNK`` float64 values (1.5 MB)
    however many candidates the screen keeps.
    """
    features = np.asarray(features, dtype=np.float64)
    channels, length = features.shape
    if k < 0 or k >= length:
        raise ConfigError(f"knn_semantic_edges: k={k} invalid for {length} nodes")
    if not np.all(np.isfinite(features)):
        raise DataError("knn_semantic_edges: features contain non-finite values")
    if k == 0:
        return np.zeros((0, 2), dtype=np.int64)

    # Screen: |a|^2 + |b|^2 - 2 a.b and the channel-order sum each lie within
    # (2C + 5) * 2^-53 * (|a|^2 + |b|^2) of the true distance, plus an underflow
    # term. So node i's exact k nearest are among the columns whose screen value
    # is at most its k-th smallest plus twice the two errors; ``slack`` is at
    # least four times their sum. The Gram form ties duplicate or zero columns
    # only within rounding, so it only screens.
    with np.errstate(over="ignore"):
        norms = np.einsum("ci,ci->i", features, features)
        # no partial sum of either form exceeds 4 * max |a|^2
        screen = bool(np.isfinite(4.0 * norms.max()))
    if screen:
        approx = features.T @ features
        approx *= -2.0
        approx += norms
        approx += norms[:, None]
        np.fill_diagonal(approx, np.inf)
        slack = 16 * (channels + 4) * 2.0**-53 * (norms + norms.max()) + channels * 2.0**-1000
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        candidates = approx <= (kth + 2 * slack)[:, None]
    else:
        # |a|^2 overflows: every other node is a candidate; overflowed distances
        # tie at inf
        candidates = ~np.eye(length, dtype=bool)
    node, cand = np.divmod(np.flatnonzero(candidates), length)   # by node, then index

    # Exact re-rank: each candidate's distance summed channel by channel in
    # channel order, so it depends on its two columns alone and duplicate or
    # zero columns tie exactly. A distance that overflows is inf.
    d2 = np.empty(len(cand))
    step = max(1, KNN_CHUNK // channels)
    with np.errstate(over="ignore"):
        for lo in range(0, len(cand), step):
            terms = features[:, cand[lo:lo + step]] - features[:, node[lo:lo + step]]
            terms *= terms
            part = d2[lo:lo + step]
            part[:] = terms[0]
            for term in terms[1:]:
                part += term

    # One inf-padded row of candidate distances per node, in index order, so a
    # stable sort puts the nearest first and ties on the smaller index.
    counts = np.bincount(node, minlength=length)
    first = np.cumsum(counts) - counts
    table = np.full((length, counts.max()), np.inf)
    table[node, np.arange(len(node)) - first[node]] = d2
    nearest = np.argsort(table, axis=1, kind="stable")[:, :k]
    neighbors = cand[first[:, None] + nearest].reshape(-1)
    return np.stack([neighbors, np.repeat(np.arange(length), k)], axis=1)


def semantic_adjacency(edges: np.ndarray, length: int) -> np.ndarray:
    """Binary adjacency from an edge list; column j sums to j's in-degree."""
    adj = np.zeros((length, length))
    for src, dst in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
        if not (0 <= src < length and 0 <= dst < length):
            raise DataError(f"semantic_adjacency: edge ({src}, {dst}) outside [0, {length})")
        adj[src, dst] = 1.0
    return adj


def gather_edges(edges: np.ndarray, length: int,
                 mean: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges ``(i, j)`` as ``(src, dst, weight)`` arrays sorted by (j, i).

    The weight is 1, or with ``mean`` 1 / (j's in-degree). ``gather_sum(x, src, dst,
    weight, length)`` then holds, in column j, the sum (mean) of node j's neighbour
    columns, added in increasing neighbour order; its adjoint adds into column i in
    increasing node order. Those are the orders of a CSR matrix with ``W[j, i]``
    counting the edges ``(i, j)``, and the mean multiplies each term before adding,
    as that matrix's product does.
    """
    src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    degree = np.bincount(dst, minlength=length)
    if mean and np.any(degree == 0):
        raise ContractError(f"gather_edges: node {int(np.argmin(degree))} has no neighbors")
    weights = 1.0 / degree[dst] if mean else np.ones(len(src))
    return src, dst, weights


@dataclass
class VideoGraph:
    """Snippet count (the temporal chain) plus each block's semantic edge list."""

    length: int
    k: int
    semantic_layers: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def build(cls, length: int, k: int) -> "VideoGraph":
        return cls(length=length, k=k)

    def add_semantic_layer(self, features: np.ndarray) -> np.ndarray:
        edges = knn_semantic_edges(features, self.k)
        self.semantic_layers.append(edges)
        return edges

    def to_json_dict(self) -> dict:
        return {
            "L": self.length,
            "K": self.k,
            "layers": [layer.tolist() for layer in self.semantic_layers],
        }

    def to_dot(self) -> str:
        """DOT rendering of the semantic layers for quick inspection."""
        lines = ["digraph video_graph {", "  rankdir=LR;"]
        for node in range(self.length):
            lines.append(f"  n{node} [label=\"{node}\"];")
        for node in range(self.length - 1):
            lines.append(f"  n{node} -> n{node + 1} [color=gray];")
        palette = ["red", "blue", "green", "orange", "purple", "brown"]
        for li, layer in enumerate(self.semantic_layers):
            color = palette[li % len(palette)]
            for src, dst in layer:
                lines.append(f"  n{int(src)} -> n{int(dst)} [color={color}, style=dashed];")
        lines.append("}")
        return "\n".join(lines)
