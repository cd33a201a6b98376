"""Context-aggregation blocks over the video graph.

Each block runs two parallel streams on the snippet features: a temporal
stream wired to the fixed forward/backward chain and a semantic stream
wired to that layer's freshly recomputed k-NN edges. Both streams share a
split-transform-merge layout: a pointwise map down to a bottleneck width,
a grouped aggregation with ``cardinality`` paths, and a pointwise map back
up. The block output is ``relu(temporal + semantic + input)``.

The temporal stream's grouped aggregation is a zero-padded kernel-3 grouped
1-D convolution and the semantic stream sums neighbors straight from the
layer's edge list; the dense adjacency-matrix forms (``edge_aggregate``,
``temporal_stream_equivalence``) are reference oracles for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, new_param
from .errors import ConfigError, ContractError, NumericError
from .video_graph import VideoGraph, gather_edges, temporal_adjacency
from .video_graph import semantic_adjacency  # noqa: F401  (bench/spans.py patches this name)


def edge_aggregate(x: Tensor, adjacency: np.ndarray, w0: Tensor, w1: Tensor,
                   activate: bool = True) -> Tensor:
    """Single-layer edge convolution ``w0 @ x + w1 @ (x @ A)``."""
    if w0.shape[1] != x.shape[0] or w1.shape[1] != x.shape[0]:
        raise ContractError(f"edge_aggregate: weights {w0.shape}/{w1.shape} do not fit features {x.shape}")
    out = ad.matmul(w0, x) + ad.matmul(w1, ad.matmul(x, Tensor(adjacency)))
    return ad.relu(out) if activate else out


@dataclass
class BlockParams:
    """Weights of one block: factorized temporal and semantic streams."""

    t_in: Tensor      # (Cb, C) pointwise reduce
    t_conv: Tensor    # (3, Cb/g, Cb) grouped temporal taps
    t_out: Tensor     # (C, Cb) pointwise expand
    s_in: Tensor
    s_self: Tensor    # (1, Cb/g, Cb) grouped map of the node feature
    s_neigh: Tensor   # (1, Cb/g, Cb) grouped map of the aggregated neighbors
    s_out: Tensor
    cardinality: int

    @classmethod
    def create(cls, width: int, cardinality: int, bottleneck_ratio: int,
               rng: np.random.Generator | None) -> "BlockParams":
        cb = width // bottleneck_ratio
        cg = cb // cardinality
        return cls(
            t_in=new_param(rng, (cb, width), width),
            t_conv=new_param(rng, (3, cg, cb), 3 * cg),
            t_out=new_param(rng, (width, cb), cb),
            s_in=new_param(rng, (cb, width), width),
            s_self=new_param(rng, (1, cg, cb), cg),
            s_neigh=new_param(rng, (1, cg, cb), cg),
            s_out=new_param(rng, (width, cb), cb),
            cardinality=cardinality,
        )


def gcnext_forward(x: Tensor, graph: VideoGraph, params: BlockParams) -> Tensor:
    """One block: recompute semantic edges from ``x``, aggregate, add residual."""
    if params.t_in.shape[1] != x.shape[0]:
        raise ConfigError(f"block built for width {params.t_in.shape[1]}, features have {x.shape[0]}")
    edges = graph.add_semantic_layer(x.data)

    z = ad.matmul(params.t_in, x)
    z = ad.grouped_conv1d(z, params.t_conv, groups=params.cardinality)
    out = ad.matmul(params.t_out, z)

    if graph.k > 0:
        zs = ad.matmul(params.s_in, x)
        neighbor_sum = ad.gather_sum(zs, *gather_edges(edges, graph.length), graph.length)
        agg = (ad.grouped_conv1d(zs, params.s_self, groups=params.cardinality)
               + ad.grouped_conv1d(neighbor_sum, params.s_neigh, groups=params.cardinality))
        out = out + ad.matmul(params.s_out, agg)

    return ad.relu(out + x)


def temporal_stream_equivalence(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                                w3: np.ndarray) -> float:
    """Max abs deviation between the adjacency form and the padded conv form.

    Form (a): ``w2 @ X + w3 @ X @ A_fwd + w1 @ X @ A_bwd``. Form (b): the
    zero-padded kernel-3 convolution whose taps apply ``w1`` to the previous
    snippet, ``w2`` to the current one and ``w3`` to the next one.
    """
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[1]
    a_fwd, a_bwd = temporal_adjacency(length)
    matrix_form = w2 @ x + w3 @ (x @ a_fwd) + w1 @ (x @ a_bwd)

    taps = np.stack([w1.T, w2.T, w3.T])
    with ad.no_grad():
        conv_form = ad.grouped_conv1d(Tensor(x), Tensor(taps), groups=1).data
    return float(np.max(np.abs(matrix_form - conv_form)))


@dataclass
class BackboneParams:
    """Input projection plus a stack of blocks."""

    proj: Tensor
    blocks: list[BlockParams] = field(default_factory=list)

    @classmethod
    def create(cls, c_raw: int, width: int, num_blocks: int, cardinality: int,
               bottleneck_ratio: int, rng: np.random.Generator | None) -> "BackboneParams":
        proj = new_param(rng, (width, c_raw), c_raw)
        blocks = [BlockParams.create(width, cardinality, bottleneck_ratio, rng)
                  for _ in range(num_blocks)]
        return cls(proj=proj, blocks=blocks)


def backbone_forward(x_raw: Tensor, params: BackboneParams,
                     k_neighbors: int) -> tuple[Tensor, Tensor, VideoGraph]:
    """Project raw features and apply the block stack.

    Returns the output of the first block (node-classifier tap), the final
    features, and the graph whose ``semantic_layers`` holds each block's
    freshly computed edge list (last entry feeds sub-graph alignment). The
    projection or the first block whose output is not finite raises
    ``NumericError`` naming it; numpy's overflow and invalid-value warnings are
    silenced here, so that check reports them.
    """
    length = x_raw.shape[1]
    graph = VideoGraph.build(length, k_neighbors)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _finite(ad.matmul(params.proj, x_raw), "proj")
        block1 = x = _finite(gcnext_forward(x, graph, params.blocks[0]), "block0")
        for i, block in enumerate(params.blocks[1:], 1):
            x = _finite(gcnext_forward(x, graph, block), f"block{i}")
    return block1, x, graph


def _finite(x: Tensor, layer: str) -> Tensor:
    """``x``, the output of the backbone layer whose parameters are named ``layer``
    in a checkpoint; a non-finite value raises ``NumericError``."""
    if not np.isfinite(x.data).all():
        raise NumericError(f"backbone layer '{layer}' gave a non-finite output")
    return x
