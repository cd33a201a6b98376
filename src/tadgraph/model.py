"""Full detector: backbone, sub-graph alignment, and both scoring heads."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .align import SubgraphAligner, enumerate_anchors
from .autodiff import Tensor
from .backbone import BackboneParams, backbone_forward
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, FormatError, NumericError, check_lows, is_integer
from .heads import LocalizationParams, NodeParams, localization_forward


@dataclass
class ModelConfig:
    """Architecture settings; defaults target the desk-scale synthetic setup."""

    c_raw: int = 32
    width: int = 32
    blocks: int = 3
    cardinality: int = 8
    bottleneck_ratio: int = 2
    k_neighbors: int = 4
    tau1: int = 32
    tau2: int = 4
    window_length: int = 100
    max_duration: int = 64
    head_hidden: tuple[int, int] = (512, 128)

    def __post_init__(self):
        """Refuse, naming the field, a config that cannot build a model with an
        anchor; ``head_hidden`` is stored as a tuple."""
        lows = dict(c_raw=1, width=1, blocks=1, cardinality=1, bottleneck_ratio=1, tau1=1,
                    tau2=0, k_neighbors=0, window_length=3, max_duration=2)
        check_lows(self, "model", lows)
        hidden = self.head_hidden
        if not (isinstance(hidden, (list, tuple)) and len(hidden) == 2
                and all(is_integer(size) and size >= 1 for size in hidden)):
            raise ConfigError(f"model field 'head_hidden' is {hidden!r}, "
                              "must be two integers of at least 1")
        self.head_hidden = tuple(hidden)
        if self.k_neighbors >= self.window_length:
            raise ConfigError(f"model field 'k_neighbors' is {self.k_neighbors}, "
                              f"must be below window_length {self.window_length}")
        if self.width % self.bottleneck_ratio:
            raise ConfigError(f"model field 'bottleneck_ratio' is {self.bottleneck_ratio}, "
                              f"must divide width {self.width}")
        if (self.width // self.bottleneck_ratio) % self.cardinality:
            raise ConfigError(f"model field 'cardinality' is {self.cardinality}, must divide "
                              f"the bottleneck width {self.width // self.bottleneck_ratio}")


def _named_tensors(container, prefix: str) -> dict[str, Tensor]:
    """A parameter dataclass's Tensor fields in declaration order, named ``prefix +
    field``; item i of a list field ``blocks`` is a container prefixed ``block{i}.``."""
    out = {}
    for f in fields(container):
        value = getattr(container, f.name)
        if isinstance(value, Tensor):
            out[prefix + f.name] = value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                out.update(_named_tensors(item, f"{prefix}{f.name.removesuffix('s')}{i}."))
    return out


class Detector:
    """Parameter container plus the forward passes used in training and inference."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        """Draw every parameter from ``rng``; with ``rng`` None they are allocated
        unfilled, which only ``from_checkpoint`` does before it fills them."""
        self.config = config
        self.backbone = BackboneParams.create(
            config.c_raw, config.width, config.blocks, config.cardinality,
            config.bottleneck_ratio, rng)
        self.anchors = enumerate_anchors(config.window_length, config.max_duration)
        self.aligner = SubgraphAligner(self.anchors, config.window_length,
                                       config.tau1, config.tau2)
        self.loc_head = LocalizationParams.create((config.tau1 + config.tau2) * config.width,
                                                  config.head_hidden, rng)
        self.node_head = NodeParams.create(config.width, rng)

    @classmethod
    def from_checkpoint(cls, config: ModelConfig, path) -> "Detector":
        """A model of ``config`` with every parameter read from a checkpoint and
        none drawn: each is allocated at its shape, then ``load`` checks them all
        before it assigns any, so a mismatched checkpoint raises ``FormatError``."""
        model = cls(config, None)
        model.load(path)
        return model

    # -- parameters ----------------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        return {**_named_tensors(self.backbone, ""), **_named_tensors(self.loc_head, "loc."),
                **_named_tensors(self.node_head, "node.")}

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def save(self, path) -> None:
        save_checkpoint(path, {name: t.data for name, t in self.named_params().items()})

    def load(self, path) -> None:
        """Replace every parameter from a checkpoint; a checkpoint that does
        not match the model raises ``FormatError`` and replaces none."""
        stored = load_checkpoint(path)
        params = self.named_params()
        for name in stored:
            if name not in params:
                raise FormatError(f"checkpoint parameter '{name}' is not in the model")
        for name, tensor in params.items():
            if name not in stored:
                raise FormatError(f"checkpoint missing parameter '{name}'")
            if stored[name].shape != tensor.data.shape:
                raise FormatError(
                    f"checkpoint parameter '{name}' has shape {stored[name].shape}, "
                    f"model expects {tensor.data.shape}")
        for name, tensor in params.items():
            tensor.data = stored[name]

    # -- forward passes --------------------------------------------------------

    def forward_features(self, features: np.ndarray):
        """(C_raw, L) window features -> (block-1 tensor, final tensor, graph)."""
        return backbone_forward(Tensor(features), self.backbone, self.config.k_neighbors)

    def forward_scores(self, final: Tensor, edges: np.ndarray,
                       subset: np.ndarray | None = None, window=None) -> Tensor:
        """Anchor scores (rows follow the anchor set or the given subset) of the
        ``data.Window`` whose final features are ``final``.

        The head aligns each of its row blocks as it reaches it. Numpy's overflow
        and invalid-value warnings are silenced here, so the head's ``NumericError``
        reports them; it gains the window, if given."""
        aligned = self.aligner(final, edges, subset)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return localization_forward(aligned, self.loc_head)
            except NumericError as exc:
                if window is not None:
                    exc.args = (f"{exc} in the window of video '{window.video_id}' "
                                f"at offset {window.offset}",)
                raise
