"""Multi-task attention-based throughput estimator (Sec. IV-D).

Architecture follows the paper: a shared backbone of three residual blocks,
each stacking two depthwise convolutions with self-attention modules plus a
channel-mixing convolution with batch normalisation; then one decoder
stream per DNN channel built from linear attention (Shen et al., 2021) and
two fully connected layers.  Depthwise convolutions and attention are used
because the DNN channels of Q are statistically independent.

The network predicts ``log1p(inferences/s)`` per DNN — the log transform
stabilises the 0.05..70 inf/s dynamic range of the board.  The paper's
instance has ~3.7 M parameters; the default configuration here is a
width-scaled version of the same topology (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tensor, nn, no_grad

__all__ = ["EstimatorConfig", "ThroughputEstimator"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Shapes and widths of the estimator."""

    max_dnns: int = 5
    max_layers: int = 96
    num_components: int = 3
    embed_dim: int = 16
    stem_channels: int = 16
    block_channels: tuple[int, int, int] = (24, 32, 48)
    attn_dim: int = 16
    decoder_dim: int = 32

    @property
    def width(self) -> int:
        """Q-tensor feature width: one embed-sized column block per component."""
        return self.num_components * self.embed_dim


class _ResidualBlock(nn.Module):
    """Backbone unit: strided channel-mixing shortcut around
    (depthwise conv -> self-attention) x 2 -> conv -> batch norm."""

    def __init__(self, c_in: int, c_out: int, stride: int,
                 rng: np.random.Generator, attn_dim: int):
        super().__init__()
        self.down = nn.Conv2d(c_in, c_out, 3, rng, stride=stride, padding=1)
        self.bn_down = nn.BatchNorm2d(c_out)
        self.dw1 = nn.DepthwiseConv2d(c_out, 3, rng, padding=1)
        self.attn1 = nn.SelfAttention2d(c_out, rng, head_dim=attn_dim)
        self.dw2 = nn.DepthwiseConv2d(c_out, 3, rng, padding=1)
        self.attn2 = nn.SelfAttention2d(c_out, rng, head_dim=attn_dim)
        self.conv = nn.Conv2d(c_out, c_out, 3, rng, padding=1)
        self.bn = nn.BatchNorm2d(c_out)

    def forward(self, x: Tensor) -> Tensor:
        shortcut = self.bn_down(self.down(x)).relu()
        h = self.attn1(self.dw1(shortcut).relu())
        h = self.attn2(self.dw2(h).relu())
        h = self.bn(self.conv(h))
        return (h + shortcut).relu()


class _DecoderStream(nn.Module):
    """Per-DNN head: linear attention over backbone tokens + 2 FC layers."""

    def __init__(self, in_features: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.attn = nn.LinearAttention(in_features, hidden, rng,
                                       head_dim=hidden)
        self.fc1 = nn.Linear(hidden, hidden, rng)
        self.fc2 = nn.Linear(hidden, 1, rng)

    def forward(self, tokens: Tensor) -> Tensor:
        h = self.attn(tokens)          # (B, T, hidden)
        h = h.mean(axis=1)             # (B, hidden)
        h = self.fc1(h).relu()
        return self.fc2(h)             # (B, 1)


class ThroughputEstimator(nn.Module):
    """Mapping tensor Q -> per-DNN log1p(inferences/s)."""

    def __init__(self, rng: np.random.Generator,
                 config: EstimatorConfig | None = None):
        super().__init__()
        config = config if config is not None else EstimatorConfig()
        self.config = config
        c1, c2, c3 = config.block_channels
        self.stem = nn.Conv2d(config.max_dnns, config.stem_channels, 3, rng,
                              stride=2, padding=1)
        self.stem_bn = nn.BatchNorm2d(config.stem_channels)
        self.block1 = _ResidualBlock(config.stem_channels, c1, 2, rng,
                                     config.attn_dim)
        self.block2 = _ResidualBlock(c1, c2, 2, rng, config.attn_dim)
        self.block3 = _ResidualBlock(c2, c3, 1, rng, config.attn_dim)
        self.decoders = [
            _DecoderStream(c3, config.decoder_dim, rng)
            for _ in range(config.max_dnns)
        ]
        # Single precision: ample for a throughput regressor, ~2x faster
        # in numpy than the engine's float64 default.
        self.astype(np.float32)

    # ------------------------------------------------------------------
    def forward(self, q: Tensor) -> Tensor:
        """``q`` is (B, max_dnns, max_layers, width) -> (B, max_dnns)."""
        expected = (self.config.max_dnns, self.config.max_layers,
                    self.config.width)
        if q.shape[1:] != expected:
            raise ValueError(f"expected Q of shape (B, {expected}), got {q.shape}")
        h = self.stem_bn(self.stem(q)).relu()
        h = self.block1(h)
        h = self.block2(h)
        h = self.block3(h)
        b, c, gh, gw = h.shape
        tokens = h.reshape(b, c, gh * gw).swapaxes(1, 2)  # (B, T, C)
        from ..autodiff import ops

        outs = [dec(tokens) for dec in self.decoders]      # each (B, 1)
        return ops.concat(outs, axis=1)                    # (B, max_dnns)

    def predict_log_rates(self, q: np.ndarray) -> np.ndarray:
        """Inference without graph recording; returns (B, max_dnns).

        A float32 ``q`` runs in float32 throughout.  The result is
        batch-invariant: row ``i`` is bit-identical whatever other rows
        ``q`` holds.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                out = self.forward(Tensor(q))
        finally:
            if was_training:
                self.train()
        return out.data

    def predict_rates(self, q: np.ndarray) -> np.ndarray:
        """Predicted inferences/s (inverse of the log1p target transform)."""
        return np.expm1(np.maximum(self.predict_log_rates(q), 0.0))
