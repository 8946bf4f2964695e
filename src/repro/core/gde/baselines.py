"""Forecasting baselines compared against OrgLinear (Figure 10, Table 7).

The paper compares OrgLinear against four Transformer-family models
(Transformer, Informer, Autoformer, FEDformer), DLinear and DeepAR.  No
deep-learning framework is available offline, so the baselines are built
as follows (recorded in DESIGN.md / EXPERIMENTS.md):

* **DLinear** — faithful NumPy reimplementation (trend/cyclical
  decomposition + two linear heads, MSE loss, gradient training).
* **DeepAR-lite** — a probabilistic recurrent model with a fixed random
  (echo-state) recurrent encoder and a Gaussian readout trained by NLL.
* **Transformer/Informer/Autoformer/FEDformer-lite** — single-layer
  attention encoders with fixed random projections and a ridge-regression
  readout; each variant keeps the family's signature mechanism (full
  attention, prob-sparse top-u queries, autocorrelation aggregation,
  Fourier-mode filtering).

All baselines expose the same ``fit`` / ``predict`` interface as OrgLinear
so the experiment harness can sweep over them uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .dataset import WindowDataset
from .decomposition import decompose_batch
from .training import AdamOptimizer, minibatches


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _normalised_arrays(dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    arrays = dataset.arrays()
    orgs = arrays["orgs"]
    X = np.stack([dataset.normalise_value(o, x) for o, x in zip(orgs, arrays["X"])])
    Y = np.stack([dataset.normalise_value(o, y) for o, y in zip(orgs, arrays["Y"])])
    return X, Y, orgs


def _denormalise(dataset: WindowDataset, orgs: np.ndarray, mu_n: np.ndarray, sigma_n: np.ndarray):
    mu = np.stack([dataset.denormalise_mean(o, m) for o, m in zip(orgs, mu_n)])
    sigma = np.stack([dataset.denormalise_std(o, s) for o, s in zip(orgs, sigma_n)])
    return mu, np.maximum(sigma, 1e-6)


def _ridge_fit(features: np.ndarray, targets: np.ndarray, l2: float = 1e-2) -> np.ndarray:
    """Closed-form ridge regression returning weights of shape (D+1, H)."""
    ones = np.ones((features.shape[0], 1))
    A = np.concatenate([features, ones], axis=1)
    gram = A.T @ A + l2 * np.eye(A.shape[1])
    return np.linalg.solve(gram, A.T @ targets)


def _ridge_predict(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    ones = np.ones((features.shape[0], 1))
    return np.concatenate([features, ones], axis=1) @ weights


# ----------------------------------------------------------------------
# Naive predictors (also used by the GFS-e ablation)
# ----------------------------------------------------------------------
class PreviousWeekPeakModel:
    """Predict the previous week's peak demand for every future hour.

    This is the naive conservative estimator the production cluster used
    before GFS and the predictor behind the GFS-e ablation.
    """

    name = "PrevWeekPeak"

    def __init__(self, week_hours: int = 168):
        self.week_hours = week_hours
        self.training_time = 0.0
        self._residual_std = 1.0

    def fit(self, dataset: WindowDataset) -> "PreviousWeekPeakModel":
        start = time.perf_counter()
        X, Y, _ = _normalised_arrays(dataset)
        peaks = X[:, -self.week_hours :].max(axis=1, keepdims=True)
        residual = Y - peaks
        self._residual_std = float(residual.std()) or 1.0
        self.training_time = time.perf_counter() - start
        return self

    def predict(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        X, Y, orgs = _normalised_arrays(dataset)
        peaks = X[:, -self.week_hours :].max(axis=1, keepdims=True)
        mu_n = np.repeat(peaks, Y.shape[1], axis=1)
        sigma_n = np.full_like(mu_n, self._residual_std)
        return _denormalise(dataset, orgs, mu_n, sigma_n)


class SeasonalNaiveModel:
    """Repeat the value observed one seasonal period (default: a week) ago."""

    name = "SeasonalNaive"

    def __init__(self, period: int = 168):
        self.period = period
        self.training_time = 0.0
        self._residual_std = 1.0

    def fit(self, dataset: WindowDataset) -> "SeasonalNaiveModel":
        start = time.perf_counter()
        mu_n, Y = self._roll(dataset)
        self._residual_std = float((Y - mu_n).std()) or 1.0
        self.training_time = time.perf_counter() - start
        return self

    def _roll(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        X, Y, _ = _normalised_arrays(dataset)
        horizon = Y.shape[1]
        period = min(self.period, X.shape[1])
        base = X[:, -period:]
        reps = int(np.ceil(horizon / period))
        mu_n = np.tile(base, (1, reps))[:, :horizon]
        return mu_n, Y

    def predict(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        mu_n, _ = self._roll(dataset)
        _, _, orgs = _normalised_arrays(dataset)
        sigma_n = np.full_like(mu_n, self._residual_std)
        return _denormalise(dataset, orgs, mu_n, sigma_n)


# ----------------------------------------------------------------------
# DLinear
# ----------------------------------------------------------------------
@dataclass
class DLinearConfig:
    decomposition_kernel: int = 25
    learning_rate: float = 5e-3
    epochs: int = 60
    batch_size: int = 64
    seed: int = 0


class DLinearModel:
    """DLinear: decomposition + two linear heads trained with MSE."""

    name = "DLinear"

    def __init__(self, config: Optional[DLinearConfig] = None):
        self.config = config or DLinearConfig()
        self.training_time = 0.0
        self._params: Dict[str, np.ndarray] = {}
        self._residual_std = 1.0
        self._rng = np.random.default_rng(self.config.seed)

    def _forward(self, X: np.ndarray) -> np.ndarray:
        trend, cyclical = decompose_batch(X, self.config.decomposition_kernel)
        p = self._params
        return cyclical @ p["W_c"] + p["b_c"] + trend @ p["W_t"] + p["b_t"]

    def fit(self, dataset: WindowDataset) -> "DLinearModel":
        start = time.perf_counter()
        cfg = self.config
        X, Y, _ = _normalised_arrays(dataset)
        L, H = X.shape[1], Y.shape[1]
        scale = 1.0 / np.sqrt(L)
        self._params = {
            "W_c": self._rng.normal(0, scale, size=(L, H)),
            "b_c": np.zeros(H),
            "W_t": self._rng.normal(0, scale, size=(L, H)),
            "b_t": np.zeros(H),
        }
        optimiser = AdamOptimizer(learning_rate=cfg.learning_rate)
        trend, cyclical = decompose_batch(X, cfg.decomposition_kernel)
        for _ in range(cfg.epochs):
            for idx in minibatches(len(Y), cfg.batch_size, self._rng):
                p = self._params
                pred = cyclical[idx] @ p["W_c"] + p["b_c"] + trend[idx] @ p["W_t"] + p["b_t"]
                diff = (pred - Y[idx]) / Y[idx].size
                grads = {
                    "W_c": cyclical[idx].T @ (2 * diff),
                    "b_c": 2 * diff.sum(axis=0),
                    "W_t": trend[idx].T @ (2 * diff),
                    "b_t": 2 * diff.sum(axis=0),
                }
                optimiser.update(self._params, grads)
        residual = self._forward(X) - Y
        self._residual_std = float(residual.std()) or 1.0
        self.training_time = time.perf_counter() - start
        return self

    def predict(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        X, _, orgs = _normalised_arrays(dataset)
        mu_n = self._forward(X)
        sigma_n = np.full_like(mu_n, self._residual_std)
        return _denormalise(dataset, orgs, mu_n, sigma_n)


# ----------------------------------------------------------------------
# DeepAR-lite
# ----------------------------------------------------------------------
@dataclass
class DeepARLiteConfig:
    hidden_size: int = 64
    spectral_radius: float = 0.9
    learning_rate: float = 1e-2
    epochs: int = 80
    batch_size: int = 64
    min_sigma: float = 1e-3
    seed: int = 0


class DeepARLiteModel:
    """Probabilistic recurrent forecaster with an echo-state encoder.

    The recurrent weights are fixed (echo-state network style); only the
    Gaussian readout (mean and log-variance heads) is trained, by gradient
    descent on the Gaussian NLL, mirroring DeepAR's probabilistic output.
    """

    name = "DeepAR"

    def __init__(self, config: Optional[DeepARLiteConfig] = None):
        self.config = config or DeepARLiteConfig()
        self.training_time = 0.0
        self._params: Dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self._W_in: Optional[np.ndarray] = None
        self._W_h: Optional[np.ndarray] = None

    def _init_encoder(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        self._W_in = rng.normal(0, 1.0, size=(cfg.hidden_size, 1))
        W = rng.normal(0, 1.0, size=(cfg.hidden_size, cfg.hidden_size))
        eigenvalues = np.linalg.eigvals(W)
        W *= cfg.spectral_radius / max(1e-9, np.max(np.abs(eigenvalues)))
        self._W_h = W

    def _encode(self, X: np.ndarray) -> np.ndarray:
        """Final hidden state of the echo-state encoder for every sample."""
        hidden = np.zeros((X.shape[0], self.config.hidden_size))
        for t in range(X.shape[1]):
            hidden = np.tanh(X[:, t : t + 1] @ self._W_in.T + hidden @ self._W_h.T)
        return hidden

    def fit(self, dataset: WindowDataset) -> "DeepARLiteModel":
        start = time.perf_counter()
        cfg = self.config
        self._init_encoder()
        X, Y, _ = _normalised_arrays(dataset)
        hidden = self._encode(X)
        H = Y.shape[1]
        scale = 1.0 / np.sqrt(cfg.hidden_size)
        self._params = {
            "W_mu": self._rng.normal(0, scale, size=(cfg.hidden_size, H)),
            "b_mu": np.zeros(H),
            "W_sigma": self._rng.normal(0, scale, size=(cfg.hidden_size, H)),
            "b_sigma": np.zeros(H),
        }
        optimiser = AdamOptimizer(learning_rate=cfg.learning_rate)
        for _ in range(cfg.epochs):
            for idx in minibatches(len(Y), cfg.batch_size, self._rng):
                p = self._params
                h = hidden[idx]
                mu = h @ p["W_mu"] + p["b_mu"]
                raw = h @ p["W_sigma"] + p["b_sigma"]
                sigma = np.logaddexp(0.0, raw) + cfg.min_sigma
                count = Y[idx].size
                dmu = (mu - Y[idx]) / sigma**2 / count
                dsigma = (1.0 / sigma - (Y[idx] - mu) ** 2 / sigma**3) / count
                draw = dsigma * (1.0 / (1.0 + np.exp(-np.clip(raw, -60, 60))))
                grads = {
                    "W_mu": h.T @ dmu,
                    "b_mu": dmu.sum(axis=0),
                    "W_sigma": h.T @ draw,
                    "b_sigma": draw.sum(axis=0),
                }
                optimiser.update(self._params, grads)
        self.training_time = time.perf_counter() - start
        return self

    def predict(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        X, _, orgs = _normalised_arrays(dataset)
        hidden = self._encode(X)
        p = self._params
        mu_n = hidden @ p["W_mu"] + p["b_mu"]
        sigma_n = np.logaddexp(0.0, hidden @ p["W_sigma"] + p["b_sigma"]) + self.config.min_sigma
        return _denormalise(dataset, orgs, mu_n, sigma_n)


# ----------------------------------------------------------------------
# Transformer-family lite models
# ----------------------------------------------------------------------
@dataclass
class AttentionLiteConfig:
    model_dim: int = 32
    ridge_l2: float = 1e-1
    seed: int = 0


class _AttentionLiteBase:
    """Shared machinery of the Transformer-family lite baselines."""

    name = "AttentionLite"

    def __init__(self, config: Optional[AttentionLiteConfig] = None):
        self.config = config or AttentionLiteConfig()
        self.training_time = 0.0
        self._weights: Optional[np.ndarray] = None
        self._residual_std = 1.0

    # -- encoding ------------------------------------------------------
    def _encode(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- fit / predict ---------------------------------------------------
    def fit(self, dataset: WindowDataset):
        start = time.perf_counter()
        X, Y, _ = _normalised_arrays(dataset)
        features = self._encode(X)
        self._weights = _ridge_fit(features, Y, self.config.ridge_l2)
        residual = _ridge_predict(features, self._weights) - Y
        self._residual_std = float(residual.std()) or 1.0
        self.training_time = time.perf_counter() - start
        return self

    def predict(self, dataset: WindowDataset) -> Tuple[np.ndarray, np.ndarray]:
        X, _, orgs = _normalised_arrays(dataset)
        features = self._encode(X)
        mu_n = _ridge_predict(features, self._weights)
        sigma_n = np.full_like(mu_n, self._residual_std)
        return _denormalise(dataset, orgs, mu_n, sigma_n)

    # -- shared attention helper ----------------------------------------
    def _positional_tokens(self, X: np.ndarray) -> np.ndarray:
        """Token representation: value plus a sinusoidal position channel."""
        length = X.shape[1]
        positions = np.arange(length) / length
        pos = np.sin(2 * np.pi * positions)
        return np.stack([X, np.broadcast_to(pos, X.shape)], axis=-1)  # (N, L, 2)


class TransformerLiteModel(_AttentionLiteBase):
    """Full softmax self-attention over the history window."""

    name = "Transformer"

    def _encode(self, X: np.ndarray) -> np.ndarray:
        d = self.config.model_dim
        rng = np.random.default_rng(self.config.seed + 11)
        token_proj = rng.normal(0, 0.5, size=(2, d))
        tokens = self._positional_tokens(X) @ token_proj          # (N, L, d)
        q = tokens @ rng.normal(0, 1.0 / np.sqrt(d), size=(d, d))
        k = tokens @ rng.normal(0, 1.0 / np.sqrt(d), size=(d, d))
        v = tokens
        scores = q @ np.transpose(k, (0, 2, 1)) / np.sqrt(d)       # (N, L, L)
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        mixed = attn @ v                                            # (N, L, d)
        return np.concatenate([mixed.mean(axis=1), mixed[:, -1, :], X[:, -24:]], axis=1)


class InformerLiteModel(_AttentionLiteBase):
    """Prob-sparse attention: only the top-u most informative queries attend."""

    name = "Informer"

    def _encode(self, X: np.ndarray) -> np.ndarray:
        d = self.config.model_dim
        rng = np.random.default_rng(self.config.seed + 13)
        token_proj = rng.normal(0, 0.5, size=(2, d))
        tokens = self._positional_tokens(X) @ token_proj
        q = tokens @ rng.normal(0, 1.0 / np.sqrt(d), size=(d, d))
        k = tokens @ rng.normal(0, 1.0 / np.sqrt(d), size=(d, d))
        scores = q @ np.transpose(k, (0, 2, 1)) / np.sqrt(d)
        length = X.shape[1]
        u = max(4, int(np.ceil(np.log(length))))
        # Sparsity measure: max score minus mean score per query.
        sparsity = scores.max(axis=-1) - scores.mean(axis=-1)       # (N, L)
        top = np.argsort(-sparsity, axis=1)[:, :u]                  # (N, u)
        gathered = np.take_along_axis(scores, top[:, :, None], axis=1)  # (N, u, L)
        gathered -= gathered.max(axis=-1, keepdims=True)
        attn = np.exp(gathered)
        attn /= attn.sum(axis=-1, keepdims=True)
        mixed = attn @ tokens                                        # (N, u, d)
        return np.concatenate([mixed.reshape(X.shape[0], -1), X[:, -24:]], axis=1)


class AutoformerLiteModel(_AttentionLiteBase):
    """Decomposition + autocorrelation-based aggregation of lagged series."""

    name = "Autoformer"

    def __init__(self, config: Optional[AttentionLiteConfig] = None, top_lags: int = 6, kernel: int = 25):
        super().__init__(config)
        self.top_lags = top_lags
        self.kernel = kernel

    def _encode(self, X: np.ndarray) -> np.ndarray:
        trend, cyclical = decompose_batch(X, self.kernel)
        length = X.shape[1]
        spectrum = np.fft.rfft(cyclical, axis=1)
        autocorr = np.fft.irfft(spectrum * np.conj(spectrum), n=length, axis=1)
        lags = np.argsort(-autocorr[:, 1 : length // 2], axis=1)[:, : self.top_lags] + 1
        rolled = []
        for i in range(X.shape[0]):
            stacks = [np.roll(cyclical[i], int(lag))[-24:] for lag in lags[i]]
            rolled.append(np.concatenate(stacks))
        rolled = np.asarray(rolled)
        return np.concatenate([rolled, trend[:, -24:], cyclical[:, -24:]], axis=1)


class FEDformerLiteModel(_AttentionLiteBase):
    """Frequency-enhanced features: a random subset of Fourier modes."""

    name = "FEDformer"

    def __init__(self, config: Optional[AttentionLiteConfig] = None, num_modes: int = 24):
        super().__init__(config)
        self.num_modes = num_modes

    def _encode(self, X: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(X, axis=1)
        rng = np.random.default_rng(self.config.seed + 17)
        available = spectrum.shape[1]
        modes = np.sort(rng.choice(available, size=min(self.num_modes, available), replace=False))
        selected = spectrum[:, modes]
        return np.concatenate([selected.real, selected.imag, X[:, -24:]], axis=1)


#: Models swept by the Figure 10 experiment, keyed by display name.
FORECASTING_BASELINES = {
    "Transformer": TransformerLiteModel,
    "Informer": InformerLiteModel,
    "Autoformer": AutoformerLiteModel,
    "FEDformer": FEDformerLiteModel,
    "DLinear": DLinearModel,
    "DeepAR": DeepARLiteModel,
}
