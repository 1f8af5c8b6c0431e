"""Differentiable binary classifiers with loss and input-gradient evaluation.

Two architectures are provided: plain logistic regression and a two-layer
MLP with a smooth activation (tanh or softplus).  Smoothness matters: the
attack module integrates the gradient field of the loss, and the stability
and robustness guarantees it relies on require that field to be Lipschitz,
which rules out ReLU-style kinks.

Every model exposes three evaluation methods, each accepting a batch of
shape ``(n, d)``:

- ``predict_proba(x)``: class-1 probability,
- ``loss(x, y)``: clamped cross-entropy,
- ``input_gradient(x, y)``: gradient of the (unclamped) loss in ``x``.

Any object implementing this triple can be attacked and audited; the test
suite uses small analytic stubs through the same interface.

Models are immutable after training and evaluation is pure, so instances
may be shared across threads.  An optional projector ``P`` is applied as
``x -> P x`` before every forward and gradient evaluation; training with a
projector produces the "project out the sensitive subspace" preprocessing
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import _expect, _field, _read_json_object, write_json
from .linalg import as_matrix, as_vector, fields_equal

# Probabilities are clamped to [P_FLOOR, 1 - P_FLOOR] inside the loss, which
# bounds it to [LOSS_FLOOR, LOSS_CAP].  The positive floor keeps loss ratios
# well defined; the clamp never moves any statistic materially because it only
# engages at |logit| > ~27.6.
P_FLOOR = 1e-12
LOSS_FLOOR = -np.log1p(-P_FLOOR)
LOSS_CAP = -np.log(P_FLOOR)


def expit(z):
    """Numerically stable logistic function exp(z) / (1 + exp(z))."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so it never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return float(np.log(p) - np.log1p(-p))


def loss_from_logit(z, y):
    """Clamped cross-entropy computed directly from the logit.

    Equals -y ln p - (1-y) ln(1-p) with p clamped to [P_FLOOR, 1 - P_FLOOR];
    working from the logit avoids the precision loss of forming p first.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    raw = np.logaddexp(0.0, (1.0 - 2.0 * y) * z)
    return np.clip(raw, LOSS_FLOOR, LOSS_CAP)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _tanh_slope(z, a):
    """tanh'(z) = 1 - tanh(z)**2, written over a = tanh(z)."""
    np.square(a, out=a)
    return np.subtract(1.0, a, out=a)


# activation -> (act(z), slope(z, a)): slope(z, a) is act'(z) given a = act(z),
# and it may overwrite a
_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_slope),
    "softplus": (_softplus, lambda z, a: expit(z)),
}


def _check_activation(activation: str) -> None:
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}; use tanh or softplus")


def _check_labels(y, n: int, scalar: bool = True) -> np.ndarray:
    """0/1 labels as floats for ``n`` rows: an ``(n,)`` array, or a scalar unless ``scalar`` is false."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.shape != (n,) and not (scalar and arr.ndim == 0):
        either = "a scalar or " if scalar else ""
        raise ValueError(f"labels must be {either}of shape ({n},) for {n} rows, got shape {arr.shape}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return arr


def _as_projector(projector, dim: int) -> np.ndarray:
    """``projector`` as a finite ``(dim, dim)`` matrix; any other shape raises, naming it."""
    p = as_matrix(projector, "projector")
    if p.shape != (dim, dim):
        raise ValueError(f"projector must have shape ({dim}, {dim}) for {dim} inputs, got shape {p.shape}")
    return p


def _as_batch(x, dim: int) -> np.ndarray:
    """Return x as an (n, dim) float array; any other shape, 1-D points included, raises."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) batch of inputs of dimension {dim}, got shape {arr.shape}")
    return arr


# each architecture's parameters and their JSON types; a model file also holds "architecture" and "projector"
_MODEL_KEYS = {
    "logistic": {"weights": [float], "bias": float},
    "mlp": {
        "layer1_weights": [[float]],
        "layer1_bias": [float],
        "layer2_weights": [float],
        "layer2_bias": float,
        "activation": str,
    },
}


def _model_dict(model, arch: str) -> dict:
    """The model file's document: the tag ``arch``, the parameters ``_MODEL_KEYS`` lists, and the projector."""
    doc = {"architecture": arch, "projector": None if model.projector is None else model.projector.tolist()}
    for key, kind in _MODEL_KEYS[arch].items():
        doc[key] = getattr(model, key).tolist() if isinstance(kind, list) else kind(getattr(model, key))
    return doc


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Linear logit classifier: p(x) = expit(bias + w . (P x))."""

    weights: np.ndarray
    bias: float
    projector: np.ndarray | None = None
    # d logit / dx = P w, the same for every input
    _logit_gradient: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = fields_equal

    def __post_init__(self):
        object.__setattr__(self, "weights", as_vector(self.weights, "weights"))
        as_vector([self.bias], "bias")  # rejects a non-finite bias, naming it
        w = self.weights
        if self.projector is not None:
            object.__setattr__(self, "projector", _as_projector(self.projector, self.dim))
            w = self.projector @ w
        object.__setattr__(self, "_logit_gradient", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def _logits(self, x):
        xb = _as_batch(x, self.dim)
        if self.projector is not None:
            xb = xb @ self.projector
        return xb @ self.weights + self.bias

    def predict_proba(self, x):
        return expit(self._logits(x))

    def loss(self, x, y):
        z = self._logits(x)
        return loss_from_logit(z, _check_labels(y, len(z)))

    def input_gradient(self, x, y):
        z = self._logits(x)
        return (expit(z) - _check_labels(y, len(z)))[:, None] * self._logit_gradient[None, :]

    def to_dict(self) -> dict:
        return _model_dict(self, "logistic")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Two-layer network with a smooth activation and a linear output logit."""

    layer1_weights: np.ndarray  # (hidden, input)
    layer1_bias: np.ndarray  # (hidden,)
    layer2_weights: np.ndarray  # (hidden,)
    layer2_bias: float
    activation: str = "tanh"
    projector: np.ndarray | None = None

    __eq__ = fields_equal

    def __post_init__(self):
        object.__setattr__(self, "layer1_weights", as_matrix(self.layer1_weights, "layer1_weights"))
        object.__setattr__(self, "layer1_bias", as_vector(self.layer1_bias, "layer1_bias"))
        object.__setattr__(self, "layer2_weights", as_vector(self.layer2_weights, "layer2_weights"))
        as_vector([self.layer2_bias], "layer2_bias")  # rejects a non-finite bias, naming it
        _check_activation(self.activation)
        h, d = self.layer1_weights.shape
        if self.layer1_bias.shape != (h,) or self.layer2_weights.shape != (h,):
            raise ValueError("inconsistent MLP parameter shapes")
        if self.projector is not None:
            object.__setattr__(self, "projector", _as_projector(self.projector, d))

    @property
    def dim(self) -> int:
        return self.layer1_weights.shape[1]

    def _forward(self, x):
        xb = _as_batch(x, self.dim)
        if self.projector is not None:
            xb = xb @ self.projector
        act, _ = _ACTIVATIONS[self.activation]
        z1 = xb @ self.layer1_weights.T
        z1 += self.layer1_bias
        a = act(z1)
        z = a @ self.layer2_weights + self.layer2_bias
        return z, z1, a

    def predict_proba(self, x):
        return expit(self._forward(x)[0])

    def loss(self, x, y):
        z = self._forward(x)[0]
        return loss_from_logit(z, _check_labels(y, len(z)))

    def input_gradient(self, x, y):
        z, z1, a = self._forward(x)
        _, slope = _ACTIVATIONS[self.activation]
        p = expit(z)
        # d logit / d x' = (act'(z1) * w2) @ W1, then chain through the projector
        hidden = slope(z1, a)
        # drop the (n, hidden) pre-activation before the (n, d) gradient is
        # allocated, which keeps the peak of a call lower
        del z1, a
        hidden *= self.layer2_weights
        grad = hidden @ self.layer1_weights
        if self.projector is not None:
            grad = grad @ self.projector
        grad *= (p - _check_labels(y, len(z)))[:, None]
        return grad

    def to_dict(self) -> dict:
        return _model_dict(self, "mlp")


def model_from_dict(doc: dict):
    """Inverse of ``Model.to_dict``; the round trip is bit-identical.

    Every key must hold its JSON type, and ``projector`` may also be null or
    absent; a missing key or a value of another type raises, naming the key.
    """
    arch = doc.get("architecture")
    if arch not in ("logistic", "mlp"):
        raise ValueError(f"unknown architecture tag {arch!r}")
    params = {key: _field(doc, key, kind, f"{arch} model") for key, kind in _MODEL_KEYS[arch].items()}
    projector = _expect([[float]], doc.get("projector"), f"{arch} model key 'projector'", nullable=True)
    return (LogisticModel if arch == "logistic" else MlpModel)(**params, projector=projector)


def save_model(model, path) -> None:
    write_json(path, model.to_dict())


def load_model(path):
    return model_from_dict(_read_json_object(path, "model"))


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Settings for the mini-batch gradient-descent trainer.

    Plain fixed-step GD is used instead of an adaptive optimizer: at the
    data scales this package targets determinism and simplicity win, and
    the fitted model is only an audit subject.  ``class_reweight`` weights
    each sample by the inverse frequency of its class.
    """

    learning_rate: float = 0.1
    batch_size: int = 64
    num_steps: int = 2000
    class_reweight: bool = False
    seed: int = 0
    preprocess_projector: np.ndarray | None = None
    hidden_units: int = 50
    activation: str = "tanh"

    __eq__ = fields_equal

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size!r}")
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {self.num_steps!r}")
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be at least 1, got {self.hidden_units!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        _check_activation(self.activation)
        if self.preprocess_projector is not None:
            object.__setattr__(
                self, "preprocess_projector", as_matrix(self.preprocess_projector, "preprocess_projector")
            )


def train(features, labels, architecture: str = "logistic", cfg: TrainConfig = TrainConfig()):
    """Fit a classifier with seed-deterministic mini-batch gradient descent.

    ``architecture`` is ``"logistic"`` or ``"mlp"``; the MLP width and
    activation come from ``cfg``.  When ``cfg.preprocess_projector`` is set
    the trainer works on projected inputs and the returned model stores the
    projector, so evaluation applies it too.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, d) array")
    y = _check_labels(labels, len(x), scalar=False)
    n, d = x.shape

    if cfg.class_reweight:
        n_pos = int(np.sum(y == 1.0))
        if n_pos == 0 or n_pos == n:
            raise ValueError("class_reweight requires both classes in the training data")
        sample_weight = np.where(y == 1.0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    else:
        sample_weight = np.ones(n)

    proj = cfg.preprocess_projector
    if proj is not None:
        if proj.shape != (d, d):
            raise ValueError(f"projector shape {proj.shape} does not match feature dimension {d}")
        x = x @ proj

    rng = np.random.default_rng(cfg.seed)
    if architecture == "logistic":
        params = {"w": np.zeros(d), "b": 0.0}
    elif architecture == "mlp":
        h = cfg.hidden_units
        params = {
            "w1": rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d)),
            "b1": np.zeros(h),
            "w2": rng.normal(0.0, 1.0 / np.sqrt(h), size=h),
            "b2": 0.0,
        }
        act, slope = _ACTIVATIONS[cfg.activation]
    else:
        raise ValueError(f"unknown architecture {architecture!r}")

    order = np.arange(n)
    pos = n  # force a reshuffle on the first step
    for _ in range(cfg.num_steps):
        if pos + cfg.batch_size > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + cfg.batch_size]
        pos += cfg.batch_size
        xb, yb, wb = x[idx], y[idx], sample_weight[idx]

        if architecture == "logistic":
            z = xb @ params["w"] + params["b"]
            err = wb * (expit(z) - yb)
            params["w"] -= cfg.learning_rate * (xb.T @ err) / len(idx)
            params["b"] -= cfg.learning_rate * float(np.mean(err))
        else:
            z1 = xb @ params["w1"].T + params["b1"]
            a = act(z1)
            z = a @ params["w2"] + params["b2"]
            err = wb * (expit(z) - yb)
            # slope() may overwrite a, so a's own gradient term comes first
            grad_w2 = a.T @ err
            dz1 = (err[:, None] * params["w2"][None, :]) * slope(z1, a)
            params["w2"] -= cfg.learning_rate * grad_w2 / len(idx)
            params["b2"] -= cfg.learning_rate * float(np.mean(err))
            params["w1"] -= cfg.learning_rate * (dz1.T @ xb) / len(idx)
            params["b1"] -= cfg.learning_rate * np.mean(dz1, axis=0)

    if architecture == "logistic":
        return LogisticModel(weights=params["w"], bias=float(params["b"]), projector=proj)
    return MlpModel(
        layer1_weights=params["w1"],
        layer1_bias=params["b1"],
        layer2_weights=params["w2"],
        layer2_bias=float(params["b2"]),
        activation=cfg.activation,
        projector=proj,
    )
