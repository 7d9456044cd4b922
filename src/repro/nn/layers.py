"""Neural network layers used by the CTR models.

``Linear`` / ``Embedding`` / ``LayerNorm`` / ``Dropout`` / ``MLP`` mirror
their PyTorch namesakes.  The ``MLP`` follows the paper's classifier spec
(Eq. 9): each hidden layer is ``LayerNorm(relu(W a + b))``, and the output
layer is a plain linear projection to one logit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, embedding_lookup


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` rows, when given, are initialised to zero (used for the
    out-of-vocabulary bucket so unseen values start neutral).

    Backward produces a :class:`~repro.nn.sparse.SparseGrad` — one value
    row per touched table row — so gradient memory and optimizer cost are
    O(batch) rather than O(num_embeddings).  Pass ``dense_grad=True`` to
    restore the dense ``[num_embeddings, dim]`` gradient (the escape
    hatch for consumers that index the gradient arbitrarily).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        padding_idx: Optional[int] = None,
        scale: Optional[float] = None,
        dense_grad: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.dense_grad = dense_grad
        if scale is None:
            table = init.xavier_uniform((num_embeddings, embedding_dim), rng)
        else:
            table = init.uniform((num_embeddings, embedding_dim), rng, bound=scale)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table, name="embedding")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"got min={indices.min()}, max={indices.max()}"
            )
        return embedding_lookup(self.weight, indices,
                                dense_grad=self.dense_grad)


class LayerNorm(Module):
    """Layer normalisation (Ba et al., 2016) over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((normalized_shape,)), name="gamma")
        self.beta = Parameter(init.zeros((normalized_shape,)), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class BatchNorm1d(Module):
    """Batch normalisation over the batch axis (Ioffe & Szegedy, 2015).

    Training mode normalises with batch statistics and updates running
    estimates; evaluation mode uses the running estimates, so single-row
    inference works.  Some deep CTR baselines (e.g. DCN variants) prefer
    this over the paper's layer norm; both are provided.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects [n, features], got {x.shape}")
        if self.training:
            if x.shape[0] < 2:
                raise ValueError("training-mode batch norm needs batch >= 2")
            mean = x.data.mean(axis=0)
            var = x.data.var(axis=0)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
            centered = x - Tensor(mean)
            # Differentiable w.r.t. x through the centering only (the
            # batch-statistics terms are treated as constants, the common
            # simplified formulation); gamma/beta get exact gradients.
            normalized = centered * Tensor(1.0 / np.sqrt(var + self.eps))
        else:
            centered = x - Tensor(self.running_mean)
            normalized = centered * Tensor(
                1.0 / np.sqrt(self.running_var + self.eps))
        return normalized * self.gamma + self.beta


class PReLU(Module):
    """Parametric ReLU: ``x if x > 0 else a * x`` with a learnable slope."""

    def __init__(self, num_parameters: int = 1, init_slope: float = 0.25) -> None:
        super().__init__()
        self.slope = Parameter(np.full(num_parameters, float(init_slope)),
                               name="prelu_slope")

    def forward(self, x: Tensor) -> Tensor:
        positive = x.relu()
        negative = (-x).relu() * self.slope
        return positive - negative


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, self.training)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer_{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)


class MLP(Module):
    """The paper's deep classifier (Eq. 9).

    Hidden layers compute ``LayerNorm(relu(W a + b))`` when ``layer_norm`` is
    enabled; the final layer maps to ``output_dim`` logits with no activation.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        output_dim: int = 1,
        layer_norm: bool = True,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        layers: List[Module] = []
        prev = input_dim
        for width in hidden_dims:
            layers.append(Linear(prev, width, rng=rng))
            layers.append(ReLU())
            if layer_norm:
                layers.append(LayerNorm(width))
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=rng))
            prev = width
        layers.append(Linear(prev, output_dim, rng=rng))
        self.net = Sequential(*layers)
        self.input_dim = input_dim
        self.output_dim = output_dim

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
