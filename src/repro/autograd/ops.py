"""Functional operations on :class:`~repro.autograd.tensor.Tensor`.

These complement the methods on ``Tensor`` with multi-argument ops
(concatenate, stack), stable softmax / log-softmax, segment reductions used
by graph aggregation, and convenience constructors.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _lift(value: Union[Tensor, ArrayLike]) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Tuple[Tensor, ...], backward) -> Tensor:
    # Reuse the private helper on Tensor; any parent works as the anchor.
    return parents[0]._make(data, parents, backward)


# ---------------------------------------------------------------------- #
# Constructors
# ---------------------------------------------------------------------- #


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def zeros_like(tensor: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros_like(tensor.data), requires_grad=requires_grad)


# ---------------------------------------------------------------------- #
# Shape ops
# ---------------------------------------------------------------------- #


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = [_lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [_lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return _make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a constant boolean condition."""
    a, b = _lift(a), _lift(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * condition)
        if b.requires_grad:
            b._accumulate(grad * ~condition)

    return _make(out_data, (a, b), backward)


# ---------------------------------------------------------------------- #
# Softmax family
# ---------------------------------------------------------------------- #


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp_x = np.exp(shifted)
    out_data = exp_x / exp_x.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return _make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return _make(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Rows whose mask is entirely False produce all-zero outputs (no NaN).
    """
    mask = np.asarray(mask, dtype=bool)
    neg_inf = np.where(mask, 0.0, -1e30)
    shifted = x.data + neg_inf
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    exp_x = np.exp(shifted) * mask
    denom = exp_x.sum(axis=axis, keepdims=True)
    safe_denom = np.where(denom == 0.0, 1.0, denom)
    out_data = exp_x / safe_denom

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Segment / scatter ops (graph aggregation primitives)
# ---------------------------------------------------------------------- #


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    The graph-convolution workhorse: aggregating messages along edges into
    destination nodes is ``segment_sum(messages, dst_ids, num_nodes)``.
    """
    segment_ids = np.asarray(segment_ids)
    out_shape = (num_segments,) + x.data.shape[1:]
    out_data = np.zeros(out_shape, dtype=x.data.dtype)
    np.add.at(out_data, segment_ids, x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[segment_ids])

    return _make(out_data, (x,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows of ``x`` per segment; empty segments yield zeros."""
    segment_ids = np.asarray(segment_ids)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(x.data.dtype)
    safe = np.where(counts == 0, 1.0, counts)
    summed = segment_sum(x, segment_ids, num_segments)
    return summed * Tensor((1.0 / safe).reshape((-1,) + (1,) * (x.data.ndim - 1)))


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of entries sharing a segment id.

    Used by attention over variable-size neighborhoods (GAT, HAN node-level
    attention): scores for edges into the same destination node are
    normalized together.
    """
    segment_ids = np.asarray(segment_ids)
    # Stable: subtract per-segment max.
    seg_max = np.full(num_segments, -np.inf, dtype=scores.data.dtype)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max = np.where(np.isinf(seg_max), 0.0, seg_max)
    shifted = scores.data - seg_max[segment_ids]
    exp_s = np.exp(shifted)
    denom = np.zeros(num_segments, dtype=scores.data.dtype)
    np.add.at(denom, segment_ids, exp_s)
    safe_denom = np.where(denom == 0.0, 1.0, denom)
    out_data = exp_s / safe_denom[segment_ids]

    def backward(grad: np.ndarray) -> None:
        if not scores.requires_grad:
            return
        weighted = grad * out_data
        seg_dot = np.zeros(num_segments, dtype=scores.data.dtype)
        np.add.at(seg_dot, segment_ids, weighted)
        scores._accumulate(weighted - out_data * seg_dot[segment_ids])

    return _make(out_data, (scores,), backward)


# ---------------------------------------------------------------------- #
# Misc
# ---------------------------------------------------------------------- #


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.  Identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return _make(out_data, (x,), backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding table with scatter-add backward."""
    return table.index_select(np.asarray(indices))
