"""Reverse-mode automatic differentiation over dense numpy tensors.

The graph is built implicitly: every primitive returns a `Tensor` holding its
parents and a closure that routes the upstream gradient to them. Calling
`backward()` on a scalar loss walks the recorded operations once, in reverse
topological order. Gradients are exact: a loss term multiplied by a zero mask
contributes exactly 0.0 to every upstream gradient.

Only the primitives the parser needs are provided, each with the one calling
convention the parser uses. Six have no caller in the package: `flip_rows`,
`mean_all`, `sigmoid`, `slice_rows`, `softmax_rows` and `shift`. They stay
because `bench/tracer.py` wraps each of them by name, and a missing name
breaks every traced run. Every tensor holds float64 data; input of any other
dtype is converted. The module reads and writes no files:
`network.ParserModel` owns the checkpoint format.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import AutodiffError

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def no_grad():
    """Disable graph recording; forward values only."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A dense array plus the tape record that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != _DEFAULT_DTYPE:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise AutodiffError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise AutodiffError("backward on a detached tensor (nothing requires grad)")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, i = stack.pop()
            if i == 0:
                if id(node) in visited:
                    continue
                visited.add(id(node))
            if i < len(node._parents):
                stack.append((node, i + 1))
                parent = node._parents[i]
                if parent.requires_grad:
                    stack.append((parent, 0))
            else:
                topo.append(node)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _result(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add `g` into `t.grad`.

    A parameter never adopts an array: its first gradient of a step is written
    into its buffer view (see `Parameter`) as `g + 0.0`. For any other tensor
    a backward closure passes `owned` for an array it has just allocated and
    keeps no reference to; the first one is adopted as the gradient. A first
    gradient that is not owned is `g + 0.0` in a fresh array like `t.data`:
    one pass, with the bits and layout of fresh zeros plus `g`. (Only the sign
    of a zero tells adoption from `g + 0.0`, and Adam's moments and update do
    not see it.)"""
    if not t.requires_grad:
        return
    if t.grad is None:
        if isinstance(t, Parameter):
            np.add(g, 0.0, out=t._buffer)  # as 0 + g: -0.0 becomes 0.0
            t.grad = t._buffer
            return
        t.grad = g if owned else np.add(g, 0.0, out=np.empty_like(t.data))
        return
    t.grad += g


def _accumulate_product(t: Tensor, a: np.ndarray, b: np.ndarray):
    """Add the GEMM a @ b (a a matrix, b a matrix or a stack of them) into
    `t.grad`; a parameter's first gradient of a step is computed straight into
    its buffer, with no copy."""
    if not t.requires_grad:
        return
    if t.grad is None and isinstance(t, Parameter):
        np.matmul(a, b, out=t._buffer.reshape(b.shape[:-2] + (a.shape[0], b.shape[-1])))
        t.grad = t._buffer
    else:
        _accumulate(t, (a @ b).reshape(t.shape), owned=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check(cond: bool, op: str, msg: str):
    if not cond:
        raise AutodiffError(f"{op}: {msg}")


def constant(data) -> Tensor:
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise AutodiffError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise AutodiffError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


def shift(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, g)

    return _result(a.data + c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check(a.ndim == 2 and b.ndim == 2, "matmul", f"expects 2-D operands, "
           f"got {a.shape} and {b.shape}")
    _check(a.shape[1] == b.shape[0], "matmul", f"inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        _accumulate_product(a, g, b.data.T)
        _accumulate_product(b, a.data.T, g)

    return _result(data, (a, b), backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _result(data, (a,), backward)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    _check(len(parts) > 0, "concat", "needs at least one part")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _result(data, tuple(parts), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    _check(0 <= start < stop <= a.shape[0], "slice_rows",
           f"range [{start},{stop}) invalid for {a.shape[0]} rows")
    data = a.data[start:stop]

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accumulate(a, full, owned=True)

    return _result(data, (a,), backward)


def flip_rows(a: Tensor) -> Tensor:
    data = a.data[::-1].copy()

    def backward(g):
        _accumulate(a, g[::-1])

    return _result(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    count = a.data.size

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g) / count))

    return _result(np.asarray(a.data.mean()), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_stable(a.data)

    def backward(g):
        _accumulate(a, g * s * (1.0 - s))

    return _result(s, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - t * t))

    return _result(t, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    _check(a.ndim == 2, "softmax_rows", f"expects a matrix, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        _accumulate(a, p * (g - inner))

    return _result(p, (a,), backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Train-time inverted dropout; inference needs no rescaling."""
    _check(0.0 <= rate < 1.0, "dropout", f"rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    data = a.data * keep

    def backward(g):
        _accumulate(a, g * keep)

    return _result(data, (a,), backward)


# ---------------------------------------------------------------------------
# gathers


def lookup(table: Tensor, ids) -> Tensor:
    """Embedding row gather; gradients scatter-add back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    _check(table.ndim == 2, "lookup", f"table must be 2-D, got {table.shape}")
    _check(ids.ndim == 1, "lookup", f"ids must be 1-D, got {ids.shape}")
    _check(ids.size == 0 or (ids.min() >= 0 and ids.max() < table.shape[0]),
           "lookup", "id out of range")
    data = table.data[ids]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accumulate(table, full, owned=True)

    return _result(data, (table,), backward)


def pick_cells(a: Tensor, sentences, heads, deps) -> Tensor:
    """Label scores (k, L) at cells [sentences[k], :, heads[k], deps[k]] of (B, L, T+1, T)
    scores; the gradient scatters back into those cells only."""
    sentences, heads, deps = (np.asarray(v, dtype=np.int64) for v in (sentences, heads, deps))
    _check(a.ndim == 4, "pick_cells", f"expects (B, L, T+1, T) scores, got {a.shape}")
    _check(sentences.ndim == 1 and sentences.shape == heads.shape == deps.shape, "pick_cells",
           "sentences, heads and deps must be equal-length vectors")
    cells = (sentences, slice(None), heads, deps)
    data = a.data[cells]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, cells, g)
        _accumulate(a, full, owned=True)

    return _result(data, (a,), backward)


# ---------------------------------------------------------------------------
# bilinear scoring


def bilinear(x: Tensor, w: Tensor, y: Tensor, sizes) -> Tensor:
    """Bilinear form x W y^T, ragged over the packed rows of B sentences.

    x is (N, dx), y (M, dy) and `sizes` (B, 2): sentence b owns sizes[b] =
    (n_b, m_b) rows of x and y, packed one sentence after another. With w of
    shape (dx, dy) each score is x_i^T W y_j; with w of shape (L, dx, dy) there
    is one such slice per label. The result is y-major: (B, m, n) or
    (B, L, m, n), m and n the largest m_b and n_b. Sentence b's scores fill its
    [..., :m_b, :n_b] block, x_i^T W_l y_j at [b, l, j, i] (j indexes y, i
    indexes x), and every other cell is 0 and passes no gradient. x W is one
    GEMM per label over the N rows; its product with y is one
    (m_b, dy) @ (L, dy, n_b) per sentence.
    """
    _check(x.ndim == 2 and y.ndim == 2, "bilinear",
           f"x and y must be matrices, got {x.shape}, {y.shape}")
    squeeze = w.ndim == 2
    w3 = w.data[None] if squeeze else w.data
    _check(w3.ndim == 3, "bilinear", f"w must be 2-D or 3-D, got {w.shape}")
    _check(w3.shape[1] == x.shape[1] and w3.shape[2] == y.shape[1], "bilinear",
           f"shape mismatch: x {x.shape}, w {w.shape}, y {y.shape}")
    counts = np.asarray(sizes, dtype=np.int64)
    _check(counts.ndim == 2 and counts.shape[1] == 2 and len(counts) > 0, "bilinear",
           f"sizes must be (B, 2), got shape {counts.shape}")
    ns, ms = counts.T.tolist()
    _check(min(ns + ms) >= 1 and sum(ns) == x.shape[0] and sum(ms) == y.shape[0], "bilinear",
           f"sizes must be positive and sum to ({x.shape[0]}, {y.shape[0]}) rows")
    # sentence b: its rows of x and of y, and its m_b x n_b block of the result
    blocks, x0, y0 = [], 0, 0
    for nb, mb in zip(ns, ms):
        blocks.append((slice(x0, x0 + nb), slice(y0, y0 + mb),
                       (slice(None), slice(mb), slice(nb))))
        x0, y0 = x0 + nb, y0 + mb
    xd, yd = x.data, y.data
    xw = xd @ w3  # (L, N, dy)
    data = np.zeros((len(blocks), w3.shape[0], max(ms), max(ns)))
    for out, (xs, ys, cell) in zip(data, blocks):
        np.matmul(yd[ys], xw[:, xs].transpose(0, 2, 1), out=out[cell])

    def backward(g):
        g4 = g[:, None] if squeeze else g  # (B, L, m, n)
        gxw = np.empty_like(xw)  # dL/d(xW), packed like xw
        gy = np.empty_like(yd)
        for gb, (xs, ys, cell) in zip(g4, blocks):
            gb = gb[cell]
            # G_l^T y per label, and the sum over labels of G_l (xW)_l; G_l^T goes to C
            # order, as a one-token sentence's strided row rounds differently in numpy
            np.matmul(np.ascontiguousarray(gb.transpose(0, 2, 1)), yd[ys], out=gxw[:, xs])
            gy[ys] = (gb @ xw[:, xs]).sum(axis=0)
        if x.requires_grad:
            _accumulate(x, (gxw @ w3.transpose(0, 2, 1)).sum(axis=0), owned=True)
        _accumulate_product(w, xd.T, gxw)
        _accumulate(y, gy, owned=True)

    return _result(data[:, 0] if squeeze else data, (x, w, y), backward)


# ---------------------------------------------------------------------------
# fused losses


def sigmoid_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Elementwise sigmoid cross-entropy with logits, log1p-stable.

    `targets` is a constant 0/1 array of the same shape. Returns the
    per-cell loss tensor; mask and reduce at the call site.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    _check(t.shape == logits.shape, "sigmoid_cross_entropy",
           f"targets shape {t.shape} != logits shape {logits.shape}")
    s = logits.data
    data = np.maximum(s, 0.0) - s * t + np.log1p(np.exp(-np.abs(s)))

    def backward(g):
        _accumulate(logits, g * (_sigmoid_stable(s) - t))

    return _result(data, (logits,), backward)


def softmax_cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Per-row softmax cross-entropy with logits, log-sum-exp stable.

    logits: (k, C); target_ids: (k,) integer class per row. Returns (k,) losses.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    _check(logits.ndim == 2, "softmax_cross_entropy", f"logits must be 2-D, got {logits.shape}")
    _check(ids.shape == (logits.shape[0],), "softmax_cross_entropy",
           f"target_ids shape {ids.shape} does not match {logits.shape[0]} rows")
    _check(ids.size == 0 or (ids.min() >= 0 and ids.max() < logits.shape[1]),
           "softmax_cross_entropy", "target id out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1)
    rows = np.arange(ids.size)
    data = np.log(denom) - z[rows, ids]

    def backward(g):
        p = e / denom[:, None]
        p[rows, ids] -= 1.0
        _accumulate(logits, p * g[:, None])

    return _result(data, (logits,), backward)


# ---------------------------------------------------------------------------
# fused LSTM over sequences packed row after row

_GATES = 4


@functools.lru_cache(maxsize=256)
def _packing(key: bytes, reverse: bool):
    """The step layout of one set of sequence lengths (the int64 bytes `key`).

    Returns (steps, bounds, k_0, src, prev): step t's cells are packed cells
    bounds[t]:bounds[t + 1], and k_0 sequences are live at step 0. Packed
    cell p is the r-th longest sequence still live at its step, and src[p] is
    its row in x; prev[p - k_0] is the packed cell of the same sequence one
    step earlier. The arrays are read-only, since every call with these
    lengths shares them. The memo holds 256 layouts: two pipeline-desk units
    of the bench at seed 7 look up 212 distinct keys. An entry holds two
    int64 arrays of the cells, so at the default 1000-token budget the memo
    stays under about 4 MB."""
    lengths = np.frombuffer(key, dtype=np.int64)
    cells = int(lengths.sum())
    order = np.argsort(-lengths, kind="stable")
    first = np.cumsum(lengths) - lengths
    steps = int(lengths.max())
    live = np.count_nonzero(lengths[order] > np.arange(steps)[:, None], axis=1)
    ends = np.cumsum(live)
    step_of = np.repeat(np.arange(steps), live)
    seq = order[np.arange(cells) - (ends - live)[step_of]]
    src = first[seq] + ((lengths[seq] - 1 - step_of) if reverse else step_of)
    prev = np.arange(live[0], cells) - live[step_of[live[0]:] - 1]
    src.flags.writeable = prev.flags.writeable = False
    return steps, (0, *ends.tolist()), int(live[0]), src, prev


@functools.lru_cache(maxsize=8)
def _gate_constants(hidden: int):
    """(half, offset) over the 4H gate axis. Halving the i|f|o pre-activations
    is exact, so tanh(half * z) * half + offset is sigmoid on those slices and
    tanh on the cell slice."""
    half = np.full(_GATES * hidden, 0.5, dtype=_DEFAULT_DTYPE)
    half[2 * hidden:3 * hidden] = 1.0
    offset = 1.0 - half
    half.flags.writeable = offset.flags.writeable = False
    return half, offset


def lstm_seq(x: Tensor, w: Tensor, u: Tensor, b: Tensor, lengths,
             reverse: bool = False, *, bw: tuple[Tensor, Tensor, Tensor] | None = None
             ) -> Tensor:
    """Run an LSTM over sequences packed row after row; returns all hidden states,
    (N, H), or (N, 2H) with `bw`.

    x is (N, d_in): sequence k sits on `lengths[k]` consecutive rows, in the
    order of `lengths`, which may be any order of positive values summing to
    N. The output has the same layout. The kernel takes the sequences longest
    first (a stable sort), so the k_t sequences still live at step t are the
    first k_t of that order and step t is one (k_t, H) x (H, 4H) GEMM. With
    `reverse` every sequence is read from its last row back to its first, and
    each state is returned on the row it was computed for. That packing is
    memoised per lengths and direction (`_packing`), so the layers of an
    encoder, which share their lengths, compute it once.

    `bw`, the (w, u, b) of a second direction, makes the call a BiLSTM layer:
    the second direction reads every sequence the other way, with the same H
    and d_in, and the result is (N, 2H), the first direction's states in the
    left half. Both directions run in one step loop. They share the step
    bounds and `prev`, since both take the same lengths longest first; only
    the rows they read (`src`) differ. The buffers are (cells, directions, .),
    so each step makes one `h @ U` product per direction into one scratch
    block and then runs every elementwise operation once for both. A call
    with `bw` gives, bit for bit, the output and gradients of two
    one-direction calls joined by `concat` (x's gradient arrives as one sum
    of the two directions' terms, so it matches wherever x feeds nothing
    else, as in `ParserModel.encode`). The input weight of the first
    direction stays the second positional argument, which the bench tracer
    labels its spans by.

    Gate layout in the 4H axis is input | forget | cell | output. Initial
    hidden and cell states are zero. The whole batch is one tape node. The
    cells are packed step by step (k_0 of step 0, then k_1 of step 1 ...), so
    the previous step's states are a contiguous block. Each forward step
    computes all four gates with one tanh over the 4H pre-activation, taking
    every sigmoid in its tanh form 0.5 + 0.5 tanh(z/2). Backward replays only
    the recurrence in reverse (exact BPTT), collecting the gate gradients dZ
    (one row per cell and direction); the input, weight and bias gradients
    are then one GEMM or sum each per direction over all cells: dX = dZ W^T,
    dW = X^T dZ, dU = H_prev^T dZ and db = sum dZ, each direction's dZ a
    strided view. dX sums the two directions' scatters.
    """
    weights = [(w, u, b)] if bw is None else [(w, u, b), tuple(bw)]
    xs, us = x.shape, u.shape
    for name, (wd, ud, bd) in zip(("", "bw "), weights):
        ws, bs = wd.shape, bd.shape
        if not (len(xs) == 2 and len(us) == 2 and us[1] == _GATES * us[0] and ud.shape == us
                and ws == (xs[1], us[1]) and bs == (us[1],)):
            raise AutodiffError(f"lstm_seq: expects x (N, d_in), w (d_in, 4H), u (H, 4H) and "
                                f"b (4H,), got x {xs}, {name}w {ws}, {name}u {ud.shape}, "
                                f"{name}b {bs}")
    cells, hidden, width, dirs = xs[0], us[0], us[1], len(weights)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not (lengths.ndim == 1 and lengths.size and lengths.min() >= 1
            and lengths.sum() == cells):
        raise AutodiffError(f"lstm_seq: lengths must be positive and sum to the {cells} "
                            f"rows of x, got {lengths.tolist()}")
    packs = [_packing(lengths.tobytes(), r) for r in (reverse, not reverse)[:dirs]]
    steps, bounds, live0, _, prev = packs[0]
    srcs = [pack[3] for pack in packs]

    dtype = x.data.dtype
    half, offset = _gate_constants(hidden)
    # the pre-activations x W + b, turned into the gates step by step
    gates = np.empty((cells, dirs, width), dtype=dtype)
    for d, ((wd, _, bd), src) in enumerate(zip(weights, srcs)):
        np.add(x.data[src] @ wd.data, bd.data, out=gates[:, d])
    gi, gf, gc, go = (gates[..., k * hidden:(k + 1) * hidden] for k in range(_GATES))
    cell = np.empty((cells, dirs, hidden), dtype=dtype)
    tc = np.empty((cells, dirs, hidden), dtype=dtype)
    out = np.empty((cells, dirs, hidden), dtype=dtype)
    recur = np.empty((live0, dirs, width), dtype=dtype)  # h @ U of every direction
    # per direction: its states, its block of `recur` and its U
    recurrent = [(out[:, d], recur[:, d], ud.data) for d, (_, ud, _) in enumerate(weights)]

    for t in range(steps):
        lo, hi = bounds[t], bounds[t + 1]
        a = gates[lo:hi]
        if t:
            before, k = bounds[t - 1], hi - lo
            for h, r, ud in recurrent:
                np.matmul(h[before:before + k], ud, out=r[:k])
            a += recur[:k]
        a *= half
        np.tanh(a, out=a)
        a *= half
        a += offset
        c = cell[lo:hi]
        np.multiply(gi[lo:hi], gc[lo:hi], out=c)
        if t:
            c += gf[lo:hi] * cell[before:before + k]
        np.tanh(c, out=tc[lo:hi])
        np.multiply(go[lo:hi], tc[lo:hi], out=out[lo:hi])

    def unpack(p):
        """(N, dirs * H) from the packed (cells, dirs, H): each state on its row."""
        full = np.empty_like(p)
        for d, src in enumerate(srcs):
            full[src, d] = p[:, d]
        return full.reshape(cells, -1)

    def backward(g):
        # All of the gate gradients but dh_t and dc_t is known before the loop:
        # dz[p, k] = coef[p, k] * dc_t for k = i, f, c and coef[p, o] * dh_t.
        # coef = (gc gi, c_in gf, gi, tc go) * (1-gi, 1-gf, 1-gc^2, 1-go), the
        # right-hand factors built in dz, which the loop overwrites; c_in is
        # the previous cell state, 0 at step 0.
        coef = np.empty((cells, dirs, width), dtype=dtype)
        dz = np.empty((cells, dirs, width), dtype=dtype)
        np.subtract(1.0, gates, out=dz)
        dz_c = dz[..., 2 * hidden:3 * hidden]
        np.multiply(gc, gc, out=dz_c)
        np.subtract(1.0, dz_c, out=dz_c)
        ci, cf, cc, co = (coef[..., k * hidden:(k + 1) * hidden] for k in range(_GATES))
        np.multiply(gc, gi, out=ci)
        cf[:live0] = 0.0
        np.take(cell, prev, axis=0, out=cf[live0:])
        cf *= gf
        np.copyto(cc, gi)
        np.multiply(tc, go, out=co)
        coef *= dz
        coef4, dz4 = (buf.reshape(cells, dirs, _GATES, hidden) for buf in (coef, dz))
        dtc = np.multiply(tc, tc)  # go (1 - tc^2)
        np.subtract(1.0, dtc, out=dtc)
        dtc *= go
        g = g.reshape(cells, dirs, hidden)
        g_live = np.empty((cells, dirs, hidden), dtype=dtype)
        for d, src in enumerate(srcs):
            g_live[:, d] = g[src, d]
        # sequences that are not live yet (in reverse time) keep zero dh and dc
        dh = np.zeros((live0, dirs, hidden), dtype=dtype)
        dc = np.zeros((live0, dirs, hidden), dtype=dtype)
        # per direction: its gate gradients (a strided view), its dh and U^T
        recurrent = [(dz[:, d], dh[:, d], ud.data.T) for d, (_, ud, _) in enumerate(weights)]
        for t in range(steps - 1, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            k = hi - lo
            dht = g_live[lo:hi] + dh[:k]
            dct = dc[:k] + dht * dtc[lo:hi]
            np.multiply(coef4[lo:hi, :, :3], dct[:, :, None], out=dz4[lo:hi, :, :3])
            np.multiply(coef4[lo:hi, :, 3], dht, out=dz4[lo:hi, :, 3])
            if t:
                for dz_d, dh_d, ud_t in recurrent:
                    np.matmul(dz_d[lo:hi], ud_t, out=dh_d[:k])
                np.multiply(dct, gf[lo:hi], out=dc[:k])
        if x.requires_grad:
            dx = np.empty((cells, xs[1]), dtype=dtype)
            dx[srcs[0]] = dz[:, 0] @ w.data.T
            if bw is not None:
                dx[srcs[1]] += dz[:, 1] @ weights[1][0].data.T
            _accumulate(x, dx, owned=True)
        for d, ((wd, ud, bd), src) in enumerate(zip(weights, srcs)):
            dz_d = dz[:, d]
            if wd.requires_grad:
                _accumulate_product(wd, x.data[src].T, dz_d)
            if ud.requires_grad:
                # zero when no sequence is longer than one step
                _accumulate_product(ud, out[prev, d].T, dz_d[live0:])
            if bd.requires_grad:
                _accumulate(bd, dz_d.sum(axis=0), owned=True)

    return _result(unpack(out), (x, *(p for triple in weights for p in triple)), backward)


# ---------------------------------------------------------------------------
# parameters and the Adam optimizer


class Parameter(Tensor):
    """A named trainable tensor with its gradient buffer, Adam moments and step counter.

    `data` is the parameter's own array. Its gradient buffer, `m` and `v` are
    views at one offset into three flat float64 arrays, one per role, shared
    by every parameter of a `parameter_set`; a standalone `Parameter` gets
    flat arrays of its own size. With one allocation per role, a model-sized
    np.empty or np.zeros maps lazily zeroed pages, so a model that never
    trains (one loaded to parse) neither fills nor touches its moments and
    gradient buffer; small per-parameter arrays would come from recycled heap
    and be zero-filled at once.

    `grad` is None or the buffer view. Backward writes a step's first gradient
    straight into the view and adds later ones to it. `adam_step` only reads
    it, but it stays valid only until the next `clear_grads` plus backward
    (which overwrites it); copy it to keep it.

    `m` and `v` are Adam's moments as unnormalised sums, M = b1 M + g and
    V = b2 V + g^2: the textbook m and v divided by (1-b1) and (1-b2). See
    `adam_step` for the update and its bound against the textbook form.
    """

    __slots__ = ("name", "m", "v", "step", "_flat", "_offset", "_buffer")

    def __init__(self, data, name: str = "", *, flat=None, offset: int = 0):
        # adopts `data` when it already is a C-contiguous float64 array
        super().__init__(np.ascontiguousarray(data, dtype=_DEFAULT_DTYPE), requires_grad=True)
        self.name = name
        size = self.data.size
        self._flat = _flat_state(size) if flat is None else flat
        self._offset = offset
        self._buffer, self.m, self.v = (a[offset:offset + size].reshape(self.data.shape)
                                        for a in self._flat)
        self.step = 0


def _flat_state(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat gradient buffer, m and v of `size` float64 elements each."""
    return np.empty(size), np.zeros(size), np.zeros(size)


def parameter_set(named_arrays: dict[str, np.ndarray]) -> dict[str, Parameter]:
    """Parameters over the named arrays, in the dict's order, sharing one flat
    gradient buffer, `m` and `v`, laid out in sorted-name order."""
    flat = _flat_state(sum(np.size(a) for a in named_arrays.values()))
    params, offset = {}, 0
    for name in sorted(named_arrays):
        params[name] = Parameter(named_arrays[name], name, flat=flat, offset=offset)
        offset += params[name].data.size
    return {name: params[name] for name in named_arrays}


# Elements per block of the in-place Adam update. A block of the gradient, both
# moments, the data and the scratch (5 x 128 KiB in float64) stays in L2 cache
# while the ten elementwise passes of the update run over it.
_ADAM_BLOCK = 1 << 14


def adam_step(params, lr: float, beta1: float, beta2: float, eps: float):
    """Bias-corrected Adam over parameters with populated gradients, with the
    bias corrections folded into the step size (Kingma & Ba 2015, section 2).

    Parameters whose gradient is unset are skipped (their moments and step
    counters do not advance); a gradient assigned from outside is first
    copied into the parameter's buffer. Walking `params` in order, each
    parameter joins the run of the one before it when it sits right after it
    in the same flat arrays and reaches the same step count. Each run is one
    blocked, in-place pass over its slices of the flat gradient buffer and
    moments, which builds each block's update in a scratch block and
    subtracts it from the parameters' data; the gradient is only read.
    Gradients are cleared.

    `m` and `v` hold the unnormalised sums M = m / (1-b1) and V = v / (1-b2)
    of the textbook moments m = b1 m + (1-b1) g and v = b2 v + (1-b2) g^2, so
    M = b1 M + g and V = b2 V + g^2. With k = sqrt((1-b2) / (1-b2^t)) and
    a = lr (1-b1) / ((1-b1^t) k), the update is a M / (sqrt(V) + eps / k),
    algebraically the textbook lr m_hat / (sqrt(v_hat) + eps): ten passes
    over a block and one division, where the textbook form takes fourteen
    and three. It rounds differently, so the result is not bit-identical to
    the textbook form. Over three steps with gradients from 1e-6 to 10 the
    data differ from it by at most 4 eps (|data| + 4 lr), (1-b1) M from m by
    at most 2 eps max|g| and (1-b2) V from v by at most 2 eps max g^2, eps
    the float64 machine epsilon and the maxima over the element's gradients
    (`test_adam_step_is_within_a_bound_of_the_textbook_form`).
    """
    scratch = np.empty(_ADAM_BLOCK, dtype=_DEFAULT_DTYPE)
    run: list[Parameter] = []
    for p in params:
        if p.grad is None:
            continue
        p.step += 1
        if not p.data.flags.c_contiguous:
            raise AutodiffError(f"adam_step: {p.name}: data must be C-contiguous to update "
                                "in place")
        if p.grad is not p._buffer:
            np.copyto(p._buffer, p.grad)
        p.grad = None
        if run:
            last = run[-1]
            if (p._flat is not last._flat or p.step != last.step
                    or p._offset != last._offset + last.data.size):
                _adam_run(run, scratch, lr, beta1, beta2, eps)
                run = []
        run.append(p)
    if run:
        _adam_run(run, scratch, lr, beta1, beta2, eps)


def _adam_run(run: list[Parameter], scratch: np.ndarray, lr: float, beta1: float,
              beta2: float, eps: float):
    """One Adam step over parameters that tile a slice of the same flat arrays.

    Blocks may span parameters. Each block's update is subtracted from the data
    of the parameters it covers while the block is still in cache."""
    lo = run[0]._offset
    grad, m, v = (a[lo:run[-1]._offset + run[-1].data.size] for a in run[0]._flat)
    parts = [(p._offset - lo, p.data.reshape(-1)) for p in run]  # C-contiguous: views
    step = run[0].step
    k = math.sqrt((1.0 - beta2) / (1.0 - beta2 ** step))
    alpha = lr * (1.0 - beta1) / ((1.0 - beta1 ** step) * k)
    eps_hat = eps / k
    at_part = 0
    for start in range(0, grad.size, _ADAM_BLOCK):
        stop = min(start + _ADAM_BLOCK, grad.size)
        g, mb, vb = grad[start:stop], m[start:stop], v[start:stop]
        s = scratch[:g.size]
        mb *= beta1
        mb += g
        np.multiply(g, g, out=s)
        vb *= beta2
        vb += s
        np.sqrt(vb, out=s)
        s += eps_hat
        np.divide(mb, s, out=s)
        s *= alpha
        while at_part < len(parts):  # data -= update, over the parameters the block covers
            at, data = parts[at_part]
            first, last = max(start, at), min(stop, at + data.size)
            data[first - at:last - at] -= s[first - start:last - start]
            if at + data.size > stop:
                break
            at_part += 1


def clear_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    worst: str
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def __str__(self):
        lines = [f"gradient check: max_rel_error={self.max_rel_error:.3e} "
                 f"tolerance={self.tolerance:.1e} "
                 f"{'PASS' if self.passed else 'FAIL'} (worst: {self.worst})"]
        for name in sorted(self.per_param):
            lines.append(f"  {name}: {self.per_param[name]:.3e}")
        return "\n".join(lines)


def gradient_check(closure, params, epsilon: float, tolerance: float) -> GradCheckReport:
    """Compare tape gradients against central differences, coordinate by coordinate.

    The closure must rebuild the loss from scratch on every call and be
    deterministic (dropout off or masks frozen); nondeterminism is detected
    by running it twice and is reported as an error.
    """
    params = list(params)
    with no_grad():
        first = float(closure().data)
        second = float(closure().data)
    if first != second:
        raise AutodiffError(
            f"closure is not deterministic: {first!r} != {second!r}; "
            "freeze dropout masks before checking gradients")

    clear_grads(params)
    loss = closure()
    loss.backward()
    analytic = {p.name or f"param{i}": (np.array(p.grad) if p.grad is not None
                                        else np.zeros_like(p.data))
                for i, p in enumerate(params)}
    clear_grads(params)

    worst = ""
    worst_err = 0.0
    per_param = {}
    for i, p in enumerate(params):
        name = p.name or f"param{i}"
        a = analytic[name].reshape(-1)
        err = 0.0
        for k in range(p.data.size):
            idx = np.unravel_index(k, p.data.shape)
            saved = p.data[idx]
            p.data[idx] = saved + epsilon
            with no_grad():
                up = float(closure().data)
            p.data[idx] = saved - epsilon
            with no_grad():
                down = float(closure().data)
            p.data[idx] = saved
            numeric = (up - down) / (2.0 * epsilon)
            rel = abs(a[k] - numeric) / max(abs(a[k]), abs(numeric), 1.0)
            if rel > err:
                err = rel
        per_param[name] = err
        if err >= worst_err:
            worst_err = err
            worst = name
    return GradCheckReport(worst_err, tolerance, worst, per_param)

