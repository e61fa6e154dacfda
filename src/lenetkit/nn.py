"""LeNet layer stack: forward passes and analytically exact backward passes.

Fixed architecture over [N, 1, 32, 32] inputs (valid convolutions, stride 1):

    conv1 6x1x5x5 -> sigmoid -> avgpool 2x2/2     [N,6,28,28] -> [N,6,14,14]
    conv2 16x6x5x5 -> sigmoid -> avgpool 2x2/2    [N,16,10,10] -> [N,16,5,5]
    flatten -> fc1 (400->120) -> sigmoid
            -> fc2 (120->84)  -> sigmoid
            -> fc_out (84->num_classes) -> softmax

"Convolution" is cross-correlation (no kernel flip), the usual CNN
convention; every backward formula below is the exact derivative of its
forward formula, which is what the finite-difference tests check.

Every convolution-side activation and gradient is stored batch-innermost, as
[C, H, W, N] memory (the layout of cuda-convnet), and passed around as its
[N, C, H, W]-shaped view ``transpose(3, 0, 1, 2)``; the layers read any other
layout too, with the same bits. Each convolution is a GEMM over the input's
column matrix (im2col), laid out as [C*kh*kw, Ho*Wo*N]: forward is kernel[O,
C*kh*kw] @ cols, already the output in batch-innermost order, and the kernel
gradient is dout[O, Ho*Wo*N] @ cols.T, with dout read in place. im2col and
col2im copy runs of Wo*N values.

A forward builds its columns in blocks of output rows, at most COLUMN_BYTES
(1 MB, a block that stays in L2) each, and writes each block's product
straight into its output. A model owns a ``Workspace`` of grow-only scratch
buffers that these GEMMs reuse across calls: one column buffer that conv1 and
conv2 share (so at most one column matrix is alive) and conv2's input-gradient
accumulator. A backward builds its columns again from the trace's inputs, so a
trace backpropagates exactly, and as often as asked, whatever ran after it.
conv1 needs no input gradient, so its kernel gradient is summed over the
forward's blocks of rows; conv2's backward builds its whole column matrix,
which its input-gradient GEMM then writes over, and that matrix sets the
column buffer's size in training. Every forward's activations and the
probabilities are fresh arrays, and so is every gradient: ``model_backward``
returns the parameters' gradients as a dict, which training hands straight to
the optimizer; the model holds no gradient state. ``model_backward`` runs each
sigmoid backward in place, in the fresh array that the layer above has just
returned. Training, ``evaluate`` and ``predict`` all run this one forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape, InvalidState

IMAGE_SIZE = 32
FLAT_FEATURES = 400  # 16 channels x 5 x 5 after the second pooling
COLUMN_BYTES = 1 << 20  # budget of one block of rows of a conv's columns


# ---------------------------------------------------------------------------
# parameters and model
# ---------------------------------------------------------------------------

def param_shapes(num_classes: int) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes in fixed model order."""
    return [
        ("conv1.kernel", (6, 1, 5, 5)),
        ("conv1.bias", (6,)),
        ("conv2.kernel", (16, 6, 5, 5)),
        ("conv2.bias", (16,)),
        ("fc1.weight", (FLAT_FEATURES, 120)),
        ("fc1.bias", (120,)),
        ("fc2.weight", (120, 84)),
        ("fc2.bias", (84,)),
        ("fc_out.weight", (84, num_classes)),
        ("fc_out.bias", (num_classes,)),
    ]


class Workspace:
    """Grow-only scratch buffers reused across calls, one flat buffer per role.

    ``take`` hands out a prefix of the role's buffer, so conv1 and conv2 share
    one column buffer and a small batch reuses a larger one's memory. Roles:
    "cols" for the convs' column matrices and "dx" for conv2's input gradient.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of ``shape`` on the role's buffer; its contents are undefined."""
        size = math.prod(shape)
        if role not in self.buffers or self.buffers[role].size < size:
            self.buffers.pop(role, None)  # free the old buffer before the larger one
            self.buffers[role] = np.empty(size)
        return self.buffers[role][:size].reshape(shape)


class LeNetModel:
    """The fixed layer stack plus its parameters, a map from name to float64 array.

    Parameters are owned by the model and mutated only by the optimizer.
    """

    def __init__(self, params: dict[str, np.ndarray], num_classes: int):
        expected = dict(param_shapes(num_classes))
        if params.keys() != expected.keys():
            raise InvalidShape(f"parameters missing or unknown to the model:"
                               f" {sorted(params.keys() ^ expected.keys())}")
        for name, shape in expected.items():
            if params[name].shape != shape or params[name].dtype != np.float64:
                raise InvalidShape(
                    f"parameter {name!r} is {params[name].dtype} of shape"
                    f" {params[name].shape}, expected float64 of shape {shape}"
                )
        self.params = {name: params[name] for name in expected}
        self.num_classes = num_classes
        self.workspace = Workspace()


def init_params(seed: int, num_classes: int = 3) -> LeNetModel:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each weight is drawn from Uniform(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)); for conv kernels fan counts include the 5x5 receptive field.
    Glorot keeps the sigmoid layers out of their saturated tails at the
    start of training.
    """
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(num_classes):
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            if len(shape) == 4:  # conv kernel [Cout, Cin, kh, kw]
                cout, cin, kh, kw = shape
                fan_in, fan_out = cin * kh * kw, cout * kh * kw
            else:  # dense weight [In, Out]
                fan_in, fan_out = shape
            a = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-a, a, size=shape)
    return LeNetModel(params, num_classes)


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def _columns(x: np.ndarray, kh: int, kw: int, ws: Workspace,
             start: int, stop: int) -> np.ndarray:
    """im2col of output rows start to stop into the workspace's column
    buffer: cols[C*kh*kw, R*Wo*N] with R = stop - start.

    Row (c,u,v), column (i,j,n) is x[n,c,start+i+u,j+v]. The copy reads
    x's sliding windows as a strided view [C,kh,kw,R,Wo,N]; for a
    batch-innermost x it runs along (j, n), Wo*N contiguous values at a time.
    """
    n, c, _, w = x.shape
    wo = w - kw + 1
    cols = ws.take("cols", (c, kh, kw, stop - start, wo, n))
    sn, sc, sh, sw = x.strides
    np.copyto(cols, np.lib.stride_tricks.as_strided(
        x[:, :, start:], cols.shape, (sc, sh, sw, sh, sw, sn), writeable=False))
    return cols.reshape(c * kh * kw, (stop - start) * wo * n)


def _conv_dims(x: np.ndarray, kernel: np.ndarray) -> tuple[int, ...]:
    """(N, C, H, W, O, kh, kw) of a valid cross-correlation of x with kernel."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise InvalidShape("conv2d expects x[N,C,H,W] and kernel[O,C,kh,kw]")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise InvalidShape(f"channel mismatch: x has {cin}, kernel expects {cin_k}")
    if kh > h or kw > w:
        raise InvalidShape(f"kernel {kh}x{kw} larger than input {h}x{w}")
    return n, cin, h, w, cout, kh, kw


def _row_blocks(kernel: np.ndarray, out_shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, stop) of each block of a conv's output rows: as many rows as fit
    in COLUMN_BYTES of columns, at least one."""
    n, _, ho, wo = out_shape
    rows = max(1, COLUMN_BYTES // max(8 * kernel[0].size * wo * n, 1))
    return [(start, min(start + rows, ho)) for start in range(0, ho, rows)]


def _param_grads(x: np.ndarray, kernel: np.ndarray, dout: np.ndarray, ws: Workspace,
                 blocks: list[tuple[int, int]]):
    """(cols, dout_mat, dkernel, dbias) of a conv of x, its columns built one
    (start, stop) block of output rows at a time; cols is the last block's.

    dout_mat is dout as a C-contiguous [O, Ho*Wo*N], a view when dout is
    batch-innermost; dL/dk is the sum over blocks of dout_mat's block of
    columns @ cols.T, and dL/db[o] = sum_{n,i,j} dout[n,o,i,j].
    """
    n, cout, _, wo = dout.shape
    dout_mat = np.ascontiguousarray(dout.transpose(1, 2, 3, 0)).reshape(cout, -1)
    for start, stop in blocks:
        cols = _columns(x, *kernel.shape[2:], ws, start, stop)
        part = dout_mat[:, start * wo * n:stop * wo * n] @ cols.T
        if start == 0:
            dkernel = part
        else:
            dkernel += part
    return cols, dout_mat, dkernel.reshape(kernel.shape), dout_mat.sum(axis=1)


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, *,
                   workspace: Workspace | None = None) -> np.ndarray:
    """Valid cross-correlation.

    out[n,o,i,j] = bias[o] + sum_{c,u,v} x[n,c,i+u,j+v] * kernel[o,c,u,v]

    Computed as kernel[O, C*kh*kw] @ cols in ``workspace`` (a fresh one if
    None), one block of output rows at a time: a block has as many rows as
    fit in COLUMN_BYTES of columns, at least one, and its GEMM writes straight
    into those rows of the output.

    The result is the [N,O,Ho,Wo] view ``out.transpose(3, 0, 1, 2)`` of a
    fresh C-contiguous batch-innermost [O,Ho,Wo,N] array ``out``.
    """
    n, cin, h, w, cout, kh, kw = _conv_dims(x, kernel)
    if bias.shape != (cout,):
        raise InvalidShape(f"bias shape {bias.shape} != ({cout},)")
    ho, wo = h - kh + 1, w - kw + 1
    out = np.empty((cout, ho, wo, n))
    ws = Workspace() if workspace is None else workspace
    k = kernel.reshape(cout, -1)
    for start, stop in _row_blocks(kernel, (n, cout, ho, wo)):
        block = out[:, start:stop].reshape(cout, (stop - start) * wo * n)
        np.matmul(k, _columns(x, kh, kw, ws, start, stop), out=block)
        block += bias[:, None]
    return out.transpose(3, 0, 1, 2)


def conv2d_backward(x: np.ndarray, kernel: np.ndarray, dout: np.ndarray, *,
                    workspace: Workspace | None = None):
    """Exact gradients of ``conv2d_forward``: (dx, dkernel, dbias).

    dL/dx is col2im of dcols[c,u,v,i,j,n] = sum_o kernel[o,c,u,v] * dout[n,o,i,j],
    one GEMM written over the spent columns: window element (i,j,u,v) adds
    back onto x[n,c,i+u,j+v], Wo*N values at a time. dx is summed in the
    workspace's batch-innermost "dx" buffer and returned as its [N,C,H,W]
    view, which the workspace's next ``conv2d_backward`` overwrites. The
    columns are built here, in the workspace's column buffer.
    """
    n, cin, h, w, cout, kh, kw = _conv_dims(x, kernel)
    ho, wo = h - kh + 1, w - kw + 1
    if dout.shape != (n, cout, ho, wo):
        raise InvalidShape(f"dout shape {dout.shape} != output shape {(n, cout, ho, wo)}")
    ws = Workspace() if workspace is None else workspace
    cols, dout_mat, dkernel, dbias = _param_grads(x, kernel, dout, ws, [(0, ho)])
    dcols = np.matmul(kernel.reshape(cout, -1).T, dout_mat, out=cols)  # columns are spent
    dcols = dcols.reshape(cin, kh, kw, ho, wo, n)
    dx = ws.take("dx", (cin, h, w, n))
    dx.fill(0.0)
    for u in range(kh):
        for v in range(kw):
            dx[:, u:u + ho, v:v + wo] += dcols[:, u, v]
    return dx.transpose(3, 0, 1, 2), dkernel, dbias


def avgpool2d_forward(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 average pooling with stride 2; H and W must be even.

    ``out``, if given, is an [N,C,H/2,W/2] array (of any strides) written and
    returned in place of a fresh one.
    """
    if x.ndim != 4:
        raise InvalidShape("avgpool2d expects x[N,C,H,W]")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise InvalidShape(f"avgpool2d needs even spatial dims, got {h}x{w}")
    out = np.add(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], out=out)
    out += x[:, :, 1::2, 0::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25
    return out


def avgpool2d_backward(x_shape: tuple[int, ...], dout: np.ndarray) -> np.ndarray:
    """Spread each upstream element as dout/4 over its 2x2 source window."""
    n, c, h, w = x_shape
    if dout.shape != (n, c, h // 2, w // 2):
        raise InvalidShape(
            f"dout shape {dout.shape} != pooled shape {(n, c, h // 2, w // 2)}"
        )
    dx = np.empty((c, h, w, n)).transpose(3, 0, 1, 2)  # batch-innermost
    np.multiply(dout, 0.25, out=dx[:, :, ::2, ::2])  # == dout / 4.0 exactly
    dx[:, :, ::2, 1::2] = dx[:, :, ::2, ::2]
    dx[:, :, 1::2] = dx[:, :, ::2]
    return dx


def sigmoid_forward(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """y = 1 / (1 + exp(-x)) as 0.5 * tanh(0.5 * x) + 0.5, in one float64 buffer.

    tanh saturates, so no finite x overflows. The tail is accurate in absolute
    terms only: sigmoid(-40) returns 0, not 4.2e-18. No caller divides by a
    sigmoid output, since the losses work from logits. The buffer is ``out``
    if given (``out=x`` runs in place), else a fresh array.
    """
    out = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid_backward(y: np.ndarray, dy: np.ndarray, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """dx = (dy * y) * (1 - y), with y the cached forward output.

    dx is ``out`` if given (``out=dy`` runs in place), else a fresh array;
    either way it holds the same bits.
    """
    if y.shape != dy.shape:
        raise InvalidShape(f"dy shape {dy.shape} != y shape {y.shape}")
    out = np.multiply(dy, y, out=out)
    out *= 1.0 - y
    return out


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out = x . w + b with the bias broadcast over rows."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise InvalidShape("dense expects x[N,In], w[In,Out], b[Out]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise InvalidShape(
            f"dense shapes disagree: x{x.shape}, w{w.shape}, b{b.shape}"
        )
    return x @ w + b[None, :]


def dense_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """dw = x^T . dout; dx = dout . w^T; db = column sums of dout."""
    if dout.shape != (x.shape[0], w.shape[1]):
        raise InvalidShape(
            f"dout shape {dout.shape} != output shape {(x.shape[0], w.shape[1])}"
        )
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-shift for numerical stability."""
    if z.ndim != 2:
        raise InvalidShape("softmax expects logits[N,K]")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# whole-model forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Cached activations one forward pass leaves behind for backward.

    Any number of backwards of the model that made it may read it, at any
    time; a backward of another model raises ``InvalidState``. The fields up
    to ``sig2`` are [N,C,H,W] views of batch-innermost arrays, and ``flat`` is
    the [N,400] view of one.
    The probabilities are not a field: backward needs only the logits, and
    ``model_forward`` returns them beside the trace.
    """

    x: np.ndarray        # [N,1,32,32] model input
    sig1: np.ndarray     # [N,6,28,28] first sigmoid output (= pool1 input)
    pool1: np.ndarray    # [N,6,14,14] conv2 input
    sig2: np.ndarray     # [N,16,10,10] second sigmoid output (= pool2 input)
    flat: np.ndarray     # [N,400] fc1 input
    sig3: np.ndarray     # [N,120]
    sig4: np.ndarray     # [N,84]
    logits: np.ndarray   # [N,K] pre-softmax
    model: LeNetModel    # the model whose forward made this trace


def model_forward(model: LeNetModel, x: np.ndarray):
    """Run the full stack; returns (probs[N,K], trace).

    The input must be exactly [N, 1, 32, 32]; anything else raises rather
    than cropping or padding. Every activation is a fresh array, so the
    trace stays valid for ``model_backward`` whatever runs in between;
    a caller that needs only ``probs`` or ``trace.logits`` drops it.
    """
    if x.ndim != 4 or x.shape[1:] != (1, IMAGE_SIZE, IMAGE_SIZE):
        raise InvalidShape(
            f"model input must be [N,1,{IMAGE_SIZE},{IMAGE_SIZE}], got {x.shape}"
        )
    # batch-innermost, copied only when it is not already
    x = np.ascontiguousarray(
        np.asarray(x, dtype=np.float64).transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    n = x.shape[0]
    p = model.params
    ws = model.workspace

    sig1 = conv2d_forward(x, p["conv1.kernel"], p["conv1.bias"], workspace=ws)
    sigmoid_forward(sig1, out=sig1)
    pool1 = avgpool2d_forward(sig1, out=np.empty((6, 14, 14, n)).transpose(3, 0, 1, 2))
    sig2 = conv2d_forward(pool1, p["conv2.kernel"], p["conv2.bias"], workspace=ws)
    sigmoid_forward(sig2, out=sig2)
    flat = np.empty((FLAT_FEATURES, n)).T
    avgpool2d_forward(sig2, out=flat.T.reshape(16, 5, 5, n).transpose(3, 0, 1, 2))
    sig3 = sigmoid_forward(dense_forward(flat, p["fc1.weight"], p["fc1.bias"]))
    sig4 = sigmoid_forward(dense_forward(sig3, p["fc2.weight"], p["fc2.bias"]))
    logits = dense_forward(sig4, p["fc_out.weight"], p["fc_out.bias"])
    probs = softmax(logits)

    trace = ForwardTrace(x=x, sig1=sig1, pool1=pool1, sig2=sig2, flat=flat,
                         sig3=sig3, sig4=sig4, logits=logits, model=model)
    return probs, trace


def model_backward(model: LeNetModel, trace: ForwardTrace | None,
                   upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate through the whole stack; returns each parameter's gradient.

    ``upstream`` is the gradient w.r.t. the pre-softmax logits, what the fused
    losses emit. The result maps every parameter name, in ``param_shapes``
    order, to a fresh array that shares no memory with the model, its
    workspace or the trace.
    """
    if trace is None:
        raise InvalidState("forward trace is missing")
    if trace.model is not model:
        raise InvalidState("forward trace was made by another model")
    if upstream.shape != trace.logits.shape:
        raise InvalidShape(
            f"upstream shape {upstream.shape} != logits shape {trace.logits.shape}"
        )
    p = model.params
    ws = model.workspace
    g: dict[str, np.ndarray] = {}

    dsig4, g["fc_out.weight"], g["fc_out.bias"] = dense_backward(
        trace.sig4, p["fc_out.weight"], upstream)
    df2 = sigmoid_backward(trace.sig4, dsig4, out=dsig4)
    dsig3, g["fc2.weight"], g["fc2.bias"] = dense_backward(trace.sig3, p["fc2.weight"], df2)
    df1 = sigmoid_backward(trace.sig3, dsig3, out=dsig3)
    dflat, g["fc1.weight"], g["fc1.bias"] = dense_backward(trace.flat, p["fc1.weight"], df1)

    dpool2 = dflat.reshape(trace.sig2.shape[0], 16, 5, 5)
    dsig2 = avgpool2d_backward(trace.sig2.shape, dpool2)
    dconv2 = sigmoid_backward(trace.sig2, dsig2, out=dsig2)
    dpool1, g["conv2.kernel"], g["conv2.bias"] = conv2d_backward(
        trace.pool1, p["conv2.kernel"], dconv2, workspace=ws)
    dsig1 = avgpool2d_backward(trace.sig1.shape, dpool1)
    dconv1 = sigmoid_backward(trace.sig1, dsig1, out=dsig1)
    kernel = p["conv1.kernel"]  # conv1 needs no dx: its columns come a block at a time
    *_, g["conv1.kernel"], g["conv1.bias"] = _param_grads(
        trace.x, kernel, dconv1, ws, _row_blocks(kernel, dconv1.shape))
    return {name: g[name] for name in p}  # in parameter order
