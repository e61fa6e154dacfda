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

Each convolution is a GEMM over the input's column matrix (im2col), laid out
as [C*kh*kw, N*Ho*Wo] as in Caffe: forward is kernel[O, C*kh*kw] @ cols, and
the kernel gradient is dout[O, N*Ho*Wo] @ cols.T. A model owns a
``Workspace`` of grow-only scratch buffers that these GEMMs reuse across
calls: one column buffer that conv1 and conv2 share (so at most one column
matrix is alive), dout as [O, N*Ho*Wo], and conv2's input-gradient
accumulator. The workspace records whose columns the buffer holds: a backward
reuses the columns its forward left there and builds any others from its input,
so any unconsumed trace backpropagates exactly. A traced forward's activations,
the probabilities and the gradients are fresh arrays; the elementwise backward
layers make one output-sized array each and work in it in place.

A forward-only pass (``model_forward(..., for_backward=False)``, which
``evaluate`` and ``predict`` run) keeps its activations in workspace buffers
too, and builds each conv's columns at most CONV_BLOCK = 8 images at a time
(1.25 MB for conv1, a block that stays in L2). No backward can read its trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShape, InvalidState

IMAGE_SIZE = 32
FLAT_FEATURES = 400  # 16 channels x 5 x 5 after the second pooling
CONV_BLOCK = 8  # images per column block when conv2d_forward is given ``out``


# ---------------------------------------------------------------------------
# parameters and model
# ---------------------------------------------------------------------------

@dataclass
class Param:
    """A named weight tensor paired with its gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        if self.grad.shape != self.value.shape:
            raise InvalidShape(
                f"grad shape {self.grad.shape} != value shape {self.value.shape}"
                f" for param {self.name!r}"
            )


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
    "cols", "dout_t" and "dx" for the convs, and "sig1", "pool1", "sig2" and
    "flat" for a forward-only pass's activations.
    ``holds`` is the (x, kh, kw) whose columns the column buffer holds, or None.
    """

    def __init__(self):
        self.holds = None
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of ``shape`` on the role's buffer; its contents are undefined."""
        size = math.prod(shape)
        if role not in self.buffers or self.buffers[role].size < size:
            self.buffers.pop(role, None)  # free the old buffer before the larger one
            self.buffers[role] = np.empty(size)
        return self.buffers[role][:size].reshape(shape)


class LeNetModel:
    """The fixed layer stack plus its parameters.

    Parameters are owned by the model and mutated only by ``model_backward``
    (gradients) and the optimizer (values).
    """

    def __init__(self, params: dict[str, Param], num_classes: int):
        expected = dict(param_shapes(num_classes))
        if params.keys() != expected.keys():
            raise InvalidShape(f"parameters missing or unknown to the model:"
                               f" {sorted(params.keys() ^ expected.keys())}")
        for name, shape in expected.items():
            if params[name].value.shape != shape:
                raise InvalidShape(
                    f"parameter {name!r} has shape {params[name].value.shape},"
                    f" expected {shape}"
                )
        self.params = {name: params[name] for name in expected}
        self.num_classes = num_classes
        self.workspace = Workspace()

    def param_list(self) -> list[Param]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Param:
        return self.params[name]


def init_params(seed: int, num_classes: int = 3) -> LeNetModel:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each weight is drawn from Uniform(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)); for conv kernels fan counts include the 5x5 receptive field.
    Glorot keeps the sigmoid layers out of their saturated tails at the
    start of training.
    """
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    params: dict[str, Param] = {}
    for name, shape in param_shapes(num_classes):
        if name.endswith(".bias"):
            value = np.zeros(shape, dtype=np.float64)
        else:
            if len(shape) == 4:  # conv kernel [Cout, Cin, kh, kw]
                cout, cin, kh, kw = shape
                fan_in, fan_out = cin * kh * kw, cout * kh * kw
            else:  # dense weight [In, Out]
                fan_in, fan_out = shape
            a = math.sqrt(6.0 / (fan_in + fan_out))
            value = rng.uniform(-a, a, size=shape)
        params[name] = Param(name, value, np.zeros(shape, dtype=np.float64))
    return LeNetModel(params, num_classes)


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def _columns(x: np.ndarray, kh: int, kw: int, ws: Workspace) -> np.ndarray:
    """im2col into the workspace's column buffer: cols[C*kh*kw, N*Ho*Wo].

    Row (c,u,v), column (n,i,j) holds x[n,c,i+u,j+v]. The copy reads x's
    sliding windows as a strided view [C,kh,kw,N,Ho,Wo] and runs along j, Wo
    contiguous values at a time. It is skipped when the buffer's record says
    it holds these columns already.
    """
    n, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    cols = ws.take("cols", (c, kh, kw, n, ho, wo))
    if ws.holds is None or ws.holds[0] is not x or ws.holds[1:] != (kh, kw):
        sn, sc, sh, sw = x.strides
        np.copyto(cols, np.lib.stride_tricks.as_strided(
            x, cols.shape, (sc, sh, sw, sn, sh, sw), writeable=False))
        ws.holds = (x, kh, kw)
    return cols.reshape(c * kh * kw, n * ho * wo)


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


def _param_grads(cols: np.ndarray, kernel: np.ndarray, dout: np.ndarray,
                 ws: Workspace):
    """(dout_t, dkernel, dbias) of a conv from its input's column matrix.

    dout_t is dout as [O, N*Ho*Wo] in the workspace; dL/dk = dout_t @ cols.T
    and dL/db[o] = sum_{n,i,j} dout[n,o,i,j].
    """
    n, cout, ho, wo = dout.shape
    dout_t = ws.take("dout_t", (cout, n, ho, wo))
    np.copyto(dout_t, dout.transpose(1, 0, 2, 3))
    dout_t = dout_t.reshape(cout, n * ho * wo)
    return dout_t, (dout_t @ cols.T).reshape(kernel.shape), dout_t.sum(axis=1)


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, *,
                   workspace: Workspace | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Valid cross-correlation.

    out[n,o,i,j] = bias[o] + sum_{c,u,v} x[n,c,i+u,j+v] * kernel[o,c,u,v]

    Computed as kernel[O, C*kh*kw] @ cols in ``workspace`` (a fresh one if
    None), which holds x's columns afterwards. They are always rebuilt: a
    caller may have refilled x in place since the buffer's record was made.

    Given ``out``, a C-contiguous channel-major [O,N,Ho,Wo] array, the
    columns are built one block of images at a time and each block's GEMM
    writes straight into out[:, block]; the workspace holds no columns
    afterwards, and the result is the [N,O,Ho,Wo] view ``out.transpose(1, 0,
    2, 3)``. Blocks hold CONV_BLOCK images, except that a last block shorter
    than half a block takes half a block from the one before. The values are
    those of the call without ``out``, and for LeNet's convs the bits too:
    every block but the last spans whole 16-column register tiles (4 conv2
    images are 400 columns), and no 1- or 3-image conv2 GEMM, whose ragged
    end OpenBLAS's small-matrix kernel rounds differently, follows a wider one.
    """
    n, cin, h, w, cout, kh, kw = _conv_dims(x, kernel)
    if bias.shape != (cout,):
        raise InvalidShape(f"bias shape {bias.shape} != ({cout},)")
    ws = Workspace() if workspace is None else workspace
    ws.holds = None
    ho, wo = h - kh + 1, w - kw + 1
    k = kernel.reshape(cout, -1)
    if out is None:
        out_t = k @ _columns(x, kh, kw, ws)
        out = np.ascontiguousarray(out_t.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3))
        out += bias[None, :, None, None]  # in place: no second output-sized array
        return out
    if out.shape != (cout, n, ho, wo) or not out.flags.c_contiguous:
        raise InvalidShape(f"out must be a C-contiguous {(cout, n, ho, wo)} array,"
                           f" got {out.shape}")
    starts = list(range(0, n, CONV_BLOCK))
    if n > CONV_BLOCK and n - starts[-1] < CONV_BLOCK // 2:
        starts[-1] -= CONV_BLOCK // 2
    for start, stop in zip(starts, starts[1:] + [n]):
        block = out[:, start:stop]
        np.matmul(k, _columns(x[start:stop], kh, kw, ws), out=block.reshape(cout, -1))
        block += bias[:, None, None, None]
    ws.holds = None  # the buffer holds only the last block's columns
    return out.transpose(1, 0, 2, 3)


def conv2d_backward(x: np.ndarray, kernel: np.ndarray, dout: np.ndarray, *,
                    workspace: Workspace | None = None):
    """Exact gradients of ``conv2d_forward``: (dx, dkernel, dbias).

    dL/dx is col2im of dcols[c,u,v,n,i,j] = sum_o kernel[o,c,u,v] * dout[n,o,i,j],
    one GEMM written over the spent columns: window element (i,j,u,v) adds
    back onto x[n,c,i+u,j+v]. dx is summed in [C,N,H,W] order, the layout
    dcols is in, and transposed once at the end.

    The columns come from ``workspace`` when its record says it holds x's
    for this kernel size; otherwise they are built here.
    """
    n, cin, h, w, cout, kh, kw = _conv_dims(x, kernel)
    ho, wo = h - kh + 1, w - kw + 1
    if dout.shape != (n, cout, ho, wo):
        raise InvalidShape(f"dout shape {dout.shape} != output shape {(n, cout, ho, wo)}")
    ws = Workspace() if workspace is None else workspace
    cols = _columns(x, kh, kw, ws)
    dout_t, dkernel, dbias = _param_grads(cols, kernel, dout, ws)
    ws.holds = None
    dcols = np.matmul(kernel.reshape(cout, -1).T, dout_t, out=cols)  # columns are spent
    dcols = dcols.reshape(cin, kh, kw, n, ho, wo)
    dx = ws.take("dx", (cin, n, h, w))
    dx.fill(0.0)
    for u in range(kh):
        for v in range(kw):
            dx[:, :, u:u + ho, v:v + wo] += dcols[:, u, v]
    return np.ascontiguousarray(dx.transpose(1, 0, 2, 3)), dkernel, dbias


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
    dx = np.empty(x_shape)  # dout * 0.25 == dout / 4.0 exactly: a power of two
    np.multiply(dout, 0.25, out=dx[:, :, ::2, ::2])
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


def sigmoid_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx = dy * y * (1 - y), with y the cached forward output."""
    if y.shape != dy.shape:
        raise InvalidShape(f"dy shape {dy.shape} != y shape {y.shape}")
    dx = dy * y
    dx *= 1.0 - y  # in place: (dy * y) * (1 - y), one output-sized array
    return dx


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

    Consumed exactly once, by a backward of the model that made it, at any
    time: a second backward from the same trace, or a backward of another
    model, raises ``InvalidState``.
    """

    x: np.ndarray        # [N,1,32,32] model input
    sig1: np.ndarray     # [N,6,28,28] first sigmoid output (= pool1 input)
    pool1: np.ndarray    # [N,6,14,14] conv2 input
    sig2: np.ndarray     # [N,16,10,10] second sigmoid output (= pool2 input)
    flat: np.ndarray     # [N,400] fc1 input
    sig3: np.ndarray     # [N,120]
    sig4: np.ndarray     # [N,84]
    logits: np.ndarray   # [N,K] pre-softmax
    probs: np.ndarray    # [N,K]
    model: LeNetModel    # the model whose forward made this trace
    consumed: bool = field(default=False)


def model_forward(model: LeNetModel, x: np.ndarray, *, for_backward: bool = True):
    """Run the full stack; returns (probs[N,K], trace).

    The input must be exactly [N, 1, 32, 32]; anything else raises rather
    than cropping or padding.

    With ``for_backward=False`` the pass is forward-only: each conv writes
    its output block by block into a channel-major [C,N,H,W] buffer of the
    model's workspace and its sigmoid runs there in place; pool1 and pool2
    write workspace buffers too, pool2 straight into ``flat``. The trace is
    born consumed, so ``model_backward`` refuses it; its activations up to
    ``flat`` are views of those buffers, which the model's next forward-only
    pass overwrites. ``logits`` and ``probs`` are fresh arrays, with the bits
    of the traced pass.
    """
    if x.ndim != 4 or x.shape[1:] != (1, IMAGE_SIZE, IMAGE_SIZE):
        raise InvalidShape(
            f"model input must be [N,1,{IMAGE_SIZE},{IMAGE_SIZE}], got {x.shape}"
        )
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    p = model.params
    ws = model.workspace

    if for_backward:
        sig1 = sigmoid_forward(conv2d_forward(x, p["conv1.kernel"].value,
                                              p["conv1.bias"].value, workspace=ws))
        pool1 = avgpool2d_forward(sig1)
        sig2 = sigmoid_forward(conv2d_forward(pool1, p["conv2.kernel"].value,
                                              p["conv2.bias"].value, workspace=ws))
        flat = avgpool2d_forward(sig2).reshape(n, FLAT_FEATURES)
    else:
        sig1 = conv2d_forward(x, p["conv1.kernel"].value, p["conv1.bias"].value,
                              workspace=ws, out=ws.take("sig1", (6, n, 28, 28)))
        sigmoid_forward(sig1, out=sig1)
        pool1 = avgpool2d_forward(
            sig1, out=ws.take("pool1", (6, n, 14, 14)).transpose(1, 0, 2, 3))
        sig2 = conv2d_forward(pool1, p["conv2.kernel"].value, p["conv2.bias"].value,
                              workspace=ws, out=ws.take("sig2", (16, n, 10, 10)))
        sigmoid_forward(sig2, out=sig2)
        flat = ws.take("flat", (n, FLAT_FEATURES))
        avgpool2d_forward(sig2, out=flat.reshape(n, 16, 5, 5))
    sig3 = sigmoid_forward(dense_forward(flat, p["fc1.weight"].value,
                                         p["fc1.bias"].value))
    sig4 = sigmoid_forward(dense_forward(sig3, p["fc2.weight"].value,
                                         p["fc2.bias"].value))
    logits = dense_forward(sig4, p["fc_out.weight"].value, p["fc_out.bias"].value)
    probs = softmax(logits)

    trace = ForwardTrace(x=x, sig1=sig1, pool1=pool1, sig2=sig2, flat=flat,
                         sig3=sig3, sig4=sig4, logits=logits, probs=probs,
                         model=model, consumed=not for_backward)
    return probs, trace


def model_backward(model: LeNetModel, trace: ForwardTrace | None,
                   upstream: np.ndarray) -> None:
    """Backpropagate through the whole stack, overwriting every Param.grad.

    ``upstream`` is the gradient w.r.t. the pre-softmax logits, what the fused
    losses emit. Gradients are overwritten, not accumulated; the optimizer
    relies on that.
    """
    if trace is None or trace.consumed:
        raise InvalidState("forward trace is missing or already consumed")
    if trace.model is not model:
        raise InvalidState("forward trace was made by another model")
    if upstream.shape != trace.logits.shape:
        raise InvalidShape(
            f"upstream shape {upstream.shape} != logits shape {trace.logits.shape}"
        )
    trace.consumed = True
    p = model.params
    ws = model.workspace

    dsig4, dw, db = dense_backward(trace.sig4, p["fc_out.weight"].value, upstream)
    p["fc_out.weight"].grad[...] = dw
    p["fc_out.bias"].grad[...] = db

    df2 = sigmoid_backward(trace.sig4, dsig4)
    dsig3, dw, db = dense_backward(trace.sig3, p["fc2.weight"].value, df2)
    p["fc2.weight"].grad[...] = dw
    p["fc2.bias"].grad[...] = db

    df1 = sigmoid_backward(trace.sig3, dsig3)
    dflat, dw, db = dense_backward(trace.flat, p["fc1.weight"].value, df1)
    p["fc1.weight"].grad[...] = dw
    p["fc1.bias"].grad[...] = db

    dpool2 = dflat.reshape(trace.sig2.shape[0], 16, 5, 5)
    dsig2 = avgpool2d_backward(trace.sig2.shape, dpool2)
    dconv2 = sigmoid_backward(trace.sig2, dsig2)
    dpool1, dk, db = conv2d_backward(trace.pool1, p["conv2.kernel"].value, dconv2,
                                     workspace=ws)
    p["conv2.kernel"].grad[...] = dk
    p["conv2.bias"].grad[...] = db

    dsig1 = avgpool2d_backward(trace.sig1.shape, dpool1)
    dconv1 = sigmoid_backward(trace.sig1, dsig1)
    kernel = p["conv1.kernel"].value  # conv1 needs no dx; its columns are rebuilt
    _, dk, db = _param_grads(_columns(trace.x, *kernel.shape[2:], ws), kernel,
                             dconv1, ws)
    p["conv1.kernel"].grad[...] = dk
    p["conv1.bias"].grad[...] = db
