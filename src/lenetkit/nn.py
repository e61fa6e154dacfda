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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShape, InvalidState

IMAGE_SIZE = 32
FLAT_FEATURES = 400  # 16 channels x 5 x 5 after the second pooling


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

def _windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col as a strided view: windows[n,c,i,j,u,v] = x[n,c,i+u,j+v].

    Conv forward and the kernel gradient read this one view, and the input
    gradient scatters back through it (col2im, its adjoint); no unfolded copy
    of x is made.
    """
    return np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation.

    out[n,o,i,j] = bias[o] + sum_{c,u,v} x[n,c,i+u,j+v] * kernel[o,c,u,v]
    """
    if x.ndim != 4 or kernel.ndim != 4 or bias.ndim != 1:
        raise InvalidShape("conv2d expects x[N,C,H,W], kernel[O,C,kh,kw], bias[O]")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k or bias.shape[0] != cout:
        raise InvalidShape(
            f"channel mismatch: x has {cin}, kernel expects {cin_k}/{cout}"
        )
    if kh > h or kw > w:
        raise InvalidShape(f"kernel {kh}x{kw} larger than input {h}x{w}")
    # contract Cin, kh, kw of the windows against the kernel
    out = np.tensordot(_windows(x, kh, kw), kernel, axes=([1, 4, 5], [1, 2, 3]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)) + bias[None, :, None, None]


def conv2d_param_grads(x: np.ndarray, kernel: np.ndarray, dout: np.ndarray):
    """The parameter half of ``conv2d_backward``: (dkernel, dbias).

    For a first layer, whose input gradient nothing reads.
    dL/dk[o,c,u,v] = sum_{n,i,j} dout[n,o,i,j] * x[n,c,i+u,j+v]
    dL/db[o]       = sum_{n,i,j} dout[n,o,i,j]
    """
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ho, wo = h - kh + 1, w - kw + 1
    if dout.shape != (n, cout, ho, wo):
        raise InvalidShape(
            f"dout shape {dout.shape} != forward output shape {(n, cout, ho, wo)}"
        )
    dkernel = np.tensordot(dout, _windows(x, kh, kw), axes=([0, 2, 3], [0, 2, 3]))
    return dkernel, dout.sum(axis=(0, 2, 3))


def conv2d_backward(x: np.ndarray, kernel: np.ndarray, dout: np.ndarray):
    """Exact gradients of ``conv2d_forward``: (dx, dkernel, dbias).

    dL/dx is col2im of dcols[c,u,v,n,i,j] = sum_o kernel[o,c,u,v] * dout[n,o,i,j]:
    window element (i,j,u,v) adds back onto x[n,c,i+u,j+v]. dx is summed in
    [C,N,H,W] order, the layout the one GEMM leaves dcols in, and transposed
    once at the end.
    """
    dkernel, dbias = conv2d_param_grads(x, kernel, dout)
    n, cin, h, w = x.shape
    _, _, kh, kw = kernel.shape
    ho, wo = dout.shape[2:]
    dcols = np.tensordot(kernel, dout, axes=([0], [1]))
    dx = np.zeros((cin, n, h, w))
    for u in range(kh):
        for v in range(kw):
            dx[:, :, u:u + ho, v:v + wo] += dcols[:, u, v]
    return np.ascontiguousarray(dx.transpose(1, 0, 2, 3)), dkernel, dbias


def avgpool2d_forward(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling with stride 2; H and W must be even."""
    if x.ndim != 4:
        raise InvalidShape("avgpool2d expects x[N,C,H,W]")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise InvalidShape(f"avgpool2d needs even spatial dims, got {h}x{w}")
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool2d_backward(x_shape: tuple[int, ...], dout: np.ndarray) -> np.ndarray:
    """Spread each upstream element as dout/4 over its 2x2 source window."""
    n, c, h, w = x_shape
    if dout.shape != (n, c, h // 2, w // 2):
        raise InvalidShape(
            f"dout shape {dout.shape} != pooled shape {(n, c, h // 2, w // 2)}"
        )
    return np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """y = 1 / (1 + exp(-x)), computed without overflow for any finite x."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx = dy * y * (1 - y), with y the cached forward output."""
    if y.shape != dy.shape:
        raise InvalidShape(f"dy shape {dy.shape} != y shape {y.shape}")
    return dy * y * (1.0 - y)


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

    Consumed exactly once: a second backward from the same trace raises
    ``InvalidState``.
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
    consumed: bool = field(default=False)


def model_forward(model: LeNetModel, x: np.ndarray):
    """Run the full stack; returns (probs[N,K], trace).

    The input must be exactly [N, 1, 32, 32]; anything else raises rather
    than cropping or padding.
    """
    if x.ndim != 4 or x.shape[1:] != (1, IMAGE_SIZE, IMAGE_SIZE):
        raise InvalidShape(
            f"model input must be [N,1,{IMAGE_SIZE},{IMAGE_SIZE}], got {x.shape}"
        )
    x = np.asarray(x, dtype=np.float64)
    p = model.params

    sig1 = sigmoid_forward(conv2d_forward(x, p["conv1.kernel"].value,
                                          p["conv1.bias"].value))
    pool1 = avgpool2d_forward(sig1)
    sig2 = sigmoid_forward(conv2d_forward(pool1, p["conv2.kernel"].value,
                                          p["conv2.bias"].value))
    pool2 = avgpool2d_forward(sig2)
    flat = pool2.reshape(x.shape[0], FLAT_FEATURES)
    sig3 = sigmoid_forward(dense_forward(flat, p["fc1.weight"].value,
                                         p["fc1.bias"].value))
    sig4 = sigmoid_forward(dense_forward(sig3, p["fc2.weight"].value,
                                         p["fc2.bias"].value))
    logits = dense_forward(sig4, p["fc_out.weight"].value, p["fc_out.bias"].value)
    probs = softmax(logits)

    trace = ForwardTrace(x=x, sig1=sig1, pool1=pool1, sig2=sig2, flat=flat,
                         sig3=sig3, sig4=sig4, logits=logits, probs=probs)
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
    if upstream.shape != trace.logits.shape:
        raise InvalidShape(
            f"upstream shape {upstream.shape} != logits shape {trace.logits.shape}"
        )
    trace.consumed = True
    p = model.params

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
    dpool1, dk, db = conv2d_backward(trace.pool1, p["conv2.kernel"].value, dconv2)
    p["conv2.kernel"].grad[...] = dk
    p["conv2.bias"].grad[...] = db

    dsig1 = avgpool2d_backward(trace.sig1.shape, dpool1)
    dconv1 = sigmoid_backward(trace.sig1, dsig1)
    dk, db = conv2d_param_grads(trace.x, p["conv1.kernel"].value, dconv1)
    p["conv1.kernel"].grad[...] = dk
    p["conv1.bias"].grad[...] = db
