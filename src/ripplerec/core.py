"""Minimal dense numeric kernel.

Everything the model needs from a tensor library, and nothing more:
stable softmax/sigmoid, a named-parameter store, the Adam update with
decoupled weight decay, Xavier initialization, and bit-exact snapshot IO.

Gradients are hand-derived in :mod:`ripplerec.model`, which returns them
per step; this module owns the parameters, the optimizer state and the
update rules.  A frozen ``ParamStore`` is safe for concurrent reads;
updates assume a single writer.
"""

from __future__ import annotations

import zipfile

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per block of the Adam step

SNAPSHOT_MAGIC = "ripplerec-params-v1"


LANES = 8  # numpy's pairwise sum keeps 8 partial sums
NUMPY_SUM_MIN_ROW = 16  # rows at least this long are summed by numpy, which is faster there


def _lane_fold(op, x):
    """``op`` folded over the last axis in numpy's pairwise-sum order, as whole-array ops.

    numpy reduces a short last axis one row at a time; here each step is
    one elementwise ``op`` over every row.  A row of fewer than 8 entries
    is folded in sequence.  Otherwise lane j folds a_j, a_{j+8}, ... over
    the first n - n % 8 entries, the lanes combine as
    ((r0 op r1) op (r2 op r3)) op ((r4 op r5) op (r6 op r7)), and the
    tail is folded in after them, in sequence.
    """
    n = x.shape[-1]
    if n < LANES:
        acc = x[..., :1].copy()
        tail = range(1, n)
    else:
        body = n - n % LANES
        acc = x[..., :LANES].copy()
        for i in range(LANES, body, LANES):
            op(acc, x[..., i:i + LANES], out=acc)
        while acc.shape[-1] > 1:
            acc = op(acc[..., 0::2], acc[..., 1::2])
        tail = range(body, n)
    for j in tail:
        op(acc, x[..., j:j + 1], out=acc)
    return acc


def _last_axis_max(x):
    """``x.max(axis=-1, keepdims=True)``, 8 lanes at a time.

    Max is exact in any order, so the bytes are numpy's, but for a row
    whose maximum is a tie of +0.0 and -0.0: numpy returns the zero its
    SIMD lanes meet last, which varies by CPU, and this either zero.
    """
    return _lane_fold(np.maximum, x)


def _last_axis_sum(x):
    """``x.sum(axis=-1, keepdims=True)`` byte for byte on a contiguous last axis.

    numpy adds a row's pairwise sum (:func:`_lane_fold`'s order up to
    128 entries) to its identity 0.0, so a row of -0.0 sums to +0.0.
    Rows of ``NUMPY_SUM_MIN_ROW`` or more entries go to numpy itself.
    """
    if x.shape[-1] >= NUMPY_SUM_MIN_ROW:
        return x.sum(axis=-1, keepdims=True)
    acc = _lane_fold(np.add, x)
    acc += 0.0
    return acc


def softmax(scores):
    """Softmax over the last axis, computed with a max shift for stability.

    Accepts any nonempty array of finite scores.  Output entries are
    positive and sum to 1 along the last axis.  The max and the sum are
    :func:`_last_axis_max` and :func:`_last_axis_sum`, which equal
    numpy's ``max`` and ``sum`` over a contiguous last axis byte for
    byte (up to the sign of a zero maximum, which the shift does not
    see), so the output is that of the plain numpy expression.
    """
    scores = np.asarray(scores)
    if scores.size == 0:
        raise ValueError("softmax of an empty score array is undefined")
    shifted = scores - _last_axis_max(scores)
    e = np.exp(shifted)
    return e / _last_axis_sum(e)


def sigmoid(x):
    """Logistic function, overflow-safe for arbitrarily large |x|."""
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[neg])
    out[neg] = ex / (1.0 + ex)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def xavier_uniform(shape, rng, dtype=np.float64):
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out)).

    fan_in/fan_out are the last two axes for matrices and embedding
    tables; a 1-d shape uses its single axis for both.
    """
    shape = tuple(shape)
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class ParamStore:
    """Named tensors of one dtype and fixed shapes, and the Adam moments the first ``adam_step`` creates."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.values: dict[str, np.ndarray] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0

    def add(self, name, value):
        if name in self.values:
            raise ValueError(f"parameter {name!r} already exists")
        arr = np.array(value, dtype=self.dtype, order="C")  # adam_step updates flat views
        self.values[name] = arr
        return arr

    def names(self):
        return list(self.values)

    def copy(self):
        """Deep copy of values only (optimizer state is not carried over)."""
        out = ParamStore(dtype=self.dtype)
        for name, v in self.values.items():
            out.add(name, v)  # add copies
        return out

    # -- optimizer ----------------------------------------------------------

    def adam_step(self, grads, lr, decay):
        """Bias-corrected Adam update by ``grads`` with decoupled weight decay ``decay``.

        ``grads`` maps every tensor name to a gradient of the tensor's
        shape and dtype, and is only read.  b1, b2 and eps are
        ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.  Every term is
        computed in place in two scratch arrays, in the order of
        m = b1 m + (1 - b1) g, s = b2 s + (1 - b2) g^2,
        v *= 1 - lr decay (AdamW: the decay bypasses Adam's scaling),
        v -= lr (m / c1) / (sqrt(s / c2) + eps).  The decay factor is
        taken in the store's dtype, and no pass multiplies by it when it
        rounds to 1 there: in f32 that is every lr decay up to 2**-25
        (about 2.98e-8), the defaults' 1e-9 included, so f32 decay acts
        only above that.  Each tensor is updated in blocks of
        ``ADAM_BLOCK`` elements, so the scratch arrays, each
        one block or the largest tensor if that is smaller, stay small and
        in cache; each term is elementwise, so the bytes do not
        depend on the block size.  Before any update, a missing or
        misshaped gradient raises ValueError, and a non-finite one
        FloatingPointError, naming the tensor.
        """
        for name, value in self.values.items():
            grad, want = grads.get(name), f"shape {value.shape}, {value.dtype}"
            got = "none" if grad is None else f"shape {grad.shape}, {grad.dtype}"
            if got != want:
                raise ValueError(f"gradient of tensor {name!r}: expected {want}, got {got}")
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite grads in tensor {name!r}")
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        self._adam_t += 1
        t = self._adam_t
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        shrink = self.dtype.type(1.0 - lr * decay)  # the factor v is multiplied by, as v holds it
        block = min(ADAM_BLOCK, max((v.size for v in self.values.values()), default=0))
        scratch = np.empty(2 * block, dtype=self.dtype)
        for name, value in self.values.items():
            if name not in self._adam_m:
                self._adam_m[name] = np.zeros_like(value)
                self._adam_v[name] = np.zeros_like(value)
            # every tensor is C-contiguous (``add`` makes it so), so V, M and S are views
            V, G = value.reshape(-1), grads[name].reshape(-1)
            M, S = self._adam_m[name].reshape(-1), self._adam_v[name].reshape(-1)
            for lo in range(0, value.size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, value.size)
                v, g, m, s = V[lo:hi], G[lo:hi], M[lo:hi], S[lo:hi]
                a, b = scratch[:hi - lo], scratch[block:block + hi - lo]
                np.multiply(g, 1.0 - b1, out=a)
                m *= b1
                m += a
                np.multiply(g, g, out=a)
                a *= 1.0 - b2
                s *= b2
                s += a
                np.divide(m, c1, out=a)
                a *= lr
                np.divide(s, c2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                if shrink != 1:
                    v *= shrink
                v -= a


# -- snapshot IO -------------------------------------------------------------


def save_params(path, params):
    """Write a parameter snapshot.

    Layout: an uncompressed NumPy ``.npz`` archive; one array per tensor
    keyed by its name (name and shape in the embedded ``.npy`` headers,
    values row-major), plus a ``__magic__`` format marker.  Round trips
    are bit-exact in both 32- and 64-bit modes.
    """
    arrays = {name: v for name, v in params.values.items()}
    arrays["__magic__"] = np.array(SNAPSHOT_MAGIC)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path):
    """Load a snapshot written by :func:`save_params` into a new ParamStore.

    Every tensor must have the first tensor's dtype (a store has one);
    a snapshot that mixes dtypes raises ValueError naming the tensor.  A
    file that cannot be opened raises as ``open`` does (FileNotFoundError
    when it is missing).  Once it is open, every failure to read it as an
    ``.npz`` archive raises ValueError naming ``path``: an empty file, one
    cut short or with a byte deleted or changed (zipfile's BadZipFile,
    EOFError, OSError or NotImplementedError), not a zip, a lone ``.npy``
    array.  A MemoryError or KeyboardInterrupt propagates.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)  # an array, not an archive, when the file is a lone .npy
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError(f"a {data.dtype} array of shape {data.shape}, not an .npz archive")
            with data:
                arrays = {name: data[name] for name in data.files}
        except (zipfile.BadZipFile, EOFError, OSError, NotImplementedError, ValueError) as err:
            raise ValueError(f"{path} is not a readable snapshot archive ({type(err).__name__}: {err})") from None
    if str(arrays.pop("__magic__", "")) != SNAPSHOT_MAGIC:
        raise ValueError(f"{path} is not a ripplerec parameter snapshot")
    names = list(arrays)
    store = ParamStore(dtype=arrays[names[0]].dtype if names else np.float64)
    for name in names:
        value = arrays.pop(name)  # each array is dropped as its copy is added
        if value.dtype != store.dtype:
            raise ValueError(f"{path}: tensor {name!r} is {value.dtype}, "
                             f"but {names[0]!r} is {store.dtype}")
        store.add(name, value)
    return store
