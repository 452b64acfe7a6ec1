import math
import re

import numpy as np
import pytest

from ripplerec.core import (
    ADAM_BLOCK,
    ParamStore,
    _last_axis_max,
    _last_axis_sum,
    load_params,
    save_params,
    sigmoid,
    softmax,
    xavier_uniform,
)

from gradcheck import finite_diff_check


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_exp_arithmetic(self):
        np.testing.assert_allclose(softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_large_scores_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] > 1.0 - 1e-12
        assert out[1] < 1e-12

    def test_normalization_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            scores = rng.normal(scale=5.0, size=rng.integers(1, 40))
            out = softmax(scores)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores = rng.normal(scale=3.0, size=rng.integers(2, 30))
            shift = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax(scores), softmax(scores + shift), atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_last_axis_batched(self):
        out = softmax(np.zeros((4, 3, 5)))
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-12)


def _pairwise_row(op, row):
    """numpy's pairwise sum order for one row, one scalar ``op`` at a time.

    Below 8 entries in sequence; up to 128, lanes r_j = a_j op a_{j+8}
    op ... over the first n - n % 8 entries, combined as
    ((r0 op r1) op (r2 op r3)) op ((r4 op r5) op (r6 op r7)), then the
    tail in sequence; longer rows split at the multiple of 8 nearest
    below half and fold both halves.
    """
    n = len(row)
    if n < 8:
        acc = row[0]
        for a in row[1:]:
            acc = op(acc, a)
        return acc
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return op(_pairwise_row(op, row[:half]), _pairwise_row(op, row[half:]))
    body = n - n % 8
    r = list(row[:8])
    for i in range(8, body):
        r[i % 8] = op(r[i % 8], row[i])
    acc = op(op(op(r[0], r[1]), op(r[2], r[3])), op(op(r[4], r[5]), op(r[6], r[7])))
    for a in row[body:]:
        acc = op(acc, a)
    return acc


def _row_sum(row):
    """numpy's sum of one row: its pairwise sum added to the identity 0.0."""
    return row.dtype.type(0.0) + _pairwise_row(np.add, row)


def _special_rows(lead, n, dtype, rng):
    """``lead + (n,)`` normal scores; flat rows 1-5 hold -0.0, only -0.0, NaN, +-inf and mixed +-0.0."""
    x = rng.normal(scale=10.0, size=lead + (n,)).astype(dtype)
    rows = x.reshape(-1, n)
    for i, row in enumerate(rows):
        kind = i % 6
        if kind == 1:
            row[rng.random(n) < 0.5] = -0.0
        elif kind == 2:
            row[:] = -0.0
        elif kind == 3:
            row[rng.integers(n)] = np.nan
        elif kind == 4:
            at = rng.permutation(n)
            row[at[0]] = np.inf
            row[at[1:2]] = -np.inf
        elif kind == 5:
            row[:] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return x


def _zero_tie(x, row_max):
    """Rows whose maximum is 0 and that hold both +0.0 and -0.0."""
    zero = x == 0.0
    return ((row_max == 0.0) & np.any(zero & np.signbit(x), axis=-1, keepdims=True)
            & np.any(zero & ~np.signbit(x), axis=-1, keepdims=True))


ROW_LENGTHS = list(range(1, 137)) + [200, 256]


class TestLastAxisKernels:
    """The softmax reductions equal numpy's by bytes on a contiguous last axis."""

    @pytest.mark.parametrize("lead", [(), (7,), (5, 3)], ids=["row", "7_rows", "5x3_rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_numpy_and_pairwise_order(self, dtype, lead):
        rng = np.random.default_rng(len(lead))
        for n in ROW_LENGTHS:
            x = _special_rows(lead, n, dtype, rng)
            with np.errstate(invalid="ignore"):
                got_max, got_sum = _last_axis_max(x), _last_axis_sum(x)
                oracles = [
                    ("max", got_max, x.max(axis=-1, keepdims=True)),
                    ("sum", got_sum, x.sum(axis=-1, keepdims=True)),
                    ("max order", got_max, np.array([_pairwise_row(np.maximum, row) for row in x.reshape(-1, n)],
                                                    dtype=dtype).reshape(lead + (1,))),
                    ("sum order", got_sum, np.array([_row_sum(row) for row in x.reshape(-1, n)],
                                                    dtype=dtype).reshape(lead + (1,))),
                ]
            for name, got, want in oracles:
                assert got.dtype == want.dtype and got.shape == want.shape, (name, n)
                if name == "max":
                    # numpy's max of a row whose maximum is both +0.0 and -0.0 returns the zero
                    # its SIMD lanes meet last, which varies by CPU; softmax does not see the sign
                    np.testing.assert_array_equal(got, want)
                    tie = _zero_tie(x, want)
                    got, want = got[~tie], want[~tie]
                assert got.tobytes() == want.tobytes(), f"{name}, n={n}: {got.reshape(-1)} != {want.reshape(-1)}"

    def test_special_rows_cover_every_kind(self):
        x = _special_rows((5, 3), 9, np.float64, np.random.default_rng(0))
        rows = x.reshape(-1, 9)
        assert np.signbit(rows[2]).all() and (rows[2] == 0.0).all()
        assert np.isnan(rows[3]).any() and np.isposinf(rows[4]).any() and np.isneginf(rows[4]).any()
        assert np.signbit(rows[5]).any() and (~np.signbit(rows[5])).any() and (rows[5] == 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_same_bytes_as_numpy_expression(self, dtype):
        rng = np.random.default_rng(3)
        cases = [rng.normal(scale=4.0, size=(64, 8, 8)).astype(dtype)]
        cases += [_special_rows((5, 3), n, dtype, rng) for n in (1, 2, 4, 7, 8, 9, 17, 32, 64, 200)]
        for scores in cases:
            with np.errstate(invalid="ignore"):
                e = np.exp(scores - scores.max(axis=-1, keepdims=True))
                want = e / e.sum(axis=-1, keepdims=True)
                got = softmax(scores)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), scores.shape


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        assert sigmoid(100.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(1000.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(sigmoid(np.array([-1000.0, 1000.0]))).all()

    def test_odd_symmetry(self):
        assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestXavier:
    def test_values_within_bound(self):
        rng = np.random.default_rng(0)
        for shape in [(50, 8), (12, 8, 8), (64,)]:
            arr = xavier_uniform(shape, rng)
            fan_in, fan_out = (shape[0], shape[0]) if len(shape) == 1 else shape[-2:]
            assert np.abs(arr).max() <= math.sqrt(6.0 / (fan_in + fan_out))

    def test_bound_formula(self):
        # 200 draws for (10, 20) fill Uniform(-b, b) with b = sqrt(6 / 30)
        bound = math.sqrt(6 / 30)
        arr = xavier_uniform((10, 20), np.random.default_rng(1))
        assert 0.99 * bound <= np.abs(arr).max() <= bound


def _store(**tensors):
    store = ParamStore()
    for name, value in tensors.items():
        store.add(name, value)
    return store


def _zero_grads(store):
    return {name: np.zeros_like(value) for name, value in store.values.items()}


class TestAdam:
    def test_zero_gradient_no_move(self):
        store = _store(w=np.array([1.0, -2.0, 3.0]))
        store.adam_step(_zero_grads(store), lr=0.1, decay=0.0)
        np.testing.assert_array_equal(store.values["w"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        store = _store(w=np.array([5.0]))
        store.adam_step({"w": np.array([0.3])}, lr=0.01, decay=0.0)
        # bias-corrected first step moves by ~lr against the gradient sign
        assert store.values["w"][0] == pytest.approx(5.0 - 0.01, abs=1e-6)

    @pytest.mark.parametrize("beta, got", [
        (None, "none"), (np.zeros(3), "shape (3,), float64"), (np.zeros((2, 1)), "shape (2, 1), float64"),
        (np.zeros(2, np.float32), "shape (2,), float32"),
    ], ids=["missing", "shape", "rank", "dtype"])
    def test_bad_gradient_names_tensor_and_moves_nothing(self, beta, got):
        store = _store(alpha=np.array([1.0]), beta=np.array([2.0, 3.0]))
        grads = {"alpha": np.zeros(1)} if beta is None else {"alpha": np.zeros(1), "beta": beta}
        with pytest.raises(ValueError, match=re.escape(f"'beta': expected shape (2,), float64, got {got}")):
            store.adam_step(grads, lr=0.1, decay=0.5)
        assert store.values["alpha"].tobytes() == np.array([1.0]).tobytes() and store._adam_t == 0

    def test_deterministic_trajectory(self):
        def run():
            store = _store(w=np.arange(4.0))
            rng = np.random.default_rng(5)
            for _ in range(20):
                store.adam_step({"w": rng.normal(size=4)}, lr=0.05, decay=0.0)
            return store.values["w"].copy()

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untouched_rows_only_decay(self, dtype):
        # from zero moments, a row whose gradient stays 0 keeps zero moments, so each
        # step only multiplies it by 1 - lr * decay, however large the other rows' steps
        lr, decay, k = 0.03, 0.5, 9
        rng = np.random.default_rng(3)
        store = ParamStore(dtype=dtype)
        store.add("emb", rng.normal(size=(6, 4)))
        start = store.values["emb"].copy()
        want = start[0::2].copy()
        for _ in range(k):
            grads = _zero_grads(store)
            grads["emb"][1::2] = rng.normal(size=(3, 4))
            store.adam_step(grads, lr, decay)
            want *= 1.0 - lr * decay
        got = store.values["emb"]
        assert got.dtype == dtype
        assert got[0::2].tobytes() == want.tobytes()
        assert not np.allclose(got[1::2], start[1::2] * (1.0 - lr * decay) ** k)

    def test_nonfinite_gradient_names_tensor(self):
        store = _store(alpha=np.array([1.0]), beta=np.array([2.0]))
        grads = _zero_grads(store)
        grads["beta"][0] = np.nan
        with pytest.raises(FloatingPointError, match="beta"):
            store.adam_step(grads, lr=0.1, decay=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_temporary_per_term_update(self, dtype):
        rng = np.random.default_rng(7)
        init = {"emb": rng.normal(size=(12, 5)), "bias": rng.normal(size=3), "mat": rng.normal(size=(2, 4, 4))}
        for decay in (0.0, 0.5):
            _assert_steps_match_per_term_update(init, dtype, decay, steps=7, rng=rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_bit_identical_to_per_term_update(self, dtype):
        # two whole blocks and a ragged third, next to a tensor smaller than one block
        rng = np.random.default_rng(11)
        rows = (2 * ADAM_BLOCK + 40) // 8
        init = {"emb": rng.normal(size=(rows, 8)), "bias": rng.normal(size=5)}
        assert init["emb"].size % ADAM_BLOCK and init["emb"].size > 2 * ADAM_BLOCK
        _assert_steps_match_per_term_update(init, dtype, decay=0.5, steps=3, rng=rng)

    def test_fortran_ordered_value_steps_like_c_ordered(self):
        rng = np.random.default_rng(2)
        value, grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        stores = [_store(w=value), _store(w=np.asfortranarray(value))]
        for store in stores:
            store.adam_step({"w": grad}, lr=0.1, decay=0.0)
        assert stores[1].values["w"].tobytes() == stores[0].values["w"].tobytes()
        assert not np.array_equal(stores[0].values["w"], value)

    def test_strided_gradient_steps_like_contiguous(self):
        rng = np.random.default_rng(6)
        value, grad = rng.normal(size=(3, 4, 4)), rng.normal(size=(4, 3, 4))
        stores = [_store(w=value), _store(w=value)]
        stores[0].adam_step({"w": np.ascontiguousarray(grad.transpose(1, 0, 2))}, lr=0.1, decay=0.5)
        stores[1].adam_step({"w": grad.transpose(1, 0, 2)}, lr=0.1, decay=0.5)
        assert stores[1].values["w"].tobytes() == stores[0].values["w"].tobytes()


class TestCopy:
    def test_copy_has_same_bytes_own_memory_and_no_optimizer_state(self):
        rng = np.random.default_rng(4)
        source = ParamStore(dtype=np.float32)
        source.add("emb", rng.normal(size=(6, 4)))
        source.add("bias", rng.normal(size=3))
        grads = {name: rng.normal(size=v.shape).astype(np.float32) for name, v in source.values.items()}
        source.adam_step(grads, lr=0.1, decay=0.5)  # the source now carries Adam moments and a step count
        copy = source.copy()
        fresh = ParamStore(dtype=np.float32)
        for name, value in source.values.items():
            fresh.add(name, value)
        assert copy.dtype == source.dtype and copy.names() == source.names()
        assert not hasattr(copy, "grads")  # a snapshot holds values alone
        for name, value in source.values.items():
            assert copy.values[name].dtype == value.dtype
            assert copy.values[name].tobytes() == value.tobytes(), name
            assert not np.shares_memory(copy.values[name], value), name
        # no Adam state: the copy's first step is a fresh store's first step
        grads = {name: rng.normal(size=v.shape).astype(np.float32) for name, v in source.values.items()}
        for store in (copy, fresh):
            store.adam_step(grads, lr=0.1, decay=0.5)
        for name in source.names():
            assert copy.values[name].tobytes() == fresh.values[name].tobytes(), name


def _reference_adam_step(store, grads, m, s, t, lr, decay, b1=0.9, b2=0.999, eps=1e-8):
    """The update as one expression per line, every term a new array."""
    for name, v in store.values.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        s[name] *= b2
        s[name] += (1.0 - b2) * (g * g)
        m_hat = m[name] / (1.0 - b1 ** t)
        s_hat = s[name] / (1.0 - b2 ** t)
        v *= 1.0 - lr * decay
        v -= lr * m_hat / (np.sqrt(s_hat) + eps)


def _assert_steps_match_per_term_update(init, dtype, decay, steps, rng):
    """``steps`` Adam steps on ``init`` have the bytes of :func:`_reference_adam_step`."""
    got = ParamStore(dtype=dtype)
    want = ParamStore(dtype=dtype)
    for name, value in init.items():
        got.add(name, value)
        want.add(name, value)
    m = {name: np.zeros_like(v) for name, v in want.values.items()}
    s = {name: np.zeros_like(v) for name, v in want.values.items()}
    for t in range(1, steps + 1):
        grads = {}
        for name, v in want.values.items():
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=v.shape)
            if v.ndim > 1:
                g[rng.random(len(g)) < 0.5] = 0.0  # rows the batch did not reach
            grads[name] = g.astype(dtype)
        sent = {name: g.tobytes() for name, g in grads.items()}
        got.adam_step(grads, lr=0.03, decay=decay)
        _reference_adam_step(want, grads, m, s, t, lr=0.03, decay=decay)
        for name in init:
            assert got.values[name].dtype == dtype
            assert got.values[name].tobytes() == want.values[name].tobytes(), (decay, t, name)
            assert got._adam_m[name].tobytes() == m[name].tobytes(), (decay, t, name)
            assert got._adam_v[name].tobytes() == s[name].tobytes(), (decay, t, name)
            assert grads[name].tobytes() == sent[name], (decay, t, name)


class TestFiniteDiff:
    def test_quadratic_exact(self):
        store = _store(x=np.array([0.3, -1.2, 2.5]))

        def f(p):
            return 0.5 * float(np.sum(p.values["x"] ** 2))

        assert finite_diff_check(f, store, {"x": store.values["x"].copy()}) < 1e-8

    def test_sigmoid_at_zero_weight(self):
        x = np.array([0.4, -0.7, 1.1])
        store = _store(w=np.zeros(3))

        def f(p):
            return float(sigmoid(float(p.values["w"] @ x)))

        assert finite_diff_check(f, store, {"w": x / 4.0}) < 1e-8  # logistic slope at 0 is 1/4

    def test_detects_wrong_gradient(self):
        store = _store(x=np.array([1.0, 2.0]))

        def f(p):
            return float(np.sum(p.values["x"] ** 2))

        assert finite_diff_check(f, store, {"x": store.values["x"].copy()}) > 0.1  # true gradient is 2x


class TestSnapshotIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ParamStore()
        store.add("emb", rng.normal(size=(7, 5)))
        store.add("mat", rng.normal(size=(3, 5, 5)))
        path = tmp_path / "snap.npz"
        save_params(path, store)
        loaded = load_params(path)
        assert set(loaded.values) == {"emb", "mat"}
        for name in store.values:
            assert loaded.values[name].dtype == store.values[name].dtype
            np.testing.assert_array_equal(loaded.values[name], store.values[name])

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError):
            load_params(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "missing.npz")

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_memory_error_and_interrupt_propagate(self, tmp_path, monkeypatch, error):
        path = tmp_path / "snap.npz"
        store = ParamStore()
        store.add("emb", np.zeros((2, 3)))
        save_params(path, store)

        def failing_load(*args, **kwargs):
            raise error()

        monkeypatch.setattr(np, "load", failing_load)
        with pytest.raises(error):
            load_params(path)
