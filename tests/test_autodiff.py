import json
import math

import numpy as np
import pytest

from saginsim.errors import CheckpointInvalid, NonFiniteGradient
from saginsim.nets import autodiff
from saginsim.nets.mlp import Mlp, load_checkpoint, save_checkpoint
from saginsim.nets.optim import Adam


def finite_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * eps)
        it.iternext()
    return g


def check_backward(net, x, coef, rtol=1e-5):
    """backward() of sum(coef * out^2) against finite differences of every
    parameter entry."""
    out, tape = net.forward_tape(x)
    grads = autodiff.backward(net, tape, 2.0 * coef * out)
    assert len(grads) == len(net.params)
    for k, (p, grad) in enumerate(zip(net.params, grads)):
        assert grad.shape == p.shape

        def loss_at(val):
            saved = p.copy()
            p[...] = val
            y = float(np.sum(coef * net.forward(x) ** 2))
            p[...] = saved
            return y
        num = finite_diff(loss_at, p.copy())
        np.testing.assert_allclose(grad, num, rtol=rtol, atol=1e-8,
                                   err_msg="param %d" % k)


@pytest.mark.parametrize("widths", [[3, 2], [3, 4, 2], [4, 5, 3, 2]],
                         ids=["linear", "one-hidden", "two-hidden"])
def test_backward_matches_finite_differences(widths):
    rng = np.random.default_rng(len(widths))
    net = Mlp(widths, rng=rng)
    for b in net.params[1::2]:
        b[...] = rng.standard_normal(b.shape)
    x = rng.standard_normal((6, widths[0]))
    coef = rng.uniform(0.5, 1.5, (6, widths[-1]))
    check_backward(net, x, coef)


def test_mlp_forward_by_hand():
    net = Mlp([2, 2, 1])
    net.set_arrays([
        np.array([[1.0, -1.0], [0.5, 2.0]]),  # W1
        np.array([0.0, 1.0]),                 # b1
        np.array([[2.0], [-1.0]]),            # W2
        np.array([0.25]),                     # b2
    ])
    x = np.array([1.0, 2.0])
    h = np.maximum(x @ np.array([[1.0, -1.0], [0.5, 2.0]]) + [0.0, 1.0], 0.0)
    expect = h @ np.array([[2.0], [-1.0]]) + 0.25
    np.testing.assert_allclose(net.forward(x), expect)
    out, tape = net.forward_tape(x[None, :])
    np.testing.assert_allclose(out[0], expect)
    # the tape holds each layer's input and the mask that made it
    np.testing.assert_array_equal(tape[0][0], x[None, :])
    assert tape[0][1] is None
    np.testing.assert_array_equal(tape[1][0], h[None, :])
    np.testing.assert_array_equal(tape[1][1], h[None, :] > 0.0)
    # batched input gives the same row
    np.testing.assert_allclose(net.forward(np.stack([x, x])),
                               np.stack([expect, expect]))


def test_mlp_linear_when_two_widths():
    net = Mlp([3, 2])
    net.set_arrays([np.eye(3)[:, :2], np.array([1.0, -1.0])])
    np.testing.assert_allclose(net.forward(np.array([5.0, 6.0, 7.0])),
                               [6.0, 5.0])


def test_mlp_gradcheck_small_net():
    rng = np.random.default_rng(5)
    net = Mlp([3, 4, 2], rng=rng)
    x = rng.standard_normal((5, 3))
    # the gradient of mean(out^2)
    check_backward(net, x, np.full((5, 2), 1.0 / 10), rtol=1e-5)


def test_mlp_zero_init_without_rng():
    net = Mlp([2, 3, 1])
    assert all(np.all(p == 0.0) for p in net.params)
    assert sum(p.size for p in net.params) == 2 * 3 + 3 + 3 * 1 + 1


def test_he_init_scale():
    rng = np.random.default_rng(6)
    net = Mlp([200, 300], rng=rng)
    w = net.params[0]
    assert w.std() == pytest.approx(math.sqrt(2.0 / 200), rel=0.1)
    assert np.all(net.params[1] == 0.0)


@pytest.mark.parametrize("widths", [[], [3]])
def test_mlp_needs_input_and_output_widths(widths):
    with pytest.raises(ValueError):
        Mlp(widths)


def test_set_arrays_validates():
    net = Mlp([2, 2])
    with pytest.raises(ValueError):
        net.set_arrays([np.zeros((2, 2))])
    with pytest.raises(ValueError):
        net.set_arrays([np.zeros((3, 2)), np.zeros(2)])


def test_adam_single_step_reference():
    # one Adam step from zero moments: delta = lr * g / (|g| + eps)
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -1.5])
    opt = Adam([p], lr=0.1)
    opt.step([g])
    m_hat = g  # bias correction cancels at t=1
    v_hat = g ** 2
    expect = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p, expect, rtol=1e-12)


def test_adam_two_step_reference():
    p = np.array([0.0])
    opt = Adam([p], lr=0.01)
    m = v = 0.0
    val = 0.0
    for t in (1, 2):
        g = 1.0 if t == 1 else -2.0
        opt.step([np.array([g])])
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        val -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert p.item() == pytest.approx(val, rel=1e-12)


def test_adam_in_place_step_equals_the_formula():
    """Five float32 steps update the parameters and moments to the last
    bit of the out-of-place formula, evaluated in the same order."""
    rng = np.random.default_rng(16)
    params = [rng.standard_normal(shape).astype(np.float32)
              for shape in ((256, 256), (256,))]
    want = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
    opt = Adam(params, lr)
    for t in range(1, 6):
        grads = [rng.standard_normal(p.shape).astype(np.float32)
                 for p in params]
        opt.step(grads)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    for got, expect in zip(params + opt.m + opt.v, want + m + v):
        assert got.dtype == expect.dtype == np.float32
        assert (got == expect).all()


def test_adam_converges_on_quadratic():
    p = np.array([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        opt.step([2.0 * p])  # the gradient of sum(p^2)
    assert abs(p.item()) < 1e-2


def test_adam_rejected_step_changes_nothing():
    """A non-finite gradient anywhere raises before t, a moment or a
    parameter changes, even when an earlier parameter's is finite."""
    params = [np.array([1.0]), np.array([1.0])]
    opt = Adam(params, lr=0.1)
    with pytest.raises(NonFiniteGradient):
        opt.step([np.array([1.0]), np.array([np.nan])])
    assert opt.t == 0
    assert [p.item() for p in params] == [1.0, 1.0]
    assert [a.item() for a in opt.m + opt.v] == [0.0] * 4


def test_adam_rejects_nan():
    p = np.array([1.0])
    opt = Adam([p], lr=0.1)
    opt.step([np.array([1.0])])
    assert p.item() != 1.0
    with pytest.raises(NonFiniteGradient):
        opt.step([np.array([np.nan])])
    with pytest.raises(ValueError):
        opt.step([])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    nets = {"actor": Mlp([4, 8, 2], rng=rng), "critic": Mlp([6, 3, 1], rng=rng)}
    meta = {"seed": 9, "steps": 120, "betas": [0.1, 0.2]}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, nets, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == {"actor", "critic"}
    x = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(loaded["actor"].forward(x),
                                  nets["actor"].forward(x))
    assert loaded["critic"].widths == [6, 3, 1]


def test_checkpoint_float32_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    net = Mlp([4, 8, 2], rng=rng, dtype=np.float32)
    for b in net.params[1::2]:
        b[...] = rng.standard_normal(b.shape)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"actor": net})
    loaded = load_checkpoint(path)[0]["actor"]
    assert loaded.dtype == np.float32
    for want, got in zip(net.params, loaded.params):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtypes", [["<f4", "<f8"], ["<i8", "<i8"]],
                         ids=["mixed", "integer"])
def test_checkpoint_rejects_arrays_of_other_dtypes(tmp_path, dtypes):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"n": Mlp([2, 2])})
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    for i, dtype in enumerate(dtypes):
        payload["n:%d" % i] = payload["n:%d" % i].astype(dtype)
    np.savez(path, **payload)
    with pytest.raises(CheckpointInvalid, match="not all float32 or all "
                       "float64"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_format(tmp_path):
    net = Mlp([2, 2])
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"n": net}, {})
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    header = json.loads(bytes(payload["header"]).decode())
    header["format"] = 999
    payload["header"] = np.frombuffer(json.dumps(header).encode(),
                                      dtype=np.uint8)
    np.savez(path, **payload)
    with pytest.raises(CheckpointInvalid) as err:
        load_checkpoint(path)
    assert err.value.path == path
