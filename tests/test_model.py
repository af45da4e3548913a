import errno
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise.data as data_module
import ecgdenoise.model as model_module
from conftest import edit_checkpoint_header, fd_wrt, rel_err, tape_grads
from ecgdenoise.model import (
    ConfigError,
    ModelConfig,
    TransformerUNet1D,
    load_checkpoint,
    save_checkpoint,
)
from ecgdenoise.loss import LossConfig
from ecgdenoise.optim import AdamW
from ecgdenoise.tensor import ShapeMismatch, Tape, Tensor
from reference import conv_bn_relu as unfused_conv_bn_relu
from reference import mul, sum_all
from ecgdenoise.training import train_step

TINY = dict(base_channels=2, transformer_layers=1, heads=2, input_len=32, seed=5)


def expected_param_count(c: int, n_layers: int) -> int:
    """Hand enumeration of every weight block as a function of base channels."""

    def double_conv(cin, cout):
        conv1 = 3 * cin * cout  # no conv bias ahead of batchnorm
        conv2 = 3 * cout * cout
        norms = 2 * (2 * cout)  # gamma+beta per batchnorm
        return conv1 + conv2 + norms

    d = 16 * c
    total = double_conv(1, c)  # input block
    for cin, cout in [(c, 2 * c), (2 * c, 4 * c), (4 * c, 8 * c), (8 * c, 16 * c)]:
        total += double_conv(cin, cout)
    per_layer = (
        4 * d * d  # attention projections, no biases
        + 2 * d + 2 * d  # two layer norms
        + (d * 4 * d + 4 * d) + (4 * d * d + d)  # mlp with biases
    )
    total += n_layers * per_layer
    for cin in [16 * c, 8 * c, 4 * c, 2 * c]:
        total += cin * (cin // 2) * 2 + cin // 2  # transposed conv
        total += double_conv(cin, cin // 2)
    total += c * 1 * 1 + 1  # kernel-1 output conv
    return total


def test_build_arithmetic_default_config():
    cfg = ModelConfig()
    assert cfg.bottleneck_dim == 256
    assert cfg.token_count == 225


def test_build_rejects_bad_config():
    with pytest.raises(ConfigError):
        TransformerUNet1D(ModelConfig(input_len=100))  # not divisible by 16
    with pytest.raises(ConfigError):
        TransformerUNet1D(ModelConfig(base_channels=3, heads=7, input_len=32))


@pytest.mark.parametrize("change", [{"transformer_layers": -1}, {"input_len": 0}])
def test_validate_rejects_negative_layers_and_an_empty_window(change):
    with pytest.raises(ConfigError, match=next(iter(change))):
        ModelConfig(**{**TINY, **change}).validate()
    TransformerUNet1D(ModelConfig(**{**TINY, "transformer_layers": 0}))  # the plain U-Net stays valid


def test_same_seed_identical_parameter_bytes():
    a = TransformerUNet1D(ModelConfig(**TINY))
    b = TransformerUNet1D(ModelConfig(**TINY))
    for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()


def test_parameter_count_matches_hand_enumeration():
    model = TransformerUNet1D(ModelConfig(**TINY))
    assert sum(t.size for _, t in model.parameters()) == expected_param_count(2, 1)
    bigger = TransformerUNet1D(ModelConfig(base_channels=4, transformer_layers=2,
                                           heads=4, input_len=64, seed=1))
    assert sum(t.size for _, t in bigger.parameters()) == expected_param_count(4, 2)


_DOUBLE_CONV = ["conv1", "bn1.gamma", "bn1.beta", "conv2", "bn2.gamma", "bn2.beta"]
_BN_BUFFERS = ["bn1.running_mean", "bn1.running_var", "bn2.running_mean", "bn2.running_var"]
_ENCODER = ["attn.w_q", "attn.w_k", "attn.w_v", "attn.w_o", "ff.lin1.weight", "ff.lin1.bias",
            "ff.lin2.weight", "ff.lin2.bias", "norm1.gamma", "norm1.beta", "norm2.gamma", "norm2.beta"]


def test_parameter_and_buffer_names_are_pinned():
    """Checkpoint entry names and their order, as every format-3 checkpoint writes them."""
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2, input_len=32))
    levels = range(1, 5)
    params = (
        [f"inc.{n}" for n in _DOUBLE_CONV]
        + [f"down{i}.block.{n}" for i in levels for n in _DOUBLE_CONV]
        + [f"enc1.{n}" for n in _ENCODER]
        + [f"up{i}.{n}" for i in levels for n in ["tconv.weight", "tconv.bias"]
           + [f"block.{m}" for m in _DOUBLE_CONV]]
        + ["out.weight", "out.bias"]
    )
    buffers = (
        [f"inc.{n}" for n in _BN_BUFFERS]
        + [f"down{i}.block.{n}" for i in levels for n in _BN_BUFFERS]
        + [f"up{i}.block.{n}" for i in levels for n in _BN_BUFFERS]
    )
    assert [n for n, _ in model.parameters()] == params
    assert [n for n, _ in model.state_arrays()] == buffers


def test_parameters_unique_and_stable():
    model = TransformerUNet1D(ModelConfig(**TINY))
    names = [n for n, _ in model.parameters()]
    assert len(names) == len(set(names))
    ids = [id(t) for _, t in model.parameters()]
    assert len(ids) == len(set(ids))
    again = TransformerUNet1D(ModelConfig(**TINY))
    assert [n for n, _ in again.parameters()] == names


def test_forward_preserves_shape():
    model = TransformerUNet1D(ModelConfig(base_channels=4, transformer_layers=1,
                                          heads=2, input_len=3600, seed=2))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 3600)))
    out = model.forward(x, training=False)
    assert out.shape == (2, 1, 3600)


def test_forward_rejects_wrong_length():
    model = TransformerUNet1D(ModelConfig(**TINY))
    with pytest.raises(ShapeMismatch):
        model.forward(Tensor(np.zeros((1, 1, 64))))
    with pytest.raises(ShapeMismatch):
        model.forward(Tensor(np.zeros((1, 2, 32))))


def test_zero_input_output_finite():
    model = TransformerUNet1D(ModelConfig(**TINY))
    out = model.forward(Tensor(np.zeros((2, 1, 32))), training=False)
    assert np.all(np.isfinite(out.data))


def test_shape_preserved_for_any_length_divisible_by_16():
    for length in (16, 48, 160):
        model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1,
                                              heads=2, input_len=length, seed=1))
        out = model.forward(Tensor(np.zeros((1, 1, length))), training=False)
        assert out.shape == (1, 1, length)


def test_eval_batch_equivariance_under_permutation():
    rng = np.random.default_rng(23)
    model = TransformerUNet1D(ModelConfig(**TINY))
    x = rng.standard_normal((4, 1, 32))
    perm = np.array([2, 0, 3, 1])
    straight = model.forward(Tensor(x), training=False).data
    permuted = model.forward(Tensor(x[perm]), training=False).data
    np.testing.assert_allclose(permuted, straight[perm], atol=1e-12)


def test_eval_forward_is_pure_and_batch_independent():
    rng = np.random.default_rng(9)
    model = TransformerUNet1D(ModelConfig(**TINY))
    a = rng.standard_normal((1, 1, 32))
    b = rng.standard_normal((1, 1, 32))

    one = model.forward(Tensor(a), training=False).data
    two = model.forward(Tensor(a), training=False).data
    assert np.array_equal(one, two)

    both = model.forward(Tensor(np.concatenate([a, b])), training=False).data
    solo_b = model.forward(Tensor(b), training=False).data
    assert np.max(np.abs(both[0:1] - one)) < 1e-10
    assert np.max(np.abs(both[1:2] - solo_b)) < 1e-10


def test_predict_is_bitwise_one_eval_forward():
    # predict is the eval forward of the input cast to float32, cast back to float64
    model = TransformerUNet1D(ModelConfig(**TINY))
    x = np.random.default_rng(37).standard_normal((37, 32))
    direct = model.forward(Tensor(x[:, None, :].astype(np.float32)), training=False).data
    out = model.predict(x)
    assert direct.dtype == np.float32  # no float64 operand promotes the forward
    assert out.shape == x.shape and out.dtype == np.float64
    assert out.tobytes() == direct[:, 0].astype(np.float64).tobytes()


@pytest.mark.parametrize("widths", [dict(TINY), dict(base_channels=8, transformer_layers=1, input_len=3600)],
                         ids=["tiny", "desk"])
def test_float32_predict_stays_close_to_the_float64_forward(widths):
    model = TransformerUNet1D(ModelConfig(**widths))
    x = np.random.default_rng(39).standard_normal((3, model.config.input_len))
    want = model.forward(Tensor(x[:, None, :]), training=False).data[:, 0]
    # measured about 2e-7 of the largest output
    assert np.max(np.abs(model.predict(x) - want)) <= 1e-5 * np.max(np.abs(want))


def test_predict_keeps_segments_isolated():
    model = TransformerUNet1D(ModelConfig(**TINY))
    rng = np.random.default_rng(38)
    x = rng.standard_normal((4, 32))
    base = model.predict(x)
    for s in range(x.shape[0]):
        bumped = x.copy()
        bumped[s] += rng.standard_normal(32)
        out = model.predict(bumped)
        others = np.arange(x.shape[0]) != s
        assert out[others].tobytes() == base[others].tobytes(), s
        assert not np.array_equal(out[s], base[s])


def test_fused_stages_train_bitwise_like_the_unfused_reference(monkeypatch):
    rng = np.random.default_rng(43)
    y = rng.standard_normal((3, 1, 128))
    x = y + 0.5 * rng.standard_normal(y.shape)
    cfg = dict(base_channels=4, transformer_layers=1, heads=2, input_len=128, seed=2)
    runs = []
    for stage in (model_module.conv_bn_relu, unfused_conv_bn_relu):
        stage_counts = []  # stages per call: every double conv must run through `stage`

        def counted(x, stages, training, stage=stage):
            stage_counts.append(len(stages))
            return stage(x, stages, training)

        monkeypatch.setattr(model_module, "conv_bn_relu", counted)
        model = TransformerUNet1D(ModelConfig(**cfg))
        optimizer = AdamW(model.parameters(), lr=1e-3)
        totals = [train_step(model, optimizer, x, y, LossConfig())[0].total for _ in range(3)]
        arrays = [t.data for _, t in model.parameters()] + [a for _, a in model.state_arrays()]
        eval_out = model.forward(Tensor(x), training=False).data
        runs.append((totals, arrays, eval_out))
        assert stage_counts == [2] * 9 * 4  # 9 double convs in each of 3 training forwards and 1 eval
    (totals, arrays, eval_out), (ref_totals, ref_arrays, ref_eval) = runs
    assert totals == ref_totals
    assert len(arrays) == len(ref_arrays)
    for got, want in zip(arrays, ref_arrays):
        assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(eval_out - ref_eval)) <= 1e-15 * np.max(np.abs(ref_eval))


def test_training_forward_tape_node_count_is_pinned():
    model = TransformerUNet1D(ModelConfig(**TINY))
    with Tape() as tape:
        model.forward(Tensor(np.zeros((2, 1, 32))), training=True)
    # 9 double convs (each one op over its two conv-batchnorm-relu stages), 4
    # pools, 4 transposed convs (each writing its skip beside its output), the
    # output conv, 3 layout changes (to token-major with the positional add,
    # back to channel-major, and the output to (B, 1, L)) and 4 fused ops in the
    # encoder layer (attention, feed-forward and two residual layer norms; 28
    # unfused)
    assert len(tape) == 25


def test_end_to_end_gradients_vs_fd_sampled_params():
    rng = np.random.default_rng(41)
    model = TransformerUNet1D(ModelConfig(**TINY))
    x = Tensor(rng.standard_normal((2, 1, 32)))
    probe = rng.standard_normal((2, 1, 32))

    params = model.parameters()
    tensors = [t for _, t in params]

    def loss():
        return sum_all(mul(model.forward(x, training=True), Tensor(probe)))

    def scalar():
        rm = [a.copy() for _, a in model.state_arrays()]
        val = float((model.forward(x, training=True).data * probe).sum())
        for (_, a), saved in zip(model.state_arrays(), rm):
            a[...] = saved
        return val

    grads = tape_grads(loss, tensors)
    picks = rng.choice(len(params), size=10, replace=False)
    worst = 0.0
    for idx in picks:
        tensor, grad = tensors[idx], grads[idx]
        flat_idx = int(rng.integers(tensor.size))
        base = tensor.data.copy()
        eps = 1e-5
        tensor.data.reshape(-1)[flat_idx] = base.reshape(-1)[flat_idx] + eps
        fp = scalar()
        tensor.data.reshape(-1)[flat_idx] = base.reshape(-1)[flat_idx] - eps
        fm = scalar()
        tensor.data[...] = base
        fd = (fp - fm) / (2 * eps)
        an = grad.reshape(-1)[flat_idx]
        # unit floor: the error is absolute below 1, so a gradient near 0 is not
        # judged by the cancellation noise of its central difference alone
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1.0))
    assert worst < 1e-4


def test_checkpoint_roundtrip(tmp_path):
    model = TransformerUNet1D(ModelConfig(**TINY))
    # perturb BN buffers so the roundtrip is non-trivial
    model.forward(Tensor(np.random.default_rng(3).standard_normal((2, 1, 32))), training=True)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, model, extra={"epoch": 4})

    loaded, manifest, optim = load_checkpoint(prefix)
    assert manifest["extra"]["epoch"] == 4
    assert optim == {}
    assert [n for n, _ in loaded.parameters()] == [n for n, _ in model.parameters()]
    for (na, ta), (_, tb) in zip(model.parameters(), loaded.parameters()):
        assert ta.data.tobytes() == tb.data.tobytes(), na
    for (na, aa), (_, ab) in zip(model.state_arrays(), loaded.state_arrays()):
        assert aa.tobytes() == ab.tobytes(), na

    x = Tensor(np.random.default_rng(4).standard_normal((1, 1, 32)))
    np.testing.assert_array_equal(
        model.forward(x, training=False).data, loaded.forward(x, training=False).data
    )


def test_checkpoint_with_optimizer_arrays(tmp_path):
    model = TransformerUNet1D(ModelConfig(**TINY))
    extra_arrays = [("m.inc.conv1.weight", np.ones((2, 1, 3)))]
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, model, optimizer_arrays=extra_arrays)
    _, _, optim = load_checkpoint(prefix)
    np.testing.assert_array_equal(optim["m.inc.conv1.weight"], np.ones((2, 1, 3)))


def _arrays(model):
    return [t.data for _, t in model.parameters()] + [a for _, a in model.state_arrays()]


def _saved_tiny(tmp_path):
    model = TransformerUNet1D(ModelConfig(**TINY))
    model.forward(Tensor(np.random.default_rng(3).standard_normal((2, 1, 32))), training=True)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, model)
    return model, prefix


def _missing_entry(prefix):  # a parameter relabelled as an optimizer array: bytes still add up
    edit_checkpoint_header(prefix, lambda h: h["entries"][0].update(kind="optim"))


def _duplicate_entry(prefix):  # bn2's gamma listed under bn1's gamma name, same shape
    def edit(h):
        names = [e["name"] for e in h["entries"]]
        h["entries"][names.index("inc.bn2.gamma")]["name"] = "inc.bn1.gamma"
    edit_checkpoint_header(prefix, edit)


def _wrong_buffer_shape(prefix):  # same element count, so the byte total still matches
    def edit(h):
        buffer = next(e for e in h["entries"] if e["kind"] == "buffer")
        buffer["shape"] = [1] + buffer["shape"]
    edit_checkpoint_header(prefix, edit)


def _rewrite(prefix, make):  # replace the .ckpt by make(its bytes, its header length)
    path = Path(f"{prefix}.ckpt")
    blob = path.read_bytes()
    path.write_bytes(make(blob, int.from_bytes(blob[:8], "little")))


def _non_integer_shape(prefix):  # same element count, so the byte total still matches
    def edit(h):
        h["entries"][0]["shape"] = [float(d) for d in h["entries"][0]["shape"]]
    edit_checkpoint_header(prefix, edit)


def _zero_heads(prefix):  # the heads check divides by it
    edit_checkpoint_header(prefix, lambda h: h["config"].update(heads=0))


def _truncated_params(prefix):
    _rewrite(prefix, lambda blob, n: blob[:-8])


def _unknown_version(prefix):
    edit_checkpoint_header(prefix, lambda h: h.update(format_version=4))


def _truncated_length_field(prefix):
    _rewrite(prefix, lambda blob, n: blob[:5])


def _truncated_header(prefix):
    _rewrite(prefix, lambda blob, n: blob[: 8 + n // 2])


def _header_length_past_eof(prefix):
    _rewrite(prefix, lambda blob, n: (2**64 - 1).to_bytes(8, "little") + blob[8:])


def _non_json_header(prefix):
    _rewrite(prefix, lambda blob, n: blob[:8] + b"\xff" * n + blob[8 + n :])


def _header_not_an_object(prefix):
    _rewrite(prefix, lambda blob, n: blob[:8] + b"[" + b" " * (n - 2) + b"]" + blob[8 + n :])


@pytest.mark.parametrize("corrupt", [_missing_entry, _duplicate_entry, _wrong_buffer_shape,
                                     _truncated_params, _unknown_version, _truncated_length_field,
                                     _truncated_header, _header_length_past_eof, _non_json_header,
                                     _header_not_an_object, _non_integer_shape, _zero_heads])
def test_load_checkpoint_rejects_bad_checkpoint(tmp_path, corrupt):
    _, prefix = _saved_tiny(tmp_path)
    load_checkpoint(prefix)  # whole before the damage
    corrupt(prefix)
    with pytest.raises(ConfigError):
        load_checkpoint(prefix)


def test_failed_save_leaves_previous_checkpoint_loadable(tmp_path, monkeypatch):
    model, prefix = _saved_tiny(tmp_path)
    model.forward(Tensor(np.random.default_rng(6).standard_normal((2, 1, 32))), training=True)
    for _, t in model.parameters():
        t.data += 1.0
    previous = _arrays(load_checkpoint(prefix)[0])

    class DiskFull:
        """A file whose write stores half the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "no space left on device")

    def open_failing_checkpoint(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return DiskFull(fh) if ".ckpt" in str(path) and "w" in mode else fh

    monkeypatch.setattr(data_module, "open", open_failing_checkpoint, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(prefix, model)
    monkeypatch.undo()

    loaded = _arrays(load_checkpoint(prefix)[0])
    assert len(loaded) == len(previous)
    for got, want in zip(loaded, previous):
        np.testing.assert_array_equal(got, want)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.ckpt"]


# A fresh process saves a checkpoint at epoch 1, shifts every weight and
# optimizer array by one, and saves again at epoch 2, with `os.replace`
# exiting the process right after its call number argv[2].
_KILLED_SECOND_SAVE = textwrap.dedent("""
    import os, sys
    import numpy as np
    from ecgdenoise.model import ModelConfig, TransformerUNet1D, save_checkpoint

    prefix, kill_after = sys.argv[1], int(sys.argv[2])
    model = TransformerUNet1D(ModelConfig(**{tiny!r}))
    moments = [("m.inc.conv1.weight", np.zeros((2, 1, 3)))]
    save_checkpoint(prefix, model, optimizer_arrays=moments, extra={{"epoch": 1}})
    for _, t in model.parameters():
        t.data += 1.0
    moments[0][1][...] += 1.0

    replace, calls = os.replace, []
    def replace_then_die(src, dst):
        replace(src, dst)
        calls.append(dst)
        if len(calls) == kill_after:
            os._exit(0)
    os.replace = replace_then_die
    save_checkpoint(prefix, model, optimizer_arrays=moments, extra={{"epoch": 2}})
""").format(tiny=TINY)


@pytest.mark.parametrize("kill_after", [1, 2])
def test_save_killed_after_a_rename_leaves_one_whole_checkpoint(tmp_path, kill_after):
    src = str(Path(model_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    prefix = str(tmp_path / "ckpt")
    subprocess.run([sys.executable, "-c", _KILLED_SECOND_SAVE, prefix, str(kill_after)],
                   env=env, capture_output=True, timeout=120, check=True)
    model, header, optim = load_checkpoint(prefix)
    shift = header["extra"]["epoch"] - 1  # 0 for the first save, 1 for the second
    fresh = TransformerUNet1D(ModelConfig(**TINY))
    for (name, got), (_, want) in zip(model.parameters(), fresh.parameters()):
        np.testing.assert_array_equal(got.data, want.data + shift, err_msg=name)
    np.testing.assert_array_equal(optim["m.inc.conv1.weight"], np.full((2, 1, 3), float(shift)))
    assert shift == 1  # every kill comes after the rename that publishes the second save


# the keys a checkpoint header's config names beyond ModelConfig's fields when
# written before they became constants, at the values every such header holds
RETIRED_MODEL_KEYS = {"depth": 4, "d_ff_ratio": 4, "in_channels": 1, "out_channels": 1}


def test_format_3_checkpoint_naming_the_retired_keys_loads_bitwise(tmp_path):
    model = TransformerUNet1D(ModelConfig(**TINY))
    model.forward(Tensor(np.random.default_rng(3).standard_normal((2, 1, 32))), training=True)
    moments = np.random.default_rng(7).standard_normal((2, 1, 3))
    prefix = str(tmp_path / "old")
    save_checkpoint(prefix, model, optimizer_arrays=[("m.inc.conv1.weight", moments)])
    edit_checkpoint_header(prefix, lambda h: h["config"].update(RETIRED_MODEL_KEYS))

    loaded, header, optim = load_checkpoint(prefix)
    assert header["config"] == {**asdict(model.config), **RETIRED_MODEL_KEYS} and len(header["config"]) == 10
    assert loaded.config == model.config
    assert optim["m.inc.conv1.weight"].tobytes() == moments.tobytes()
    for got, want in zip(_arrays(loaded), _arrays(model), strict=True):
        assert got.tobytes() == want.tobytes()
