from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar.checks import TINY, randomized_params
from nfar.cli import EXIT_USAGE, main
from nfar.io import (
    FormatError,
    dump_config_text,
    load_checkpoint,
    load_dataset,
    parse_config_text,
    read_latents,
    save_checkpoint,
    save_dataset,
    write_latents,
)
from nfar.model import DenoiserConfig, DenoiserParams, init_params
from nfar.synthdata import LatentDynamics, make_dataset

RNG = np.random.default_rng(21)


def test_latent_round_trip_is_bit_exact(tmp_path):
    for dtype in (np.float64, np.float32):
        arr = RNG.standard_normal((9, 5)).astype(dtype)
        path = tmp_path / f"x_{arr.dtype.name}.bin"
        write_latents(path, arr)
        back = read_latents(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)


def test_latent_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_latents(path)


def test_latent_truncated_payload_rejected(tmp_path):
    path = tmp_path / "x.bin"
    write_latents(path, np.ones((4, 4)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_latents(path)


def test_latent_every_truncation_rejected(tmp_path):
    path = tmp_path / "x.bin"
    write_latents(path, np.ones((3, 2), dtype=np.float32))
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_latents(path)


def test_latent_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_latents(tmp_path / "x.bin", np.ones(5))


def test_checkpoint_round_trip(tmp_path):
    config = DenoiserConfig(n_layers=2, n_heads=2, d_model=16, d_latent=4, d_cond=8, d_ff=16)
    params = init_params(config, seed=5, meta={"stage": "1", "mask_mode": "causal"})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert back.config == config
    assert back.meta == params.meta
    assert back.equal(params)


def test_checkpoint_write_is_deterministic(tmp_path):
    params = init_params(DenoiserConfig(), seed=1)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def per_adaln_head(params):
    """`params` as versions 1 to 4 stored the adaLN heads: one w and one b per head, each a run of
    adaln's d_model-wide column blocks (layer l's seven start at block 7*l, the final pair last)."""
    L, dm = params.config.n_layers, params.config.d_model
    blocks = {"final.mod": (7 * L, 7 * L + 2)}
    for l in range(L):
        blocks.update({f"layers.{l}.mod1": (7 * l, 7 * l + 2), f"layers.{l}.gate1": (7 * l + 2, 7 * l + 3),
                       f"layers.{l}.gate2": (7 * l + 3, 7 * l + 4), f"layers.{l}.mod3": (7 * l + 4, 7 * l + 6),
                       f"layers.{l}.gate3": (7 * l + 6, 7 * l + 7)})
    values = {k: v for k, v in params.values.items() if not k.startswith("adaln.")}
    for head, (a, b) in blocks.items():
        values[f"{head}.w"] = params.values["adaln.w"][:, a * dm:b * dm]
        values[f"{head}.b"] = params.values["adaln.b"][a * dm:b * dm]
    return DenoiserParams(params.config, values, params.meta)


def per_layer(params):
    """`params` as version 3 stored them: per-head adaLN, and one compressor w and b per layer and K/V."""
    L = params.config.n_layers
    values = {k: v for k, v in per_adaln_head(params).values.items() if not k.startswith("compressor.")}
    for i, part in enumerate(f"compressor.{l}.{kind}" for kind in ("key", "val") for l in range(L)):
        values[f"{part}.w"], values[f"{part}.b"] = params.values["compressor.w"][i], params.values["compressor.b"][i]
    return DenoiserParams(params.config, values, params.meta)


def per_head(params):
    """`params` as versions 1 and 2 stored them: per-layer compressors, and one (d_model, head_dim)
    matrix per layer, head and q/k/v."""
    config, hd = params.config, params.config.head_dim
    values = {k: v for k, v in per_layer(params).values.items() if not k.endswith(".attn.qkv.w")}
    for l in range(config.n_layers):
        qkv = params.values[f"layers.{l}.attn.qkv.w"]
        for i, kind in enumerate(("q", "k", "v")):
            for h in range(config.n_heads):
                c = (i * config.n_heads + h) * hd
                values[f"layers.{l}.attn.{kind}.{h}"] = qkv[:, c:c + hd]
    return DenoiserParams(config, values, params.meta)


def write_legacy(path, legacy, header: bytes):
    """A file of `legacy` params whose first line is `header` instead of the current version's."""
    save_checkpoint(path, legacy)
    path.write_bytes(path.read_bytes().replace(b"checkpoint v5\n", header, 1))


def write_v4(path, legacy):
    """A version-4 file of per-head adaLN `legacy` params."""
    write_legacy(path, legacy, b"checkpoint v4\n")


def write_v3(path, legacy):
    """A version-3 file of per-layer `legacy` params."""
    write_legacy(path, legacy, b"checkpoint v3\n")


def write_v2(path, legacy):
    """A version-2 file of per-head `legacy` params."""
    write_legacy(path, legacy, b"checkpoint v2\n")


def write_v1(path, params, rope_on_values="False"):
    """A version-1 file of `params`: per-head q/k/v, four more tensors per layer and a rope flag."""
    dm, dc = params.config.d_model, params.config.d_cond
    legacy = per_head(params)
    for l in range(params.config.n_layers):
        legacy.values.update({f"layers.{l}.ln2.g": np.ones(dm), f"layers.{l}.ln2.b": np.zeros(dm),
                              f"layers.{l}.cross.q": RNG.standard_normal((dm, dm)),
                              f"layers.{l}.cross.k": RNG.standard_normal((dc, dm))})
    write_legacy(path, legacy, b"checkpoint v1\nconfig.rope_on_values = " + rope_on_values.encode() + b"\n")


def assert_same(loaded, params):
    assert loaded.config == params.config and loaded.meta == params.meta
    assert loaded.equal(params)
    assert all(loaded.values[k].dtype == a.dtype for k, a in params.values.items())


def test_v1_checkpoint_reads_as_its_v2_counterpart(tmp_path):
    # Every legacy version loads bit-equal to the v5 save of the same params.
    params = randomized_params(DenoiserConfig(d_model=16, d_ff=16), seed=6)
    params.values["compressor.w"] = params.values["compressor.w"] + RNG.standard_normal(params.values["compressor.w"].shape)
    params.values["compressor.b"] = params.values["compressor.b"] + RNG.standard_normal(params.values["compressor.b"].shape)
    params.meta["stage"] = "2"
    write_v1(tmp_path / "v1.ckpt", params)
    write_v2(tmp_path / "v2.ckpt", per_head(params))
    write_v3(tmp_path / "v3.ckpt", per_layer(params))
    write_v4(tmp_path / "v4.ckpt", per_adaln_head(params))
    save_checkpoint(tmp_path / "v5.ckpt", params)
    assert (tmp_path / "v5.ckpt").read_bytes().startswith(b"checkpoint v5\n")
    for i in (1, 2, 3, 4, 5):
        assert_same(load_checkpoint(tmp_path / f"v{i}.ckpt"), params)
    legacy, v2 = per_head(params), load_checkpoint(tmp_path / "v2.ckpt")
    L, dm = params.config.n_layers, params.config.d_model
    for l in range(L):
        heads = [legacy.values[f"layers.{l}.attn.{kind}.{h}"] for kind in ("q", "k", "v")
                 for h in range(params.config.n_heads)]
        assert np.array_equal(v2.values[f"layers.{l}.attn.qkv.w"], np.concatenate(heads, axis=1))
        # Row l compresses layer l's keys, row L + l its values.
        assert np.array_equal(v2.values["compressor.w"][l], legacy.values[f"compressor.{l}.key.w"])
        assert np.array_equal(v2.values["compressor.b"][L + l], legacy.values[f"compressor.{l}.val.b"])
        # Layer l's gate2 is column block 7*l + 3 of adaln.
        assert np.array_equal(v2.values["adaln.w"][:, (7 * l + 3) * dm:(7 * l + 4) * dm],
                              legacy.values[f"layers.{l}.gate2.w"])
    assert np.array_equal(v2.values["adaln.b"][-2 * dm:], legacy.values["final.mod.b"])


@pytest.mark.parametrize("damage", ["missing", "misshaped", "v3_missing_compressor", "v3_misshaped_compressor",
                                    "v4_missing_adaln_head", "v4_misshaped_adaln_head"])
def test_v2_checkpoint_with_a_damaged_head_rejected(tmp_path, capsys, damage):
    # A damaged part of a tensor that older versions split (a v2 attention
    # head, a v3 per-layer compressor, a v4 adaLN head) is reported by its own name.
    params = init_params(DenoiserConfig(d_model=16, d_ff=16), seed=6)
    legacy, part, write = {
        "v3_missing_compressor": (per_layer(params), "compressor.1.val.w", write_v3),
        "v3_misshaped_compressor": (per_layer(params), "compressor.1.val.w", write_v3),
        "v4_missing_adaln_head": (per_adaln_head(params), "layers.1.gate2.w", write_v4),
        "v4_misshaped_adaln_head": (per_adaln_head(params), "final.mod.b", write_v4),
    }.get(damage, (per_head(params), "layers.1.attn.k.0", write_v2))
    if "missing" in damage:
        del legacy.values[part]
    else:
        legacy.values[part] = np.zeros(legacy.values[part].shape[:-1] + (7,))
    write(tmp_path / "old.ckpt", legacy)
    with pytest.raises(FormatError, match=part):
        load_checkpoint(tmp_path / "old.ckpt")
    assert main(["generate", "--ckpt", str(tmp_path / "old.ckpt"), "--out", str(tmp_path / "gen"),
                 "--blocks", "1", "--steps", "1"]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=30, deadline=None)
@given(n_layers=st.integers(1, 3), n_heads=st.sampled_from([1, 2, 4]), ratio=st.integers(2, 5),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 1000))
def test_checkpoint_round_trips_as_v5_v4_and_v3(tmp_path_factory, n_layers, n_heads, ratio, dtype, seed):
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads, compress_ratio=ratio)
    params = init_params(config, seed=seed, meta={"stage": "2"})
    rng = np.random.default_rng(seed)
    for name in params.values:
        params.values[name] = params.values[name] + rng.standard_normal(params.values[name].shape)
    params = params.astype(dtype)
    path = tmp_path_factory.getbasetemp() / "round_trip.ckpt"
    save_checkpoint(path, params)
    assert_same(load_checkpoint(path), params)
    write_v4(path, per_adaln_head(params))
    assert_same(load_checkpoint(path), params)
    write_v3(path, per_layer(params))
    assert_same(load_checkpoint(path), params)


def test_v1_checkpoint_with_rope_on_values_rejected(tmp_path):
    write_v1(tmp_path / "v1.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=6), "True")
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "v1.ckpt")


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(FormatError):
        load_checkpoint(path)
    save_checkpoint(path, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=1))
    path.write_bytes(path.read_bytes().replace(b"input.b float64", b"input.b bogus64", 1))
    with pytest.raises(FormatError):
        load_checkpoint(path)


TINY_PARAMS = init_params(TINY, seed=3, meta={"stage": "1"})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_manifest_raises_or_loads_the_same_tensors(tmp_path_factory, data):
    # Any one byte of the manifest replaced: a FormatError, or the original
    # tensors (a changed head count or rope base loads the same weights).
    # Any truncation: a FormatError.
    path = tmp_path_factory.getbasetemp() / "tiny.ckpt"
    save_checkpoint(path, TINY_PARAMS)
    blob = path.read_bytes()
    manifest_end = blob.index(b"\npayload\n") + len(b"\npayload\n")
    # Half the draws aim at the numbers (sizes, shapes, offsets) with number-like bytes.
    digits = [i for i in range(manifest_end) if blob[i:i + 1].isdigit()]
    i = data.draw(st.one_of(st.integers(0, manifest_end - 1), st.sampled_from(digits)), label="index")
    byte = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789_-. ")), label="byte")
    path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
    try:
        damaged = load_checkpoint(path)
    except FormatError:
        pass
    else:
        assert damaged.equal(TINY_PARAMS)
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(FormatError):
        load_checkpoint(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_config_text_round_trip_and_unknown_key():
    defaults = {"alpha": "1", "beta": "x"}
    parsed = parse_config_text("# comment\nalpha = 3\n\n", defaults)
    assert parsed == {"alpha": "3", "beta": "x"}
    text = dump_config_text(parsed)
    assert parse_config_text(text, defaults) == parsed
    with pytest.raises(FormatError):
        parse_config_text("gamma = 1", defaults)
    with pytest.raises(FormatError):
        parse_config_text("no separator here", defaults)


def test_dataset_round_trip(tmp_path):
    dyn = LatentDynamics.create(seed=2)
    ds = make_dataset(dyn, 3, 22, seed=4)
    save_dataset(tmp_path / "ds", ds, seed=4)
    back, manifest = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.sequences, ds.sequences)
    assert np.array_equal(back.conditions, ds.conditions)
    assert back.dynamics.neighbor_bound == dyn.neighbor_bound
    assert manifest["seed"] == "4"
    assert float(manifest["lipschitz_encoder"]) == dyn.lipschitz_encoder


@pytest.mark.parametrize("damage", ["n_frames", "latent_dim", "unequal_files", "not_an_integer"])
def test_dataset_sizes_must_match_the_manifest(tmp_path, damage):
    ds = make_dataset(LatentDynamics.create(seed=2), 3, 22, seed=4)
    d = tmp_path / "ds"
    save_dataset(d, ds, seed=4)
    manifest = d / "manifest.txt"
    if damage == "n_frames":
        manifest.write_text(manifest.read_text().replace("n_frames = 22", "n_frames = 30"))
    elif damage == "latent_dim":
        manifest.write_text(manifest.read_text().replace("latent_dim = 16", "latent_dim = 9"))
    elif damage == "unequal_files":
        write_latents(d / "seq_00001.bin", ds.sequences[1][:20])
    else:
        manifest.write_text(manifest.read_text().replace("n_frames = 22", "n_frames = 2x"))
    with pytest.raises(FormatError):
        load_dataset(d)


def test_checkpoint_with_zero_heads_rejected(tmp_path):
    with pytest.raises(ValueError):
        DenoiserConfig(n_heads=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=1))
    path.write_bytes(path.read_bytes().replace(b"config.n_heads = 2", b"config.n_heads = 0", 1))
    with pytest.raises(FormatError):
        load_checkpoint(path)
