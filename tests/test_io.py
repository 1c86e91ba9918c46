import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar.checks import TINY, randomized_params
from nfar.cli import EXIT_USAGE, main
from nfar.io import (
    LATENT_MAGIC,
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
from nfar.model import DenoiserConfig, init_params, n_tensors, param_layout
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


U32_EXTREMES = st.one_of(st.sampled_from([0, 1, 2, 3, 2**16, 2**24, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]),
                        st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(F=U32_EXTREMES, d=U32_EXTREMES, code=st.sampled_from([0, 1]), payload=st.binary(max_size=64))
def test_latent_header_claims_are_checked_against_the_file(tmp_path_factory, F, d, code, payload):
    # Any header over any payload: a FormatError, or exactly the F x d floats written.
    path = tmp_path_factory.getbasetemp() / "claims.bin"
    path.write_bytes(LATENT_MAGIC + struct.pack("<IIB3x", F, d, code) + payload)
    dtype = np.dtype("<f8" if code == 0 else "<f4")
    try:
        back = read_latents(path)
    except FormatError:
        assert F * d * dtype.itemsize != len(payload)
    else:
        assert back.shape == (F, d) and back.dtype == dtype
        assert back.tobytes() == payload


def test_latent_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_latents(tmp_path / "x.bin", np.ones(5))


def test_checkpoint_round_trip(tmp_path):
    config = DenoiserConfig(n_layers=2, n_heads=2, d_model=16, d_latent=4, d_cond=8, d_ff=16)
    params = init_params(config, seed=5, meta={"stage": "1", "mask_mode": "causal"})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    assert path.read_bytes().startswith(b"checkpoint v5\n")
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


def assert_same(loaded, params):
    assert loaded.config == params.config and loaded.meta == params.meta
    assert loaded.equal(params)
    assert all(loaded.values[k].dtype == a.dtype for k, a in params.values.items())


@pytest.mark.parametrize("damage, name", [("missing", "layers.1.attn.qkv.w"), ("misshaped", "compressor.w"),
                                          ("missing", "adaln.b"), ("misshaped", "adaln.w")],
                         ids=["missing", "misshaped", "missing_adaln", "misshaped_adaln"])
def test_checkpoint_with_a_damaged_tensor_rejected(tmp_path, capsys, damage, name):
    # A missing or misshaped tensor is reported by its own name, and `nfar` exits 2 on it.
    params = init_params(DenoiserConfig(d_model=16, d_ff=16), seed=6)
    if damage == "missing":
        del params.values[name]
    else:
        params.values[name] = np.zeros(params.values[name].shape[:-1] + (7,))
    save_checkpoint(tmp_path / "bad.ckpt", params)
    with pytest.raises(FormatError, match=name):
        load_checkpoint(tmp_path / "bad.ckpt")
    assert main(["generate", "--ckpt", str(tmp_path / "bad.ckpt"), "--out", str(tmp_path / "gen"),
                 "--blocks", "1", "--steps", "1"]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_retired_checkpoint_version_is_refused_with_how_to_convert(tmp_path, capsys, version):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=6))
    path.write_bytes(path.read_bytes().replace(b"checkpoint v5\n", f"checkpoint v{version}\n".encode(), 1))
    with pytest.raises(FormatError, match=f"checkpoint v{version} is no longer read.*3ac0499"):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["generate", "--ckpt", str(path), "--out", str(tmp_path / "gen"),
                 "--blocks", "1", "--steps", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "gen").exists()


@settings(max_examples=30, deadline=None)
@given(n_layers=st.integers(1, 3), n_heads=st.sampled_from([1, 2, 4]), ratio=st.integers(2, 5),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 1000))
def test_checkpoint_round_trips_over_drawn_configs(tmp_path_factory, n_layers, n_heads, ratio, dtype, seed):
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads, compress_ratio=ratio)
    params = init_params(config, seed=seed, meta={"stage": "2"})
    rng = np.random.default_rng(seed)
    for name in params.values:
        params.values[name] = params.values[name] + rng.standard_normal(params.values[name].shape)
    params = params.astype(dtype)
    path = tmp_path_factory.getbasetemp() / "round_trip.ckpt"
    save_checkpoint(path, params)
    assert_same(load_checkpoint(path), params)


@settings(max_examples=50, deadline=None)
@given(n_layers=st.integers(1, 8), n_heads=st.sampled_from([1, 2, 4]), ratio=st.integers(1, 6))
def test_tensor_count_has_a_closed_form(n_layers, n_heads, ratio):
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads, compress_ratio=ratio)
    assert n_tensors(config) == len(param_layout(config)) == 8 + 14 * n_layers


def test_checkpoint_claiming_many_layers_is_refused_at_the_cost_of_the_file(tmp_path):
    # A config that claims 20000 layers is refused by its tensor count, before any name is built:
    # short message, and memory in proportion to the file, not to the claim.
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(DenoiserConfig(), seed=1))
    path.write_bytes(path.read_bytes().replace(b"config.n_layers = 2\n", b"config.n_layers = 20000\n", 1))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="implies 280008 tensors, the file lists 36") as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(str(err.value)) < 1024
    assert peak < 2 * size, (peak, size)


def test_checkpoint_name_listing_is_bounded(tmp_path):
    # Names differ but counts agree: the message lists a few names and their counts.
    params = init_params(DenoiserConfig(n_layers=3, d_model=16, d_ff=16), seed=1)
    params.values = {k.replace("layers.", "blocks."): v for k, v in params.values.items()}
    save_checkpoint(tmp_path / "m.ckpt", params)
    with pytest.raises(FormatError, match=r"missing tensors 42 \(layers\.0\.attn\.o\.b, .*, \.\.\. 38 more\), "
                                          r"unexpected tensors 42 \(blocks\.0\.") as err:
        load_checkpoint(tmp_path / "m.ckpt")
    assert len(str(err.value)) < 1024


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(FormatError):
        load_checkpoint(path)
    save_checkpoint(path, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=1))
    blob = path.read_bytes()
    for header in (b"checkpoint v0\n", b"checkpoint v6\n", b"checkpoint v14\n", b"checkpoint v\n"):
        path.write_bytes(blob.replace(b"checkpoint v5\n", header, 1))
        with pytest.raises(FormatError, match="not a checkpoint file"):
            load_checkpoint(path)
    path.write_bytes(blob.replace(b"input.b float64", b"input.b bogus64", 1))
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


@pytest.mark.parametrize("damage", ["n_frames", "latent_dim", "unequal_files", "not_an_integer",
                                    "negative_n_sequences"])
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
    elif damage == "not_an_integer":
        manifest.write_text(manifest.read_text().replace("n_frames = 22", "n_frames = 2x"))
    else:
        manifest.write_text(manifest.read_text().replace("n_sequences = 3", "n_sequences = -1"))
    with pytest.raises(FormatError, match="n_sequences is negative" if damage.startswith("negative") else None):
        load_dataset(d)


def test_checkpoint_with_zero_heads_rejected(tmp_path):
    with pytest.raises(ValueError):
        DenoiserConfig(n_heads=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=1))
    path.write_bytes(path.read_bytes().replace(b"config.n_heads = 2", b"config.n_heads = 0", 1))
    with pytest.raises(FormatError):
        load_checkpoint(path)
