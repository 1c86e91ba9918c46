"""File formats: latent binaries, checkpoints, configs, dataset directories.

All formats are little-endian and round-trip bit-exactly.
"""

from __future__ import annotations

import math
import re
import struct
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .model import DenoiserConfig, DenoiserParams, param_layout
from .synthdata import Dataset, LatentDynamics, condition_vector

LATENT_MAGIC = b"NFLAT\x00\x01\x00"
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class FormatError(ValueError):
    """A file does not parse as the format its reader expects."""


def write_latents(path, values: np.ndarray) -> None:
    """Binary 2-D float array: magic, u32 F, u32 d, u8 dtype code, payload."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"latent files hold 2-D arrays, got shape {values.shape}")
    if values.dtype == np.float64:
        code, payload = 0, values.astype("<f8")
    elif values.dtype == np.float32:
        code, payload = 1, values.astype("<f4")
    else:
        raise ValueError(f"unsupported dtype {values.dtype}")
    with open(path, "wb") as fh:
        fh.write(LATENT_MAGIC)
        fh.write(struct.pack("<IIB3x", values.shape[0], values.shape[1], code))
        fh.write(payload.tobytes())


def read_latents(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != LATENT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise FormatError(f"{path}: truncated header")
        F, d, code = struct.unpack("<IIB3x", header)
        if code not in _DTYPE_CODES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        dt = _DTYPE_CODES[code]
        payload = fh.read(F * d * dt.itemsize)
        if len(payload) != F * d * dt.itemsize or fh.read(1):
            raise FormatError(f"{path}: payload size does not match header ({F}x{d})")
    return np.frombuffer(payload, dtype=dt).reshape(F, d).astype(dt.base)


# -- checkpoints --------------------------------------------------------------

_CONFIG_FIELDS = (
    "n_layers", "n_heads", "d_model", "d_latent", "d_cond", "d_ff",
    "rope_base", "n_ref_chunks", "compress_ratio",
)
# Version 1 also stored the single-key cross-attention's query/key side,
# which never affected the output, and a rope-on-values flag.
_V1_DEAD = re.compile(r"layers\.\d+\.(ln2\.[gb]|cross\.[qk])")
_VERSIONS = tuple(f"checkpoint v{v}\n".encode() for v in range(1, 6))
_TENSOR_DTYPES = {name: np.dtype(name) for name in ("float64", "float32")}


def _legacy_tensors(config: DenoiserConfig, version: int) -> dict[str, tuple[dict[str, tuple], Callable]]:
    """Tensors that a file of `version` stores in parts: name -> ({part name: part shape}, join).

    Versions 1 to 4 stored each adaLN head as its own linear map: the column
    blocks of adaln.w and adaln.b, in the order `param_layout` documents.
    Versions 1 and 2 stored one (d_model, head_dim) matrix per layer, q/k/v
    and head: the column blocks of each layer's attn.qkv.w. Versions 1 to 3
    stored a compressor per layer and K/V: the rows of compressor.w and
    compressor.b, every key layer, then every value layer.
    """
    h, dm = config.n_heads, config.d_model
    by_columns = partial(np.concatenate, axis=-1)
    out = {}
    if version < 3:
        for l in range(config.n_layers):
            parts = [f"layers.{l}.attn.{'qkv'[i // h]}.{i % h}" for i in range(3 * h)]
            out[f"layers.{l}.attn.qkv.w"] = (dict.fromkeys(parts, (dm, config.head_dim)), by_columns)
    if version < 4:
        rows = [f"compressor.{l}.{kind}" for kind in ("key", "val") for l in range(config.n_layers)]
        out["compressor.w"] = ({f"{r}.w": (config.compress_ratio, dm, dm) for r in rows}, np.stack)
        out["compressor.b"] = ({f"{r}.b": (dm,) for r in rows}, np.stack)
    if version < 5:
        heads = [(f"layers.{l}.{head}", width) for l in range(config.n_layers)
                 for head, width in (("mod1", 2), ("gate1", 1), ("gate2", 1), ("mod3", 2), ("gate3", 1))]
        heads.append(("final.mod", 2))
        out["adaln.w"] = ({f"{head}.w": (dm, width * dm) for head, width in heads}, by_columns)
        out["adaln.b"] = ({f"{head}.b": (width * dm,) for head, width in heads}, by_columns)
    return out


def save_checkpoint(path, params: DenoiserParams) -> None:
    """Text manifest (config, meta, tensor table) + the payloads, back to back in name order."""
    lines = ["checkpoint v5"]
    for f in _CONFIG_FIELDS:
        lines.append(f"config.{f} = {getattr(params.config, f)}")
    for k in sorted(params.meta):
        lines.append(f"meta.{k} = {params.meta[k]}")
    offset = 0
    payloads = []
    for name in sorted(params.values):
        arr = params.values[name]
        if arr.dtype.name not in _TENSOR_DTYPES:
            raise ValueError(f"tensor {name}: cannot store dtype {arr.dtype}")
        le = arr.astype(arr.dtype.newbyteorder("<"))
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"tensor {name} {arr.dtype.name} {offset} {shape}")
        payloads.append(le.tobytes())
        offset += len(payloads[-1])
    lines.append("payload")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for p in payloads:
            fh.write(p)


def load_checkpoint(path) -> DenoiserParams:
    """Read a v5 checkpoint, or an older one with its parts joined (see `_legacy_tensors`)
    and v1's dead tensors dropped; validate the layout and the tiling."""
    blob = Path(path).read_bytes()
    marker = b"\npayload\n"
    split = blob.find(marker)
    header = blob[:blob.find(b"\n") + 1]
    if header not in _VERSIONS or split < 0:
        raise FormatError(f"{path}: not a checkpoint file")
    version = _VERSIONS.index(header) + 1
    v1 = version == 1
    try:
        text = blob[:split + 1].decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: manifest is not UTF-8: {err}") from err
    payload = memoryview(blob)[split + len(marker):]  # tensors are read from the file's bytes, not a copy
    cfg_kwargs, meta, entries = {}, {}, []
    for line in text[1:]:
        if line.startswith("config."):
            key, _, raw = line.partition(" = ")
            field = key[len("config."):]
            if v1 and field == "rope_on_values":
                if raw != "False":
                    raise FormatError(f"{path}: rope on values is no longer supported")
            elif field not in _CONFIG_FIELDS:
                raise FormatError(f"{path}: unknown config field {field!r}")
            else:
                cfg_kwargs[field] = raw
        elif line.startswith("meta."):
            key, _, raw = line.partition(" = ")
            meta[key[len("meta."):]] = raw
        elif line.startswith("tensor "):
            try:
                _, name, dtype, offset, shape = line.split(" ")
                entries.append((name, _TENSOR_DTYPES[dtype], int(offset),
                                tuple(int(s) for s in shape.split(",")) if shape else ()))
            except (KeyError, ValueError) as err:
                raise FormatError(f"{path}: bad tensor line {line!r}") from err
        else:
            raise FormatError(f"{path}: unrecognized manifest line {line!r}")
    end = 0
    for name, dt, offset, shape in entries:  # each tensor starts where the one before ends
        if offset != end:
            raise FormatError(f"{path}: tensor {name} starts at byte {offset}, not {end}")
        end += math.prod(shape) * dt.itemsize
    if end != len(payload):
        raise FormatError(f"{path}: the tensors take {end} bytes, the payload {len(payload)}")
    tensors = [entry for entry in entries if not (v1 and _V1_DEAD.fullmatch(entry[0]))]
    try:
        config = DenoiserConfig(**{f: float(raw) if f == "rope_base" else int(raw)
                                   for f, raw in cfg_kwargs.items()})
    except ValueError as err:
        raise FormatError(f"{path}: bad config: {err}") from err
    layout = {name: shape for name, (shape, _) in param_layout(config).items()}
    legacy = _legacy_tensors(config, version)
    for fused, (parts, _) in legacy.items():
        del layout[fused]
        layout.update(parts)
    found = {name: shape for name, _, _, shape in tensors}
    if len(found) != len(tensors):
        raise FormatError(f"{path}: a tensor name appears twice")
    missing, extra = sorted(set(layout) - set(found)), sorted(set(found) - set(layout))
    if missing or extra:
        raise FormatError(f"{path}: missing tensors {missing}, unexpected tensors {extra}")
    for name, shape in found.items():
        if shape != layout[name]:
            raise FormatError(f"{path}: tensor {name} has shape {shape}, expected {layout[name]}")
    values = {}
    for name, dt, offset, shape in tensors:
        raw = payload[offset:offset + math.prod(shape) * dt.itemsize]
        values[name] = np.frombuffer(raw, dtype=dt.newbyteorder("<")).astype(dt).reshape(shape)
    for fused, (parts, join) in legacy.items():
        values[fused] = join([values.pop(part) for part in parts])
    return DenoiserParams(config=config, values=values, meta=meta)


# -- key = value configs -------------------------------------------------------

def parse_config_text(text: str, defaults: dict[str, str]) -> dict[str, str]:
    """Line-oriented `key = value`; unknown keys rejected; defaults filled in."""
    out = dict(defaults)
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise FormatError(f"line {ln}: expected `key = value`, got {line!r}")
        key = key.strip()
        if key not in defaults:
            raise FormatError(f"line {ln}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def dump_config_text(config: dict[str, str]) -> str:
    return "".join(f"{k} = {config[k]}\n" for k in sorted(config))


# -- dataset directories -------------------------------------------------------

def save_dataset(directory, dataset: Dataset, seed: int) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    dyn = dataset.dynamics
    manifest = {
        "n_sequences": str(dataset.sequences.shape[0]),
        "n_frames": str(dataset.sequences.shape[1]),
        "latent_dim": str(dataset.sequences.shape[2]),
        "seed": str(seed),
        "delta_u": repr(dyn.delta_u),
        "residual_bound": repr(dyn.residual_bound),
        "lipschitz_render": repr(dyn.lipschitz_render),
        "lipschitz_encoder": repr(dyn.lipschitz_encoder),
        "neighbor_bound": repr(dyn.neighbor_bound),
    }
    (d / "manifest.txt").write_text(dump_config_text(manifest), encoding="utf-8")
    write_latents(d / "render_weight.bin", dyn.render_weight)
    write_latents(d / "encoder.bin", dyn.encoder)
    for i in range(dataset.sequences.shape[0]):
        write_latents(d / f"seq_{i:05d}.bin", dataset.sequences[i])


_MANIFEST_KEYS = {
    "n_sequences": "", "n_frames": "", "latent_dim": "", "seed": "",
    "delta_u": "", "residual_bound": "", "lipschitz_render": "",
    "lipschitz_encoder": "", "neighbor_bound": "",
}


def load_dataset(directory) -> tuple[Dataset, dict[str, str]]:
    d = Path(directory)
    manifest = parse_config_text((d / "manifest.txt").read_text(encoding="utf-8"), _MANIFEST_KEYS)
    dyn = LatentDynamics(
        render_weight=read_latents(d / "render_weight.bin"),
        encoder=read_latents(d / "encoder.bin"),
        delta_u=float(manifest["delta_u"]),
        residual_bound=float(manifest["residual_bound"]),
    )
    for key, stored in (("lipschitz_render", dyn.lipschitz_render),
                        ("lipschitz_encoder", dyn.lipschitz_encoder)):
        if abs(float(manifest[key]) - stored) > 1e-9:
            raise FormatError(f"{directory}: manifest {key} disagrees with stored maps")
    try:
        n, frames, dim = (int(manifest[k]) for k in ("n_sequences", "n_frames", "latent_dim"))
    except ValueError as err:
        raise FormatError(f"{directory}: manifest sizes are not integers") from err
    seqs = [read_latents(d / f"seq_{i:05d}.bin") for i in range(n)]
    for i, z in enumerate(seqs):
        if z.shape != (frames, dim):
            raise FormatError(f"{directory}: seq_{i:05d}.bin holds {z.shape[0]}x{z.shape[1]} latents, "
                              f"the manifest says {frames}x{dim}")
    seqs = np.stack(seqs) if n else np.zeros((0, frames, dim))
    conds = np.stack([condition_vector(z) for z in seqs]) if n else np.zeros((0, 2 * dim))
    return Dataset(sequences=seqs, conditions=conds, dynamics=dyn), manifest
