"""File formats: latent binaries, checkpoints, configs, dataset directories.

All formats are little-endian and round-trip bit-exactly.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .model import DenoiserConfig, DenoiserParams, n_tensors, param_layout
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
    """Read a `write_latents` file. Refused with a FormatError before the payload is read:
    a bad magic, a short header, an unknown dtype code, and a header whose F x d
    floats are not exactly the bytes left in the file."""
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
        if F * d * dt.itemsize != os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: payload size does not match header ({F}x{d})")
        payload = fh.read()
    return np.frombuffer(payload, dtype=dt).reshape(F, d).astype(dt.base)


# -- checkpoints --------------------------------------------------------------

_CONFIG_FIELDS = (
    "n_layers", "n_heads", "d_model", "d_latent", "d_cond", "d_ff",
    "rope_base", "n_ref_chunks", "compress_ratio",
)
_TENSOR_DTYPES = {name: np.dtype(name) for name in ("float64", "float32")}


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


def _clipped(text: str, most: int = 100) -> str:
    """`text` for an error message: whole, or its first `most` characters and its length."""
    return text if len(text) <= most else f"{text[:most]}... ({len(text)} characters)"


def _some(names: list[str], most: int = 4) -> str:
    """`names` for an error message: their count and at most `most` of them, each clipped."""
    more = f", ... {len(names) - most} more" if len(names) > most else ""
    return f"{len(names)} ({', '.join(map(_clipped, names[:most]))}{more})"


def load_checkpoint(path) -> DenoiserParams:
    """Read a `checkpoint v5` file (see `save_checkpoint`), checking its claims against the file.

    Refused with a FormatError before any tensor is read: any other first line
    (versions 1 to 4 are named, with how to convert them), a manifest that is
    not UTF-8, a bad line, tensors that do not tile the payload, a bad config,
    and a tensor table other than `param_layout(config)`. A config that claims
    more than twice the tensors the file lists (`n_tensors`) is refused before
    any name is built, so a refusal costs in proportion to the file, not the claim.
    """
    blob = Path(path).read_bytes()
    marker = b"\npayload\n"
    split = blob.find(marker)
    header = blob[:blob.find(b"\n") + 1]
    if header != b"checkpoint v5\n" or split < 0:
        old = header[len(b"checkpoint v"):-1]
        if header.startswith(b"checkpoint v") and len(old) == 1 and old in b"1234":
            raise FormatError(f"{path}: checkpoint v{old.decode()} is no longer read; to convert it, load it "
                              f"and save it again at commit 3ac0499, which writes checkpoint v5")
        raise FormatError(f"{path}: not a checkpoint file")
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
            if field not in _CONFIG_FIELDS:
                raise FormatError(f"{path}: unknown config field {_clipped(repr(field))}")
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
                raise FormatError(f"{path}: bad tensor line {_clipped(repr(line))}") from err
        else:
            raise FormatError(f"{path}: unrecognized manifest line {_clipped(repr(line))}")
    end = 0
    for name, dt, offset, shape in entries:  # each tensor starts where the one before ends
        if offset != end:
            raise FormatError(f"{path}: tensor {_clipped(name)} starts at byte {offset}, not {end}")
        end += math.prod(shape) * dt.itemsize
    if end != len(payload):
        raise FormatError(f"{path}: the tensors take {end} bytes, the payload {len(payload)}")
    try:
        config = DenoiserConfig(**{f: float(raw) if f == "rope_base" else int(raw)
                                   for f, raw in cfg_kwargs.items()})
    except ValueError as err:
        raise FormatError(f"{path}: bad config: {_clipped(str(err), 200)}") from err
    if n_tensors(config) > 2 * len(entries):
        raise FormatError(f"{path}: the config implies {n_tensors(config)} tensors, the file lists {len(entries)}")
    layout = param_layout(config)
    found = {name: shape for name, _, _, shape in entries}
    if len(found) != len(entries):
        raise FormatError(f"{path}: a tensor name appears twice")
    missing, extra = sorted(set(layout) - set(found)), sorted(set(found) - set(layout))
    if missing or extra:
        raise FormatError(f"{path}: missing tensors {_some(missing)}, unexpected tensors {_some(extra)}")
    for name, shape in found.items():
        if shape != layout[name][0]:
            raise FormatError(f"{path}: tensor {name} has shape {_clipped(str(shape))}, expected {layout[name][0]}")
    values = {}
    for name, dt, offset, shape in entries:
        raw = payload[offset:offset + math.prod(shape) * dt.itemsize]
        values[name] = np.frombuffer(raw, dtype=dt.newbyteorder("<")).astype(dt).reshape(shape)
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
            raise FormatError(f"line {ln}: expected `key = value`, got {_clipped(repr(line))}")
        key = key.strip()
        if key not in defaults:
            raise FormatError(f"line {ln}: unknown key {_clipped(repr(key))}")
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
    """Read a `save_dataset` directory. Refused with a FormatError before any latent
    file is read: a manifest with an unknown key, or with `n_sequences`, `n_frames`
    or `latent_dim` not a non-negative integer; a manifest number that does not
    parse is named with its value clipped. Each file is then checked by
    `read_latents`, the maps against the manifest's Lipschitz constants, and every
    sequence against the manifest's sizes."""
    d = Path(directory)
    manifest = parse_config_text((d / "manifest.txt").read_text(encoding="utf-8"), _MANIFEST_KEYS)

    def number(key: str, kind):
        try:
            return kind(manifest[key])
        except ValueError as err:
            raise FormatError(f"{directory}: manifest {key} is not {'an integer' if kind is int else 'a number'}: "
                              f"{_clipped(repr(manifest[key]))}") from err

    sizes = ("n_sequences", "n_frames", "latent_dim")
    n, frames, dim = (number(k, int) for k in sizes)
    for key, size in zip(sizes, (n, frames, dim)):
        if size < 0:
            raise FormatError(f"{directory}: manifest {key} is negative ({size})")
    dyn = LatentDynamics(
        render_weight=read_latents(d / "render_weight.bin"),
        encoder=read_latents(d / "encoder.bin"),
        delta_u=number("delta_u", float),
        residual_bound=number("residual_bound", float),
    )
    for key, stored in (("lipschitz_render", dyn.lipschitz_render),
                        ("lipschitz_encoder", dyn.lipschitz_encoder)):
        if abs(number(key, float) - stored) > 1e-9:
            raise FormatError(f"{directory}: manifest {key} disagrees with stored maps")
    seqs = [read_latents(d / f"seq_{i:05d}.bin") for i in range(n)]
    for i, z in enumerate(seqs):
        if z.shape != (frames, dim):
            raise FormatError(f"{directory}: seq_{i:05d}.bin holds {z.shape[0]}x{z.shape[1]} latents, "
                              f"the manifest says {frames}x{dim}")
    seqs = np.stack(seqs) if n else np.zeros((0, frames, dim))
    conds = np.stack([condition_vector(z) for z in seqs]) if n else np.zeros((0, 2 * dim))
    return Dataset(sequences=seqs, conditions=conds, dynamics=dyn), manifest
