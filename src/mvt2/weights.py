"""Binary weight files.

Layout, all integers little-endian:

    bytes 0..3    magic "MVT2"
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   header length in bytes, u64
    header        UTF-8 JSON
    payload       raw tensor data, each tensor at a 64-byte aligned offset

The JSON header holds the model configuration, the mode ("train" or
"deploy"), the input preprocessing recipe, and one manifest entry per
tensor: {"name", "dtype": "f32", "shape", "byte_offset", "byte_len"} with
offsets relative to the start of the payload.  Tensor names are the dotted
paths produced by ``model.named_tensors``, derived from each block's
``UNITS`` table in ``blocks``; every parameter appears exactly once.  Data
is float32 regardless of platform endianness.
"""

import dataclasses
import json
import struct

import numpy as np

from .model import Model, ModelConfig, build, deploy, named_tensors

MAGIC = b"MVT2"
VERSION = 1
ALIGNMENT = 64
_FIXED_HEADER = struct.Struct("<4sIQ")

# recipe for turning an RGB image into network input; recorded in every
# file so a loader needs no out-of-band information
PREPROCESSING = {
    "resize": None,  # filled per file with [R, R]
    "pixel_range": [0.0, 1.0],
    "channel_mean": [0.485, 0.456, 0.406],
    "channel_std": [0.229, 0.224, 0.225],
}


class WeightFileError(Exception):
    """Base class for malformed or unusable weight files."""


class BadMagicError(WeightFileError):
    pass


class VersionError(WeightFileError):
    pass


class TruncatedPayloadError(WeightFileError):
    pass


class ShapeError(WeightFileError):
    pass


class DuplicateNameError(WeightFileError):
    pass


class FormatError(WeightFileError):
    """Manifest inconsistencies not covered by a more specific error."""


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def save(model: Model, path) -> None:
    """Write the model's parameters to ``path``."""
    if model.dtype != np.float32:
        raise ValueError("weight files store float32; convert the model first")

    entries = []
    payload = bytearray()
    for name, arr in named_tensors(model):
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        offset = _aligned(len(payload))
        payload.extend(b"\x00" * (offset - len(payload)))
        payload.extend(data)
        entries.append(
            {
                "name": name,
                "dtype": "f32",
                "shape": list(arr.shape),
                "byte_offset": offset,
                "byte_len": len(data),
            }
        )

    recipe = dict(PREPROCESSING)
    recipe["resize"] = [model.config.input_resolution, model.config.input_resolution]
    header = {
        "config": dataclasses.asdict(model.config),
        "mode": model.mode,
        "preprocessing": recipe,
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_FIXED_HEADER.pack(MAGIC, VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def read_header(path) -> dict:
    """Parse and validate the fixed header and JSON manifest."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse(data)[0]


def _parse(data: bytes):
    if len(data) < 4:
        raise TruncatedPayloadError("file shorter than the magic number")
    if data[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, got {data[:4]!r}")
    if len(data) < _FIXED_HEADER.size:
        raise TruncatedPayloadError("file shorter than the fixed header")
    _, version, header_len = _FIXED_HEADER.unpack_from(data)
    if version != VERSION:
        raise VersionError(f"unsupported format version {version}, expected {VERSION}")
    header_end = _FIXED_HEADER.size + header_len
    if len(data) < header_end:
        raise TruncatedPayloadError("file ends inside the JSON header")
    try:
        header = json.loads(data[_FIXED_HEADER.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable JSON header: {exc}") from None
    for key in ("config", "mode", "tensors"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
    return header, data[header_end:]


def _validate_manifest(entries, payload_len: int):
    seen = set()
    for entry in entries:
        for key in ("name", "dtype", "shape", "byte_offset", "byte_len"):
            if key not in entry:
                raise FormatError(f"tensor entry missing {key!r}")
        name = entry["name"]
        if name in seen:
            raise DuplicateNameError(f"tensor {name!r} listed more than once")
        seen.add(name)
        if entry["dtype"] != "f32":
            raise FormatError(f"tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        expected = int(np.prod(entry["shape"], dtype=np.int64)) * 4
        if entry["byte_len"] != expected:
            raise FormatError(
                f"tensor {name!r}: byte_len {entry['byte_len']} does not match shape"
            )
        if entry["byte_offset"] % ALIGNMENT != 0:
            raise FormatError(f"tensor {name!r} is not {ALIGNMENT}-byte aligned")
        if entry["byte_offset"] + entry["byte_len"] > payload_len:
            raise TruncatedPayloadError(f"payload ends inside tensor {name!r}")
    spans = sorted((e["byte_offset"], e["byte_offset"] + e["byte_len"]) for e in entries)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        if start < prev_end:
            raise FormatError("tensor payload regions overlap")


def _config_from_header(header: dict) -> ModelConfig:
    cfg = header["config"]
    try:
        return ModelConfig(
            depths=tuple(cfg["depths"]),
            dims=tuple(cfg["dims"]),
            ffn_ratio=cfg["ffn_ratio"],
            num_classes=cfg["num_classes"],
            input_resolution=cfg["input_resolution"],
            attention=cfg.get("attention", "sdta"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid model config in header: {exc}") from None


def load(path) -> Model:
    """Reconstruct a model from ``path``.

    A fresh skeleton is built for the stored configuration and its
    parameters are overwritten tensor by tensor, so the result is
    bit-identical to the model that was saved.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, payload = _parse(data)
    _validate_manifest(header["tensors"], len(payload))

    config = _config_from_header(header)
    mode = header["mode"]
    if mode not in ("train", "deploy"):
        raise FormatError(f"unknown mode {mode!r}")
    model = build(config, seed=0)
    if mode == "deploy":
        model = deploy(model)

    by_name = {e["name"]: e for e in header["tensors"]}
    skeleton_names = []
    for name, arr in named_tensors(model):
        skeleton_names.append(name)
        entry = by_name.get(name)
        if entry is None:
            raise FormatError(f"file has no tensor {name!r} required by the model")
        if tuple(entry["shape"]) != arr.shape:
            raise ShapeError(
                f"tensor {name!r}: file shape {tuple(entry['shape'])}, "
                f"model expects {arr.shape}"
            )
        start = entry["byte_offset"]
        flat = np.frombuffer(payload, dtype="<f4", count=arr.size, offset=start)
        np.copyto(arr, flat.reshape(arr.shape))
    extra = set(by_name) - set(skeleton_names)
    if extra:
        raise FormatError(f"file contains unknown tensors: {sorted(extra)}")
    return model
