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
``geometry`` rows in ``blocks``; every parameter appears exactly once.  Data
is float32 regardless of platform endianness.  A train file holds each
conv unit as a branch group (a one-branch group is named like a plain
conv with its batch norm); a deploy file holds only the folded convs and
the classifier.  Every fault in a file raises a ``WeightFileError``
subclass; a tensor holding a NaN or an infinity, or a batch-norm
variance below zero, is a ``FormatError``.  ``save`` refuses to write a
non-finite tensor.  ``load`` reads the payload into one read-only
buffer, and a loaded model's tensors are views into it: an in-place write
into one raises ``ValueError``.  The buffer is read, not
memory-mapped, so a file truncated or rewritten after the load cannot
change or fault a live model.
"""

import dataclasses
import json
import math
import os
import struct
import sys

import numpy as np

from .model import Model, ModelConfig, _check, from_tensors, named_tensors

MAGIC = b"MVT2"
VERSION = 1
ALIGNMENT = 64
_FIXED_HEADER = struct.Struct("<4sIQ")
# floats per read in ``load``: 256 KiB, so each chunk is checked for
# non-finite values while it is still in cache
_READ_CHUNK = 1 << 16

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
    """Write the model's parameters to ``path``, one tensor at a time.

    Raises ValueError, before anything is written, if the model is not its
    config's layout in one form (``model._check``: ``blocks`` may have been
    edited in place), or if a tensor is not float32 or holds a NaN or an
    infinity: ``load`` would refuse the file or return another model."""
    _check(model)
    tensors = list(named_tensors(model))
    entries = []
    end = 0
    for name, arr in tensors:
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {name!r} is {arr.dtype}: weight files store float32; "
                             "convert the model first")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} holds a NaN or infinite value; nothing written")
        offset = _aligned(end)
        end = offset + 4 * arr.size
        entries.append(
            {
                "name": name,
                "dtype": "f32",
                "shape": list(arr.shape),
                "byte_offset": offset,
                "byte_len": 4 * arr.size,
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
        end = 0
        for (_, arr), entry in zip(tensors, entries):
            fh.write(bytes(entry["byte_offset"] - end))
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))
            end = entry["byte_offset"] + entry["byte_len"]


def read_header(path) -> dict:
    """Parse the fixed header (magic, version, length) and the JSON header.
    The JSON header is checked only for its ``config``, ``mode`` and
    ``tensors`` keys and returned as it is; ``load`` checks the tensor
    manifest and the config."""
    with open(path, "rb") as fh:
        return _parse(fh)[0]


def _parse(fh):
    """The JSON header and the payload length; leaves ``fh`` at the payload."""
    size = os.fstat(fh.fileno()).st_size
    fixed = fh.read(_FIXED_HEADER.size)
    if len(fixed) < 4:
        raise TruncatedPayloadError("file shorter than the magic number")
    if fixed[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, got {fixed[:4]!r}")
    if len(fixed) < _FIXED_HEADER.size:
        raise TruncatedPayloadError("file shorter than the fixed header")
    _, version, header_len = _FIXED_HEADER.unpack(fixed)
    if version != VERSION:
        raise VersionError(f"unsupported format version {version}, expected {VERSION}")
    header_end = _FIXED_HEADER.size + header_len
    if size < header_end:
        raise TruncatedPayloadError("file ends inside the JSON header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("JSON header is not an object")
    for key in ("config", "mode", "tensors"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
    return header, size - header_end


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_manifest(entries, payload_len: int):
    if not isinstance(entries, list):
        raise FormatError("header 'tensors' is not a list")
    seen = set()
    for entry in entries:
        keys = ("name", "dtype", "shape", "byte_offset", "byte_len")
        if not isinstance(entry, dict) or any(key not in entry for key in keys):
            raise FormatError(f"each tensor entry must be an object with keys {keys}")
        name = entry["name"]
        if not isinstance(name, str):
            raise FormatError(f"tensor name {name!r} is not a string")
        if name in seen:
            raise DuplicateNameError(f"tensor {name!r} listed more than once")
        seen.add(name)
        if entry["dtype"] != "f32":
            raise FormatError(f"tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise FormatError(f"tensor {name!r}: shape {shape!r} is not a list of counts")
        if not (_is_count(entry["byte_offset"]) and _is_count(entry["byte_len"])):
            raise FormatError(f"tensor {name!r}: byte_offset and byte_len must be counts")
        expected = math.prod(shape) * 4
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


def load(path) -> Model:
    """Reconstruct a model from ``path``.

    After the header and the manifest are checked, the payload the manifest
    covers is read into one 64-byte-aligned buffer, which is then made
    read-only; each tensor is a view into it at its offset, so the result
    is bit-identical to the model that was saved, and no other copy of the
    file or of a tensor is held.  ``model.from_tensors`` builds the stored
    form straight around those views: nothing is drawn, fused or built and
    thrown away.  Each tensor is checked, in execution order, for its name
    and shape, for non-finite values and, for a batch-norm variance, for
    negative ones.  The payload is read in 256 KiB chunks, each scanned
    for non-finite values while it is still in cache; only when a chunk
    holds one (in a tensor, or in the padding between tensors) is each
    tensor scanned, so the error names the first bad tensor.  A config
    with more stage blocks than the file lists tensors, or a payload that
    does not fit in memory, is a ``FormatError``.
    """
    with open(path, "rb") as fh:
        header, payload_len = _parse(fh)
        entries = header["tensors"]
        _validate_manifest(entries, payload_len)
        mode = header["mode"]
        if mode not in ("train", "deploy"):
            raise FormatError(f"unknown mode {mode!r}")
        try:
            config = ModelConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid model config in header: {exc}") from None
        # every stage block holds at least one tensor, in either form
        if sum(config.depths) > len(entries):
            raise FormatError(f"model config needs more than the {len(entries)} tensors listed")
        extent = max(e["byte_offset"] + e["byte_len"] for e in entries)
        try:
            raw = np.empty(extent + ALIGNMENT, dtype=np.uint8)
        except MemoryError:
            raise FormatError("payload needs more memory than there is") from None
        start = -raw.ctypes.data % ALIGNMENT
        floats = raw[start:start + extent].view(np.float32)
        finite, scratch = True, np.empty(_READ_CHUNK, dtype=bool)
        for lo in range(0, floats.size, _READ_CHUNK):
            part = floats[lo:lo + _READ_CHUNK]
            if fh.readinto(part) != part.nbytes:
                raise TruncatedPayloadError("payload ends inside a tensor")
            if sys.byteorder == "big":
                part.byteswap(inplace=True)
            finite = finite and bool(np.isfinite(part, out=scratch[:part.size]).all())
    floats.flags.writeable = raw.flags.writeable = False

    by_name = {e["name"]: e for e in entries}

    def tensor(name, shape):
        entry = by_name.pop(name, None)
        if entry is None:
            raise FormatError(f"file has no tensor {name!r} required by the model")
        if tuple(entry["shape"]) != shape:
            raise ShapeError(
                f"tensor {name!r}: file shape {tuple(entry['shape'])}, model expects {shape}"
            )
        first = entry["byte_offset"] // 4
        arr = floats[first:first + entry["byte_len"] // 4].reshape(shape)
        if not finite and not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} holds a NaN or infinite value")
        if name.endswith("_bn.var") and (arr < 0).any():
            raise FormatError(f"tensor {name!r} holds a negative batch-norm variance")
        return arr

    model = from_tensors(config, mode, tensor)
    if by_name:
        raise FormatError(f"file contains unknown tensors: {sorted(by_name)}")
    return model
