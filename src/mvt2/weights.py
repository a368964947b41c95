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
variance below zero, is a ``FormatError``.  ``save`` and ``load`` apply
one per-tensor rule, ``tensor_fault``, and ask for each tensor by the
shape of its geometry row through one walk, ``model.from_tensors``, so
``save`` refuses a tensor that ``load`` would refuse or read back as
another; it also refuses a conv whose grid is not its row's, which a
file does not record.  ``save`` writes a temporary file and puts it in the
target's place in one step, so a failed save leaves the old file whole
(see ``save``).  ``load`` reads the payload into one read-only buffer, and
a loaded model's tensors are views into it: an in-place write into one
raises ``ValueError``.  The buffer is read, not memory-mapped, so a file
truncated or rewritten after the load cannot change or fault a live
model.  The read runs on two threads: the caller reads and screens the
first half of the payload and ``tensor.split_map``'s worker the second,
each by positional reads.
"""

import contextlib
import dataclasses
import json
import os
import secrets
import struct
import sys

import numpy as np

from .model import Model, ModelConfig, _check, _walk, from_tensors, named_tensors
from .tensor import ConvSpec, split_map

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


def tensor_fault(name: str, arr: np.ndarray, screened: bool = False):
    """Why ``arr`` cannot be the file tensor ``name``, or None if it can:
    it is not float32, it holds a NaN or an infinity (not looked for when
    ``screened``, the caller having found none), or ``name`` is a
    batch-norm variance and ``arr`` holds a value below zero.  ``save`` and
    ``load`` both apply it, so ``save`` writes no file that ``load``
    refuses or reads back as another model."""
    if arr.dtype != np.float32:
        return f"is {arr.dtype}: weight files store float32"
    if not screened and not np.isfinite(arr).all():
        return "holds a NaN or infinite value"
    if name.endswith("_bn.var") and (arr < 0).any():
        return "holds a negative batch-norm variance"
    return None


def _grids(unit) -> list:
    """(stride, padding, groups) of each conv of a unit: the folded conv, or
    a group's main conv and its scale conv if it has one."""
    convs = [unit] if isinstance(unit, ConvSpec) else [unit.main, unit.scale]
    return [(c.stride, c.padding, c.groups) for c in convs if c is not None]


def save(model: Model, path) -> None:
    """Write the model's parameters to ``path``, one tensor at a time.

    Raises ValueError, before anything is written, if the model is not its
    config's layout in one form and one dtype (``model._check``: ``blocks``
    may have been edited in place), or if a tensor breaks a rule ``load``
    applies: the shape its geometry row gives, asked for by the same
    ``from_tensors`` walk ``load`` makes, or the per-tensor rule
    (``tensor_fault``: not float32, a NaN or an infinity, a negative
    batch-norm variance).  It raises too if a conv's stride, padding or
    groups, assigned after the model was built, is not what its row gives,
    which is all a file records of a conv's grid.  ``load`` would refuse
    the file or return another model.

    When ``path`` names an existing regular file the caller may write
    (through a symlink, the link's target; the link stays), the new file
    is written under a temporary name in the target's directory and then
    put in the target's place in one step (``_exchange`` where Linux has
    it, else ``os.replace``).  So a ``save`` that fails part-way (a full
    disk, a file-size limit, a kill) leaves the old file whole, and a
    concurrent ``load`` reads the old file or the new one, never a part.
    On an error the temporary file is removed; a kill leaves it behind.
    A hard link to the old file keeps the old bytes, and the new file's
    mode is ``0o666 & ~umask``, not the old file's.  Where the directory
    refuses a new file, the old one is written in place.  Any other path
    (a new name, a directory, FIFO or device, or a file the caller may
    not write) is opened as before.  Nothing is fsynced.  The new file
    has a fresh inode, which also saves time: on ext4 with its default
    ``auto_da_alloc``, truncating a file written moments before waits
    for its writeback."""
    _check(model)
    arrays, tensors = dict(named_tensors(model)), []

    def tensor(name, shape):
        arr = arrays[name]
        fault = (f"has shape {arr.shape}, its row {shape}" if arr.shape != shape
                 else tensor_fault(name, arr))
        if fault is not None:
            raise ValueError(f"tensor {name!r} {fault}; nothing written")
        tensors.append((name, arr))
        return arr

    # ``load``'s walk, which asks for each tensor by its row's shape
    rebuilt = from_tensors(model.config, model.mode, tensor)
    for (block, row, unit), (_, _, read) in zip(_walk(model), _walk(rebuilt)):
        if _grids(unit) != _grids(read):
            name = f"{block}.{row.name}" if row.name else block
            raise ValueError(f"unit {name!r} has (stride, padding, groups) {_grids(unit)}, "
                             f"its row {_grids(read)}; nothing written")
    entries = []
    end = 0
    for name, arr in tensors:
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

    def write(fh):
        fh.write(_FIXED_HEADER.pack(MAGIC, VERSION, len(header_bytes)))
        fh.write(header_bytes)
        end = 0
        for (_, arr), entry in zip(tensors, entries):
            fh.write(bytes(entry["byte_offset"] - end))
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))
            end = entry["byte_offset"] + entry["byte_len"]

    if os.path.isfile(path) and os.access(path, os.W_OK):
        target = os.fsdecode(os.path.realpath(path))
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass  # the directory refuses a new file: write in place
        else:
            try:
                with open(fd, "wb") as fh:
                    write(fh)
                if not _exchange(tmp, target):
                    os.replace(tmp, target)
            finally:  # a part-written file, or the old one after an exchange
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            return
    with open(path, "wb") as fh:
        write(fh)


def _exchange(a, b) -> bool:
    """Swap the files named ``a`` and ``b`` in one step, with Linux's
    ``renameat2(RENAME_EXCHANGE)``; False, with nothing changed, where that
    is missing or refused (``b`` does not exist, say).  ``os.replace`` onto
    an existing file makes ext4 (``auto_da_alloc``) start writing the new
    file back inside the call, about 17 ms for a 25 MB file on a
    virtio-disk Xeon host; the exchange does not."""
    if not sys.platform.startswith("linux"):
        return False
    import ctypes

    try:
        renameat2 = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError):
        return False
    at_cwd, exchange = -100, 2  # AT_FDCWD, RENAME_EXCHANGE
    return renameat2(at_cwd, os.fsencode(a), at_cwd, os.fsencode(b), exchange) == 0


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


_ENTRY_KEYS = ("name", "dtype", "shape", "byte_offset", "byte_len")
_ENTRY_KEY_SET = frozenset(_ENTRY_KEYS)


def _validate_manifest(entries, payload_len: int):
    """Check each entry's keys and types, then its byte count, alignment and
    extent, in that order; then that no two payload regions overlap.  A
    count is a JSON integer ``>= 0``: ``type(v) is int`` refuses bools."""
    if not isinstance(entries, list):
        raise FormatError("header 'tensors' is not a list")
    seen, spans = set(), []
    for entry in entries:
        if not isinstance(entry, dict) or not entry.keys() >= _ENTRY_KEY_SET:
            raise FormatError(f"each tensor entry must be an object with keys {_ENTRY_KEYS}")
        name, shape = entry["name"], entry["shape"]
        offset, length = entry["byte_offset"], entry["byte_len"]
        if not isinstance(name, str):
            raise FormatError(f"tensor name {name!r} is not a string")
        if name in seen:
            raise DuplicateNameError(f"tensor {name!r} listed more than once")
        seen.add(name)
        if entry["dtype"] != "f32":
            raise FormatError(f"tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        if not isinstance(shape, list):
            raise FormatError(f"tensor {name!r}: shape {shape!r} is not a list of counts")
        expected = 4
        for dim in shape:
            if type(dim) is not int or dim < 0:
                raise FormatError(f"tensor {name!r}: shape {shape!r} is not a list of counts")
            expected *= dim
        if not (type(offset) is int and offset >= 0 and type(length) is int and length >= 0):
            raise FormatError(f"tensor {name!r}: byte_offset and byte_len must be counts")
        if length != expected:
            raise FormatError(f"tensor {name!r}: byte_len {length} does not match shape")
        if offset % ALIGNMENT != 0:
            raise FormatError(f"tensor {name!r} is not {ALIGNMENT}-byte aligned")
        if offset + length > payload_len:
            raise TruncatedPayloadError(f"payload ends inside tensor {name!r}")
        spans.append((offset, offset + length))
    spans.sort()
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
    and shape, then by ``tensor_fault``.  The payload is read in 256 KiB
    chunks, each scanned for non-finite values while it is still in cache;
    only when a chunk holds one (in a tensor, or in the padding between
    tensors) does ``tensor_fault`` scan each tensor, so the error names the
    first bad tensor.  The chunks are split into two contiguous halves run
    through ``split_map``: the caller reads and scans the first and the
    library's worker the second, each with ``os.preadv`` at its own
    offsets, so the threads share no file position.  A one-chunk payload
    stays on the caller.  A short read in either half is a
    ``TruncatedPayloadError``, the first half's if both fail, raised once
    both halves are done.  The worker runs only the read and the scan, no
    other ``mvt2`` function.  A config that needs a tensor the file does
    not list is refused at the first such tensor, and a payload that does
    not fit in memory is a ``FormatError``.
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
        extent = max((e["byte_offset"] + e["byte_len"] for e in entries), default=0)
        try:
            raw = np.empty(extent + ALIGNMENT, dtype=np.uint8)
        except MemoryError:
            raise FormatError("payload needs more memory than there is") from None
        start = -raw.ctypes.data % ALIGNMENT
        floats = raw[start:start + extent].view(np.float32)
        fd, payload_start = fh.fileno(), fh.tell()

        def read(starts):
            """Read and screen the chunks at float offsets ``starts``: whether
            they are all finite."""
            finite, scratch = True, np.empty(_READ_CHUNK, dtype=bool)
            for lo in starts:
                part = floats[lo:lo + _READ_CHUNK]
                if os.preadv(fd, [part], payload_start + 4 * lo) != part.nbytes:
                    raise TruncatedPayloadError("payload ends inside a tensor")
                if sys.byteorder == "big":
                    part.byteswap(inplace=True)
                finite = finite and bool(np.isfinite(part, out=scratch[:part.size]).all())
            return finite

        starts = range(0, floats.size, _READ_CHUNK)
        mid = (len(starts) + 1) // 2  # the caller's half, the larger when odd
        finite = all(split_map(read, [h for h in (starts[:mid], starts[mid:]) if h]))
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
        fault = tensor_fault(name, arr, screened=finite)
        if fault is not None:
            raise FormatError(f"tensor {name!r} {fault}")
        return arr

    model = from_tensors(config, mode, tensor)
    if by_name:
        raise FormatError(f"file contains unknown tensors: {sorted(by_name)}")
    return model
