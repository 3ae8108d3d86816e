"""DSTN container: the on-disk format for dataset frames and checkpoints.

One file holds named float tensors and one JSON ``meta`` object, in the
layout of the safetensors format (all little-endian):
    magic     4 bytes  b"DSTN"
    version   u16      2
    length    u64      byte length of the header
    header    UTF-8 JSON {"entries": [...], "meta": {...}}, keys sorted, no
              whitespace; one entry {"dtype", "name", "offset", "shape"} per
              tensor in the order the writer was given, dtype 0 = float32,
              1 = float64, offset counted from the first payload byte
    payloads  the tensors' raw scalars, back to back, the last ending at the
              end of the file

The same tensors and meta give the same bytes. The reader refuses anything
else (a bad magic or header, an unknown dtype code, offsets that overlap,
leave a gap or do not fill the file exactly) with a ``DstnError`` naming
the file, and another format version with a ``DstnVersionError``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

MAGIC = b"DSTN"
VERSION = 2

_PREFIX = struct.Struct("<4sHQ")   # magic, version, header length
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class DstnError(IOError):
    """Corrupt or unreadable DSTN data."""


class DstnVersionError(DstnError):
    """Format version not supported by this reader."""


@dataclass(frozen=True)
class Entry:
    """One tensor of a DSTN file, as its header describes it."""

    name: str
    dtype: np.dtype            # little-endian
    shape: tuple[int, ...]
    offset: int                # from the first payload byte

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


def write_tensor(path, tensors: Mapping[str, np.ndarray], meta: dict) -> None:
    """Write ``tensors`` (name to float32/float64 array, kept in this order)
    and the JSON object ``meta`` as one DSTN file at ``path``."""
    entries, payloads, offset = [], [], 0
    for name, array in tensors.items():
        arr = np.asarray(array)
        if arr.dtype not in _DTYPE_CODE:
            raise DstnError(f"{path}: {name} has dtype {arr.dtype}; DSTN stores f32/f64 only")
        entries.append({"name": name, "dtype": _DTYPE_CODE[arr.dtype], "shape": list(arr.shape), "offset": offset})
        payloads.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
        offset += arr.nbytes
    header = json.dumps({"entries": entries, "meta": meta}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
        f.write(header)
        for payload in payloads:
            f.write(payload)


def read_tensor(path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors (in the file's order, native byte order) and the meta of
    the DSTN file at ``path``."""
    p = Path(path)
    with _open(p) as f:
        entries, meta = _read_layout(f, p)
        tensors = {}
        for e in entries:
            # each tensor is read straight into its own (aligned, writable) array
            arr = np.empty(e.shape, e.dtype)
            if f.readinto(arr) != e.nbytes:
                raise DstnError(f"{p}: truncated while reading {e.name!r}")
            tensors[e.name] = arr.astype(e.dtype.newbyteorder("="), copy=False)
    return tensors, meta


def read_header(path) -> tuple[list[Entry], dict]:
    """The entries and the meta of the DSTN file at ``path``, checked as
    ``read_tensor`` checks them, without reading the payloads."""
    p = Path(path)
    with _open(p) as f:
        return _read_layout(f, p)


def _open(p: Path):
    try:
        return p.open("rb")
    except FileNotFoundError:
        raise DstnError(f"{p}: missing file") from None


def _read_layout(f, source) -> tuple[list[Entry], dict]:
    """Read and check the prefix and header of the open file ``f`` against
    its size, leaving it at the first payload byte: (entries, meta)."""
    size = os.fstat(f.fileno()).st_size
    prefix = f.read(_PREFIX.size)
    if len(prefix) < 6:
        raise DstnError(f"{source}: truncated header")
    if prefix[:4] != MAGIC:
        raise DstnError(f"{source}: bad magic {prefix[:4]!r}")
    (version,) = struct.unpack_from("<H", prefix, 4)
    if version != VERSION:
        raise DstnVersionError(f"{source}: format version {version}, expected {VERSION}")
    if len(prefix) < _PREFIX.size:
        raise DstnError(f"{source}: truncated header")
    length = _PREFIX.unpack(prefix)[2]
    if length > size - _PREFIX.size:
        raise DstnError(f"{source}: truncated header")
    try:
        doc = json.loads(f.read(length).decode("utf-8"))
        entries = [_entry(e) for e in doc["entries"]]
        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}, not an object")
    except (ValueError, KeyError, TypeError) as e:
        raise DstnError(f"{source}: corrupt header ({type(e).__name__}: {e})") from None
    end, names = 0, set()
    for e in entries:
        if e.name in names:
            raise DstnError(f"{source}: duplicate entry {e.name!r}")
        if e.offset != end:
            raise DstnError(f"{source}: entry {e.name!r} starts at payload byte {e.offset}, expected {end}")
        names.add(e.name)
        end += e.nbytes
    if size - _PREFIX.size - length != end:
        raise DstnError(f"{source}: payload is {size - _PREFIX.size - length} bytes, expected {end}")
    return entries, meta


def _entry(doc: dict) -> Entry:
    name, code, shape, offset = doc["name"], doc["dtype"], doc["shape"], doc["offset"]
    if not isinstance(name, str):
        raise TypeError(f"entry name {name!r} is not a string")
    if type(code) is not int or code not in _CODE_DTYPE:
        raise ValueError(f"unknown dtype code {code!r} of {name!r}")
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"bad shape {shape!r} of {name!r}")
    if type(offset) is not int:
        raise ValueError(f"bad offset {offset!r} of {name!r}")
    return Entry(name, _CODE_DTYPE[code], tuple(shape), offset)


def read_json(path: Path, error: type = DstnError, parse: Optional[Callable] = None, version: Optional[int] = None):
    """The JSON document at ``path``, through ``parse`` when given. A missing,
    unreadable or malformed file, a ``format_version`` other than
    ``version`` (when given), or a document ``parse`` cannot read (a missing
    key, a value of the wrong type) raises ``error`` naming the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if version is not None and doc.get("format_version") != version:
            raise error(f"{path}: format version {doc.get('format_version')}, expected {version}")
        return doc if parse is None else parse(doc)
    except error:
        raise
    except FileNotFoundError:
        raise error(f"{path}: missing file") from None
    except (OSError, ValueError, OverflowError, KeyError, IndexError, TypeError, AttributeError) as e:
        raise error(f"{path}: corrupt or incomplete ({type(e).__name__}: {e})") from None


@contextmanager
def atomic_directory(path) -> Iterator[Path]:
    """Yield a sibling temp directory to write ``path``'s contents into, then
    rename it into place, replacing what was there. If the block raises, it
    is removed: an interrupted write leaves ``path`` as it was."""
    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, unlike mkdtemp, gives the directory the umask's permissions
    tmp = root.parent / f".{root.name}.{uuid.uuid4().hex}"
    tmp.mkdir()
    try:
        yield tmp
        if root.exists():
            # a directory cannot be renamed over a non-empty one: move the old one aside first
            old = root.parent / f".{root.name}.old.{uuid.uuid4().hex}"
            root.rename(old)
            try:
                tmp.rename(root)
            except BaseException:
                old.rename(root)
                raise
            shutil.rmtree(old)
        else:
            tmp.rename(root)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a sibling temp file, then rename it onto
    ``path`` (``os.replace``), making the directory if needed. If the write
    raises, the temp file is removed: ``path`` is left as it was."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.parent / f".{p.name}.{uuid.uuid4().hex}"
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
