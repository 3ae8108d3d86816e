"""DSTN tensor container: the on-disk format for datasets and checkpoints.

Layout (all little-endian):
    magic    4 bytes  b"DSTN"
    version  u16
    dtype    u8       0 = float32, 1 = float64
    rank     u8
    dims     rank * u64
    payload  raw scalars
"""

from __future__ import annotations

import json
import shutil
import struct
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

MAGIC = b"DSTN"
VERSION = 1

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class DstnError(IOError):
    """Corrupt or unreadable DSTN data."""


class DstnVersionError(DstnError):
    """Format version not supported by this reader."""


def tensor_to_bytes(array: np.ndarray) -> bytes:
    arr = np.asarray(array)
    if arr.dtype not in _DTYPE_CODE:
        raise DstnError(f"unsupported dtype {arr.dtype}; DSTN stores f32/f64 only")
    header = MAGIC + struct.pack("<HBB", VERSION, _DTYPE_CODE[arr.dtype], arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    return header + dims + payload


def tensor_from_bytes(blob: bytes, source: str = "<bytes>") -> np.ndarray:
    if len(blob) < 8:
        raise DstnError(f"{source}: truncated header")
    if blob[:4] != MAGIC:
        raise DstnError(f"{source}: bad magic {blob[:4]!r}")
    version, dtype_code, rank = struct.unpack("<HBB", blob[4:8])
    if version != VERSION:
        raise DstnVersionError(f"{source}: format version {version}, expected {VERSION}")
    if dtype_code not in _CODE_DTYPE:
        raise DstnError(f"{source}: unknown dtype code {dtype_code}")
    need = 8 + 8 * rank
    if len(blob) < need:
        raise DstnError(f"{source}: truncated dims")
    shape = struct.unpack(f"<{rank}Q", blob[8:need]) if rank else ()
    dtype = _CODE_DTYPE[dtype_code]
    count = int(np.prod(shape)) if rank else 1
    expected = need + count * dtype.itemsize
    if len(blob) != expected:
        raise DstnError(f"{source}: payload is {len(blob) - need} bytes, expected {expected - need}")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=need)
    return data.reshape(shape).astype(dtype.newbyteorder("="))


def write_tensor(path, array: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(array))


def read_tensor(path) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise DstnError(f"{p}: missing tensor file")
    return tensor_from_bytes(p.read_bytes(), source=str(p))


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
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
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
