import os
import pathlib
import stat

import numpy as np
import pytest

from dualstream.diffcore import (
    DstnError,
    DstnVersionError,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)


class TestDstn:
    def test_roundtrip_f32(self, rng, tmp_path):
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "a.dstn"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_roundtrip_f64(self, rng, tmp_path):
        arr = rng.normal(size=(7,))
        path = tmp_path / "b.dstn"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_roundtrip_scalar(self, tmp_path):
        path = tmp_path / "s.dstn"
        write_tensor(path, np.float64(3.5))
        assert read_tensor(path) == 3.5

    def test_deterministic_bytes(self, rng):
        arr = rng.normal(size=(2, 2)).astype(np.float32)
        assert tensor_to_bytes(arr) == tensor_to_bytes(arr.copy())

    def test_header_layout(self):
        blob = tensor_to_bytes(np.zeros((2, 3), dtype=np.float32))
        assert blob[:4] == b"DSTN"
        assert blob[4:6] == (1).to_bytes(2, "little")   # version
        assert blob[6] == 0                              # dtype f32
        assert blob[7] == 2                              # rank
        assert int.from_bytes(blob[8:16], "little") == 2
        assert int.from_bytes(blob[16:24], "little") == 3
        assert len(blob) == 24 + 6 * 4

    def test_truncated_raises_with_path(self, rng, tmp_path):
        arr = rng.normal(size=(4, 4)).astype(np.float32)
        path = tmp_path / "trunc.dstn"
        blob = tensor_to_bytes(arr)
        path.write_bytes(blob[:-5])
        with pytest.raises(DstnError, match="trunc.dstn"):
            read_tensor(path)

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        path = tmp_path / "g.dstn"
        path.write_bytes(tensor_to_bytes(np.zeros(3, dtype=np.float32)) + b"xx")
        with pytest.raises(DstnError):
            read_tensor(path)

    def test_bad_magic(self):
        with pytest.raises(DstnError, match="magic"):
            tensor_from_bytes(b"NOPE" + bytes(20))

    def test_version_mismatch(self):
        blob = bytearray(tensor_to_bytes(np.zeros(2, dtype=np.float32)))
        blob[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(DstnVersionError):
            tensor_from_bytes(bytes(blob))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DstnError, match="missing"):
            read_tensor(tmp_path / "absent.dstn")


def test_atomic_directory_replaces_and_follows_the_umask(tmp_path):
    from dualstream.diffcore.dstn import atomic_directory

    umask = os.umask(0o027)
    try:
        for content in ("old", "new"):
            with atomic_directory(tmp_path / "out") as tmp:
                (tmp / "f.txt").write_text(content)
    finally:
        os.umask(umask)
    assert (tmp_path / "out" / "f.txt").read_text() == "new"
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o750
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_write_text_keeps_the_old_content_when_a_write_fails(tmp_path, monkeypatch):
    from dualstream.diffcore.dstn import atomic_write_text

    target = tmp_path / "report.csv"
    for content in ("old\n", "new\n"):
        atomic_write_text(target, content)
    assert target.read_text(encoding="utf-8") == "new\n"
    # an unencodable character fails the write after the temp file is created
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "x" * 10000 + "\udc80")
    # a failed rename leaves the complete temp file behind unless it is removed
    def failing_replace(self, to):
        raise OSError("disk gone")

    monkeypatch.setattr(pathlib.Path, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write_text(target, "newer\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
