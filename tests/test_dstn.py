import json
import os
import pathlib
import stat
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualstream.diffcore import DstnError, DstnVersionError, read_tensor, write_tensor
from dualstream.diffcore.dstn import read_header


def _container(entries, meta=None, payload=b"", version=2):
    """DSTN bytes with a hand-written header, for layouts the writer never makes."""
    header = json.dumps({"entries": entries, "meta": meta or {}}, sort_keys=True, separators=(",", ":")).encode()
    return b"DSTN" + struct.pack("<HQ", version, len(header)) + header + payload


def _refused(path, match):
    """Both readers refuse the file at ``path`` with a DstnError naming it and matching ``match``."""
    for read in (read_tensor, read_header):
        with pytest.raises(DstnError, match=match) as err:
            read(path)
        assert str(path) in str(err.value)


class TestDstn:
    def test_roundtrip_f32(self, rng, tmp_path):
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "a.dstn"
        write_tensor(path, {"a": arr}, {"k": [1, "v"]})
        back, meta = read_tensor(path)
        assert back["a"].dtype == np.float32 and meta == {"k": [1, "v"]}
        np.testing.assert_array_equal(back["a"], arr)

    def test_roundtrip_f64(self, rng, tmp_path):
        arr = rng.normal(size=(7,))
        path = tmp_path / "b.dstn"
        write_tensor(path, {"b": arr}, {})
        np.testing.assert_array_equal(read_tensor(path)[0]["b"], arr)

    def test_roundtrip_scalar(self, tmp_path):
        path = tmp_path / "s.dstn"
        write_tensor(path, {"s": np.float64(3.5)}, {})
        back = read_tensor(path)[0]["s"]
        assert back.shape == () and back == 3.5

    def test_deterministic_bytes(self, rng, tmp_path):
        arr = rng.normal(size=(2, 2)).astype(np.float32)
        write_tensor(tmp_path / "a.dstn", {"x": arr, "y": arr.T}, {"b": 1, "a": 2})
        write_tensor(tmp_path / "b.dstn", {"x": arr.copy(), "y": np.ascontiguousarray(arr.T)}, {"a": 2, "b": 1})
        assert (tmp_path / "a.dstn").read_bytes() == (tmp_path / "b.dstn").read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.dstn"
        write_tensor(path, {"z": np.zeros((2, 3), dtype=np.float32), "a": np.arange(2.0)}, {"k": 1})
        blob = path.read_bytes()
        header = (b'{"entries":[{"dtype":0,"name":"z","offset":0,"shape":[2,3]},'
                  b'{"dtype":1,"name":"a","offset":24,"shape":[2]}],"meta":{"k":1}}')
        assert blob[:4] == b"DSTN"
        assert blob[4:6] == (2).to_bytes(2, "little")                # version
        assert blob[6:14] == len(header).to_bytes(8, "little")       # header length
        assert blob[14:14 + len(header)] == header                   # entries in the given order
        assert blob[14 + len(header):] == bytes(24) + np.arange(2.0, dtype="<f8").tobytes()

    def test_truncated_raises_with_path(self, rng, tmp_path):
        path = tmp_path / "trunc.dstn"
        write_tensor(path, {"a": rng.normal(size=(4, 4)).astype(np.float32)}, {})
        path.write_bytes(path.read_bytes()[:-5])
        _refused(path, "trunc.dstn")

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.dstn"
        write_tensor(path, {"a": np.zeros(3, dtype=np.float32)}, {})
        path.write_bytes(path.read_bytes() + b"xx")
        _refused(path, "payload is 14 bytes, expected 12")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.dstn"
        path.write_bytes(b"NOPE" + bytes(20))
        _refused(path, "magic")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.dstn"
        write_tensor(path, {"a": np.zeros(2, dtype=np.float32)}, {})
        blob = bytearray(path.read_bytes())
        blob[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DstnVersionError, match="format version 9, expected 2"):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        _refused(tmp_path / "absent.dstn", "missing")


ENTRY = {"name": "a", "dtype": 0, "shape": [2], "offset": 0}


@pytest.mark.parametrize("entries, match", [
    ([ENTRY, dict(ENTRY, name="b", offset=4)], "entry 'b' starts at payload byte 4, expected 8"),    # overlap
    ([ENTRY, dict(ENTRY, name="b", offset=12)], "entry 'b' starts at payload byte 12, expected 8"),  # gap
    ([dict(ENTRY, offset=4)], "entry 'a' starts at payload byte 4, expected 0"),
    ([ENTRY, dict(ENTRY, offset=8)], "duplicate entry 'a'"),
    ([dict(ENTRY, dtype=7)], "unknown dtype code 7"),
    ([dict(ENTRY, dtype=True)], "unknown dtype code True"),
    ([dict(ENTRY, shape=[-2])], "bad shape"),
    ([dict(ENTRY, shape=[2 ** 62, 2 ** 62])], f"payload is 16 bytes, expected {4 * 2 ** 124}"),
    ([{"name": "a", "dtype": 0, "shape": [2]}], "KeyError"),
], ids=["overlap", "gap", "first-offset", "duplicate", "dtype-code", "dtype-bool", "shape", "huge-shape", "no-offset"])
def test_inconsistent_header_is_refused(tmp_path, entries, match):
    path = tmp_path / "bad.dstn"
    path.write_bytes(_container(entries, payload=bytes(16)))
    _refused(path, match)


@pytest.mark.parametrize("header", [b"{not json", b'{"entries": []}', b'{"entries": [], "meta": []}', b"[1]",
                                    b"\xff\xfe"])
def test_corrupt_header_is_refused(tmp_path, header):
    path = tmp_path / "bad.dstn"
    path.write_bytes(b"DSTN" + struct.pack("<HQ", 2, len(header)) + header)
    _refused(path, "corrupt header")


def test_version_1_file_is_refused_naming_its_version(tmp_path):
    # a single-tensor file of the first format: magic, version, dtype, rank, dims, payload
    path = tmp_path / "old.dstn"
    path.write_bytes(b"DSTN" + struct.pack("<HBBQ", 1, 0, 1, 2) + bytes(8))
    for read in (read_tensor, read_header):
        with pytest.raises(DstnVersionError, match="old.dstn: format version 1, expected 2"):
            read(path)


def test_writer_refuses_other_dtypes(tmp_path):
    with pytest.raises(DstnError, match="stores f32/f64 only"):
        write_tensor(tmp_path / "i.dstn", {"i": np.arange(3)}, {})


def test_truncation_at_every_byte_is_refused(rng, tmp_path):
    path = tmp_path / "t.dstn"
    tensors = {"img": rng.normal(size=(3, 2, 2)).astype(np.float32), "s": np.float64(1.5), "e": np.zeros((0, 3))}
    write_tensor(path, tensors, {"boxes": [{"yaw": 0.25}], "schedule": {"front": True}})
    blob = path.read_bytes()
    for k in range(len(blob)):
        path.write_bytes(blob[:k])
        _refused(path, "t.dstn")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
ARRAYS = hnp.arrays(st.sampled_from([np.float32, np.float64]),
                    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3))


@given(tensors=st.dictionaries(st.text(max_size=6), ARRAYS, max_size=7),
       meta=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
def test_roundtrip_is_bitwise_and_reproducible(tmp_path_factory, tensors, meta):
    root = tmp_path_factory.mktemp("rt")
    for name in ("a.dstn", "b.dstn"):
        write_tensor(root / name, tensors, meta)
    assert (root / "a.dstn").read_bytes() == (root / "b.dstn").read_bytes()
    back, back_meta = read_tensor(root / "a.dstn")
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        got = back[name]
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes()), name
    assert json.dumps(back_meta, sort_keys=True) == json.dumps(meta, sort_keys=True)
    entries, header_meta = read_header(root / "a.dstn")
    assert [(e.name, e.dtype, e.shape) for e in entries] == [(n, a.dtype, a.shape) for n, a in tensors.items()]
    assert header_meta == back_meta


def test_two_saves_of_the_same_model_are_byte_identical(tmp_path):
    from dualstream.configio import Config
    from dualstream.model import DualStreamModel
    from dualstream.trainkit import OptimizerState, save_checkpoint

    cfg = Config(n_layers=1, latent_dim=16, n_queries=8, topk=4, decode_hidden=16, bev_cells=8)
    model = DualStreamModel(cfg)
    opt = OptimizerState.fresh(model.store)
    for name in ("a", "b"):
        save_checkpoint(tmp_path / name, model, opt, cfg, step=5, epoch=1)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["meta.json", "state.dstn"]
    for name in ("meta.json", "state.dstn"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


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
