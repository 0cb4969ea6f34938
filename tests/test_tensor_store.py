"""Binary tensor container: round-trips, corruption detection, atomic writes."""

import json
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from packbert.errors import DataError
from packbert.tensor_store import MAGIC, read_tensors, write_tensors

from conftest import traced_peak


def test_roundtrip_mixed_tensors(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "weights/a": rng.normal(size=(3, 5)).astype(np.float32),
        "weights/b": rng.integers(-9, 9, size=7).astype(np.int32),
        "digests": rng.integers(0, 256, size=(2, 16)).astype(np.uint8),
        "scalar": np.array([1.5], dtype=np.float32),
    }
    meta = {"kind": "test", "lr": 0.000125, "nested": {"x": 1}}
    path = tmp_path / "t.pbt"
    write_tensors(path, tensors, meta)
    back, back_meta = read_tensors(path)
    assert sorted(back) == sorted(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])
        assert back[k].dtype == tensors[k].dtype
    assert back_meta == meta


def test_float_meta_roundtrips_exactly(tmp_path):
    # repr-level float fidelity through the JSON header.
    values = [8e-4, 1e-6, 0.1 + 0.2, 2**-52]
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.zeros(1, dtype=np.float32)}, {"vals": values})
    _, meta = read_tensors(path)
    assert meta["vals"] == values


def test_empty_tensor_roundtrip(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"e": np.zeros((0, 4), dtype=np.float32)}, {})
    back, _ = read_tensors(path)
    assert back["e"].shape == (0, 4)


def test_float64_rejected(tmp_path):
    with pytest.raises(DataError):
        write_tensors(tmp_path / "t.pbt", {"x": np.zeros(2, dtype=np.float64)}, {})


def test_int64_rejected(tmp_path):
    with pytest.raises(DataError):
        write_tensors(tmp_path / "t.pbt", {"x": np.zeros(2, dtype=np.int64)}, {})


def test_read_holds_the_file_bytes_once(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"a": rng.normal(size=(2048, 2048)).astype(np.float32),
               "b": rng.integers(0, 99, size=(1024, 4096)).astype(np.int32),
               "c": rng.integers(0, 256, size=(1 << 20) + 3).astype(np.uint8)}
    path = tmp_path / "big.pbt"
    write_tensors(path, tensors, {"k": 1})
    size = path.stat().st_size
    assert size >= 32 * 2**20
    back, _, peak = traced_peak(lambda: read_tensors(path))
    assert all(back[0][k].tobytes() == tensors[k].tobytes() for k in tensors)
    assert peak < 1.25 * size, (peak / size)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pbt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataError):
        read_tensors(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.ones(4, dtype=np.float32)}, {})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(MAGIC) + 2])
    with pytest.raises(DataError):
        read_tensors(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.ones(100, dtype=np.float32)}, {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(DataError):
        read_tensors(path)


def test_corrupt_header_json_rejected(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.ones(2, dtype=np.float32)}, {})
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    # Stomp the middle of the JSON header.
    start = len(MAGIC) + 4
    raw[start + hlen // 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_tensors(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        read_tensors(tmp_path / "absent.pbt")


def test_names_sorted_in_header(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"zz": np.ones(1, dtype=np.float32),
                         "aa": np.ones(1, dtype=np.float32)}, {})
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen])
    names = [t["name"] for t in header["tensors"]]
    assert names == sorted(names)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"a": rng.normal(size=4).astype(np.float32)}
    p1, p2 = tmp_path / "1.pbt", tmp_path / "2.pbt"
    write_tensors(p1, tensors, {"k": 1})
    write_tensors(p2, tensors, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_non_contiguous_input_stored_correctly(tmp_path):
    base = np.arange(20, dtype=np.float32).reshape(4, 5)
    view = base[:, ::2]  # stride trick
    path = tmp_path / "t.pbt"
    write_tensors(path, {"v": view}, {})
    back, _ = read_tensors(path)
    np.testing.assert_array_equal(back["v"], view)


def _rewrite_header(path, edit):
    """Apply edit to the parsed header and re-seal the file with a valid checksum."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(raw[start : start + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<I", len(new)) + new + raw[start + hlen : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _entry(i, **kw):
    return lambda h: h["tensors"][i].update(kw)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h.pop("tensors"), id="no-tensor-list"),
    pytest.param(lambda h: h.update(tensors={"a": 1}), id="tensors-not-list"),
    pytest.param(lambda h: h.update(meta=[]), id="meta-not-dict"),
    pytest.param(lambda h: h["tensors"][0].pop("nbytes"), id="missing-key"),
    pytest.param(_entry(1, name="a"), id="duplicate-name"),
    pytest.param(lambda h: h["tensors"].pop(), id="trailing-data"),
    pytest.param(lambda h: h.update(tensors=[5, 6]), id="entry-not-dict"),
    pytest.param(_entry(0, dtype="<f8"), id="float64"),
    pytest.param(_entry(0, dtype=["<f4"]), id="dtype-not-str"),
    pytest.param(_entry(0, shape=[2, "3"]), id="shape-not-int"),
    pytest.param(_entry(0, shape=[-4]), id="negative-dim"),
    pytest.param(_entry(0, shape=7), id="shape-not-list"),
    pytest.param(_entry(0, nbytes=12), id="nbytes-mismatch"),
    pytest.param(_entry(1, offset=0), id="overlap"),
    pytest.param(_entry(1, offset=20, nbytes=4, shape=[1]), id="past-end"),
    pytest.param(_entry(0, name=3), id="name-not-str"),
])
def test_malformed_header_entries_rejected(tmp_path, edit):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"a": np.ones(4, dtype=np.float32),
                         "b": np.ones(2, dtype=np.int32)}, {})
    _rewrite_header(path, edit)
    with pytest.raises(DataError):
        read_tensors(path)


def test_checksum_covers_every_byte(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.arange(6, dtype=np.float32)}, {"k": 1})
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(DataError):
            read_tensors(path)


def test_failed_write_keeps_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "t.pbt"
    write_tensors(path, {"x": np.ones(3, dtype=np.float32)}, {"v": 1})
    old = path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        write_tensors(path, {"x": np.zeros(3, dtype=np.float32)}, {"v": 2})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.pbt"]


def test_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            events.append(("fsync dir", st.st_ino))
        else:
            events.append(("fsync file", None))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "sub" / "t.pbt"
    write_tensors(path, {"x": np.ones(3, dtype=np.float32)})
    assert events == [
        ("fsync file", None),
        ("replace", None),
        ("fsync dir", os.stat(path.parent).st_ino),
    ]
