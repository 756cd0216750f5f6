import hashlib
import shutil
import sys
import threading
from pathlib import Path

import pytest

from tlc.errors import StoreConflict
from tlc.store import Store


def test_put_and_key(tmp_path):
    store = Store(tmp_path)
    payload = b"2 2\n00\n01\n"
    path = store.put("md/1", payload, ".mat")
    assert path.read_bytes() == payload
    assert path.name == hashlib.sha256(payload).hexdigest() + ".mat"


def test_same_key_same_bytes_is_fine(tmp_path):
    store = Store(tmp_path)
    payload = b"hello\n"
    p1 = store.put("faces/2", payload, ".face")
    p2 = store.put("faces/2", payload, ".face")
    assert p1 == p2


def test_conflicting_bytes_rejected(tmp_path):
    store = Store(tmp_path)
    payload = b"content\n"
    path = store.put("census", payload, ".json")
    path.write_bytes(b"corrupted\n")
    with pytest.raises(StoreConflict):
        store.put("census", payload, ".json")


def test_list_namespace_sorted(tmp_path):
    store = Store(tmp_path)
    store.put("md/2", b"bbb\n", ".mat")
    store.put("md/2", b"aaa\n", ".mat")
    names = store.list_namespace("md/2")
    assert names == sorted(names)
    assert store.list_namespace("missing") == []


def _refusal(store, namespace, payload, suffix):
    with pytest.raises(StoreConflict) as info:
        store.put(namespace, payload, suffix)
    return str(info.value)


def test_refusal_messages(tmp_path):
    payload = b"1 1\n1\n"
    store = Store(tmp_path / "root")
    (tmp_path / "root").mkdir()
    (tmp_path / "root" / "md").write_bytes(b"")
    path = store.path_for("md/1", payload, ".mat")
    assert _refusal(store, "md/1", payload, ".mat") == f"cannot write {path}: Not a directory"

    path = store.path_for("faces/2", payload, ".face")
    path.mkdir(parents=True)
    assert _refusal(store, "faces/2", payload, ".face") == f"cannot write {path}: Is a directory"

    (tmp_path / "file").write_bytes(b"")
    store = Store(tmp_path / "file")
    path = store.path_for("census", payload, ".json")
    assert _refusal(store, "census", payload, ".json") == f"cannot write {path}: Not a directory"

    store = Store(tmp_path / "other")
    path = store.put("census", payload, ".json")
    path.write_bytes(b"corrupted\n")
    assert _refusal(store, "census", payload, ".json") == f"{path} exists with different content"


def test_repeated_put_changes_nothing(tmp_path):
    store = Store(tmp_path)
    payload = b"2 2\n01\n10\n"
    path = store.put("md/2", payload, ".mat")
    before = sorted((tmp_path / "md/2").iterdir())
    for _ in range(3):
        assert store.put("md/2", payload, ".mat") == path
    assert sorted((tmp_path / "md/2").iterdir()) == before == [path]
    assert path.read_bytes() == payload
    assert store.list_namespace("md/2") == [path]


@pytest.mark.parametrize("stored", [b"1 1\n1\n\n", b"1 1\n1\n" * 1000, b"1 1\n1", b""],
                         ids=["one-byte-longer", "longer", "prefix", "empty"])
def test_other_content_at_the_key_is_refused(tmp_path, stored):
    # the whole file is compared: longer files that start with the payload,
    # prefixes of it and an empty file all conflict, and none is replaced
    store = Store(tmp_path)
    payload = b"1 1\n1\n"
    path = store.put("md/1", payload, ".mat")
    path.write_bytes(stored)
    assert _refusal(store, "md/1", payload, ".mat") == f"{path} exists with different content"
    assert path.read_bytes() == stored


def test_put_makes_a_deleted_namespace_again(tmp_path):
    store = Store(tmp_path / "root")
    first = store.put("faces/3", b"000\n", ".face")
    shutil.rmtree(tmp_path / "root" / "faces")
    path = store.put("faces/3", b"000 100\n", ".face")
    assert path.read_bytes() == b"000 100\n"
    assert store.list_namespace("faces/3") == [path]
    assert not first.exists()


def test_stale_temp_file_neither_blocks_nor_lists(tmp_path):
    # a put killed between its temp file and the rename leaves a .tmp-* file
    store = Store(tmp_path)
    (tmp_path / "md" / "2").mkdir(parents=True)
    stale = tmp_path / "md" / "2" / ".tmp-abc123"
    stale.write_bytes(b"half a mat")
    path = store.put("md/2", b"2 2\n01\n10\n", ".mat")
    assert store.list_namespace("md/2") == [path]
    assert sorted((tmp_path / "md" / "2").iterdir()) == sorted([path, stale])


def test_concurrent_puts_of_one_new_payload(tmp_path):
    # each round starts its writers together on a new payload; every put
    # returns the one path, which holds the payload, and no temp file stays
    store = Store(tmp_path)
    writers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(20):
            payload = b"%d\n" % r
            barrier = threading.Barrier(writers, timeout=10)
            results = [None] * writers

            def put(i):
                barrier.wait()
                results[i] = store.put("census", payload, ".json")

            threads = [threading.Thread(target=put, args=(i,)) for i in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            path = store.path_for("census", payload, ".json")
            assert results == [path] * writers
            assert path.read_bytes() == payload
    finally:
        sys.setswitchinterval(interval)
    names = sorted(p.name for p in (tmp_path / "census").iterdir())
    assert names == sorted(store.path_for("census", b"%d\n" % r, ".json").name for r in range(20))


def test_refused_puts_leave_no_file(tmp_path):
    # a directory at the key and a regular file as the root keep their
    # messages after a namespace has been written, and add no temp file
    payload = b"1 1\n1\n"
    store = Store(tmp_path / "root")
    kept = store.put("faces/2", b"00\n", ".face")
    path = store.path_for("faces/2", payload, ".face")
    path.mkdir()
    for _ in range(2):
        assert _refusal(store, "faces/2", payload, ".face") == f"cannot write {path}: Is a directory"
    assert sorted((tmp_path / "root" / "faces" / "2").iterdir()) == sorted([kept, path])

    (tmp_path / "file").write_bytes(b"")
    store = Store(tmp_path / "file")
    for namespace in ("census", "md/4"):
        path = store.path_for(namespace, payload, ".mat")
        assert _refusal(store, namespace, payload, ".mat") == f"cannot write {path}: Not a directory"
    assert (tmp_path / "file").read_bytes() == b""
    assert store.list_namespace("census") == []


def test_put_returns_path_for(tmp_path, monkeypatch):
    # put's Path is path_for's, whatever form the root was given in
    monkeypatch.chdir(tmp_path)
    for root in ("store", "./store/", str(tmp_path / "store") + "//", tmp_path / "store"):
        store = Store(root)
        path = store.put("md/1", b"2 2\n00\n01\n", ".mat")
        assert path == store.path_for("md/1", b"2 2\n00\n01\n", ".mat") == Path(root) / "md" / "1" / path.name
        assert store.list_namespace("md/1") == [path]
