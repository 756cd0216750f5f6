import hashlib

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
