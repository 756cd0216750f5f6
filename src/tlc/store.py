"""Content-addressed result store.

Files are keyed by the SHA-256 of their bytes inside a namespace directory,
written atomically (temp file + rename), so concurrent writers of identical
content both succeed and a key can never silently change content.  Temp
files, which a killed writer can leave behind, are never listed.  Opening a
store writes nothing: `put` makes the directories it writes into.  A put of
content that is already there is one read: any error of that read leaves the
put to the checked mkdir, compare and write path, which reports it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .errors import StoreConflict

_TMP_PREFIX = ".tmp-"


class Store:
    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, namespace: str, payload: bytes, suffix: str) -> Path:
        key = hashlib.sha256(payload).hexdigest()
        return self.root / namespace / f"{key}{suffix}"

    def put(self, namespace: str, payload: bytes, suffix: str = "") -> Path:
        path = self.path_for(namespace, payload, suffix)
        try:
            existing = path.read_bytes()
        except OSError:
            existing = self._write(path, payload)
        if existing != payload:
            raise StoreConflict(f"{path} exists with different content")
        return path

    @staticmethod
    def _write(path: Path, payload: bytes) -> bytes:
        """Make path hold payload unless a file is already there, and return
        the bytes it holds."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                return path.read_bytes()
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=_TMP_PREFIX)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as e:
            raise StoreConflict(f"cannot write {path}: {e.strerror}") from None
        return payload

    def list_namespace(self, namespace: str) -> list[Path]:
        base = self.root / namespace
        if not base.is_dir():
            return []
        return sorted(p for p in base.iterdir() if p.is_file() and not p.name.startswith(_TMP_PREFIX))
