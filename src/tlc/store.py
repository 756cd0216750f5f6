"""Content-addressed result store.

Files are keyed by the SHA-256 of their bytes inside a namespace directory,
written atomically (temp file + rename), so concurrent writers of identical
content both succeed and a key can never silently change content.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .errors import StoreConflict

class Store:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, namespace: str, payload: bytes, suffix: str) -> Path:
        key = hashlib.sha256(payload).hexdigest()
        return self.root / namespace / f"{key}{suffix}"

    def put(self, namespace: str, payload: bytes, suffix: str = "") -> Path:
        path = self.path_for(namespace, payload, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            if path.read_bytes() != payload:
                raise StoreConflict(f"{path} exists with different content")
            return path
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def list_namespace(self, namespace: str) -> list[Path]:
        base = self.root / namespace
        if not base.is_dir():
            return []
        return sorted(p for p in base.iterdir() if p.is_file())
