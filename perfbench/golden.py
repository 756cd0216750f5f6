"""The committed golden fixture, written once by make_golden.py: canonical
bytes of every d <= 4 class, hashes of every class minus one line, the d = 3
faces, and for every d = 4 seed mask its fate and its first-closure group."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

DIR = Path(__file__).resolve().parent / "golden"
TABLE_WIDTH = 256

# d4_seeds.txt holds one character per mask m of {0,1}^16, in mask order
NOT_A_SEED = "."  # fewer than d points: never scanned
NOT_SPANNING = "-"  # scanned, rank below d
DEGENERATE = "#"  # spanning, but its first closure does not span
CLASS_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"  # index into the sorted d = 4 classes


# d4_groups.txt holds, per mask, the number of its group in GROUP_WIDTH
# base-64 digits; "..." for masks that are not seeds
GROUP_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz+/"
GROUP_WIDTH = 3


def encode_group(g) -> str:
    if g is None:
        return "." * GROUP_WIDTH
    return "".join(GROUP_DIGITS[(g >> (6 * k)) & 63] for k in reversed(range(GROUP_WIDTH)))


def decode_groups(text: str) -> list:
    out = []
    for i in range(0, len(text), GROUP_WIDTH):
        chunk = text[i:i + GROUP_WIDTH]
        if chunk == "." * GROUP_WIDTH:
            out.append(None)
            continue
        g = 0
        for ch in chunk:
            g = g * 64 + GROUP_DIGITS.index(ch)
        out.append(g)
    return out


def short_hash(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def faces_text(faces) -> list[str]:
    """Faces as strings of points, e.g. '000 100 110'."""
    return [" ".join("".join(str(b) for b in p) for p in face) for face in faces]


class Golden:
    def __init__(self, payload: dict, seed_table: str, groups: list):
        self.classes = {int(d): [s.encode("ascii") for s in forms] for d, forms in payload["classes"].items()}
        self.stats = {int(d): s for d, s in payload["stats"].items()}
        self.d4_sha256 = payload["d4_sha256"]
        self.trimmed = {int(d): t for d, t in payload["trimmed"].items()}
        self.faces3 = payload["faces3"]
        self.seed_table = seed_table
        self.group_of = groups  # per mask: group number, None if not a seed

    def class_of_seed(self, mask: int):
        """Golden d = 4 canonical bytes reached from a seed mask, or the mask's
        table character when it completes to no class."""
        ch = self.seed_table[mask]
        idx = CLASS_CHARS.find(ch)
        return self.classes[4][idx] if idx >= 0 else ch

    def groups(self) -> list[list[int]]:
        """The seeds sharing a first closure, groups in scan order, each group's
        masks in scan order (popcount, then mask)."""
        out: list[list[int]] = []
        for m in sorted(range(len(self.group_of)), key=lambda m: (bin(m).count("1"), m)):
            g = self.group_of[m]
            if g is not None:
                if g == len(out):
                    out.append([])
                out[g].append(m)
        return out


def load(directory: Path = DIR) -> Golden:
    payload = json.loads((directory / "classes.json").read_text())
    table = "".join((directory / "d4_seeds.txt").read_text().split())
    groups = decode_groups("".join((directory / "d4_groups.txt").read_text().split()))
    if len(table) != 1 << 16 or len(groups) != 1 << 16:
        raise ValueError("golden d = 4 seed tables must have one entry per mask")
    return Golden(payload, table, groups)


def table_counts(chars) -> dict:
    """Seed statistics of a set of table entries, as EnumStats names them."""
    c = Counter(chars)
    total = sum(n for ch, n in c.items() if ch != NOT_A_SEED)
    spanning = total - c[NOT_SPANNING]
    return {
        "seeds_total": total,
        "seeds_spanning": spanning,
        "completions": spanning - c[DEGENERATE],
        "degenerate_seeds": c[DEGENERATE],
    }
