"""Regenerate the golden fixture the benchmark gates against.

    python3 perfbench/make_golden.py

Runs the exhaustive enumeration for d = 1..4 once and writes
perfbench/golden/classes.json (canonical bytes of every class, sorted, with
the d = 4 seed statistics, the canonical hashes of every one-line-deleted
class and the faces of the d = 3 correlation cone) and perfbench/golden/d4_seeds.txt and d4_groups.txt (the fate
of every d = 4 seed mask and the seeds sharing its first closure, so a
sampled scan can be gated exactly and keeps the memo hits of the full scan).  Takes about
two minutes on two cores; the benchmark itself never reruns it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tlc import canon, corrcone  # noqa: E402
from tlc.configuration import BinaryMatrix, Configuration, closure, parse_matrix, slack_matrix, spans  # noqa: E402
from tlc.enumeration import enumerate_maximal  # noqa: E402
from tlc.linalg import rank  # noqa: E402

import golden  # noqa: E402


def seed_tables(d: int, class_index: dict) -> tuple[str, list]:
    """Per mask of {0,1}^(2^d): its table character (see golden.CLASS_CHARS)
    and its group, the seeds sharing its first closure (None for non-seeds).
    Groups are numbered in scan order; a non-spanning seed is its own group."""
    chars = [golden.NOT_A_SEED] * (1 << (1 << d))
    groups: list = [None] * (1 << (1 << d))
    memo: dict = {}
    next_group = 0
    scan = sorted((m for m in range(1 << (1 << d)) if bin(m).count("1") >= d), key=lambda m: (bin(m).count("1"), m))
    for m in scan:
        vectors = [tuple((j >> i) & 1 for i in range(d)) for j in range(1 << d) if (m >> j) & 1]
        if rank(vectors) != d:
            chars[m], groups[m] = golden.NOT_SPANNING, next_group
            next_group += 1
            continue
        a = closure(vectors, d)
        if a not in memo:
            if not spans(a, d):
                ch = golden.DEGENERATE
            else:
                cfg = Configuration(d, a, closure(a, d))
                form = canon.canonical_form(slack_matrix(cfg).matrix)
                ch = golden.CLASS_CHARS[class_index[form.bytes]]
            memo[a] = (ch, next_group)
            next_group += 1
        chars[m], groups[m] = memo[a]
    return "".join(chars), groups


def trimmed_hashes(text: str) -> list[list[str]]:
    """Short sha256 of the canonical bytes of the class minus one row (first
    list) or minus one column (second list), by line of the canonical matrix."""
    m = parse_matrix(text)
    out = []
    for mat in (m, m.transpose()):
        rows = mat.row_tuples()
        hashes = []
        for i in range(mat.rows):
            kept = rows[:i] + rows[i + 1:]
            sub = BinaryMatrix(mat.rows - 1, mat.cols, tuple(b for r in kept for b in r))
            if mat is not m:
                sub = sub.transpose()
            hashes.append(golden.short_hash(canon.canonical_form(sub).bytes))
        out.append(hashes)
    return out


def main() -> int:
    classes = {}
    stats = {}
    for d in (1, 2, 3, 4):
        res = enumerate_maximal(d, jobs=2)
        classes[str(d)] = [f.bytes.decode("ascii") for f in res.classes]
        stats[str(d)] = {
            "seeds_total": res.stats.seeds_total,
            "seeds_spanning": res.stats.seeds_spanning,
            "completions": res.stats.completions,
            "degenerate_seeds": res.stats.degenerate_seeds,
        }
    d4 = [s.encode("ascii") for s in classes["4"]]
    table, groups = seed_tables(4, {b: i for i, b in enumerate(d4)})
    # the per-mask table must reproduce the enumeration's own statistics
    counts = golden.table_counts(table)
    for key in ("seeds_total", "seeds_spanning", "completions", "degenerate_seeds"):
        assert counts[key] == stats["4"][key], (key, counts[key], stats["4"][key])
    assert set(ch for ch in table if ch in golden.CLASS_CHARS) == set(golden.CLASS_CHARS[: len(d4)])

    faces = corrcone.enumerate_faces(3)
    payload = {
        "classes": classes,
        "stats": stats,
        "d4_sha256": hashlib.sha256(b"".join(sorted(d4))).hexdigest(),
        "trimmed": {d: [trimmed_hashes(t) for t in forms] for d, forms in classes.items()},
        "faces3": golden.faces_text(faces),
    }
    golden.DIR.mkdir(exist_ok=True)
    (golden.DIR / "classes.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    width = golden.TABLE_WIDTH
    lines = [table[i:i + width] for i in range(0, len(table), width)]
    (golden.DIR / "d4_seeds.txt").write_text("\n".join(lines) + "\n")
    encoded = "".join(golden.encode_group(g) for g in groups)
    step = width * golden.GROUP_WIDTH
    lines = [encoded[i:i + step] for i in range(0, len(encoded), step)]
    (golden.DIR / "d4_groups.txt").write_text("\n".join(lines) + "\n")
    print(json.dumps({d: len(c) for d, c in classes.items()}), payload["d4_sha256"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
