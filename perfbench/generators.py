"""Seeded inputs for the workloads.  The seed only reaches the program through
the generated inputs; the same seed always gives the same ones."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from tlc.configuration import BinaryMatrix, parse_matrix
from tlc.errors import NotBipartite
from tlc.stabset import BipartiteGraph

STAB_EVERY = 20  # one query in STAB_EVERY is a stable-set question
STAB_NODES = (4, 5, 6)
EDGE_PROBABILITY = 0.5
STAB_THIN = 4
ENUM_UNIT = 64  # at most this many seeds of one first-closure group per piece
ENUM_CALL_UNITS = 8  # pieces per enumerate_maximal call


def rng_for(seed: int, stream: str, part: int = 0) -> random.Random:
    return random.Random(f"{stream}:{seed}:{part}")


def permute(m: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    """A uniformly random row and column permutation of m."""
    rows = m.row_tuples()
    rp = list(range(m.rows))
    cp = list(range(m.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return BinaryMatrix(m.rows, m.cols, tuple(rows[i][j] for i in rp for j in cp))


def drop_line(m: BinaryMatrix, side: int, index: int) -> tuple[BinaryMatrix, tuple[int, ...]]:
    """m without row (side 0) or column (side 1) `index`, and the dropped line."""
    lines = m.row_tuples() if side == 0 else m.col_tuples()
    kept = lines[:index] + lines[index + 1:]
    sub = BinaryMatrix(len(kept), len(lines[0]), tuple(b for line in kept for b in line))
    return (sub if side == 0 else sub.transpose()), lines[index]


@dataclass(frozen=True)
class Query:
    """One question.  kind 'class': a permuted golden class, expected maximal
    with canonical bytes `expect`.  kind 'trimmed': the same minus one line,
    expected not maximal, canonical bytes hashing to `expect`.  kind 'stab':
    the stable-set polytope of `graph`, expected maximal and canonically equal
    to a copy permuted by `perm_seed`."""

    kind: str
    matrix: Optional[BinaryMatrix] = None
    expect: object = None
    graph: Optional[BipartiteGraph] = None
    perm_seed: int = 0


def random_bipartite_graph(rng: random.Random, n: int) -> BipartiteGraph:
    """Rejection sampling: draw G(n, 1/2) until it is bipartite."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < EDGE_PROBABILITY]
        try:
            return BipartiteGraph.from_edges(n, edges)
        except NotBipartite:
            continue


def stable_set_count(g: BipartiteGraph) -> int:
    return sum(1 for s in range(1 << g.n) if not any((s >> u) & 1 and (s >> v) & 1 for u, v in g.edges))


def stab_graphs(rng: random.Random, n: int, k: int) -> list[BipartiteGraph]:
    """k rejection-sampled graphs on n nodes, drawn as every STAB_THIN-th of
    STAB_THIN * k draws sorted by stable-set count, then shuffled.  The count
    sets the size of the slack matrix and most of the cost of a question, so
    this keeps a run's mix of cheap and expensive graphs close to the
    population's, as a sample STAB_THIN times larger would."""
    draws = sorted((random_bipartite_graph(rng, n) for _ in range(STAB_THIN * k)), key=stable_set_count)
    picks = draws[rng.randrange(STAB_THIN)::STAB_THIN]
    rng.shuffle(picks)
    return picks


def queries(golden, seed: int, count: int) -> list[Query]:
    rng = rng_for(seed, "queries")
    # exactly one stable-set question per block of STAB_EVERY, its node count
    # cycling through STAB_NODES, so every run has the same mix
    stab_n = {}
    for block in range(-(-count // STAB_EVERY)):
        k = block * STAB_EVERY + rng.randrange(STAB_EVERY)
        if k < count:
            stab_n[k] = STAB_NODES[block % len(STAB_NODES)]
    graphs = {n: stab_graphs(rng, n, list(stab_n.values()).count(n)) for n in STAB_NODES}
    classes = [(d, i) for d in sorted(golden.classes) for i in range(len(golden.classes[d]))]
    matrices = {key: parse_matrix(golden.classes[key[0]][key[1]].decode("ascii")) for key in classes}
    out = []
    for k in range(count):
        if k in stab_n:
            out.append(Query("stab", graph=graphs[stab_n[k]].pop(), perm_seed=rng.getrandbits(32)))
            continue
        d, i = rng.choice(classes)
        m = matrices[d, i]
        if rng.randrange(2):
            side = rng.randrange(2)
            if (m.rows, m.cols)[side] < 2:
                side = 1 - side
            index = rng.randrange((m.rows, m.cols)[side])
            sub, _ = drop_line(m, side, index)
            out.append(Query("trimmed", permute(sub, rng), golden.trimmed[d][i][side][index]))
        else:
            out.append(Query("class", permute(m, rng), golden.classes[d][i]))
    return out


def cone_classes(golden, seed: int, round_: int = 0) -> list[BinaryMatrix]:
    """Every d <= 4 golden class, row/column permuted, in seeded order."""
    rng = rng_for(seed, "cone", round_)
    items = [permute(parse_matrix(b.decode("ascii")), rng) for d in sorted(golden.classes) for b in golden.classes[d]]
    rng.shuffle(items)
    return items


def enum_chunks(golden, seed: int, n_masks: int) -> list[list[int]]:
    """A sample of about n_masks d = 4 seeds that keeps the full scan's mix of
    memo hits and completions.

    The unit of sampling is a group of seeds sharing a first closure, cut into
    pieces of at most ENUM_UNIT seeds: within a call, the first seed of a piece
    completes and the rest hit the memo, as in the full scan.  Among the pieces
    of each size, the same share is drawn, one from each of equal strata in
    scan order.  Call c takes every n_calls-th drawn piece from c on, so every
    call spans the whole scan order and costs about the same.  Each call's
    seeds are in scan order.
    """
    pieces = [g[i:i + ENUM_UNIT] for g in golden.groups() for i in range(0, len(g), ENUM_UNIT)]
    share = n_masks / sum(len(p) for p in pieces)
    by_size: dict[int, list] = {}
    for p in pieces:
        by_size.setdefault(len(p), []).append(p)
    rng = rng_for(seed, "enum-d4")
    picks = []
    for size in sorted(by_size):  # the same share of every piece size
        group = by_size[size]
        k = min(len(group), round(share * len(group)))
        picks += [group[rng.randrange(j * len(group) // k, (j + 1) * len(group) // k)] for j in range(k)]
    scan_order = lambda m: (bin(m).count("1"), m)  # noqa: E731
    picks.sort(key=lambda p: scan_order(p[0]))
    n_calls = max(1, -(-len(picks) // ENUM_CALL_UNITS))
    return [sorted((m for p in picks[c::n_calls] for m in p), key=scan_order) for c in range(n_calls)]
