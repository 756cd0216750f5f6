"""Canonical forms of 0/1 matrices under independent row and column permutations.

The canonical representative of a matrix M is the permuted copy whose
row-major bit string is lexicographically least over every pair of row and
column permutations.  Two matrices of the same shape are equivalent exactly
when their canonical bytes agree, and the representative of a representative
is itself.  Transposes are NOT identified: a matrix and its transpose are
distinct unless they are permutation-equivalent, which changes class counts
and is intentional.

For a fixed row order the optimal column order simply sorts the columns as
top-to-bottom tuples, so the search runs over row orders only.  A node of
the search is a prefix of chosen rows; the columns fall into groups tied on
that prefix, and a candidate next row is rendered as zeros-then-ones inside
every group.  Rows and groups are ints: bit n-1-c of a row is column c, and
a group is a (mask, offset, size) triple whose rendering occupies bits
offset .. offset+size-1, with the first group in the most significant bits.
A rendering is the OR over groups of ((1 << popcount(row & mask)) - 1) <<
offset.  Every rendering has exactly n bits, so int order is the order of
the rendered bit strings.  Choosing row s splits a group into mask & ~s
(the zeros, at the higher offset) and mask & s; a rendering changes only in
the groups that split.

The search is a depth-first branch and bound on an explicit stack.  Only
the candidates of least rendering can lead to the least matrix.  Say row s
is chosen at a node whose least rendering is v.  In the refined groups s
and its copies still render as v: their ones fill the low end of every
group they split or cover.  Any other row renders strictly above v: in the
first group where it differs from s it has at least as many ones as s (it
renders >= v and agrees with s before), so one lands in the zeros part,
above all of v's bits there.  So renderings never decrease along a path,
nor along the best found so far.  The only cut is a node whose least
rendering exceeds the best at its depth; at any other node v is at most
every best value from that depth on, so taking v there and at each copy's
position keeps the best, or voids it from the first position where v is
smaller.  Three facts shorten the search without changing the answer:

- The copies of a chosen row come right after it: each renders as the row
  itself, below every other remaining row.  They are taken with it, and
  only the first of equal rows is a candidate.
- Once every group is a class of columns equal on all rows, no row splits a
  group, so the node is a leaf and the rest of the order sorts the
  renderings.
- A leaf whose renderings equal the best at every depth gives an
  automorphism: the row permutation p: best_order[t] -> order[t], with the
  column permutation between the two sorted copies, maps M onto itself.

An automorphism whose p fixes a node's prefix pointwise keeps every
column's values on the prefix rows, so it maps each column group onto
itself.  It therefore carries the subtree below candidate a onto the
subtree below p(a) with identical renderings at every depth, and the least
leaf of one is the least leaf of the other; compositions do the same.  So a
candidate in the orbit of an explored one, under the recorded automorphisms
that fix the prefix, is skipped.  For the same reason a leaf equal to the
best sends the search straight back to the node where its path left the
best path: the branch it took there is the image of the explored best
branch.  This is the pruning of McKay, "Practical graph isomorphism"
(1981), and McKay and Piperno, "Practical graph isomorphism, II" (2014); it
changes which leaves are visited, never the lex-least answer.

Only nodes with two or more candidates stay on the stack.  Their chosen
rows split a group (a candidate that splits none is equal to every other
candidate), so at most n of them are stacked at a time.

The search takes at most _NODE_LIMIT nodes (a node is one chosen candidate,
with its copies) and raises DimensionTooLarge past it.  The most any input
of the test suite, the benchmark, `stab-census --nodes 1..7` or
`enum --dim 5` (70) takes is 86 nodes (a 32 x 16 maximal slack matrix of
the census at n = 6); the 14 x 65 slack matrix of the 6-cube takes 35.  A
node costs time linear in the number of rows: on a 2-core x86 machine with
Python 3.11, 1,100 rows of 11 bits (the integers 0..1099) pass the budget
after about 1 s, and 10,000 random rows of 14 bits after about 7 s.

canonical_form looks up the class memo of `configuration` (its module
docstring has the key, the argument for it and the bounds) before it
searches.  A key is always a row and column permutation of its matrix, so
two matrices with equal keys have the same canonical form, and a hit
returns the stored form exactly.  A miss runs the search on m itself, so
node counts, the node budget and every DimensionTooLarge refusal are those
of an input not seen before, and a search that raises stores nothing.
Searches drop from 3,000 to 390 on the `queries` benchmark workload, from
399 to 33 in enumerate_maximal(4) and from 46,439 to 625 in
enumerate_maximal(5).  census(6) calls canonical_form 5 times, once on
each class's maximal slack matrix, since it groups its graphs by node
relabelling.  On the `queries` inputs a key costs 20-33 us and a search
130-220 us (2-core x86, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import _ASCII_BITS, _FORM, BinaryMatrix, _class_answer
from .errors import DimensionTooLarge

_NODE_LIMIT = 5000


@dataclass(frozen=True)
class CanonicalForm:
    shape: tuple[int, int]
    bytes: bytes


def _in_orbit(i: int, explored: set, gens: list[dict]) -> bool:
    """Whether the orbit of row i under the permutations gens (each a dict of
    the rows it moves) meets explored."""
    seen = {i}
    todo = [i]
    while todo:
        x = todo.pop()
        for p in gens:
            y = p.get(x, x)
            if y not in seen:
                if y in explored:
                    return True
                seen.add(y)
                todo.append(y)
    return False


class _Node:
    """A prefix of the row order, of length depth: its column groups, the
    renderings of its unused rows, and the candidates still to try."""

    __slots__ = ("depth", "groups", "unused", "vals", "value", "cands", "pos", "explored", "gens", "gens_seen")

    def __init__(self, depth, groups, unused, vals, value, rows):
        self.depth = depth
        self.groups = groups
        self.unused = unused
        self.vals = vals
        self.value = value
        firsts = {}
        for i, v in zip(unused, vals):
            if v == value:
                firsts.setdefault(rows[i], i)
        self.cands = list(firsts.values())
        self.pos = 0
        self.explored = set()
        self.gens = []
        self.gens_seen = 0


def _child(node: _Node, s: int, rows: list[int]):
    """After choosing the first unused row with bits s: the refined groups,
    that row and its copies, the other unused rows and their renderings."""
    groups = []
    parts = []
    clear = 0
    for g in node.groups:
        mask, off, size = g
        ones = mask & s
        if not ones or ones == mask:
            groups.append(g)
            continue
        k = ones.bit_count()
        zeros = mask ^ ones
        groups.append((zeros, off + k, size - k))
        groups.append((ones, off, k))
        parts.append((zeros, off + k))
        parts.append((ones, off))
        clear |= ((1 << size) - 1) << off
    keep = ~clear
    chosen = []
    unused = []
    vals = []
    for j, v in zip(node.unused, node.vals):
        r = rows[j]
        if r == s:
            chosen.append(j)
            continue
        if parts:
            v &= keep
            for mask, off in parts:
                v |= ((1 << (r & mask).bit_count()) - 1) << off
        unused.append(j)
        vals.append(v)
    return groups, chosen, unused, vals


class _Search:
    """The least row order of one matrix: rows as ncols-bit ints whose
    columns fall into nclasses classes of equal columns."""

    def __init__(self, rows: list[int], ncols: int, nclasses: int):
        self.rows = rows
        self.ncols = ncols
        self.nclasses = nclasses
        self.inf = 1 << ncols
        self.best = [self.inf] * len(rows)
        self.best_order: list[int] = []
        self.order: list[int] = []  # the rows of the current prefix
        self.path: list[int] = []  # and their renderings
        self.autos: list[dict[int, int]] = []
        self.stack: list[_Node] = []  # the prefix's nodes with two or more candidates
        self.nodes = 0

    def run(self) -> list[int]:
        """The renderings of the least row order: the canonical rows."""
        n, rows = self.ncols, self.rows
        self._arrive([((1 << n) - 1, 0, n)], list(range(len(rows))), [(1 << r.bit_count()) - 1 for r in rows])
        stack = self.stack
        while stack:
            node = stack[-1]
            order = self.order
            del order[node.depth:]
            del self.path[node.depth:]
            if node.pos == len(node.cands):
                stack.pop()
                continue
            i = node.cands[node.pos]
            node.pos += 1
            if node.explored:
                if node.gens_seen < len(self.autos):
                    node.gens.extend(p for p in self.autos[node.gens_seen:] if p.keys().isdisjoint(order))
                    node.gens_seen = len(self.autos)
                if node.gens and _in_orbit(i, node.explored, node.gens):
                    continue
            node.explored.add(i)
            self._arrive(*self._choose(node, i))
        return self.best

    def _take(self, t: int, v: int) -> None:
        """Rendering v follows the prefix at position t.  It is never above
        the best there; a smaller v voids the best from t on."""
        best = self.best
        if v < best[t]:
            best[t:] = [self.inf] * (len(best) - t)

    def _choose(self, node: _Node, i: int):
        """Extend the prefix by candidate i and its copies, which render as
        it does; the child's groups, unused rows and renderings."""
        self.nodes += 1
        if self.nodes > _NODE_LIMIT:
            raise DimensionTooLarge(f"canonical form search exceeds {_NODE_LIMIT} nodes")
        groups, chosen, unused, vals = _child(node, self.rows[i], self.rows)
        for t in range(node.depth, node.depth + len(chosen)):
            self._take(t, node.value)
        self.order.extend(chosen)
        self.path.extend([node.value] * len(chosen))
        return groups, unused, vals

    def _arrive(self, groups, unused, vals):
        """Follow the prefix through nodes with a single candidate, then push
        the first node with more, or settle a leaf: once every group is a
        class of equal columns no row splits a group, and the rest of the
        best order sorts the renderings."""
        while len(groups) < self.nclasses:
            depth = len(self.order)
            value = min(vals)
            if value > self.best[depth]:
                return
            node = _Node(depth, groups, unused, vals, value, self.rows)
            if len(node.cands) > 1:
                self.stack.append(node)
                return
            groups, unused, vals = self._choose(node, node.cands[0])
        tail = sorted(zip(vals, unused))
        seq = self.path + [v for v, _ in tail]
        full = self.order + [i for _, i in tail]
        if seq < self.best:
            self.best = seq
            self.best_order = full
        elif seq == self.best:
            self.autos.append({a: b for a, b in zip(self.best_order, full) if a != b})
            # the branch taken where this leaf's path left the best one is
            # the image of the explored best branch: jump back there
            t = next(t for t, (a, b) in enumerate(zip(self.best_order, full)) if a != b)
            while self.stack[-1].depth > t:
                self.stack.pop()


def _searched_form(m: BinaryMatrix) -> CanonicalForm:
    """The canonical form of m, a matrix with entries, by search."""
    n = m.cols
    text = m.bits.translate(_ASCII_BITS)
    rows = [int(text[k:k + n], 2) for k in range(0, len(text), n)]
    best = _Search(rows, n, len({m.bits[c::n] for c in range(n)})).run()
    out = "".join([f"{m.rows} {n}\n"] + [format(v, f"0{n}b") + "\n" for v in best])
    return CanonicalForm((m.rows, n), out.encode("ascii"))


def canonical_form(m: BinaryMatrix) -> CanonicalForm:
    """Shape plus the text serialization of the canonical representative:
    from the class memo when a matrix with the same key was searched before."""
    if m.rows == 0 or m.cols == 0:
        return CanonicalForm((m.rows, m.cols), f"{m.rows} {m.cols}\n".encode("ascii") + b"\n" * m.rows)
    return _class_answer(m, _FORM, _searched_form)


def equivalent(m1: BinaryMatrix, m2: BinaryMatrix) -> bool:
    if (m1.rows, m1.cols) != (m2.rows, m2.cols):
        return False
    return canonical_form(m1) == canonical_form(m2)
