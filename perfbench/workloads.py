"""The three workloads: what one run asks the program, and the exactness gate
on every answer.

Each workload has a `setup(golden, seed, seconds)` that builds its
inputs (untimed, reported as setup_s) and a `run(inputs, rec, scratch)` that
asks the questions through `rec`.  Every call into tlc goes through the module
attribute (tlc.canon.canonical_form, not a local name) so that the tracer's
wrappers see it; gates use references taken at import, so the tracer never
counts them.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from tlc import canon, compress, configuration, corrcone, enumeration, stabset, store
from tlc.canon import canonical_form as _gate_canonical_form

import generators
from golden import faces_text, short_hash, table_counts

clock = time.perf_counter

# work per second of --seconds: a run takes about --seconds on the reference
# machine (2 cores, Python 3.11) at the commit that added the benchmark
ENUM_MASKS_PER_S = 720
QUERIES_PER_S = 100
CONE_ROUND_S = 12.0


class GateError(Exception):
    pass


class Op:
    def __init__(self):
        self.total = 0.0
        self.parts: dict[str, float] = {}

    def call(self, part: str, fn, *args):
        t0 = clock()
        result = fn(*args)
        dt = clock() - t0
        self.total += dt
        self.parts[part] = self.parts.get(part, 0.0) + dt
        return result

    @staticmethod
    def gate(ok: bool, message: str):
        if not ok:
            raise GateError(message)


class Timings:
    """Latencies of the answered questions: overall, by kind, by part."""

    def __init__(self):
        self.latency: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.parts: dict[str, list[float]] = {}

    @property
    def wall_s(self) -> float:
        return sum(self.latency)


class Recorder:
    """Every question asked, its raw time and window, and every failure.  With
    a speed probe, the probe runs between questions."""

    def __init__(self, probe=None):
        self.probe = probe
        self.attempted = 0
        self.ops: list[tuple] = []  # (kind, start, end, total, parts)
        self.failures: list[str] = []

    @contextmanager
    def op(self, kind: str, timed: bool = True):
        self.attempted += 1
        if self.probe is not None:
            self.probe.sample()
        op = Op()
        start = clock()
        try:
            yield op
        except Exception as e:  # an exception is a failed operation, not a crash
            self.failures.append(f"{kind}: {type(e).__name__}: {e}")
            return
        if timed:
            self.ops.append((kind, start, clock(), op.total, op.parts))

    def timings(self) -> Timings:
        """Latencies, scaled to the probe's reference speed."""
        out = Timings()
        for kind, start, end, total, parts in self.ops:
            f = self.probe.factor(start, end) if self.probe is not None else 1.0
            out.latency.append(total * f)
            out.kinds.setdefault(kind, []).append(total * f)
            for part, dt in parts.items():
                out.parts.setdefault(part, []).append(dt * f)
        return out

    @property
    def wall_s(self) -> float:
        return sum(total for _, _, _, total, _ in self.ops)


# --- enum-d4 ---------------------------------------------------------------


@dataclass
class EnumInputs:
    golden: object
    chunks: list


def setup_enum(golden, seed, seconds):
    return EnumInputs(golden, generators.enum_chunks(golden, seed, round(seconds * ENUM_MASKS_PER_S)))


@contextmanager
def _seed_scan(masks):
    """Restrict enumerate_maximal's d = 4 seed scan to the given masks."""
    original = enumeration._seed_masks
    enumeration._seed_masks = lambda d: list(masks)
    try:
        yield
    finally:
        enumeration._seed_masks = original


def run_enum(inp: EnumInputs, rec: Recorder, scratch):
    g = inp.golden
    st = store.Store(scratch)
    found: set[bytes] = set()
    for chunk in inp.chunks:
        with rec.op("enumerate") as op:
            with _seed_scan(chunk):
                res = op.call("enumerate", enumeration.enumerate_maximal, 4, 1, st)
            want = table_counts(g.seed_table[m] for m in chunk)
            got = {k: getattr(res.stats, k) for k in want}
            op.gate(got == want, f"seed statistics {got} != {want}")
            want_classes = sorted({c for c in map(g.class_of_seed, chunk) if isinstance(c, bytes)})
            got_classes = [f.bytes for f in res.classes]
            op.gate(got_classes == want_classes, "classes differ from the golden canonical bytes")
            found.update(got_classes)
    with rec.op("store", timed=False) as op:
        files = {p.name: p.read_bytes() for p in st.list_namespace("md/4")}
        want = {hashlib.sha256(b).hexdigest() + ".mat": b for b in found}
        op.gate(files == want, f"md/4 holds {len(files)} files, expected {len(want)}")


# --- queries ---------------------------------------------------------------


def setup_queries(golden, seed, seconds):
    return generators.queries(golden, seed, round(seconds * QUERIES_PER_S))


def run_queries(items, rec: Recorder, scratch=None):
    for q in items:
        with rec.op(q.kind) as op:
            m = q.matrix
            if q.kind == "stab":
                m = op.call("stab_slack", stabset.stab_maximal_slack, q.graph).matrix
            maximal = op.call("check", configuration.is_maximal_in_md, m)
            form = op.call("canon", canon.canonical_form, m)
            if q.kind == "class":
                op.gate(maximal is True, "a golden class is reported not maximal")
                op.gate(form.bytes == q.expect, "canonical bytes differ from the golden class")
            elif q.kind == "trimmed":
                op.gate(maximal is False, "a class minus a line is reported maximal")
                op.gate(short_hash(form.bytes) == q.expect, "canonical bytes of the trimmed class differ")
            else:
                op.gate(maximal is True, "a stable-set slack matrix is reported not maximal")
                twin = generators.permute(m, random.Random(q.perm_seed))
                op.gate(_gate_canonical_form(twin) == form, "canonical form changes under permutation")


# --- cone ------------------------------------------------------------------


@dataclass
class ConeInputs:
    expect_faces: list
    rounds: list  # per round: (faces in seeded order, permuted classes)


def _parse_face(text: str):
    return tuple(tuple(int(ch) for ch in p) for p in text.split())


def setup_cone(golden, seed, seconds):
    n_rounds = max(1, round(seconds / CONE_ROUND_S))
    faces = [_parse_face(f) for f in golden.faces3]
    rounds = []
    for r in range(n_rounds):
        order = list(faces)
        generators.rng_for(seed, "cone-faces", r).shuffle(order)
        rounds.append((order, generators.cone_classes(golden, seed, r)))
    return ConeInputs(golden.faces3, rounds)


def _prepare(m):
    return configuration.normalize_to_binary(configuration.from_slack_matrix(m), configuration.SIDE_B)


def _wire(cc):
    return compress.weighted_graph_parse(compress.weighted_graph_serialize(cc))


def run_cone(inp: ConeInputs, rec: Recorder, scratch=None):
    with rec.op("faces") as op:
        faces = op.call("faces", corrcone.enumerate_faces, 3)
        op.gate(len(faces) == 106, f"{len(faces)} faces, expected 106")
        op.gate(faces_text(faces) == inp.expect_faces, "face sets differ from the golden faces")
    for order, classes in inp.rounds:
        for face in order:
            with rec.op("face_cert") as op:
                cert = op.call("encode", corrcone.certificate_encode, 3, face)
                back = op.call("decode", corrcone.certificate_decode, cert)
                op.gate(back == face, "certificate decodes to another face")
        for m in classes:
            with rec.op("class") as op:
                cfg = op.call("prepare", _prepare, m)
                cc = op.call("compress", compress.compress, cfg)
                cc = op.call("wire", _wire, cc)
                out = op.call("decompress", compress.decompress, cc)
                op.gate(out == cfg, "decompress does not return the input configuration")


WORKLOADS = {
    "enum-d4": (setup_enum, run_enum),
    "queries": (setup_queries, run_queries),
    "cone": (setup_cone, run_cone),
}

# latencies by part (or by operation kind) printed beside the end-to-end
# metrics, with their sample counts
DETAIL = {
    "enum-d4": [("enumerate", 50)],
    "queries": [("check", 50), ("check", 99), ("canon", 50), ("canon", 99), ("stab_slack", 50)],
    "cone": [("compress", 50), ("compress", 90), ("decompress", 50), ("decompress", 90), ("face_cert", 50)],
}
