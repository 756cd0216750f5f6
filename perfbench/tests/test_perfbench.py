"""Tests of the benchmark itself: gates, generators, tracer.

    python3 -m pytest -q perfbench/tests
"""

import copy
import hashlib
import json
import time
from pathlib import Path

import pytest

import generators
import golden
import run
import tracer
import workloads
from tlc import canon, compress, configuration, enumeration, linalg, stabset, store

BENCH = Path(__file__).resolve().parent.parent


def _main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def _tamper(text: bytes) -> bytes:
    """Flip the last matrix entry of a canonical form."""
    i = len(text) - 2
    return text[:i] + (b"1" if text[i:i + 1] == b"0" else b"0") + text[i + 1:]


# --- golden fixture --------------------------------------------------------


def test_golden_fixture_matches_the_recorded_enumeration(gold):
    assert {d: len(forms) for d, forms in gold.classes.items()} == {1: 1, 2: 2, 3: 6, 4: 31}
    d4 = b"".join(sorted(gold.classes[4]))
    assert hashlib.sha256(d4).hexdigest() == gold.d4_sha256
    assert gold.d4_sha256 == "a57cb77326b3a2d1a1991a1b969ba1aa4d2c21e5123c9396e49ec289dfb4eace"
    counts = golden.table_counts(gold.seed_table)
    assert counts["seeds_total"] == 64839 == gold.stats[4]["seeds_total"]
    assert counts["seeds_spanning"] == 62924 == gold.stats[4]["seeds_spanning"]
    assert len(gold.faces3) == 106


def test_seed_groups_partition_the_seeds(gold):
    groups = gold.groups()
    seeds = [m for g in groups for m in g]
    assert len(seeds) == len(set(seeds)) == 64839
    # a group shares one first closure, hence one class; non-spanning seeds stand alone
    for g in groups:
        assert len({gold.seed_table[m] for m in g}) == 1
        if gold.seed_table[g[0]] == golden.NOT_SPANNING:
            assert len(g) == 1
    # groups are numbered in scan order
    firsts = [(bin(g[0]).count("1"), g[0]) for g in groups]
    assert firsts == sorted(firsts)


def test_enumeration_sample_keeps_whole_pieces_in_one_call(gold):
    calls = generators.enum_chunks(gold, 3, 5000)
    seeds = [m for c in calls for m in c]
    assert len(seeds) == len(set(seeds))
    assert abs(len(seeds) - 5000) < 100
    where = {m: i for i, c in enumerate(calls) for m in c}
    for g in gold.groups():
        for i in range(0, len(g), generators.ENUM_UNIT):
            piece = g[i:i + generators.ENUM_UNIT]
            assert len({where.get(m) for m in piece}) == 1


# --- gates -----------------------------------------------------------------


def test_tampered_golden_byte_fails_the_run(gold, capsys, monkeypatch):
    seed, seconds = 11, 0.6
    count = round(seconds * workloads.QUERIES_PER_S)
    first = next(q for q in generators.queries(gold, seed, count) if q.kind == "class")
    bad = copy.deepcopy(gold)
    d = next(d for d, forms in bad.classes.items() if first.expect in forms)
    i = bad.classes[d].index(first.expect)
    bad.classes[d][i] = _tamper(first.expect)
    monkeypatch.setattr(golden, "load", lambda *a, **k: bad)

    code, summary, result = _main(capsys, "--workload", "queries", "--seed", str(seed), "--seconds", str(seconds))
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert summary["failed_ops"] > 0


def test_wrong_verdict_fails_the_run(capsys, monkeypatch):
    original = configuration.is_maximal_in_md
    monkeypatch.setattr(configuration, "is_maximal_in_md", lambda m: not original(m))
    code, summary, result = _main(capsys, "--workload", "queries", "--seed", "3", "--seconds", "0.3")
    assert code != 0
    assert result["failed"] > 0 and summary["failed_ops"] > 0


def test_tampered_seed_table_fails_the_enumeration(gold, tmp_path):
    chunk = generators.enum_chunks(gold, 4, 400)[0]
    bad = copy.deepcopy(gold)
    m = chunk[-1]
    ch = bad.seed_table[m]
    swap = golden.CLASS_CHARS[(golden.CLASS_CHARS.index(ch) + 1) % 31] if ch in golden.CLASS_CHARS else "A"
    bad.seed_table = bad.seed_table[:m] + swap + bad.seed_table[m + 1:]
    rec = workloads.Recorder()
    workloads.run_enum(workloads.EnumInputs(bad, [chunk]), rec, tmp_path)
    assert rec.failures


def test_clean_runs_pass_and_print_every_metric(capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    for workload in ("queries", "enum-d4"):
        code, summary, result = _main(capsys, "--workload", workload, "--seed", "2", "--seconds", "0.9")
        assert code == 0, summary["failures"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(v["value"] > 0 for v in result["metrics"].values())


# --- generators ------------------------------------------------------------


def test_generators_are_deterministic_per_seed_and_differ_across_seeds(gold):
    assert generators.queries(gold, 5, 120) == generators.queries(gold, 5, 120)
    assert generators.queries(gold, 5, 120) != generators.queries(gold, 6, 120)
    assert generators.enum_chunks(gold, 5, 500) == generators.enum_chunks(gold, 5, 500)
    assert generators.enum_chunks(gold, 5, 500) != generators.enum_chunks(gold, 6, 500)
    assert generators.cone_classes(gold, 5) == generators.cone_classes(gold, 5)
    assert generators.cone_classes(gold, 5) != generators.cone_classes(gold, 6)


def test_query_mix_is_exact(gold):
    items = generators.queries(gold, 8, 600)
    stab = [q for q in items if q.kind == "stab"]
    assert len(stab) == 600 // generators.STAB_EVERY
    assert {q.graph.n for q in stab} == set(generators.STAB_NODES)
    assert {q.kind for q in items} == {"class", "trimmed", "stab"}


def test_every_trimmed_class_is_not_maximal_and_its_line_can_be_readded(gold):
    for d, forms in gold.classes.items():
        for i, text in enumerate(forms):
            m = configuration.parse_matrix(text.decode("ascii"))
            for side in (0, 1):
                for index in range((m.rows, m.cols)[side]):
                    sub, line = generators.drop_line(m, side, index)
                    assert set(line) <= {0, 1}
                    assert not configuration.is_maximal_in_md(sub)
                    assert golden.short_hash(canon.canonical_form(sub).bytes) == gold.trimmed[d][i][side][index]
                    lines = (sub.row_tuples() if side == 0 else sub.col_tuples())
                    lines.insert(index, line)
                    back = configuration.BinaryMatrix(len(lines), len(lines[0]), tuple(b for ln in lines for b in ln))
                    assert (back if side == 0 else back.transpose()) == m


def test_query_gates_hold_on_the_program(gold):
    for q in generators.queries(gold, 9, 80):
        m = q.matrix if q.kind != "stab" else stabset.stab_maximal_slack(q.graph).matrix
        form = canon.canonical_form(m)
        if q.kind == "class":
            assert configuration.is_maximal_in_md(m) and form.bytes == q.expect
        elif q.kind == "trimmed":
            assert not configuration.is_maximal_in_md(m) and golden.short_hash(form.bytes) == q.expect
        else:
            assert configuration.is_maximal_in_md(m)
            twin = generators.permute(m, generators.random.Random(q.perm_seed))
            assert canon.canonical_form(twin) == form


# --- tracer ----------------------------------------------------------------


def test_self_times_never_exceed_wall_time(gold):
    items = generators.queries(gold, 12, 60)
    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        workloads.run_queries(items, workloads.Recorder())
        wall = time.perf_counter() - t0
    metrics = tr.metrics()
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert 0 < sum(self_times.values()) <= wall
    # span by span: the children of a span fit inside it
    children = [0.0] * len(tr.span_name)
    for i, parent in enumerate(tr.span_parent):
        assert tr.span_end[i] >= tr.span_start[i]
        if parent >= 0:
            assert tr.span_start[parent] <= tr.span_start[i] and tr.span_end[i] <= tr.span_end[parent]
            children[parent] += tr.span_end[i] - tr.span_start[i]
    for i in range(len(children)):
        assert children[i] <= tr.span_end[i] - tr.span_start[i] + 1e-9
    assert metrics["linalg.lp_feasible.calls"] == 0
    assert metrics["configuration.is_maximal_in_md.calls"] == len(items)


def test_by_name_imports_are_traced(gold, tmp_path):
    chunk = generators.enum_chunks(gold, 1, 60)[0]
    with tracer.Tracer() as tr:
        rec = workloads.Recorder()
        workloads.run_enum(workloads.EnumInputs(gold, [chunk]), rec, tmp_path)
    assert not rec.failures
    m = tr.metrics()
    # enumeration calls rank by a name of its own: every seed is ranked
    assert m["linalg.rank.calls"] >= len(chunk)
    assert m["enumeration.enumerate_maximal.calls"] == 1
    assert m["store.put.calls"] >= 1 and m["store.put.bytes"] > 0
    assert m["linalg.lp_feasible.calls"] == 0
    assert 0 < m["enumeration.spanning_ratio"] <= 1


def test_wrappers_are_gone_after_a_traced_run():
    originals = {
        "enumeration.rank": enumeration.rank,
        "compress.closure": compress.closure,
        "stabset.slack_matrix": stabset.slack_matrix,
        "linalg.rank": linalg.rank,
    }
    init, put = configuration.Configuration.__init__, store.Store.put
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert hasattr(enumeration.rank, "perfbench_span")
            assert hasattr(compress.closure, "perfbench_span")
            assert hasattr(stabset.slack_matrix, "perfbench_span")
            assert enumeration.rank is linalg.rank
            assert tracer.wrapped_references()
            raise RuntimeError("leave the block early")
    assert tracer.wrapped_references() == []
    assert enumeration.rank is originals["enumeration.rank"] is linalg.rank
    assert compress.closure is originals["compress.closure"] is configuration.closure
    assert stabset.slack_matrix is originals["stabset.slack_matrix"] is configuration.slack_matrix
    assert configuration.Configuration.__init__ is init and store.Store.put is put


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(tracer.metric_units(), **run.TRACE_UNITS)
    assert per_layer == expected
