import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlc import canon, cli, compress, configuration, corrcone, geometry, linalg, stabset
from tlc.configuration import (
    _zero_one_count,
    closure,
    maximal_completion,
    normalize_to_binary,
    parse_matrix,
    rank_and_maximality,
)
from tlc.errors import NotSpanning, ParseError
from tlc.linalg import rank
from tlc.store import Store

from helpers import matrix_from_rows


def run_cli(args, store=None):
    out = io.StringIO()
    err = io.StringIO()
    argv = (["--store", str(store)] if store else []) + args
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_d1(tmp_path):
    path = write(tmp_path, "m.txt", "2 2\n00\n01\n")
    code, out, _ = run_cli(["check", path])
    assert code == 0
    assert out == "member of M_1: yes; maximal: yes\n"


def test_check_non_member(tmp_path):
    path = write(tmp_path, "m.txt", "2 2\n01\n01\n")
    code, out, _ = run_cli(["check", path])
    assert code == 0
    assert "member of M_1: no" in out


def test_check_json_format(tmp_path):
    path = write(tmp_path, "m.txt", "2 2\n00\n01\n")
    code, out, _ = run_cli(["--format", "json", "check", path])
    payload = json.loads(out)
    assert payload == {"rank": 1, "member": True, "maximal": True}


def test_parse_error_exit_code(tmp_path):
    path = write(tmp_path, "m.txt", "1 3\n012\n")
    code, _, err = run_cli(["check", path])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command, text, expected", [
    # the error names the first non-blank line after the matrix, not line m + 2
    ("check", "1 1\n0\n\n\nx\n", "parse error: trailing content after matrix (line 5)\n"),
    # the compressed 2-d unit basis with a line appended
    ("decompress", "2 2\n01\n10\n2 1\n2\n2 2\ngarbage here\n",
     "parse error: trailing content after weighted graph (line 7)\n"),
], ids=["matrix", "weighted-graph"])
def test_trailing_content_is_refused_at_its_line(tmp_path, command, text, expected):
    assert run_cli([command, write(tmp_path, "in.txt", text)], store=tmp_path / "store") == (2, "", expected)


def test_usage_error_exit_code():
    code, _, err = run_cli(["no-such-command"])
    assert code == 1


def test_domain_error_exit_code(tmp_path):
    path = write(tmp_path, "cfg.json", '{"d": 2, "B": [["1", "0"]]}')
    code, _, err = run_cli(["complete", path])
    assert code == 3
    assert "NotSpanning" in err


def test_canon_deterministic_on_permutations(tmp_path):
    p1 = write(tmp_path, "a.txt", "3 2\n01\n10\n11\n")
    p2 = write(tmp_path, "b.txt", "3 2\n11\n01\n10\n")
    _, out1, _ = run_cli(["canon", p1])
    _, out2, _ = run_cli(["canon", p2])
    assert out1 == out2


def test_complete_and_compress_roundtrip(tmp_path):
    cfg = write(tmp_path, "cfg.json", '{"d": 2, "B": [["1", "0"], ["0", "1"]]}')
    code, completed, _ = run_cli(["complete", cfg])
    assert code == 0
    full = write(tmp_path, "full.json", completed)
    code, graph, _ = run_cli(["compress", full], store=tmp_path / "store")
    assert code == 0
    gfile = write(tmp_path, "g.txt", graph)
    code, back, _ = run_cli(["decompress", gfile])
    assert code == 0
    assert json.loads(back) == json.loads(completed)


def test_enum_and_report(tmp_path):
    store = tmp_path / "store"
    code, out, _ = run_cli(["enum", "--dim", "2"], store=store)
    assert code == 0 and out == "classes: 2\n"
    code, rep1, _ = run_cli(["report"], store=store)
    code, rep2, _ = run_cli(["report"], store=store)
    assert rep1 == rep2
    assert "2 | 2 | 1" in rep1


def test_report_json(tmp_path, d5_classes):
    # one sorted-keys line with the keys of enum --format json
    store = tmp_path / "store"
    assert run_cli(["--format", "json", "report"], store=store) == (0, '{"dims": []}\n', "")
    for d in (1, 2):
        assert run_cli(["enum", "--dim", str(d)], store=store)[0] == 0
    code, out, err = run_cli(["--format", "json", "report"], store=store)
    assert (code, err) == (0, "")
    assert out == json.dumps({"dims": [
        {"dim": 1, "classes": 1, "classes_mod_transpose": 1},
        {"dim": 2, "classes": 2, "classes_mod_transpose": 1},
    ]}, sort_keys=True) + "\n"
    # md/5 as `tlc enum --dim 5` writes it
    md = Store(store)
    for form in d5_classes:
        md.put("md/5", form, ".mat")
    code, out, _ = run_cli(["--format", "json", "report"], store=store)
    assert code == 0 and len(out.splitlines()) == 1
    assert json.loads(out)["dims"][2] == {"dim": 5, "classes": 422, "classes_mod_transpose": 213}
    assert run_cli(["report"], store=store)[1].splitlines()[-1].startswith("5 | 422 | 213 | ")


def test_face_subcommand(tmp_path):
    bv = write(tmp_path, "b.txt", "1 -1\n")
    code, out, _ = run_cli(["face", "--dim", "2", "--b-vectors", bv])
    assert code == 0
    assert "00\n10\n11\n" in out
    assert "2 1 1 1 2 1" in out


def test_face_enum_subcommand(tmp_path):
    code, out, _ = run_cli(["face-enum", "--dim", "2"], store=tmp_path / "store")
    assert code == 0
    assert out.startswith("faces: 8\n")


def test_face_enum_rerun_leaves_the_store_as_it_was(tmp_path):
    # a second run finds every face file there and rewrites none of them
    store = tmp_path / "store"
    base = store / "faces" / "3"

    def files():
        return sorted((p.name, p.stat().st_ino, p.stat().st_mtime_ns) for p in base.iterdir())

    first = run_cli(["face-enum", "--dim", "3"], store=store)
    assert first[0] == 0 and first[1].startswith("faces: 106\n")
    before = files()
    assert len(before) == 106
    assert run_cli(["face-enum", "--dim", "3"], store=store) == first
    assert files() == before
    assert not any(name.startswith(".tmp-") for name, _, _ in before)


def test_core_subcommand(tmp_path):
    poly = write(
        tmp_path,
        "seg.json",
        '{"d": 1, "ineqs": [["1", "0"], ["-1", "-1"]], "verts": [["0"], ["1"]]}',
    )
    code, out, _ = run_cli(["core", poly])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["core"]["rows"]) == 2
    assert payload["configuration"]["d"] == 2


def test_core_ineqs_are_checked_but_not_used(tmp_path):
    triangle = '"verts": [[0, 0], [0, 1], [1, 0]]'
    with_row = write(tmp_path, "row.json", '{"d": 2, "ineqs": [["1", "0", "0"]], %s}' % triangle)
    no_rows = write(tmp_path, "none.json", '{"d": 2, "ineqs": [], %s}' % triangle)
    assert run_cli(["core", with_row]) == run_cli(["core", no_rows])
    assert run_cli(["core", no_rows])[0] == 0
    # x1 >= -1 has slack 2 at (1, 0)
    bad = write(tmp_path, "bad.json", '{"d": 2, "ineqs": [["1", "0", "-1"]], %s}' % triangle)
    code, out, err = run_cli(["core", bad])
    assert code == 3 and out == ""
    assert err.startswith("error: NonBinarySlack")


def _path_polytope(tmp_path, n):
    """The vertices of the stable-set polytope of the n-node path, and the
    polytope JSON file that holds them."""
    g = stabset.BipartiteGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    verts = [[int(v in s) for v in range(n)] for s in stabset.stable_sets(g)]
    return verts, write(tmp_path, f"path{n}.json", json.dumps({"d": n, "ineqs": [], "verts": verts}))


def test_core_answers_the_seven_node_path(tmp_path):
    # the search without its rank test stopped at its budget here
    verts, poly = _path_polytope(tmp_path, 7)
    code, out, err = run_cli(["core", poly])
    assert code == 0 and err == ""
    core = json.loads(out)["core"]
    rows = configuration.slack_matrix(geometry.polytope_completion(verts)).matrix.row_tuples()
    assert len(core["rows"]) == len(core["cols"]) == 8
    for i, r in enumerate(core["rows"]):
        assert rows[r][core["cols"][i]] == 1
        assert all(rows[r][c] == 0 for c in core["cols"][i + 1:])


def test_core_search_budget(tmp_path):
    # the stable-set polytope of the 8-node path: 55 vertices in R^8, whose
    # core takes 20 placements, so a budget of 16 refuses it
    _, poly = _path_polytope(tmp_path, 8)
    code = "import sys; from tlc import cli, geometry; geometry._CORE_NODE_LIMIT = 16; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "core", poly], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_env(), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "DimensionTooLarge" in proc.stderr


def test_enum_sampled_seed_budget(tmp_path):
    # d = 5 is exhaustive, so there is no seed budget to set: even a huge one
    # is refused at once, before the store is made
    start = time.perf_counter()
    code, out, err = run_cli(["enum", "--dim", "5", "--seed-limit", "5000000000"], store=tmp_path / "store")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert not (tmp_path / "store").exists()


def test_enum_seed_limit_out_of_range(tmp_path):
    # the flag is gone at every dimension and for every value
    for args in (["--dim", "5", "--seed-limit", "1"], ["--dim", "5", "--seed-limit", "0"],
                 ["--dim", "5", "--seed-limit", "-3"], ["--dim", "2", "--seed-limit", "7"]):
        proc = run_process(["--store", str(tmp_path / "store"), "enum", *args])
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage error:")
    assert not (tmp_path / "store").exists()


def test_enum_nonpositive_dimension(tmp_path):
    for d in ("0", "-2"):
        code, out, err = run_cli(["enum", "--dim", d], store=tmp_path / "store")
        assert code == 3 and out == ""
        assert err == f"error: DimensionMismatch: dimension must be at least 1, got {d}\n"


def test_face_dimension_above_facet_budget(tmp_path):
    cut = write(tmp_path, "cut6.txt", "1 0 0 0 0 0\n")
    code, out, err = run_cli(["face", "--dim", "6", "--b-vectors", cut])
    assert code == 3 and out == ""
    assert err == "error: DimensionTooLarge: correlation cone facets are limited to d <= 5\n"


@pytest.fixture(scope="module")
def face_store(tmp_path_factory):
    """One store for the d = 4 face runs, so only the first writes its 7,814
    face files."""
    return tmp_path_factory.mktemp("faces")


def test_face_enum_certificates_closed_stdout(face_store):
    # the d = 4 listing with certificates is about 680 kB, far more than a
    # pipe holds, so closing the pipe after three lines makes a later write fail
    with subprocess.Popen([sys.executable, "-m", "tlc.cli", "--store", str(face_store), "face-enum", "--dim", "4",
                           "--certificates"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()) as proc:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err = proc.stderr.read()
    assert head[0] == b"faces: 7814\n"
    assert all(b"  certificate: " in line for line in head[1:])
    assert b"Traceback" not in err


# sha256 of the text and JSON stdout of face-enum --dim d --certificates
_FACE_CERTIFICATE_SHA256 = {
    1: ("52dfff7baed79ac0be548a3a540dc4e7c3ed55ca41243734818ce93e6001f258",
        "88b55b84bdc8c9ffaa5121633a0774191b780ff71986ef751ec2cc0f1a53e710"),
    2: ("00062ae69aff5dea63f34de54bac8c0c2ff53664c6a36e7bd6d29b6590d90a4f",
        "289c7bc0ccac108a569ecdf50e7570571d204528f0172bf1486643694e23cbb7"),
    3: ("72eb6485a4abfd00262f686b8fa3fec5de986120a34c483552c60d4399fbb9d7",
        "454e8dbd65ace8a776381d30ea93366b7590411c609be9a1cf451b3c2b181667"),
    4: ("566e925c6cbff12a32184e24a6a733bc6e7a626b48f8ff39b21bf8073d74af33",
        "e639b28eb2c37cc7aa45fdc05258ee61b2212e012e8a54b3ac9d829c0e80ee48"),
}


def test_face_enum_certificates_decode_to_their_faces(face_store):
    for d, count in ((1, 2), (2, 8), (3, 106), (4, 7814)):
        args = ["face-enum", "--dim", str(d)]
        code, plain, _ = run_cli(args, store=face_store)
        assert code == 0
        code, text, _ = run_cli([*args, "--certificates"], store=face_store)
        assert code == 0
        code, out, _ = run_cli(["--format", "json", *args, "--certificates"], store=face_store)
        assert code == 0
        # decoding accepts any independent subset; the digests pin the one chosen
        digests = tuple(hashlib.sha256(o.encode("ascii")).hexdigest() for o in (text, out))
        assert digests == _FACE_CERTIFICATE_SHA256[d]
        payload = json.loads(out)
        lines = text.splitlines()
        assert lines[0] == f"faces: {count}" and len(lines) == count + 1
        assert len(payload["faces"]) == len(payload["certificates"]) == count
        faces = []
        for line, points, entries in zip(lines[1:], payload["faces"], payload["certificates"]):
            face, cert = line.split("  certificate: ")
            faces.append(face)
            assert face.split() == points
            assert list(map(int, cert.split())) == entries
            decoded = corrcone.certificate_decode(corrcone.FaceCertificate(d, tuple(entries)))
            assert ["".join(map(str, p)) for p in decoded] == points
        # the flag only appends: the listing without it is the faces alone
        assert plain == "".join(f"{line}\n" for line in [lines[0], *faces])


def test_face_enum_negative_dimension(tmp_path):
    code, out, err = run_cli(["face-enum", "--dim", "-1"], store=tmp_path / "store")
    assert code == 3 and out == ""
    assert err == "error: DimensionMismatch: dimension must be nonnegative, got -1\n"


def test_stab_slack_subcommand(tmp_path):
    g = write(tmp_path, "k2.txt", "2\n0 1\n")
    code, out, _ = run_cli(["stab-slack", g])
    assert code == 0
    assert out.startswith("3 3\n")
    code, out, _ = run_cli(["stab-slack", g, "--maximal"])
    assert code == 0
    assert out.startswith("8 4\n")
    # node 2 is isolated: its row x_2 <= 1 comes last
    g = write(tmp_path, "k2_plus_node.txt", "3\n0 1\n")
    assert run_cli(["stab-slack", g]) == (0, "5 6\n011000\n000110\n001011\n100001\n110100\n", "")


def test_stab_census_subcommand(tmp_path):
    code, out, _ = run_cli(["stab-census", "--nodes", "3"], store=tmp_path / "store")
    assert code == 0
    payload = json.loads(out)
    assert payload["labeled_bipartite"] == 7


# sha256 of the stdout of `stab-census --nodes n` for n = 1..7, one JSON
# line each, 2,354 bytes in all
CENSUS_1_TO_7_SHA256 = "76c4251c54799260da6753520f7f29415468ef6f74adbeb8236d9d446744f6c8"


def test_stab_census_bytes_pinned(tmp_path, monkeypatch, census_n7):
    # n = 7 is answered by the session's census, so it runs once per suite
    computed = stabset.census
    monkeypatch.setattr(stabset, "census", lambda n: census_n7 if n == 7 else computed(n))
    out = ""
    for n in range(1, 8):
        code, line, err = run_cli(["stab-census", "--nodes", str(n)], store=tmp_path / "store")
        assert (code, err) == (0, "")
        out += line
    assert len(out) == 2354
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == CENSUS_1_TO_7_SHA256


def test_stab_census_nonpositive_nodes(tmp_path):
    for n in ("0", "-1"):
        proc = run_process(["--store", str(tmp_path / "store"), "stab-census", "--nodes", n])
        assert proc.returncode == 3 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: DimensionMismatch: node count must be at least 1, got {n}\n"


def test_jobs_do_not_change_output(tmp_path):
    code1, out1, _ = run_cli(["--jobs", "1", "enum", "--dim", "3"], store=tmp_path / "s1")
    code2, out2, _ = run_cli(["--jobs", "2", "enum", "--dim", "3"], store=tmp_path / "s2")
    assert code1 == code2 == 0
    assert out1 == out2


def _env():
    """The environment of a fresh interpreter that imports this checkout's tlc."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def run_process(args, stdout=subprocess.PIPE, timeout=60):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    return subprocess.run([sys.executable, "-m", "tlc.cli"] + args, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=_env(), timeout=timeout)


def test_stab_slack_out_of_range_edge(tmp_path):
    g = write(tmp_path, "bad.txt", "2\n0 5\n")
    proc = run_process(["stab-slack", g])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "out of range" in proc.stderr


def test_corrcone_dimension_budget(tmp_path):
    # k = 12 identity generators: a d = 12 cone, far past the facet budget
    k = 12
    gens = ["".join("1" if j == i else "0" for j in range(k)) for i in range(k)]
    block = [" ".join("1" if j == i else "0" for j in range(i, k)) for i in range(k)]
    graph = write(tmp_path, "k12.txt", "\n".join([f"{k} {k}"] + gens + block + [" ".join(["1"] * k)]) + "\n")
    cube = {"d": 6, "B": [[str(int(i == j)) for j in range(6)] for i in range(6)]}
    code, completed, _ = run_cli(["complete", write(tmp_path, "cube.json", json.dumps(cube))])
    assert code == 0
    cfg = write(tmp_path, "cube_full.json", completed)
    for args in (["decompress", graph], ["compress", cfg]):
        proc = run_process(["--store", str(tmp_path / "store"), *args], timeout=10)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "DimensionTooLarge" in proc.stderr
    assert not list(tmp_path.glob("store/**/*.graph"))


def test_configuration_json_integer_entries(tmp_path):
    as_strings = write(tmp_path, "s.json", '{"d": 2, "B": [["1", "0"], ["0", "1"]]}')
    as_ints = write(tmp_path, "i.json", '{"d": 2, "B": [[1, 0], [0, 1]]}')
    assert run_cli(["complete", as_ints]) == run_cli(["complete", as_strings])
    full = write(tmp_path, "full.json", '{"d": 1, "A": [[0], [1]], "B": [[0], [1]]}')
    code, out, err = run_cli(["compress", full], store=tmp_path / "store")
    assert code == 0, err


def test_configuration_json_rejects_bad_entries(tmp_path):
    for text in (
        '{"d": 1, "A": [[0], [1.0]], "B": [[0], [1]]}',
        '{"d": 1, "A": [[0], [true]], "B": [[0], [1]]}',
        '{"d": "a", "A": [[0], [1]], "B": [[0], [1]]}',
    ):
        cfg = write(tmp_path, "bad.json", text)
        code, _, err = run_cli(["compress", cfg], store=tmp_path / "store")
        assert code == 2, (text, err)
        assert err.startswith("parse error")
    cfg = write(tmp_path, "bad_b.json", '{"d": 2, "B": [[1, 0], [0, 1.5]]}')
    code, _, err = run_cli(["complete", cfg])
    assert code == 2 and err.startswith("parse error")


def test_json_dimension_must_be_an_integer(tmp_path):
    seg = '"ineqs": [["1", "0"], ["-1", "-1"]], "verts": [["0"], ["1"]]'
    cases = [
        ("complete", '{"d": 1.7, "B": [["1"]]}'),
        ("complete", '{"d": true, "B": [["1"]]}'),
        ("complete", '{"B": [["1"]]}'),
        ("complete", '[1]'),
        ("compress", '{"d": 1.0, "A": [[0], [1]], "B": [[0], [1]]}'),
        ("core", '{"d": "a", %s}' % seg),
        ("core", '{"d": true, %s}' % seg),
        ("core", '{"d": 1.5, %s}' % seg),
    ]
    for command, text in cases:
        path = write(tmp_path, "in.json", text)
        proc = run_process(["--store", str(tmp_path / "store"), command, path])
        assert proc.returncode == 2, (command, text, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("parse error")


@pytest.mark.parametrize("text", [
    '', '{', '[]', '{"d": "2"}', '{"d": 1.5}',
    pytest.param('[' * 5000, id="nested-5000"), pytest.param('[' * 200000, id="nested-200000"),
])
def test_json_commands_share_parse_errors(tmp_path, text):
    # complete, compress and core read "d" through one reader
    path = write(tmp_path, "in.json", text)
    outcomes = {run_cli([command, path], store=tmp_path / "store") for command in ("complete", "compress", "core")}
    assert len(outcomes) == 1, outcomes
    code, out, err = outcomes.pop()
    assert (code, out) == (2, "") and err.startswith("parse error: ") and err.count("\n") == 1


def test_complete_refuses_dimension_zero(tmp_path):
    path = write(tmp_path, "d0.json", '{"d": 0, "B": [[]]}')
    assert run_cli(["complete", path]) == (3, "", "error: DimensionMismatch: dimension must be at least 1\n")
    path = write(tmp_path, "d0_empty.json", '{"d": 0, "B": []}')
    assert run_cli(["complete", path]) == (3, "", "error: NotSpanning: empty family\n")


def test_jobs_clamped_to_cpu_count(tmp_path, monkeypatch):
    # --jobs is accepted and ignored: any value prints the serial bytes and
    # no process pool starts
    import multiprocessing.pool

    def refuse(*args, **kwargs):
        raise AssertionError("stab-census started a process pool")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    _, serial, _ = run_cli(["stab-census", "--nodes", "6"], store=tmp_path / "s1")
    for jobs in ("1000000", "2", "0", "-3"):
        assert run_cli(["--jobs", jobs, "stab-census", "--nodes", "6"], store=tmp_path / "s2") == (0, serial, "")


def test_json_vector_fields_must_be_lists_of_vectors(tmp_path):
    cases = [
        ("complete", '{"d": 2, "B": 5}'),
        ("complete", '{"d": 2, "B": [5]}'),
        ("complete", '{"d": 2, "B": "10"}'),
        ("core", '{"d": 1, "ineqs": [], "verts": 5}'),
        ("core", '{"d": 1, "ineqs": [5], "verts": [[0], [1]]}'),
    ]
    for command, text in cases:
        path = write(tmp_path, "in.json", text)
        proc = run_process([command, path])
        assert proc.returncode == 2, (command, text, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("parse error")


def test_compress_configuration_field_errors(tmp_path):
    # the fields are read before d is checked, as for polytope JSON
    cases = [
        ('{"d": 2}', "missing field 'A'"),
        ('{"d": 2, "A": 5, "B": []}', "field 'A' must be a list of vectors"),
        ('{"d": 2, "A": [1, 2], "B": []}', "field 'A' must be a list of vectors"),
        ('{"d": 2, "A": [[0, 1], [1, 0]]}', "missing field 'B'"),
        ('{"d": 2, "A": [[0, 0, 1]], "B": [[0, 1]]}', "vector of length 3 in field 'A', expected 2"),
        ('{"d": 2, "A": [[0, 1], [1, 0]], "B": [[0, 1, 1]]}', "vector of length 3 in field 'B', expected 2"),
        ('{"d": 0, "A": [[1]], "B": []}', "vector of length 1 in field 'A', expected 0"),
    ]
    for text, message in cases:
        path = write(tmp_path, "in.json", text)
        assert run_cli(["compress", path], store=tmp_path / "store") == (2, "", f"parse error: {message}\n"), text


def _peak_bytes(call, error, message):
    """The traced allocation peak of call(), which must raise error with message."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_outside_inputs_stay_small():
    # a 12 KB weighted graph whose header promises k = 3000, and a 3000-entry
    # family with one vector: each is refused with a peak far below k x k
    graph = "3000 1\n" + "0\n" * 6001
    assert len(graph) < 12500
    cases = [
        (lambda: compress.weighted_graph_parse(graph), ParseError, r"expected 3000 weights \(line 3002\)"),
        (lambda: closure([[0] * 3000], 3000), NotSpanning, "family does not span R\\^3000"),
    ]
    for call, error, message in cases:
        assert _peak_bytes(call, error, message) < 5 * 2 ** 20


def test_closed_stdout_exits_1(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(["--store", str(tmp_path / "store"), "face-enum", "--dim", "2"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_report_rejects_tampered_store_file(tmp_path):
    store = tmp_path / "store"
    assert run_cli(["enum", "--dim", "2"], store=store)[0] == 0
    path = sorted((store / "md" / "2").iterdir())[0]
    path.write_text("1 1\n1\n")
    code, out, err = run_cli(["report"], store=store)
    assert code == 3 and out == ""
    assert "StoreConflict" in err and path.name in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_refuses_file_that_is_not_a_canonical_form(tmp_path, fmt):
    # a row-reversed copy of a class, named by its own sha256, is no class of its own
    store = tmp_path / "store"
    assert run_cli(["enum", "--dim", "2"], store=store)[0] == 0
    lines = "3 4\n0000\n0011\n0101\n".splitlines()
    copy = "\n".join(lines[:1] + lines[:0:-1]) + "\n"
    path = Store(store).put("md/2", copy.encode(), ".mat")
    assert len(list((store / "md" / "2").iterdir())) == 3
    expected = f"error: StoreConflict: {path} is not a canonical form\n"
    assert run_cli(["--format", fmt, "report"], store=store) == (3, "", expected)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["03", " 3", "notes"])
def test_report_refuses_directory_not_named_by_a_dimension(tmp_path, name, fmt):
    # read with int(), md/03 and md/ 3 would collide with md/3 and md/notes
    # would end in a ValueError
    store = tmp_path / "store"
    for d in (2, 3):
        assert run_cli(["enum", "--dim", str(d)], store=store)[0] == 0
    stray = store / "md" / name
    stray.mkdir()
    for path in (store / "md" / "2").iterdir():
        (stray / path.name).write_bytes(path.read_bytes())
    expected = f"error: StoreConflict: {stray} is not named by a dimension\n"
    assert run_cli(["--format", fmt, "report"], store=store) == (3, "", expected)


def test_report_skips_regular_file_in_md(tmp_path):
    store = tmp_path / "store"
    assert run_cli(["enum", "--dim", "2"], store=store)[0] == 0
    want = [run_cli(["--format", fmt, "report"], store=store) for fmt in ("text", "json")]
    assert all(code == 0 for code, _, _ in want)
    (store / "md" / "notes").write_text("not a dimension\n")
    assert [run_cli(["--format", fmt, "report"], store=store) for fmt in ("text", "json")] == want


def test_report_skips_leftover_temp_file(tmp_path):
    # a Store.put killed between its temp file and the rename leaves this
    store = tmp_path / "store"
    assert run_cli(["enum", "--dim", "2"], store=store)[0] == 0
    want = run_cli(["report"], store=store)
    assert want[0] == 0
    (store / "md" / "2" / ".tmp-abc123").touch()
    assert run_cli(["report"], store=store) == want


def test_store_path_that_is_a_file_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_process(["--store", str(blocker), "enum", "--dim", "1"])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert "StoreConflict" in proc.stderr and str(blocker) in proc.stderr
    # a namespace blocked by a file fails in Store.put, after the scan
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "md").write_text("")
    code, out, err = run_cli(["enum", "--dim", "1"], store=tmp_path / "store")
    assert (code, out) == (3, "")
    assert "StoreConflict" in err and str(tmp_path / "store" / "md") in err


def test_report_creates_no_store(tmp_path, monkeypatch):
    # report only reads: with no store it prints the empty table and leaves
    # the directory as it was, for the default ./tlc_store and for a file
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TLC_STORE", raising=False)
    code, out, err = run_cli(["report"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("maximal classes by dimension") and len(out.splitlines()) == 2
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "file").write_text("")
    assert run_cli(["report"], store=tmp_path / "file") == (0, out, "")


def test_canon_tall_inputs_end_without_traceback(tmp_path):
    # 1,100 rows: deeper than the interpreter's recursion limit, and for the
    # first 1,100 integers as 11-bit rows, more search nodes than the budget
    rng = random.Random(1100)
    tall = {
        "random": ["".join(rng.choice("01") for _ in range(12)) for _ in range(1100)],
        "counting": [format(k, "011b") for k in range(1100)],
    }
    for name, rows in tall.items():
        path = write(tmp_path, f"{name}.txt", f"{len(rows)} {len(rows[0])}\n" + "\n".join(rows) + "\n")
        proc = run_process(["canon", path], timeout=60)
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr


_MATRIX_TEXT = st.lists(st.text("01", min_size=0, max_size=6), min_size=0, max_size=6).map(
    lambda rows: f"{len(rows)} {len(rows[0]) if rows else 0}\n" + "\n".join(rows) + "\n"
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), _MATRIX_TEXT))
def test_canon_fuzz_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    code, out, err = run_cli(["canon", str(path)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        m = parse_matrix(path.read_text())
        assert out == canon.canonical_form(m).bytes.decode("ascii")


def _fuzz_run(tmp_path_factory, name, text, args):
    """The CLI on a file holding text ({path} in args), with its store in the
    temporary directory; every outcome must be one of the four exit codes."""
    base = tmp_path_factory.getbasetemp()
    path = base / name
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    code, out, err = run_cli([a.replace("{path}", str(path)) for a in args], store=base / "fuzz_store")
    assert code in (0, 1, 2, 3), err
    return code, out


def _node_count(text):
    try:
        return int(text.splitlines()[0])
    except (ValueError, IndexError):
        return None


def _mostly(good, bad):
    """good seven times in eight, else bad."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 7 else good)


@st.composite
def _graph_text(draw):
    n = draw(_mostly(st.integers(1, 8), st.one_of(st.integers(-2, 0), st.integers(stabset._NODE_LIMIT + 1, 10 ** 9))))
    node = st.integers(0, min(max(n, 1), 8) - 1)
    edge = _mostly(st.tuples(node, node), st.tuples(st.integers(-1, 9), st.integers(-1, 9)))
    edges = draw(st.lists(edge, max_size=12))
    tail = draw(_mostly(st.sampled_from(["", "\n"]), st.sampled_from(["x\n", "1\n", "1 2 3\n", "0 1.5\n"])))
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges) + tail


# raw text naming 9 to 15 nodes is left out: such graphs are within the node
# budget, and the slowest of them take minutes
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text().filter(lambda t: not 8 < (_node_count(t) or 0) <= stabset._NODE_LIMIT), _graph_text()),
       st.booleans())
def test_stab_slack_fuzz_exit_codes(tmp_path_factory, text, maximal):
    code, out = _fuzz_run(tmp_path_factory, "graph.txt", text, ["stab-slack", "{path}"] + ["--maximal"] * maximal)
    if code == 0:
        assert parse_matrix(out).rows > 0


_RATIONAL = st.one_of(
    st.integers(-1, 2),
    st.sampled_from(["1/2", "-1/2", "2/3", "1", "x", "1.5", "1/0", 0.5, True, None, []]),
)


def _vectors(width, min_size, max_size):
    entry = _mostly(st.integers(0, 1), st.one_of(st.integers(-1, 2), _RATIONAL))
    length = st.integers(0, 9).map(lambda i: width + (i == 9))
    vector = length.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))
    return st.lists(vector, min_size=min_size, max_size=max_size)


@st.composite
def _json_text(draw, fields):
    """A JSON object with "d" and the given vector fields (name, extra length,
    whether d + 1 vectors at least), some perhaps missing."""
    # a good d, an integer below 1 and a non-integer, about a third of the
    # time each, so that d = 0 reaches closure's refusal of it under every seed
    d = draw(st.one_of(st.integers(1, 3), st.integers(-1, 0), st.sampled_from([1.0, "2", None])))
    width = d if type(d) is int and d >= 0 else 1
    payload = {"d": d}
    for name, extra, spanning in fields:
        payload[name] = draw(_vectors(width + extra, (width + 1) * spanning, 8) if spanning else _vectors(width + extra, 0, 2))
    for name in list(payload):
        if draw(st.integers(0, 9)) == 9:
            del payload[name]
    return json.dumps(payload)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(), _json_text([("ineqs", 1, False), ("verts", 0, True)])))
def test_core_fuzz_exit_codes(tmp_path_factory, text):
    _fuzz_run(tmp_path_factory, "polytope.json", text, ["core", "{path}"])


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(), _json_text([("A", 0, True), ("B", 0, True)])))
def test_complete_and_compress_fuzz_exit_codes(tmp_path_factory, text):
    code, out = _fuzz_run(tmp_path_factory, "cfg.json", text, ["complete", "{path}"])
    _fuzz_run(tmp_path_factory, "cfg.json", text, ["compress", "{path}"])
    if code == 0:
        # a completion is maximal, so it reaches the encoder proper
        code, out = _fuzz_run(tmp_path_factory, "full.json", out, ["compress", "{path}"])
        if code == 0:
            assert _fuzz_run(tmp_path_factory, "g.txt", out, ["decompress", "{path}"])[0] == 0


@functools.cache
def _compressed_texts():
    """Weighted-graph texts of the maximal completions of the unit vectors in d = 1..3."""
    texts = []
    for d in (1, 2, 3):
        cfg = normalize_to_binary(maximal_completion([[int(i == j) for j in range(d)] for i in range(d)], d), "B")
        texts.append(compress.weighted_graph_serialize(compress.compress(cfg)))
    return texts


@st.composite
def _weighted_graph_text(draw):
    """A compressed configuration with a few tokens or lines changed."""
    lines = [ln.split() for ln in draw(st.sampled_from(_compressed_texts())).splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.integers(0, 3)) == 3 or not lines[i]:
            del lines[i]
            continue
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = draw(st.one_of(st.integers(-1, 12).map(str), st.text("01", min_size=1, max_size=4), st.just("x")))
    return "".join(" ".join(ln) + "\n" for ln in lines)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(), _weighted_graph_text()))
def test_decompress_fuzz_exit_codes(tmp_path_factory, text):
    _fuzz_run(tmp_path_factory, "g.txt", text, ["decompress", "{path}"])


@st.composite
def _face_case(draw):
    d = draw(_mostly(st.integers(1, 5), st.one_of(st.integers(-1, 0), st.integers(6, 10 ** 9))))
    width = d if 0 <= d <= 5 else 2
    length = _mostly(st.just(width), st.just(width + 1))
    rows = draw(st.lists(length.flatmap(lambda n: st.lists(st.integers(-1, 2), min_size=n, max_size=n)), max_size=4))
    tail = draw(_mostly(st.sampled_from(["", "\n"]), st.sampled_from(["a b\n", "1/2\n"])))
    return d, "".join(" ".join(map(str, r)) + "\n" for r in rows) + tail


@settings(max_examples=100, deadline=None)
@given(_face_case())
def test_face_fuzz_exit_codes(tmp_path_factory, case):
    d, text = case
    _fuzz_run(tmp_path_factory, "cuts.txt", text, ["face", "--dim", str(d), "--b-vectors", "{path}"])


def test_stab_slack_node_budget(tmp_path):
    # 99,999,999 nodes, and a 40-node perfect matching with 3^20 stable sets
    matching = "40\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(20))
    for name, text in (("huge.txt", "99999999\n"), ("matching.txt", matching)):
        g = write(tmp_path, name, text)
        for flags in ([], ["--maximal"]):
            proc = run_process(["stab-slack", g] + flags, timeout=60)
            assert proc.returncode == 3, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "DimensionTooLarge" in proc.stderr


def test_check_identity_beyond_closure_rank_limit(tmp_path):
    n = 24
    rows = ["".join("1" if j == i else "0" for j in range(n)) for i in range(n)]
    path = write(tmp_path, "id24.txt", f"{n} {n}\n" + "\n".join(rows) + "\n")
    t0 = time.perf_counter()
    proc = run_process(["check", path], timeout=60)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "DimensionTooLarge" in proc.stderr


def test_check_refuses_rank_above_limit_after_seventeen_pivots(tmp_path, monkeypatch):
    # distinct lines: the elimination stops at the 17th pivot, which the 0/1
    # count refuses; the full elimination of this matrix took about 1.2 s
    rng = random.Random(150)
    rows = ["".join(str(rng.getrandbits(1)) for _ in range(150)) for _ in range(150)]
    text = "150 150\n" + "\n".join(rows) + "\n"
    assert parse_matrix(text).distinct_lines()
    configuration._MEMO.clear()
    pivots = []
    original = linalg._bareiss

    def counted(*args):
        result = original(*args)
        pivots.append(len(result[1]))
        return result

    monkeypatch.setattr(linalg, "_bareiss", counted)
    path = write(tmp_path, "r150.txt", text)
    assert run_cli(["check", path]) == (3, "", "error: DimensionTooLarge: closure is limited to rank <= 16\n")
    assert pivots == [17]


def test_check_prints_full_rank_of_matrix_with_repeated_line(tmp_path):
    identity = ["".join("1" if j == i else "0" for j in range(20)) for i in range(20)]
    text = "21 20\n" + "\n".join(identity + identity[:1]) + "\n"
    assert rank_and_maximality(parse_matrix(text)) == (20, False)
    path = write(tmp_path, "id20.txt", text)
    assert run_cli(["check", path]) == (0, "member of M_20: no; maximal: no\n", "")


def _reference_check_output(m, fmt):
    """The earlier `tlc check`: linalg.rank of the rows, then two separate
    eliminations for the row and column counts."""
    d = rank(m.row_tuples()) if m.rows and m.cols else 0
    member = d >= 1 and m.distinct_lines()
    maximal = False
    if member and any(m.bits):
        lines = m.row_tuples()
        maximal = (_zero_one_count(list(lines), m.cols) == m.rows
                   and _zero_one_count(list(zip(*lines)), m.rows) == m.cols)
    if fmt == "json":
        return json.dumps({"rank": d, "member": member, "maximal": maximal}, sort_keys=True) + "\n"
    return f"member of M_{d}: {'yes' if member else 'no'}; maximal: {'yes' if maximal else 'no'}\n"


def test_check_bytes_match_reference_on_classes_and_deletions(tmp_path, enum_results, enum_d4):
    forms = [f.bytes.decode() for res in (*enum_results.values(), enum_d4) for f in res.classes]
    assert len(forms) == 40
    inputs = []
    for text in forms:
        m = parse_matrix(text)
        inputs.append(m)
        rows, cols = m.row_tuples(), m.col_tuples()
        inputs += [matrix_from_rows(rows[:i] + rows[i + 1:]) for i in range(m.rows) if m.rows > 1]
        inputs += [matrix_from_rows(cols[:j] + cols[j + 1:]).transpose() for j in range(m.cols) if m.cols > 1]
    path = tmp_path / "m.txt"
    seen = set()
    for m in inputs:
        path.write_text(m.to_text())
        for fmt in ("text", "json"):
            code, out, err = run_cli(["--format", fmt, "check", str(path)])
            assert (code, out, err) == (0, _reference_check_output(m, fmt), "")
            seen.add(out)
    assert len(inputs) > 600
    # maximal classes, non-maximal members and non-members all occur
    assert {"member of M_4: yes; maximal: yes\n", "member of M_4: yes; maximal: no\n"} <= seen
    assert any(": no; maximal: no\n" in out for out in seen)


def _weighted_graph(gens):
    k, d = len(gens), len(gens[0])
    lines = [f"{k} {d}"] + ["".join(map(str, g)) for g in gens]
    lines += [" ".join(["0"] * (k - i)) for i in range(k)] + [" ".join(["0"] * k)]
    return "\n".join(lines) + "\n"


def test_decompress_refuses_k_above_cone_limit_before_generators(tmp_path):
    # the first two generators are equal, but k = 6 is refused first
    gens = [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
    path = write(tmp_path, "k6.txt", _weighted_graph(gens))
    expected = "error: DimensionTooLarge: correlation cone facets are limited to d <= 5\n"
    assert run_cli(["decompress", path], store=tmp_path / "store") == (3, "", expected)
    # k = d = 320: ranking the leading generators first took about 19 s on 2 cores
    rng = random.Random(320)
    path = write(tmp_path, "k320.txt", _weighted_graph([[rng.randint(0, 1) for _ in range(320)] for _ in range(320)]))
    t0 = time.perf_counter()
    proc = run_process(["--store", str(tmp_path / "store"), "decompress", path], timeout=60)
    assert time.perf_counter() - t0 < 10
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", expected)


def test_check_bytes_match_reference_on_degenerate_matrices(tmp_path):
    texts = ["0 0\n", "0 2\n", "2 0\n\n\n", "1 1\n0\n", "1 1\n1\n", "1 2\n00\n", "2 1\n0\n1\n", "2 2\n00\n00\n"]
    path = tmp_path / "m.txt"
    for text in texts:
        path.write_text(text)
        for fmt in ("text", "json"):
            assert run_cli(["--format", fmt, "check", str(path)]) == (0, _reference_check_output(parse_matrix(text), fmt), "")


def test_compress_rejects_non_maximal_configuration(tmp_path):
    cfg = write(tmp_path, "cfg.json", '{"d": 2, "A": [[0, 0], [1, 0], [0, 1]], "B": [[0, 0], [1, 0], [0, 1]]}')
    code, _, err = run_cli(["compress", cfg], store=tmp_path / "store")
    assert code == 3
    assert "NotMaximal" in err


def test_undecodable_input_is_a_parse_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"1 1\n\xff\n")
    code, _, err = run_cli(["canon", str(path)])
    assert code == 2 and err.startswith("parse error")
