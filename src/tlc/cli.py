"""Command-line frontend.

Exit codes: 1 for usage errors and for a standard output closed before
everything was written, 2 for input parse errors, 3 for domain errors.
Every subcommand is deterministic given identical inputs and runs in one
process; --jobs is accepted for older scripts and has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import canon, compress as compress_mod, corrcone, enumeration, geometry, stabset
from .configuration import (
    configuration_from_json,
    configuration_to_json,
    json_with_dim,
    maximal_completion,
    normalize_to_binary,
    parse_matrix,
    rank_and_maximality,
    vectors_from_json_field,
)
from .errors import ParseError, StoreConflict, TlcError
from .store import Store

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="tlc", description="exact toolkit for two-level configurations")
    p.add_argument("--store", default=None, help="result store directory (env TLC_STORE)")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: every command runs in one process")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check", help="membership and maximality of a 0/1 matrix")
    q.add_argument("matrix")
    q = sub.add_parser("complete", help="maximal completion seeded by the B side of a configuration JSON")
    q.add_argument("config")
    q = sub.add_parser("canon", help="canonical representative of a 0/1 matrix")
    q.add_argument("matrix")
    q = sub.add_parser("enum", help="enumerate maximal classes")
    q.add_argument("--dim", type=int, required=True)
    q = sub.add_parser("compress", help="encode a maximal configuration as a weighted graph")
    q.add_argument("config")
    q = sub.add_parser("decompress", help="decode a weighted-graph file back to a configuration")
    q.add_argument("graph")
    q = sub.add_parser("face", help="face points and certificate for a set of integer vectors")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--b-vectors", required=True)
    q = sub.add_parser("face-enum", help="enumerate all faces of the correlation cone")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--certificates", action="store_true", help="list each face's certificate")
    q = sub.add_parser("core", help="triangular core and binary/integral form of a polytope")
    q.add_argument("polytope")
    q = sub.add_parser("stab-slack", help="slack matrix of a bipartite stable set polytope")
    q.add_argument("graph")
    q.add_argument("--maximal", action="store_true")
    q = sub.add_parser("stab-census", help="bipartite graph census")
    q.add_argument("--nodes", type=int, required=True)
    sub.add_parser("report", help="class-count table from the store")
    return p


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _store_from(args) -> Store:
    root = args.store or os.environ.get("TLC_STORE") or "./tlc_store"
    return Store(root)


def _cmd_check(args, out) -> int:
    m = parse_matrix(_read(args.matrix))
    d, maximal = rank_and_maximality(m)
    member = d >= 1 and m.distinct_lines()
    if args.format == "json":
        out.write(json.dumps({"rank": d, "member": member, "maximal": maximal}, sort_keys=True) + "\n")
    else:
        out.write(f"member of M_{d}: {'yes' if member else 'no'}; maximal: {'yes' if maximal else 'no'}\n")
    return EXIT_OK


def _cmd_complete(args, out) -> int:
    # a completion seed only needs d and the B side
    payload, d = json_with_dim(_read(args.config))
    seed = vectors_from_json_field(payload, "B", d)
    completed = maximal_completion(seed, d)
    out.write(configuration_to_json(completed) + "\n")
    return EXIT_OK


def _cmd_canon(args, out) -> int:
    m = parse_matrix(_read(args.matrix))
    out.write(canon.canonical_form(m).bytes.decode("ascii"))
    return EXIT_OK


def _cmd_enum(args, out) -> int:
    store = _store_from(args)
    res = enumeration.enumerate_maximal(args.dim, store=store)
    if args.format == "json":
        out.write(json.dumps({
            "dim": res.d,
            "classes": len(res.classes),
            "classes_mod_transpose": enumeration.transpose_identified_count(res.classes),
            "seeds_spanning": res.stats.seeds_spanning,
            "degenerate_seeds": res.stats.degenerate_seeds,
        }, sort_keys=True) + "\n")
    else:
        out.write(f"classes: {len(res.classes)}\n")
    return EXIT_OK


def _cmd_compress(args, out) -> int:
    cfg = configuration_from_json(_read(args.config))
    if any(x != 0 and x != 1 for v in cfg.B for x in v):
        cfg = normalize_to_binary(cfg, "B")
    cc = compress_mod.compress(cfg)
    text = compress_mod.weighted_graph_serialize(cc)
    _store_from(args).put("compressed", text.encode("ascii"), ".graph")
    out.write(text)
    return EXIT_OK


def _cmd_decompress(args, out) -> int:
    cc = compress_mod.weighted_graph_parse(_read(args.graph))
    cfg = compress_mod.decompress(cc)
    out.write(configuration_to_json(cfg) + "\n")
    return EXIT_OK


def _read_b_vectors(path: str, d: int):
    out = []
    for i, ln in enumerate(_read(path).splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            v = tuple(int(x) for x in ln.split())
        except ValueError:
            raise ParseError("vector entries must be integers", line=i) from None
        if len(v) != d:
            raise ParseError(f"expected {d} entries", line=i)
        out.append(v)
    return out


def _cmd_face(args, out) -> int:
    corrcone._check_dimension(args.dim)
    pts = corrcone.face_points(args.dim, _read_b_vectors(args.b_vectors, args.dim))
    # a cut is a face by construction, so its certificate skips certificate_encode's face test
    cert = corrcone._face_certificate(args.dim, pts)
    if args.format == "json":
        out.write(json.dumps({
            "d": args.dim,
            "points": ["".join(str(b) for b in p) for p in pts],
            "certificate": list(cert.s),
        }, sort_keys=True) + "\n")
    else:
        out.write("points:\n")
        for p in pts:
            out.write("".join(str(b) for b in p) + "\n")
        out.write("certificate:\n")
        out.write(cert.to_text())
    return EXIT_OK


def _cmd_face_enum(args, out) -> int:
    faces = corrcone.enumerate_faces(args.dim)
    points = [["".join(str(b) for b in p) for p in f] for f in faces]
    lines = [" ".join(ps) for ps in points]
    store = _store_from(args)
    for line in lines:
        store.put(f"faces/{args.dim}", (line + "\n").encode("ascii"), ".face")
    # the enumerated point sets are faces by construction, so their
    # certificates skip certificate_encode's face test
    certs = [corrcone._face_certificate(args.dim, f).s for f in faces] if args.certificates else None
    if args.format == "json":
        payload = {"d": args.dim, "faces": points}
        if certs is not None:
            payload["certificates"] = certs
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(f"faces: {len(faces)}\n")
        for k, line in enumerate(lines):
            if certs is not None:
                line += "  certificate: " + " ".join(map(str, certs[k]))
            out.write(line + "\n")
    return EXIT_OK


def _cmd_core(args, out) -> int:
    verts = geometry.polytope_from_json(_read(args.polytope))
    core, result = geometry.to_binary_integral_configuration(geometry.polytope_completion(verts))
    payload = {
        "core": {"rows": list(core.row_indices), "cols": list(core.col_indices)},
        "configuration": json.loads(configuration_to_json(result)),
    }
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_stab_slack(args, out) -> int:
    g = stabset.graph_from_text(_read(args.graph))
    s = stabset.stab_maximal_slack(g) if args.maximal else stabset.stab_basic_slack(g)
    out.write(s.matrix.to_text())
    return EXIT_OK


def _cmd_stab_census(args, out) -> int:
    text = json.dumps(stabset.census(args.nodes), sort_keys=True)
    _store_from(args).put("census", text.encode("ascii"), ".json")
    out.write(text + "\n")
    return EXIT_OK


def _cmd_report(args, out) -> int:
    store = _store_from(args)
    classes = {}
    base = store.root / "md"
    if base.is_dir():
        for sub in sorted(p for p in base.iterdir() if p.is_dir()):
            d = int(sub.name) if sub.name.isdecimal() else 0
            if d < 1 or str(d) != sub.name:
                raise StoreConflict(f"{sub} is not named by a dimension")
            forms = []
            for path in store.list_namespace(f"md/{sub.name}"):
                payload = path.read_bytes()
                if store.path_for(f"md/{sub.name}", payload, path.suffix) != path:
                    raise StoreConflict(f"{path} is not named by the sha256 of its content")
                form = canon.canonical_form(parse_matrix(payload.decode()))
                if form.bytes != payload:
                    raise StoreConflict(f"{path} is not a canonical form")
                forms.append(form)
            classes[d] = forms
    if args.format == "json":
        dims = [{"dim": d, "classes": len(forms), "classes_mod_transpose": enumeration.transpose_identified_count(forms)}
                for d, forms in sorted(classes.items())]
        out.write(json.dumps({"dims": dims}, sort_keys=True) + "\n")
    else:
        out.write(enumeration.report(classes))
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "complete": _cmd_complete,
    "canon": _cmd_canon,
    "enum": _cmd_enum,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "face": _cmd_face,
    "face-enum": _cmd_face_enum,
    "core": _cmd_core,
    "stab-slack": _cmd_stab_slack,
    "stab-census": _cmd_stab_census,
    "report": _cmd_report,
}


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        err.write(f"usage error: {e}\n")
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, out)
    except ParseError as e:
        err.write(f"parse error: {e}\n")
        return EXIT_PARSE
    except TlcError as e:
        err.write(f"error: {type(e).__name__}: {e}\n")
        return EXIT_DOMAIN
    except ValueError as e:
        err.write(f"error: {e}\n")
        return EXIT_DOMAIN


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
