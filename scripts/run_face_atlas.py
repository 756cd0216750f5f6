#!/usr/bin/env python3
"""List all faces of the correlation cone with their certificates."""

import argparse
import os
import sys

from tlc import corrcone


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2, choices=range(1, corrcone._FACE_ENUM_LIMIT + 1))
    args = ap.parse_args()

    faces = corrcone.enumerate_faces(args.dim)
    try:
        print(f"faces of the dimension-{args.dim} correlation cone: {len(faces)}")
        for f in faces:
            cert = corrcone.certificate_encode(args.dim, f)
            pts = " ".join("".join(str(b) for b in p) for p in f)
            print(f"{{{pts}}}  certificate: {' '.join(str(v) for v in cert.s)}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
