#!/usr/bin/env python3
"""Print a SHA-256 digest of the stdout of a fixed list of seeded CLI runs.

Each command runs in-process through ``qpolar.cli.main``; one line per
command gives the first 12 hex digits of the digest of its stdout and the
command itself.  A spec written by ``construct`` is shared through a
temporary file shown as {spec}, a fixed invertible GF(4) 8x8 kernel is
written to one shown as {kernel}, a fixed GF(3) three-output channel to
one shown as {gf3} (its syntheses give the list's q = 3 merges, lossless
and quantized),
a fixed GF(9) three-output channel to one shown as {gf9} (its S and Smax
read the character table of an extension field of odd characteristic), and
three kernels made by ``lu_kernel`` to {gf2_20} (GF(2), 20x20: its spans
reach 2^9 words, one block), {gf2_40} (GF(2), 40x40: its position-1 coset
has 2^39 words, taken by MacWilliams duality, and its spans reach 2^19
words, several enumeration blocks) and {gf3_9} (GF(3), 9x9: coset words
over an odd prime).  {post} holds a fixed (8, 2) posterior array for the
length-8 spec.
The exit status is 1 if any command exits nonzero.  Two trees that print
the same lines give byte-identical output on every listed command, so the
list serves as a quick check that a change leaves the CLI's results alone.
It takes a few seconds.  ``scripts/cli_digest.expected`` holds the lines
this tree prints; a change that alters a line on purpose updates that file
in the same commit (a tier-1 test compares every line).

example:
  PYTHONPATH=src python3 scripts/cli_digest.py | diff scripts/cli_digest.expected -
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from qpolar.cli import main

# certifying it enumerates every primal and dual coset over GF(4), after mat_invert
GF4_KERNEL = {
    "p": 2,
    "m": 2,
    "matrix": [
        [2, 3, 3, 2, 3, 3, 3, 0],
        [1, 2, 1, 1, 2, 3, 2, 0],
        [2, 3, 0, 2, 1, 3, 0, 1],
        [3, 1, 0, 3, 3, 3, 3, 1],
        [2, 3, 2, 3, 2, 0, 1, 2],
        [1, 2, 1, 3, 0, 2, 0, 0],
        [2, 1, 1, 1, 3, 2, 1, 3],
        [3, 1, 0, 0, 0, 2, 2, 2],
    ],
}
GF3_CHANNEL = {
    "p": 3,
    "m": 1,
    "transition": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.15, 0.6]],
    "input_dist": [0.3, 0.3, 0.4],
}
GF9_CHANNEL = {
    "p": 3,
    "m": 2,
    "transition": [
        [0.6, 0.3, 0.1],
        [0.1, 0.6, 0.3],
        [0.3, 0.1, 0.6],
        [0.5, 0.25, 0.25],
        [0.25, 0.5, 0.25],
        [0.25, 0.25, 0.5],
        [0.4, 0.4, 0.2],
        [0.2, 0.4, 0.4],
        [0.4, 0.2, 0.4],
    ],
    "input_dist": [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
}
# channel-input posteriors for the N=8 binary spec, one row per channel use
POSTERIORS = [
    [0.9, 0.1],
    [0.3, 0.7],
    [0.5, 0.5],
    [0.05, 0.95],
    [0.6, 0.4],
    [1.0, 0.0],
    [0.2, 0.8],
    [0.75, 0.25],
]


def lu_kernel(p: int, ell: int, seed: int) -> dict:
    """A fixed invertible ell x ell kernel over the prime field GF(p).

    The product L U of a unit lower and a unit upper triangular matrix, whose
    entries below and above the diagonal come from a 64-bit linear
    congruential stream, so the kernel depends on neither numpy nor qpolar.
    """
    state = seed

    def draw() -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 33) % p

    lower = [[1 if j == i else draw() if j < i else 0 for j in range(ell)] for i in range(ell)]
    upper = [[1 if j == i else draw() if j > i else 0 for j in range(ell)] for i in range(ell)]
    matrix = [
        [sum(lower[i][k] * upper[k][j] for k in range(ell)) % p for j in range(ell)]
        for i in range(ell)
    ]
    return {"p": p, "m": 1, "matrix": matrix}


C11_SPEC = "construct --bec 0.5 --arikan --ell 2 --depth 3 --pi 0.2 --seed 42"
COMMANDS = [
    "transform --zchan 0.3 --arikan",
    "transform --zchan 0.3 --arikan --no-merge",
    "construct --zchan 0.3 --arikan --ell 2 --depth 5 --pi 0.2 --seed 7",
    "construct --zchan 0.3 --arikan --ell 2 --depth 5 --pi 0.2 --seed 7 --summary",
    "construct --bsc 0.11 --ell 3 --depth 2 --pi 0.2 --seed 7 --search-budget 200",
    C11_SPEC,
    "encode --spec {spec} --message 1,0,1 --seed 5",
    "decode --spec {spec} --received 0,2,1,0,2,2,1,0 --bec 0.5 --seed 5",
    "simulate --spec {spec} --bec 0.5 --trials 200 --seed 99 --jobs 1",
    "simulate --spec {spec} --bec 0.5 --trials 200 --seed 99 --jobs 2",
    "simulate --spec {spec} --bec 0.5 --trials 200 --seed 99 --jobs 3",
    "process --bec 0.5 --arikan --depth 10 --paths 200 --seed 0 --full",
    "process --bsc 0.11 --arikan --depth 6 --paths 20 --seed 0 --quantize 64",
    "kernel --search --bsc 0.11 --ell 3 --budget 200 --seed 5",
    "verify --seed 0",
    "kernel --certify 0.3 0.3 --kernel {kernel}",
    "construct --channel {gf3} --arikan --ell 2 --depth 3 --pi 0.2 --seed 7",
    "transform --channel {gf9} --arikan",
    "kernel --certify 0.3 0.3 --kernel {gf2_20}",
    "kernel --certify 0.3 0.3 --kernel {gf3_9}",
    "kernel --certify 0.3 0.3 --kernel {gf2_40}",
    "params --zchan 0.3 --holder",
    "transform --bec 0.5 --arikan --index 1",
    "kernel --arikan",
    "decode --spec {spec} --posteriors {post} --seed 5",
    "process --bec 0.5 --arikan --depth 4 --seed 9 --trace",
    "process --bsc 0.11 --ell 3 --search-budget 200 --depth 2 --paths 3 --seed 1 --full",
    "process --channel {gf3} --arikan --depth 4 --paths 4 --seed 0 --quantize 16 --full",
]


def run(command: str, files: dict) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.format(**files).split())
    return code, out.getvalue()


def digest_lines():
    """Yield (exit code, digest line) for every command of ``COMMANDS``, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        names = ("spec", "kernel", "gf3", "gf9", "gf2_20", "gf2_40", "gf3_9", "post")
        files = {name: Path(tmp) / f"{name}.json" for name in names}
        files["kernel"].write_text(json.dumps(GF4_KERNEL))
        files["gf3"].write_text(json.dumps(GF3_CHANNEL))
        files["gf9"].write_text(json.dumps(GF9_CHANNEL))
        files["gf2_20"].write_text(json.dumps(lu_kernel(2, 20, 2020)))
        files["gf2_40"].write_text(json.dumps(lu_kernel(2, 40, 4040)))
        files["gf3_9"].write_text(json.dumps(lu_kernel(3, 9, 309)))
        files["post"].write_text(json.dumps(POSTERIORS))
        for command in COMMANDS:
            code, text = run(command, files)
            if command == C11_SPEC:
                files["spec"].write_text(text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            yield code, f"{digest}  {command}" + (f"  (exit {code})" if code else "")


def digest_all() -> int:
    failed = 0
    for code, line in digest_lines():
        print(line)
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(digest_all())
