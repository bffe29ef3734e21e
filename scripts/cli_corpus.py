#!/usr/bin/env python3
"""Regenerate the golden CLI corpus, ``tests/data/cli_corpus.jsonl``.

Each line of the corpus is one call of ``katolab.cli.run``: its argv, the
text it reads from stdin and the input files it opens, and the exit code,
stdout and stderr it gave.  The inputs come from a seeded ``random.Random``
(28 Kato words, n 2-4), so the same seed writes the same corpus.  They cover
every subcommand, every ``dynamics`` action, both output formats, inline,
``--file``, stdin and ``--batch`` input, and bad and over-cap input.

Every call runs under ``KATOLAB_DIGIT_CAP=2000`` and ``COLUMNS=80``
(argparse wraps its usage lines to the terminal width), in a fresh temporary
directory that holds the call's input files.  ``tests/test_cli_corpus.py``
replays the corpus through :func:`invoke` and compares by :func:`mismatch`:
byte for byte, except an invariant report's ``perron_alpha``, a float that
is compared within 1e-9 relative.

    PYTHONPATH=src python3 scripts/cli_corpus.py            # write it anew
    PYTHONPATH=src python3 scripts/cli_corpus.py --changed  # rewrite changed lines

Regenerate only when an output changes on purpose.  ``--changed`` keeps every
line that still matches and prints the number and argv of each line it
rewrites, so the change can list them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from katolab import FactorSeq, compose_factors
from katolab.cli import run
from katolab.formats import format_matrix_json, format_matrix_text, format_seq_json, format_seq_text

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "cli_corpus.jsonl"
ENV = {"KATOLAB_DIGIT_CAP": "2000", "COLUMNS": "80", "LINES": "24"}
WORDS = 28
OVER_CAP = "1" + "0" * 2001  # one digit more than the cap allows


def invoke(case: dict) -> dict:
    """Run one case through ``cli.run``; return its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    with mock.patch.dict(os.environ, ENV), tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in case.get("files", {}).items():
            Path(name).write_text(text, encoding="utf-8")
        sys.stdin = io.StringIO(case.get("stdin", ""))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(case["argv"]))
        finally:
            sys.stdin = stdin
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ``perron_alpha: 2.4142135623730954`` in text, ``"perron_alpha":2.41...`` in JSON
_ALPHA = re.compile(r'(perron_alpha"?: ?)([^,}\s]+)')


def _split_alpha(text: str) -> tuple[str, list[float]]:
    return _ALPHA.sub(r"\1*", text), [float(m.group(2)) for m in _ALPHA.finditer(text)]


def mismatch(want: dict, got: dict) -> str | None:
    """How ``got`` differs from the recorded ``want``, or None if it matches."""
    if got["code"] != want["code"]:
        return f"exit code {got['code']} != {want['code']}"
    if got["stderr"] != want["stderr"]:
        return f"stderr {got['stderr'][:200]!r} != {want['stderr'][:200]!r}"
    got_text, got_alphas = _split_alpha(got["stdout"])
    want_text, want_alphas = _split_alpha(want["stdout"])
    if got_text != want_text or len(got_alphas) != len(want_alphas):
        return f"stdout {got['stdout'][:200]!r} != {want['stdout'][:200]!r}"
    for x, y in zip(got_alphas, want_alphas):
        if abs(x - y) > 1e-9 * y:
            return f"perron_alpha {x!r} != {y!r}"
    return None


def _words(rng: random.Random) -> list[FactorSeq]:
    seen: dict = {}
    while len(seen) < WORDS:
        n = rng.randint(2, 4)
        seq = FactorSeq(n, tuple(rng.randint(1, n) for _ in range(rng.randint(1, 6))))
        if seq.is_kato_word:
            seen.setdefault(seq, None)
    return list(seen)


def _point(rng: random.Random, n: int) -> str:
    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    coords = []
    for _ in range(n):
        re_part, im_part = part(), part()
        while not (re_part or im_part):
            re_part = part()
        sign = "+" if im_part >= 0 else "-"
        coords.append(f"{re_part}{sign}{abs(im_part)}i")
    return ";".join(coords)


def _word_cases(rng: random.Random, i: int, seq: FactorSeq) -> list[dict]:
    a = compose_factors(seq)
    text = format_matrix_text(a)
    # The matrix is given inline as text, inline as JSON, by --file, or on stdin.
    source = (
        {"argv": [text]},
        {"argv": [json.dumps(format_matrix_json(a))]},
        {"argv": ["--file", "m.txt"], "files": {"m.txt": text + "\n"}},
        {"argv": ["-"], "stdin": text + "\n"},
    )[i % 4]
    point = _point(rng, seq.n)
    runs = [
        ["factor"],
        ["invariants"],
        ["verify", "--degree", "3"],
        ["dynamics", "--action", "map", f"--point={point}"],
        ["dynamics", "--action", "inverse", f"--point={point}"],
        ["dynamics", "--action", "orbit", f"--point={point}", "--steps", "2"],
        ["dynamics", "--action", "membership", f"--point={point}", "--max-iter", "2"],
        ["dynamics", "--action", "domain", f"--point={point}"],
        ["dynamics", "--action", "perron"],
        ["dynamics", "--action", "certify12", "--samples", "8", "--seed", str(i)],
    ]
    out = []
    for fmt in ("text", "json"):
        out += [{**source, "argv": [head[0], *source["argv"], *head[1:], "--format", fmt]} for head in runs]
        seq_text = format_seq_text(seq) if fmt == "text" else json.dumps(format_seq_json(seq))
        out.append({"argv": ["compose", seq_text, "--format", fmt]})
    return out


def _edge_cases(words: list[FactorSeq]) -> list[dict]:
    a = format_matrix_text(compose_factors(words[0]))
    n = words[0].n
    ones = ";".join(["1+0i"] * n)
    batch = "\n".join(format_matrix_text(compose_factors(s)) for s in words)
    batch += "\n\n2,0;0,1\n{not json\n1,2;3\n" + OVER_CAP + ",0;0,1\n"
    dump = json.dumps({"orbit": [["1/2+0i", "1/3+0i"], ["1/12+0i", "1/486+0i"]]})
    return [
        {"argv": ["invariants", "--batch", "batch.txt"], "files": {"batch.txt": batch}},
        {"argv": ["dynamics", "1,2;2,5", "--action", "perron", "--tol", "1e-30"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "perron", "--tol", "0"]},
        {"argv": ["dynamics", "1,2;2,5", "--point", dump]},
        {"argv": ["dynamics", "1,2;2,5", "--point", '{"orbit": []}']},
        {"argv": ["dynamics", "1,2;2,5", "--action", "orbit", "--point", "1/3+1/5i;1/3+1/5i", "--steps", "40"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "orbit", "--point", ones, "--steps", "-1"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "membership"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "membership", "--point", "2+0i;3+0i", "--max-iter", "-1"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "membership", "--point", "2+0i;3+0i", "--max-iter", "40"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "inverse", "--point", "1+0i;0"]},
        {"argv": ["dynamics", "1,2;2,5", "--point", "1+0i"]},
        {"argv": ["dynamics", "1,2;2,5", "--point", "1e5+0i;1+0i"]},
        {"argv": ["dynamics", "1,2;2,5", "--point", f"{OVER_CAP}+0i;1+0i"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "certify12", "--samples", "0"]},
        {"argv": ["dynamics", "1,2;2,5", "--action", "spin"]},
        {"argv": ["dynamics", a, "--action", "orbit", "--point", ones, "--format", "yaml"]},
        {"argv": ["verify", "1,2;2,5", "--degree", "-1"]},
        {"argv": ["verify", "1,2;2,5", "--check", "oneform-nullity", "--degree", "2"]},
        {"argv": ["verify", "1,1;1,2", "--check", "tangent-nullity", "--degree", "2", "--format", "json"]},
        {"argv": ["factor", "2,0;0,1"]},
        {"argv": ["factor", "1,1;0,1"]},
        {"argv": ["factor", "1,2;3"]},
        {"argv": ["factor", ""]},
        {"argv": ["factor", f"{OVER_CAP},0;0,1"]},
        {"argv": ["factor", '{"n": 2, "rows": [[1, 2], [2, "5"]]}']},
        {"argv": ["factor", "1,2;2,5", "--file", "m.txt"], "files": {"m.txt": "1,2;2,5\n"}},
        {"argv": ["factor", "--file", "missing.txt"]},
        {"argv": ["factor"]},
        {"argv": ["compose", "n=2:[3]"]},
        {"argv": ["compose", "n=3:[]"]},
        {"argv": ["compose", "n=3:2,3"]},
        {"argv": ["compose", '{"n": 3, "indices": [2, true]}']},
        {"argv": ["compose", "n=100:[1,2]"]},
        {"argv": ["invariants", "0,1;1,0"]},
        {"argv": ["invariants", "1,2;2,5", "--batch", "b.txt"], "files": {"b.txt": "1,2;2,5\n"}},
        {"argv": []},
        {"argv": ["transmogrify", "1,2;2,5"]},
    ]


def build(seed: int) -> list[dict]:
    rng = random.Random(seed)
    words = _words(rng)
    cases = [c for i, seq in enumerate(words) for c in _word_cases(rng, i, seq)]
    return cases + _edge_cases(words)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=18)
    parser.add_argument("--out", type=Path, default=CORPUS)
    parser.add_argument("--changed", action="store_true", help="rewrite only the lines that no longer match")
    args = parser.parse_args()
    if args.changed:
        cases = [json.loads(line) for line in args.out.read_text(encoding="utf-8").splitlines()]
    else:
        cases = build(args.seed)
    out = []
    for number, case in enumerate(cases, 1):
        got = invoke(case)
        if args.changed:
            if mismatch(case, got) is None:
                got = {}  # keep the recorded output
            else:
                print(number, case["argv"][:6])
        out.append(json.dumps({**case, **got}, ensure_ascii=True, sort_keys=True))
    args.out.write_text("\n".join(out) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
