"""Replay the golden CLI corpus through ``cli.run``.

``tests/data/cli_corpus.jsonl`` holds seeded argv lines, each with the exit
code, stdout and stderr it gave; ``scripts/cli_corpus.py`` writes the corpus
and runs each line under ``KATOLAB_DIGIT_CAP=2000``.  Every output must come
back byte for byte, except an invariant report's ``perron_alpha``: that float
is compared within 1e-9 relative, the rule of
``test_reports_match_golden_output``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "scripts" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


def test_cli_output_matches_golden_corpus():
    lines = cli_corpus.CORPUS.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 600
    failures = []
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        problem = cli_corpus.mismatch(want, cli_corpus.invoke(want))
        if problem is not None:
            failures.append(f"line {number} {want['argv'][:6]}: {problem}")
    assert not failures, f"{len(failures)} of {len(lines)} lines changed:\n" + "\n".join(failures[:10])
