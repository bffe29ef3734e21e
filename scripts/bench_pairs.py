#!/usr/bin/env python3
"""Benchmark two revisions against each other in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME --seeds 1001-1010

Each revision is exported with ``git archive`` into its own directory under
``--workdir`` (a fresh temporary directory by default), so the benchmark runs
on committed files only and the repository itself is left alone; to measure
uncommitted work, stage it and pass the commit printed by ``git stash
create``.  For every workload of BENCHMARK.json and every seed,
``perfbench/run.py`` runs once on each side for the benchmark's run length,
one process at a time, and the side that goes first alternates from pair to
pair, so a slow spell of the host hits both sides alike.  One traced run per
side and workload (on the first seed) adds the per-layer counts in
``LAYERS``.

Writes ``BENCH_<label>.json`` at the root of the repository: per workload and
end-to-end metric each side's median and quartiles, how many pairs the change
won, the change's median over the parent's, every pair's raw values and the
traced layer metrics, also per op.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LAYERS = (
    "words.factorize.calls_per_op",
    "words.factorize.calls",
    "words.factorize.self_ms",
    "intmat.IntMatrix.det.calls",
    "invariants.multiplicity_one.calls",
    "invariants.build_report.calls",
    "limits.guard_int.calls",
    "dynamics.perron_data.failed",
    "dynamics.perron_data.self_ms",
    "dynamics.certify_ball12_contraction.calls",
    "dynamics.certify_ball12_contraction.self_ms",
    "dynamics.stable_membership.self_ms",
    "linsys.system_rank.self_ms",
    "gaussrat.GaussianRational.__mul__.calls",
    "limits.guard_int.raised",
    "cli.import_katolab_ms",
)
# The traced half runs for a fixed time, so a faster program runs more ops
# there and its totals rise; each workload's op count is the call count of a
# function its ops call exactly once.
OPS_LAYER = {
    "batch-report": "invariants.build_report.calls",
    "orbit-series": "dynamics.certify_ball12_contraction.calls",
}


def parse_seeds(text: str) -> list[int]:
    """``1001-1010`` or ``1,5,9`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export(rev: str, dest: Path) -> str:
    """Unpack the files of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; returns its metric values by name."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {result['failed']} failed ops or a wrong answer")
    return {name: m["value"] for name, m in result["metrics"].items()}


def per_op(layers: dict, ops: float) -> dict:
    """The ``.calls`` and ``.self_ms`` totals of the traced half divided by its ops.

    ``.raised`` and ``.failed`` also count the fixed known-failure probe, so
    they are left as totals.
    """
    return {name: value / ops for name, value in layers.items() if name.endswith((".calls", ".self_ms"))}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"])
        )
        stats = {side: quartiles(values) for side, values in sides.items()}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "parent_spread_over_median": (stats["parent"]["q3"] - stats["parent"]["q1"])
            / stats["parent"]["median"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="for example 1001-1010")
    parser.add_argument("--workdir", type=Path, help="where the two exports go (default: a temporary directory)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        workdir = args.workdir or Path(tmp)
        checkouts = {side: workdir / side for side in SIDES}
        commits = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        report: dict = {
            "label": args.label,
            "commits": commits,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.system()} {platform.release()}",
            "seconds": seconds,
            "seeds": args.seeds,
            "order": "alternating; the parent goes first in pairs 0, 2, 4, ...",
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(checkouts[side], workload, seed, seconds, trace=0)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['ops_per_s']:.2f} ops/s" for side in SIDES
                ), file=sys.stderr)
            traced, traced_per_op = {}, {}
            for side in SIDES:
                layers = run_bench(checkouts[side], workload, args.seeds[0], seconds, trace=1)
                traced[side] = {name: layers[name] for name in LAYERS}
                traced_per_op[side] = per_op(traced[side], traced[side][OPS_LAYER[workload]])
            report["workloads"][workload] = {
                "summary": summarize(pairs, bench["end_to_end"]),
                "traced": traced,
                "traced_per_op": traced_per_op,
                "pairs": pairs,
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
