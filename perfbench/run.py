"""Run one katolab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-report --seed 1 --seconds 45 --trace 0

Run from the root of a katolab checkout; the program is imported from its
``src/`` directory.  Each workload is a closed loop with one client in this
process: the next op starts when the previous one returns, no threads; child
processes, one at a time, only time start-up.  Inputs come from an endless
seeded stream, so no input repeats within a run.  Every output is checked, as it comes, against
references the benchmark computes itself.  With ``--trace 0`` the end-to-end
metrics of BENCHMARK.json are printed; with ``--trace 1`` half the time runs
untraced and half with the span recorder installed, then the workload's
known-failure probe runs, and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 1 means a wrong answer, 2 a checkout
without katolab sources.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9  # set-ups per run, spread over the timed phase; setup_s is their median
CLI_PROBES = 5  # repetitions of each start-up probe in a traced run
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
CHILD_TIMEOUT_S = 120


class Context:
    """Paths of the checkout and the environment of child processes."""

    def __init__(self):
        self.root = ROOT
        self.src = ROOT / "src"
        self.probe = HERE / "probe.py"
        self.out = ROOT / ".perfbench_out"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}


def tail_latency(values, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond) at the highest percentile with >= ``beyond`` above it.

    With nearest-rank percentiles that is the ``beyond + 1``-th largest value,
    at percentile ``100 * (n - beyond) / n``.  With ``beyond`` samples or
    fewer there is no such percentile, and the maximum is returned at 100.
    """
    xs = sorted(values)
    if len(xs) <= beyond:
        return xs[-1], 100.0, 0
    idx = len(xs) - beyond - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def check_op(workload, item, out, err):
    """None if the op is right, else the failure type on a valid input.  Raises WrongAnswer."""
    if err is None:
        return workload.check(item, out)
    if not item["valid"]:
        raise workloads.WrongAnswer(f"control raised {type(err).__name__}: {err}; input: {workloads.describe(item)}")
    return type(err).__name__


class Phase:
    """One timed loop over a workload's input stream: op latencies, failures by type, and op time."""

    def __init__(self, workload, stream, make_op):
        self.workload, self.stream, self.make_op = workload, stream, make_op
        self.latencies: list[float] = []
        self.valid: list[bool] = []
        self.failures: Counter = Counter()
        self.timed = 0.0

    def run(self, seconds: float, rec=None) -> "Phase":
        """Run ops from the stream until the phase holds ``seconds`` of op time, checking each output.

        Drawing the next input, building its op and checking its output
        happen between ops, and their time is left out of the timed phase.
        A wrong answer raises WrongAnswer at once.
        """
        base = self.timed
        start = perf_counter()
        untimed = 0.0
        while self.timed < seconds:
            u0 = perf_counter()
            item = next(self.stream)
            op = self.make_op(item)
            if rec is not None:
                rec.op = len(self.latencies)
            u1 = perf_counter()
            t0 = perf_counter_ns()
            try:
                out, err = op(), None
            except Exception as exc:  # a failure on this op; checked and counted below
                out, err = None, exc
            self.latencies.append((perf_counter_ns() - t0) / 1e6)
            self.valid.append(item["valid"])
            c0 = perf_counter()
            failure = check_op(self.workload, item, out, err)
            if failure is not None:
                self.failures[failure] += 1
            untimed += (u1 - u0) + (perf_counter() - c0)
            self.timed = base + perf_counter() - start - untimed
        return self

    @property
    def rate(self) -> float:
        return len(self.latencies) / self.timed


def probe_failures(workload, kl) -> tuple[int, Counter, spans.Recorder]:
    """Run the workload's known-failure probe once, under its own span recorder.

    Returns the number of probe inputs, the failures by type and the
    recorder; the probe's inputs are fixed, so all three repeat exactly for
    the same program.
    """
    items = workload.probe_inputs()
    failures: Counter = Counter()
    rec = spans.Recorder()
    rec.install(kl)
    try:
        for item in items:
            op = workload.op(kl, item)
            try:
                out, err = op(), None
            except Exception as exc:  # the known failure itself; counted below
                out, err = None, exc
            failure = check_op(workload, item, out, err)
            if failure is not None:
                failures[failure] += 1
    finally:
        rec.uninstall()
    return len(items), failures, rec


def run_child(ctx: Context, cmd) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, capture_output=True, text=True, env=ctx.env, cwd=ctx.root, timeout=CHILD_TIMEOUT_S, check=True
    )


def setup_seconds(ctx: Context, name: str) -> float:
    """`import katolab` plus the workload's warm-up, timed in a fresh process."""
    return float(run_child(ctx, [sys.executable, str(ctx.probe), "setup", name]).stdout.split()[-1])


def cli_layers(ctx: Context) -> dict:
    """Interpreter start, katolab import and numpy's share of it, from fresh processes."""

    def wall_ms(cmd) -> float:
        start = perf_counter()
        run_child(ctx, cmd)
        return (perf_counter() - start) * 1e3

    interp = statistics.median(wall_ms([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = statistics.median(wall_ms([sys.executable, "-c", "import katolab"]) for _ in range(CLI_PROBES))
    numpy_ms = []
    for _ in range(CLI_PROBES):
        err = run_child(ctx, [sys.executable, "-X", "importtime", "-c", "import katolab"]).stderr
        cumulative = [int(line.split("|")[1]) for line in err.splitlines() if line.split("|")[-1].strip() == "numpy"]
        numpy_ms.append(cumulative[0] / 1e3 if cumulative else 0.0)
    return {
        "cli.interp_ms": interp,
        "cli.import_katolab_ms": imported - interp,
        "cli.import_numpy_ms": statistics.median(numpy_ms),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def import_katolab(ctx: Context):
    sys.path.insert(0, str(ctx.src))
    import katolab

    if Path(katolab.__file__).resolve().parent != (ctx.src / "katolab").resolve():
        raise ImportError(f"katolab was imported from {katolab.__file__}, not from {ctx.src}")
    return katolab


def traced_metrics(ctx: Context, workload, make_op, kl, phase: Phase, seconds: float, seed: int):
    """Run the second half with spans recorded, then the known-failure probe.

    Returns the per-layer metrics (with the tracing cost), the number of
    probe inputs and the probe's failures by type.
    """
    traced = Phase(workload, phase.stream, make_op)
    rec = spans.Recorder()
    rec.install(kl)
    try:
        traced.run(seconds, rec)
    finally:
        rec.uninstall()
    ctx.out.mkdir(exist_ok=True)
    rec.dump(ctx.out / f"spans-{workload.name}-{seed}.json")
    valid_ops = {i for i, valid in enumerate(traced.valid) if valid}
    metrics = spans.layer_metrics(rec, valid_ops)
    probed, known, probe = probe_failures(workload, kl)
    for name, value in spans.failure_metrics(probe).items():
        metrics[name] += value
    metrics.update(cli_layers(ctx))
    metrics["trace.overhead_share"] = phase.rate / traced.rate - 1
    phase.latencies += traced.latencies
    phase.failures += traced.failures
    return metrics, probed, known


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = Context()
    if not (ctx.src / "katolab" / "__init__.py").is_file():
        print(f"error: no katolab sources under {ctx.src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload]

    kl = import_katolab(ctx)
    workload.warm_up(kl)
    make_op = functools.partial(workload.op, kl)
    phase = Phase(workload, workload.inputs(args.seed), make_op)
    try:
        if args.trace:
            phase.run(args.seconds / 2)
            metrics, probed, known = traced_metrics(ctx, workload, make_op, kl, phase, args.seconds / 2, args.seed)
        else:  # a fresh-process set-up before each of SETUP_PROBES equal parts of the timed phase
            setups = []
            for i in range(1, SETUP_PROBES + 1):
                setups.append(setup_seconds(ctx, workload.name))
                phase.run(args.seconds * i / SETUP_PROBES)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(phase.latencies) or 1, "failed": 0, "metrics": {}}))
        return 1

    attempted = len(phase.latencies)
    failed = sum(phase.failures.values())
    lines = [
        f"workload {workload.name}, seed {args.seed}: {attempted} ops, closed loop, one client",
        f"failed_share = {failed / attempted!r} ratio"
        + "".join(f", {kind}: {count}" for kind, count in sorted(phase.failures.items())),
    ]
    if not args.trace:
        tail, pct, beyond = tail_latency(phase.latencies)
        metrics = {
            "ops_per_s": phase.rate,
            "op_p50_ms": statistics.median(phase.latencies),
            "op_tail_ms": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        lines.append(f"op_tail_ms is p{pct:.2f}: {beyond} of {attempted} samples beyond it")
        lines.append(f"setup_s is the median of {SETUP_PROBES} set-ups in fresh processes spread over the run")
    else:
        lines.append(
            f"known-failure probe ({probed} fixed inputs, not workload ops): "
            + (", ".join(f"{kind}: {count}" for kind, count in sorted(known.items())) or "no failures")
        )
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    lines += [f"{name} = {metrics[name]!r} {units[name]}" for name in sorted(metrics)]
    print("\n".join(lines))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
