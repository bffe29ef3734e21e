"""Command-line front end.

Subcommands: ``factor``, ``compose``, ``invariants``, ``dynamics``,
``verify``.  Every subcommand reads its main input from exactly one source —
an inline argument, ``--file PATH``, or ``-`` for stdin — and writes
structured output to stdout (``--format text|json``), diagnostics to stderr.

Exit codes: 0 success; 1 a verification or certification check failed;
2 invalid input; 3 the input is not a Kato matrix (or not a product at all).
Identical argv + input + seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import formats
from ._limits import ENV_VAR, ResourceLimitError, cap_str_digits
from .dynamics import (
    DEFAULT_MAX_ITER,
    certify_ball12_contraction,
    eval_inverse,
    eval_map,
    fundamental_domain_membership,
    perron_data,
    stable_membership,
)
from .fields import (
    generator_rank,
    one_form_nullity,
    pushforward_invariance,
    standard_field_generators,
    tangent_field_nullity,
)
from .gaussrat import Point
from .invariants import InvariantReport, build_report, hol_vf_dimension, verify_J0_relation
from .words import KatoRecognitionError, Recognized, compose_factors, factorize, recognize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_KATO = 3


# -- input plumbing ----------------------------------------------------------------


def _read_source(args: argparse.Namespace) -> str:
    inline: Optional[str] = args.input
    if inline is not None and args.file is not None:
        raise ValueError("give the input inline or with --file, not both")
    if inline == "-":
        return sys.stdin.read()
    if inline is not None:
        return inline
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    raise ValueError("no input given (pass it inline, with --file, or as '-' for stdin)")


def _parse_point_arg(text: str) -> Point:
    """A point in text form, or an orbit dump (its last point is taken)."""
    text = text.strip()
    if text.startswith("{"):
        orbit = formats.parse_orbit(text)
        if not orbit:
            raise ValueError("orbit dump holds no points")
        return orbit[-1]
    return formats.parse_point(text)


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=True, separators=(",", ":")))
    else:
        print(text)


# -- factor / compose ------------------------------------------------------------


def _cmd_factor(args: argparse.Namespace) -> int:
    a = formats.parse_matrix(_read_source(args))
    seq = factorize(a)
    _emit(args, formats.format_seq_text(seq), formats.format_seq_json(seq))
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> int:
    seq = formats.parse_seq(_read_source(args))
    a = compose_factors(seq)
    _emit(args, formats.format_matrix_text(a), formats.format_matrix_json(a))
    return EXIT_OK


# -- invariants -----------------------------------------------------------------


def _report_text(report: InvariantReport) -> str:
    def basis(b) -> str:
        return ";".join(",".join(str(e) for e in row) for row in b.rows) or "(none)"

    lines = [
        f"n: {report.n}",
        f"k: {report.k}",
        f"l: {report.l}",
        f"rank_r: {report.rank_r}",
        f"betti: {','.join(str(b) for b in report.betti)}",
        f"twisted_betti: {','.join(str(b) for b in report.twisted_betti)}",
        f"euler: {report.euler}",
        f"m1: {report.m1}",
        f"kA_basis: {basis(report.kA_basis)}",
        f"theta_basis: {basis(report.theta_basis)}",
        f"theta_index: {report.theta_index}",
        f"alg_dim: {report.alg_dim}",
        f"h0_tangent: {report.h0_tangent}",
        f"h0_one_forms: {report.h0_one_forms}",
        f"kodaira: {report.kodaira}",
        f"pi1_M: {report.pi1_M}",
        f"pi1_M_minus_C: {report.pi1_M_minus_C.group}, action "
        f"{formats.format_matrix_text(report.pi1_M_minus_C.action_matrix)}",
        f"perron_alpha: {report.perron_alpha!r}",
        f"torus_rank: {report.torus_rank}",
        f"k_components: {report.k_components}",
    ]
    if report.covering_degree_to_base is not None:
        lines.append(f"covering_degree_to_base: {report.covering_degree_to_base}")
    lines.append(f"canonical_descriptor: {report.canonical_descriptor}")
    if report.anticanonical_h0 is not None:
        lines.append(f"anticanonical_h0: {report.anticanonical_h0}")
    if report.alg_reduction is not None:
        lines.append(f"alg_reduction: {report.alg_reduction}")
    lines.append(f"det: {report.det}")
    return "\n".join(lines)


def _cmd_invariants(args: argparse.Namespace) -> int:
    if args.batch is not None:
        if args.input is not None or args.file is not None:
            raise ValueError("--batch replaces the other input sources")
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                report = build_report(formats.parse_matrix(line))
                record = report.to_json()
            except (KatoRecognitionError, ResourceLimitError, ValueError, ArithmeticError) as exc:
                record = {
                    "input": line,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            print(json.dumps(record, ensure_ascii=True, separators=(",", ":")))
        return EXIT_OK
    report = build_report(formats.parse_matrix(_read_source(args)))
    _emit(args, _report_text(report), report.to_json())
    return EXIT_OK


# -- dynamics ------------------------------------------------------------------------


def _point_payload(z: Point) -> dict:
    return {"point": [formats.format_complex(c) for c in z]}


def _cmd_dynamics(args: argparse.Namespace) -> int:
    a = formats.parse_matrix(_read_source(args))
    action = args.action
    if action in ("map", "inverse", "orbit", "membership", "domain") and args.point is None:
        raise ValueError(f"--point is required for --action {action}")

    if action == "map":
        z = eval_map(a, _parse_point_arg(args.point))
        _emit(args, formats.format_point(z), _point_payload(z))
        return EXIT_OK

    if action == "inverse":
        z = eval_inverse(a, _parse_point_arg(args.point))
        _emit(args, formats.format_point(z), _point_payload(z))
        return EXIT_OK

    if action == "orbit":
        if args.steps < 0:
            raise ValueError("--steps must be >= 0")
        z = _parse_point_arg(args.point)
        points = [z]
        for _ in range(args.steps):
            points.append(eval_map(a, points[-1]))
        text = "\n".join(formats.format_point(p) for p in points)
        _emit(args, text, formats.format_orbit_json(points))
        return EXIT_OK

    if action == "membership":
        result = stable_membership(a, _parse_point_arg(args.point), max_iter=args.max_iter)
        if result.is_in:
            unit = "step" if result.iterations == 1 else "steps"
            text = f"in the stable set (enters the punctured ball after {result.iterations} {unit})"
        else:
            text = f"undetermined after {args.max_iter} iterations"
        _emit(args, text, result.to_json())
        return EXIT_OK

    if action == "domain":
        inside = fundamental_domain_membership(a, _parse_point_arg(args.point))
        _emit(args, "true" if inside else "false", {"in_domain": inside})
        return EXIT_OK

    if action == "perron":
        data = perron_data(a, tol=args.tol)
        lines = [
            f"alpha: {data.alpha!r}",
            f"power_used: {data.power_used}",
            f"residual: {data.residual!r}",
            f"power_residual: {data.power_residual!r}",
        ]
        if data.surd is not None:
            lines.append(f"exact: {data.surd}")
        _emit(args, "\n".join(lines), data.to_json())
        return EXIT_OK

    if action == "certify12":
        report = certify_ball12_contraction(a, samples=args.samples, seed=args.seed)
        if report.passed:
            text = (
                f"certified on {report.samples} closed-ball points: "
                f"max image norm_12^2 = {report.max_image_norm_sq}"
            )
        else:
            text = f"failed: counterexample {formats.format_point(report.counterexample)}"
        _emit(args, text, report.to_json())
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    raise ValueError(f"unknown action: {action}")


# -- verify ---------------------------------------------------------------------------


def _check_j0(rec: Recognized, degree: int) -> dict:
    if rec.l < 1:
        return {
            "check": "j0",
            "status": "skipped",
            "reason": "type-0 matrix has no off-diagonal line",
        }
    ok = verify_J0_relation(rec.form)
    return {"check": "j0", "status": "pass" if ok else "fail", "l": rec.l}


def _check_generators(rec: Recognized, degree: int) -> dict:
    gens = standard_field_generators(rec)
    invariant = sum(1 for g in gens if pushforward_invariance(rec.matrix, g))
    independent = generator_rank(gens)
    expected = hol_vf_dimension(rec)
    ok = invariant == len(gens) and independent == len(gens)
    if expected.kind == "exact":
        ok = ok and len(gens) == expected.value
    else:
        ok = ok and len(gens) >= (expected.value or 0)
    return {
        "check": "generators",
        "status": "pass" if ok else "fail",
        "generators": len(gens),
        "invariant": invariant,
        "independent": independent,
        "expected_dimension": expected.to_json(),
    }


def _check_tangent(rec: Recognized, degree: int) -> dict:
    if rec.l != 0 or not rec.matrix.is_positive():
        return {
            "check": "tangent-nullity",
            "status": "skipped",
            "reason": "needs a positive type-0 matrix; apply to a positive power",
        }
    nullity = tangent_field_nullity(rec.matrix, degree)
    return {
        "check": "tangent-nullity",
        "status": "pass" if nullity == rec.m1 else "fail",
        "degree": degree,
        "nullity": nullity,
        "expected": rec.m1,
    }


def _check_oneform(rec: Recognized, degree: int) -> dict:
    if not rec.form.b.is_positive():
        return {
            "check": "oneform-nullity",
            "status": "skipped",
            "reason": "needs an l-positive matrix; apply to a positive power",
        }
    nullity = one_form_nullity(rec, degree)
    return {
        "check": "oneform-nullity",
        "status": "pass" if nullity == 0 else "fail",
        "degree": degree,
        "nullity": nullity,
        "expected": 0,
    }


_CHECKS = {
    "j0": _check_j0,
    "generators": _check_generators,
    "tangent-nullity": _check_tangent,
    "oneform-nullity": _check_oneform,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.degree < 0:
        raise ValueError("--degree must be >= 0")
    rec = recognize(formats.parse_matrix(_read_source(args)))
    wanted = _CHECKS if args.check == "all" else (args.check,)
    records = [_CHECKS[name](rec, args.degree) for name in wanted]
    passed = all(r["status"] != "fail" for r in records)
    lines = []
    for r in records:
        detail = ", ".join(
            f"{k}={json.dumps(v, ensure_ascii=True)}"
            for k, v in r.items()
            if k not in ("check", "status")
        )
        lines.append(f"{r['check']}: {r['status']}" + (f" ({detail})" if detail else ""))
    lines.append(f"overall: {'pass' if passed else 'fail'}")
    _emit(args, "\n".join(lines), {"degree": args.degree, "checks": records, "passed": passed})
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- parser -------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katolab",
        description=(
            "Recognize products of blow-up elementary matrices and compute the "
            f"invariants and dynamics attached to them. The {ENV_VAR} environment "
            "variable overrides the integer-size guard."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "input",
        nargs="?",
        help="inline input, or '-' to read stdin (alternative to --file)",
    )
    source.add_argument("--file", help="read the input from this path")
    source.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )

    p = sub.add_parser("factor", parents=[source], help="factor a matrix into elementary factors")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("compose", parents=[source], help="multiply out a factor sequence")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invariants", parents=[source], help="full invariant report of a matrix")
    p.add_argument("--batch", help="newline-delimited matrices; emits one JSON record per line")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("dynamics", parents=[source], help="evaluate and classify the monomial germ")
    p.add_argument(
        "--action",
        choices=("map", "inverse", "orbit", "membership", "domain", "perron", "certify12"),
        default="map",
        help="what to compute (default map)",
    )
    p.add_argument("--point", help="point in text form, or an orbit dump to continue from")
    p.add_argument("--steps", type=int, default=8, help="orbit length (default 8)")
    p.add_argument(
        "--max-iter",
        type=int,
        default=DEFAULT_MAX_ITER,
        help=f"iteration cap for membership (default {DEFAULT_MAX_ITER})",
    )
    p.add_argument("--samples", type=int, default=256, help="sample count for certify12 (default 256)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-10, help="relative width of the exact enclosure (perron)")
    p.set_defaults(handler=_cmd_dynamics)

    p = sub.add_parser("verify", parents=[source], help="run the symbolic invariance checks")
    p.add_argument("--degree", type=int, default=6, help="truncation degree (default 6)")
    p.add_argument(
        "--check",
        choices=(*_CHECKS, "all"),
        default="all",
        help="which check to run (default all)",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        with cap_str_digits():  # every integer under the cap reads and prints
            return args.handler(args)
    except KatoRecognitionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_KATO
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
