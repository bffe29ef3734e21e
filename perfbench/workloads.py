"""The two benchmark workloads: their inputs, their ops and the check on every op.

``inputs(seed)`` is an endless seeded stream of items, so a run never
repeats an input.  ``op(kl, item)`` builds the op for one item, a callable
taking no arguments; ops look katolab functions up on
their module at call time, so the span recorder's wrappers see them.
``check`` returns ``None`` for a correct answer, the error type name when a
valid input raised (a failure, counted in ``failed``), and raises
:class:`WrongAnswer` naming the input for anything else.  ``probe_inputs``
are the fixed inputs of a workload's known failures, run only by the traced
run and never part of the timed stream.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import gen

# perron_alpha is a float certified to a 1e-10 residual; the exact enclosure
# is widened by this relative slack before the float is compared with it.
ALPHA_SLACK = Fraction(1, 10**9)


class WrongAnswer(Exception):
    """An op produced an output the reference rejects."""


def _wrong(item, message: str):
    raise WrongAnswer(f"{message}; input: {describe(item)}")


def describe(item) -> str:
    if "line" in item:
        return repr(item["line"])
    parts = [item["op"], gen.matrix_text(item["rows"])]
    if "z" in item:
        parts.append(gen.point_text(item["z"]))
    if "degree" in item:
        parts.append(f"degree {item['degree']}")
    return " ".join(parts)


def _pairs(point):
    return tuple((c.re, c.im) for c in point)


def check_report(item, rec: dict):
    """Check one invariants record against the word-derived expectations."""
    if "error" in rec:
        if item["valid"]:
            return rec["error"]["type"]
        if rec["error"]["type"] not in item["errors"]:
            _wrong(item, f"control raised {rec['error']['type']}, expected one of {item['errors']}")
        return None
    if not item["valid"]:
        _wrong(item, f"control produced a report, expected {item['errors']}")
    facts = item["facts"]
    for key, want in facts.items():
        if rec.get(key) != want:
            _wrong(item, f"{key} is {rec.get(key)!r}, the word gives {want!r}")
    if rec["m1"] != item["m1"]:
        _wrong(item, f"m1 is {rec['m1']}, expected {item['m1']}")
    basis = rec["kA_basis"]["rows"]
    if len(basis) != item["m1"] or any(gen.vecmat(r, item["rows"]) != tuple(r) for r in basis):
        _wrong(item, f"kA_basis {basis} is not {item['m1']} rows fixed by the matrix")
    if facts["l"] == facts["n"] - 2 and rec["theta_index"] != 1:
        _wrong(item, f"theta_index is {rec['theta_index']}, expected 1 when l = n-2")
    lo, hi = item["cw"]
    alpha = Fraction(rec["perron_alpha"])
    if not lo * (1 - ALPHA_SLACK) <= alpha <= hi * (1 + ALPHA_SLACK):
        _wrong(item, f"perron_alpha {rec['perron_alpha']} is outside [{float(lo)}, {float(hi)}]")
    return None


# -- batch-report -------------------------------------------------------------------------


class BatchReport:
    name = "batch-report"

    def inputs(self, seed: int):
        return gen.batch_corpus(seed)

    def probe_inputs(self) -> list[dict]:
        """The fixed panel of hard words, where Perron iteration may not converge (ROADMAP item 3)."""
        return gen.hard_panel()

    def warm_up(self, kl) -> None:
        self.op(kl, {"line": "1,0,2;0,0,1;0,1,2"})()

    @staticmethod
    def op(kl, item):
        line = item["line"]
        caught = (kl.KatoRecognitionError, kl.ResourceLimitError, ValueError, ArithmeticError)

        def op():  # the per-line body of `katolab invariants --batch`
            try:
                record = kl.invariants.build_report(kl.formats.parse_matrix(line)).to_json()
            except caught as exc:
                record = {"input": line, "error": {"type": type(exc).__name__, "message": str(exc)}}
            return json.dumps(record, ensure_ascii=True, separators=(",", ":"))

        return op

    def check(self, item, output):
        return check_report(item, json.loads(output))


# -- orbit-series ---------------------------------------------------------------------------


def generator_rank(kl, gens) -> int:
    """Rank of the generators' coefficient vectors, as ``katolab verify`` computes it."""
    variables = sorted({(t, e) for g in gens for t, comp in enumerate(g.components) for e in comp.terms})
    equations = [
        {(t, e): c for t, comp in enumerate(g.components) for e, c in comp.terms.items()} for g in gens
    ]
    return kl.linsys.system_rank(variables, equations)


class OrbitSeries:
    """One op is one round: the dynamics checks on one Kato matrix and the series checks on two more."""

    name = "orbit-series"
    PROBE_ROUNDS = 8

    def inputs(self, seed: int):
        return gen.orbit_series_rounds(seed)

    def probe_inputs(self) -> list[dict]:
        """Escapers followed for katolab's default number of steps (ROADMAP item 4)."""
        rounds = itertools.islice(gen.orbit_rounds(gen.PANEL_SEED), self.PROBE_ROUNDS)
        return [
            {"valid": True, "parts": [{**r["parts"][-1], "max_iter": gen.DEFAULT_MAX_ITER}]} for r in rounds
        ]

    def warm_up(self, kl) -> None:
        a = kl.IntMatrix([[1, 2], [2, 5]])
        kl.certify_ball12_contraction(a, samples=4)
        kl.stable_membership(a, kl.as_point([Fraction(1, 2), Fraction(1, 3)]))
        b = kl.IntMatrix([[1, 1], [1, 2]])
        kl.tangent_field_nullity(b, 2)
        kl.one_form_nullity(b, 2)

    def op(self, kl, item):
        parts = [self._part(kl, part) for part in item["parts"]]
        return lambda: [part() for part in parts]

    def check(self, item, output):
        for part, out in zip(item["parts"], output):
            self._check(part, out)
        return None

    @staticmethod
    def _part(kl, item):
        a = kl.IntMatrix(item["rows"])
        kind = item["op"]
        if kind == "certify":
            return lambda: kl.certify_ball12_contraction(a, samples=item["samples"], seed=item["seed"])
        if kind == "tangent":
            return lambda: kl.tangent_field_nullity(a, item["degree"])
        if kind == "oneform":
            return lambda: kl.one_form_nullity(a, item["degree"])
        if kind == "generators":

            def generators():
                gens = kl.standard_field_generators(a)
                invariant = sum(1 for g in gens if kl.pushforward_invariance(a, g))
                return len(gens), invariant, generator_rank(kl, gens) if gens else 0

            return generators
        z = tuple(kl.GaussianRational(re, im) for re, im in item["z"])
        if kind == "member":
            return lambda: kl.stable_membership(a, z)
        if kind == "escape":
            return lambda: kl.stable_membership(a, z, max_iter=item["max_iter"])
        if kind == "pullback":

            def pullback():
                pulled = z
                for _ in range(item["depth"]):
                    pulled = kl.eval_inverse(a, pulled)
                return pulled, kl.stable_membership(a, pulled)

            return pullback
        if kind == "domain":
            return lambda: kl.fundamental_domain_membership(a, z)
        if kind == "orbit":

            def orbit():
                cur = z
                for _ in range(item["steps"]):
                    cur = kl.eval_map(a, cur)
                return cur

            return orbit
        raise ValueError(f"unknown orbit-series op {kind!r}")

    @staticmethod
    def _check(item, output):
        kind = item["op"]
        if kind == "generators":
            count, invariant, rank = output
            if count != item["expect"] or invariant != count or rank != count:
                _wrong(item, f"{count} generators, {invariant} invariant, rank {rank}; expected {item['expect']}")
        elif kind in ("tangent", "oneform"):
            if output != item["expect"]:
                _wrong(item, f"{kind} nullity is {output}, expected {item['expect']}")
        elif kind == "certify":
            if not output.passed or output.samples != item["samples"]:
                _wrong(item, "the weighted-ball certificate failed on a Kato matrix")
        elif kind == "escape":
            if output.status != "undetermined":
                _wrong(item, f"membership is {output.to_json()} for a point whose trailing moduli stay >= 1")
        elif kind in ("member", "pullback"):
            if kind == "pullback":
                pulled, output = output
                if _pairs(pulled) != item["expect"]:
                    _wrong(item, f"eval_inverse pullback of depth {item['depth']} differs from the exact one")
            if output.status != "in" or output.iterations > item["within"]:
                _wrong(item, f"membership is {output.to_json()}, expected in within {item['within']} steps")
        elif kind == "domain":
            if output is not item["expect"]:
                _wrong(item, f"fundamental-domain membership is {output}, expected {item['expect']}")
        elif kind == "orbit":
            if _pairs(output) != item["expect"]:
                _wrong(item, f"orbit after {item['steps']} steps differs from the exact monomial image")


WORKLOADS = {w.name: w for w in (BatchReport(), OrbitSeries())}
