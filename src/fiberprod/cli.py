"""Command-line front end: scenario ingestion, example corpus, and the
formula-vs-oracle verification harness.

Exit codes: 0 success, 1 validation error, 2 computational budget exceeded,
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import List, Optional, Sequence, Tuple

from . import fiber, oracle, series, structure
from .errors import (
    BudgetExceeded,
    FiberprodError,
    InternalInconsistency,
    ValidationError,
)
from .fiber import BettiSequence, PoincareInputs
from .oracle import DEFAULT_CHAR, MonomialIdeal, QuotientPresentation
from .series import DEFAULT_ORDER, Polynomial, RationalFunction, TruncatedSeries
from .structure import FiberData

SCHEMA_VERSION = "1"
KINDS = ("series", "betti", "depth", "classify", "resolve", "verify")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3


def _load_schema(kind: str) -> dict:
    text = resources.files("fiberprod.schemas").joinpath(f"{kind}.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=None)
def _validator(kind: str):
    """The schema validator of one kind, checked and built once per process.
    jsonschema is imported here because it dominates start-up time."""
    import jsonschema

    schema = _load_schema(kind)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_payload(kind: str, payload: dict) -> None:
    if kind not in KINDS:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    from jsonschema.exceptions import best_match

    # the same error jsonschema.validate would raise
    exc = best_match(_validator(kind).iter_errors(payload))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValidationError(f"scenario field {path}: {exc.message}")


def load_scenario(path: str, expected_kind: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"scenario file {path} must hold a JSON object")
    if "kind" in data:
        kind = data["kind"]
        payload = data.get("payload", {})
    else:
        kind, payload = expected_kind, data
    if kind != expected_kind:
        raise ValidationError(
            f"scenario kind {kind!r} does not match subcommand {expected_kind!r}"
        )
    validate_payload(kind, payload)
    return payload


def corpus_ids() -> List[str]:
    out = []
    for entry in resources.files("fiberprod.corpus").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def load_corpus_scenario(scenario_id: str) -> dict:
    text = resources.files("fiberprod.corpus").joinpath(f"{scenario_id}.json").read_text()
    return json.loads(text)


def _integers(payload: dict, field: str) -> tuple:
    """The integers of a field of decimal strings.  A string with more digits
    than the interpreter converts (`sys.get_int_max_str_digits`) is a
    validation error naming it; the schema has admitted only digits."""
    values = []
    for i, text in enumerate(payload[field]):
        try:
            values.append(int(text))
        except ValueError:
            raise ValidationError(
                f"scenario field {field}/{i}: more than {sys.get_int_max_str_digits()} digits"
            ) from None
    return tuple(values)


# --- verify harness ---------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    formula_series: TruncatedSeries
    oracle_series: TruncatedSeries
    relation: str
    first_divergence: Optional[int]
    exact_asserted: bool
    notes: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "formula_series": self.formula_series.to_json(),
            "oracle_series": self.oracle_series.to_json(),
            "relation": self.relation,
            "first_divergence": self.first_divergence,
            "exact_asserted": self.exact_asserted,
            "notes": list(self.notes),
        }


def run_verify(
    payload: dict,
    order: Optional[int] = None,
    char: Optional[int] = None,
    max_internal: Optional[int] = None,
) -> VerifyReport:
    variables = payload["vars"]
    p = char if char is not None else int(payload.get("char", DEFAULT_CHAR))
    order = order if order is not None else int(payload.get("order", DEFAULT_ORDER))
    if order < 1:
        raise ValidationError(f"verify needs order >= 1, got {order}")
    is_large = bool(payload.get("is_large", False))

    I = oracle.ideal_from_json(payload["I"], variables)
    J = oracle.ideal_from_json(payload["J"], variables)
    K = oracle.ideal_from_json(payload["module"], variables)
    # the R-module M = R/KR = P/(I + K)
    M = MonomialIdeal(I.num_vars, I.generators | K.generators)
    intersection, total = oracle.fiber_presentation(I, J)

    def truncation(ideal: MonomialIdeal, module_ideal: MonomialIdeal) -> TruncatedSeries:
        pres = QuotientPresentation(ideal.num_vars, p, ideal, module_ideal)
        return oracle.poincare_truncation(pres, order, max_internal)

    p_M_over_R = truncation(I, M)
    p_T_over_R = truncation(I, total)
    p_T_over_S = truncation(J, total)

    formula = fiber.fiber_series(PoincareInputs(p_M_over_R, p_T_over_R, p_T_over_S), order)
    # M is a module over the product P/(I cap J), since I cap J lies in I + K
    oracle_series = truncation(intersection, M)

    relation, first = series.relation(formula, oracle_series)
    notes = tuple(payload.get("notes", [])) + (
        "formula: closed rational form for the product ring",
        "oracle: graded minimal resolution over the same-ambient presentation",
        f"largeness asserted: {is_large}",
    )
    report = VerifyReport(formula, oracle_series, relation, first, is_large, notes)
    if is_large and relation != "equal":
        raise InternalInconsistency(
            f"large fiber product must match the oracle exactly, got {relation} "
            f"(first divergence at index {first})"
        )
    return report


# --- subcommand runners -----------------------------------------------------


def _emit(args, kind: str, result: dict, human: str) -> None:
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "result": result}
        human = json.dumps(doc, indent=2)
    try:
        print(human)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`) and wants no more; send the rest
        # to the null device so that the run still ends with its own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_series(args) -> int:
    payload = load_scenario(args.scenario, "series")
    order = args.order if args.order is not None else int(payload.get("order", DEFAULT_ORDER))
    f = RationalFunction(
        Polynomial(_integers(payload, "num")), Polynomial(_integers(payload, "den"))
    )
    coeffs = series.expand(f, order).to_json()
    _emit(args, "series", {"series": coeffs}, "coefficients: " + " ".join(coeffs))
    return EXIT_OK


def _cmd_betti(args) -> int:
    payload = load_scenario(args.scenario, "betti")
    bound = fiber.betti_bound(
        *(BettiSequence(_integers(payload, field))
          for field in ("beta_M_over_R", "beta_T_over_R", "beta_T_over_S")),
        int(payload["n"]),
    ).to_json()
    label = "exact" if payload.get("is_large") else "lower bound"
    _emit(args, "betti", {"bound": bound, "label": label},
          f"betti {label}: " + " ".join(bound))
    return EXIT_OK


def _cmd_depth(args) -> int:
    payload = load_scenario(args.scenario, "depth")
    data = FiberData.from_json(payload)
    result = structure.depth_rule(data)
    _emit(args, "depth", result.to_json(),
          f"depth: {result.kind.value} {result.value if result.value is not None else ''} "
          f"(rule {result.rule})")
    return EXIT_OK


def _cmd_classify(args) -> int:
    payload = load_scenario(args.scenario, "classify")
    report = structure.classify(FiberData.from_json(payload["data"]))
    lines = ["predicate              value      rule               direction"]
    for name, pred in report.rows():
        value = {True: "true", False: "false", None: "undetermined"}[pred.value]
        lines.append(f"{name:22s} {value:10s} {pred.rule:18s} {pred.direction}")
    _emit(args, "classify", report.to_json(), "\n".join(lines))
    return EXIT_OK


def _cmd_resolve(args) -> int:
    payload = load_scenario(args.scenario, "resolve")
    variables = payload["vars"]
    p = args.char if args.char is not None else int(payload.get("char", DEFAULT_CHAR))
    ideal = oracle.ideal_from_json(payload.get("ideal", []), variables)
    module = oracle.ideal_from_json(payload["module"], variables)
    pres = QuotientPresentation(len(variables), p, ideal, module)
    max_hom = args.order if args.order is not None else int(payload.get("max_hom", DEFAULT_ORDER))
    table = oracle.resolve(pres, max_hom, args.max_internal)
    _emit(args, "resolve", table.to_json(), table.to_text())
    if not table.is_complete_through():
        print("warning: table incomplete within the internal-degree budget",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    payload = load_scenario(args.scenario, "verify")
    report = run_verify(
        payload,
        order=args.order,
        char=args.char,
        max_internal=args.max_internal,
    )
    human = "\n".join(
        [
            "formula: " + " ".join(report.formula_series.to_json()),
            "oracle:  " + " ".join(report.oracle_series.to_json()),
            f"relation: {report.relation}"
            + (f" (first divergence at {report.first_divergence})"
               if report.first_divergence is not None else ""),
        ]
        + [f"note: {n}" for n in report.notes]
    )
    _emit(args, "verify", report.to_json(), human)
    return EXIT_OK


def _cmd_examples(args) -> int:
    rows = []
    for sid in corpus_ids():
        doc = load_corpus_scenario(sid)
        rows.append({"id": sid, "kind": doc.get("kind"),
                     "description": doc.get("description", "")})
    human = "\n".join(f"{r['id']:16s} {r['kind']:8s} {r['description']}" for r in rows)
    _emit(args, "examples", {"scenarios": rows}, human)
    return EXIT_OK


_RUNNERS = {
    "series": _cmd_series,
    "betti": _cmd_betti,
    "depth": _cmd_depth,
    "classify": _cmd_classify,
    "resolve": _cmd_resolve,
    "verify": _cmd_verify,
    "examples": _cmd_examples,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1, not argparse's 2."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiberprod",
        description="Exact Poincare-series formulas, depth rules and a "
        "resolution oracle for fiber product rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(KINDS) + ["examples"]:
        sp = sub.add_parser(name)
        if name != "examples":
            sp.add_argument("--scenario", required=True, help="scenario JSON file")
        if name in ("series", "resolve", "verify"):
            sp.add_argument("--order", type=int, default=None,
                            help=f"truncation order (default {DEFAULT_ORDER})")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        # depth and classify do not read --char; the benchmark's recorder
        # still passes it to them
        if name in ("resolve", "verify", "depth", "classify"):
            sp.add_argument("--char", type=int, default=None,
                            help=f"field characteristic (default {DEFAULT_CHAR})")
        if name in ("resolve", "verify"):
            sp.add_argument("--max-internal", type=int, default=None, dest="max_internal",
                            help="internal-degree budget for the oracle")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
