"""Command-line interface.

Every command writes one JSON report to stdout and diagnostics to stderr.
Exit codes: 0 when the command's verdict passes, 1 when a check fails (the
report carries the witness), 2 on unusable input, bad usage or a failing
external comparator. All randomness flows from ``--seed``, so a fixed
(command, options, seed) triple reproduces its report byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import sampling
from .claims import check_claim_v, verify_claims_i_to_iv
from .dataset import (
    dataset_from_json,
    fit_reward_model,
    model_fits_data,
    model_to_json,
    validate_dataset,
)
from .elicitation import elicit_utility, verify_representation
from .errors import OracleFailure, VNMError
from .jsonio import number_to_json, space_from_json, utility_from_json
from .lottery import (
    RATIONAL,
    FLOAT,
    OutcomeSpace,
    coerce_number,
    expected_utility,
    mix,
    new_lottery,
    new_utility,
)
from .oracles import SubprocessOracle
from .preference import (
    Comparison,
    UtilityOracle,
    check_classical_independence,
    check_continuity,
    check_independence,
    check_order_axioms,
    compare,
    probe_continuity,
)
from .uniqueness import recover_affine, verify_affine


class CliInputError(Exception):
    """Unusable input: maps to exit code 2."""


def _load(path: str, what: str, decode, **options):
    """Read a JSON file and decode it; any failure is unusable input naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return decode(payload, **options)
    except (ValueError, VNMError) as exc:
        raise CliInputError(f"bad {what} in {path}: {exc}") from exc


def _nonnegative(parse):
    """An argparse type: ``parse(text)``, rejected unless finite and at least 0."""

    def convert(text: str):
        value = parse(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid float value"
    return convert


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _error_report(command: str, exc: VNMError) -> dict:
    report = {
        "command": command,
        "passed": False,
        "error": {"type": type(exc).__name__, "detail": str(exc)},
    }
    witness = getattr(exc, "witness", None)
    if witness is not None:
        report["error"]["witness"] = [str(w) for w in witness]
    worst = getattr(exc, "worst", None)
    if worst is not None:
        report["error"]["worst"] = worst
    return report


def _make_oracle(args):
    """Build the oracle named by --oracle-utility or --oracle-cmd."""
    if args.oracle_utility and args.oracle_cmd:
        raise CliInputError("give either --oracle-utility or --oracle-cmd, not both")
    if args.oracle_utility:
        utility = _load(args.oracle_utility, "utility", utility_from_json, mode=args.mode)
        return UtilityOracle(utility), utility.space
    if args.oracle_cmd:
        if not args.space:
            raise CliInputError("--oracle-cmd needs --space with the outcome labels")
        space = _load(args.space, "space", space_from_json, mode=args.mode)
        return SubprocessOracle(space, args.oracle_cmd), space
    raise CliInputError(f"{args.command} needs --oracle-utility or --oracle-cmd")


def _run_options(args, keys) -> dict:
    return {k: getattr(args, k.replace("-", "_")) for k in keys}


def _checks_report(args, keys, reports) -> tuple[dict, bool]:
    passed = all(r.passed for r in reports)
    return {
        "command": args.command,
        "options": _run_options(args, keys),
        "passed": passed,
        "reports": [r.to_json() for r in reports],
    }, passed


def cmd_elicit(args, oracle, space):
    tol = coerce_number(args.tol, args.mode)
    result = elicit_utility(oracle, tol=tol, max_iter=args.max_iter)
    report = {"command": "elicit", "options": _run_options(args, ("tol", "max-iter", "mode"))}
    report.update(result.to_json())
    for label, value in zip(space.labels, result.utility.values):
        bar = "#" * int(round(float(value) * 40))
        print(f"{label:>16} {float(value):10.6f} |{bar}", file=sys.stderr)
    return report, True


def cmd_check_axioms(args, oracle, space):
    rng = random.Random(args.seed)
    reports = [
        check_order_axioms(oracle, sampling.random_triples(space, rng, args.sample)),
        check_independence(oracle, sampling.random_mix_tuples(space, rng, args.sample)),
        check_classical_independence(oracle, sampling.random_mix_tuples(space, rng, args.sample)),
        check_continuity(oracle, sampling.random_triples(space, rng, args.sample)),
    ]
    return _checks_report(args, ("sample", "seed", "mode"), reports)


def cmd_check_claims(args, oracle, space):
    rng = random.Random(args.seed)
    reports = verify_claims_i_to_iv(oracle, sampling.random_claim_tuples(space, rng, args.sample))
    triples = sampling.random_triples(space, rng, args.sample)
    tol = coerce_number(args.tol, args.mode)
    reports.append(check_claim_v(oracle, triples, tol=tol, max_iter=args.max_iter))
    return _checks_report(args, ("sample", "seed", "tol", "mode"), reports)


def cmd_verify_representation(args, oracle, space):
    utility = _load(args.utility, "utility", utility_from_json, space=space, mode=args.mode)
    rng = random.Random(args.seed)
    pairs = [
        (sampling.random_lottery(space, rng), sampling.random_lottery(space, rng))
        for _ in range(args.sample)
    ]
    report = verify_representation(oracle, utility, pairs, tol=coerce_number(args.tol, args.mode))
    return {
        "command": "verify-representation",
        "options": _run_options(args, ("sample", "seed", "tol", "mode")),
        "passed": report.passed,
        "report": report.to_json(),
    }, report.passed


def cmd_recover_affine(args):
    u = _load(args.u, "utility", utility_from_json, mode=args.mode)
    v = _load(args.v, "utility", utility_from_json, space=u.space, mode=args.mode)
    tol = None if args.tol is None else coerce_number(args.tol, args.mode)
    transform = recover_affine(u, v, tol=tol)
    check = verify_affine(u, v, transform, tol=tol)
    return {
        "command": "recover-affine",
        "alpha": number_to_json(transform.alpha),
        "beta": number_to_json(transform.beta),
        "max_residual": check.details["max_residual"],
        "passed": check.passed,
    }, check.passed


def cmd_validate_dataset(args):
    report = validate_dataset(_load(args.dataset, "dataset", dataset_from_json, mode=args.mode))
    return {"command": "validate-dataset", "report": report.to_json()}, report.consistent


def cmd_fit_model(args):
    dataset = _load(args.dataset, "dataset", dataset_from_json, mode=args.mode)
    margin = coerce_number(args.margin, args.mode)
    model = fit_reward_model(dataset, margin=margin, max_epochs=args.max_epochs)
    check = model_fits_data(model, dataset, margin=margin)
    report = {"command": "fit-model", "options": _run_options(args, ("margin", "mode"))}
    report.update(model_to_json(model))
    report["fits"] = check.passed
    return report, check.passed


def cmd_demo(args):
    """Replay the worked examples with exact arithmetic and check each one."""
    checks = []

    def record(name: str, passed: bool, expected, actual) -> None:
        checks.append(
            {"name": name, "passed": bool(passed), "expected": expected, "actual": actual}
        )

    space3 = OutcomeSpace(("x1", "x2", "x3"), RATIONAL)
    p = new_lottery(space3, ("0.7", "0.3", "0"))
    q = new_lottery(space3, ("0.2", "0.3", "0.5"))
    mixed = mix(p, q, Fraction(3, 5))
    record(
        "mix_weight_0.6",
        mixed.probs == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
        ["1/2", "3/10", "1/5"],
        [number_to_json(v) for v in mixed.probs],
    )

    u = new_utility(space3, (10, 5, 0))
    eu = expected_utility(mixed, u)
    record("expected_utility", eu == Fraction(13, 2), "13/2", number_to_json(eu))

    p2 = new_lottery(space3, ("0.7", "0.3", "0"))
    r2 = new_lottery(space3, ("0.1", "0.1", "0.8"))
    mix_p = mix(p2, r2, Fraction(3, 5))
    q2 = new_lottery(space3, ("0.5", "0.2", "0.3"))
    mix_q = mix(q2, r2, Fraction(3, 5))
    record(
        "independence_mixtures",
        mix_p.probs == (Fraction(23, 50), Fraction(11, 50), Fraction(8, 25))
        and mix_q.probs == (Fraction(17, 50), Fraction(4, 25), Fraction(1, 2)),
        [["23/50", "11/50", "8/25"], ["17/50", "4/25", "1/2"]],
        [
            [number_to_json(v) for v in mix_p.probs],
            [number_to_json(v) for v in mix_q.probs],
        ],
    )

    space2 = OutcomeSpace(("x1", "x2"), RATIONAL)
    top = new_lottery(space2, (1, 0))
    middle = new_lottery(space2, ("0.6", "0.4"))
    bottom = new_lottery(space2, (0, 1))
    oracle = UtilityOracle(new_utility(space2, (1, 0)))
    upper_ok = compare(oracle, mix(top, bottom, Fraction(7, 10)), middle) is Comparison.PREFER_FIRST
    lower_ok = compare(oracle, middle, mix(top, bottom, Fraction(1, 2))) is Comparison.PREFER_FIRST
    record(
        "continuity_witnesses",
        upper_ok and lower_ok,
        {"alpha": "7/10", "beta": "1/2", "both_strict": True},
        {"alpha": "7/10", "beta": "1/2", "both_strict": upper_ok and lower_ok},
    )
    alpha, beta = probe_continuity(oracle, top, middle, bottom)
    record(
        "continuity_probe",
        mix(top, bottom, alpha).probs[0] > Fraction(3, 5) > mix(top, bottom, beta).probs[0],
        "found weights strictly bracketing 3/5",
        {"alpha": number_to_json(alpha), "beta": number_to_json(beta)},
    )

    space_city = OutcomeSpace(("Paris", "Rome", "village"), RATIONAL)
    u_city = new_utility(space_city, (1, "0.7", 0))
    v_city = new_utility(space_city, (3, "2.1", 0))
    transform = recover_affine(u_city, v_city)
    record(
        "affine_recovery",
        transform.alpha == 3 and transform.beta == 0,
        {"alpha": "3", "beta": "0"},
        {"alpha": number_to_json(transform.alpha), "beta": number_to_json(transform.beta)},
    )

    passed = all(c["passed"] for c in checks)
    return {"command": "demo", "passed": passed, "checks": checks}, passed


def _add_oracle_flags(sub) -> None:
    sub.add_argument("--oracle-utility", help="JSON file with a utility-backed oracle")
    sub.add_argument("--oracle-cmd", help="external comparator command (line JSON protocol)")
    sub.add_argument("--space", help="JSON file with outcome labels (for --oracle-cmd)")


def _add_common(sub, tol=True, seed=False, sample=False) -> None:
    sub.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
    if tol:
        sub.add_argument("--tol", type=_nonnegative(float), default=1e-9)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if sample:
        sub.add_argument("--sample", type=_nonnegative(int), default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnm",
        description="Lottery algebra, preference axiom checks, and utility elicitation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("elicit", help="recover a normalized utility from an oracle")
    _add_oracle_flags(sub)
    _add_common(sub)
    sub.add_argument("--max-iter", type=_nonnegative(int), default=200)
    sub.set_defaults(func=cmd_elicit)

    sub = commands.add_parser("check-axioms", help="sampled order/independence/continuity checks")
    _add_oracle_flags(sub)
    _add_common(sub, seed=True, sample=True)
    sub.set_defaults(func=cmd_check_axioms)

    sub = commands.add_parser("check-claims", help="check the five mixture lemmas on samples")
    _add_oracle_flags(sub)
    _add_common(sub, seed=True, sample=True)
    sub.add_argument("--max-iter", type=_nonnegative(int), default=200)
    sub.set_defaults(func=cmd_check_claims)

    sub = commands.add_parser(
        "verify-representation", help="test a utility against an oracle on sampled pairs"
    )
    _add_oracle_flags(sub)
    sub.add_argument("--utility", required=True, help="JSON file with the candidate utility")
    _add_common(sub, seed=True, sample=True)
    sub.set_defaults(func=cmd_verify_representation)

    sub = commands.add_parser("recover-affine", help="solve v = alpha*u + beta with alpha > 0")
    sub.add_argument("--u", required=True, help="JSON file with the source utility")
    sub.add_argument("--v", required=True, help="JSON file with the target utility")
    sub.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
    sub.add_argument("--tol", type=_nonnegative(float), default=None)
    sub.set_defaults(func=cmd_recover_affine)

    sub = commands.add_parser("validate-dataset", help="find contradictions and cycles")
    sub.add_argument("dataset", help="JSON dataset file")
    sub.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
    sub.set_defaults(func=cmd_validate_dataset)

    sub = commands.add_parser("fit-model", help="fit a utility that reproduces the dataset")
    sub.add_argument("dataset", help="JSON dataset file")
    sub.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
    sub.add_argument("--margin", type=_nonnegative(float), default=1e-3)
    sub.add_argument("--max-epochs", type=_nonnegative(int), default=10000)
    sub.set_defaults(func=cmd_fit_model)

    sub = commands.add_parser("demo", help="replay the worked examples and check them")
    sub.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    """Run one command: print its report and return the exit code.

    Commands with oracle flags get the oracle built here and closed here
    whatever happens. Unusable input and a failing external comparator exit
    2 with a diagnostic on stderr; any other domain error becomes the
    command's report with exit 1. A comparator that has to be killed at
    close only adds a ``warning:`` line on stderr.
    """
    args = build_parser().parse_args(argv)
    oracle = None
    try:
        if hasattr(args, "oracle_cmd"):
            oracle, space = _make_oracle(args)
            report, passed = args.func(args, oracle, space)
        else:
            report, passed = args.func(args)
    except (CliInputError, OracleFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VNMError as exc:
        report, passed = _error_report(args.command, exc), False
    finally:
        if isinstance(oracle, SubprocessOracle):
            try:
                oracle.close()
            except OracleFailure as exc:
                print(f"warning: {exc}", file=sys.stderr)
    _emit(report)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
