"""Acceptance gate: eight criteria, one verdict line apiece.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they print; without ``-s`` they still appear for any failing criterion.
Each criterion asserts after printing, so the suite stays an honest gate.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from vnm import (
    Comparison,
    OutcomeSpace,
    PrefDataset,
    RankDependentOracle,
    UtilityOracle,
    analytic_indifference_alpha,
    check_classical_independence,
    check_independence,
    check_order_axioms,
    compare,
    degenerate,
    elicit_utility,
    expected_utility,
    fit_reward_model,
    mix,
    model_fits_data,
    new_lottery,
    new_utility,
    probe_continuity,
    recover_affine,
    sampling,
    validate_dataset,
    verify_claim_v,
    verify_claims_i_to_iv,
    verify_representation,
)
from vnm.jsonio import lottery_from_json

SPACE3 = OutcomeSpace(("x1", "x2", "x3"))
CITY = OutcomeSpace(("Paris", "Rome", "village"))


def verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{tail}")


def swap_first_two(lot):
    return new_lottery(lot.space, (lot.probs[1], lot.probs[0]) + lot.probs[2:])


def test_criterion_1_exact_lottery_algebra():
    p = new_lottery(SPACE3, (0.7, 0.3, 0.0))
    q = new_lottery(SPACE3, (0.2, 0.3, 0.5))
    r = new_lottery(SPACE3, (0.1, 0.1, 0.8))
    alpha = Fraction(3, 5)

    failures = []
    if mix(p, q, alpha).probs != (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)):
        failures.append("mix(p, q, 0.6)")
    if mix(p, r, alpha).probs != (Fraction(23, 50), Fraction(11, 50), Fraction(8, 25)):
        failures.append("mix(p, r, 0.6)")
    q2 = new_lottery(SPACE3, (0.5, 0.2, 0.3))
    if mix(q2, r, alpha).probs != (Fraction(17, 50), Fraction(4, 25), Fraction(1, 2)):
        failures.append("mix(q2, r, 0.6)")

    u = new_utility(SPACE3, (10, 5, 0))
    if expected_utility(mix(p, q, alpha), u) != Fraction(13, 2):
        failures.append("expected utility of the 0.6 mix")

    # linearity, exactly: EU(mix) == a*EU(p) + (1-a)*EU(q)
    rng = random.Random(1)
    for _ in range(200):
        a = sampling.random_alpha(rng)
        s = sampling.random_lottery(SPACE3, rng)
        t = sampling.random_lottery(SPACE3, rng)
        w = sampling.random_utility(SPACE3, rng)
        lhs = expected_utility(mix(s, t, a), w)
        rhs = a * expected_utility(s, w) + (1 - a) * expected_utility(t, w)
        if lhs != rhs:
            failures.append(f"EU linearity at alpha={a}")
            break

    verdict(1, "exact lottery algebra", not failures, "zero tolerance")
    assert not failures, failures


def test_criterion_2_axiom_checkers_pass_at_scale():
    rng = random.Random(2026)
    started = time.perf_counter()
    failures = []
    for index in range(100):
        size = 2 + index % 3
        space = OutcomeSpace(tuple(f"x{i}" for i in range(size)))
        oracle = UtilityOracle(sampling.random_utility(space, rng))
        order = check_order_axioms(oracle, sampling.random_triples(space, rng, 1000))
        indep = check_independence(oracle, sampling.random_mix_tuples(space, rng, 1000))
        classical = check_classical_independence(
            oracle, sampling.random_mix_tuples(space, rng, 1000)
        )
        for report in (order, indep, classical):
            if not report.passed:
                failures.append((index, report.axiom, report.witness))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60
    verdict(
        2,
        "axiom checks pass for 100 expected-utility oracles",
        ok,
        f"3000 instances each, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_3_rank_dependent_oracle_caught():
    oracle = RankDependentOracle(new_utility(SPACE3, (1, Fraction(1, 2), 0)))
    rng = random.Random(0)

    order = check_order_axioms(oracle, sampling.random_triples(SPACE3, rng, 300))
    report = check_independence(oracle, sampling.random_mix_tuples(SPACE3, rng, 10000))

    replayed = False
    if not report.passed:
        w = report.witness
        p = lottery_from_json(w["p"], space=SPACE3)
        q = lottery_from_json(w["q"], space=SPACE3)
        r = lottery_from_json(w["r"], space=SPACE3)
        alpha = Fraction(w["alpha"])
        base = compare(oracle, p, q)
        mixed = compare(oracle, mix(p, r, alpha), mix(q, r, alpha))
        replayed = (
            base.value == w["base_comparison"]
            and mixed.value == w["mixed_comparison"]
            and base is not mixed
        )

    ok = order.passed and not report.passed and replayed
    verdict(
        3,
        "rank-dependent oracle violates independence with a replayable witness",
        ok,
        f"caught at instance {report.checked} of 10000",
    )
    assert order.passed, "rank-dependent value should still be a total preorder"
    assert not report.passed, "independence violation not found within 10000 instances"
    assert replayed, "witness did not replay to the same verdict"


def test_criterion_4_mixture_claims_and_unique_weight():
    failures = []

    # claims I-IV: strict instances exercise I and II, engineered
    # indifference (swap two equal-utility outcomes) exercises III and IV
    strict_oracle = UtilityOracle(new_utility(CITY, (1, "0.7", 0)))
    rng = random.Random(44)
    strict_tuples = sampling.random_claim_tuples(CITY, rng, 4500)
    strict_reports = {r.claim: r for r in verify_claims_i_to_iv(strict_oracle, strict_tuples)}

    tie_oracle = UtilityOracle(new_utility(SPACE3, (1, 1, 0)))
    tie_tuples = []
    while len(tie_tuples) < 1200:
        p = sampling.random_lottery(SPACE3, rng)
        if p.probs[0] == p.probs[1]:
            continue
        r = sampling.random_lottery(SPACE3, rng)
        alpha = sampling.random_alpha(rng, include_one=False)
        tie_tuples.append((p, swap_first_two(p), r, alpha))
    tie_reports = {r.claim: r for r in verify_claims_i_to_iv(tie_oracle, tie_tuples)}

    trials = {
        "I": strict_reports["I"].trials + tie_reports["I"].trials,
        "II": strict_reports["II"].trials + tie_reports["II"].trials,
        "III": strict_reports["III"].trials + tie_reports["III"].trials,
        "IV": strict_reports["IV"].trials + tie_reports["IV"].trials,
    }
    total = sum(trials.values())
    for name, report in list(strict_reports.items()) + list(tie_reports.items()):
        if not report.passed:
            failures.append((name, report.witness))
    if total < 10000:
        failures.append(f"only {total} precondition-satisfying trials")
    if min(trials.values()) < 1000:
        failures.append(f"thin coverage: {trials}")

    # claim V: bisected weight within 1e-9 of the closed form on 1000 triples
    u = new_utility(CITY, (1, "0.7", 0))
    oracle = UtilityOracle(u)
    worst_gap = Fraction(0)
    done = 0
    while done < 1000:
        p = sampling.random_lottery(CITY, rng)
        q = sampling.random_lottery(CITY, rng)
        r = sampling.random_lottery(CITY, rng)
        eus = [expected_utility(lot, u) for lot in (p, q, r)]
        ranked = sorted(zip(eus, (p, q, r)), key=lambda t: t[0], reverse=True)
        if ranked[0][0] == ranked[1][0] or ranked[1][0] == ranked[2][0]:
            continue
        top, middle, bottom = (lot for _, lot in ranked)
        report = verify_claim_v(oracle, top, middle, bottom, tol=1e-9)
        if not report.passed:
            failures.append(("V", report.witness))
            break
        gap = abs(
            Fraction(report.details["alpha_hat"])
            - analytic_indifference_alpha(u, top, middle, bottom)
        )
        worst_gap = max(worst_gap, gap)
        done += 1
    if worst_gap > Fraction(1, 10**9):
        failures.append(f"claim V gap {float(worst_gap):.2e}")

    ok = not failures
    verdict(
        4,
        "mixture claims I-IV and unique indifference weight",
        ok,
        f"{total} trials, worst claim V gap {float(worst_gap):.1e}",
    )
    assert not failures, failures[:3]


def test_criterion_5_elicitation_accuracy_and_query_budget():
    rng = random.Random(55)
    tol = 1e-9
    worst_error = Fraction(0)
    failures = []
    runs = 0
    for index in range(100):
        size = 2 + index % 7
        space = OutcomeSpace(tuple(f"x{i}" for i in range(size)))
        u = sampling.random_utility(space, rng, nonconstant=True)
        oracle = UtilityOracle(u)
        result = elicit_utility(oracle, tol=tol)
        runs += 1

        lo, hi = min(u.values), max(u.values)
        for label, value in zip(space.labels, u.values):
            target = (value - lo) / (hi - lo)
            error = abs(result.utility.value(label) - target)
            worst_error = max(worst_error, error)
            if error > Fraction(1, 10**8):
                failures.append((index, label, float(error)))

        if result.queries > 34 * size:
            failures.append((index, "queries", result.queries, 34 * size))

        pairs = [
            (sampling.random_lottery(space, rng), sampling.random_lottery(space, rng))
            for _ in range(1000)
        ]
        check = verify_representation(oracle, result.utility, pairs, tol=tol)
        if not check.passed:
            failures.append((index, "representation", check.witness))

    ok = not failures and runs == 100
    verdict(
        5,
        "elicitation accurate within 1e-8 and within the query budget",
        ok,
        f"worst error {float(worst_error):.1e}, bound 34n",
    )
    assert not failures, failures[:3]


def test_criterion_6_affine_recovery_exact():
    failures = []

    t = recover_affine(new_utility(CITY, (1, "0.7", 0)), new_utility(CITY, (3, "2.1", 0)))
    if (t.alpha, t.beta) != (3, 0):
        failures.append(f"city pair gave ({t.alpha}, {t.beta})")

    rng = random.Random(66)
    for index in range(100):
        size = 2 + index % 7
        space = OutcomeSpace(tuple(f"x{i}" for i in range(size)))
        u = sampling.random_utility(space, rng, nonconstant=True)
        alpha = Fraction(rng.randint(1, 5000), rng.randint(1, 1000))
        beta = Fraction(rng.randint(-5000, 5000), rng.randint(1, 1000))
        v = new_utility(space, tuple(alpha * x + beta for x in u.values))
        got = recover_affine(u, v)
        if (got.alpha, got.beta) != (alpha, beta):
            failures.append((index, str(alpha), str(beta)))

    const = recover_affine(new_utility(SPACE3, (2, 2, 2)), new_utility(SPACE3, (7, 7, 7)))
    if (const.alpha, const.beta) != (1, 5):
        failures.append("constant case")

    verdict(6, "affine transform recovered exactly", not failures, "100 round trips")
    assert not failures, failures[:3]


def test_criterion_7_dataset_validation_and_fitting():
    failures = []
    d1, d2, d3 = (degenerate(SPACE3, x) for x in SPACE3.labels)

    two_cycle = validate_dataset(PrefDataset(SPACE3, ((d1, d2), (d2, d1))))
    if two_cycle.consistent or not two_cycle.direct_contradictions or not two_cycle.cycles:
        failures.append("2-cycle not flagged by both detectors")

    three_cycle = validate_dataset(PrefDataset(SPACE3, ((d1, d2), (d2, d3), (d3, d1))))
    if three_cycle.consistent or three_cycle.cycles != [[0, 1, 2]]:
        failures.append("3-cycle not reported as [0, 1, 2]")
    if three_cycle.direct_contradictions:
        failures.append("3-cycle wrongly counted as a direct contradiction")

    half = new_lottery(SPACE3, (Fraction(1, 2), 0, Fraction(1, 2)))
    data = PrefDataset(SPACE3, ((d1, d2), (d2, d3), (d1, half), (half, d3), (half, d2)))
    if not validate_dataset(data).consistent:
        failures.append("strict-order fixture should validate")
    margin = Fraction(1, 1000)
    model = fit_reward_model(data, margin=margin)
    if not model_fits_data(model, data, margin=margin).passed:
        failures.append("fitted model misses the fitting margin")

    oracle = model.oracle()
    rng = random.Random(77)
    order = check_order_axioms(oracle, sampling.random_triples(SPACE3, rng, 300))
    indep = check_independence(oracle, sampling.random_mix_tuples(SPACE3, rng, 300))
    classical = check_classical_independence(
        oracle, sampling.random_mix_tuples(SPACE3, rng, 300)
    )
    for report in (order, indep, classical):
        if not report.passed:
            failures.append(f"fitted oracle fails {report.axiom}")
    if compare(oracle, d1, d3) is Comparison.PREFER_FIRST:
        alpha, beta = probe_continuity(oracle, d1, mix(d1, d3, Fraction(1, 3)), d3)
        if not (0 < beta < alpha < 1):
            failures.append("continuity witnesses out of order")
    else:
        failures.append("fitted oracle lost the strict ranking")

    verdict(7, "dataset validation and reward-model fitting", not failures)
    assert not failures, failures


CLI_CASES = [
    ("demo", (), 0),
    ("elicit", ("--oracle-utility", "{u}",), 0),
    ("check-axioms", ("--oracle-utility", "{u}", "--sample", "25"), 0),
    ("check-claims", ("--oracle-utility", "{u}", "--sample", "20"), 0),
    (
        "verify-representation",
        ("--oracle-utility", "{u}", "--utility", "{u}", "--sample", "60"), 0,
    ),
    ("recover-affine", ("--u", "{u}", "--v", "{v}"), 0),
    ("validate-dataset", ("{cyclic}",), 1),
    ("fit-model", ("{chain}",), 0),
]


def test_criterion_8_cli_determinism(tmp_path):
    deg = {
        label: {"space": ["x1", "x2", "x3"], "probs": [str(int(label == l)) for l in ("x1", "x2", "x3")]}
        for label in ("x1", "x2", "x3")
    }
    files = {
        "u": tmp_path / "u.json",
        "v": tmp_path / "v.json",
        "cyclic": tmp_path / "cyclic.json",
        "chain": tmp_path / "chain.json",
    }
    files["u"].write_text(
        json.dumps(
            {"space": ["x1", "x2", "x3"], "utility": {"x1": "1", "x2": "7/10", "x3": "0"}}
        )
    )
    files["v"].write_text(
        json.dumps(
            {"space": ["x1", "x2", "x3"], "utility": {"x1": "3", "x2": "21/10", "x3": "0"}}
        )
    )
    files["cyclic"].write_text(
        json.dumps(
            {
                "space": ["x1", "x2", "x3"],
                "pairs": [
                    {"winner": deg["x1"], "loser": deg["x2"]},
                    {"winner": deg["x2"], "loser": deg["x3"]},
                    {"winner": deg["x3"], "loser": deg["x1"]},
                ],
            }
        )
    )
    files["chain"].write_text(
        json.dumps(
            {
                "space": ["x1", "x2", "x3"],
                "pairs": [
                    {"winner": deg["x1"], "loser": deg["x2"]},
                    {"winner": deg["x2"], "loser": deg["x3"]},
                ],
            }
        )
    )

    failures = []
    for command, template, expected_code in CLI_CASES:
        args = [command] + [part.format(**{k: str(v) for k, v in files.items()}) for part in template]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "vnm", *args], capture_output=True, text=True
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout:
            failures.append((command, "stdout differs between runs"))
        if any(r.returncode != expected_code for r in runs):
            failures.append((command, "exit", [r.returncode for r in runs], expected_code))
        if command != "demo" and not runs[0].stdout.strip():
            failures.append((command, "no report"))
        else:
            json.loads(runs[0].stdout)  # every report is valid JSON

    verdict(8, "CLI reports byte-identical across runs", not failures, "8 commands")
    assert not failures, failures
