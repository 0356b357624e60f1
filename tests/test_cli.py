"""End-to-end CLI runs in subprocesses: exit codes, reports, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vnm import (
    UtilityOracle,
    check_claim_v,
    check_classical_independence,
    check_continuity,
    check_independence,
    check_order_axioms,
    sampling,
    verify_claims_i_to_iv,
)
from vnm import oracles
from vnm.cli import main
from vnm.jsonio import utility_from_json

CITY_U = {"space": ["Paris", "Rome", "village"], "utility": {"Paris": "1", "Rome": "7/10", "village": "0"}}
CITY_V = {"space": ["Paris", "Rome", "village"], "utility": {"Paris": "3", "Rome": "21/10", "village": "0"}}
CITY_REVERSED = {"space": ["Paris", "Rome", "village"], "utility": {"Paris": "0", "Rome": "7/10", "village": "1"}}

DEG = {
    "x1": {"space": ["x1", "x2", "x3"], "probs": ["1", "0", "0"]},
    "x2": {"space": ["x1", "x2", "x3"], "probs": ["0", "1", "0"]},
    "x3": {"space": ["x1", "x2", "x3"], "probs": ["0", "0", "1"]},
}

EU_COMPARATOR = textwrap.dedent(
    """
    import json, sys
    from fractions import Fraction

    UTILITY = {"x1": Fraction(1), "x2": Fraction(7, 10), "x3": Fraction(0)}

    def eu(lot):
        return sum(Fraction(p) * UTILITY[x] for x, p in zip(lot["space"], lot["probs"]))

    for line in sys.stdin:
        query = json.loads(line)
        print(json.dumps({"pref": eu(query["p"]) >= eu(query["q"])}), flush=True)
    """
)

# complete but intransitive: argmax indices beat each other cyclically
CYCLIC_COMPARATOR = textwrap.dedent(
    """
    import json, sys
    from fractions import Fraction

    def top(lot):
        probs = [Fraction(p) for p in lot["probs"]]
        return max(range(len(probs)), key=lambda i: (probs[i], -i))

    for line in sys.stdin:
        query = json.loads(line)
        a, b = top(query["p"]), top(query["q"])
        print(json.dumps({"pref": a == b or (a - b) % 3 == 2}), flush=True)
    """
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "vnm", *args], capture_output=True, text=True
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def ab_dataset(*pairs):
    """A dataset over outcomes a and b from (winner probs, loser probs) pairs."""
    lot = lambda probs: {"space": ["a", "b"], "probs": list(probs)}
    return {"space": ["a", "b"], "pairs": [{"winner": lot(w), "loser": lot(l)} for w, l in pairs]}


@pytest.fixture
def city_files(tmp_path):
    return {
        "u": write_json(tmp_path / "u.json", CITY_U),
        "v": write_json(tmp_path / "v.json", CITY_V),
        "reversed": write_json(tmp_path / "reversed.json", CITY_REVERSED),
        "space": write_json(tmp_path / "space.json", ["x1", "x2", "x3"]),
    }


class TestDemo:
    def test_runs_clean_and_deterministic(self):
        first = run_cli("demo")
        second = run_cli("demo")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "mix_weight_0.6",
            "expected_utility",
            "continuity_witnesses",
            "affine_recovery",
        }


class TestElicit:
    def test_utility_oracle(self, city_files):
        result = run_cli("elicit", "--oracle-utility", city_files["v"])
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["best"] == "Paris"
        assert report["worst"] == "village"
        rome = Fraction(report["utility"]["Rome"])
        assert abs(rome - Fraction(7, 10)) <= Fraction(1, 10**9)
        assert result.stderr  # bar chart goes to stderr, report stays clean JSON

    def test_deterministic(self, city_files):
        runs = [run_cli("elicit", "--oracle-utility", city_files["v"]) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout

    def test_subprocess_oracle(self, tmp_path, city_files):
        script = tmp_path / "comparator.py"
        script.write_text(EU_COMPARATOR)
        result = run_cli(
            "elicit",
            "--oracle-cmd",
            f"{sys.executable} {script}",
            "--space",
            city_files["space"],
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["utility"]["x1"] == "1"
        assert report["utility"]["x3"] == "0"
        assert abs(Fraction(report["utility"]["x2"]) - Fraction(7, 10)) <= Fraction(1, 10**9)

    def test_oracle_flags_are_exclusive(self, tmp_path, city_files):
        script = tmp_path / "comparator.py"
        script.write_text(EU_COMPARATOR)
        both = run_cli(
            "elicit",
            "--oracle-utility",
            city_files["u"],
            "--oracle-cmd",
            f"{sys.executable} {script}",
            "--space",
            city_files["space"],
        )
        assert both.returncode == 2
        neither = run_cli("elicit")
        assert neither.returncode == 2


class TestCheckAxioms:
    def test_eu_oracle_passes(self, city_files):
        result = run_cli("check-axioms", "--oracle-utility", city_files["u"], "--sample", "40")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        by_name = {block["name"]: block for block in report["reports"]}
        assert by_name["order"]["passed"]
        assert by_name["independence"]["passed"]
        assert by_name["classical_independence"]["passed"]
        assert "not a proof" in by_name["continuity"]["note"]

    def test_deterministic(self, city_files):
        runs = [
            run_cli("check-axioms", "--oracle-utility", city_files["u"], "--sample", "25")
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout

    def test_intransitive_comparator_fails_with_witness(self, tmp_path, city_files):
        script = tmp_path / "cyclic.py"
        script.write_text(CYCLIC_COMPARATOR)
        result = run_cli(
            "check-axioms",
            "--oracle-cmd",
            f"{sys.executable} {script}",
            "--space",
            city_files["space"],
            "--sample",
            "60",
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        order = next(b for b in report["reports"] if b["name"] == "order")
        assert not order["passed"]
        assert order["witness"]["kind"] == "transitivity"


class TestCheckClaims:
    def test_eu_oracle_passes(self, city_files):
        result = run_cli(
            "check-claims", "--oracle-utility", city_files["u"], "--sample", "30"
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        names = {block["name"] for block in report["reports"]}
        assert names == {"I", "II", "III", "IV", "V"}
        assert all(block["passed"] for block in report["reports"])

    def test_deterministic(self, city_files):
        runs = [
            run_cli("check-claims", "--oracle-utility", city_files["u"], "--sample", "20")
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout

    def test_intransitive_comparator_keeps_every_claim(self, tmp_path, city_files):
        script = tmp_path / "cyclic.py"
        script.write_text(CYCLIC_COMPARATOR)
        result = run_cli(
            "check-claims",
            "--oracle-cmd",
            f"{sys.executable} {script}",
            "--space",
            city_files["space"],
            "--sample",
            "30",
        )
        assert result.returncode == 1
        by_name = {block["name"]: block for block in json.loads(result.stdout)["reports"]}
        assert list(by_name) == ["I", "II", "III", "IV", "V"]
        assert all(by_name[c]["checked"] > 0 for c in ("I", "II", "III", "IV"))
        claim_v = by_name["V"]
        assert not claim_v["passed"]
        assert claim_v["witness"]["kind"] == "claim_v_precondition"
        assert {"p", "q", "r", "detail"} <= set(claim_v["witness"])


class TestVerifyRepresentation:
    def test_matching_utility_passes(self, city_files):
        result = run_cli(
            "verify-representation",
            "--oracle-utility",
            city_files["u"],
            "--utility",
            city_files["u"],
            "--sample",
            "100",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["passed"] is True

    def test_reversed_utility_fails(self, city_files):
        result = run_cli(
            "verify-representation",
            "--oracle-utility",
            city_files["u"],
            "--utility",
            city_files["reversed"],
            "--sample",
            "100",
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["passed"] is False
        assert report["report"]["witness"] is not None


class TestRecoverAffine:
    def test_tol_is_exact_in_rational_mode(self, tmp_path):
        # the residual at b is 1/10 + 1/10**18, just above a tolerance of exactly 1/10
        u = {"space": ["a", "b", "c"], "utility": {"a": "0", "b": "1/2", "c": "1"}}
        v = {"space": ["a", "b", "c"], "utility": {"a": "0", "b": "6/10", "c": "1"}}
        v["utility"]["b"] = str(Fraction(6, 10) + Fraction(1, 10**18))
        paths = [write_json(tmp_path / f"{k}.json", x) for k, x in (("u", u), ("v", v))]
        result = run_cli("recover-affine", "--u", paths[0], "--v", paths[1], "--tol", "0.1")
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["type"] == "NotAffine"

    def test_city_pair(self, city_files):
        result = run_cli("recover-affine", "--u", city_files["u"], "--v", city_files["v"])
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["alpha"] == "3"
        assert report["beta"] == "0"
        assert report["max_residual"] == "0"

    def test_rank_mismatch_reports_witness(self, city_files):
        result = run_cli(
            "recover-affine", "--u", city_files["u"], "--v", city_files["reversed"]
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["error"]["type"] == "RankMismatch"
        assert report["error"]["witness"]


class TestDatasets:
    @pytest.fixture
    def chain_file(self, tmp_path):
        payload = {
            "space": ["x1", "x2", "x3"],
            "pairs": [
                {"winner": DEG["x1"], "loser": DEG["x2"]},
                {"winner": DEG["x2"], "loser": DEG["x3"]},
            ],
        }
        return write_json(tmp_path / "chain.json", payload)

    @pytest.fixture
    def cyclic_file(self, tmp_path):
        payload = {
            "space": ["x1", "x2", "x3"],
            "pairs": [
                {"winner": DEG["x1"], "loser": DEG["x2"]},
                {"winner": DEG["x2"], "loser": DEG["x3"]},
                {"winner": DEG["x3"], "loser": DEG["x1"]},
            ],
        }
        return write_json(tmp_path / "cyclic.json", payload)

    def test_validate_chain(self, chain_file):
        result = run_cli("validate-dataset", chain_file)
        assert result.returncode == 0
        assert json.loads(result.stdout)["report"]["consistent"] is True

    def test_validate_cycle(self, cyclic_file):
        result = run_cli("validate-dataset", cyclic_file)
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["report"]["consistent"] is False
        assert report["report"]["cycles"] == [[0, 1, 2]]

    def test_fit_chain(self, chain_file):
        result = run_cli("fit-model", chain_file)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["fits"] is True
        assert report["utility"] == {"x1": "1", "x2": "1/2", "x3": "0"}

    def test_fit_cycle_is_an_input_error(self, cyclic_file):
        result = run_cli("fit-model", cyclic_file)
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"]["type"] == "PreconditionViolated"

    def test_infeasible_fit_reports_worst_shortfalls(self, tmp_path):
        # a 50/50 mixture recorded above its own best outcome
        payload = ab_dataset((("1", "0"), ("0", "1")), (("1/2", "1/2"), ("1", "0")))
        path = write_json(tmp_path / "mid.json", payload)
        result = run_cli("fit-model", path, "--max-epochs", "60")
        assert result.returncode == 1
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "Infeasible"
        assert {w["index"] for w in error["worst"]} == {0, 1}

    def test_margin_is_exact_in_rational_mode(self, tmp_path):
        # the EU gap is exactly 1/10, so a margin of 0.1 is met only if read as 1/10
        payload = ab_dataset((("1/10", "9/10"), ("0", "1")))
        result = run_cli("fit-model", write_json(tmp_path / "gap.json", payload), "--margin", "0.1")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["fits"] is True
        assert report["options"]["margin"] == 0.1


class TestBadInput:
    def test_missing_file_names_path(self):
        result = run_cli("elicit", "--oracle-utility", "/nonexistent/u.json")
        assert result.returncode == 2
        assert "/nonexistent/u.json" in result.stderr

    def test_invalid_json_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("validate-dataset", str(bad))
        assert result.returncode == 2
        assert str(bad) in result.stderr

    def test_undecodable_file_named(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = run_cli("validate-dataset", str(bad))
        assert result.returncode == 2
        assert str(bad) in result.stderr

    def test_bad_probabilities_rejected(self, tmp_path):
        payload = {
            "space": ["x1", "x2", "x3"],
            "pairs": [
                {
                    "winner": {"space": ["x1", "x2", "x3"], "probs": ["1/2", "1/2", "1/2"]},
                    "loser": DEG["x2"],
                }
            ],
        }
        path = write_json(tmp_path / "sum.json", payload)
        result = run_cli("validate-dataset", path)
        assert result.returncode == 2
        assert str(path) in result.stderr

    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_nan_probability_rejected_in_float_mode(self, tmp_path):
        path = write_json(tmp_path / "nan.json", ab_dataset(((float("nan"), 1.0), (0, 1))))
        result = run_cli("validate-dataset", path, "--mode", "float")
        assert result.returncode == 2
        assert "not finite" in result.stderr


AB = ["a", "b"]
AB_LOSER = {"space": AB, "probs": ["0", "1"]}


def ab_pair_with_winner_probs(probs):
    return {"space": AB, "pairs": [{"winner": {"space": AB, "probs": probs}, "loser": AB_LOSER}]}


# (command, file contents) whose values have the wrong JSON type
MALFORMED_VALUES = {
    "pairs_not_an_array": ("validate-dataset", {"space": AB, "pairs": 5}),
    "probs_not_an_array": ("fit-model", ab_pair_with_winner_probs(5)),
    "probs_a_string": ("fit-model", ab_pair_with_winner_probs("10")),
    "probs_null_entry": ("validate-dataset", ab_pair_with_winner_probs([None, 1])),
    "probs_bools": ("fit-model", ab_pair_with_winner_probs([True, False])),
    "utility_null": ("elicit", {"space": AB, "utility": {"a": None, "b": 1}}),
    "utility_array": ("elicit", {"space": AB, "utility": {"a": [1], "b": 0}}),
}


def file_argv(command, path):
    return ["elicit", "--oracle-utility", path] if command == "elicit" else [command, path]


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_json_value_is_exit_two(case, tmp_path, capsys):
    command, payload = MALFORMED_VALUES[case]
    path = write_json(tmp_path / "input.json", payload)
    assert main(file_argv(command, path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad ") and path in err


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("value", ["1e30000000", "1e999999999", "-2.5E-30000000"])
def test_huge_exponent_is_exit_two(value, mode, tmp_path, capsys):
    # expanding such a string exactly would take unbounded time and memory
    path = write_json(tmp_path / "u.json", {"space": AB, "utility": {"a": value, "b": "0"}})
    assert main(["elicit", "--oracle-utility", path, "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad ") and "exponent" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("fit-model", "--margin", "nan"),
        ("fit-model", "--margin", "inf"),
        ("elicit", "--tol", "nan"),
        ("elicit", "--tol", "-1"),
        ("check-axioms", "--sample", "-3"),
        ("elicit", "--max-iter", "-1"),
        ("fit-model", "--max-epochs", "-5"),
        ("check-axioms", "--tol", "0.5"),  # check-axioms uses no tolerance
    ],
)
def test_out_of_range_flag_is_usage_error(flags, tmp_path, city_files, capsys):
    command, *rest = flags
    if command == "fit-model":
        argv = [command, write_json(tmp_path / "d.json", ab_dataset((("1", "0"), ("0", "1"))))]
    else:
        argv = [command, "--oracle-utility", city_files["u"]]
    with pytest.raises(SystemExit) as exc:
        main(argv + rest)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert rest[0] in err


def test_float_report_beyond_float_range_is_exit_two(tmp_path):
    # beta = 10**400 has no float; strict JSON has no Infinity to print instead
    u = write_json(tmp_path / "u.json", {"utility": {"a": "1e400", "b": "0"}})
    v = write_json(tmp_path / "v.json", {"utility": {"a": "2e400", "b": "1e400"}})
    result = run_cli("recover-affine", "--u", u, "--v", v, "--mode", "float")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "--mode rational" in result.stderr
    result = run_cli("recover-affine", "--u", u, "--v", v, "--mode", "rational")
    assert result.returncode == 0
    assert json.loads(result.stdout)["beta"] == str(10**400)


# JSON junk: wrong container types, null, bools, strings, NaN and huge numbers
JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from([10**400, -(10**400), 1e308, float("nan"), float("inf"), -0.0]),
        st.floats(),
        st.sampled_from(["", "1/2", "1/0", "0.5", "1e400", "nan", "a"]),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=5,
)


def or_junk(strategy):
    return st.one_of(strategy, JUNK)


NUMBER = or_junk(st.sampled_from(["0", "1", "1/2", 0, 1, 0.5, "3/10", "7/10"]))
SPACE = or_junk(st.just(AB))
PROBS = or_junk(st.lists(NUMBER, min_size=2, max_size=2))
LOTTERY = or_junk(st.fixed_dictionaries({"space": SPACE, "probs": PROBS}))
PAIR = or_junk(st.fixed_dictionaries({"winner": LOTTERY, "loser": LOTTERY}))
DATASET = or_junk(
    st.fixed_dictionaries({"space": SPACE, "pairs": or_junk(st.lists(PAIR, max_size=3))})
)
UTILITY = or_junk(
    st.fixed_dictionaries(
        {"space": SPACE, "utility": or_junk(st.fixed_dictionaries({"a": NUMBER, "b": NUMBER}))}
    )
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(["validate-dataset", "fit-model"]), DATASET),
        st.tuples(st.just("elicit"), UTILITY),
    ),
    mode=st.sampled_from(["rational", "float"]),
)
def test_cli_contract_on_fuzzed_json(case, mode):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = file_argv(command, path) + ["--mode", mode]
        if command == "fit-model":
            argv += ["--max-epochs", "50"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue())


# NaN, negative, overflowing, fractional, empty and 30-digit flag values
ODD_FLAG_VALUES = ["nan", "-1", "1e400", "1/3", "", str(10**29 + 7), str(-(10**29))]
# per command, each flag with values it accepts
FLAGS = {
    "validate-dataset": {"--mode": ["rational", "float"]},
    "fit-model": {"--mode": ["rational", "float"], "--margin": ["0", "0.05"], "--max-epochs": ["0", "50"]},
    "elicit": {"--mode": ["rational", "float"], "--tol": ["0.01", "0.5"], "--max-iter": ["0", "40"]},
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(sorted(FLAGS)), data=st.data())
def test_cli_contract_on_fuzzed_flags(command, data):
    flags = {}
    for flag, valid in FLAGS[command].items():
        value = data.draw(st.sampled_from([None] * 3 + valid * 3 + ODD_FLAG_VALUES))
        if value is not None:
            flags[flag] = value
    # a 30-digit margin needs about 1e29 perceptron updates: keep the default epoch cap
    if flags.get("--margin", "").isdigit() and flags.get("--max-epochs", "").isdigit():
        del flags["--max-epochs"]
    payload = CITY_U if command == "elicit" else ab_dataset((("1", "0"), ("1/2", "1/2")), (("1/2", "1/2"), ("0", "1")))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = file_argv(command, path) + [x for item in flags.items() for x in item]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())


BAD_COMMANDS = {
    "missing_executable": "/nonexistent/comparator",
    "unbalanced_quote": '"unclosed',
    "blank_command": " ",
}

BAD_COMPARATORS = {
    "closed_output": "pass\n",
    "broken_pipe": (
        "import os, sys, time\n"
        "sys.stdin.readline()\n"
        "os.close(0)\n"
        "print('{\"pref\": true}', flush=True)\n"
        "time.sleep(1)\n"
    ),
    "not_json": "import sys\nfor line in sys.stdin:\n    print('hello', flush=True)\n",
    "missing_pref": "import sys\nfor line in sys.stdin:\n    print('{}', flush=True)\n",
    "non_bool_pref": "import sys\nfor line in sys.stdin:\n    print('{\"pref\": 1}', flush=True)\n",
}


@pytest.mark.parametrize("case", sorted(BAD_COMMANDS) + sorted(BAD_COMPARATORS))
def test_comparator_failure_is_exit_two_without_traceback(case, tmp_path, city_files):
    if case in BAD_COMMANDS:
        command = BAD_COMMANDS[case]
    else:
        script = tmp_path / "comparator.py"
        script.write_text(BAD_COMPARATORS[case])
        command = f"{sys.executable} {script}"
    result = run_cli("elicit", "--oracle-cmd", command, "--space", city_files["space"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_comparator_outliving_close_is_killed_with_a_warning(
    tmp_path, city_files, capsys, monkeypatch
):
    # answers every query, then ignores the end of its input
    script = tmp_path / "stubborn.py"
    script.write_text(EU_COMPARATOR + "import time\ntime.sleep(30)\n")
    monkeypatch.setattr(oracles, "CLOSE_TIMEOUT_S", 0.2)
    children = []
    close = oracles.SubprocessOracle.close

    def watched_close(self):
        children.append(self._proc)
        close(self)

    monkeypatch.setattr(oracles.SubprocessOracle, "close", watched_close)
    argv = ["elicit", "--oracle-cmd", f"{sys.executable} {script}", "--space", city_files["space"]]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["best"] == "x1"
    assert "Traceback" not in err
    warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1 and "killed" in warnings[0]
    assert len(children) == 1 and children[0].poll() is not None
    assert children[0].stdin.closed and children[0].stdout.closed


@pytest.mark.parametrize("seed", [3, 11])
def test_cli_reports_equal_library_reports(seed, city_files, capsys):
    def cli_reports(command):
        argv = [command, "--oracle-utility", city_files["u"], "--sample", "15", "--seed", str(seed)]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["reports"]

    utility = utility_from_json(CITY_U)
    space = utility.space

    oracle, rng = UtilityOracle(utility), random.Random(seed)
    axioms = [
        check_order_axioms(oracle, sampling.random_triples(space, rng, 15)),
        check_independence(oracle, sampling.random_mix_tuples(space, rng, 15)),
        check_classical_independence(oracle, sampling.random_mix_tuples(space, rng, 15)),
        check_continuity(oracle, sampling.random_triples(space, rng, 15)),
    ]
    assert cli_reports("check-axioms") == [r.to_json() for r in axioms]

    oracle, rng = UtilityOracle(utility), random.Random(seed)
    claims = verify_claims_i_to_iv(oracle, sampling.random_claim_tuples(space, rng, 15))
    claims.append(check_claim_v(oracle, sampling.random_triples(space, rng, 15)))
    assert cli_reports("check-claims") == [r.to_json() for r in claims]
