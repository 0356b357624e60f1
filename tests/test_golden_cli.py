"""Golden CLI output: exit code and stdout, byte for byte, per invocation.

``tests/golden/cli_stdout.json`` holds what each invocation below printed.
A change that alters any report, its key order or an exit code fails here.
To list the cases whose exit code or stdout differs from the file, without
rewriting it, and to capture the file again, from the ``vnm`` on
``sys.path``::

    PYTHONPATH=src python tests/test_golden_cli.py --diff
    PYTHONPATH=src python tests/test_golden_cli.py

Only stdout is compared: stderr carries bar charts and diagnostics that
name temporary paths.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from vnm.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_stdout.json"

CITY = ["Paris", "Rome", "village"]
X3 = ["x1", "x2", "x3"]


def _utility(space, values):
    return {"space": space, "utility": dict(zip(space, values))}


def _deg(i):
    return {"space": X3, "probs": ["1" if j == i else "0" for j in range(3)]}


def _dataset(space, pairs):
    return {
        "space": space,
        "pairs": [
            {"winner": {"space": space, "probs": w}, "loser": {"space": space, "probs": l}}
            for w, l in pairs
        ],
    }


_COMPARATOR = textwrap.dedent(
    """
    import json, math, sys
    from fractions import Fraction

    UTILITY = {"x1": Fraction(1), "x2": Fraction(7, 10), "x3": Fraction(0)}

    def eu(lot):
        return sum(Fraction(p) * UTILITY[x] for x, p in zip(lot["space"], lot["probs"]))

    def top(lot):
        probs = [Fraction(p) for p in lot["probs"]]
        return max(range(len(probs)), key=lambda i: (probs[i], -i))

    def pref(p, q):
        if RULE == "eu":
            return eu(p) >= eu(q)
        if RULE in ("floor", "ceil"):  # quarter-wide indifference bands
            band = getattr(math, RULE)
            return band(4 * eu(p)) >= band(4 * eu(q))
        a, b = top(p), top(q)  # complete but intransitive
        return a == b or (a - b) % 3 == 2

    for line in sys.stdin:
        query = json.loads(line)
        print(json.dumps({"pref": pref(query["p"], query["q"])}), flush=True)
    """
)

FILES = {
    "u.json": _utility(CITY, ["1", "7/10", "0"]),
    "v.json": _utility(CITY, ["3", "21/10", "0"]),
    "reversed.json": _utility(CITY, ["0", "7/10", "1"]),
    "bent.json": _utility(CITY, ["3", "1", "0"]),
    "space.json": X3,
    "chain.json": {
        "space": X3,
        "pairs": [
            {"winner": _deg(0), "loser": _deg(1)},
            {"winner": _deg(1), "loser": _deg(2)},
            {
                "winner": {"space": X3, "probs": ["1/2", "1/4", "1/4"]},
                "loser": {"space": X3, "probs": ["1/4", "1/4", "1/2"]},
            },
        ],
    },
    "cycle.json": {
        "space": X3,
        "pairs": [
            {"winner": _deg(0), "loser": _deg(1)},
            {"winner": _deg(1), "loser": _deg(2)},
            {"winner": _deg(2), "loser": _deg(0)},
        ],
    },
    # a 50/50 mixture recorded above its own best outcome
    "infeasible.json": _dataset(
        ["a", "b"], [(["1", "0"], ["0", "1"]), (["1/2", "1/2"], ["1", "0"])]
    ),
}

COMPARATORS = ("eu", "floor", "ceil", "cyclic")

SAMPLE = ("--sample", "12", "--seed", "3")
MODES = ("rational", "float")


def _cases():
    """Case name -> argv, with ``{file}`` and ``{cmd:rule}`` placeholders."""
    cases = {"demo": ["demo"]}
    for mode in MODES:
        m = ("--mode", mode)
        cases[f"elicit-{mode}"] = ["elicit", "--oracle-utility", "{v.json}", *m]
        cases[f"elicit-no-convergence-{mode}"] = [
            "elicit", "--oracle-utility", "{v.json}", "--max-iter", "3", *m
        ]
        cases[f"check-axioms-{mode}"] = ["check-axioms", "--oracle-utility", "{u.json}", *SAMPLE, *m]
        cases[f"check-claims-{mode}"] = ["check-claims", "--oracle-utility", "{u.json}", *SAMPLE, *m]
        cases[f"check-claims-no-convergence-{mode}"] = [
            "check-claims", "--oracle-utility", "{u.json}", *SAMPLE, "--max-iter", "3", *m
        ]
        cases[f"check-claims-coarse-tol-{mode}"] = [
            "check-claims", "--oracle-utility", "{u.json}", *SAMPLE, "--tol", "0.1", *m
        ]
        for name in ("v", "reversed"):
            cases[f"verify-representation-{name}-{mode}"] = [
                "verify-representation", "--oracle-utility", "{v.json}",
                "--utility", f"{{{name}.json}}", *SAMPLE, *m,
            ]
        for name in ("v", "bent", "reversed"):
            cases[f"recover-affine-{name}-{mode}"] = [
                "recover-affine", "--u", "{u.json}", "--v", f"{{{name}.json}}", *m
            ]
        cases[f"recover-affine-bent-loose-{mode}"] = [
            "recover-affine", "--u", "{u.json}", "--v", "{bent.json}", "--tol", "2", *m
        ]
        for data in ("chain", "cycle", "infeasible"):
            path = f"{{{data}.json}}"
            cases[f"validate-dataset-{data}-{mode}"] = ["validate-dataset", path, *m]
            cases[f"fit-model-{data}-{mode}"] = ["fit-model", path, "--max-epochs", "60", *m]
    external = ("--space", "{space.json}", "--sample", "8", "--seed", "1")
    cases["elicit-external"] = ["elicit", "--oracle-cmd", "{cmd:eu}", "--space", "{space.json}"]
    cases["check-axioms-external-cyclic"] = ["check-axioms", "--oracle-cmd", "{cmd:cyclic}", *external]
    cases["check-claims-external-eu"] = ["check-claims", "--oracle-cmd", "{cmd:eu}", *external]
    cases["check-claims-external-floor"] = ["check-claims", "--oracle-cmd", "{cmd:floor}", *external]
    cases["check-claims-external-ceil"] = ["check-claims", "--oracle-cmd", "{cmd:ceil}", *external]
    cases["check-claims-external-cyclic"] = ["check-claims", "--oracle-cmd", "{cmd:cyclic}", *external]
    return cases


def _write_inputs(root: Path) -> dict:
    """Write every input file and comparator; return placeholder -> text."""
    subs = {}
    for name, payload in FILES.items():
        (root / name).write_text(json.dumps(payload))
        subs[f"{{{name}}}"] = str(root / name)
    for rule in COMPARATORS:
        script = root / f"{rule}.py"
        script.write_text(f"RULE = {rule!r}\n" + _COMPARATOR)
        subs[f"{{cmd:{rule}}}"] = f"{sys.executable} {script}"
    return subs


def _run(argv, subs) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([subs.get(a, a) for a in argv])
    return {"exit": code, "stdout": out.getvalue()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def subs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_stdout_matches_golden(case, subs):
    assert _run(_cases()[case], subs) == _golden()[case]


# an exact number as rational mode prints it: "n" or "n/d"
EXACT = re.compile(r"-?\d+(/\d+)?")


def _as_floats(value):
    """``value`` with each ``"n"`` or ``"n/d"`` string read as its float."""
    if isinstance(value, dict):
        return {k: _as_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    if isinstance(value, str) and EXACT.fullmatch(value):
        return float(Fraction(value))
    return value


def _wire(entry) -> tuple:
    """Exit code and parsed stdout without ``options``, numbers as floats."""
    report = json.loads(entry["stdout"])
    report.pop("options", None)
    return entry["exit"], _as_floats(report)


@pytest.mark.parametrize(
    "case", sorted(c.removesuffix("-rational") for c in _cases() if c.endswith("-rational"))
)
def test_float_mode_prints_the_rational_report(case):
    """Float mode is a wire format: the same exact run, printed as floats."""
    golden = _golden()
    assert _wire(golden[f"{case}-float"]) == _wire(golden[f"{case}-rational"])


def _run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        subs = _write_inputs(Path(tmp))
        return {case: _run(argv, subs) for case, argv in sorted(_cases().items())}


def diff() -> list[str]:
    """``case: exit, stdout`` for each case that differs from the file, naming what differs."""
    golden, now = _golden(), _run_all()
    lines = []
    for case in sorted(golden.keys() | now.keys()):
        old, new = golden.get(case), now.get(case)
        if old is None or new is None:
            lines.append(f"{case}: {'new' if old is None else 'gone'}")
            continue
        parts = [k for k in ("exit", "stdout") if old[k] != new[k]]
        if parts:
            lines.append(f"{case}: {', '.join(parts)}")
    return lines


def capture() -> None:
    golden = _run_all()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        differs = diff()
        print("\n".join(differs) or "no case differs")
        sys.exit(1 if differs else 0)
    if sys.argv[1:]:
        sys.exit("usage: python tests/test_golden_cli.py [--diff]")
    capture()
