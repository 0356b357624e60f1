"""Golden CLI output: exit code and stdout, byte for byte, per invocation.

``tests/golden/cli_stdout.json`` holds what each invocation below printed.
A change that alters any report, its key order or an exit code fails here.
To capture the file again from the ``vnm`` on ``sys.path``::

    PYTHONPATH=src python tests/test_golden_cli.py

Only stdout is compared: stderr carries bar charts and diagnostics that
name temporary paths.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import textwrap
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


def capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        subs = _write_inputs(Path(tmp))
        golden = {case: _run(argv, subs) for case, argv in sorted(_cases().items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
