"""The benchmark's four workloads.

Each workload builds its fixed inputs in :meth:`Workload.setup`, runs one
round in :meth:`Workload.work` and checks that round against a known answer
in :meth:`Workload.check`. Round ``i`` draws every input from
``random.Random(f"{seed}:{name}:{i}")``, so a seed fixes the whole run.
Workloads call ``vnm`` through module attributes looked up at call time, so
the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _space(vnm, n: int):
    return vnm.lottery.OutcomeSpace(tuple(f"x{k}" for k in range(n)))


def _strict_order(vnm, oracle, lots):
    """Sort three lotteries best first through the oracle; None on any tie."""
    compare, cmp = vnm.preference.compare, vnm.preference.Comparison
    lots = list(lots)
    for i in range(1, 3):
        for j in range(i, 0, -1):
            c = compare(oracle, lots[j - 1], lots[j])
            if c is cmp.INDIFFERENT:
                return None
            if c is cmp.PREFER_SECOND:
                lots[j - 1], lots[j] = lots[j], lots[j - 1]
    return lots


class Workload:
    """Fixed inputs, one round, and its known answer."""

    name = ""
    # rounds over which oracle_queries_per_round is counted; every run
    # completes at least this many, so the count is exact for a seed
    exact_rounds = 28
    # round_ms_tail is read at this percentile in every run, so that runs
    # compare; each run completes enough rounds to leave ten beyond it
    tail_percentile = 90
    # what set-up imports: vnm, or vnm.cli for a workload that runs the CLI
    imports = "vnm"
    # peak memory is the CLI child's, not this process's
    child_rss = False

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.vnm = None

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{i}")

    def setup(self) -> None:
        """Import vnm and build the fixed inputs. Timed as ``setup_s``."""
        importlib.import_module(self.imports)
        self.vnm = sys.modules["vnm"]

    def prepare(self) -> None:
        """Untimed preparation after set-up, such as reference answers."""

    def kind(self, i) -> str:
        return "round"

    def work(self, i):
        raise NotImplementedError

    def queries(self, out) -> int:
        """Raw ``pref`` queries the round made."""
        return out["oracle"].query_count

    def check(self, i, out, wrong: bool = False):
        """None when the round matches its known answer, else a message.

        ``wrong`` swaps in a deliberately wrong expected answer; the
        harness self-test uses it to prove that mismatches are counted.
        """
        raise NotImplementedError


class Axioms(Workload):
    """Criterion 2's hot path: many small-denominator lotteries through the checkers."""

    name = "axioms"
    instances = 40  # sampled instances per check per round
    rank_dependent_every = 4  # round i % 4 == 3 asks a rank-dependent oracle
    rank_dependent_cap = 5000  # independence tuples drawn before giving up

    def setup(self):
        super().setup()
        self.spaces = {n: _space(self.vnm, n) for n in range(2, 9)}

    def kind(self, i):
        n = 2 + i % 7
        # two outcomes give a rank-dependent oracle no room to break independence
        if i % self.rank_dependent_every == self.rank_dependent_every - 1 and n >= 3:
            return "rank_dependent"
        return "utility"

    def _lazy_tuples(self, space, rng, seen):
        sampling = self.vnm.sampling
        while len(seen) < self.rank_dependent_cap:
            for t in sampling.random_mix_tuples(space, rng, 16):
                seen.append(t)
                yield t

    def work(self, i):
        vnm = self.vnm
        pref, sampling = vnm.preference, vnm.sampling
        rng = self.rng(i)
        space = self.spaces[2 + i % 7]
        out = {"space": space}
        if self.kind(i) == "rank_dependent":
            # equally spaced utilities: every rank gap is nonzero, so
            # violations are common and the search ends early
            values = list(range(space.size))
            rng.shuffle(values)
            oracle = vnm.oracles.RankDependentOracle(vnm.lottery.new_utility(space, values))
            out["order"] = pref.check_order_axioms(
                oracle, sampling.random_triples(space, rng, self.instances)
            )
            seen = []
            out["independence"] = pref.check_independence(
                oracle, self._lazy_tuples(space, rng, seen)
            )
            out["classical"] = pref.check_classical_independence(
                oracle, seen[: out["independence"].checked]
            )
        else:
            oracle = pref.UtilityOracle(sampling.random_utility(space, rng, nonconstant=True))
            n = self.instances
            out["order"] = pref.check_order_axioms(oracle, sampling.random_triples(space, rng, n))
            out["independence"] = pref.check_independence(
                oracle, sampling.random_mix_tuples(space, rng, n)
            )
            out["classical"] = pref.check_classical_independence(
                oracle, sampling.random_mix_tuples(space, rng, n)
            )
            out["claims"] = vnm.claims.verify_claims_i_to_iv(
                oracle, sampling.random_claim_tuples(space, rng, n)
            )
        out["oracle"] = oracle
        return out

    def check(self, i, out, wrong=False):
        violation_expected = (self.kind(i) == "rank_dependent") != wrong
        if not out["order"].passed:
            return "order axioms failed"
        if not violation_expected:
            failed = [
                r.axiom for r in (out["independence"], out["classical"]) if not r.passed
            ] + [f"claim {r.claim}" for r in out.get("claims", ()) if not r.passed]
            return f"expected every check to pass, failed: {failed}" if failed else None
        ind, cls = out["independence"], out["classical"]
        if ind.passed:
            return "independence violation not found"
        if cls.passed or cls.checked != ind.checked:
            return "classical independence disagrees with independence on the same tuples"
        return self._replay(out["oracle"], out["space"], ind.witness)

    def _replay(self, oracle, space, w):
        vnm = self.vnm
        decode, compare, mix = vnm.jsonio.lottery_from_json, vnm.preference.compare, vnm.lottery.mix
        p, q, r = (decode(w[k], space=space) for k in ("p", "q", "r"))
        alpha = Fraction(w["alpha"])
        base = compare(oracle, p, q)
        mixed = compare(oracle, mix(p, r, alpha), mix(q, r, alpha))
        if (base.value, mixed.value) != (w["base_comparison"], w["mixed_comparison"]):
            return "independence witness does not replay"
        if base is mixed:
            return "replayed witness is not a violation"
        return None


class Elicit(Workload):
    """Bisection at dyadic weights: large denominators, little cache reuse."""

    name = "elicit"
    tail_percentile = 95
    tol = Fraction(1, 10**9)
    value_tol = Fraction(1, 10**8)
    pairs = 30  # verify_representation pairs per round
    triples = 3  # claim V triples per round

    def setup(self):
        super().setup()
        self.spaces = {n: _space(self.vnm, n) for n in range(2, 9)}

    def work(self, i):
        vnm = self.vnm
        sampling = vnm.sampling
        rng = self.rng(i)
        space = self.spaces[2 + i % 7]
        utility = sampling.random_utility(space, rng, nonconstant=True)
        oracle = vnm.preference.UtilityOracle(utility)
        result = vnm.elicitation.elicit_utility(oracle, tol=self.tol)
        lo, hi = min(utility.values), max(utility.values)
        truth = vnm.lottery.new_utility(space, [(v - lo) / (hi - lo) for v in utility.values])
        affine = vnm.uniqueness.recover_affine(result.utility, truth, tol=self.value_tol)
        pairs = [
            (sampling.random_lottery(space, rng), sampling.random_lottery(space, rng))
            for _ in range(self.pairs)
        ]
        representation = vnm.elicitation.verify_representation(oracle, result.utility, pairs)
        claim_v = []
        for triple in sampling.random_triples(space, rng, self.triples):
            ordered = _strict_order(vnm, oracle, triple)
            if ordered is not None:
                claim_v.append(
                    (ordered, vnm.claims.verify_claim_v(oracle, *ordered, tol=self.tol))
                )
        return {
            "oracle": oracle,
            "truth": truth,
            "result": result,
            "affine": affine,
            "representation": representation,
            "claim_v": claim_v,
        }

    def check(self, i, out, wrong=False):
        truth = list(out["truth"].values)
        if wrong:
            truth[0] += Fraction(1, 10**6)
        got = out["result"].utility.values
        gap = max(abs(a - b) for a, b in zip(got, truth))
        if gap > self.value_tol:
            return f"elicited utility is {float(gap):.3g} from the normalised truth"
        affine = out["affine"]
        if (affine.alpha, affine.beta) != (1, 0):
            return f"affine map onto the normalised truth is {affine}, not the identity"
        if not out["representation"].passed:
            return "elicited utility does not represent the oracle"
        utility = out["oracle"].utility
        for ordered, report in out["claim_v"]:
            if not report.passed:
                return f"claim V failed: {report.witness}"
            analytic = self.vnm.claims.analytic_indifference_alpha(utility, *ordered)
            alpha_hat = Fraction(report.details["alpha_hat"])
            if abs(alpha_hat - analytic) > self.tol:
                return "claim V weight is off the closed form"
        return None


class Dataset(Workload):
    """JSON decoding, validation and perceptron fitting; no oracle is asked."""

    name = "dataset"
    pool = 12  # datasets built at set-up; round i uses dataset i % pool
    exact_rounds = 24
    kinds = ("feasible", "feasible", "cycle", "feasible", "feasible", "infeasible")
    # one size for every dataset, so that round times differ only by kind;
    # at this size float-mode _canonical_ids is about half of a feasible round
    outcomes, pairs = 6, 80
    gap = Fraction(1, 10)  # minimum normalised EU gap of every generated pair
    max_epochs = 40
    # traced runs swap in a wrapper that records json.loads as a span
    loads = staticmethod(json.loads)

    def setup(self):
        super().setup()
        self.texts = [self._build(j) for j in range(self.pool)]

    def kind(self, i):
        return self.kinds[(i % self.pool) % len(self.kinds)]

    def _fresh(self, space, rng, taken):
        # a lottery unlike any in the dataset, so planted pairs add no edges
        # to existing nodes
        while True:
            p = self.vnm.sampling.random_lottery(space, rng)
            if p.probs not in taken:
                taken.add(p.probs)
                return p

    def _build(self, j) -> str:
        vnm = self.vnm
        lottery, sampling = vnm.lottery, vnm.sampling
        rng = self.rng(f"pool{j}")
        n, m = self.outcomes, self.pairs
        space = _space(vnm, n)
        while True:
            raw = [rng.randint(0, 1000) for _ in range(n)]
            if len(set(raw)) > 1:
                break
        lo, hi = min(raw), max(raw)
        hidden = lottery.new_utility(space, [Fraction(v - lo, hi - lo) for v in raw])
        pairs = []
        while len(pairs) < m:
            p = sampling.random_lottery(space, rng, max_denominator=10)
            q = sampling.random_lottery(space, rng, max_denominator=10)
            d = lottery.expected_utility(p, hidden) - lottery.expected_utility(q, hidden)
            if abs(d) >= self.gap:
                pairs.append((p, q) if d > 0 else (q, p))
        taken = {lot.probs for pair in pairs for lot in pair}
        kind = self.kinds[j % len(self.kinds)]
        if kind == "cycle":
            x, y, z = (self._fresh(space, rng, taken) for _ in range(3))
            planted = [(x, y), (y, z), (z, x)]
        elif kind == "infeasible":
            a, b = self._fresh(space, rng, taken), self._fresh(space, rng, taken)
            mid = lottery.mix(a, b, Fraction(1, 2))
            if mid.probs in taken:
                raise RuntimeError("planted midpoint collides with a dataset lottery")
            # EU(mid) is the mean of EU(a) and EU(b), so no utility puts it above both
            planted = [(mid, a), (mid, b)]
        else:
            planted = []
        for pair in planted:
            pairs.insert(rng.randrange(len(pairs) + 1), pair)
        data = vnm.dataset.PrefDataset(space, tuple(pairs))
        return json.dumps(vnm.dataset.dataset_to_json(data))

    def work(self, i):
        vnm = self.vnm
        dataset, lottery = vnm.dataset, vnm.lottery
        text = self.texts[i % self.pool]
        out = {}
        for mode in (lottery.RATIONAL, lottery.FLOAT):
            margin = self.gap / 2 if mode == lottery.RATIONAL else float(self.gap / 2)
            data = dataset.dataset_from_json(self.loads(text), mode)
            report = dataset.validate_dataset(data)
            try:
                model = dataset.fit_reward_model(data, margin=margin, max_epochs=self.max_epochs)
                outcome = dataset.model_fits_data(model, data, margin)
            except vnm.errors.VNMError as exc:
                outcome = exc
            out[mode] = (report, outcome)
        return out

    def queries(self, out):
        return 0

    def check(self, i, out, wrong=False):
        kind = self.kind(i)
        if wrong:
            kind = "cycle" if kind == "feasible" else "feasible"
        errors = self.vnm.errors
        for mode, (report, outcome) in out.items():
            if kind == "feasible":
                ok = report.consistent and getattr(outcome, "passed", False)
            elif kind == "cycle":
                ok = bool(report.cycles) and isinstance(outcome, errors.PreconditionViolated)
            else:
                ok = (
                    report.consistent
                    and isinstance(outcome, errors.Infeasible)
                    and outcome.max_epochs == self.max_epochs
                )
            if not ok:
                return f"{kind} dataset in {mode} mode: consistent={report.consistent}, got {outcome!r}"
        return None


class External(Workload):
    """``python -m vnm`` with a stdlib comparator behind ``--oracle-cmd``."""

    name = "external"
    exact_rounds = 24
    tail_percentile = 75
    imports = "vnm.cli"
    child_rss = True
    commands = ("check-axioms", "check-claims", "elicit")
    outcomes = 6
    # large enough that per-query round trips, not the two interpreter
    # starts, take most of a check-axioms or check-claims round
    samples = {"check-axioms": 40, "check-claims": 20}
    variants = 12  # round i runs variant i % 12: command i % 3, its own utility

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.dir = os.path.join(out_dir, "external")
        self.stats_path = os.path.join(self.dir, "comparator-stats.json")
        self.src = os.path.join(os.path.dirname(HERE), "src")
        self.in_process = False

    def setup(self):
        super().setup()
        vnm = self.vnm
        os.makedirs(self.dir, exist_ok=True)
        self.argvs, self.oracle_cmds, self.utility_paths = [], [], []
        for v in range(self.variants):
            command = self.commands[v % 3]
            space = _space(vnm, self.outcomes)
            rng = self.rng(f"variant{v}")
            utility = vnm.sampling.random_utility(space, rng, nonconstant=True)
            space_path = os.path.join(self.dir, f"space-{v}.json")
            utility_path = os.path.join(self.dir, f"utility-{v}.json")
            with open(space_path, "w", encoding="utf-8") as fh:
                json.dump(list(space.labels), fh)
            with open(utility_path, "w", encoding="utf-8") as fh:
                json.dump(vnm.jsonio.utility_to_json(utility), fh)
            argv = [command, "--space", space_path]
            if command in self.samples:
                argv += ["--seed", str(rng.randrange(2**31)), "--sample", str(self.samples[command])]
            self.argvs.append(argv)
            self.utility_paths.append(utility_path)
            self.oracle_cmds.append(
                shlex.join(
                    [sys.executable, os.path.join(HERE, "comparator.py"), utility_path, self.stats_path]
                )
            )

    def prepare(self):
        # the same command answered in-process by a utility oracle is the
        # known answer: stdout must match it byte for byte
        self.references = [
            self._in_process(argv + ["--oracle-utility", path])
            for argv, path in zip(self.argvs, self.utility_paths)
        ]

    def _in_process(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.vnm.cli.main(argv)
        return code, stdout.getvalue().encode()

    def kind(self, i):
        return self.commands[i % self.variants % 3]

    def work(self, i):
        v = i % self.variants
        argv = self.argvs[v] + ["--oracle-cmd", self.oracle_cmds[v]]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.stats_path)
        spawned = time.monotonic()
        if self.in_process:
            code, stdout = self._in_process(argv)
        else:
            env = dict(os.environ, PYTHONPATH=self.src)
            with subprocess.Popen(
                [sys.executable, "-m", "vnm", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
            ) as proc:
                try:
                    stdout, _ = proc.communicate(timeout=120)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    raise
                code = proc.returncode
        return {"variant": v, "code": code, "stdout": stdout, "spawned": spawned}

    def queries(self, out):
        with open(self.stats_path, encoding="utf-8") as fh:
            out["stats"] = json.load(fh)
        return out["stats"]["requests"]

    def check(self, i, out, wrong=False):
        code, stdout = self.references[out["variant"]]
        if wrong:
            stdout += b" "
        if out["code"] != code or out["code"] not in (0, 1):
            return f"exit code {out['code']}, expected {code}"
        try:
            json.loads(out["stdout"])
        except ValueError:
            return "stdout is not JSON"
        if out["stdout"] != stdout:
            return "stdout differs from the in-process report for the same seed"
        return None


WORKLOADS = {w.name: w for w in (Axioms, Elicit, Dataset, External)}
