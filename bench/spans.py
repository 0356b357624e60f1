"""In-memory span tracing of the ``vnm`` layers, installed from outside.

:meth:`Tracer.install` rebinds public functions and methods of the ``src/vnm/``
modules to timing wrappers. A function is rebound in every ``vnm`` module
that imported it (``vnm.preference.mix``, ``vnm.claims.mix``, ...), so calls
between modules are timed as well as calls from the benchmark. Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` restores the originals.

A span records its name, start, end, parent span and round id. Spans are
kept in flat arrays while the benchmark runs and written out at the end. A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute, span name). An attribute "Class.method" rebinds the
# method on the class; every other attribute is rebound in each vnm module
# that holds the same function object.
TARGETS = (
    ("vnm.lottery", "Lottery.__post_init__", "lottery.Lottery"),
    ("vnm.lottery", "OutcomeSpace.__post_init__", "lottery.OutcomeSpace"),
    ("vnm.lottery", "UtilityFunction.__post_init__", "lottery.UtilityFunction"),
    ("vnm.lottery", "mix", "lottery.mix"),
    ("vnm.lottery", "expected_utility", "lottery.expected_utility"),
    ("vnm.lottery", "new_lottery", "lottery.new_lottery"),
    ("vnm.lottery", "new_utility", "lottery.new_utility"),
    ("vnm.lottery", "degenerate", "lottery.degenerate"),
    ("vnm.sampling", "random_lottery", "sampling.random_lottery"),
    ("vnm.sampling", "random_alpha", "sampling.random_alpha"),
    ("vnm.sampling", "random_utility", "sampling.random_utility"),
    ("vnm.sampling", "random_triples", "sampling.random_triples"),
    ("vnm.sampling", "random_mix_tuples", "sampling.random_mix_tuples"),
    ("vnm.sampling", "random_claim_tuples", "sampling.random_claim_tuples"),
    ("vnm.preference", "PreferenceOracle.pref", "preference.pref"),
    ("vnm.preference", "UtilityOracle.__init__", "preference.UtilityOracle"),
    ("vnm.preference", "compare", "preference.compare"),
    ("vnm.preference", "check_order_axioms", "preference.check_order_axioms"),
    ("vnm.preference", "check_independence", "preference.check_independence"),
    (
        "vnm.preference",
        "check_classical_independence",
        "preference.check_classical_independence",
    ),
    ("vnm.preference", "probe_continuity", "preference.probe_continuity"),
    ("vnm.oracles", "RankDependentOracle.rank_dependent_value", "oracles.rank_dependent"),
    ("vnm.oracles", "RankDependentOracle.__init__", "oracles.RankDependentOracle"),
    ("vnm.oracles", "SubprocessOracle.__init__", "oracles.SubprocessOracle.start"),
    ("vnm.oracles", "SubprocessOracle.close", "oracles.SubprocessOracle.close"),
    ("vnm.claims", "verify_claims_i_to_iv", "claims.verify_claims_i_to_iv"),
    ("vnm.claims", "verify_claim_v", "claims.verify_claim_v"),
    ("vnm.claims", "analytic_indifference_alpha", "claims.analytic_indifference_alpha"),
    ("vnm.elicitation", "elicit_utility", "elicitation.elicit_utility"),
    ("vnm.elicitation", "find_extreme_degenerates", "elicitation.find_extreme_degenerates"),
    ("vnm.elicitation", "verify_representation", "elicitation.verify_representation"),
    ("vnm.uniqueness", "recover_affine", "uniqueness.recover_affine"),
    ("vnm.uniqueness", "verify_affine", "uniqueness.verify_affine"),
    ("vnm.dataset", "validate_dataset", "dataset.validate_dataset"),
    ("vnm.dataset", "fit_reward_model", "dataset.fit_reward_model"),
    ("vnm.dataset", "model_fits_data", "dataset.model_fits_data"),
    ("vnm.dataset", "dataset_from_json", "dataset.dataset_from_json"),
    ("vnm.jsonio", "lottery_from_json", "jsonio.lottery_from_json"),
    ("vnm.jsonio", "space_from_json", "jsonio.space_from_json"),
    ("vnm.jsonio", "utility_from_json", "jsonio.utility_from_json"),
    ("vnm.jsonio", "lottery_to_json", "jsonio.lottery_to_json"),
    ("vnm.jsonio", "utility_to_json", "jsonio.utility_to_json"),
    ("vnm.cli", "main", "cli.main"),
)

ROUND = "round"


class Tracer:
    """Span store plus the rebinding that feeds it.

    Spans are recorded only while ``on`` is true, so work the benchmark
    does between rounds (known-answer checks) leaves no spans.
    """

    def __init__(self):
        self.names: list[str] = [ROUND]
        self._ids = {ROUND: 0}
        self.name_ids = array("l")
        self.parents = array("l")
        self.rounds = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.round_id = -1
        self.on = False
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.rounds.append(self.round_id)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- rebinding ---------------------------------------------------------

    def wrap(self, span: str, fn, after=None):
        """A wrapper of ``fn`` that records a span named ``span`` while tracing is on."""
        tracer = self
        name_id = self._name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target; raises if a target is missing."""
        for module_name in {t[0] for t in TARGETS}:
            importlib.import_module(module_name)
        self.utility_oracle = sys.modules["vnm.preference"].UtilityOracle
        vnm_modules = [
            m for name, m in list(sys.modules.items()) if name == "vnm" or name.startswith("vnm.")
        ]
        for module_name, attr, span in TARGETS:
            module = sys.modules[module_name]
            after = _AFTER.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original, after))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, after)
            for m in vnm_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and summed self time."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
        return calls, selfs

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tround\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}"
                    f"\t{self.ends[i]:.9f}\t{self.parents[i]}\t{self.rounds[i]}\n"
                )


def _after_pref(tracer, args, result):
    if isinstance(args[0], tracer.utility_oracle):
        tracer.count("pref.utility_oracle")


def _after_expected_utility(tracer, args, result):
    # an oracle's value cache misses are the EU evaluations made under pref
    if tracer.stack and tracer.names[tracer.name_ids[tracer.stack[-1]]] == "preference.pref":
        tracer.count("eu.from_oracle")


def _after_claims(tracer, args, result):
    tracer.count("claims.trials", sum(r.trials for r in result))


def _after_claim_v(tracer, args, result):
    tracer.count("claims.trials", result.trials)
    tracer.count("bisect.iterations", result.details.get("iterations", 0))


def _after_elicit(tracer, args, result):
    tracer.count("bisect.iterations", sum(result.per_outcome_iterations.values()))


_AFTER = {
    "preference.pref": _after_pref,
    "lottery.expected_utility": _after_expected_utility,
    "claims.verify_claims_i_to_iv": _after_claims,
    "claims.verify_claim_v": _after_claim_v,
    "elicitation.elicit_utility": _after_elicit,
}
