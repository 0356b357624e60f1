"""Extra oracle implementations: external comparators and adversarial models.

:class:`SubprocessOracle` adapts any executable speaking a one-line JSON
protocol into a :class:`PreferenceOracle`. :class:`RankDependentOracle`
deliberately violates the independence axiom (while keeping a complete
transitive order), which makes it useful as a known-bad comparator when
exercising the axiom checkers.
"""

from __future__ import annotations

import contextlib
import json
import shlex
import subprocess
from fractions import Fraction
from typing import Callable, Optional

from .errors import OracleFailure
from .jsonio import lottery_to_json
from .lottery import Lottery, UtilityFunction
from .preference import PreferenceOracle, ValueOracle

# seconds close() waits for a comparator to exit once its input is closed
CLOSE_TIMEOUT_S = 10


def _square(t):
    return t * t


class RankDependentOracle(ValueOracle):
    """Rank-dependent value: cumulative probabilities pass through a weight curve.

    Outcomes are ranked best-first by the supplied utility; outcome ``i`` in
    that order receives decision weight ``w(c_i) - w(c_{i-1})`` where ``c_i``
    is the cumulative probability of the top ``i`` outcomes. With any
    nonlinear ``w`` (default ``w(t) = t^2``) the induced preference is still
    a total preorder but mixing can reshuffle it, so independence fails on
    easily sampled instances.
    """

    def __init__(
        self,
        utility: UtilityFunction,
        weight: Callable = _square,
        query_budget: Optional[int] = None,
    ):
        super().__init__(utility.space, query_budget=query_budget)
        self.utility = utility
        self.weight = weight
        # best-first outcome order, ties broken toward the lower index
        self._order = sorted(
            range(utility.space.size), key=lambda i: (utility.values[i], -i), reverse=True
        )

    def rank_dependent_value(self, p: Lottery):
        # rational mode sums int numerators over p.den and never builds p.probs
        den = p.den
        masses = p.probs if den is None else p.nums
        total = self.space.zero()
        cum = 0
        w_prev = self.weight(self.space.zero())
        for i in self._order:
            cum += masses[i]
            w_cum = self.weight(cum if den is None else Fraction(cum, den))
            total += (w_cum - w_prev) * self.utility.values[i]
            w_prev = w_cum
        return total

    def _evaluate(self, p: Lottery):
        return self.rank_dependent_value(p)


class SubprocessOracle(PreferenceOracle):
    """Bridge to an external comparator process.

    The child reads one JSON object per line, ``{"p": lottery, "q":
    lottery}``, and must answer with one JSON line ``{"pref": true}`` or
    ``{"pref": false}``. The process is started once and kept alive for the
    whole session; it is expected to answer deterministically. A child that
    cannot be started, closes its output or replies with anything else
    raises :class:`OracleFailure`. So does :meth:`close` when the child is
    still running ``CLOSE_TIMEOUT_S`` seconds after its input closed; it is
    killed and reaped first.
    """

    def __init__(self, space, command: str, query_budget: Optional[int] = None):
        super().__init__(space, query_budget=query_budget)
        self.command = command
        try:
            argv = shlex.split(command)
            if not argv:
                raise ValueError("empty command")
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except (OSError, ValueError) as exc:
            raise OracleFailure(f"cannot start oracle subprocess {command!r}: {exc}") from exc

    def _answer(self, p: Lottery, q: Lottery) -> bool:
        request = json.dumps({"p": lottery_to_json(p), "q": lottery_to_json(q)})
        try:
            self._proc.stdin.write(request + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (OSError, ValueError) as exc:
            raise OracleFailure(f"oracle subprocess {self.command!r} is not responding") from exc
        if not line:
            raise OracleFailure(f"oracle subprocess {self.command!r} closed its output")
        try:
            reply = json.loads(line)
        except ValueError:
            reply = None
        if not isinstance(reply, dict) or not isinstance(reply.get("pref"), bool):
            raise OracleFailure(f'oracle subprocess reply must be {{"pref": bool}}, got {line!r}')
        return reply["pref"]

    def close(self) -> None:
        """Close both pipes and reap the child; safe to call more than once."""
        # a request left unsent by a broken pipe would fail again here
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise OracleFailure(
                f"oracle subprocess {self.command!r} still ran {CLOSE_TIMEOUT_S} s"
                " after its input closed; killed it"
            ) from None
        finally:
            self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
