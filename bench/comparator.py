"""Stdlib preference comparator for ``vnm --oracle-cmd``.

Usage: ``python3 comparator.py UTILITY_JSON STATS_JSON``

Reads one request per line, ``{"p": lottery, "q": lottery}`` with
probabilities as ``"num/den"`` strings, and answers ``{"pref": true}`` when
the expected utility of ``p`` under the utility file is at least that of
``q``, computed exactly with :class:`fractions.Fraction`.

On end of input it writes ``STATS_JSON``: request and distinct-request
counts plus, for every request, the time it was received and the time its
reply was ready, on ``time.monotonic()``, the system-wide monotonic clock,
so the caller can line them up with its own timestamps.
"""

import json
import sys
import time
from fractions import Fraction


def main(utility_path, stats_path):
    with open(utility_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    labels = spec["space"]
    utility = [Fraction(spec["utility"][x]) for x in labels]

    def eu(lottery):
        if lottery["space"] != labels:
            raise ValueError(f"unexpected space {lottery['space']!r}")
        return sum(Fraction(v) * u for v, u in zip(lottery["probs"], utility))

    received, ready = [], []
    distinct = set()
    clock = time.monotonic
    for line in sys.stdin:
        received.append(clock())
        distinct.add(line)
        request = json.loads(line)
        answer = eu(request["p"]) >= eu(request["q"])
        # stamped before the write: with pipes the woken caller often runs
        # on this core at once, and a stamp after the write would absorb
        # the caller's own work into this process's busy time
        ready.append(clock())
        sys.stdout.write('{"pref": true}\n' if answer else '{"pref": false}\n')
        sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "requests": len(received),
                "distinct_requests": len(distinct),
                "received": received,
                "ready": ready,
            },
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
