"""JSON encoding and decoding for the wire formats used by the CLI.

Conventions:

* numbers are exact inside; :func:`number_to_json` prints them as
  ``"num/den"`` strings (``"1/2"``, ``"3"``) in rational mode and as the
  nearest JSON float in float mode;
* a lottery is ``{"space": ["x1", ...], "probs": [...]}``;
* a utility function is ``{"space": [...], "utility": {"x1": ...}}``;
* a preference dataset is ``{"space": [...], "pairs": [{"winner": lottery,
  "loser": lottery}, ...]}`` where each pair entry may omit its own
  ``"space"`` and inherit the dataset's.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .lottery import (
    FLOAT,
    RATIONAL,
    Lottery,
    OutcomeSpace,
    UtilityFunction,
    new_lottery,
    utility_from_mapping,
)


def number_to_json(value, mode: str):
    """``"num/den"`` in rational mode, the nearest float in float mode.

    A value beyond the float range rounds to an infinity, as IEEE rounding does.
    """
    if mode == RATIONAL:
        return str(value)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def space_to_json(space: OutcomeSpace) -> list[str]:
    return list(space.labels)


def space_from_json(obj, mode: str) -> OutcomeSpace:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ValueError("space must be a JSON array of outcome labels")
    return OutcomeSpace(tuple(obj), mode)


def lottery_to_json(p: Lottery) -> dict:
    mode = p.space.mode
    return {
        "space": space_to_json(p.space),
        "probs": [number_to_json(v, mode) for v in p.probs],
    }


def triple_to_json(p: Lottery, q: Lottery, r: Lottery) -> dict:
    """The ``p``, ``q`` and ``r`` entries of a witness."""
    return {"p": lottery_to_json(p), "q": lottery_to_json(q), "r": lottery_to_json(r)}


def lottery_from_json(obj, space: OutcomeSpace | None = None, mode: str | None = None) -> Lottery:
    """Decode a lottery object, checking it against ``space`` when given."""
    if not isinstance(obj, Mapping):
        raise ValueError("lottery must be a JSON object")
    if not isinstance(obj.get("probs"), list):
        raise ValueError('lottery object needs a "probs" array')
    if "space" in obj:
        labels = obj["space"]
        # the usual case, labels equal to the expected ones, builds no OutcomeSpace
        if not (
            space is not None
            and mode in (None, RATIONAL, FLOAT)
            and isinstance(labels, list)
            and tuple(labels) == space.labels
            and all(map(str.__instancecheck__, labels))  # as space_from_json requires
        ):
            declared = space_from_json(labels, mode or (space.mode if space else RATIONAL))
            if space is None:
                space = declared
            elif declared.labels != space.labels:
                raise ValueError(
                    f"lottery space {list(declared.labels)} does not match expected {list(space.labels)}"
                )
    elif space is None:
        raise ValueError('lottery object needs a "space" array')
    return new_lottery(space, obj["probs"])


def utility_to_json(u: UtilityFunction) -> dict:
    mode = u.space.mode
    return {
        "space": space_to_json(u.space),
        "utility": {x: number_to_json(v, mode) for x, v in zip(u.space.labels, u.values)},
    }


def utility_from_json(obj, space: OutcomeSpace | None = None, mode: str = "rational") -> UtilityFunction:
    """Decode ``{"space": [...], "utility": {...}}``; ``space`` may be implied.

    Without an explicit or expected space the labels come from the utility
    mapping in insertion order.
    """
    if not isinstance(obj, Mapping) or "utility" not in obj or not isinstance(obj["utility"], Mapping):
        raise ValueError('utility file must contain a "utility" object mapping labels to values')
    values = obj["utility"]
    if space is None:
        if "space" in obj:
            space = space_from_json(obj["space"], mode)
        else:
            space = OutcomeSpace(tuple(values.keys()), mode)
    elif "space" in obj and space_from_json(obj["space"], mode).labels != space.labels:
        raise ValueError("utility space does not match expected space")
    return utility_from_mapping(space, values)
