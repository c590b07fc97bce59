"""Seeded synthetic networks and scenarios with explicit layer sizes.

Everything here is a deterministic function of its arguments and returns the
JSON text the program parses, so the program sees only generated input. Names
are made in a fixed order and every pattern is drawn as an ordered list from
an ordered list (never iterated from a hash-ordered set), so one seed gives
byte-identical JSON on every run and every Python build.

Each concept above layer 0 gets 2 or 3 patterns of 3 or 4 elements from the
layer below. The counts are not drawn independently: each layer gets a fixed
mix (half the concepts with 3 patterns, half the patterns with 4 elements),
shuffled by the seed. The seed changes which concepts and elements are wired
together, while the amount of pattern work stays the same from seed to seed,
so timings of different seeds can be compared.
"""
from __future__ import annotations

import json
import random
from typing import Sequence


def unit_name(layer: int, index: int) -> str:
    return f"u{layer}_{index}"


def _balanced(count: int, low: int, high: int, rng: random.Random) -> list[int]:
    """`count` values, half `high` (rounded down) and the rest `low`, in seeded order."""
    values = [high] * (count // 2) + [low] * (count - count // 2)
    rng.shuffle(values)
    return values


def network_json(sizes: Sequence[int], seed: int) -> str:
    """Network JSON with `sizes[i]` concepts on layer i."""
    # with 4 concepts below, a concept cannot get 3 distinct patterns of which
    # two have 4 elements, and the draw below would never end
    if len(sizes) < 2 or sizes[-1] < 1 or min(sizes[:-1]) < 5:
        raise ValueError("need at least two layers, and at least 5 concepts below the top")
    rng = random.Random(seed)
    concepts = [{"name": unit_name(0, i), "layer": 0, "patterns": []} for i in range(sizes[0])]
    for layer in range(1, len(sizes)):
        below = [unit_name(layer - 1, i) for i in range(sizes[layer - 1])]
        counts = _balanced(sizes[layer], 2, 3, rng)
        lengths = iter(_balanced(sum(counts), 3, 4, rng))
        for i, count in enumerate(counts):
            patterns: list[list[str]] = []
            for _ in range(count):
                k = next(lengths)
                while True:
                    pattern = [below[j] for j in sorted(rng.sample(range(len(below)), k))]
                    if pattern not in patterns:
                        break
                patterns.append(pattern)
            concepts.append({"name": unit_name(layer, i), "layer": layer, "patterns": patterns})
    return json.dumps({"concepts": concepts}, sort_keys=True, indent=2) + "\n"


def scenario_json(n_bottom: int, seed: int, hold: int) -> str:
    """Three phases: a random half of layer 0 to convergence, a new random half
    for exactly `hold` sweeps, then an empty clamp to convergence."""
    rng = random.Random(seed)

    def half() -> dict[str, int]:
        picked = sorted(rng.sample(range(n_bottom), n_bottom // 2))
        return {unit_name(0, i): 1 for i in picked}

    phases = [
        {"clamp": half(), "hold": "converge"},
        {"clamp": half(), "hold": hold},
        {"clamp": {}, "hold": "converge"},
    ]
    return json.dumps({"phases": phases}, sort_keys=True, indent=2) + "\n"
