"""Seeded random networks and clamp scenarios for property-style tests.

Everything here is a deterministic function of the seed: names are generated
in a fixed order and pattern sets are kept as lists (never iterated from
hash-ordered sets), so two runs produce identical specs byte for byte.
"""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from conceptsim import (
    ConceptSpec,
    EngineParams,
    NetworkSpec,
    Trace,
    ValidatedNetwork,
    parse_network_file,
    parse_scenario_file,
    run_scenario,
    validate_network,
)

SYNTH = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"


def random_network(seed: int) -> ValidatedNetwork:
    """A small layered network: 2-3 layers, 2-4 concepts per layer,
    patterns of size 2-3 drawn from the layer below."""
    rng = random.Random(seed)
    n_layers = rng.randint(2, 3)
    sizes = [rng.randint(2, 4)]
    for layer in range(1, n_layers):
        top = layer == n_layers - 1
        # non-top layers need at least 2 concepts so size-2 patterns exist above
        sizes.append(rng.randint(1 if top else 2, 4))

    concepts: list[ConceptSpec] = []
    names_by_layer: list[list[str]] = []
    for layer, size in enumerate(sizes):
        names = [f"u{layer}_{i}" for i in range(size)]
        names_by_layer.append(names)
        for name in names:
            if layer == 0:
                concepts.append(ConceptSpec(name, 0))
                continue
            below = names_by_layer[layer - 1]
            patterns: list[tuple[str, ...]] = []
            want = rng.randint(1, 2)
            attempts = 0
            while len(patterns) < want and attempts < 20:
                attempts += 1
                k = rng.randint(2, min(3, len(below)))
                pat = tuple(sorted(rng.sample(below, k)))
                if pat not in patterns:
                    patterns.append(pat)
            concepts.append(ConceptSpec(name, layer, tuple(patterns)))
    return validate_network(NetworkSpec(tuple(concepts)))


#: (fewest, most) concepts per layer of a shuffled_network, bottom to top
SHUFFLED_LAYER_SIZES = ((2, 3), (2, 2), (2, 2), (1, 2))


def shuffled_network(seed: int) -> ValidatedNetwork:
    """A 4-layer network declared in a seeded random order, so that ids do not
    follow layer order; each concept above layer 0 has 1-2 patterns of size
    1-3 drawn from the layer below."""
    rng = random.Random(seed)
    concepts: list[ConceptSpec] = []
    below: list[str] = []
    for layer, sizes in enumerate(SHUFFLED_LAYER_SIZES):
        names = [f"u{layer}_{i}" for i in range(rng.randint(*sizes))]
        for name in names:
            patterns: list[tuple[str, ...]] = []
            for _ in range(rng.randint(1, 2) if layer else 0):
                pat = tuple(sorted(rng.sample(below, rng.randint(1, min(3, len(below))))))
                if pat not in patterns:
                    patterns.append(pat)
            concepts.append(ConceptSpec(name, layer, tuple(patterns)))
        below = names
    rng.shuffle(concepts)
    return validate_network(NetworkSpec(tuple(concepts)))


def random_clamp(net: ValidatedNetwork, rng: random.Random) -> dict[int, int]:
    return {e: 1 for e in net.bottom if rng.random() < 0.5}


def random_scenario(net: ValidatedNetwork, seed: int, phases: int = 3):
    """(clamp, hold=None) pairs over random bottom subsets."""
    rng = random.Random(seed)
    return [(random_clamp(net, rng), None) for _ in range(phases)]


def synth_network(sizes: tuple[int, ...], seed: int) -> ValidatedNetwork:
    """A net shaped like the benchmark's synthetic ones: sizes[i] concepts on
    layer i, each above layer 0 with 2-3 distinct patterns of 3-4 elements
    from the layer below."""
    rng = random.Random(seed)
    concepts = [ConceptSpec(f"u0_{i}", 0) for i in range(sizes[0])]
    for layer in range(1, len(sizes)):
        below = [f"u{layer - 1}_{i}" for i in range(sizes[layer - 1])]
        for i in range(sizes[layer]):
            patterns: list[tuple[str, ...]] = []
            want = rng.randint(2, 3)
            while len(patterns) < want:
                pat = tuple(sorted(rng.sample(below, rng.randint(3, 4))))
                if pat not in patterns:
                    patterns.append(pat)
            concepts.append(ConceptSpec(f"u{layer}_{i}", layer, tuple(patterns)))
    return validate_network(NetworkSpec(tuple(concepts)))


def benchmark_synth():
    """perfbench/synth.py, the benchmark's generator of synthetic networks and
    scenarios as JSON text, loaded from its path."""
    loader = importlib.util.spec_from_file_location("perfbench_synth", SYNTH)
    synth = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(synth)
    return synth


def run_large_trace(seed: int = 8) -> Trace:
    """run_scenario at default params of the benchmark's run-large network and
    scenario at one seed: synth 1000/300/100 and synth.scenario_json(1000,
    seed, 40). At seed 8 it has 318 CSV blocks (106 snapshots) and a 9.7 MB
    trace CSV."""
    synth = benchmark_synth()
    net = validate_network(parse_network_file(synth.network_json((1000, 300, 100), seed)))
    scenario = parse_scenario_file(synth.scenario_json(1000, seed, 40), net)
    return run_scenario(net, EngineParams(), scenario.resolve(net))
