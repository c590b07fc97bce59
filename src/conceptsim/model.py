"""Concept networks: layered concepts defined by conditional bistable patterns.

A network is a hierarchy of named concepts. Layer-0 concepts are clampable
observations and carry no patterns; every concept above layer 0 is defined by
one or more patterns, each a set of concepts exactly one layer below. Against
a given set of active concepts a pattern is in one of three states:

  Off                   fewer than the threshold fraction of elements present
  ApplicableIncomplete  at least the threshold fraction present, but not all
  Complete              every element present

A concept *is* its pattern set; everything else in the package (oracle and
circuit dynamics alike) is built on this evaluation.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BottomWithPatterns,
    DanglingReference,
    DuplicateElement,
    DuplicateName,
    DuplicatePattern,
    EmptyPattern,
    LayerViolation,
    NonBottomClamp,
    NonBottomWithoutPatterns,
    UnknownConcept,
    ValidationError,
)

ConceptId = int

#: Default applicability threshold: half of a pattern's elements, inclusive.
DEFAULT_TAU = 0.5

_STR = frozenset({str})
_INT = frozenset({int})


# --- bitmasks over concept ids ---

#: bytes.translate tables between 0/1 values and the digits "0"/"1"
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")

#: _ids peels masks with at most this many set bits one bit at a time, and
#: scans the base-2 string of denser ones; peeling costs per set bit, the
#: scan per bit of width, and they cross at about 16-24 set bits
_PEEL_MAX = 16


def _bits(values: Sequence[int]) -> int:
    """0/1 values as a bitmask over their indices: bit i is values[i]."""
    return int(b"0" + bytes(values)[::-1].translate(_TO_DIGITS), 2)


def _bit_bytes(bits: int, n: int) -> bytes:
    """The first n bits of a bitmask, one 0/1 byte each; _bits' inverse."""
    # the sentinel bit n keeps leading zeros, and the slice drops it again
    return bin(bits | 1 << n)[:2:-1].encode().translate(_FROM_DIGITS)


def _ids(bits: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out: list[int] = []
    if bits.bit_count() <= _PEEL_MAX:
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


# --- planes: one bit per clamp case of compare ---


def _bottom_planes(net: ValidatedNetwork) -> list[int]:
    """Per net.bottom[j], the plane over the 2^b clamp cases whose bit i is
    bit j of i: whether case i clamps net.bottom[j]."""
    cases = 1 << len(net.bottom)
    planes = []
    for j in range(len(net.bottom)):
        # bit j of the case: runs of 2^j zeros and 2^j ones, one block of
        # each doubled until it spans every case
        width = 2 << j
        plane = ((1 << (1 << j)) - 1) << (1 << j)
        while width < cases:
            plane |= plane << width
            width *= 2
        planes.append(plane)
    return planes


def _at_least(planes: Iterable[int], depth: int, ge: list[int]) -> list[int]:
    """Add the bits of planes, case by case, to the saturating count ge:
    ge[t] holds the cases whose count is at least t, for t up to depth, and
    ge[0] every case. At depth 1 a plane adds only ge[0] & x to ge[1], so
    the planes are ORed first: ge[1] | ge[0] & (x1 | x2 | ...)."""
    ge = ge.copy()
    if depth == 1:
        x = 0
        for plane in planes:
            x |= plane
        ge[1] |= ge[0] & x
        return ge
    for x in planes:
        for t in range(depth, 0, -1):
            ge[t] |= ge[t - 1] & x
    return ge


def _reach(planes: Iterable[int], need: int, ones: int) -> int:
    """The cases, of those in ones, where at least need of planes are set:
    where a pattern with these element planes is applicable."""
    return _at_least(planes, need, [ones] + [0] * need)[need]


class PatternStatus(Enum):
    OFF = "Off"
    APPLICABLE_INCOMPLETE = "ApplicableIncomplete"
    COMPLETE = "Complete"


class PatternState(NamedTuple):
    """Evaluation of one pattern against an active set: its status and the
    elements missing from the set; the present count is len(pattern) - len(missing)."""

    status: PatternStatus
    missing: frozenset[ConceptId]

    @property
    def applicable(self) -> bool:
        """At least the threshold fraction of elements is present (state != Off)."""
        return self.status is not PatternStatus.OFF

    @property
    def complete(self) -> bool:
        return self.status is PatternStatus.COMPLETE


# A normalising record subclasses a named tuple; _make calls its __new__, so _replace normalises too.
class _PatternFields(NamedTuple):
    elements: frozenset[ConceptId]


class Pattern(_PatternFields):
    """A conditional bistable pattern: element ids one layer below the owner."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, elements: Iterable[ConceptId]) -> Pattern:
        return super().__new__(cls, frozenset(elements))

    def __len__(self) -> int:
        return len(self.elements)


class _ConceptSpecFields(NamedTuple):
    name: str
    layer: int
    patterns: tuple[tuple[str, ...], ...] = ()


class ConceptSpec(_ConceptSpecFields):
    """One concept as written in a network file; patterns reference element names."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, name: str, layer: int, patterns: Iterable[Iterable[str]] = ()) -> ConceptSpec:
        # a str pattern is kept whole, not split into characters, for validate_network to refuse
        return super().__new__(cls, name, layer, tuple(p if type(p) is str else tuple(p) for p in patterns))


class _NetworkSpecFields(NamedTuple):
    concepts: tuple[ConceptSpec, ...]


class NetworkSpec(_NetworkSpecFields):
    """An ordered list of concept declarations, as parsed; not yet validated."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, concepts: Iterable[ConceptSpec]) -> NetworkSpec:
        return super().__new__(cls, tuple(concepts))


class _NetworkFields(NamedTuple):
    spec: NetworkSpec
    names: tuple[str, ...]
    layer_of: tuple[int, ...]
    patterns: tuple[tuple[Pattern, ...], ...]
    layers: Mapping[int, tuple[ConceptId, ...]]
    parent_index: Mapping[ConceptId, tuple[tuple[ConceptId, int], ...]]
    name_to_id: Mapping[str, ConceptId]
    masks: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()


class ValidatedNetwork(_NetworkFields):
    """Immutable, index-accelerated view of a structurally valid network.

    Concept ids are dense and assigned in file order. parent_index maps every
    element id to the (owner id, pattern ordinal) pairs whose pattern contains
    it, sorted by owner then ordinal. masks parallels patterns: bit e of
    masks[c][k] is set iff concept e is an element of pattern k of concept c.
    It declares no __slots__, so its cached properties keep an instance __dict__.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a ValidatedNetwork is immutable")

    @cached_property
    def _needs(self) -> dict[float, tuple[tuple[int, ...], ...]]:
        return {}

    @cached_property
    def n_concepts(self) -> int:
        return len(self.names)

    @cached_property
    def max_layer(self) -> int:
        return max(self.layer_of, default=0)

    @property
    def bottom(self) -> tuple[ConceptId, ...]:
        return self.layers.get(0, ())

    @cached_property
    def non_bottom(self) -> tuple[ConceptId, ...]:
        return tuple(c for c in range(self.n_concepts) if self.layer_of[c] > 0)

    @cached_property
    def layer_mask(self) -> tuple[int, ...]:
        """Per layer 0..max_layer, the bitmask of its concepts."""
        masks = [0] * (self.max_layer + 1)
        for c, layer in enumerate(self.layer_of):
            masks[layer] |= 1 << c
        return tuple(masks)

    @cached_property
    def element_ids(self) -> tuple[tuple[tuple[ConceptId, ...], ...], ...]:
        """Per concept, per pattern, its element ids ascending; parallels masks."""
        return tuple(tuple(tuple(_ids(mask)) for mask in masks) for masks in self.masks)

    @cached_property
    def non_bottom_mask(self) -> int:
        """non_bottom as a bitmask."""
        return ((1 << self.n_concepts) - 1) & ~self.layer_mask[0]

    @cached_property
    def below_top(self) -> int:
        """The concepts below the top layer, which have error units, as a bitmask."""
        return ((1 << self.n_concepts) - 1) & ~self.layer_mask[self.max_layer]

    def layer(self, cid: ConceptId) -> int:
        self._check(cid)
        return self.layer_of[cid]

    def name(self, cid: ConceptId) -> str:
        self._check(cid)
        return self.names[cid]

    def id_of(self, name: str) -> ConceptId:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise UnknownConcept(f"no concept named {name!r}") from None

    def patterns_of(self, cid: ConceptId) -> tuple[Pattern, ...]:
        self._check(cid)
        return self.patterns[cid]

    def pattern_needs(self, tau: float) -> tuple[tuple[int, ...], ...]:
        """pattern_need of every pattern under tau, clamped to 0..size,
        parallel to masks. A tau outside (0, 1] gives a need outside 1..size,
        and the clamped one makes the same patterns applicable: every pattern
        at 0, only Complete ones at the size.

        Computed once per distinct pattern size on the first call with a given
        tau and remembered, so hot loops take no ceiling.
        """
        needs = self._needs.get(tau)
        if needs is None:
            sizes = {len(p) for pats in self.patterns for p in pats}
            by_size = {size: min(max(pattern_need(size, tau), 0), size) for size in sizes}
            needs = tuple(tuple(by_size[len(p)] for p in pats) for pats in self.patterns)
            self._needs[tau] = needs
        return needs

    def _check(self, cid: ConceptId) -> None:
        # a bool is an int to isinstance, but not a concept id
        if isinstance(cid, bool) or not isinstance(cid, int) or not 0 <= cid < self.n_concepts:
            raise UnknownConcept(f"no concept with id {cid!r}")

    def _check_clamped(self, cid: ConceptId) -> None:
        """Refuse a clamp key: UnknownConcept for an id that is not a
        concept's, NonBottomClamp for one above layer 0."""
        self._check(cid)
        if self.layer_of[cid]:
            raise NonBottomClamp(f"{self.names[cid]!r} is not a layer-0 concept")


def pattern_state(pattern: Pattern, active: AbstractSet[ConceptId], tau: float = DEFAULT_TAU) -> PatternState:
    """Evaluate a pattern against a set of active concept ids.

    Pure function: Complete when no element is missing, else applicable when
    the present count reaches pattern_need(size, tau), so with the default 0.5
    a pattern with one of two elements present is applicable. A non-finite tau
    raises what pattern_need raises, and an empty pattern EmptyPattern.
    """
    size = len(pattern.elements)
    need = pattern_need(size, tau)
    if not size:
        raise EmptyPattern("a pattern must have at least one element")
    missing = pattern.elements.difference(active)
    if not missing:
        status = PatternStatus.COMPLETE
    elif size - len(missing) >= need:
        status = PatternStatus.APPLICABLE_INCOMPLETE
    else:
        status = PatternStatus.OFF
    return PatternState(status, missing)


def pattern_need(size: int, tau: float = DEFAULT_TAU) -> int:
    """Smallest present count k with k / size >= tau, exactly: ceil(tau * size)
    in integers, through tau.as_integer_ratio(), so a float or rational tau is exact.

    A pattern with mask m is then Complete when m & active == m, and
    applicable when it is Complete or (m & active).bit_count() >= the need,
    as pattern_state decides. A tau <= 0 gives a need <= 0 (always
    applicable), a tau > 1 a need above size (only Complete counts). A
    non-finite tau raises ValueError or OverflowError.
    """
    num, den = tau.as_integer_ratio()
    return -(-num * size // den)


def _malformed(where: str, elems: Sequence, names: Sequence[str]) -> ValidationError:
    """The first fault of a pattern that is a string, is empty, or lists an element twice or a non-name."""
    if type(elems) is str:
        return ValidationError(f"{where} is a string, not a list of names")
    if not elems:
        return EmptyPattern(f"{where} is empty")
    if any(e in elems[:j] for j, e in enumerate(elems)):
        return DuplicateElement(f"{where} lists an element twice")
    return DanglingReference(f"{where} references unknown concept {next(e for e in elems if e not in names)!r}")


def _name_ids(spec: NetworkSpec) -> dict[str, ConceptId]:
    """name_to_id, built one concept at a time: raises the first fault of a
    name or layer, or accepts what validate_network's bulk test cannot
    classify, such as a name of a str subclass."""
    name_to_id: dict[str, ConceptId] = {}
    for cid, c in enumerate(spec.concepts):
        if not isinstance(c.name, str) or not c.name:
            raise ValidationError(f"concept {cid}: name must be a non-empty string")
        if "\0" in c.name:
            # CSV readers refuse NUL (Python 3.10's csv module among them), so a
            # trace holding it could be written but not read back
            raise ValidationError(f"concept {cid}: name {c.name!r} contains NUL")
        if c.name in name_to_id:
            raise DuplicateName(f"concept name {c.name!r} appears more than once")
        if type(c.layer) is not int or c.layer < 0:
            raise LayerViolation(f"concept {c.name!r}: layer must be a non-negative integer")
        name_to_id[c.name] = cid
    return name_to_id


def validate_network(spec: NetworkSpec) -> ValidatedNetwork:
    """Check every structural invariant and build the index structures.

    Raises a ValidationError subclass naming the offending concept/pattern;
    singleton patterns are legal but reported via ValidatedNetwork.warnings
    (they can never be applicable-incomplete, so they cannot express a
    bistability violation). Names and layers are checked in bulk, and
    _name_ids runs only where that test fails, to name the first fault.
    """
    names = tuple(c.name for c in spec.concepts)
    layer_of = tuple(c.layer for c in spec.concepts)
    n = len(names)
    name_to_id = dict(zip(names, range(n))) if _STR.issuperset(map(type, names)) else {}
    if not (
        len(name_to_id) == n and "" not in name_to_id and "\0" not in "".join(names)
        and _INT.issuperset(map(type, layer_of)) and min(layer_of, default=0) >= 0
    ):
        name_to_id = _name_ids(spec)

    # keyed by layer, not indexed: a refused net may put a concept on any layer
    layer_mask = dict.fromkeys(layer_of, 0)
    for c, lay in enumerate(layer_of):
        layer_mask[lay] |= 1 << c
    warnings: list[str] = []
    resolved: list[tuple[Pattern, ...]] = []
    masks: list[tuple[int, ...]] = []
    # owners are met in (owner, ordinal) order, so each list is sorted as built
    parents: list[list[tuple[ConceptId, int]]] = [[] for _ in range(n)]
    for cid, c in enumerate(spec.concepts):
        if c.layer == 0:
            if c.patterns:
                raise BottomWithPatterns(f"layer-0 concept {c.name!r} must not carry patterns")
            resolved.append(())
            masks.append(())
            continue
        if not c.patterns:
            raise NonBottomWithoutPatterns(f"concept {c.name!r} on layer {c.layer} has no patterns")
        below = c.layer - 1
        off_layer = ~layer_mask.get(below, 0)
        seen: set[frozenset[ConceptId]] = set()
        pats: list[Pattern] = []
        pat_masks: list[int] = []
        for k, elems in enumerate(c.patterns):
            # a pattern's name is formatted only where it is reported
            try:
                ids = [name_to_id[e] for e in elems]
            except (KeyError, TypeError):  # an unknown or unhashable element
                ids = ()
            members = frozenset(ids)
            if not elems or len(members) != len(elems) or type(elems) is str:
                raise _malformed(f"concept {c.name!r} pattern {k}", elems, names)
            # a refused pattern raises, so what it adds to parents is never read
            mask = 0
            owner = (cid, k)
            for eid in ids:
                mask |= 1 << eid
                parents[eid].append(owner)
            if mask & off_layer:
                eid = next(eid for eid in ids if layer_of[eid] != below)
                raise LayerViolation(
                    f"concept {c.name!r} pattern {k}: element {names[eid]!r} is on layer "
                    f"{layer_of[eid]}, expected layer {below}"
                )
            if members in seen:
                raise DuplicatePattern(f"concept {c.name!r} pattern {k} duplicates an earlier pattern of {c.name!r}")
            seen.add(members)
            if len(ids) == 1:
                warnings.append(
                    f"concept {c.name!r} pattern {k} has a single element; it can never be applicable-incomplete"
                )
            # members is a frozenset already, so Pattern's converting __new__ is skipped
            pats.append(tuple.__new__(Pattern, (members,)))
            pat_masks.append(mask)
        resolved.append(tuple(pats))
        masks.append(tuple(pat_masks))

    return ValidatedNetwork(
        spec=spec,
        names=names,
        layer_of=layer_of,
        patterns=tuple(resolved),
        layers={lay: tuple(_ids(layer_mask[lay])) for lay in sorted(layer_mask)},
        parent_index=dict(zip(range(n), map(tuple, parents))),
        name_to_id=name_to_id,
        warnings=tuple(warnings),
        masks=tuple(masks),
    )


def element_parents(net: ValidatedNetwork, cid: ConceptId) -> list[tuple[ConceptId, int]]:
    """All (owner, pattern ordinal) pairs whose pattern contains cid, in owner/ordinal order."""
    net._check(cid)
    return list(net.parent_index.get(cid, ()))
