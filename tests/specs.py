"""Hand-written networks shared by the tests. This module imports no pytest,
so that a test module can also run as a plain script."""
from pathlib import Path

from conceptsim import ConceptSpec, NetworkSpec

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

CANONICAL_SPEC = NetworkSpec(concepts=(
    ConceptSpec("looking", 0),
    ConceptSpec("tasting", 0),
    ConceptSpec("white", 0),
    ConceptSpec("salty", 0),
    ConceptSpec("sweet", 0),
    ConceptSpec("salt", 1, (("tasting", "salty"), ("looking", "white"))),
    ConceptSpec("sugar", 1, (("tasting", "sweet"), ("looking", "white"))),
))

#: two maximal interpretations that cannot merge on the clamp {a, b}: with Z
#: inferred alongside Q1, Q1's pattern {Y, Z} is applicable but incomplete
AMBIGUOUS_SPEC = NetworkSpec((
    ConceptSpec("a", 0), ConceptSpec("b", 0), ConceptSpec("c", 0), ConceptSpec("d", 0),
    ConceptSpec("X", 1, (("a", "b"),)),
    ConceptSpec("Y", 1, (("c", "d"),)),
    ConceptSpec("Z", 1, (("a", "b"),)),
    ConceptSpec("Q1", 2, (("X",), ("Y", "Z"))),
    ConceptSpec("Q2", 2, (("Z",),)),
))

#: names holding everything CSV quoting has to get right: , " \n \r \r\n, a
#: leading space and non-ASCII letters
AWKWARD_SPEC = NetworkSpec(concepts=(
    ConceptSpec("a,b", 0),
    ConceptSpec('say "hi"', 0),
    ConceptSpec("line\nbreak", 0),
    ConceptSpec("car\rriage", 0),
    ConceptSpec(" lead", 0),
    ConceptSpec("crème", 0),
    ConceptSpec("x\r\ny", 1, (("a,b", 'say "hi"'), ("car\rriage", " lead"))),
    ConceptSpec("ünder", 1, (("line\nbreak", "crème"), ("a,b", " lead"))),
    ConceptSpec("\rtop", 2, (("x\r\ny", "ünder"),)),
))
