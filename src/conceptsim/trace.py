"""Trace files: the trace CSV and the ASCII timeline.

They live apart from io.py because only `render`, and `run` under --render
or --trace, use them, and a call run without cached bytecode compiles every
module it imports. Only errors is imported at module level, so `render`
loads no other module of the package; the writers import model's mask
helpers on use.
"""
from __future__ import annotations

from enum import Enum
from io import StringIO
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .errors import ParseError, SchemaMismatch

if TYPE_CHECKING:
    from .engine import Snapshot, Trace


class UnitKind(Enum):
    CONCEPT = "concept"
    OMISSION = "omission"
    COMMISSION = "commission"


#: each kind's place in trace order, its declaration order above
_KIND_ORDER = {kind: order for order, kind in enumerate(UnitKind)}

CSV_HEADER = ("phase", "sweep", "kind", "name", "value")


class TraceRow(NamedTuple):
    phase: int
    sweep: int
    kind: UnitKind
    name: str
    value: int

    def sort_key(self):
        return (self.phase, self.sweep, _KIND_ORDER[self.kind], self.name)


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


def _csv_field(text: str) -> str:
    r"""One CSV field: quoted, with quotes doubled, iff it holds , " \n or \r.

    This is csv.writer's minimal quoting, except that csv.writer before
    Python 3.13 leaves \r unquoted under the "\n" line terminator, and
    csv.reader then refuses the line.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(trace: Trace) -> str:
    """Render a trace as CSV with the fixed header, in canonical order.

    Loops run phase, sweep, kind, name, with names sorted once: that is
    TraceRow.sort_key's order, since names are unique. Each kind keeps its
    lines without their prefix, "<name field>,<value>\n", in name order, and
    each snapshot replaces only the lines of units whose bit changed since
    the last. A kind's lines start with "", so joining them with the prefix
    puts the prefix before every line, and a kind without units adds nothing.

    Its tables, by concept id: the 0 and 1 lines, quoted by _csv_field only
    when one scan of the joined names finds a character it quotes; and each
    unit's position in its kind's lines, an inverse permutation of the name
    order, and one of the error units that omission and commission share.

    Each block is appended to text, not kept for a final join: CPython grows
    a str in place while one name alone refers to it, so the write holds its
    text plus one block, not two full copies. A second reference to text
    would copy it whole on every append; test_io.py's
    test_trace_csv_peak_memory_stays_near_the_text_size then fails.
    """
    from .model import _bit_bytes, _ids

    net = trace.net
    n, fields = net.n_concepts, net.names
    order = sorted(range(n), key=net.names.__getitem__)
    if any(map("".join(fields).__contains__, ',"\n\r')):
        fields = [*map(_csv_field, fields)]
    zeros = [field + ",0\n" for field in fields]
    ones = [field + ",1\n" for field in fields]
    below_top = _bit_bytes(net.below_top, n)
    error_units = [c for c in order if below_top[c]]
    concept_at, error_at = [0] * n, [0] * n
    for i, c in enumerate(order, 1):
        concept_at[c] = i
    for i, c in enumerate(error_units, 1):
        error_at[c] = i
    # in UnitKind's order, (kind, its lines, each unit's position in them by
    # id, the units that have that kind), the lines at first the 0 lines after a ""
    kinds = [(UnitKind.CONCEPT.value, ["", *map(zeros.__getitem__, order)], concept_at, (1 << n) - 1)]
    for kind in (UnitKind.OMISSION, UnitKind.COMMISSION):
        kinds.append((kind.value, ["", *map(zeros.__getitem__, error_units)], error_at, net.below_top))
    shown = [0] * len(kinds)  # the bits each kind's lines hold now
    text = _HEADER_LINE
    for pi, phase in enumerate(trace.phases):
        for si, snap in enumerate(phase.snapshots):
            masks = (snap.active, snap.omitted, snap.committed)  # in UnitKind's order
            for i, (kind, lines, at, units) in enumerate(kinds):
                bits = masks[i] & units
                for c in _ids(bits & ~shown[i]):
                    lines[at[c]] = ones[c]
                for c in _ids(shown[i] & ~bits):
                    lines[at[c]] = zeros[c]
                shown[i] = bits
                text += f"{pi},{si},{kind},".join(lines)
    return text


def read_trace_csv(text: str) -> list[TraceRow]:
    """Parse a trace CSV back into canonically sorted rows (lossless round-trip)."""
    import csv  # only render reads a trace back

    reader = csv.reader(StringIO(text))
    try:
        return _read_rows(reader)
    except csv.Error as e:
        raise ParseError(f"line {reader.line_num}: {e}") from None


def _read_rows(reader) -> list[TraceRow]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch("missing header row") from None
    if tuple(header) != CSV_HEADER:
        raise SchemaMismatch(f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
    kinds = {k.value: k for k in UnitKind}
    rows: list[TraceRow] = []
    seen: set[tuple] = set()
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(record)}")
        phase_s, sweep_s, kind_s, name, value_s = record
        try:
            phase, sweep, value = int(phase_s), int(sweep_s), int(value_s)
        except ValueError:
            phase = None
        # int() also takes "+1", " 1", "1_0", "01" and non-ASCII digits; only
        # the form str() writes back is accepted
        if phase is None or (str(phase), str(sweep), str(value)) != (phase_s, sweep_s, value_s):
            raise ParseError(f"line {lineno}: phase, sweep and value must be integers in ASCII digits")
        if phase < 0 or sweep < 0:
            raise SchemaMismatch(f"line {lineno}: negative phase or sweep index")
        if kind_s not in kinds:
            raise SchemaMismatch(f"line {lineno}: unknown kind {kind_s!r}")
        if value not in (0, 1):
            raise SchemaMismatch(f"line {lineno}: value must be 0 or 1")
        if not name:
            raise SchemaMismatch(f"line {lineno}: empty unit name")
        key = (phase, sweep, kind_s, name)
        if key in seen:
            raise SchemaMismatch(f"line {lineno}: duplicate row for {key}")
        seen.add(key)
        rows.append(TraceRow(phase, sweep, kinds[kind_s], name, value))
    rows.sort(key=TraceRow.sort_key)
    return rows


#: the code of a phase separator, above every cell's code: bit 1 << order
#: for each kind of the cell's units that is on
_SEPARATOR = 8
#: bytes.translate table from a cell's code to its character: commission wins
#: over omission, which wins over activity
_CELL_CHARS = b".#ggoooo|".ljust(256, b"?")


def render_ascii_timeline(trace: Union[Trace, Iterable[TraceRow]]) -> str:
    """One row per unit, one column per sweep, phases separated by '|'.

    Characters: '#' concept active, 'o' commission error (the unit is active),
    'g' omission error (the unit is inactive), '.' inactive. The three unit
    kinds of one concept collapse into one row without loss: omission implies
    inactive and commission implies active.

    A Trace draws a row for every concept of its net, and no error bit of a
    top-layer concept, which has no error units. Rows, in any order, draw a
    row for each name they hold and a column for each (phase, sweep) they
    hold: a cell no row gives reads as 0, and of two rows for one cell the
    later one counts. An empty trace raises ValueError.

    Both become the unit names and per phase its columns, one code byte per
    unit. A separator column goes between nonempty phases, and all are joined
    and translated once: a unit's line is then every n-th character.
    """
    return "\n".join(_timeline_rows(trace))


def _timeline_rows(trace: Union[Trace, Iterable[TraceRow]]) -> list[str]:
    """render_ascii_timeline's lines, one per unit in name order, each whole
    even where a name holds a line break."""
    names, phases = _trace_columns(trace) if hasattr(trace, "phases") else _row_columns(trace)
    n = len(names)
    columns: list[bytes] = []
    for phase in phases:
        if columns and phase:
            columns.append(bytes([_SEPARATOR]) * n)
        columns += phase
    if not columns or not n:
        raise ValueError("cannot render an empty trace")
    joined = b"".join(columns).translate(_CELL_CHARS).decode("ascii")
    width = max(map(len, names))
    return [f"{names[c]:<{width}} " + joined[c::n] for c in sorted(range(n), key=names.__getitem__)]


def _trace_columns(trace: Trace) -> tuple[Sequence[str], Iterable[list[bytes]]]:
    """Every concept's name, and per phase a column per snapshot, built at C
    speed: _bit_bytes spreads each kind's mask, the error masks cut to
    net.below_top, to one 0/1 byte per concept, so as little-endian ints
    they combine, shifted by the kind's order, into one code byte each."""
    from .model import _bit_bytes

    net = trace.net
    n, below_top = net.n_concepts, net.below_top

    def column(snap: Snapshot) -> bytes:
        code = 0
        # the masks in UnitKind's order
        for order, mask in enumerate((snap.active, snap.omitted & below_top, snap.committed & below_top)):
            code |= int.from_bytes(_bit_bytes(mask, n), "little") << order
        return code.to_bytes(n, "little")

    return net.names, ([column(snap) for snap in phase.snapshots] for phase in trace.phases)


def _row_columns(rows: Iterable[TraceRow]) -> tuple[list[str], list[list[bytearray]]]:
    """The names rows hold, and per phase a column per sweep they hold, each
    row written into its byte of its column."""
    rows = list(rows)
    at = {name: i for i, name in enumerate(dict.fromkeys(r.name for r in rows))}
    phases: dict[int, dict[int, bytearray]] = {}
    for phase, sweep in sorted({(r.phase, r.sweep) for r in rows}):
        phases.setdefault(phase, {})[sweep] = bytearray(len(at))
    for phase, sweep, kind, name, value in rows:
        column, i, bit = phases[phase][sweep], at[name], 1 << _KIND_ORDER[kind]
        column[i] = column[i] | bit if value else column[i] & ~bit
    return list(at), [list(sweeps.values()) for sweeps in phases.values()]
