"""Circuit IR for one writable qubit driven by single-bit controls.

A circuit here is an ordered list of single-qubit gates, each optionally
controlled by one input bit.  For an input x the applied word is the
matrix product of the firing gates, later gates on the left:

    V(x) = V_L(x) ... V_2(x) V_1(x).

The module provides the direct constructions for the second lowest bit
of the input weight (relative-phase and true forms), the inner-product
blocks, a hand-optimized eight-entangling-gate builtin, compilation of
signal-processing angle sequences, and a merging pass that shrinks a
circuit without changing any V(x).

Words are computed on classes of inputs rather than on each input: a run
of consecutive gates with bitwise equal actions on distinct controls
applies its action k times to every input with k of its controls set, so
inputs that agree on such counts share their word bit for bit.  A
compiled circuit has the n+1 weights as its classes, slsb_true and
slsb_relative have 2n, and ip_circuit reaches 2^n only in its last block.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .boolfun import SymmetricSpec
from .qsp import AngleSequence, SignalParams, _I2, _X, _Z, _frozen

_SQ2 = 1.0 / math.sqrt(2.0)

# Shared by every gate and word that uses them, so they are read-only.
_NAMED = {
    "h": _frozen(np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    "x": _X,
    "z": _Z,
    "s": _frozen(np.array([[1, 0], [0, 1j]], dtype=complex)),
}
_ROTATIONS = ("rx", "ry", "rz")
_GATE_NAMES = _ROTATIONS + tuple(_NAMED) + ("matrix",)


def _rx(phi: float) -> np.ndarray:
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(xi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * xi), 0], [0, np.exp(0.5j * xi)]])


_ROTATION_MATRIX = {"rx": _rx, "ry": _ry, "rz": _rz}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_control(control) -> None:
    if control is not None and not _is_int(control):
        raise ValueError(f"control must be an integer, got {control!r}")
    if control is not None and control < 1:
        raise ValueError("control index is 1-based")


@dataclass(frozen=True, eq=False)
class GateSpec:
    """One gate: a 2x2 action, at most one control, and a display label.

    Named gates carry their matrix implicitly; name "matrix" stores an
    explicit unitary.  The control index is 1-based into the input bits.
    """

    name: str
    control: int | None = None
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str = ""
    _action: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.name not in _GATE_NAMES:
            raise ValueError(f"unknown gate name {self.name!r}")
        _check_control(self.control)
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if self.name in _ROTATIONS:
            if self.angle is None:
                raise ValueError(f"{self.name} gate needs an angle")
            if not _is_finite_real(self.angle):
                raise ValueError(
                    f"{self.name} angle must be a finite number, got {self.angle!r}"
                )
        elif self.angle is not None:
            raise ValueError(f"{self.name} gate takes no angle")
        if self.name == "matrix":
            if self.matrix is None:
                raise ValueError("matrix gate needs a matrix")
            try:
                m = np.array(self.matrix, dtype=complex)
            except OverflowError as err:
                raise ValueError(f"gate matrix entries must be finite: {err}") from err
            if m.shape != (2, 2):
                raise ValueError("gate matrix must be 2x2")
            if not np.isfinite(m).all():
                raise ValueError("gate matrix entries must be finite")
            # Finite entries can overflow in the product; its NaN norm is refused.
            with np.errstate(over="ignore", invalid="ignore"):
                defect = np.linalg.norm(m @ m.conj().T - _I2)
            if not defect <= 1e-10:
                raise ValueError("gate matrix is not unitary")
            object.__setattr__(self, "matrix", _frozen(m))
            if not self.label:
                raise ValueError("matrix gate needs a label")
            action = self.matrix
        elif self.matrix is not None:
            raise ValueError(f"{self.name} gate takes no explicit matrix")
        elif self.name in _ROTATIONS:
            action = _frozen(_ROTATION_MATRIX[self.name](self.angle))
        else:
            action = _NAMED[self.name]
        object.__setattr__(self, "_action", action)
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.name in _ROTATIONS:
            return f"{self.name}({_format_angle(self.angle)})"
        return self.name

    @property
    def action(self) -> np.ndarray:
        """The gate's 2x2 unitary, built once and read-only."""
        return self._action

    def with_control(self, control: int | None) -> "GateSpec":
        """This gate under another control, sharing its action and label.

        Only the control is validated: the rest was validated when this
        gate was built, and the action does not depend on the control.
        """
        _check_control(control)
        # Set field by field, in __init__'s order: copy.copy would read
        # __dict__, which leaves both gates with slower attribute reads.
        gate = object.__new__(type(self))
        for name in _GATE_FIELDS:
            object.__setattr__(gate, name, getattr(self, name))
        object.__setattr__(gate, "control", control)
        return gate

    @classmethod
    def rotation(cls, axis: str, angle: float, control: int | None = None) -> "GateSpec":
        return cls(name=f"r{axis}", control=control, angle=float(angle))

    @classmethod
    def named(cls, name: str, control: int | None = None) -> "GateSpec":
        return cls(name=name, control=control)

    @classmethod
    def from_matrix(cls, matrix, label: str, control: int | None = None) -> "GateSpec":
        return cls(name="matrix", control=control, matrix=matrix, label=label)

    def to_json_dict(self) -> dict:
        entries = None
        if self.matrix is not None:
            entries = [[float(v.real), float(v.imag)] for v in self.matrix.ravel()]
        return {
            "control": self.control,
            "name": self.name,
            "angle": self.angle,
            "matrix": entries,
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GateSpec":
        matrix = None
        if data.get("matrix") is not None:
            try:
                flat = [complex(re, im) for re, im in data["matrix"]]
            except TypeError as err:
                raise ValueError(f"matrix entries must be [re, im] pairs: {err}") from err
            except OverflowError as err:
                raise ValueError(f"gate matrix entries must be finite: {err}") from err
            matrix = np.array(flat, dtype=complex).reshape(2, 2)
        return cls(
            name=data["name"],
            control=data.get("control"),
            angle=data.get("angle"),
            matrix=matrix,
            label=data.get("label", ""),
        )


_GATE_FIELDS = tuple(f.name for f in fields(GateSpec))


def _format_angle(theta: float) -> str:
    """Render an angle as a multiple of pi when it is a simple one.

    The multiple is the fraction num/den with den <= 16 closest to
    theta/pi, kept when its float lies within 1e-12 of theta/pi.  One scan
    over den = 1..16 finds it, taking for each den the nearest numerator
    to the fractional part of theta/pi.  The scan runs on that part rather
    than on theta/pi itself because above 2^45 the float spacing of
    theta/pi exceeds 1/240, the least gap between two such fractions, so
    there several of them pass the 1e-12 test and only the closest is the
    multiple.

    Most angles are no such multiple, and one test rejects them before
    the scan: every num/den with den <= 16 is a multiple of 1/720720
    (720720 = lcm(1..16)), so when part * 720720 lies more than 1e-3
    from an integer, every candidate lies at least 1e-3 / 720720 =
    1.39e-9 from part.  Below |theta/pi| = 2^20 the float num/den lies
    within 1.2e-10 of its value, and the product within 1e-10 of its
    own, so the scan's closest candidate misses theta/pi by more than
    1e-12 and the rule above gives repr(theta) too.
    """
    ratio = theta / math.pi
    whole = math.floor(ratio)
    part = ratio - whole
    if abs(ratio) < 2.0**20:
        scaled = part * 720720
        if abs(scaled - round(scaled)) > 1e-3:
            return repr(theta)
    gap = 2.0
    for d in range(1, 17):
        n = round(part * d)
        off = abs(n / d - part)
        if off < gap:
            gap, num, den = off, n, d
    num += whole * den
    if abs(num / den - ratio) >= 1e-12:
        return repr(theta)
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    head = "pi" if num == 1 else f"{num}*pi"
    return f"{sign}{head}" if den == 1 else f"{sign}{head}/{den}"


_ENCODE = json.JSONEncoder().encode

# One gate record as json.dumps(..., indent=2) lays it out in a circuit's
# gate list: the record at depth 2, its keys at depth 3 and, for a matrix
# gate, each [re, im] pair at depth 4 with its numbers at depth 5.
_GATE_TEMPLATE = (
    '{{\n      "control": {},\n      "name": {},\n      "angle": {},\n'
    '      "matrix": {},\n      "label": {}\n    }}'
)
_PAIR_TEMPLATE = "[\n          {},\n          {}\n        ]"


def _gate_text(g: GateSpec) -> str:
    """g.to_json_dict() as json.dumps(..., indent=2) writes it in a circuit.

    The control, the angle and the matrix numbers go through one encoder
    call; none of their texts holds ", ", so splitting on it separates them.
    """
    record = g.to_json_dict()
    values = [record["control"], record["angle"]]
    values += [x for pair in record["matrix"] or () for x in pair]
    control, angle, *entries = _ENCODE(values)[1:-1].split(", ")
    matrix = "null"
    if entries:
        pairs = (_PAIR_TEMPLATE.format(*entries[i : i + 2]) for i in range(0, len(entries), 2))
        matrix = "[\n        " + ",\n        ".join(pairs) + "\n      ]"
    return _GATE_TEMPLATE.format(
        control, _ENCODE(record["name"]), angle, matrix, _ENCODE(record["label"])
    )


@dataclass(frozen=True, eq=False)
class WordClasses:
    """A circuit's words, one per class of inputs that get bitwise one word.

    The controls the circuit uses fall into atoms, masks[j] holding atom
    j's controls (bit c-1 for control c).  An input's class counts its set
    bits in each atom, read as digits with the last atom's lowest: class
    sum_j stride_j * |x & masks[j]|, where stride_j is the product of
    |masks[i]| + 1 over the atoms i after j.  words[k] is the word of every
    input of class k, shape (classes, 2, 2), read-only.
    """

    n: int
    masks: tuple[int, ...]
    words: np.ndarray

    def input_classes(self) -> np.ndarray:
        """The class of every input 0..2^n - 1."""
        return self._grid([1 << bit for bit in reversed(range(self.n))])

    def _grid(self, parts) -> np.ndarray:
        """The class of each count vector over parts, flat in C order.

        Each part is a set of controls inside one atom or outside them all.
        Entry (c_1, ..., c_q) is the class of the inputs with c_i set bits
        in part i.  It is built by doubling, as boolfun.input_weights is,
        from the last part: the entries with count c in a part are those
        below it plus c times the part's stride.  The type is the least
        unsigned one that holds twice the class count, so 2 * class + bit
        does not wrap.
        """
        stride_of = {}
        stride = 1
        for mask in reversed(self.masks):
            stride_of[mask] = stride
            stride *= mask.bit_count() + 1
        index = np.zeros(math.prod(part.bit_count() + 1 for part in parts),
                         dtype=np.min_scalar_type(2 * len(self.words)))
        filled = 1
        for part in reversed(parts):
            stride = next((s for m, s in stride_of.items() if m & part), 0)
            for count in range(1, part.bit_count() + 1):
                np.add(index[:filled], count * stride,
                       out=index[count * filled:(count + 1) * filled])
            filled *= part.bit_count() + 1
        return index


def _word_classes(c: "LimitedSpaceCircuit") -> WordClasses:
    """c's words on the classes its blocks allow, each class through
    exactly the float operations that each of its inputs goes through.

    A block is an uncontrolled gate, or a maximal run of consecutive
    controlled gates whose actions are bitwise equal (identity is tried
    before the bytes) and whose controls are distinct.  A block with
    action A applies A k times in a row to an input with k of its controls
    set, whichever they are.  So an input's word depends only on how many
    of its set bits fall in each atom: the classes of controls that every
    block so far holds whole or misses.  The words live in one
    (2, 2, d_1, ..., d_m) array, axis j counting the set bits of atom j;
    controls no block has touched are no axis.  A block first refines the
    atoms (_refine), so that each atom is inside it or outside it.  Then,
    atom after atom inside it, A goes for t = 1..|atom| to the classes
    with at least t of that atom's controls set, a basic view of its axis.
    A class with k_j of the block's controls set in atom j so gets A
    sum_j k_j times in a row.  Every block of a compile_qsp circuit is one
    atom.
    """
    w = np.zeros((2, 2), dtype=complex)
    w[0, 0] = w[1, 1] = 1
    atoms: list[int] = []
    gates = c.gates
    end = len(gates)
    i = 0
    while i < end:
        g = gates[i]
        action = g._action
        i += 1
        if g.control is None:
            w[...] = np.einsum("ij,jk...->ik...", action, w)
            continue
        block = 1 << (g.control - 1)
        data = None
        while i < end:
            h = gates[i]
            control = h.control
            if control is None:
                break
            bit = 1 << (control - 1)
            if block & bit:
                break
            if h._action is not action:
                if data is None:
                    data = action.tobytes()
                if h._action.tobytes() != data:
                    break
            block |= bit
            i += 1
        if block not in atoms:
            w, atoms = _refine(w, atoms, block)
        for j, atom in enumerate(atoms):
            if atom & block:
                head = (slice(None),) * (2 + j)
                for t in range(1, atom.bit_count() + 1):
                    v = w[head + (slice(t, None),)]
                    v[...] = np.einsum("ij,jk...->ik...", action, v)
    words = np.ascontiguousarray(w.reshape(2, 2, -1).transpose(2, 0, 1))
    return WordClasses(c.n, tuple(atoms), _frozen(words))


def _refine(w: np.ndarray, atoms: list[int], block: int) -> tuple[np.ndarray, list[int]]:
    """Split each atom that block cuts, and add block's fresh controls.

    A cut atom's axis becomes two, the part inside block first, by a
    gather on c_1 + c_2: until now only the sum mattered.  The fresh
    controls become a new last axis, by a broadcast.
    """
    out: list[int] = []
    seen = 0
    for atom in atoms:
        seen |= atom
        inside, outside = atom & block, atom & ~block
        if inside and outside:
            sums = np.add.outer(np.arange(inside.bit_count() + 1),
                                np.arange(outside.bit_count() + 1))
            w = w.take(sums, axis=2 + len(out))
            out += [inside, outside]
        else:
            out.append(atom)
    fresh = block & ~seen
    if fresh:
        w = np.broadcast_to(w[..., None], w.shape + (fresh.bit_count() + 1,)).copy()
        out.append(fresh)
    return w, out


def _defect(a: WordClasses, b: WordClasses) -> float:
    """The largest |V_a(x) - V_b(x)| entry over every input x.

    Read on the classes of the common refinement of both partitions:
    each of its count vectors is that of some input, and fixes the class
    on both sides, so the pairs of words compared are those of the 2^n
    inputs.  With equal partitions the refinement is either one, and the
    classes are compared in their order.
    """
    in_a, in_b = sum(a.masks), sum(b.masks)  # atoms are disjoint
    parts = [x & y for x in a.masks for y in b.masks if x & y]
    parts += [x & ~in_b for x in a.masks if x & ~in_b]
    parts += [y & ~in_a for y in b.masks if y & ~in_a]
    return np.max(np.abs(a.words[a._grid(parts)] - b.words[b._grid(parts)]))


@dataclass(frozen=True, eq=False)
class LimitedSpaceCircuit:
    """An ordered gate list over n input bits plus the one work qubit.

    Gates apply left to right in time; the phase_convention field is a
    free-text note recording what phases the construction promises.
    """

    n: int
    gates: tuple[GateSpec, ...]
    phase_convention: str = ""
    _classes: WordClasses | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("need at least one input bit")
        if not isinstance(self.phase_convention, str):
            raise ValueError(
                f"phase_convention must be a string, got {self.phase_convention!r}"
            )
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.control is not None and g.control > self.n:
                raise ValueError(f"control {g.control} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.gates)

    def words(self) -> WordClasses:
        """The circuit's words, one per class of inputs that get bitwise
        the same word, and each input's class.

        Computed by _word_classes on the first call and kept; every call
        returns the same read-only object.  Input x (index sum x_i
        2^(i-1)) has the word w.words[w.input_classes()[x]], bitwise the
        one its own gate products give.
        """
        if self._classes is None:
            object.__setattr__(self, "_classes", _word_classes(self))
        return self._classes

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "phase_convention": self.phase_convention,
            "gates": [g.to_json_dict() for g in self.gates],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2).

        Each distinct gate object is written once, by _gate_text, and its
        text is repeated at every position it holds.  The layout (keys,
        newlines, indents and separators) is fixed, so only the values
        vary; each is encoded by json's C encoder, whose text for a str,
        int, float or None is the indenting encoder's.  The key order is
        to_json_dict's.
        """
        texts: dict[int, str] = {}
        for g in self.gates:
            if id(g) not in texts:
                texts[id(g)] = _gate_text(g)
        items = ",\n    ".join(texts[id(g)] for g in self.gates)
        head = (f'{{\n  "n": {_ENCODE(self.n)},\n'
                f'  "phase_convention": {_ENCODE(self.phase_convention)},\n  "gates": [')
        return head + (f"\n    {items}\n  " if items else "") + "]\n}"

    @classmethod
    def from_json_dict(cls, data: dict) -> "LimitedSpaceCircuit":
        """Parse a circuit; each distinct gate record becomes one shared GateSpec.

        A record's key is the repr of its name, control and angle plus its
        label, so true, 1 and 1.0 (or -0.0 and 0.0) stay distinct and every
        distinct record is validated.  Records that differ in their control
        alone share one action: the first is built in full and the others
        are its with_control copies, which validate their control.  Records
        with a matrix or a non-string label are parsed one by one.
        """
        if not isinstance(data, dict):
            raise ValueError("circuit must be a JSON object")
        records = data["gates"]
        if not isinstance(records, list) or not all(isinstance(g, dict) for g in records):
            raise ValueError("gates must be a list of objects")
        shared: dict[tuple, GateSpec] = {}
        by_action: dict[tuple, GateSpec] = {}
        gates = []
        for record in records:
            label = record.get("label", "")
            if record.get("matrix") is not None or not isinstance(label, str):
                gates.append(GateSpec.from_json_dict(record))
                continue
            control = record.get("control")
            key = (repr(record["name"]), repr(control), repr(record.get("angle")), label)
            if key not in shared:
                action_key = key[0], key[2], label
                if action_key in by_action:
                    shared[key] = by_action[action_key].with_control(control)
                else:
                    shared[key] = by_action[action_key] = GateSpec.from_json_dict(record)
            gates.append(shared[key])
        return cls(
            n=data["n"],
            gates=tuple(gates),
            phase_convention=data.get("phase_convention", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "LimitedSpaceCircuit":
        try:
            data = json.loads(text)
        except RecursionError as err:
            raise ValueError("circuit JSON is nested too deeply") from err
        return cls.from_json_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LimitedSpaceCircuit":
        with open(path) as fh:
            return cls.from_json(fh.read())


def entangling_count(c: LimitedSpaceCircuit) -> int:
    """Number of gates that carry a control."""
    return sum(1 for g in c.gates if g.control is not None)


_HX_FIG = _NAMED["x"] @ _NAMED["h"]
_XH = _NAMED["h"] @ _NAMED["x"]
_XSDG = _NAMED["s"].conj().T @ _NAMED["x"]


def slsb_relative(n: int) -> LimitedSpaceCircuit:
    """Relative-phase circuit for the second lowest weight bit, 2n-1 gates.

    Time order: controlled hx on x_n..x_2 (hx applies h then x, matrix
    X@H), controlled z on x_1, controlled h on x_2..x_n.  The applied
    word is H^w (XH)^w for weight w, cycling through eight matrices
    I, Z, -iY, -X, -I, -Z, iY, X and measuring the pattern 00110011...
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gates = [GateSpec.from_matrix(_HX_FIG, "hx", control=k) for k in range(n, 1, -1)]
    gates.append(GateSpec.named("z", control=1))
    gates.extend(GateSpec.named("h", control=k) for k in range(2, n + 1))
    return LimitedSpaceCircuit(
        n=n,
        gates=tuple(gates),
        phase_convention="relative phase; V(x) = H^|x| (XH)^|x|",
    )


def slsb_true(n: int) -> LimitedSpaceCircuit:
    """True circuit for the second lowest weight bit, 4n-2 gates.

    Built from the word identity (iX)^f(x) = H^w (HX)^w S^w (SdgX)^w
    with w = |x|.  Time order runs the SdgX block first and the H block
    last; on x_1 the two inner block pairs collapse to controlled X
    gates, which is where 4n drops to 4n-2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gates = [GateSpec.from_matrix(_XSDG, "xsdg", control=k) for k in range(n, 1, -1)]
    gates.append(GateSpec.named("x", control=1))
    gates.extend(GateSpec.named("s", control=k) for k in range(2, n + 1))
    gates.extend(GateSpec.from_matrix(_XH, "xh", control=k) for k in range(n, 1, -1))
    gates.append(GateSpec.named("x", control=1))
    gates.extend(GateSpec.named("h", control=k) for k in range(2, n + 1))
    return LimitedSpaceCircuit(
        n=n,
        gates=tuple(gates),
        phase_convention="true; V(x) = (iX)^f(x)",
    )


_FIG1_POSITIONS = (
    (None, (("rz", -math.pi), ("rx", -math.pi / 4))),
    (1, (("rx", math.pi / 2),)),
    (2, (("rx", math.pi / 2),)),
    (3, (("rx", math.pi / 2),)),
    (None, (("rz", math.pi / 2), ("rx", -math.pi / 2))),
    (1, (("rx", math.pi),)),
    (2, (("rx", math.pi),)),
    (None, (("ry", math.pi / 2),)),
    (3, (("rx", math.pi / 2),)),
    (None, (("ry", -math.pi / 2), ("rz", 3 * math.pi / 4))),
    (2, (("rx", math.pi),)),
    (1, (("rx", math.pi),)),
    (None, (("rx", -math.pi / 2), ("rz", -math.pi / 4))),
)


def builtin_slsb3_fig1() -> LimitedSpaceCircuit:
    """Hand-optimized true circuit for the 3-bit case, 8 entangling gates.

    Thirteen positions of axis rotations; composite uncontrolled
    positions are split into consecutive gates, left label applied
    first, which the exactness test pins down numerically.  The printed
    rotations alone land on R_z(pi/4) (iX)^f(x), one constant phase shy
    of a true word on every input, so a final uncontrolled R_z(-pi/4)
    squares that up; the entangling count stays at eight.
    """
    gates = []
    for control, parts in _FIG1_POSITIONS:
        for axis_name, angle in parts:
            gates.append(GateSpec(name=axis_name, control=control, angle=angle))
    gates.append(GateSpec.rotation("z", -math.pi / 4))
    return LimitedSpaceCircuit(
        n=3,
        gates=tuple(gates),
        phase_convention="true; V(x) = (iX)^f(x)",
    )


def ip_circuit(n: int) -> LimitedSpaceCircuit:
    """Relative-phase inner product of paired bits, 3n/2 entangling gates.

    Each pair (x_odd, x_even) contributes one relative-phase product
    block: ry(pi/4), cx(even), ry(pi/4), cx(odd), ry(-pi/4), cx(even),
    ry(-pi/4).  Uncontrolled rotations are free in this model.
    """
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    quarter = math.pi / 4
    gates = []
    for k in range(n // 2):
        odd, even = 2 * k + 1, 2 * k + 2
        gates.append(GateSpec.rotation("y", quarter))
        gates.append(GateSpec.named("x", control=even))
        gates.append(GateSpec.rotation("y", quarter))
        gates.append(GateSpec.named("x", control=odd))
        gates.append(GateSpec.rotation("y", -quarter))
        gates.append(GateSpec.named("x", control=even))
        gates.append(GateSpec.rotation("y", -quarter))
    return LimitedSpaceCircuit(
        n=n,
        gates=tuple(gates),
        phase_convention="relative phase; blockwise product words",
    )


def compile_qsp(
    f: SymmetricSpec, xi: AngleSequence, params: SignalParams
) -> LimitedSpaceCircuit:
    """Expand an angle sequence into controlled x-rotations.

    The processed signal rotation R_x(phi_x) with phi_x = step*|x| -
    offset becomes n controlled R_x(step) gates plus one uncontrolled
    R_x(-offset).  Groups are emitted for j = L..1 (the j = L group acts
    first), each as R_z(-xi_j), the signal block, R_z(xi_j), and the
    final R_z(xi_0) closes the word.  Zero rotations are skipped.  When
    f(0) = 1 the synthesized word computes the complement, so a trailing
    X restores the function.
    """
    if xi.L != params.L:
        raise ValueError(f"angle sequence has L={xi.L} but params expect L={params.L}")
    # Every layer holds the same signal block, so its gates are built once
    # and each object sits at L positions; the block's gates share one action.
    signal = GateSpec.rotation("x", params.step, control=1)
    block = [signal] + [signal.with_control(k) for k in range(2, f.n + 1)]
    if params.offset != 0.0:
        block.append(GateSpec.rotation("x", -params.offset))
    gates = []
    for j in range(params.L, 0, -1):
        angle = float(xi.xi[j])
        if angle != 0.0:
            gates.append(GateSpec.rotation("z", -angle))
        gates.extend(block)
        if angle != 0.0:
            gates.append(GateSpec.rotation("z", angle))
    if float(xi.xi[0]) != 0.0:
        gates.append(GateSpec.rotation("z", float(xi.xi[0])))
    note = "relative phase; V(x) = U(step*|x| - offset)"
    if f.by_weight[0] == 1:
        gates.append(GateSpec.named("x"))
        note += ", complemented by a trailing x"
    return LimitedSpaceCircuit(n=f.n, gates=tuple(gates), phase_convention=note)


_MERGE_TOL = 1e-12


def _merged_gate(run: list[GateSpec]) -> GateSpec | None:
    """Collapse a same-control run into one gate, or None for identity."""
    if len(run) == 1:
        gate = run[0]
        if gate.name == "matrix" and np.linalg.norm(gate.action - _I2) <= _MERGE_TOL:
            return None
        return gate
    control = run[0].control
    names = {g.name for g in run}
    if len(names) == 1 and run[0].name in _ROTATIONS:
        total = float(sum(g.angle for g in run))
        if abs(total) <= _MERGE_TOL:
            return None
        return GateSpec.rotation(run[0].name[1], total, control=control)
    action = _I2
    for g in run:
        action = g.action @ action
    if np.linalg.norm(action - _I2) <= _MERGE_TOL:
        return None
    for name, matrix in _NAMED.items():
        if np.linalg.norm(action - matrix) <= _MERGE_TOL:
            return GateSpec.named(name, control=control)
    label = "+".join(g.label for g in run)
    return GateSpec.from_matrix(action, label, control=control)


def _collapse_into(out: list[GateSpec], run: list[GateSpec]) -> None:
    """Append run's merged gate to out, if it is not the identity.

    A one-gate run other than a matrix gate passes straight through,
    as _merged_gate would return it; a lone matrix gate still goes there
    for its identity check.
    """
    if len(run) == 1 and run[0].name != "matrix":
        out.append(run[0])
        return
    merged = _merged_gate(run)
    if merged is not None:
        out.append(merged)


def _pass_same_control_runs(gates: list[GateSpec]) -> list[GateSpec]:
    """Collapse each maximal run of consecutive gates with one control."""
    out: list[GateSpec] = []
    for _, run in itertools.groupby(gates, key=attrgetter("control")):
        _collapse_into(out, list(run))
    return out


def _pass_commuting_runs(
    gates: list[GateSpec], commutes: dict[tuple[bytes, bytes], bool]
) -> list[GateSpec]:
    """Group same-control gates inside maximal pairwise-commuting runs.

    A candidate bitwise equal to an action already in the run joins it
    unchecked: it commutes with itself, and against every other member
    its commutator is its twin's up to sign, whose norm was already
    checked.  Keying the run by action bytes also checks a new action
    once per distinct member, and commutes keeps each decision, keyed by
    the two actions' bytes, for the later passes.  Each control's group
    goes through _collapse_into.
    """
    out: list[GateSpec] = []
    i = 0
    while i < len(gates):
        first = gates[i].action
        actions = {first.tobytes(): first}
        j = i + 1
        while j < len(gates):
            candidate = gates[j].action
            key = candidate.tobytes()
            if key not in actions:
                if not all(
                    _commute(candidate, a, (key, a_key), commutes)
                    for a_key, a in actions.items()
                ):
                    break
                actions[key] = candidate
            j += 1
        by_control: dict[int | None, list[GateSpec]] = {}
        for g in gates[i:j]:
            by_control.setdefault(g.control, []).append(g)
        for same in by_control.values():
            _collapse_into(out, same)
        i = j
    return out


def _commute(a: np.ndarray, b: np.ndarray, key: tuple[bytes, bytes], seen: dict) -> bool:
    """Whether ||ab - ba|| <= _MERGE_TOL, decided once per key in seen."""
    if key not in seen:
        seen[key] = bool(np.linalg.norm(a @ b - b @ a) <= _MERGE_TOL)
    return seen[key]


def merge_adjacent(c: LimitedSpaceCircuit) -> LimitedSpaceCircuit:
    """Shrink a circuit without changing any applied word.

    Repeats two reductions to a fixed point: collapsing consecutive
    gates that share a control (uncontrolled runs included), and
    regrouping within runs whose actions all pairwise commute, where
    reordering is free.  Identity gates are dropped; phase multiples of
    the identity are kept because a controlled phase changes the word.
    Within one call each pair of distinct actions is tested for
    commutation once.  A gate alone in its run (other than a matrix
    gate) passes through as the same object, so compile_qsp's signal
    block keeps its one shared action, and the block scan of the merged
    circuit's words compares it by identity.  The result is verified
    against the input on every input, read on both circuits' word
    classes (_defect): for a compiled circuit, raw and merged, the n+1
    weights.
    """
    gates = list(c.gates)
    commutes: dict[tuple[bytes, bytes], bool] = {}
    while True:
        before = len(gates)
        gates = _pass_same_control_runs(gates)
        gates = _pass_commuting_runs(gates, commutes)
        if len(gates) >= before:
            break
    merged = LimitedSpaceCircuit(
        n=c.n, gates=tuple(gates), phase_convention=c.phase_convention
    )
    defect = _defect(merged.words(), c.words())
    if not defect <= 1e-10:
        raise RuntimeError(f"merge changed the circuit, defect {defect:.3e}")
    return merged
