"""Phase-free Pauli group over named locations.

An element is a pair of integer bitmasks ``(x, z)`` with one bit per
location: X is (1, 0), Z is (0, 1) and Y is (1, 1) at a location's bit (the
symplectic form of Aaronson and Gottesman, quant-ph/0406196).  The group
multiplication discards phases, so it is an XOR of the masks, every element
is self-inverse and the group is commutative.  :class:`Nibbles` packs the
Paulis over a fixed set of locations as one int each, ordered as
:meth:`PauliString.sort_key` orders them.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Mapping

LETTERS = ("X", "Y", "Z")

_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LOCS: list = []          # bit 2k + 1 -> _LOCS[k], for other than small ints
_INDEX: dict = {}         # location -> k, append-only and process-wide
# Python hashes an int mod 2**61 - 1, under which 2**k repeats every 61 bits,
# so a Pauli hashes its masks mod this safe prime p, under which 2**k repeats
# only every (p - 1) / 2 = 536,870,219 bits.
_HASH_PRIME = 2**30 - 1385


def _bit(loc) -> int | None:
    """Bit 2n for an int n in [0, 2**16), as an edge id, so that a diagram's
    faults are as wide whatever came before; else the location's odd table
    bit, or None for one the table has never seen."""
    if isinstance(loc, Integral) and 0 <= loc < 1 << 16:
        return 2 * int(loc)
    k = _INDEX.get(loc)
    return None if k is None else 2 * k + 1


def _place(loc) -> int:
    """The location's bit, given the next odd table bit if it has none."""
    i = _bit(loc)
    if i is None:
        _INDEX[loc] = len(_LOCS)
        _LOCS.append(loc)
        i = 2 * len(_LOCS) - 1
    return i


class PauliString:
    """Immutable phase-free Pauli string over hashable location ids."""

    __slots__ = ("_x", "_z")

    def __init__(self, entries: Mapping[object, str] | Iterable[tuple[object, str]] = ()):
        x = z = 0
        for loc, letter in dict(entries).items():
            if letter not in LETTERS:
                raise ValueError(f"invalid Pauli letter {letter!r} at {loc!r}")
            b = 1 << _place(loc)
            if letter != "Z":
                x |= b
            if letter != "X":
                z |= b
        self._x, self._z = x, z

    @classmethod
    def from_xz(cls, x: int, z: int) -> "PauliString":
        """The Pauli with the given (x, z) bitmasks, as :attr:`xz` gives them."""
        p = object.__new__(cls)
        p._x, p._z = x, z
        return p

    @property
    def xz(self) -> tuple[int, int]:
        """The (x, z) bitmasks, one bit per location."""
        return self._x, self._z

    @property
    def entries(self) -> dict:
        x, z, m, out = self._x, self._z, self._x | self._z, {}
        while m:
            i = (m & -m).bit_length() - 1
            loc = _LOCS[i >> 1] if i & 1 else i >> 1
            out[loc] = _LETTER[(x >> i & 1, z >> i & 1)]
            m &= m - 1
        return out

    def locations(self) -> list:
        """The non-identity locations, from the highest bit down."""
        m, out = self._x | self._z, []
        while m:
            i = m.bit_length() - 1
            out.append(_LOCS[i >> 1] if i & 1 else i >> 1)
            m ^= 1 << i
        return out

    @property
    def support(self) -> frozenset:
        return frozenset(self.locations())

    def letter(self, loc) -> str:
        i = _bit(loc)
        if i is None:
            return "I"
        return _LETTER[(self._x >> i & 1, self._z >> i & 1)]

    def __mul__(self, other: "PauliString") -> "PauliString":
        return PauliString.from_xz(self._x ^ other._x, self._z ^ other._z)

    def commutes(self, other: "PauliString") -> bool:
        return not ((self._x & other._z) ^ (self._z & other._x)).bit_count() & 1

    def weight(self) -> int:
        """Support size (number of non-identity entries)."""
        return (self._x | self._z).bit_count()

    def __bool__(self) -> bool:
        return bool(self._x | self._z)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString)
                and self._x == other._x and self._z == other._z)

    def __hash__(self) -> int:
        return hash((self._x % _HASH_PRIME, self._z % _HASH_PRIME))

    def __repr__(self) -> str:
        return f"PauliString({self.to_text()!r})"

    def sort_key(self):
        return tuple(sorted((str(l), p) for l, p in self.entries.items()))

    def to_text(self) -> str:
        """Textual form: semicolon-separated ``location:letter`` pairs."""
        return ";".join(f"{l}:{p}" for l, p in self.sort_key())

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        text = text.strip()
        if not text:
            return cls()
        out, seen = {}, set()
        for part in text.split(";"):
            loc, _, letter = part.partition(":")
            loc, letter = loc.strip(), letter.strip()
            if not loc or letter not in LETTERS + ("I",):
                raise ValueError(f"bad Pauli term {part!r}")
            if loc in seen:
                raise ValueError(f"repeated Pauli location {loc!r}")
            seen.add(loc)
            if letter != "I":
                out[loc] = letter
        return cls(out)


# hex digits 1, 3, 2 and 0 of a packed location as letters that order like
# sort_key's: X < Y < Z < no letter there
_NIBBLE_ORDER = str.maketrans("0132", "dabc")


class Nibbles:
    """Paulis over a fixed set of locations, packed as one int each.

    The location of rank r owns the four bits from bit 4r, of which bit 4r
    is its X bit and bit 4r + 1 its Z bit.  Ranks follow ``str(loc)``, as
    :meth:`PauliString.sort_key` does, so a product is an XOR of packed
    ints and :meth:`key` orders them as ``sort_key`` orders the Paulis."""

    __slots__ = ("_masks", "_rank")

    def __init__(self, paulis: Iterable[PauliString]):
        m, bits = 0, []
        for p in paulis:
            m |= p._x | p._z
        while m:
            bits.append((m & -m).bit_length() - 1)
            m &= m - 1
        bits.sort(key=lambda i: str(_LOCS[i >> 1] if i & 1 else i >> 1))
        self._masks = [1 << i for i in bits]      # rank -> location's bit
        self._rank = {i: r for r, i in enumerate(bits)}

    def pack(self, p: PauliString) -> int:
        """p as a packed int; KeyError if p has a location outside the set."""
        k, m = 0, p._x | p._z
        while m:
            i = (m & -m).bit_length() - 1
            k |= (p._x >> i & 1 | (p._z >> i & 1) << 1) << 4 * self._rank[i]
            m &= m - 1
        return k

    def unpack(self, k: int) -> PauliString:
        x = z = 0
        masks = self._masks
        while k:  # from the top rank down
            r = k.bit_length() - 1 >> 2
            nibble = k >> 4 * r
            if nibble & 1:
                x |= masks[r]
            if nibble & 2:
                z |= masks[r]
            k ^= nibble << 4 * r
        return PauliString.from_xz(x, z)

    @staticmethod
    def key(k: int) -> str:
        """Sort key of a packed Pauli: reversed, its hex digits list the
        ranks from 0 up to its last letter, so a shorter string is a prefix
        of the longer ones that extend it, as in ``sort_key``'s tuples."""
        return format(k, "x")[::-1].translate(_NIBBLE_ORDER)


IDENTITY = PauliString()
