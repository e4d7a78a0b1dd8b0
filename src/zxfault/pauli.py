"""Phase-free Pauli group over named locations.

An element is a pair of integer bitmasks ``(x, z)`` with one bit per
location: X is (1, 0), Z is (0, 1) and Y is (1, 1) at a location's bit (the
symplectic form of Aaronson and Gottesman, quant-ph/0406196).  The group
multiplication discards phases, so it is an XOR of the masks, every element
is self-inverse and the group is commutative.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Mapping

LETTERS = ("X", "Y", "Z")

_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LOCS: list = []          # bit 2k + 1 -> _LOCS[k], for other than small ints
_INDEX: dict = {}         # location -> k, append-only and process-wide


def _place(loc) -> int:
    """Bit 2n for an int n in [0, 2**16), as an edge id, so that a diagram's
    faults are as wide whatever came before; else the next odd table bit."""
    if isinstance(loc, Integral) and 0 <= loc < 1 << 16:
        return 2 * int(loc)
    if loc not in _INDEX:
        _INDEX[loc] = len(_LOCS)
        _LOCS.append(loc)
    return 2 * _INDEX[loc] + 1


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

    @property
    def support(self) -> frozenset:
        m, out = self._x | self._z, []
        while m:
            i = (m & -m).bit_length() - 1
            out.append(_LOCS[i >> 1] if i & 1 else i >> 1)
            m &= m - 1
        return frozenset(out)

    def letter(self, loc) -> str:
        return self.entries.get(loc, "I")

    def __mul__(self, other: "PauliString") -> "PauliString":
        p = object.__new__(PauliString)
        p._x, p._z = self._x ^ other._x, self._z ^ other._z
        return p

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
        return hash((self._x, self._z))

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


IDENTITY = PauliString()
