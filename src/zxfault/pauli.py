"""Phase-free Pauli group over named locations.

Elements are maps ``location -> letter`` with letters in ``{X, Y, Z}``;
identity letters are never stored.  The group multiplication discards phases,
so every element is self-inverse and the group is commutative.
"""

from __future__ import annotations

from typing import Iterable, Mapping

LETTERS = ("X", "Y", "Z")

# Product table of the quotient group: XZ = Y etc., phases discarded.
_MUL = {
    ("X", "Y"): "Z",
    ("Y", "X"): "Z",
    ("X", "Z"): "Y",
    ("Z", "X"): "Y",
    ("Y", "Z"): "X",
    ("Z", "Y"): "X",
}


class PauliString:
    """Immutable phase-free Pauli string over hashable location ids."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[object, str] | Iterable[tuple[object, str]] = ()):
        items = dict(entries)
        for loc, letter in items.items():
            if letter not in LETTERS:
                raise ValueError(f"invalid Pauli letter {letter!r} at {loc!r}")
        self._entries = frozenset(items.items())
        self._hash = hash(self._entries)

    @property
    def entries(self) -> dict:
        return dict(self._entries)

    @property
    def support(self) -> frozenset:
        return frozenset(loc for loc, _ in self._entries)

    def letter(self, loc) -> str:
        for l, p in self._entries:
            if l == loc:
                return p
        return "I"

    def __mul__(self, other: "PauliString") -> "PauliString":
        a, b = self.entries, other.entries
        out = {}
        for loc in set(a) | set(b):
            la, lb = a.get(loc), b.get(loc)
            if la is None:
                out[loc] = lb
            elif lb is None:
                out[loc] = la
            elif la != lb:
                out[loc] = _MUL[(la, lb)]
            # equal letters cancel
        return PauliString(out)

    def commutes(self, other: "PauliString") -> bool:
        a, b = self.entries, other.entries
        anti = 0
        for loc, la in a.items():
            lb = b.get(loc)
            if lb is not None and lb != la:
                anti += 1
        return anti % 2 == 0

    def weight(self) -> int:
        """Support size (number of non-identity entries)."""
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliString) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PauliString({self.to_text()!r})"

    def sort_key(self):
        return tuple(sorted((str(l), p) for l, p in self._entries))

    def to_text(self) -> str:
        """Textual form: semicolon-separated ``location:letter`` pairs."""
        return ";".join(f"{l}:{p}" for l, p in sorted(self._entries, key=lambda e: str(e[0])))

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        text = text.strip()
        if not text:
            return cls()
        out = {}
        for part in text.split(";"):
            loc, _, letter = part.partition(":")
            loc, letter = loc.strip(), letter.strip()
            if not loc or letter not in LETTERS + ("I",):
                raise ValueError(f"bad Pauli term {part!r}")
            if letter != "I":
                out[loc] = letter
        return cls(out)


IDENTITY = PauliString()
