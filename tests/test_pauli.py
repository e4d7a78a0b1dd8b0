import pytest
from hypothesis import given, strategies as st

from zxfault.pauli import IDENTITY, PauliString


def P(text):
    return PauliString.from_text(text)


def test_mul_same_location():
    assert P("e1:X") * P("e1:Z") == P("e1:Y")
    assert P("e1:X") * P("e1:X") == IDENTITY
    assert P("e1:X") * P("e2:Z") == P("e1:X;e2:Z")


def test_commutes():
    assert not P("e1:X").commutes(P("e1:Z"))
    assert P("e1:X").commutes(P("e1:X"))
    assert P("e1:X;e2:X").commutes(P("e1:Z;e2:Z"))


def test_weight():
    assert IDENTITY.weight() == 0
    assert P("e2:X;e3:Y;e4:Z").weight() == 3
    assert P("e1:Y").weight() == 1


def test_text_round_trip():
    p = P("e1:X;e3:Z")
    assert p.to_text() == "e1:X;e3:Z"
    assert PauliString.from_text(p.to_text()) == p
    assert P("").to_text() == ""


def test_rejects_bad_letter():
    for loc, bad in [("e1", "Q"), ((0, 1), "I"), (3, "x"), ("e2", "")]:
        with pytest.raises(ValueError):
            PauliString({loc: bad})


locs = st.sampled_from(["a", "b", "c", "d"])
letters = st.sampled_from(["X", "Y", "Z"])
paulis = st.dictionaries(locs, letters, max_size=4).map(PauliString)


@given(paulis, paulis, paulis)
def test_group_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * a == IDENTITY


@given(paulis, paulis, paulis)
def test_commutation_bilinearity(a, b, c):
    assert a.commutes(b) == b.commutes(a)
    assert a.commutes(b * c) == (a.commutes(b) == a.commutes(c))


@given(paulis, paulis)
def test_weight_subadditive(a, b):
    assert (a * b).weight() <= a.weight() + b.weight()


# -- differential test against the letter-table encoding -------------------------

_MUL = {
    ("X", "Y"): "Z",
    ("Y", "X"): "Z",
    ("X", "Z"): "Y",
    ("Z", "X"): "Y",
    ("Y", "Z"): "X",
    ("Z", "Y"): "X",
}


class LetterPauli:
    """Reference encoding: a frozenset of (location, letter) pairs multiplied
    through the letter product table, phases discarded."""

    def __init__(self, entries=()):
        items = dict(entries)
        for loc, letter in items.items():
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"invalid Pauli letter {letter!r} at {loc!r}")
        self._entries = frozenset(items.items())

    @property
    def entries(self) -> dict:
        return dict(self._entries)

    @property
    def support(self) -> frozenset:
        return frozenset(loc for loc, _ in self._entries)

    def letter(self, loc) -> str:
        return self.entries.get(loc, "I")

    def __mul__(self, other):
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
        return LetterPauli(out)

    def commutes(self, other) -> bool:
        a, b = self.entries, other.entries
        anti = sum(1 for loc, la in a.items() if b.get(loc) not in (None, la))
        return anti % 2 == 0

    def weight(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return self._entries == other._entries

    def sort_key(self):
        return tuple(sorted((str(l), p) for l, p in self._entries))

    def to_text(self) -> str:
        return ";".join(f"{l}:{p}" for l, p in
                        sorted(self._entries, key=lambda e: str(e[0])))


# ints (diagram edges; also ones outside the fixed-bit range), (qubit, time)
# tuples (circuit segments) and strings, no two of which print alike
mixed_locs = st.one_of(st.integers(0, 4),
                       st.sampled_from([-1, 1 << 16, 1 << 40]),
                       st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.sampled_from(["a", "b", "e1"]))
mixed_entries = st.dictionaries(mixed_locs, letters, max_size=6)
PROBES = [0, 3, 4, (0, 0), (2, 1), "a", "e1", "never-used", (9, 9), 99,
          -1, -7, 1 << 16, 1 << 40]


def same(p: PauliString, r: LetterPauli) -> None:
    assert p.entries == r.entries
    assert p.support == r.support
    assert p.weight() == r.weight()
    assert bool(p) == bool(r.entries)
    assert p.to_text() == r.to_text()
    assert p.sort_key() == r.sort_key()
    for loc in PROBES + list(r.entries):
        assert p.letter(loc) == r.letter(loc)


@given(mixed_entries, mixed_entries)
def test_bit_pair_encoding_matches_letter_table(ea, eb):
    a, b = PauliString(ea), PauliString(eb)
    ra, rb = LetterPauli(ea), LetterPauli(eb)
    same(a, ra)
    same(b, rb)
    same(a * b, ra * rb)
    assert a.commutes(b) == ra.commutes(rb)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    copy = PauliString(a.entries)
    assert copy == a and hash(copy) == hash(a)
    assert PauliString.from_text(a.to_text()).to_text() == a.to_text()


def test_small_int_locations_have_fixed_bits():
    # an edge id n owns bit 2n whatever locations were seen first, so the
    # width of a diagram's faults does not depend on the order of work
    PauliString({("fresh", n): "X" for n in range(50)})
    assert PauliString({3: "X", 5: "Z", 4: "Y"}).xz == (
        1 << 6 | 1 << 8, 1 << 10 | 1 << 8)


def test_letter_of_an_unseen_location_is_identity_and_adds_nothing():
    from zxfault import pauli
    p = PauliString({("seen", 0): "Y", 7: "X"})
    before = len(pauli._LOCS)
    assert p.letter(("seen", 0)) == "Y" and p.letter(7) == "X"
    assert p.letter(("never", "seen")) == "I" and p.letter(8) == "I"
    assert len(pauli._LOCS) == before
    assert ("never", "seen") not in pauli._INDEX


def test_single_edge_paulis_hash_apart():
    # Python hashes an int mod 2**61 - 1, under which edges 61 bits apart
    # would share a hash
    paulis = [PauliString({eid: letter}) for eid in range(4096)
              for letter in "XYZ"]
    assert len({hash(p) for p in paulis}) == len(paulis)
