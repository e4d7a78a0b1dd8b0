import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

import reference
from zxfault import samples
from zxfault.circuit import Circuit
from zxfault.noise import (ABOVE_CAP, AtomicFault, NoiseModel,
                           circuit_level_atoms, count_faults, edge_flip_atoms,
                           enumerate_faults, fault_weight, x_flip_atoms)
from zxfault.pauli import PauliString


def four_edge_diagram(ideal_count=0):
    d = samples.spider_tree("Z", 0, 4)
    for eid in sorted(d.edges)[:ideal_count]:
        d.set_ideal(eid, True)
    return d


# -- edge-flip models ---------------------------------------------------------

def test_edge_flip_counts():
    assert len(edge_flip_atoms(four_edge_diagram()).atoms) == 12
    assert len(edge_flip_atoms(four_edge_diagram(3)).atoms) == 3
    assert len(edge_flip_atoms(four_edge_diagram(4)).atoms) == 0


def test_edge_flip_weight_is_support_weight():
    m = edge_flip_atoms(four_edge_diagram())
    for entries in [{0: "X"}, {0: "Y", 1: "Z"}, {0: "X", 1: "X", 2: "Z"},
                    {0: "Y", 1: "Y", 2: "Y", 3: "Y"}]:
        f = PauliString(entries)
        assert fault_weight(f, m, 4) == f.weight()


def test_edge_flip_ideal_edge_above_cap():
    m = edge_flip_atoms(four_edge_diagram(1))
    assert fault_weight(PauliString({0: "X"}), m, 4) == ABOVE_CAP


# -- circuit-level models ------------------------------------------------------

def by_provenance(m: NoiseModel) -> dict:
    out: dict = {}
    for a in m.atoms:
        out.setdefault(a.provenance, []).append(a)
    return out


def test_bare_cnot_atoms():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    m = circuit_level_atoms(c)
    groups = by_provenance(m)
    assert len(groups["gate-fault"]) == 15
    # input segments only: the 6 output-segment flips dedup into gate faults
    assert len(groups["qubit-flip"]) == 6
    assert len(m.atoms) == 21


def test_fault_free_gate_only_wire_atoms():
    c = Circuit(2)
    c.gate("CNOT", 0, 1, ideal=True)
    m = circuit_level_atoms(c)
    groups = by_provenance(m)
    assert "gate-fault" not in groups
    assert len(groups["qubit-flip"]) == 12  # 2 qubits x 2 segments x 3 letters


def test_ft_zz_measurement_atoms():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli="ZZ", ft=True)
    c.all_wires_ideal = True
    m = circuit_level_atoms(c)
    groups = by_provenance(m)
    assert len(groups["measurement-flip"]) == 1
    assert len(groups["measurement-flip+outputs"]) == 2 * 3
    assert len(m.atoms) == 7


def test_plain_zz_measurement_atoms():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli="ZZ")
    c.all_wires_ideal = True
    m = circuit_level_atoms(c)
    groups = by_provenance(m)
    assert len(groups["measurement-flip"]) == 1
    assert len(groups["measurement-flip+outputs"]) == 15


def test_measurement_flip_support():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli="ZZ")
    m = circuit_level_atoms(c)
    flip = [a for a in m.atoms if a.provenance == "measurement-flip"][0].pauli
    assert flip.entries == {(0, 0): "X", (0, 1): "X"}


def test_destructive_measurement_flip_before_only():
    c = Circuit(1)
    c.measure("MZ", 0, "k")
    m = circuit_level_atoms(c)
    flip = [a for a in m.atoms if a.provenance == "measurement-flip"][0].pauli
    assert flip.entries == {(0, 0): "X"}
    assert not [a for a in m.atoms if a.provenance == "measurement-flip+outputs"]


def test_mx_flip_anticommutes():
    c = Circuit(1)
    c.measure("MX", 0, "k")
    m = circuit_level_atoms(c)
    flip = [a for a in m.atoms if a.provenance == "measurement-flip"][0].pauli
    assert flip.letter((0, 0)) != "X" != "I"


def test_ideal_wires_no_qubit_flips():
    c = Circuit(1)
    c.gate("H", 0)
    c.all_wires_ideal = True
    m = circuit_level_atoms(c)
    assert by_provenance(m).keys() == {"gate-fault"}


def test_prep_gives_gate_faults():
    c = Circuit(1)
    c.gate("PREP_X", 0)
    c.all_wires_ideal = True
    m = circuit_level_atoms(c)
    assert len(m.atoms) == 3
    assert all(a.provenance == "gate-fault" for a in m.atoms)


# -- weight --------------------------------------------------------------------

def test_atom_weight_one():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    m = circuit_level_atoms(c)
    for a in m.atoms:
        assert fault_weight(a.pauli, m, 2) == 1


def test_two_qubit_post_cnot_pauli_weight_one():
    c = Circuit(2)
    c.gate("CNOT", 0, 1)
    m = circuit_level_atoms(c)
    assert fault_weight(PauliString({(0, 1): "X", (1, 1): "Z"}), m, 2) == 1


def test_disjoint_atoms_weight_two():
    c = Circuit(3)
    c.measure("MPP", (0, 1), "k", pauli="ZZ")
    m = circuit_level_atoms(c)
    flip = [a for a in m.atoms if a.provenance == "measurement-flip"][0].pauli
    f = flip * PauliString({(2, 0): "Y"})
    assert fault_weight(f, m, 3) == 2


def test_weight_above_cap_and_outside_group():
    m = edge_flip_atoms(four_edge_diagram())
    f = PauliString({0: "X", 1: "X", 2: "X"})
    assert fault_weight(f, m, 2) == ABOVE_CAP
    outside = PauliString({99: "X"})
    assert fault_weight(outside, m, 4) == ABOVE_CAP


def test_fault_outside_the_group_is_rejected_without_a_search():
    # a Z on a chain whose model generates only X flips: 2^17 group elements
    d = samples.green_chain(16)
    m = x_flip_atoms(d)
    z = PauliString({sorted(d.non_ideal_edges())[0]: "Z"})
    t0 = time.perf_counter()
    assert fault_weight(z, m, len(m.atoms)) == ABOVE_CAP
    assert time.perf_counter() - t0 < 2.0


def test_weight_subadditive():
    m = edge_flip_atoms(four_edge_diagram())
    fs = [PauliString({0: "X"}), PauliString({0: "Y", 1: "Z"}),
          PauliString({2: "Z", 3: "Z"})]
    for f, g in itertools.product(fs, fs):
        wf, wg = fault_weight(f, m, 4), fault_weight(g, m, 4)
        assert fault_weight(f * g, m, 4) <= wf + wg


# -- enumeration -----------------------------------------------------------------

def test_enumerate_weight_zero():
    m = edge_flip_atoms(four_edge_diagram())
    assert list(enumerate_faults(m, 0)) == [(PauliString(), 0)]


def test_enumerate_two_disjoint_atoms():
    m = NoiseModel([AtomicFault(PauliString({0: "X"}), "edge-flip"),
                    AtomicFault(PauliString({1: "Z"}), "edge-flip")], "toy")
    out = list(enumerate_faults(m, 2))
    assert len(out) == 4
    assert [w for _, w in out] == [0, 1, 1, 2]


def test_enumerate_two_edges_weight_one():
    d = samples.spider_tree("Z", 0, 2)
    m = edge_flip_atoms(d)
    out = list(enumerate_faults(m, 1))
    assert len(out) == 7  # identity + 2 edges x 3 letters


def reference_fault_weight(f: PauliString, m: NoiseModel, cap: int):
    """Breadth-first product search over the fault group with visited-set
    dedup: a walk of the group independent of enumerate_faults."""
    if not f:
        return 0
    atoms = m.paulis()
    seen = {PauliString()}
    frontier = [PauliString()]
    for w in range(1, cap + 1):
        nxt = []
        for g in frontier:
            for a in atoms:
                h = g * a
                if h in seen:
                    continue
                if h == f:
                    return w
                seen.add(h)
                nxt.append(h)
        frontier = nxt
    return ABOVE_CAP


def test_enumerate_weights_match_fault_weight():
    c = Circuit(2)
    c.measure("MPP", (0, 1), "k", pauli="ZZ", ft=True)
    m = circuit_level_atoms(c)
    for f, w in enumerate_faults(m, 2):
        assert reference_fault_weight(f, m, 2) == w
        assert fault_weight(f, m, 2) == w


def cnot_then_plain_zz():
    c = Circuit(3)
    c.gate("CNOT", 0, 1)
    c.measure("MPP", (1, 2), "k", pauli="ZZ")
    c.all_wires_ideal = True
    return c


@pytest.mark.parametrize("m", [
    circuit_level_atoms(cnot_then_plain_zz()),
    x_flip_atoms(samples.green_chain(3)),
    edge_flip_atoms(four_edge_diagram(2)),
], ids=["circuit", "x-flip", "edge-flip"])
def test_fault_weight_matches_reference_search(m):
    atoms = m.paulis()
    stray = PauliString({(7, 7): "Z"})
    faults = [PauliString(), stray, atoms[0] * stray]
    faults += [a * b for a, b in itertools.combinations(atoms[:8], 2)]
    faults += [a * b * c for a, b, c in itertools.combinations(atoms[:6], 3)]
    for f in faults:
        for cap in (0, 1, 2, 3):
            assert fault_weight(f, m, cap) == reference_fault_weight(f, m, cap)


def test_enumerate_deterministic_and_nondecreasing():
    m = edge_flip_atoms(four_edge_diagram())
    a = list(enumerate_faults(m, 2))
    b = list(enumerate_faults(m, 2))
    assert a == b
    weights = [w for _, w in a]
    assert weights == sorted(weights)
    assert len({f for f, _ in a}) == len(a)


def assert_reference_order(m: NoiseModel, max_weight: int) -> None:
    """The faults come as the PauliString walk gives them: by weight, then
    by sort_key, which increases strictly within a weight."""
    got = list(enumerate_faults(m, max_weight))
    assert got == list(reference.enumerate_faults(m, max_weight))
    for (f, w), (g, v) in zip(got, got[1:]):
        assert (w, f.sort_key()) < (v, g.sort_key())


@pytest.mark.parametrize("m,max_weight", [
    # edge ids 10 to 12 sort between 1 and 2 as strings
    (edge_flip_atoms(samples.green_chain(12)), 2),
    (edge_flip_atoms(samples.green_chain(11)), 3),
    (x_flip_atoms(samples.green_chain(12)), 3),
    # (qubit, time) locations, and atoms on two or more of them
    (circuit_level_atoms(cnot_then_plain_zz()), 3),
], ids=["edge-flip ids to 12", "edge-flip w=3", "x-flip w=3", "circuit w=3"])
def test_enumeration_order_matches_the_reference_walk(m, max_weight):
    assert_reference_order(m, max_weight)


def test_circuit_model_has_multi_location_atoms():
    m = circuit_level_atoms(cnot_then_plain_zz())
    assert max(a.pauli.weight() for a in m.atoms) >= 3


# edge ids on both sides of 10, and (qubit, time) pairs whose times do too
fault_locs = st.one_of(st.integers(0, 12),
                       st.tuples(st.integers(0, 2), st.integers(0, 11)))
noise_models = st.lists(
    st.dictionaries(fault_locs, st.sampled_from(["X", "Y", "Z"]),
                    min_size=1, max_size=3).map(PauliString),
    min_size=1, max_size=7).map(
        lambda ps: NoiseModel([AtomicFault(p, "edge-flip") for p in ps],
                              "random"))


@given(noise_models, st.integers(0, 3))
def test_random_models_enumerate_in_the_reference_order(m, max_weight):
    assert_reference_order(m, max_weight)


def test_json_dump():
    m = edge_flip_atoms(four_edge_diagram(3))
    import json
    j = json.loads(m.dumps())
    assert j["label"] == "edge-flip"
    assert len(j["atoms"]) == 3
    assert all(a["provenance"] == "edge-flip" for a in j["atoms"])


# -- counting without the walk ----------------------------------------------------

def random_model(seed: int, spread: float) -> NoiseModel:
    """Atoms on six locations, each on one location with probability
    1 - spread, else on two or three."""
    rng = random.Random(seed)
    atoms = []
    for _ in range(rng.randint(1, 12)):
        n = rng.choice((2, 3)) if rng.random() < spread else 1
        atoms.append(PauliString({loc: rng.choice("XYZ")
                                  for loc in rng.sample(range(6), n)}))
    return NoiseModel([AtomicFault(p, "gate-fault") for p in atoms], "random")


@pytest.mark.parametrize("spread", [0.0, 0.3])
@pytest.mark.parametrize("seed", range(30))
def test_count_faults_is_the_walk_count(seed, spread):
    m = random_model(seed, spread)
    for max_weight in range(-1, 5):  # the walk yields I even below 0
        assert count_faults(m, max_weight) == \
            sum(1 for _ in enumerate_faults(m, max_weight))


def test_count_faults_closed_form():
    # X, Y and Z on each of n edges: C(n, k)·3^k faults of weight k
    m = edge_flip_atoms(samples.spider_tree("Z", 0, 7))
    assert count_faults(m, 3) == sum(math.comb(7, k) * 3 ** k
                                     for k in range(4))
