import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (Contraction as ReferenceContraction, is_total,
                       map_assignment, on_open_legs, spider_leaf)
from test_circuit import DEFAULT_BUILDERS
from test_feq import random_spec, syndrome_specs
from zxfault import samples
from zxfault.builders import build_gadget
from zxfault.diagram import ZxDiagram, apply_fault, compose
from zxfault.oracle import (_LEAF_CAP, DEFAULT_BUDGET, OracleBudgetError,
                            OutcomeMap, OutcomeTensor, _build_leaf,
                            _leaf_table, _leaves, _plan, _spider_leaf,
                            equal_up_to_scalar, evaluate, port_masks)
from zxfault.pauli import LETTERS, PauliString
from zxfault.rewrite import RULES, make_rule
from zxfault.webs import web_basis


def up_to_scalar(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    na, nb = np.max(np.abs(a)), np.max(np.abs(b))
    if na < tol or nb < tol:
        return na < tol and nb < tol
    a, b = a / na, b / nb
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    return np.allclose(a * (b[idx] / a[idx]), b, atol=tol)


def test_green_state_is_plus():
    t = evaluate(samples.z_state())
    assert up_to_scalar(t[()], [[1, 1]])


def test_red_pi_is_not_gate():
    t = evaluate(samples.pauli_spider_on_wire("X", 2))
    assert up_to_scalar(t[()], [[0, 1], [1, 0]])


def test_green_pi_is_z_gate():
    t = evaluate(samples.pauli_spider_on_wire("Z", 2))
    assert up_to_scalar(t[()], [[1, 0], [0, -1]])


def test_green_s_gate():
    t = evaluate(samples.pauli_spider_on_wire("Z", 1))
    assert up_to_scalar(t[()], [[1, 0], [0, 1j]])


def test_hadamard_wire():
    t = evaluate(samples.wire(had=True))
    assert up_to_scalar(t[()], np.array([[1, 1], [1, -1]]))


def test_red_state_is_zero_ket():
    t = evaluate(samples.x_state())
    assert up_to_scalar(t[()], [[1, 0]])
    t = evaluate(samples.x_state(2))
    assert up_to_scalar(t[()], [[0, 1]])


def test_zz_measurement_projectors():
    d = samples.zz_measurement("k")
    t = evaluate(d)
    zz = np.diag([1, -1, -1, 1]).astype(complex)
    # tensor convention: t[a, b] = <b| D |a>, so the matrix is the transpose
    assert up_to_scalar(t[(0,)].T, (np.eye(4) + zz) / 2)
    assert up_to_scalar(t[(1,)].T, (np.eye(4) - zz) / 2)
    # both branches carry the SAME scalar
    assert up_to_scalar(np.stack([t[(0,)], t[(1,)]]),
                        np.stack([(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2]))


def test_cnot_diagram():
    d = ZxDiagram()
    c = d.add_spider("Z")
    x = d.add_spider("X")
    d.add_edge(("b", "in", 0), ("s", c))
    d.add_edge(("s", c), ("b", "out", 0))
    d.add_edge(("b", "in", 1), ("s", x))
    d.add_edge(("s", x), ("b", "out", 1))
    d.add_edge(("s", c), ("s", x))
    t = evaluate(d)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert up_to_scalar(t[()].T, cnot)


def test_compose_is_matrix_product():
    s = samples.pauli_spider_on_wire("Z", 1)
    h = samples.wire(had=True)
    sh = compose(s, h)  # apply S then H
    t = evaluate(sh)[()].T
    hs = (evaluate(h)[()].T) @ (evaluate(s)[()].T)
    assert up_to_scalar(t, hs)


def test_equal_up_to_scalar_scalar_freedom():
    t1 = evaluate(samples.zz_measurement("k"))
    t2 = evaluate(samples.zz_measurement("k"))
    t2.array = 2j * t2.array
    assert equal_up_to_scalar(t1, t2)


def test_equal_never_confuses_zero_and_nonzero():
    t1 = evaluate(samples.wire())
    t2 = evaluate(samples.wire())
    t2.array = 0 * t2.array
    assert not equal_up_to_scalar(t1, t2)
    assert not equal_up_to_scalar(t2, t1)
    assert equal_up_to_scalar(t2, t2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_outcome_map_images_and_sign_masks(seed):
    # images() and sign_mask() read the map as map_assignment does, with an
    # assignment's first variable as its index's highest bit
    rng = np.random.default_rng(seed)
    source = [f"s{i}" for i in range(rng.integers(0, 4))]
    target = [f"t{i}" for i in range(rng.integers(0, 4))]
    corr = OutcomeMap.parse(source, target, {
        t: "^".join([v for v in source if rng.random() < 0.5]
                    + ["1"] * (rng.random() < 0.5)) or "0" for t in target})

    def index(bits):
        return int("".join(map(str, bits)) or "0", 2)
    images = corr.images()
    subset = [t for t in target if rng.random() < 0.5]
    mask, const = corr.sign_mask(subset)
    for a in itertools.product((0, 1), repeat=len(source)):
        y = dict(zip(target, map_assignment(corr, a)))
        assert images[index(a)] == index(map_assignment(corr, a))
        assert (bin(index(a) & mask).count("1") + const) % 2 == \
            sum(y[t] for t in subset) % 2


def test_two_zz_equals_single_zz_under_correspondence():
    double = samples.two_zz_measurements()
    single = samples.zz_measurement("k")
    t2 = evaluate(double)
    t1 = evaluate(single)
    corr = OutcomeMap.parse(["k1", "k2"], ["k"], {"k": "k1"})
    assert equal_up_to_scalar(t1, t2, corr)
    # the wrong correspondence (constant) must fail
    bad = OutcomeMap.parse(["k1", "k2"], ["k"], {"k": "0"})
    assert not equal_up_to_scalar(t1, t2, bad)


@st.composite
def invertible_maps(draw):
    """A random bijection of n outcome bits: the identity under a row
    permutation and row additions, plus constants."""
    n = draw(st.integers(0, 5))
    rows = [1 << j for j in draw(st.permutations(range(n)))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)))) if n else []:
        if i != j:
            rows[i] ^= rows[j]
    consts = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    src = [f"a{j}" for j in range(n)]
    return OutcomeMap(src, [f"b{i}" for i in range(n)], {
        f"b{i}": (frozenset(v for j, v in enumerate(src) if r >> j & 1), c)
        for i, (r, c) in enumerate(zip(rows, consts))})


@given(invertible_maps())
def test_inverted_round_trips(m):
    inv = m.inverted()
    assert (inv.source_vars, inv.target_vars) == (m.target_vars, m.source_vars)
    for x in itertools.product((0, 1), repeat=len(m.source_vars)):
        assert map_assignment(inv, map_assignment(m, x)) == x
        assert map_assignment(m, map_assignment(inv, x)) == x


def test_inverted_rejects_a_singular_map():
    m = OutcomeMap.parse(["k1", "k2"], ["k1", "k2"], {"k1": "k1^k2", "k2": "k1^k2"})
    with pytest.raises(ValueError, match="not invertible"):
        m.inverted()


def test_unknown_target_variable_is_an_error():
    with pytest.raises(ValueError, match="unknown target variables \\['typo'\\]"):
        OutcomeMap.parse(["k"], ["k"], {"k": "k", "typo": "k"})


def test_totality():
    assert is_total(samples.two_zz_measurements())
    d = samples.two_zz_measurements()
    d.constraints = [(frozenset(["k1"]), 0), (frozenset(["k2"]), 0)]
    assert not is_total(d)
    assert is_total(samples.wire())


def test_totality_of_a_zero_tensor():
    """A zero tensor is total exactly when no assignment satisfies the
    constraints."""
    d = ZxDiagram()
    a, b = d.add_spider("Z", 0), d.add_spider("Z", 2)
    d.add_edge(("s", a), ("s", b))  # the scalar 1 + e^{i pi} = 0
    d.add_spider("Z", 0, [d.add_variable("k")])
    assert evaluate(d).max_abs() == 0.0
    assert not is_total(d)
    d.add_constraint(["k"], 0)
    assert not is_total(d)
    d.add_constraint(["k"], 1)
    assert is_total(d)


def test_budget_error():
    """evaluate and the reference contraction refuse the same budgets."""
    wide = ZxDiagram()
    s = wide.add_spider("Z")
    for q in range(12):
        wide.add_edge(("s", s), ("b", "out", q))
    # a variable read by five leg-less spiders: its copy tensor has 64
    # entries, over the 16 * 2 allowed with one variable
    shared = ZxDiagram()
    k = shared.add_variable("k")
    for _ in range(5):
        shared.add_spider("Z", 0, [k])
    cases = [(wide, 2**8, "spider"), (samples.naive_cat(4), 2, "spider"),
             # a bare wire's leaf has four entries
             (samples.wire(), 0, "wire"), (shared, 16, "variable k")]
    for d, budget, what in cases:
        with pytest.raises(OracleBudgetError, match=what):
            evaluate(d, budget=budget)
        with pytest.raises(OracleBudgetError, match=what):
            ReferenceContraction(d, budget).evaluate()


def test_spider_fusion_axiom():
    # two connected same-colour spiders fuse: phases add
    d = ZxDiagram()
    a = d.add_spider("Z", 1)
    b = d.add_spider("Z", 1)
    d.add_edge(("b", "in", 0), ("s", a))
    d.add_edge(("s", a), ("s", b))
    d.add_edge(("s", b), ("b", "out", 0))
    fused = samples.pauli_spider_on_wire("Z", 2)
    assert equal_up_to_scalar(evaluate(fused), evaluate(d))


def test_colour_change_axiom():
    # X spider = Z spider conjugated by hadamard edges on all legs
    d1 = samples.pauli_spider_on_wire("X", 1)
    d2 = ZxDiagram()
    s = d2.add_spider("Z", 1)
    d2.add_edge(("b", "in", 0), ("s", s), had=True)
    d2.add_edge(("s", s), ("b", "out", 0), had=True)
    assert equal_up_to_scalar(evaluate(d1), evaluate(d2))


def test_pi_copy_axiom():
    # X pi through a green spider copies onto the other legs and flips phase sign
    d1 = ZxDiagram()
    g = d1.add_spider("Z", 1)
    p = d1.add_spider("X", 2)
    d1.add_edge(("b", "in", 0), ("s", p))
    d1.add_edge(("s", p), ("s", g))
    d1.add_edge(("s", g), ("b", "out", 0))
    d1.add_edge(("s", g), ("b", "out", 1))

    d2 = ZxDiagram()
    g = d2.add_spider("Z", 3)
    p1 = d2.add_spider("X", 2)
    p2 = d2.add_spider("X", 2)
    d2.add_edge(("b", "in", 0), ("s", g))
    d2.add_edge(("s", g), ("s", p1))
    d2.add_edge(("s", p1), ("b", "out", 0))
    d2.add_edge(("s", g), ("s", p2))
    d2.add_edge(("s", p2), ("b", "out", 1))
    assert equal_up_to_scalar(evaluate(d1), evaluate(d2))


def test_hopf_and_bialgebra_scalars_do_not_matter():
    # two spiders joined by two parallel edges = joined by none (Hopf), up to scalar
    d1 = ZxDiagram()
    a = d1.add_spider("Z")
    b = d1.add_spider("X")
    d1.add_edge(("b", "in", 0), ("s", a))
    d1.add_edge(("s", a), ("s", b))
    d1.add_edge(("s", a), ("s", b))
    d1.add_edge(("s", b), ("b", "out", 0))

    d2 = ZxDiagram()
    a = d2.add_spider("Z")
    b = d2.add_spider("X")
    d2.add_edge(("b", "in", 0), ("s", a))
    d2.add_edge(("s", b), ("b", "out", 0))
    assert equal_up_to_scalar(evaluate(d1), evaluate(d2))


def test_evaluate_deterministic():
    d = samples.two_zz_measurements()
    t1, t2 = evaluate(d), evaluate(d)
    assert np.array_equal(t1.array, t2.array)


# -- faulted diagrams against the tensordot reference -------------------------


def mixed_diagram() -> ZxDiagram:
    """Hadamard edges with a port and with a spider at the a-end, X spiders,
    and a plain and a Hadamard self-loop, all fault-prone; one ideal edge."""
    d = ZxDiagram()
    z = d.add_spider("Z", 1)
    x = d.add_spider("X", 2)
    y = d.add_spider("X", 1)
    d.add_edge(("b", "in", 0), ("s", z), had=True)  # port at the a-end
    d.add_edge(("s", z), ("s", x), had=True)        # spider at the a-end
    d.add_edge(("s", x), ("s", y))
    d.add_edge(("s", y), ("b", "out", 0), had=True)
    d.add_edge(("s", x), ("b", "out", 1))
    d.add_edge(("s", z), ("s", z))                  # self-loop
    d.add_edge(("s", y), ("s", y), had=True)        # Hadamard self-loop
    d.add_edge(("b", "in", 1), ("s", y), ideal=True)
    return d


REPLAY_DIAGRAMS = [
    ("mixed", mixed_diagram),
    ("hadamard-wire", lambda: samples.wire(had=True)),  # both ends ports
    ("x-pi", lambda: samples.pauli_spider_on_wire("X", 2)),
    ("two-zz", samples.two_zz_measurements),           # outcome variables
    ("naive-cat4", lambda: samples.naive_cat(4)),
]


def assert_same_tensor(got: OutcomeTensor, want: OutcomeTensor, note=None):
    assert got.variables == want.variables, note
    assert got.array.shape == want.array.shape, note
    assert np.max(np.abs(got.array - want.array), initial=0.0) <= 1e-12, note


def assert_fault_matches_reference(d: ZxDiagram, f: PauliString):
    # the faulted diagram's contraction equals the tensordot reference's
    # contraction of d with the fault as a 2x2 matrix on its leg
    assert_same_tensor(evaluate(apply_fault(d, f)),
                       ReferenceContraction(d).evaluate(f))


def test_mixed_diagram_is_not_zero():
    assert evaluate(mixed_diagram()).max_abs() > 1e-9


@pytest.mark.parametrize("name,make", REPLAY_DIAGRAMS,
                         ids=[n for n, _ in REPLAY_DIAGRAMS])
def test_replay_matches_dense_on_every_single_edge_fault(name, make):
    d = make()
    for eid in d.non_ideal_edges():
        for letter in LETTERS:
            assert_fault_matches_reference(d, PauliString({eid: letter}))
    assert_fault_matches_reference(d, PauliString())


@st.composite
def diagram_and_fault(draw):
    _, make = draw(st.sampled_from(REPLAY_DIAGRAMS))
    d = make()
    eids = draw(st.lists(st.sampled_from(d.non_ideal_edges()), unique=True,
                         max_size=4))
    letters = draw(st.lists(st.sampled_from(LETTERS), min_size=len(eids),
                            max_size=len(eids)))
    return d, PauliString(dict(zip(eids, letters)))


@settings(max_examples=150, deadline=None)
@given(diagram_and_fault())
def test_replay_matches_dense(df):
    d, f = df
    assert_fault_matches_reference(d, f)


def by_masks(t: OutcomeTensor, x: int, z: int) -> OutcomeTensor:
    """``t`` with entry j replaced by (-1)^|(j ^ x) & z| times entry j ^ x."""
    flat = t.array.reshape(-1)
    j = np.arange(flat.size)
    sign = np.array([(-1) ** bin(k & z).count("1") for k in j ^ x])
    return OutcomeTensor(t.variables, t.n_in, t.n_out,
                         (sign * flat[j ^ x]).reshape(t.array.shape))


@pytest.mark.parametrize("name,make", REPLAY_DIAGRAMS,
                         ids=[n for n, _ in REPLAY_DIAGRAMS])
def test_open_leg_paulis(name, make):
    # a port's masks act as the dense reference's letter on the port's leg,
    # on the diagram's tensor and on a random one; a letter on a port's leg
    # is the fault on the port's edge, and every web's letters on the ports
    # stabilise the diagram up to outcome signs
    d = make()
    t = evaluate(d)
    rng = np.random.default_rng(7)
    noise = OutcomeTensor(t.variables, t.n_in, t.n_out,
                          rng.normal(size=t.array.shape)
                          + 1j * rng.normal(size=t.array.shape))
    webs = [w.pauli for w in web_basis(d)]
    letters = [PauliString({eid: letter})
               for eid in sorted(d.boundary_edges()) for letter in LETTERS]
    mixed = [PauliString(dict(zip(sorted(d.boundary_edges()), word)))
             for word in itertools.product(LETTERS, repeat=2)]
    paulis = letters + webs + mixed
    for p, (x, z) in zip(paulis, port_masks(d, paulis), strict=True):
        for u in (t, noise):
            assert np.array_equal(by_masks(u, x, z).array,
                                  on_open_legs(d, u, p).array), p.to_text()
    for eid in d.boundary_edges() & set(d.non_ideal_edges()):
        if all(end[0] == "b" for end in d.edges[eid].ends()):
            continue  # a bare wire's letter acts on both its ports
        for letter in LETTERS:
            p = PauliString({eid: letter})
            assert equal_up_to_scalar(evaluate(apply_fault(d, p)),
                                      on_open_legs(d, t, p))
    for p in webs:
        assert equal_up_to_scalar(t, on_open_legs(d, t, p))


def test_replay_rejects_a_fault_on_an_ideal_edge():
    d = mixed_diagram()
    ideal = [eid for eid, e in d.edges.items() if e.ideal][0]
    with pytest.raises(ValueError):
        apply_fault(d, PauliString({ideal: "X"}))


def test_an_over_budget_step_is_refused_before_any_product(monkeypatch):
    # two spiders of six output legs joined by one edge, beside a wire of
    # two spiders: every leaf fits 2^8 entries, and so does the wire's step,
    # which is planned first, but no later step does
    d = ZxDiagram()
    a, b, c, e = (d.add_spider(colour) for colour in "ZXZX")
    d.add_edge(("s", a), ("s", b))
    for q in range(6):
        d.add_edge(("s", a), ("b", "out", q))
        d.add_edge(("s", b), ("b", "out", 6 + q))
    d.add_edge(("b", "in", 0), ("s", c))
    d.add_edge(("s", c), ("s", e))
    d.add_edge(("s", e), ("b", "out", 12))
    dots = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *args: dots.append(1) or dot(*args))
    with pytest.raises(OracleBudgetError):
        evaluate(d, budget=2**8)
    assert not dots
    evaluate(d, budget=2**14)
    assert len(dots) == 3


# -- the contraction against the tensordot reference --------------------------


def plan_corpus():
    """(name, diagram) pairs whose plans and results are compared with the
    reference's."""
    for name, make in REPLAY_DIAGRAMS:
        yield name, make()
    yield from samples.web_corpus()
    for name in sorted(RULES):
        rule = make_rule(name)
        yield f"{name}-lhs", rule.lhs
        yield f"{name}-rhs", rule.rhs
    specs = [*syndrome_specs(),
             *((f"random {seed}", random_spec(seed)) for seed in range(40))]
    for name, spec in specs:
        yield f"{name} a", spec.side_a.diagram
        yield f"{name} b", spec.side_b.diagram
    for name in DEFAULT_BUILDERS:
        gadget = build_gadget(name)
        yield f"{name} spec", gadget.spec
        yield f"{name} implementation", gadget.implementation_diagram()[0]


def test_plans_match_the_reference():
    # the same (slot a, slot b) steps and the same tensor; no reference step
    # traces a self-loop, so the contraction's steps need none
    for name, d in plan_corpus():
        limit = DEFAULT_BUDGET * 2 ** len(d.variables)
        steps, _ = _plan(_leaves(d, limit)[1], limit)
        reference = ReferenceContraction(d)
        assert [s[:2] for s in steps] == \
            [s[:2] for s in reference._steps], name
        assert not any(loops for *_, loops in reference._steps), name
        assert_same_tensor(evaluate(d), reference.evaluate(), name)


def test_leaves_match_the_reference():
    # every spider leaf of up to six legs and two variables, with H on any
    # set of legs, against H applied leg by leg to the Z core
    for colour, degree, qturns, n_vars in itertools.product(
            "ZX", range(7), range(4), range(3)):
        for mask in range(2 ** degree):
            had = [k for k in range(degree) if mask >> k & 1]
            got = _spider_leaf(colour, degree, qturns, had, n_vars)
            want = spider_leaf(colour, degree, qturns, had, n_vars)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14, \
                (colour, degree, qturns, had, n_vars)


# -- the leaf table -----------------------------------------------------------


def test_a_one_leaf_result_is_a_writable_copy():
    spider = ZxDiagram()
    s = spider.add_spider("X", 1)
    spider.add_edge(("s", s), ("b", "out", 0))
    for d in (spider, samples.wire(), samples.wire(had=True)):
        t = evaluate(d)
        assert t.array.flags.writeable
        want = t.array.copy()
        t.array[...] = 7
        assert np.array_equal(evaluate(d).array, want)


def test_a_leaf_above_the_cap_is_not_kept():
    degree = _LEAF_CAP.bit_length()  # 2**degree entries, twice the cap
    _leaf_table.cache_clear()
    big = _spider_leaf("X", degree, 0, [], 0)
    assert big.flags.writeable
    assert _leaf_table.cache_info().currsize == 0
    small = _spider_leaf("X", degree - 1, 0, [], 0)
    assert not small.flags.writeable
    assert _leaf_table.cache_info().currsize == 1
    assert _spider_leaf("X", degree - 1, 0, (), 0) is small


def test_a_kept_leaf_met_twice_is_multiplied_as_two_arrays(monkeypatch):
    # two pi spiders in series share one kept leaf, and the plan multiplies
    # it by its own transpose, for which np.dot takes another path, whose
    # zeros lose their sign
    d = ZxDiagram()
    late, early = d.add_spider("Z", 2), d.add_spider("Z", 2)
    d.add_edge(("b", "in", 0), ("s", early))
    d.add_edge(("s", late), ("b", "out", 0))
    d.add_edge(("s", early), ("s", late))
    got = evaluate(d).array
    monkeypatch.setattr("zxfault.oracle._spider_leaf",
                        lambda c, n, q, had, v: _build_leaf(c, n, q, had, v))
    assert got.tobytes() == evaluate(d).array.tobytes()


def test_a_warm_leaf_table_gives_the_cold_tensors():
    for name, d in plan_corpus():
        _leaf_table.cache_clear()
        cold = evaluate(d).array
        assert np.array_equal(evaluate(d).array, cold), name


def test_budgets_match_the_reference():
    # the least budget that passes is a power of two, and one below it is
    # refused with the reference's error
    for name, d in plan_corpus():
        least = next(b for b in (2**j for j in range(23))
                     if passes(lambda: evaluate(d, b)))
        assert passes(lambda: ReferenceContraction(d, least).evaluate()), name
        with pytest.raises(OracleBudgetError) as ours:
            evaluate(d, least - 1)
        with pytest.raises(OracleBudgetError) as reference:
            ReferenceContraction(d, least - 1).evaluate()
        assert str(ours.value) == str(reference.value), name


def passes(contract) -> bool:
    try:
        contract()
    except OracleBudgetError:
        return False
    return True
