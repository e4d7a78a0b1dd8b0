import hashlib
import itertools
import random

import numpy as np
import pytest

import reference
from reference import anticommutes, check_web, region_sign, syndrome
from test_builders import PARAMS
from test_feq import WIRE_POOL, random_spec, web_sum
from test_gf2 import reference_nullspace
from zxfault import gf2, samples, webs
from zxfault.builders import BUILDERS, build_gadget
from zxfault.diagram import ZxDiagram, apply_fault, compose
from zxfault.noise import (AtomicFault, NoiseModel, edge_flip_atoms,
                           enumerate_faults, fault_weight, x_flip_atoms)
from zxfault.oracle import TOL, OutcomeMap, evaluate, port_masks
from zxfault.pauli import PauliString
from zxfault.rewrite import RULES, make_rule
from zxfault.webs import (PauliWeb, detecting_region_basis, is_detectable,
                          local_sign, web_basis)

HLS = [None, "green", "red", "both"]


def brute_force_webs(d: ZxDiagram) -> set:
    """All valid edge highlightings by direct 4^|E| enumeration."""
    eids = sorted(d.edges)
    valid = set()
    for combo in itertools.product(HLS, repeat=len(eids)):
        hl = tuple((e, h) for e, h in zip(eids, combo) if h is not None)
        if check_web(d, PauliWeb(hl, ())):
            valid.add(hl)
    return valid


def span_highlights(d: ZxDiagram, webs) -> set:
    """Edge-highlight set spanned by a web basis (GF(2) span, projected)."""
    eids = sorted(d.edges)
    idx = {e: i for i, e in enumerate(eids)}

    def vec(w):
        v = np.zeros(2 * len(eids), dtype=np.uint8)
        for e, h in w.highlight:
            if h in ("green", "both"):
                v[2 * idx[e]] = 1
            if h in ("red", "both"):
                v[2 * idx[e] + 1] = 1
        return v

    vecs = [vec(w) for w in webs]
    out = set()
    for mask in itertools.product((0, 1), repeat=len(vecs)):
        v = np.zeros(2 * len(eids), dtype=np.uint8)
        for bit, w in zip(mask, vecs):
            if bit:
                v ^= w
        hl = []
        for e in eids:
            g, r = v[2 * idx[e]], v[2 * idx[e] + 1]
            if (g, r) != (0, 0):
                hl.append((e, {(1, 0): "green", (0, 1): "red", (1, 1): "both"}[(g, r)]))
        out.add(tuple(hl))
    return out


@pytest.mark.parametrize("name,d", samples.web_corpus(), ids=[n for n, _ in samples.web_corpus()])
def test_web_basis_matches_brute_force(name, d):
    assert len(d.edges) <= 6
    basis = web_basis(d)
    for w in basis:
        assert check_web(d, w)
    assert span_highlights(d, basis) == brute_force_webs(d)


def test_corpus_size():
    assert len(samples.web_corpus()) == 20


def test_bare_wire_basis():
    basis = web_basis(samples.wire())
    highlights = {w.highlight for w in basis}
    eid = list(samples.wire().edges)[0]
    assert highlights == {((0, "green"),), ((0, "red"),)} or len(basis) == 2


def test_three_leg_green_basis_size():
    d = samples.spider_tree("Z", 0, 3)
    assert len(web_basis(d)) == 3


def test_two_zz_has_one_region():
    d = samples.two_zz_measurements()
    regions = detecting_region_basis(d)
    assert len(regions) == 1
    r = regions[0]
    assert r.detecting_set == frozenset({"k1", "k2"})
    assert r.expected_parity == 0


def test_two_zz_with_x_pi_flips_parity():
    d = samples.two_zz_measurements()
    # insert an X pi spider on qubit 0's mid edge (between the two wire spiders)
    mid = [eid for eid, e in d.edges.items()
           if e.a == ("s", 2) and e.b == ("s", 3)][0]
    d2 = apply_fault(d, PauliString({mid: "X"}))
    regions = detecting_region_basis(d2)
    assert len(regions) == 1
    assert regions[0].detecting_set == frozenset({"k1", "k2"})
    assert regions[0].expected_parity == 1


def test_wire_has_no_regions():
    assert detecting_region_basis(samples.wire()) == []


def test_region_sign_rejects_boundary_web():
    d = samples.wire()
    w = PauliWeb(((0, "green"),), ())
    with pytest.raises(ValueError, match="boundary"):
        region_sign(d, w)


def legs_region_sign(d, w):
    """Reference for :func:`webs.flipped_by` and
    :func:`reference.region_sign`: the region sign loop that decided a
    spider is fired when all its legs are opposite-colour highlighted
    (leg-less spiders never fire)."""
    hl = w.edges
    inc = d.incidence()
    n_const = 0
    det: set = set()
    for sid, s in d.spiders.items():
        legs = inc[sid]
        if not legs:
            continue
        if not all(webs._leg_view(d, eid, ep,
                                  webs._HIGHLIGHT[hl.get(eid)][0])[1]
                   for eid, ep in legs):
            continue
        y = sum(1 for eid, _ in legs if hl.get(eid) == "both")
        if local_sign(s.colour, s.phase.qturns, y) == -1:
            n_const += 1
        det ^= set(s.phase.pivars)
    m = sum(1 for eid, h in w.highlight
            if h == "both" and not d.edges[eid].had)
    return (n_const + m) % 2, frozenset(det)


def flip_diagrams():
    yield from samples.web_corpus()
    for name in sorted(RULES):
        rule = make_rule(name)
        yield f"{name}-lhs", rule.lhs
        yield f"{name}-rhs", rule.rhs
    yield "split-meas-m3-rhs", make_rule("split-meas", m=3).rhs
    yield "naive-cat4", samples.naive_cat(4)
    yield "repetition-sandwich", samples.repetition_sandwich()
    yield "goto-prep", samples.goto_prep()


@pytest.mark.parametrize("name,d", list(flip_diagrams()),
                         ids=[n for n, _ in flip_diagrams()])
def test_flipped_by_matches_the_fired_by_legs_rule(name, d):
    for w in web_basis(d):
        assert webs.flipped_by(d, w) == legs_region_sign(d, w)[1]
    for r in detecting_region_basis(d):
        assert region_sign(d, r.web) == legs_region_sign(d, r.web) == \
            (r.expected_parity, r.detecting_set)


def test_detectability_two_zz():
    d = samples.two_zz_measurements()
    mid = [eid for eid, e in d.edges.items()
           if e.a == ("s", 2) and e.b == ("s", 3)][0]
    assert is_detectable(d, PauliString({mid: "X"}))
    assert not is_detectable(d, PauliString({mid: "Z"}))
    assert not is_detectable(d, PauliString())


def test_detectability_rejects_ideal_edge():
    d = samples.two_zz_measurements(ideal_internal=True)
    hub_edge = [eid for eid, e in d.edges.items() if e.ideal][0]
    with pytest.raises(ValueError, match="ideal"):
        is_detectable(d, PauliString({hub_edge: "X"}))


def _assignment_parity_ok(d, region, assignment_map):
    par = sum(assignment_map[v] for v in region.detecting_set) % 2
    return par == region.expected_parity


@pytest.mark.parametrize("name,d", samples.web_corpus(), ids=[n for n, _ in samples.web_corpus()])
def test_region_sign_soundness_vs_oracle(name, d):
    """Assignments violating a region's expected parity give the zero tensor."""
    t = evaluate(d)
    m = t.max_abs()
    for region in detecting_region_basis(d):
        if not region.detecting_set and region.expected_parity == 1:
            # an unconditional -1 region forces the whole family to zero
            assert m <= 1e-9, f"{name}: parity-1 empty-set region but tensor nonzero"
            continue
        for b in t.assignments():
            am = dict(zip(d.variables, b))
            if not _assignment_parity_ok(d, region, am):
                assert np.max(np.abs(t[b])) <= 1e-9 * max(m, 1.0), \
                    f"{name}: assignment {b} violates region parity but tensor nonzero"


def test_local_sign_against_oracle():
    """Re-derive the frozen local sign rule from single-spider evaluations."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1, -1]).astype(complex)
    Y = np.array([[0, -1j], [1j, 0]])
    letters = {"X": X, "Y": Y, "Z": Z}
    for colour in ("Z", "X"):
        for qt in range(4):
            for deg in (1, 2, 3, 4):
                d = samples.spider_tree(colour, qt, deg)
                v = evaluate(d)[()].reshape(-1)
                own_letter = "Z" if colour == "Z" else "X"
                opp_letter = "X" if colour == "Z" else "Z"
                for own_mask in itertools.product((0, 1), repeat=deg):
                    # fired web: all legs opposite-highlighted
                    if sum(own_mask) % 2 != qt % 2:
                        continue  # invalid web
                    ops = [letters["Y"] if b else letters[opp_letter] for b in own_mask]
                    p = ops[0]
                    for op in ops[1:]:
                        p = np.kron(p, op)
                    pv = p @ v
                    expected = local_sign(colour, qt, sum(own_mask))
                    assert np.allclose(pv, expected * v), \
                        (colour, qt, deg, own_mask)


def test_detectability_linear_in_region():
    """Anticommuting with some element of the span == with some basis element."""
    d = samples.two_zz_measurements()
    regions = detecting_region_basis(d)
    for eid in d.non_ideal_edges():
        for letter in "XYZ":
            f = PauliString({eid: letter})
            via_basis = is_detectable(d, f, regions)
            # enumerate the whole span
            hit = False
            for mask in itertools.product((0, 1), repeat=len(regions)):
                hl: dict = {}
                for bit, r in zip(mask, regions):
                    if not bit:
                        continue
                    for e, h in r.web.highlight:
                        g = h in ("green", "both")
                        red = h in ("red", "both")
                        og, orr = hl.get(e, (0, 0))
                        hl[e] = (og ^ g, orr ^ red)
                web = PauliWeb(tuple(sorted(
                    (e, {(1, 0): "green", (0, 1): "red", (1, 1): "both"}[gr])
                    for e, gr in hl.items() if gr != (0, 0))), ())
                if anticommutes(web, f):
                    hit = True
            assert via_basis == hit


DETECT_CORPUS = samples.web_corpus() + [
    ("two-zz", samples.two_zz_measurements()),
    ("naive-cat4", samples.naive_cat(4)),
    ("rep3-sandwich", samples.repetition_sandwich()),
]


@pytest.mark.parametrize("name,d", DETECT_CORPUS, ids=[n for n, _ in DETECT_CORPUS])
def test_detection_matches_oracle_parity(name, d):
    """Under a single-edge fault f, every nonzero branch of the faulted
    diagram has detecting-set parity expected_parity ^ anticommutes(web, f)."""
    regions = detecting_region_basis(d)
    checked = 0
    for eid in d.non_ideal_edges():
        for letter in "XYZ":
            f = PauliString({eid: letter})
            t = evaluate(apply_fault(d, f))
            tol = 1e-9 * max(t.max_abs(), 1.0)
            for b in t.assignments():
                if np.max(np.abs(t[b])) <= tol:
                    continue
                am = dict(zip(t.variables, b))
                for r in regions:
                    parity = sum(am[v] for v in r.detecting_set) % 2
                    assert parity == r.expected_parity ^ anticommutes(r.web, f), \
                        (name, f.to_text(), b)
                    checked += 1
    assert checked or not regions


BASIS_GROUPS = {
    "web-corpus": samples.web_corpus,
    "rule-sides": lambda: [(f"{name}:{side}", getattr(make(), side))
                           for name, make in RULES.items()
                           for side in ("lhs", "rhs")],
    "wire-pool": lambda: [(f"{i}+{j}", compose(a(), b()))
                          for i, a in enumerate(WIRE_POOL)
                          for j, b in enumerate(WIRE_POOL)],
}


@pytest.mark.parametrize("group", BASIS_GROUPS)
def test_bases_match_reference_solver(group, monkeypatch):
    """Both bases, in order, equal those that dense numpy elimination of the
    same system gives."""
    diagrams = BASIS_GROUPS[group]()
    fast = [(web_basis(d), detecting_region_basis(d)) for _, d in diagrams]
    monkeypatch.setattr(gf2, "nullspace", reference_nullspace)
    for (name, d), got in zip(diagrams, fast):
        assert got == (web_basis(d), detecting_region_basis(d)), name


def builder_sides():
    """(name, diagram): every builder's specification and implementation."""
    for name in sorted(BUILDERS):
        pair = build_gadget(name, **PARAMS.get(name, {}))
        yield f"{name} spec", pair.spec
        yield f"{name} impl", pair.implementation_diagram()[0]


# the diagrams on which what FaultClasses reads off its one solve is checked
SOLVE_GROUPS = {
    **BASIS_GROUPS,
    "builder-sides": builder_sides,
    "random-sides": lambda: [(f"{seed}:{side}", getattr(random_spec(seed),
                                                        side).diagram)
                             for seed in range(40)
                             for side in ("side_a", "side_b")],
}


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_every_basis_web_meets_the_spider_rules(group):
    """Each solution of the web system that web_basis returns, unchecked,
    meets the per-spider rules as the direct check reads them."""
    for name, d in SOLVE_GROUPS[group]():
        assert all(check_web(d, w) for w in web_basis(d)), name


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_regions_match_the_second_solve(group):
    """The regions read off the web basis are, list against list, those
    of a second elimination of the web system with the boundary zeroed."""
    for name, d in SOLVE_GROUPS[group]():
        assert detecting_region_basis(d) == \
            reference.detecting_region_basis(d), name


@pytest.mark.parametrize("group", ["web-corpus", "rule-sides",
                                   "builder-sides"])
def test_the_web_system_is_eliminated_once(group, monkeypatch):
    """FaultClasses, its regions, support, totality and zero rule read,
    makes two solves: one elimination of the web system and one
    bare-boundary solve over the basis webs."""
    real, calls = gf2.nullspace, []
    monkeypatch.setattr(gf2, "nullspace", lambda rows, n: calls.append(
        (list(rows), n)) or real(rows, n))
    for name, d in SOLVE_GROUPS[group]():
        calls.clear()
        classes = webs.FaultClasses(d)
        classes.alive, classes.regions, classes.support, classes.total
        rows, n_vars, _, _ = webs._build_system(d)
        assert [n for _, n in calls] == [n_vars, len(classes.webs)], name
        assert calls[0] == (rows, n_vars), name


def nonzero_classes(group) -> list:
    """(name, FaultClasses) for each nonzero diagram of a solve group, of
    which there is one at least."""
    out = [(name, webs.FaultClasses(d)) for name, d in SOLVE_GROUPS[group]()
           if evaluate(d).max_abs() >= TOL]
    assert out
    return out


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_web_signs_are_local_counts(group):
    """The sign fact: on a nonzero diagram each basis web's stabiliser,
    its port Paulis and outcome signs, and each sum of them, has
    eigenvalue (-1)^count times i per port Y on the diagram's own tensor,
    the count that a region's parity reads (FaultClasses.count, the
    webs.sign_count of the sum)."""
    rng = random.Random(group)
    for name, classes in nonzero_classes(group):
        d, n = classes.diagram, len(classes.webs)
        masks = [1 << j for j in range(n)] + \
            [rng.getrandbits(n) for _ in range(8)]
        sums = [classes.web_sum(m) for m in masks]
        assert all(w == web_sum([u for j, u in enumerate(classes.webs)
                                 if m >> j & 1])
                   for m, w in zip(masks, sums) if m), name
        got = reference.dense_read(d, sums, evaluate(d),
                                   OutcomeMap.identity(d.variables))
        assert got is not None, name
        want = [(-1) ** classes.count(m) * 1j ** (x & z).bit_count()
                for m, (x, z) in zip(masks, port_masks(d, [w.pauli
                                                           for w in sums]))]
        assert np.allclose(got[0], want, rtol=0, atol=TOL), name


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_webs_span_the_ports(group):
    """On a nonzero diagram the webs' port Paulis have full rank, one per
    port: the webs give a maximal stabiliser group of its tensor."""
    for name, classes in nonzero_classes(group):
        n = sum(map(len, classes.diagram.boundary()))
        rows = [x << n | z for x, z, _ in classes.masks]
        assert len(gf2.echelon(rows)) == n, name


def cut_out(classes, sums) -> list[int]:
    """The outcome assignments, read as ints as by OutcomeMap.sign_mask, on
    which the outcome mask of each web sum of ``sums`` (masks over the
    basis webs) has the parity of the sum's count."""
    rows = []
    for m in sums:
        o = 0
        for j, (_, _, mask) in enumerate(classes.masks):
            o ^= mask * (m >> j & 1)
        rows.append((o, classes.count(m) & 1))
    return [a for a in range(2 ** len(classes.diagram.variables))
            if all((a & o).bit_count() & 1 == c for o, c in rows)]


def branch_magnitudes(d) -> np.ndarray:
    """The largest magnitude of each outcome assignment's branch."""
    t = evaluate(d)
    return np.abs(t.array).reshape(2 ** len(d.variables), -1).max(axis=1)


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_the_support_is_cut_out_by_the_bare_sums(group):
    """The support fact: on a nonzero diagram the assignments with a
    nonzero branch are those cut out by every bare-boundary web sum, of
    the dimension FaultClasses.support gives, and on them every branch has
    the same largest magnitude."""
    for name, classes in nonzero_classes(group):
        d = classes.diagram
        mags = branch_magnitudes(d)
        support = list(np.flatnonzero(mags > TOL * mags.max()))
        assert cut_out(classes, classes.bare_masks) == support, name
        assert len(support) == 2 ** (len(d.variables) - len(classes.support))
        assert np.allclose(mags[support], mags.max(), rtol=0, atol=TOL), name


def constrained(d, rng) -> list:
    """``d``, ``d`` with 1-3 random extra constraints three times over,
    and ``d`` with its support rows, each with its count parity, as
    constraints, which makes a nonzero diagram with no other constraint
    total."""
    out = [d]
    for _ in range(3):
        e = d.copy()
        for _ in range(rng.randint(1, 3)):
            e.add_constraint([v for v in d.variables if rng.random() < 0.5],
                             rng.randrange(2))
        out.append(e)
    classes, n, e = webs.FaultClasses(d), len(d.variables), d.copy()
    for r in classes._bare[0]:
        e.add_constraint([v for i, v in enumerate(d.variables)
                          if r >> n - 1 - i & 1], classes.count(r >> n))
    return out + [e]


@pytest.mark.parametrize("group", SOLVE_GROUPS)
def test_totality_matches_the_oracle(group):
    """FaultClasses.total, read from the support fact and the zero rule,
    against the dense check, on each diagram under extra constraints."""
    rng, seen = random.Random(group), set()
    for name, d in SOLVE_GROUPS[group]():
        for e in constrained(d, rng):
            total = webs.FaultClasses(e).total
            assert total == reference.is_total(e), name
            seen.add(total)
    assert seen == {False, True}


def test_the_regions_alone_miss_the_support():
    # the bare sums that highlight no edge, those of leg-less Pauli
    # spiders, may read outcomes: regions alone cut out too much
    missed = set()
    for seed in range(40):
        spec = random_spec(seed)
        for side in (spec.side_a, spec.side_b):
            classes = webs.FaultClasses(side.diagram)
            if classes.alive:
                continue
            mags = branch_magnitudes(side.diagram)
            regions = [m for m in classes.bare_masks
                       if classes.web_sum(m).highlight]
            if cut_out(classes, regions) != \
                    list(np.flatnonzero(mags > TOL * mags.max())):
                missed.add(seed)
    assert sorted(missed) == [3, 14, 17, 18, 22, 29, 38]


# -- least-weight tables against the fault walk --------------------------------

def walked_table(d, m, max_weight) -> tuple[dict, dict, int]:
    """The walk that the tables replace: the first weight of each web
    syndrome in enumeration order (one anticommutation test per web), the
    detection of its first fault, and the number of faults."""
    web_list, regions = web_basis(d), detecting_region_basis(d)
    least, undetectable, count = {}, {}, 0
    for f, w in enumerate_faults(m, max_weight):
        count += 1
        s = syndrome(web_list, f)
        if s not in least:
            least[s] = w
            undetectable[s] = not is_detectable(d, f, regions)
    return least, undetectable, count


def table_mismatches(d, m, max_weight) -> list:
    """Where the least-weight table differs from the walk: its syndromes and
    least weights, detection flags and count, and any first fault that is
    not a least-weight fault of its class."""
    table = webs.ClassTable(webs.FaultClasses(d), m, max_weight)
    least, undetectable, count = walked_table(d, m, max_weight)
    out = []
    if table.least != least:
        out.append(("least", sorted(table.least.items() ^ least.items())))
    if table.undetectable != undetectable:
        out.append(("undetectable", sorted(table.undetectable.items()
                                           ^ undetectable.items())))
    if table.checked != count:
        out.append(("checked", table.checked, count))
    if list(table.least.values()) != sorted(table.least.values()):
        out.append(("not breadth first", list(table.least.values())))
    for s, f in table.firsts.items():
        if syndrome(table.classes.webs, f) != s or \
                fault_weight(f, m, max_weight) != table.least[s]:
            out.append(("first fault", s, f.to_text()))
    return out


def corpus_tables():
    """(name, diagram, noise model, max weight): the web corpus under edge
    flips, and builders' sides under their own noise."""
    from zxfault.builders import build_gadget
    for name, d in samples.web_corpus():
        yield name, d, edge_flip_atoms(d), 3
    for name, params in [("flagged-cat", {}), ("shor-ft", {}),
                         ("recursive-cat", {"n": 4}),
                         ("truncated-cat", {"n": 4, "w": 2})]:
        spec = build_gadget(name, **params).equivalence_spec(3)
        for side, s in (("impl", spec.side_a), ("spec", spec.side_b)):
            yield f"{name} {side}", s.diagram, s.noise, 2


@pytest.mark.parametrize("d,m,max_weight", [
    pytest.param(d, m, w, id=name) for name, d, m, w in corpus_tables()])
def test_tables_match_the_walk_on_the_corpus(d, m, max_weight):
    assert table_mismatches(d, m, max_weight) == []


def first_fault_cases():
    """(name, [(diagram, noise model, max weight)], digest): the web corpus
    under edge flips at w=3, and both sides of four builders at w=2.  The
    digest is the sha256 of (syndrome, least weight, first fault,
    undetectable) over each class of FaultClasses.search, in search order:
    the first fault is the one the guards, the error messages and
    find_equivalent_fault name."""
    from zxfault.builders import build_gadget
    yield ("web corpus w=3",
           [(d, edge_flip_atoms(d), 3) for _, d in samples.web_corpus()],
           "7011ce9f62ccb074b268a58cf2a31b260cd7186af6564a46107b6becd1f09b3e")
    for name, params, digest in [
            ("flagged-cat", {},
             "4886931cb00a792f3cb455d0c1e60df2a89bf362525544ff4c083999d15db583"),
            ("shor-ft", {},
             "496c71d8fd71d61df6519e7715109d24b48c51a7380661ff98cfe25400e4b640"),
            ("recursive-cat", {"n": 4},
             "e8f5a86ebc9008b73cd9659a109764161c61c7a0314ea0134b84d63628fd8b5d"),
            ("steane", {},
             "ad74ea1b944d978fa150ed1aad6cccd9cbc54f30fd80a33b7fff5e9ca4a74c3b")]:
        spec = build_gadget(name, **params).equivalence_spec(2)
        yield (f"{name} w=2", [(x.diagram, x.noise, 2)
                               for x in (spec.side_a, spec.side_b)], digest)


@pytest.mark.parametrize("cases,digest", [
    pytest.param(cases, digest, id=name)
    for name, cases, digest in first_fault_cases()])
def test_the_first_fault_of_each_class_is_pinned(cases, digest):
    h = hashlib.sha256()
    for d, m, max_weight in cases:
        for s, w, f, undetectable in webs.FaultClasses(d).search(m,
                                                                 max_weight):
            h.update(repr((s, w, f.to_text(), undetectable)).encode())
    assert h.hexdigest() == digest


def random_noise(d, seed: int) -> NoiseModel:
    """A random noise model on the diagram's fault-prone edges: each edge
    with 1, 2 or 3 of its letters as atoms, or none, and atoms across two or
    three edges, when the diagram has that many."""
    rng = random.Random(seed)
    eids = d.non_ideal_edges()
    atoms = [PauliString({e: l}) for e in eids
             for l in rng.sample("XYZ", rng.randint(0, 3))]
    for _ in range(rng.randint(1, 3) if len(eids) > 1 else 0):
        locs = rng.sample(eids, rng.randint(2, min(3, len(eids))))
        atoms.append(PauliString({e: rng.choice("XYZ") for e in locs}))
    return NoiseModel([AtomicFault(p, "edge-flip") for p in atoms], "random")


def random_tables():
    """(name, diagram, noise model): each corpus diagram with four
    fault-prone edges or more under random noise models."""
    for name, d in samples.web_corpus():
        if len(d.non_ideal_edges()) >= 4:
            for seed in range(4):
                yield f"{name} seed {seed}", d, random_noise(d, seed)


@pytest.mark.parametrize("d,m", [pytest.param(d, m, id=name)
                                 for name, d, m in random_tables()])
def test_tables_match_the_walk_on_random_noise(d, m):
    assert table_mismatches(d, m, 3) == []


def test_random_noise_reaches_both_counts():
    # atoms across several edges are walked as one block, and edges with
    # one or two letters are counted in closed form as well as edges with
    # three: each of the three occurs in the random models
    seen = set()
    for _, d, m in random_tables():
        letters: dict = {}
        for p in m.paulis():
            locs = p.locations()
            if len(locs) > 1:
                seen.add("several edges")
            else:
                letters[locs[0]] = letters.get(locs[0], 0) + 1
        seen.update(f"{n} letters" for n in letters.values())
    assert seen == {"several edges", "1 letters", "2 letters", "3 letters"}


def test_search_reaches_the_weight_bound():
    # the repetition sandwich under bit flips has classes of least weight 3,
    # the weight bound here: a search one layer short loses them, and a
    # bound above the last class's weight adds none
    d = samples.repetition_sandwich()
    m = x_flip_atoms(d)
    least, _, _ = walked_table(d, m, 3)
    assert max(least.values()) == 3
    for max_weight in (3, 4):
        assert webs.ClassTable(webs.FaultClasses(d), m,
                               max_weight).least == least
