import pytest

from reference import is_total
from zxfault.builders import BUILDERS, build_gadget
from zxfault.feq import check_w_fault_equivalence

PARAMS = {
    "recursive-cat": {"n": 4},
    "truncated-cat": {"n": 4, "w": 2},
    "repeating-measurement": {"n": 3,
                              "stabilisers": [("ZZ", (0, 1)), ("ZZ", (1, 2))],
                              "rounds": 2},
}


def pair_for(name):
    return build_gadget(name, **PARAMS.get(name, {}))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_outputs_validate(name):
    pair = pair_for(name)
    assert not pair.spec.validate()
    assert not pair.implementation.validate()
    d, m = pair.implementation_diagram()
    assert not d.validate()
    assert m.atoms


def test_unknown_builder_rejected():
    with pytest.raises(ValueError, match="unknown gadget"):
        build_gadget("no-such-gadget")


def test_flagged_cat_records_post_selection():
    pair = pair_for("flagged-cat")
    assert pair.constraints == [(["k"], 0)]
    d, _ = pair.implementation_diagram()
    assert (frozenset({"k"}), 0) in d.constraints


def test_flagged_cat_equivalent_at_weight_one():
    # the full w=3 run lives in the acceptance suite
    spec = pair_for("flagged-cat").equivalence_spec(1)
    assert check_w_fault_equivalence(spec).equivalent


def test_cat_like_is_specification_only():
    pair = pair_for("cat-like")
    assert pair.implementation.non_implementable
    assert not pair.implementation.validate()


def test_shor_ft_correspondence():
    pair = pair_for("shor-ft")
    assert pair.corr_exprs == {"k": "k1^k2^k3^k4"}
    assert pair.w == 3


def test_optimised_steane_resource_counts():
    c = pair_for("steane-optimised").implementation
    assert c.qubits - 7 == 5          # five ancillas
    assert c.count("CNOT") == 15      # fifteen entangling gates
    assert c.count_measurements() == 5


def test_optimised_shor_resource_counts():
    pair = pair_for("shor-optimised")
    c = pair.implementation
    assert c.qubits - 4 == 3          # three auxiliary qubits
    assert pair.corr_exprs == {"k": "k1^k2"}


def test_shor_alternative_claims_weight_two():
    pair = pair_for("shor-alternative")
    assert pair.w == 2
    assert pair.implementation.count_measurements() == 4


def test_recursive_cat_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_gadget("recursive-cat", n=3)


def test_repeating_measurement_structure():
    pair = pair_for("repeating-measurement")
    c = pair.implementation
    assert c.count("MPP") == 4        # 2 stabilisers x 2 rounds
    assert pair.corr_exprs == {"K1": "k2_1", "K2": "k2_2"}
    assert pair.constraints  # consecutive rounds must agree


def test_spec_sides_are_total():
    for name in ("flagged-cat", "shor-ft"):
        assert is_total(pair_for(name).spec)
