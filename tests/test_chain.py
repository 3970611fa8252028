import pytest

from toricsym.chain import verify_implication_chain
from toricsym.errors import NonFanoError
from toricsym.fan import Fan


def nodes(report):
    return dict(report.nodes)


def test_chain_p2(p2_fan):
    cr = verify_implication_chain(p2_fan, 3)
    assert cr.consistent
    nd = nodes(cr)
    assert not nd["centrally_symmetric"]
    assert nd["bs_symmetric"] and nd["alpha_one"]
    assert nd["bck_zero_all_k"] and nd["bc_zero"]
    assert nd["lattice_symmetric"] and nd["reductive"]


def test_chain_dp1_all_false(dp1_fan):
    cr = verify_implication_chain(dp1_fan, 3)
    assert cr.consistent
    assert not any(val for _, val in cr.nodes)
    ks = [k for k, bc in cr.quantized if any(bc)]
    assert 1 in ks  # Bc_1 = (1/9, 1/9) already witnesses failure


def test_chain_fano52_one_way_witness(fano52_fan):
    # Reductive with nonzero barycenter: the bottom of the chain holds
    # while everything above it fails, so the last implication is strict.
    cr = verify_implication_chain(fano52_fan, 4)
    assert cr.consistent
    nd = nodes(cr)
    assert nd["lattice_symmetric"] and nd["reductive"]
    assert not nd["bc_zero"]
    assert not nd["bck_zero_n_plus_1"]


def test_chain_p2_witnesses_strict_first_implication(p2_fan):
    # Batyrev-Selivanova symmetric but not centrally symmetric.
    nd = nodes(verify_implication_chain(p2_fan, 3))
    assert nd["bs_symmetric"] and not nd["centrally_symmetric"]


def test_chain_rejects_non_fano():
    f = Fan.from_rays([(1, 0), (0, 1), (-1, -3)])
    with pytest.raises(NonFanoError):
        verify_implication_chain(f, 3)


def test_chain_uses_enough_dilations(dp3_fan):
    cr = verify_implication_chain(dp3_fan, 1)
    assert len(cr.quantized) >= dp3_fan.dim + 1
    assert cr.consistent


def test_chain_stops_at_its_first_witness(dp1_fan, dp3_fan):
    # Bc_1 != 0 on dp1 decides nodes 4-6, so nothing past the budget is
    # computed; on dp3 every Bc_k vanishes, so the chain goes on to n+1.
    for budget, computed in ((None, 1), (1, 1), (3, 3)):
        cr = verify_implication_chain(dp1_fan, budget)
        assert [k for k, _ in cr.quantized] == list(range(1, computed + 1))
        assert not cr.node("bck_zero_all_k") and cr.consistent
    cr = verify_implication_chain(dp3_fan, 1)
    assert [k for k, _ in cr.quantized] == [1, 2, 3]
    assert cr.node("bck_zero_all_k")
