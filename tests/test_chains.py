import pytest

from cobarlab.chains import (ChainComplex, ChainMap, add_scaled, chain_sub,
                             check_chain_map, check_quasi_iso, mapping_cone,
                             scaled, tensor_chains, tensor_complex)
from cobarlab.cobar import CobarSet
from cobarlab.cubes import StandardCube, cubical_chains
from cobarlab.simpcube import SimplicialCube
from cobarlab.simplicial import simplicial_chains, sphere
from cobarlab.snf import smith_normal_form
from cobarlab.triangulate import triangulation_map


def circle():
    return ChainComplex({0: ("v",), 1: ("e",)}, {"v": {}, "e": {}})


def disk_mod_2():
    # one cell in each dimension 0..2, the 2-cell wrapping twice
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {"v": {}, "e": {}, "f": {"e": 2}})


def test_chain_arithmetic():
    a = {"x": 2, "y": -1}
    b = {"y": 1, "z": 3}
    assert chain_sub(a, b) == {"x": 2, "y": -2, "z": -3}
    assert scaled(a, 0) == {}
    out = dict(a)
    add_scaled(out, b, 2)
    assert out == {"x": 2, "y": 1, "z": 6}
    assert tensor_chains({"x": 2}, {"y": 3}, -1) == {("x", "y"): -6}


def test_homology_of_circle():
    cx = circle()
    assert cx.check_d_squared().ok
    assert str(cx.homology(0)) == "Z"
    assert str(cx.homology(1)) == "Z"


def test_homology_with_torsion():
    cx = disk_mod_2()
    assert str(cx.homology(0)) == "Z"
    assert str(cx.homology(1)) == "Z/2"
    assert str(cx.homology(2)) == "0"


def test_d_squared_detects_errors():
    bad = ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                       {"v": {}, "e": {"v": 1}, "f": {"e": 1}})
    assert not bad.check_d_squared().ok


def test_tensor_complex_homology():
    # two circles: the product complex has torus Betti numbers 1, 2, 1
    t = tensor_complex(circle(), circle())
    assert t.check_d_squared().ok
    assert t.homology(0).betti == 1
    assert t.homology(1).betti == 2
    assert t.homology(2).betti == 1


def test_mapping_cone_of_identity_is_acyclic():
    cx = circle()
    ident = ChainMap(cx, cx, {"v": {"v": 1}, "e": {"e": 1}})
    assert check_chain_map(ident).ok
    cone = mapping_cone(ident)
    assert cone.check_d_squared().ok
    for n in cone.degrees:
        h = cone.homology(n)
        assert h.betti == 0 and not h.torsion
    assert check_quasi_iso(ident).ok


def test_quasi_iso_fails_for_zero_map():
    cx = circle()
    zero = ChainMap(cx, cx, {"v": {}, "e": {}})
    assert check_chain_map(zero).ok
    assert not check_quasi_iso(zero).ok


def dense_homology(cx, n):
    """H_n by dense Smith normal form of the boundary matrices."""
    rank_dn = smith_normal_form(cx.boundary_matrix(n)).rank if n >= 1 else 0
    snf_up = smith_normal_form(cx.boundary_matrix(n + 1))
    return (cx.rank(n) - rank_dn - snf_up.rank,
            tuple(d for d in snf_up.diag if d > 1))


@pytest.mark.parametrize("build", [
    lambda: tensor_complex(disk_mod_2(), disk_mod_2()),
    lambda: simplicial_chains(SimplicialCube(3), 3),
    lambda: cubical_chains(CobarSet(sphere(3)), 4),
    lambda: mapping_cone(triangulation_map(StandardCube(2), 3)[3]),
], ids=["disk-mod-2-squared", "simplicial-cube-3", "cobar-chains-S3",
        "cone-triangulation-cube-2"])
def test_homology_agrees_with_dense_snf(build):
    cx = build()
    for n in range(cx.max_degree):
        h = cx.homology(n)
        assert (h.betti, h.torsion) == dense_homology(cx, n), n


def test_torsion_comes_from_the_non_unit_block():
    t = tensor_complex(disk_mod_2(), disk_mod_2())
    # Kunneth: H_1 = Z/2 + Z/2, H_2 = Z/2 (tensor), H_3 = Z/2 (Tor)
    assert [str(t.homology(n)) for n in range(4)] == [
        "Z", "Z/2 + Z/2", "Z/2", "Z/2"]
