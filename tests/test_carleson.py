"""Carleson families on a worked four-point forest: shell decomposition,
proof coefficients, exact certification, and the embedding bound."""

import math
import warnings

import numpy as np
import pytest

from filtermax import (
    Exponents,
    build_level_sets,
    build_principal_forest,
    certify_carleson_constant,
    check_carleson_condition,
    enumerate_stopping_times,
    proof_coefficients,
    verify_embedding,
)

H = np.array([1.0, 0.0, 0.0, 0.0])
SIGMA1 = np.array([3.0, 1.0, 1.0, 1.0])
P22 = Exponents(2.0, 2.0)


@pytest.fixture
def forest(quad):
    out = build_principal_forest(quad, 0, -2, np.arange(4), H, H)
    assert out is not None and out.n_nodes == 2
    return out


@pytest.fixture
def node_family(quad, forest):
    family = build_level_sets(forest, SIGMA1, np.ones(4), variant="node")
    return proof_coefficients(quad, family, SIGMA1, np.ones(4), np.ones(4), P22)


def test_build_level_sets_node_variant(node_family):
    # root: E_0(s1) E_0(s2) = 1.5 in shell (1,2] -> l = 0, over the node
    # child at level 2 on {0}: value 3 in shell (2,4] -> l = 1
    assert node_family.variant == "node"
    assert node_family.base_level == 0
    assert len(node_family.entries) == 2
    e0, e1 = node_family.entries
    assert (e0.node_index, e0.k1, e0.level_exp) == (0, 0, 0)
    assert e0.points.tolist() == [0, 1, 2, 3]
    assert (e1.node_index, e1.k1, e1.level_exp) == (1, 2, 1)
    assert e1.points.tolist() == [0]


def test_build_level_sets_exit_variant(quad, forest):
    family = build_level_sets(forest, SIGMA1, np.ones(4), variant="exit")
    assert [e.points.tolist() for e in family.entries] == [[1, 2, 3], [0]]
    with pytest.raises(ValueError):
        build_level_sets(forest, SIGMA1, np.ones(4), variant="bogus")


def test_proof_coefficients(quad, forest, node_family):
    # a = int_A (E_K1(s1) E_K1(s2))^p v dmu: 1.5 * 1 and 3 * 0.25
    assert node_family.coefficients().tolist() == [1.5, 0.75]
    exit_family = build_level_sets(forest, SIGMA1, np.ones(4), variant="exit")
    exit_family = proof_coefficients(quad, exit_family, SIGMA1, np.ones(4), np.ones(4), P22)
    assert exit_family.coefficients().tolist() == [1.125, 0.75]


def test_certification_hand_value(quad, node_family):
    family, worst = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    assert family.certified
    # worst tail is the whole space: (1.5 + 0.75) / int sqrt(sigma1)
    expected = 2.25 / ((math.sqrt(3.0) + 3.0) / 4.0)
    assert family.carleson_A == pytest.approx(expected, rel=1e-14)
    assert family.carleson_A == pytest.approx(1.9019237886466842)
    assert worst.tail_set().tolist() == [0, 1, 2, 3]


def test_certification_exit_variant(quad, forest):
    family = build_level_sets(forest, SIGMA1, np.ones(4), variant="exit")
    family = proof_coefficients(quad, family, SIGMA1, np.ones(4), np.ones(4), P22)
    family, worst = certify_carleson_constant(quad, family, SIGMA1, np.ones(4), P22)
    # worst tail {0}: only the child entry fits, 0.75 / (sqrt(3)/4) = sqrt(3)
    assert family.carleson_A == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert worst.tail_set().tolist() == [0]


def test_certified_constant_is_tight_over_all_taus(quad, node_family):
    family, _ = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    ratios = []
    mix = np.sqrt(SIGMA1) * quad.masses
    for tau in enumerate_stopping_times(quad, 0):
        tail = tau.tail_mask()
        check = check_carleson_condition(quad, family, SIGMA1, np.ones(4), P22, tau)
        assert check.ok
        den = float(mix[tail].sum())
        if den > 0:
            ratios.append(check.lhs / den)
    assert max(ratios) == pytest.approx(family.carleson_A, rel=1e-14)


def test_condition_requires_certified_constant(quad, node_family):
    tau = next(enumerate_stopping_times(quad, 0))
    with pytest.raises(ValueError, match="not certified"):
        check_carleson_condition(quad, node_family, SIGMA1, np.ones(4), P22, tau)


@pytest.mark.parametrize("name", ["sigma1", "sigma2"])
@pytest.mark.parametrize("bad", [np.zeros(4), np.array([1.0, -1.0, 1.0, 1.0])])
def test_certification_and_condition_check_their_sigmas(quad, node_family, name, bad):
    """An all-zero sigma made A inf, a negative point made it 0.0; both are refused."""
    sigmas = {"sigma1": SIGMA1, "sigma2": np.ones(4), name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive$"):
        certify_carleson_constant(quad, node_family, sigmas["sigma1"], sigmas["sigma2"], P22)
    family, _ = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    tau = next(enumerate_stopping_times(quad, 0))
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive$"):
        check_carleson_condition(quad, family, sigmas["sigma1"], sigmas["sigma2"], P22, tau)


def test_certification_refuses_an_infinite_constant(quad, node_family):
    """sigma1 = sigma2 = 5e-324 underflow every tail's mix integral to 0 under
    positive coefficients: A would be inf (it was certified, after a divide
    warning).  With every coefficient 0 too, each tail is 0/0 and none imposes a
    condition."""
    tiny = np.full(4, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Carleson constant A is inf at tail \[0\], past float range$"):
            certify_carleson_constant(quad, node_family, tiny, tiny, P22)
        zero = node_family.with_coefficients(np.zeros(len(node_family.entries)))
        with pytest.raises(ValueError, match="^tail objective is nan"):
            certify_carleson_constant(quad, zero, tiny, tiny, P22)


def test_condition_rejects_finer_origin(quad, node_family):
    family, _ = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    tau = next(enumerate_stopping_times(quad, 2))
    with pytest.raises(ValueError, match="origin"):
        check_carleson_condition(quad, family, SIGMA1, np.ones(4), P22, tau)


def test_with_coefficients_scaling(quad, node_family):
    family, _ = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    doubled = family.with_coefficients(2.0 * family.coefficients())
    assert not doubled.certified  # new coefficients void the certificate
    assert doubled.carleson_A is None
    doubled, _ = certify_carleson_constant(quad, doubled, SIGMA1, np.ones(4), P22)
    assert doubled.carleson_A == pytest.approx(2.0 * family.carleson_A, rel=1e-14)
    with pytest.raises(ValueError):
        family.with_coefficients([1.0])
    with pytest.raises(ValueError):
        family.with_coefficients([-1.0, 2.0])


def test_embedding_hand_value(quad, forest, node_family):
    """Self-consistent data: omega1 = 1/sigma1 at p1 = 2, so the family's
    dual weights match the embedding's.  lhs = (1/24)*1.5 + (1/3)*0.75."""
    family, _ = certify_carleson_constant(quad, node_family, SIGMA1, np.ones(4), P22)
    omega1 = 1.0 / SIGMA1
    report = verify_embedding(forest, family, H, H, omega1, np.ones(4), P22)
    assert report.lhs == pytest.approx(0.3125, rel=1e-12)
    n1 = 1.0 * omega1[0] * 0.25
    n2 = 1.0 * 1.0 * 0.25
    expected_rhs = family.carleson_A * 4.0 * math.sqrt(n1) * math.sqrt(n2)
    assert report.rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert report.ok
    assert report.certified
    assert report.slack == report.rhs - report.lhs
    assert report.variant == "node"


def test_embedding_requires_certificate(quad, forest, node_family):
    with pytest.raises(ValueError, match="not certified"):
        verify_embedding(forest, node_family, H, H, 1.0 / SIGMA1, np.ones(4), P22)
    # an explicitly supplied constant runs but is flagged uncertified
    manual = node_family.with_constant(5.0, certified=False)
    report = verify_embedding(forest, manual, H, H, 1.0 / SIGMA1, np.ones(4), P22)
    assert not report.certified
    assert report.carleson_A == 5.0
