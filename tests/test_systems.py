import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.constructions.haar import haar_system
from latmax.spaces import element, lp_block
from latmax.systems import (BiorthogonalSystem, ConstantReport,
                            absolute_constant, basis_constant,
                            bibasis_constant, coefficients, maximal_partial,
                            partial_sum, reconstruct, recompute_constant,
                            report_from_json, witness_rows_csv)


def unit_system(dim, p=2.0, weights=None):
    sp = lp_block(dim, p, weights)
    eye = np.eye(dim)
    return BiorthogonalSystem(sp, eye, eye)


def random_system(rng, dim, p=2.0):
    # functionals = inverse transpose, so the pairing is exactly biorthogonal
    sp = lp_block(dim, p)
    while True:
        V = rng.standard_normal((dim, dim))
        if np.linalg.cond(V) < 50:
            break
    F = np.linalg.inv(V).T
    return BiorthogonalSystem(sp, V, F)


@st.composite
def well_conditioned_systems(draw):
    """V = I + eps R with ||eps R||_2 <= 1/2 and F = inv(V).T, over l_p."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = rng.standard_normal((n, n))
    V = np.eye(n) + draw(st.floats(0.0, 0.5)) / np.linalg.norm(R, 2) * R
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0, np.inf)))
    return BiorthogonalSystem(lp_block(n, p), V, np.linalg.inv(V).T)


@settings(max_examples=60, deadline=None)
@given(well_conditioned_systems(), st.data())
def test_coefficients_invert_reconstruction(sysm, data):
    n = len(sysm)
    a = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=n, max_size=n), label="a"))
    back = coefficients(sysm, reconstruct(sysm, a))
    assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)


def test_gram_check_reads_every_row_of_a_large_system():
    # a sampled check above 512 rows read rows 0..7, the last row and 64
    # rows drawn by default_rng(0); perturb a row outside that set
    sysm = haar_system(10, 2.0)
    n = len(sysm)
    sampled = set(range(8)) | {n - 1} | set(
        np.random.default_rng(0).integers(0, n, size=64).tolist())
    row = max(set(range(n)) - sampled)
    F = np.array(sysm.functionals)
    F[row, np.flatnonzero(F[row])[0]] *= 1.001
    with pytest.raises(ValueError, match="biorthogonality"):
        BiorthogonalSystem(sysm.space, sysm.vectors, F)


def test_gram_check_rejects_non_biorthogonal():
    sp = lp_block(3, 2.0)
    V = np.eye(3)
    F = np.eye(3)
    F[0, 0] = 1.5
    with pytest.raises(ValueError, match="biorthogonality"):
        BiorthogonalSystem(sp, V, F)


def test_shape_and_label_validation():
    sp = lp_block(3, 2.0)
    with pytest.raises(ValueError):
        BiorthogonalSystem(sp, np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        BiorthogonalSystem(sp, np.eye(3), np.eye(3), labels=("a",))


def test_coefficients_invert_reconstruct():
    rng = np.random.default_rng(23)
    for k in range(20):
        sys = random_system(rng, int(rng.integers(2, 7)))
        a = rng.standard_normal(len(sys))
        x = reconstruct(sys, a)
        assert np.allclose(coefficients(sys, x), a, atol=1e-10)


def test_weighted_host_pairing_is_unweighted():
    # weights live in the norm only; duality is the plain dot product
    sp = lp_block(3, 1.0, weights=[0.25, 0.25, 0.5])
    V = np.eye(3)
    sys = BiorthogonalSystem(sp, V, V)
    x = element(sp, [2.0, -1.0, 4.0])
    assert np.allclose(coefficients(sys, x), [2.0, -1.0, 4.0])


def test_partial_sum_prefix():
    sys = unit_system(4)
    x = element(sys.space, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(partial_sum(sys, x, 2).coords, [1.0, 2.0, 0.0, 0.0])
    assert np.allclose(partial_sum(sys, x, 4).coords, x.coords)
    with pytest.raises(ValueError):
        partial_sum(sys, x, 0)
    with pytest.raises(ValueError):
        partial_sum(sys, x, 5)


def test_maximal_partial_unit_vectors_is_running_modulus():
    rng = np.random.default_rng(31)
    sys = unit_system(6, p=1.0)
    for k in range(25):
        c = rng.standard_normal(6)
        x = element(sys.space, c)
        got = maximal_partial(sys, x, 6).coords
        assert np.allclose(got, np.abs(c))


def test_maximal_partial_oscillation_exceeds_final_sum():
    # +1 then -1 on overlapping support: the join remembers the peak
    sp = lp_block(2, 1.0)
    V = np.array([[1.0, 0.0], [-1.0, 1.0]])
    F = np.linalg.inv(V).T
    sys = BiorthogonalSystem(sp, V, F)
    x = reconstruct(sys, [1.0, 1.0])
    peak = maximal_partial(sys, x, 2)
    assert sys.space.norm(peak.coords) >= sys.space.norm(x.coords) + 1.0 - 1e-12


def test_basis_constant_unit_vectors_is_one():
    rng = np.random.default_rng(7)
    sys = unit_system(5, p=2.0)
    witnesses = [rng.standard_normal(5) for _ in range(10)]
    rep = basis_constant(sys, witnesses)
    assert rep.value == pytest.approx(1.0)
    assert rep.constant_name == "basis"
    assert rep.budget == 10


def test_bibasis_dominates_basis_dominates_one():
    rng = np.random.default_rng(41)
    for k in range(10):
        sys = random_system(rng, 5)
        witnesses = [rng.standard_normal(5) for _ in range(8)]
        b = basis_constant(sys, witnesses).value
        bb = bibasis_constant(sys, witnesses).value
        assert bb >= b - 1e-12
        assert b >= 1.0 - 1e-12


def test_empty_witness_is_zero_support():
    sys = haar_system(3, 2.0)
    for builder in (basis_constant, bibasis_constant, absolute_constant):
        with pytest.raises(ValueError, match="no witness with nonzero support"):
            builder(sys, [[]])
        rep = builder(sys, [[], np.ones(8)])
        assert rep.rows[0] == (0, 0.0, 0)
        assert np.array_equal(rep.witness, np.ones(8))


def test_absolute_constant_sign_invariant_hosts():
    rng = np.random.default_rng(43)
    sys = unit_system(4, p=1.5)
    witnesses = [rng.standard_normal(4) for _ in range(6)]
    rep = absolute_constant(sys, witnesses)
    assert rep.value == pytest.approx(1.0)


def test_report_value_recomputable_from_witness():
    rng = np.random.default_rng(53)
    for k in range(10):
        sys = random_system(rng, 6)
        witnesses = [rng.standard_normal(6) for _ in range(5)]
        for builder in (basis_constant, bibasis_constant, absolute_constant):
            rep = builder(sys, witnesses)
            assert recompute_constant(sys, rep) == pytest.approx(rep.value, abs=1e-9)


def test_report_json_round_trip():
    sys = unit_system(3)
    rep = basis_constant(sys, [np.array([1.0, -2.0, 0.5])])
    back = report_from_json(rep.to_json())
    assert back.constant_name == rep.constant_name
    assert back.value == rep.value
    assert np.array_equal(back.witness, rep.witness)
    assert back.search == rep.search
    assert back.budget == rep.budget


def test_report_rejects_unknown_tags():
    with pytest.raises(ValueError):
        ConstantReport("frame", 1.0, np.ones(2), "structured_family", 1)
    with pytest.raises(ValueError):
        ConstantReport("basis", 1.0, np.ones(2), "grid", 1)


def test_witness_rows_csv_shape():
    sys = unit_system(3)
    rep = basis_constant(sys, [np.ones(3), np.array([1.0, 0.0, 0.0])])
    text = witness_rows_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "witness,ratio,m"
    assert len(lines) == 3
