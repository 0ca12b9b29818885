import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmax.greedy import (_RATIOS, CheckReport, GreedyOrdering,
                           all_greedy_orderings,
                           constant_coefficient_checks, count_greedy_orderings,
                           greedy_maximal, greedy_sum, kvee_estimate,
                           natural_greedy_ordering, ordered_projection_maximal,
                           quasi_greedy_constant, recompute_greedy_constant,
                           strictify, uqg_constant)
from latmax.constructions.haar import haar_system
from latmax.constructions.typewriter import typewriter_frame
from latmax.spaces import element, lp_block
from latmax.systems import (BiorthogonalSystem, ConstantReport, _column_scan,
                            _scatter, absolute_constant, basis_constant,
                            bibasis_constant, coefficients, maximal_partial,
                            recompute_constant, reconstruct, report_from_json)


def unit_system(dim, p=2.0, weights=None):
    sp = lp_block(dim, p, weights)
    eye = np.eye(dim)
    return BiorthogonalSystem(sp, eye, eye)


def random_system(rng, dim, p=2.0):
    sp = lp_block(dim, p)
    while True:
        V = rng.standard_normal((dim, dim))
        if np.linalg.cond(V) < 50:
            break
    return BiorthogonalSystem(sp, V, np.linalg.inv(V).T)


def test_natural_ordering_definition_trace():
    # |-2| ties |2|: smaller index wins; zeros go last in index order
    assert natural_greedy_ordering([0.5, -2.0, 2.0]).permutation == (1, 2, 0)
    assert natural_greedy_ordering([0.0, 0.0, 0.0]).permutation == (0, 1, 2)
    assert natural_greedy_ordering([1.0, 1.0, 1.0]).permutation == (0, 1, 2)
    assert natural_greedy_ordering([0.0, 3.0, 0.0, 1.0]).permutation == (1, 3, 0, 2)


def test_ordering_determinism():
    rng = np.random.default_rng(2)
    for k in range(10000):
        a = np.round(rng.standard_normal(6), 1)  # rounding plants ties
        p1 = natural_greedy_ordering(a).permutation
        p2 = natural_greedy_ordering(a.copy()).permutation
        assert p1 == p2
        mods = np.abs(a)[list(p1)]
        assert np.all(np.diff(mods) <= 0)


def test_ordering_validation():
    with pytest.raises(ValueError):
        GreedyOrdering((0, 1), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        GreedyOrdering((0, 1, 2), (1.0, 2.0, 3.0))


def test_all_greedy_orderings_counts_tie_groups():
    a = [3.0, -3.0, 1.0, 0.0]
    assert count_greedy_orderings(a) == 2
    perms = [o.permutation for o in all_greedy_orderings(a)]
    assert perms == [(0, 1, 2, 3), (1, 0, 2, 3)]
    assert count_greedy_orderings([1.0, 1.0, 1.0, 2.0]) == 6
    with pytest.raises(ValueError):
        list(all_greedy_orderings(np.ones(10), limit=10))


def test_greedy_sum_basics():
    sys = unit_system(5)
    x = reconstruct(sys, [0.0, 3.0, 0.0, 0.0, 1.0])
    assert np.allclose(greedy_sum(sys, x, 0).coords, 0.0)
    assert np.allclose(greedy_sum(sys, x, 1).coords, [0, 3.0, 0, 0, 0])
    assert np.allclose(greedy_sum(sys, x, 2).coords, x.coords)
    with pytest.raises(ValueError):
        greedy_sum(sys, x, 6)


def test_greedy_sum_reconstructs_at_full_support():
    rng = np.random.default_rng(19)
    for k in range(30):
        sys = random_system(rng, int(rng.integers(2, 7)))
        a = rng.standard_normal(len(sys))
        x = reconstruct(sys, a)
        g = greedy_sum(sys, x, len(sys))
        assert np.allclose(g.coords, x.coords, atol=1e-8)


def test_greedy_scaling_invariance():
    rng = np.random.default_rng(29)
    sys = random_system(rng, 5)
    a = rng.standard_normal(5)
    x = reconstruct(sys, a)
    for lam in (2.5, -3.0):
        y = reconstruct(sys, lam * a)
        for m in range(1, 6):
            assert np.allclose(greedy_sum(sys, y, m).coords,
                               lam * greedy_sum(sys, x, m).coords, atol=1e-9)


def test_greedy_maximal_monotone_exact():
    rng = np.random.default_rng(3)
    sys = random_system(rng, 8)
    for k in range(10000 // 8):
        a = np.round(rng.standard_normal(8), 1)
        x = reconstruct(sys, a)
        prev = greedy_maximal(sys, x, 1).coords
        for m in range(2, 9):
            cur = greedy_maximal(sys, x, m).coords
            assert np.all(cur >= prev)  # exact, no tolerance
            prev = cur


def test_ordered_projection_prefix_matches_maximal_partial_bitwise():
    rng = np.random.default_rng(37)
    for k in range(20):
        sys = random_system(rng, 6)
        x = reconstruct(sys, rng.standard_normal(6))
        for m in range(1, 7):
            lhs = ordered_projection_maximal(sys, x, np.arange(m)).coords
            rhs = maximal_partial(sys, x, m).coords
            assert np.array_equal(lhs, rhs)


def test_ordered_projection_singleton_and_repeats():
    sys = unit_system(4)
    x = reconstruct(sys, [1.0, -2.0, 0.5, 0.0])
    got = ordered_projection_maximal(sys, x, [1]).coords
    assert np.allclose(got, [0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ordered_projection_maximal(sys, x, [1, 1])


def test_uqg_unit_vectors_sup_host():
    sp = lp_block(4, float("inf"))
    sys = BiorthogonalSystem(sp, np.eye(4), np.eye(4))
    rng = np.random.default_rng(5)
    rep = uqg_constant(sys, [rng.standard_normal(4) for _ in range(10)])
    assert rep.value == pytest.approx(1.0)
    assert rep.constant_name == "uniform_quasi_greedy"


def test_strictify_realizes_each_ordering():
    a = np.array([2.0, -2.0, 1.0, 0.0])
    for o in all_greedy_orderings(a):
        b = strictify(a, o)
        assert natural_greedy_ordering(b).permutation == o.permutation
        assert np.max(np.abs(b - a)) < 1e-11


def test_ordering_equivalence_on_random_systems():
    # sup over all orderings and m vs full-support natural max over the
    # tie-perturbed family; finite form of the constant equivalence lemma
    rng = np.random.default_rng(101)
    for trial in range(40):
        dim = int(rng.integers(2, 9))
        sys = random_system(rng, dim, p=float(rng.choice([1.0, 2.0, 3.0])))
        a = np.round(rng.standard_normal(dim), 1)
        if np.all(a == 0):
            a[0] = 1.0
        if count_greedy_orderings(a) > 720:
            continue
        x = reconstruct(sys, a)
        av = coefficients(sys, x)
        nx = sys.space.norm(x.coords)
        supp = int(np.sum(av != 0))
        side_a = max(
            sys.space.norm(greedy_maximal(sys, x, m, ordering=o).coords) / nx
            for o in all_greedy_orderings(av)
            for m in range(1, supp + 1))
        side_b = -np.inf
        for o in all_greedy_orderings(av):
            b = strictify(av, o)
            y = reconstruct(sys, b)
            ny = sys.space.norm(y.coords)
            side_b = max(side_b, sys.space.norm(
                greedy_maximal(sys, y, supp).coords) / ny)
        assert side_a == pytest.approx(side_b, abs=1e-9)


def test_quasi_greedy_and_uqg_recompute_from_report():
    rng = np.random.default_rng(61)
    sys = random_system(rng, 6)
    wits = [rng.standard_normal(6) for _ in range(6)]
    for builder in (quasi_greedy_constant, uqg_constant):
        rep = builder(sys, wits)
        assert recompute_greedy_constant(sys, rep) == pytest.approx(rep.value, abs=1e-9)


def test_every_report_recomputes_its_value_after_a_json_round_trip():
    rng = np.random.default_rng(89)
    for sysm in (haar_system(4, 2.0), haar_system(3, 3.0), random_system(rng, 8)):
        n = len(sysm)
        wits = [rng.standard_normal(n) for _ in range(6)]
        reports = [build(sysm, wits) for build in (
            basis_constant, bibasis_constant, absolute_constant,
            quasi_greedy_constant, uqg_constant)]
        reports += [kvee_estimate(sysm, m, budget=150, seed=m)
                    for m in (2, 4, n)]
        for rep in reports:
            back = report_from_json(json.dumps(rep.to_json()))
            assert recompute_constant(sysm, back) == rep.value, rep.constant_name


def test_enumerated_uqg_reports_recompute_after_a_json_round_trip():
    # tied witnesses, half +-2 and half +-1, where the enumerated maximum is
    # mostly attained off the natural ordering
    rng = np.random.default_rng(0)
    for J in (2, 3):
        for p in (1.0, 2.0):
            sysm = haar_system(J, p)
            n = len(sysm)
            for _ in range(8):
                w = (rng.permutation(np.repeat([2.0, 1.0], n // 2))
                     * rng.choice([-1.0, 1.0], size=n))
                rep = uqg_constant(sysm, [w], enumerate_orderings=True)
                back = report_from_json(json.dumps(rep.to_json()))
                assert recompute_constant(sysm, back) == rep.value
    # stored indices that are not a greedy ordering of the witness
    sysm = haar_system(2, 1.0)
    obj = uqg_constant(sysm, [[1.0, 2.0, -1.0, 2.0]], enumerate_orderings=True).to_json()
    for bad in ([0, 1, 2, 3], obj["indices"][:-1]):
        obj["indices"] = bad
        with pytest.raises(ValueError, match="greedy ordering"):
            recompute_constant(sysm, report_from_json(obj))


@pytest.mark.filterwarnings("error")
def test_a_zero_sum_witness_has_zero_support_for_every_constant():
    # +t then -t, the typewriter frame's first indicator and its retraction,
    # sum to zero; the constant wavelet w_0 alone does not
    sysm = typewriter_frame(2, 2.0)
    zero, w0 = np.zeros((2, len(sysm)))
    zero[[1, 2]] = 1.0
    w0[0] = 1.0
    for build in (basis_constant, bibasis_constant, absolute_constant,
                  quasi_greedy_constant, uqg_constant):
        rep = build(sysm, [w0, zero])
        assert rep.rows[1] == (1, 0.0, 0), rep.constant_name
        assert np.array_equal(rep.witness, w0)
    for name, score in _RATIOS.items():
        indices = np.array([1, 2]) if name == "kvee" else None
        assert score(sysm, zero, indices)[:2] == (0.0, 0), name
        # so does the empty witness, but a kvee one has no index to carry
        for w in [zero] if name == "kvee" else [zero, []]:
            with pytest.raises(ValueError, match="sums to zero"):
                recompute_constant(sysm, ConstantReport(
                    name, 1.0, w, "structured_family", 1, indices=indices))
    # kvee skips the zero sum without spending budget on it
    rep = kvee_estimate(sysm, 2, budget=1, structured=[(zero, [1, 2]), (w0, [0])])
    assert np.array_equal(rep.witness, w0) and rep.budget == 1
    # a kvee witness is scored only along its stored indices
    obj = rep.to_json()
    del obj["indices"]
    with pytest.raises(ValueError, match="indices"):
        recompute_constant(sysm, report_from_json(obj))


def _table_bibasis(sysm, a):
    """The bibasis ratio from one column scan along the index order: the
    table's last column is the full sum, its abs-max the join."""
    dim = sysm.space.dim
    cells, table = _column_scan(sysm, [a], [np.arange(len(a))])
    full = sysm.space.norms(_scatter(cells, table[:, -1], 1, dim))[0]
    join = _scatter(cells, np.abs(table).max(axis=1), 1, dim)[0]
    return sysm.space.norm(join) / full


@st.composite
def systems_with_witnesses(draw):
    """A Haar system of depth <= 6 or a V = I + eps R system, with three
    Gaussian witnesses."""
    if draw(st.booleans()):
        sysm = haar_system(draw(st.integers(1, 6)),
                           draw(st.sampled_from((1.0, 1.5, 2.0, 3.0))))
    else:
        n = draw(st.integers(2, 12))
        R = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((n, n))
        V = np.eye(n) + draw(st.floats(0.0, 0.5)) / np.linalg.norm(R, 2) * R
        sysm = BiorthogonalSystem(lp_block(n, draw(st.sampled_from((1.0, 2.0, 3.0, np.inf)))),
                                  V, np.linalg.inv(V).T)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return sysm, [rng.standard_normal(len(sysm)) for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(systems_with_witnesses())
def test_every_reported_value_is_exactly_its_recomputed_value(case):
    sysm, wits = case
    reports = [build(sysm, wits) for build in (
        basis_constant, bibasis_constant, absolute_constant,
        quasi_greedy_constant, uqg_constant)]
    reports += [uqg_constant(sysm, wits, enumerate_orderings=True),
                kvee_estimate(sysm, min(3, len(sysm)), budget=40, seed=1)]
    for rep in reports:
        back = report_from_json(json.dumps(rep.to_json()))
        assert recompute_constant(sysm, back) == rep.value, rep.constant_name
    assert [r for _, r, _ in reports[1].rows] == [_table_bibasis(sysm, a) for a in wits]


@st.composite
def tied_witnesses(draw):
    """A Haar system of depth <= 2 or a V = I + eps R system, with
    coefficients drawn from {0, +-1, +-2} so that ties are common."""
    if draw(st.booleans()):
        sysm = haar_system(draw(st.integers(1, 2)),
                           draw(st.sampled_from((1.0, 1.5, 2.0, 3.0))))
    else:
        n = draw(st.integers(2, 6))
        R = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((n, n))
        V = np.eye(n) + draw(st.floats(0.0, 0.5)) / np.linalg.norm(R, 2) * R
        sysm = BiorthogonalSystem(lp_block(n, draw(st.sampled_from((1.0, 2.0, 3.0)))),
                                  V, np.linalg.inv(V).T)
    a = draw(st.lists(st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0)),
                      min_size=len(sysm), max_size=len(sysm)))
    return sysm, np.array(a)


@settings(max_examples=60, deadline=None)
@given(tied_witnesses())
def test_enumerated_uqg_is_the_max_over_strictified_orderings(sys_a):
    sysm, a = sys_a
    assume(np.any(a))
    av = coefficients(sysm, reconstruct(sysm, a))
    enumerated = uqg_constant(sysm, [a], enumerate_orderings=True).value
    strict = max(uqg_constant(sysm, [strictify(av, o)]).value
                 for o in all_greedy_orderings(av))
    assert enumerated == pytest.approx(strict, abs=1e-9)


def test_uqg_enumerated_matches_natural_without_ties():
    rng = np.random.default_rng(67)
    sys = random_system(rng, 5)
    wits = [rng.standard_normal(5) for _ in range(4)]  # ties have measure zero
    r1 = uqg_constant(sys, wits).value
    r2 = uqg_constant(sys, wits, enumerate_orderings=True).value
    assert r1 == pytest.approx(r2, abs=1e-12)


def test_kvee_disjoint_system_is_one():
    sys = unit_system(6, p=1.0)
    rep = kvee_estimate(sys, m=3, budget=300, seed=4)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.constant_name == "kvee"
    assert recompute_greedy_constant(sys, rep) == pytest.approx(rep.value, abs=1e-9)


def test_kvee_deterministic_and_structured_wins():
    rng = np.random.default_rng(71)
    sys = random_system(rng, 8)
    r1 = kvee_estimate(sys, 4, budget=200, seed=9)
    r2 = kvee_estimate(sys, 4, budget=200, seed=9)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)
    a = np.zeros(8); a[:4] = [1.0, -1.0, 1.0, -1.0]
    big = kvee_estimate(sys, 4, budget=200, seed=9,
                        structured=[(a, np.arange(4))])
    assert big.value >= r1.value - 1e-12


def test_constant_coefficient_checks_disjoint():
    sys = unit_system(8, p=2.0)
    rng = np.random.default_rng(13)
    sets, signs = [], []
    for k in range(25):
        size = int(rng.integers(1, 6))
        sets.append(rng.permutation(8)[:size])
        signs.append(rng.choice([-1.0, 1.0], size=size))
    rep = constant_coefficient_checks(sys, sets, signs, c_qg=1.0, c_qg_vee=1.0)
    assert isinstance(rep, CheckReport)
    assert rep.instances == 25
    assert rep.passed
    assert all(v <= 1.0 + 1e-12 for v in rep.worst.values())
    d = rep.to_json()
    assert set(d) == {"worst", "passed", "instances"}


def test_join_rejects_indices_out_of_range():
    # a negative index used to pair one row's coefficient with another
    # row's nonzeros, and n itself ran past the row support
    sysm = haar_system(3, 2.0)
    x = np.arange(8.0)
    for A in ([1, 2, -3], [8], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            ordered_projection_maximal(sysm, x, A)
    a = np.zeros(8); a[[1, 2]] = 1.0
    with pytest.raises(ValueError, match="out of range"):
        kvee_estimate(sysm, 3, budget=20, structured=[(a, [1, 2, -3])])
    with pytest.raises(ValueError, match="out of range"):
        constant_coefficient_checks(sysm, [[1, -3]], [[1.0, -1.0]], 1.0, 1.0)
    rep = kvee_estimate(sysm, 3, budget=20)
    obj = rep.to_json()
    obj["indices"] = [-1] + obj["indices"][1:]
    with pytest.raises(ValueError, match="out of range"):
        recompute_greedy_constant(sysm, report_from_json(obj))
