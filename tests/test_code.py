import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hulldial import code as code_module
from hulldial.errors import (
    BadGaloisIndexError,
    CapExceededError,
    MalformedCodeError,
    RankDeficientError,
    ShapeMismatchError,
    TooLargeToEnumerateError,
    ZeroMultiplierError,
)
from hulldial.field import Field, make_quadratic_field
from hulldial.dial import dial_hull
from hulldial.grs import GrsSpec, full_field_rs
from hulldial.matrix import (
    FieldMatrix,
    conj_transpose,
    null_space,
    rank,
    rref,
    standard_form,
)
from hulldial.code import (
    _CHUNK,
    SUPPORT_SEARCH_BUDGET,
    LinearCode,
    _enumerated_distance,
    _mds_certificate,
    _smallest_dependent_set,
    dual_min_distance,
    dual_of_kind,
    enumeration_cap,
    gram_matrix,
    hermitian_dual,
    hull,
    is_hermitian_self_orthogonal,
    is_mds,
    min_distance,
    permute,
    scale,
)
from oracles import (
    _poly_digits,
    all_codewords,
    brute_dual_distance,
    brute_hull_dim,
    brute_min_distance,
    in_twisted_dual,
    poly_mul,
    reference_code_from_dict,
    row_space_contains,
    same_row_space,
    weight_vector_inverse_conj,
)


def _random_code(field, rng, k, n):
    while True:
        data = rng.integers(0, field.order, size=(k, n))
        try:
            return LinearCode(field, FieldMatrix(field, data))
        except RankDeficientError:
            continue


def test_constructor_rejects_dependent_rows(gf9):
    with pytest.raises(RankDeficientError):
        LinearCode(gf9, [[1, 1], [2, 2]])


def test_json_round_trip(rs92):
    again = LinearCode.from_dict(rs92.to_dict())
    assert same_row_space(again.gen, rs92.gen)
    assert again.gen == rs92.gen


def test_euclidean_dual_dimensions(gf9, rs92):
    full = LinearCode(gf9, np.eye(4, dtype=np.int64))
    assert dual_of_kind(full, "euclidean").k == 0
    zero = LinearCode(gf9, FieldMatrix.zeros(gf9, 0, 4))
    assert same_row_space(dual_of_kind(zero, "euclidean").gen, full.gen)
    assert dual_of_kind(rs92, "euclidean").k == 7
    assert same_row_space(dual_of_kind(dual_of_kind(rs92, "euclidean"), "euclidean").gen, rs92.gen)


def test_hermitian_dual_structure(gf9, rs92):
    hd = hermitian_dual(rs92)
    assert hd.k == 7
    assert same_row_space(hermitian_dual(hd).gen, rs92.gen)
    # standard-form structural containment: rowspace(-conj(P)^T | I) in the dual
    sf, perm = standard_form(rs92.gen)
    P = FieldMatrix(gf9, sf.data[:, 2:])
    block = np.hstack([gf9.neg_array(conj_transpose(P).data), np.eye(7, dtype=np.int64)])
    dual_of_sf = hermitian_dual(permute(rs92, perm))
    for row in block:
        assert row_space_contains(dual_of_sf.gen, row)


def test_hermitian_dual_distance(rs92):
    assert min_distance(hermitian_dual(rs92)) == 3


def test_galois_dual_reductions(gf9, rs92):
    assert same_row_space(dual_of_kind(rs92, "galois", 0).gen, dual_of_kind(rs92, "euclidean").gen)
    assert same_row_space(dual_of_kind(rs92, "galois", 1).gen, hermitian_dual(rs92).gen)
    assert dual_of_kind(rs92, "galois", 1).k == 7
    with pytest.raises(BadGaloisIndexError):
        dual_of_kind(rs92, "galois", 2)


def test_only_the_galois_dual_takes_an_index(rs92):
    for kind in ("euclidean", "hermitian"):
        with pytest.raises(BadGaloisIndexError):
            hull(rs92, kind, 1)
        with pytest.raises(BadGaloisIndexError):
            dual_of_kind(rs92, kind, 0)


@pytest.mark.parametrize("kind,l", [("euclidean", None), ("hermitian", None), ("galois", 1)])
def test_dual_dimension_law(gf9, kind, l):
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = _random_code(gf9, rng, 2, 5)
        d = dual_of_kind(c, kind, l)
        assert c.k + d.k == c.n
        dd = dual_of_kind(d, kind, l)
        assert same_row_space(dd.gen, c.gen)


def _hull_kinds(field):
    """Every (kind, l) the field admits, with the Frobenius index of its pairing."""
    yield "euclidean", None, 0
    if field.e % 2 == 0:
        yield "hermitian", None, field.e // 2
    for l in range(field.e):
        yield "galois", l, l


def test_hull_reports(gf9, gf16, rs92):
    assert hull(rs92, "hermitian").dim == 2  # self-orthogonal: hull is the whole code
    rng = np.random.default_rng(13)
    codes = [rs92, _random_code(gf9, rng, 3, 5), _random_code(gf16, rng, 2, 4)]
    for c in codes:
        for kind, l, l_eff in _hull_kinds(c.field):
            rep = hull(c, kind, l)
            assert rep.kind == kind and rep.l == l
            assert rep.dim == rep.basis.rows == brute_hull_dim(c, kind, l)
            assert rep.basis.cols == c.n
            dual = dual_of_kind(c, kind, l)
            for row in rep.basis.tolist():
                assert row_space_contains(c.gen, row) and row_space_contains(dual.gen, row)
                assert in_twisted_dual(c, row, l_eff)
    for kind, l, _ in _hull_kinds(gf16):
        rep = hull(LinearCode(gf16, FieldMatrix.zeros(gf16, 0, 3)), kind, l)
        assert rep.dim == 0 and rep.basis.shape == (0, 3)


def test_hull_reduces_its_gram_matrix_once(gf9, eliminations):
    code = LinearCode(gf9, [[gf9.pow(a, i) for a in range(1, 9)] for i in range(3)])
    gram = gram_matrix(code).data
    eliminations.clear()
    rep = hull(code)
    assert rep.dim == 1 == brute_hull_dim(code)
    # one elimination of the Gram matrix (as its transpose, for the left
    # null space) and one of the hull span for the canonical basis
    grams = [m for m in eliminations if m.shape == gram.shape
             and (np.array_equal(m.data, gram) or np.array_equal(m.data, gram.T))]
    assert len(grams) == 1 and len(eliminations) == 2


def test_hull_symmetry(gf9, gf16):
    rng = np.random.default_rng(12)
    for field, n in ((gf9, 5), (gf16, 4)):
        for _ in range(10):
            c = _random_code(field, rng, 2, n)
            for kind, l, _ in _hull_kinds(field):
                dim = hull(c, kind, l).dim
                assert dim == hull(dual_of_kind(c, kind, l), kind, l).dim
                assert dim == brute_hull_dim(c, kind, l)


def test_hull_matches_exhaustive_enumeration(gf9, gf16):
    # the span of the hull basis against a literal scan of every codeword
    rng = np.random.default_rng(7)
    nontrivial = 0
    for field in (gf9, gf16):
        for _ in range(8):
            c = _random_code(field, rng, 2, 4)
            for kind, l, l_eff in _hull_kinds(field):
                members = {w for w in all_codewords(c) if in_twisted_dual(c, w, l_eff)}
                basis = hull(c, kind, l).basis
                span = set(all_codewords(LinearCode(field, basis))) if basis.rows else {(0,) * 4}
                assert span == members
                nontrivial += len(members) > 1
    assert nontrivial >= 5


def test_self_orthogonality_examples(gf9, rs92):
    assert is_hermitian_self_orthogonal(LinearCode(gf9, [[1] * 9]))
    assert not is_hermitian_self_orthogonal(LinearCode(gf9, [[1, 0]]))
    assert is_hermitian_self_orthogonal(rs92)
    assert hull(rs92).dim == rs92.k


def test_gram_zero_iff_hull_full(gf9):
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = _random_code(gf9, rng, 2, 6)
        assert is_hermitian_self_orthogonal(c) == (hull(c).dim == c.k)


def test_scale_identity_and_errors(gf9, rs92):
    assert same_row_space(scale(rs92, (1,) * 9).gen, rs92.gen)
    with pytest.raises(ZeroMultiplierError):
        scale(rs92, (0,) + (1,) * 8)
    with pytest.raises(ShapeMismatchError):
        scale(rs92, (1,) * 8)


def test_scale_refuses_non_integer_weights(gf9):
    c = LinearCode(gf9, [[1, 2, 3]])
    with pytest.raises(ValueError, match="must be int64 integers"):
        scale(c, [1, 2.5, 1])
    assert scale(c, [np.int64(1), 2, np.uint8(1)]).gen.tolist() == [[1, poly_mul(gf9, 2, 2), 3]]


def test_scaling_dual_identity_seeded(gf9, gf16):
    rng = np.random.default_rng(14)
    for field in (gf9, gf16):
        for _ in range(20):
            c = _random_code(field, rng, 2, 6)
            v = tuple(int(x) for x in rng.integers(1, field.order, 6))
            lhs = hermitian_dual(scale(c, v))
            rhs = scale(hermitian_dual(c), weight_vector_inverse_conj(field, v))
            assert same_row_space(lhs.gen, rhs.gen)


def test_inverse_conj_two_orders_agree(gf9):
    units = np.arange(1, 9)
    inv_conj = gf9.conj_array(gf9.inv_array(units))
    assert np.array_equal(inv_conj, gf9.inv_array(gf9.conj_array(units)))
    assert inv_conj.tolist() == list(weight_vector_inverse_conj(gf9, units))


def test_scale_preserves_distance(gf9, rs92):
    rng = np.random.default_rng(15)
    v = tuple(int(x) for x in rng.integers(1, 9, 9))
    assert min_distance(scale(rs92, v)) == 8


def test_permute_examples(gf9, rs92):
    ident = list(range(9))
    assert same_row_space(permute(rs92, ident).gen, rs92.gen)
    perm = [8, 0, 1, 2, 3, 4, 5, 6, 7]
    inverse = sorted(range(9), key=perm.__getitem__)
    roundtrip = permute(permute(rs92, perm), inverse)
    assert roundtrip.gen == rs92.gen
    assert min_distance(permute(rs92, perm)) == 8


def test_min_distance_examples(gf9, rs92):
    assert min_distance(LinearCode(gf9, [[1] * 9])) == 9
    assert min_distance(rs92) == 8
    assert min_distance(LinearCode(gf9, [[1] * 5])) == 5
    assert min_distance(rs92) == brute_min_distance(rs92)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a route ran that the test rules out")


def test_min_distance_cap(monkeypatch, gf9, rs92):
    # the cap bounds only enumeration: past it the other routes still answer
    c = LinearCode(gf9, [[1, 0, 0, 0, 1, 2], [0, 1, 0, 1, 1, 1], [0, 0, 1, 3, 5, 7]])
    assert not _mds_certificate(standard_form(c.gen)[0])  # a zero in A
    expected = brute_min_distance(c)
    monkeypatch.setattr(code_module, "_enumerated_distance", _must_not_run)
    assert min_distance(c, cap=10) == expected
    monkeypatch.setattr(code_module, "_smallest_dependent_set", _must_not_run)
    assert min_distance(rs92, cap=10) == 8


def test_cap_is_validated_whichever_route_answers(rs92):
    for distance in (dual_min_distance, is_mds, min_distance):
        with pytest.raises(CapExceededError):
            distance(rs92, cap=2**64)


def test_min_distance_of_a_grs_code_is_answered_by_certificate(monkeypatch):
    # a dialed [49, 4] code at q = 7 is still GRS: 49^4 messages are never enumerated
    c = dial_hull(full_field_rs(make_quadratic_field(7), 4).code(), 1).code
    monkeypatch.setattr(code_module, "_enumerated_distance", _must_not_run)
    monkeypatch.setattr(code_module, "_smallest_dependent_set", _must_not_run)
    assert (c.n, c.k, min_distance(c)) == (49, 4, 46)


def test_min_distance_search_answers_past_the_enumeration_preference(monkeypatch, gf9):
    # [12, 6] over GF(9): 9^6 messages are past 10^5 but within the cap, and
    # the parity check has only 2,509 column subsets of weight at most 6
    rng = np.random.default_rng(23)
    a = rng.integers(1, gf9.order, size=(6, 6))
    a[0, 0] = 0  # a zero in A: no certificate
    c = LinearCode(gf9, np.hstack([np.eye(6, dtype=np.int64), a]))
    expected = _enumerated_distance(c.gen)
    assert expected < c.n - c.k + 1
    monkeypatch.setattr(code_module, "_enumerated_distance", _must_not_run)
    assert min_distance(c) == expected


def test_subset_count_stops_once_past_the_budget(monkeypatch):
    # [20000, 1] over GF(4) with one zero coordinate: summing C(20000, w) up
    # to w = n - k would take thousands of huge binomials
    field = Field(2, 2)
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, w: calls.append(w) or comb(n, w))
    c = LinearCode(field, [[0] + [1] * 19999])
    assert min_distance(c) == 19999
    assert len(calls) <= 3


def test_budget_errors_on_huge_counts_are_typed():
    # 2^20 to the power 797 or 750 has more than the 4,300 digits Python
    # will print as one int, so each count is written as a power
    field = Field(2, 20)
    rng = np.random.default_rng(17)

    def systematic(k, n):  # (I | A) with a zero in A, so no certificate applies
        a = rng.integers(1, field.order, size=(k, n - k))
        a[0, 0] = 0
        return LinearCode(field, np.hstack([np.eye(k, dtype=np.int64), a]), check=False)

    with pytest.raises(TooLargeToEnumerateError, match=r"1048576\^797 messages"):
        dual_min_distance(systematic(3, 800))
    with pytest.raises(TooLargeToEnumerateError, match=r"1048576\^750 messages"):
        min_distance(systematic(750, 760))


def test_singleton_bound(gf9):
    rng = np.random.default_rng(16)
    for _ in range(15):
        c = _random_code(gf9, rng, 2, 6)
        assert min_distance(c) <= c.n - c.k + 1


def test_enumeration_cap_rejects_values_past_int64():
    assert enumeration_cap(2**63 - 1) == 2**63 - 1
    with pytest.raises(CapExceededError):
        enumeration_cap(2**63)


def test_enumeration_cap_rejects_negative_values(gf9):
    # a cap of 0 allows no enumeration; a negative one is malformed
    assert enumeration_cap(0) == 0
    for cap in (-1, -5):
        with pytest.raises(ValueError, match=f"enumeration cap {cap} is negative"):
            enumeration_cap(cap)
        with pytest.raises(ValueError, match="is negative"):
            min_distance(LinearCode(gf9, [[1, 2, 3]]), cap=cap)


def test_is_mds(gf9, rs92, monkeypatch):
    assert is_mds(rs92)
    assert is_mds(LinearCode(gf9, [[1] * 6]))
    assert not is_mds(LinearCode(gf9, [[1, 0]]))
    with pytest.raises(ValueError):
        is_mds(LinearCode(gf9, FieldMatrix.zeros(gf9, 0, 3)))

    def no_dual(c, cap=None):
        raise AssertionError("k = n needs no dual distance")

    monkeypatch.setattr(code_module, "dual_min_distance", no_dual)
    assert is_mds(LinearCode(gf9, np.eye(3, dtype=np.int64)))


MDS_FIELDS = ((2, 2), (3, 2), (2, 4), (5, 2))


@st.composite
def _mds_candidates(draw):
    """GRS codes (MDS), GRS codes with one column zeroed or copied, and
    codes with zero, repeated, sparse and dense columns; k = n included."""
    field = Field(*draw(st.sampled_from(MDS_FIELDS)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, min(7, field.order)))
    nonzero = st.integers(1, field.order - 1)
    if draw(st.booleans()):
        pts = draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n, unique=True))
        mults = draw(st.lists(nonzero, min_size=n, max_size=n))
        cols = GrsSpec(field, tuple(pts), tuple(mults), k).code().gen.data.T.tolist()
        damage = draw(st.sampled_from(("none", "zero", "copy")))
        j = draw(st.integers(0, n - 1))
        if damage == "zero":
            cols[j] = [0] * k
        elif damage == "copy":
            cols[j] = field.mul_array(draw(nonzero), cols[draw(st.integers(0, n - 1))]).tolist()
    else:
        cols = []
        for _ in range(n):
            kind = draw(st.sampled_from(("zero", "repeat", "sparse", "dense", "dense")))
            if kind == "zero":
                col = [0] * k
            elif kind == "repeat" and cols:
                col = field.mul_array(draw(nonzero), draw(st.sampled_from(cols))).tolist()
            elif kind == "sparse":
                col = [0] * k
                col[draw(st.integers(0, k - 1))] = draw(nonzero)
            else:
                col = draw(st.lists(st.integers(0, field.order - 1), min_size=k, max_size=k))
            cols.append(col)
    reduced, pivots = rref(FieldMatrix(field, np.array(cols, dtype=np.int64).T))
    assume(pivots)
    return LinearCode(field, FieldMatrix(field, reduced.data[: len(pivots)]))


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_mds_candidates())
def test_is_mds_matches_singleton_equality(code):
    expected = _enumerated_distance(code.gen) == code.n - code.k + 1
    assert is_mds(code) == expected
    assert is_mds(code, cap=1) == expected  # certificate or support search, no enumeration
    if code.k < code.n:  # each dual-distance route on its own
        assert (_smallest_dependent_set(code.gen) == code.k + 1) == expected
        if code.field.order ** (code.n - code.k) <= 10**5:
            assert (_enumerated_distance(null_space(code.gen)) == code.k + 1) == expected


def test_dual_min_distance_matches_enumeration(gf9, rs92):
    assert dual_min_distance(rs92) == _enumerated_distance(hermitian_dual(rs92).gen) == 3
    c = LinearCode(gf9, [[1] * 5])
    assert dual_min_distance(c) == _enumerated_distance(null_space(c.gen)) == 2
    # both codes are GRS, so the certificate answers; the support search
    # must agree where both it and enumeration are feasible
    assert dual_min_distance(rs92, cap=10) == 3
    assert _smallest_dependent_set(rs92.gen) == 3
    assert _smallest_dependent_set(c.gen) == 2


def test_dual_min_distance_support_search(gf25):
    # dual dimension 22 is far beyond the cap, so dual enumeration cannot
    # run; the certificate and the support search must each agree with the
    # Singleton value for an MDS code
    pts = list(range(25))
    rows = [[gf25.pow(a, i) for a in pts] for i in range(3)]
    c = LinearCode(gf25, rows)
    assert dual_min_distance(c, cap=10**5) == 4
    assert _smallest_dependent_set(c.gen) == 4


def test_support_budget_counts_weights_up_to_k():
    # [100, 3] RS-type code over GF(121): the search scans weights 1..3
    # (166,750 subsets); weight 4 = k + 1 needs no scan.  The code is GRS,
    # so dual_min_distance answers by certificate and the search is called
    # directly; 121^97 dual messages rule out enumeration
    field = make_quadratic_field(11)
    c = GrsSpec(field, tuple(range(100)), (1,) * 100, 3).code()
    assert sum(math.comb(100, w) for w in range(1, 4)) <= SUPPORT_SEARCH_BUDGET
    assert sum(math.comb(100, w) for w in range(1, 5)) > SUPPORT_SEARCH_BUDGET
    assert dual_min_distance(c) == 4
    assert _smallest_dependent_set(c.gen) == 4


def test_support_search_finds_dependency_past_first_chunk():
    # Over GF(256) the conic points (1, t, t^2), (0, 0, 1) and the nucleus
    # (0, 1, 0) form a hyperoval: no three are collinear.  A line through
    # Q = (1, 0, c) meets it in P(s) and P(c/s), so taking one point of 67
    # such pairs, then both points of one more pair, then Q, leaves exactly
    # one dependent triple: the last three columns, the last subset of
    # weight 3 in lexicographic order.
    field = Field(2, 8)
    c = 2
    root = field.pow(c, 128)  # the square root of c
    pairs, used = [], {0, root}
    for s in range(1, field.order):
        if s not in used:
            pairs.append((s, poly_mul(field, c, field.inv(s))))
            used.update(pairs[-1])
    point = lambda t: [1, t, poly_mul(field, t, t)]  # noqa: E731
    cols = [point(s) for s, _ in pairs[:67]] + [point(t) for t in pairs[67]] + [[1, 0, c]]
    assert len(cols) == 70 and math.comb(70, 3) > _CHUNK
    assert dual_min_distance(LinearCode(field, np.array(cols).T)) == 3
    assert dual_min_distance(LinearCode(field, np.array(cols[:-1]).T)) == 4


PROPERTY_FIELDS = ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (37, 2))


@st.composite
def _column_codes(draw):
    """Codes whose generators mix zero, repeated, sparse and dense columns."""
    field = Field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 7))
    nonzero = st.integers(1, field.order - 1)
    cols: list[list[int]] = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "repeat", "sparse") + ("dense",) * 5))
        if kind == "zero":
            col = [0] * k
        elif kind == "repeat" and cols:
            col = field.mul_array(draw(nonzero), draw(st.sampled_from(cols))).tolist()
        elif kind == "sparse":
            col = [0] * k
            col[draw(st.integers(0, k - 1))] = draw(nonzero)
        else:
            col = draw(st.lists(st.integers(0, field.order - 1), min_size=k, max_size=k))
        cols.append(col)
    reduced, pivots = rref(FieldMatrix(field, np.array(cols, dtype=np.int64).T))
    assume(0 < len(pivots) < n)
    return LinearCode(field, FieldMatrix(field, reduced.data[: len(pivots)]))


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_column_codes())
def test_dual_min_distance_matches_minor_oracle(code):
    expected = brute_dual_distance(code)
    assert dual_min_distance(code, cap=1) == expected  # certificate or support search
    assert dual_min_distance(code) == expected
    assert _smallest_dependent_set(code.gen) == expected
    if code.field.order ** (code.n - code.k) <= 10**5:
        assert _enumerated_distance(null_space(code.gen)) == expected


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_column_codes())
def test_min_distance_matches_codeword_oracle(code):
    assume(code.field.order**code.k <= 2000)  # the oracle lists every codeword
    expected = brute_min_distance(code)
    assert _smallest_dependent_set(null_space(code.gen)) == expected
    assert min_distance(code, cap=1) == expected  # certificate or support search
    assert min_distance(code) == expected


CERTIFICATE_FIELDS = ((2, 2), (3, 2), (2, 4), (5, 2))


@st.composite
def _grs_and_mutants(draw):
    """A permuted, scaled GRS code (extended or not), or a mutant of its
    systematic form (I | A): one entry of A corrupted, a column of A copied
    over another (a repeated point) or a column of A zeroed (a zero
    multiplier).  A mutant may be replaced by its dual, arranged as
    (I | -A^T), so that its repeated points fall in the rows of the new A.
    Returns (code, mutated)."""
    field = Field(*draw(st.sampled_from(CERTIFICATE_FIELDS)))
    extended = draw(st.booleans())
    longest = min(8, field.order + extended)
    shape = draw(st.sampled_from(("k = 1", "n - k = 1", "longest", "longest", "any")))
    n = longest if shape == "longest" else draw(st.integers(2, longest))
    k = {"k = 1": 1, "n - k = 1": n - 1, "longest": n // 2}.get(shape)
    k = k or draw(st.integers(1, n - 1))
    nonzero = st.integers(1, field.order - 1)
    pts = draw(st.lists(
        st.integers(0, field.order - 1), min_size=n - extended, max_size=n - extended, unique=True
    ))
    mults = draw(st.lists(nonzero, min_size=n, max_size=n))
    code = permute(GrsSpec(field, tuple(pts), tuple(mults), k, extended).code(),
                   draw(st.permutations(range(n))))
    damage = draw(st.sampled_from(("none", "entry", "entry", "copy", "copy", "zero")))
    if damage == "none":
        return code, False
    data = standard_form(code.gen)[0].data.copy()
    i, (j, other) = draw(st.integers(0, k - 1)), draw(st.tuples(*[st.integers(k, n - 1)] * 2))
    if damage == "entry":
        data[i, j] = (data[i, j] + draw(nonzero)) % field.order
    elif damage == "copy":
        assume(j != other)
        data[:, j] = data[:, other]
    else:
        data[:, j] = 0
    if draw(st.booleans()):
        data = np.hstack([np.eye(n - k, dtype=np.int64), field.neg_array(data[:, k:].T)])
    return LinearCode(field, FieldMatrix(field, data)), True


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_grs_and_mutants())
def test_mds_certificate_is_sound_and_certifies_every_grs_code(case):
    code, mutated = case
    certified = _mds_certificate(standard_form(code.gen)[0])
    expected = brute_dual_distance(code)
    if certified:
        assert expected == code.k + 1
    if not mutated:
        assert certified
    assert dual_min_distance(code) == expected


def test_zero_code_round_trip(gf9):
    z = LinearCode(gf9, FieldMatrix.zeros(gf9, 0, 3))
    assert z.to_dict()["k"] == 0
    assert LinearCode.from_dict(z.to_dict()).k == 0
    assert hull(z).dim == 0


# ---------------------------------------------------------------------------
# reading a code file
# ---------------------------------------------------------------------------

#: GF(4), GF(9), GF(27), GF(16^2) and GF(37^2)
_READ_FIELDS = [(2, 2), (3, 2), (3, 3), (2, 8), (37, 2)]
_COEFFICIENT_MUTATIONS = ["bool", "float", "nested", "p", "-1", "2^63"]
_ENTRY_MUTATIONS = ["non-list", "e + 1 digits", "rank"]


@st.composite
def _code_files(draw):
    """(dict, expected generator or None, mutation): a code file whose entries
    may be short digit lists, unchanged (None) or mutated once."""
    field = Field(*draw(st.sampled_from(_READ_FIELDS)))
    p, e = field.p, field.e
    mutation = draw(st.sampled_from(
        [None, None, "rows", "cols", *_COEFFICIENT_MUTATIONS, *_ENTRY_MUTATIONS]))
    n = draw(st.integers(1 if mutation in _ENTRY_MUTATIONS else 0, 6))
    k = draw(st.integers(1 if mutation in _ENTRY_MUTATIONS else 0, n))
    values = draw(st.lists(st.integers(0, field.order - 1), min_size=k * n, max_size=k * n))
    entries = []
    for v in values:  # drop some of the trailing zero digits
        digits = _poly_digits(field, v)
        while digits and digits[-1] == 0 and draw(st.booleans()):
            digits.pop()
        entries.append(digits)
    d = {
        "field": field.to_dict(), "n": n, "k": k,
        "generator": {"rows": k, "cols": n, "entries": entries},
    }
    arrays = [d["field"]["modulus"], *entries]
    if mutation in ("rows", "cols"):
        d["generator"][mutation] += draw(st.sampled_from([-1, 1]))
    elif mutation in _COEFFICIENT_MUTATIONS:
        array = draw(st.sampled_from([a for a in arrays if a]))
        i = draw(st.integers(0, len(array) - 1))
        array[i] = {
            "bool": bool(array[i] % 2), "float": float(array[i]), "nested": [array[i]],
            "p": p, "-1": -1, "2^63": 2**63,
        }[mutation]
    elif mutation == "non-list":
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = draw(st.sampled_from([0, None, "0", {"0": 0}]))
    elif mutation == "e + 1 digits":
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = [*entries[i], *[0] * (e - len(entries[i])), draw(st.integers(0, p - 1))]
    elif mutation == "rank":  # a zero first row
        entries[:n] = [[0]] * n
    expected = FieldMatrix(field, np.array(values, dtype=np.int64).reshape(k, n))
    return d, (expected if mutation is None else None), mutation


def _read(reader, d):
    """The generator the reader loads from a copy of d, or the type and text it raises."""
    try:
        return reader(copy.deepcopy(d)).gen
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_code_files())
def test_code_reader_matches_the_per_entry_reader(case):
    d, expected, mutation = case
    got = _read(LinearCode.from_dict, d)
    assert got == _read(reference_code_from_dict, d)
    if mutation is not None:
        assert type(got) is tuple, mutation
        expected_errors = {"rank": RankDeficientError, "e + 1 digits": ValueError}
        assert got[0] is expected_errors.get(mutation, MalformedCodeError), got
    elif expected.rows == 0 or rank(expected) == expected.rows:
        assert got == expected

