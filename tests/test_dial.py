import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hulldial import code as code_module, dial
from hulldial.eaqec import eaqec_sweep
from hulldial.errors import (
    BadTargetError,
    NotSelfOrthogonalError,
    RankDeficientError,
    SmallFieldError,
    VerificationFailedError,
)
from hulldial.field import Field, make_quadratic_field
from hulldial.matrix import (
    FieldMatrix,
    conj_transpose,
    matmul,
    rank,
    standard_form,
)
from hulldial.code import (
    LinearCode,
    dual_min_distance,
    gram_matrix,
    hermitian_dual,
    hull,
    min_distance,
    permute,
    scale,
)
from hulldial.dial import (
    arrange_p1_nonsingular,
    dial_galois_hull,
    dial_hull,
    reduce_hull,
)
from hulldial.grs import MultiplierProblem, full_field_rs, solve_multipliers
from oracles import (
    arrange_p1_by_full_reduction,
    brute_hull_dim,
    dials_from_measured_hull,
    dual_block_generator,
    poly_neg,
    poly_pow,
    row_space_contains,
    same_row_space,
    scalar_rref,
)


def _g83(gf9):
    """An [8, 3] code over GF(9) that is not self-orthogonal; its hull has dimension 1."""
    pts = list(range(1, 9))
    return LinearCode(gf9, [[gf9.pow(a, i) for a in pts] for i in range(3)])


def _check_scaled_down(c, res, start, target, distances):
    """res is c with its hull scaled from dimension start down to target.

    The constants are the first start - target elements of norm != 1 in
    canonical order, on the leading coordinates; the output is the input
    permuted and scaled by ``v``, so both distances, given for c as
    ``distances``, are unchanged.  The brute-force hull and the message
    enumeration run where they take well under a second.
    """
    field = c.field
    m = start - target
    q = field.subfield_order
    qualifying = [a for a in range(1, field.order) if poly_pow(field, a, q + 1) != 1]
    assert res.lambdas == tuple(qualifying[:m])
    assert res.v == res.lambdas + (1,) * (c.n - m)
    assert same_row_space(res.code.gen, scale(permute(c, res.perm), res.v).gen)
    assert res.target_h == res.achieved_h == target
    if field.order**c.k * c.n * c.k <= 4 * 10**4:
        assert brute_hull_dim(res.code) == target
    assert _distances(res.code) == distances


def _distances(c):
    """(d, dual d), with d None where the message space exceeds 10^5."""
    d = min_distance(c) if c.field.order**c.k <= 10**5 else None
    return d, dual_min_distance(c)


def test_standard_form_gram_identity(rs92, gf9):
    sf, _ = standard_form(rs92.gen)
    P = FieldMatrix(gf9, sf.data[:, 2:])
    assert P.shape == (2, 7)
    gram = matmul(P, conj_transpose(P))
    assert np.array_equal(gram.data, poly_neg(gf9, 1) * np.eye(2, dtype=np.int64))
    assert rank(P) == 2


def test_standard_form_gram_for_corpus(self_orthogonal_corpus):
    # the arranged P = (P1 | P2) keeps P conj(P)^T = -I, and P1 is nonsingular
    for tag, code in self_orthogonal_corpus:
        arranged, _ = arrange_p1_nonsingular(code, code.gen)
        field, k = code.field, code.k
        P = FieldMatrix(field, arranged.gen.data[:, k:])
        minus_identity = field.neg_array(np.eye(k, dtype=np.int64))
        assert np.array_equal(matmul(P, conj_transpose(P)).data, minus_identity), tag
        assert rank(FieldMatrix(field, P.data[:, :k])) == k, tag


def test_arrange_p1(rs92, gf9):
    arranged, perm = arrange_p1_nonsingular(rs92, rs92.gen)
    k = rs92.k
    assert np.array_equal(arranged.gen.data[:, :k], np.eye(k, dtype=np.int64))
    p1 = FieldMatrix(gf9, arranged.gen.data[:, k : 2 * k])
    assert rank(p1) == k
    assert sorted(perm) == list(range(rs92.n))
    assert same_row_space(arranged.gen, permute(rs92, perm).gen)
    # feeding the arranged code back gives the identity permutation
    again, perm2 = arrange_p1_nonsingular(arranged, arranged.gen)
    assert perm2 == tuple(range(rs92.n))
    assert again.gen == arranged.gen

    # a hull basis smaller than k: the rows completing it vanish on its pivots
    g83 = _g83(gf9)
    basis = hull(g83).basis
    h = basis.rows
    arranged, perm = arrange_p1_nonsingular(g83, basis)
    gen = arranged.gen.data
    assert np.array_equal(gen[:h, :h], np.eye(h, dtype=np.int64))
    assert not gen[h:, :h].any()
    assert rank(FieldMatrix(gf9, gen[:h, h : 2 * h])) == h
    assert same_row_space(arranged.gen, permute(g83, perm).gen)
    assert same_row_space(FieldMatrix(gf9, gen[:h]), permute(LinearCode(gf9, basis), perm).gen)


def test_arrange_p1_self_dual_case(gf9):
    # n = 2k: P2 is empty and P1 is all of P
    res = solve_multipliers(MultiplierProblem(gf9, (0, 1), 1))
    assert res.found
    c = res.grs.code()
    arranged, _ = arrange_p1_nonsingular(c, c.gen)
    assert arranged.n == 2 * arranged.k


@st.composite
def _arrangement_inputs(draw):
    """(code, basis): h rows M (I_h | P) for a random invertible M, their
    columns permuted or not, completed by up to two rows to a code.

    P = X Y has rank at most that of X (h x r, r <= h, so some P are rank
    deficient), and the leading columns of Y are multiples of its first one,
    so P's leading columns span one dimension at most and the prefix scan
    has to grow its window.
    """
    field = draw(st.sampled_from([make_quadratic_field(2), make_quadratic_field(3)]))
    h, width = draw(st.integers(1, 4)), draw(st.integers(0, 14))
    r = draw(st.integers(0, h - 1)) if draw(st.booleans()) else h
    dependent = draw(st.integers(0, width))
    extra, shuffle = draw(st.integers(0, 2)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random(rows, cols):
        return FieldMatrix(field, rng.integers(0, field.order, (rows, cols)))

    x, y = random(h, r), random(r, width).data.copy()
    y[:, :dependent] = field.mul_array(y[:, :1], rng.integers(0, field.order, dependent))
    lead = np.hstack([np.eye(h, dtype=np.int64), matmul(x, FieldMatrix(field, y)).data])
    mix = random(h, h)
    assume(rank(mix) == h)
    rows = np.vstack([matmul(mix, FieldMatrix(field, lead)).data, random(extra, h + width).data])
    if shuffle:
        rows = rows[:, rng.permutation(h + width)]
    code = FieldMatrix(field, rows)
    assume(rank(code) == h + extra)
    return LinearCode(field, code), FieldMatrix(field, rows[:h])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_arrangement_inputs())
def test_arrangement_matches_one_reduction_of_all_of_p(case):
    code, basis = case
    try:
        want = arrange_p1_by_full_reduction(code, basis)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            arrange_p1_nonsingular(code, basis)
        return
    arranged, perm = arrange_p1_nonsingular(code, basis)
    assert perm == want[1] and all(type(j) is int for j in perm)
    assert arranged.gen == want[0].gen


def _recording_rref(monkeypatch):
    """The shape of every matrix dial's arrangement row-reduces."""
    shapes, rref = [], dial.rref
    monkeypatch.setattr(dial, "rref", lambda m: shapes.append(m.shape) or rref(m))
    return shapes


@pytest.mark.parametrize("dependent", [0, 1, 3, 4, 7, 12, 14])
def test_arrangement_takes_the_pivots_of_all_of_p(monkeypatch, gf9, dependent):
    # P's first `dependent` columns are multiples of its first: the window
    # of h, 2h, 4h, ... columns grows until it holds h pivots
    h, width = 3, 16
    rng = np.random.default_rng(dependent)
    P = rng.integers(0, gf9.order, (h, width))
    P[:, :dependent] = gf9.mul_array(P[:, :1], rng.integers(0, gf9.order, dependent))
    basis = FieldMatrix(gf9, np.hstack([np.eye(h, dtype=np.int64), P]))
    shapes = _recording_rref(monkeypatch)
    _, perm = arrange_p1_nonsingular(LinearCode(gf9, basis), basis)
    pivots = scalar_rref(gf9, P.tolist())[1]
    assert len(pivots) == h and tuple(j - h for j in perm[h : 2 * h]) == pivots
    # the first prefix holding h pivots is the last one reduced
    grown = [min(h << i, width) for i in range(len(shapes))]
    assert shapes == [(h, w) for w in grown]
    assert len(scalar_rref(gf9, P[:, : grown[-1]].tolist())[1]) == h
    assert len(grown) == 1 or len(scalar_rref(gf9, P[:, : grown[-2]].tolist())[1]) < h


def test_arrangement_refuses_rank_deficient_p_at_full_width(monkeypatch, gf9):
    h, width = 3, 10
    P = np.outer([1, 2, 3], np.arange(width)) % 3  # rank 1
    basis = FieldMatrix(gf9, np.hstack([np.eye(h, dtype=np.int64), P]))
    shapes = _recording_rref(monkeypatch)
    with pytest.raises(RankDeficientError):
        arrange_p1_nonsingular(LinearCode(gf9, basis), basis)
    assert shapes == [(3, 3), (3, 6), (3, 10)]


def test_dial_hull_of_a_long_mds_code_reduces_h_columns_of_p(monkeypatch):
    # every square block of P is nonsingular for an MDS code: one h x h
    # reduction finds P1, not one of all n - h = 163 columns
    code = full_field_rs(make_quadratic_field(13), 6).code()
    shapes = _recording_rref(monkeypatch)
    res = dial_hull(code, 3)
    assert res.achieved_h == 3 and shapes == [(6, 6)]


def test_dial_self_dual_length(gf9):
    # n = 2k: the trailing block is empty and everything degenerates cleanly
    res = solve_multipliers(MultiplierProblem(gf9, (0, 1), 1))
    assert res.found
    c = res.grs.code()
    for h in (0, 1):
        out = dial_hull(c, h)
        assert out.achieved_h == h
        assert min_distance(out.code) == min_distance(c)
    arranged, _ = arrange_p1_nonsingular(c, c.gen)
    v = gf9.find_power_non_one(3 + 1, 1) + (1,)
    B = FieldMatrix(gf9, dual_block_generator(arranged, v))
    assert same_row_space(B, hermitian_dual(scale(arranged, v)).gen)


def test_dial_identity_case(rs92):
    res = dial_hull(rs92, 2)
    assert res.achieved_h == 2
    assert res.v == (1,) * 9
    assert res.lambdas == ()
    assert res.code.gen == rs92.gen


def test_dial_examples(gf9, rs92):
    res1 = dial_hull(rs92, 1)
    assert res1.achieved_h == 1 == brute_hull_dim(res1.code)
    ones = LinearCode(gf9, [[1] * 9])
    res0 = dial_hull(ones, 0)
    assert res0.achieved_h == 0
    assert all(poly_pow(gf9, lam, 4) != 1 for lam in res0.lambdas)


def test_dial_bad_target(rs92):
    with pytest.raises(BadTargetError):
        dial_hull(rs92, 3)
    with pytest.raises(BadTargetError):
        dial_hull(rs92, -1)


def test_dial_rejects_non_self_orthogonal(gf9):
    with pytest.raises(NotSelfOrthogonalError):
        dial_hull(LinearCode(gf9, [[1, 0]]), 0)


def test_dial_small_field(gf16q2=None):
    gf4 = Field(2, 2)
    # [2,1] code (1, 1): Gram = 1*1^2 + 1*1^2 = 0 over GF(4)
    c = LinearCode(gf4, [[1, 1]])
    from hulldial.code import is_hermitian_self_orthogonal

    assert is_hermitian_self_orthogonal(c)
    res = dial_hull(c, 1)  # identity target is fine even over GF(4)
    assert res.achieved_h == 1
    with pytest.raises(SmallFieldError):
        dial_hull(c, 0)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_dial_exact_for_all_targets(q):
    field = make_quadratic_field(q)
    for k in range(1, q):
        code = full_field_rs(field, k).code()
        for h in range(k + 1):
            res = dial_hull(code, h)
            assert res.achieved_h == h
            assert res.code.k == k and res.code.n == code.n


def test_dial_preserves_parameters(rs92):
    for h in (0, 1, 2):
        res = dial_hull(rs92, h)
        assert (res.code.n, res.code.k) == (9, 2)
        assert min_distance(res.code) == 8


def test_dial_hull_contains_unscaled_tail_rows(rs92):
    # rows k-h .. k-1 of the arranged, scaled generator stay in the hull
    h = 1
    res = dial_hull(rs92, h)
    rep = hull(res.code, "hermitian")
    k = rs92.k
    for row in res.code.gen.tolist()[k - h : k]:
        assert row_space_contains(res.code.gen, row)
        assert row_space_contains(hermitian_dual(res.code).gen, row)
        assert row_space_contains(rep.basis, row)


def test_dial_determinism(rs92):
    a = dial_hull(rs92, 1)
    b = dial_hull(rs92, 1)
    assert a.code.gen == b.code.gen and a.v == b.v and a.perm == b.perm


def test_dual_block_generator_mechanics(rs92, gf9):
    arranged, _ = arrange_p1_nonsingular(rs92, rs92.gen)
    for h in (0, 1):
        m = rs92.k - h
        lambdas = gf9.find_power_non_one(3 + 1, m)
        v = lambdas + (1,) * (rs92.n - m)
        B = dual_block_generator(arranged, v)
        dual = hermitian_dual(scale(arranged, v))
        assert same_row_space(FieldMatrix(gf9, B), dual.gen)
        scaled = scale(arranged, v)
        for i in range(rs92.k - h, rs92.k):
            assert scaled.gen.tolist()[i] == B[i]


def test_galois_dial_matches_hermitian(rs92):
    rg = dial_galois_hull(rs92, 1, 1)  # l = e/2 = 1 for GF(9)
    rh = dial_hull(rs92, 1)
    assert rg.code.gen == rh.code.gen and rg.v == rh.v


def test_galois_dial_euclidean(gf9):
    c = LinearCode(gf9, [[1, 3]])  # 1 + w^2 = 0, Euclidean self-orthogonal
    assert not gram_matrix(c, 0).data.any()
    res = dial_galois_hull(c, 0, 0)
    assert res.achieved_h == 0 == brute_hull_dim(res.code, "euclidean")
    res_k = dial_galois_hull(c, 1, 0)
    assert res_k.achieved_h == 1


def test_reduce_hull_identity_and_targets(gf9):
    g83 = _g83(gf9)
    m = hull(g83).dim
    assert m == 1
    same = reduce_hull(g83, m)
    assert same.achieved_h == m and same.code.gen == g83.gen
    down = reduce_hull(g83, 0)
    assert down.achieved_h == 0 == brute_hull_dim(down.code)
    assert min_distance(down.code) == min_distance(g83)
    with pytest.raises(BadTargetError):
        reduce_hull(g83, m + 1)


def test_reduce_hull_equals_dial_on_self_orthogonal(self_orthogonal_corpus):
    for tag, c in self_orthogonal_corpus:
        distances = _distances(c)
        for h in range(c.k + 1):
            r = reduce_hull(c, h)
            d = dial_hull(c, h)
            assert r.code.gen == d.code.gen and r.v == d.v and r.perm == d.perm, (tag, h)
            _check_scaled_down(c, d, c.k, h, distances)


_FIELDS = {q: make_quadratic_field(q) for q in (3, 4, 5)}


@st.composite
def _codes_with_hull(draw):
    """Random [n, k] codes over GF(9), GF(16) or GF(25) with a nonzero hull."""
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, min(n, 3 if field.order < 25 else 2)))
    entries = draw(st.lists(st.integers(0, field.order - 1), min_size=k * n, max_size=k * n))
    gen = FieldMatrix(field, np.array(entries, dtype=np.int64).reshape(k, n))
    assume(rank(gen) == k)
    code = LinearCode(field, gen, check=False)
    assume(hull(code).dim > 0)
    return code


@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_codes_with_hull())
def test_reduce_hull_reaches_every_target_exactly(code):
    start, distances = hull(code).dim, _distances(code)
    for target in range(start + 1):
        _check_scaled_down(code, reduce_hull(code, target), start, target, distances)


def test_reduce_hull_across_corpus_hulls(gf9, gf25):
    # several non-self-orthogonal codes with nonzero hulls
    rng = np.random.default_rng(20)
    tested = 0
    while tested < 6:
        data = rng.integers(0, 9, size=(3, 7))
        try:
            c = LinearCode(gf9, FieldMatrix(gf9, data))
        except Exception:
            continue
        ell = hull(c).dim
        if ell == 0:
            continue
        for target in range(ell + 1):
            res = reduce_hull(c, target)
            assert res.achieved_h == target
            assert min_distance(res.code) == min_distance(c)
        tested += 1


@st.composite
def _codes_of_every_hull_dimension(draw):
    """(code, h): a code over GF(9), GF(16) or GF(25) with Hermitian hull
    dimension h, any of 0..k.  A full-field [q^2, k] code dialed to h (h = k
    keeps its zero Gram matrix), its generator mixed by an invertible matrix
    and its columns permuted; k = 0 gives the zero code."""
    q = draw(st.sampled_from(sorted(_FIELDS)))
    field = _FIELDS[q]
    k = draw(st.integers(0, q - 1))
    if k == 0:
        return LinearCode(field, FieldMatrix.zeros(field, 0, q * q)), 0
    h = draw(st.integers(0, k))
    code = full_field_rs(field, k).code()
    if h < k:
        code = dial_hull(code, h).code
    entries = draw(st.lists(st.integers(0, field.order - 1), min_size=k * k, max_size=k * k))
    mix = FieldMatrix(field, np.array(entries, dtype=np.int64).reshape(k, k))
    assume(rank(mix) == k)
    perm = draw(st.permutations(range(code.n)))
    return permute(LinearCode(field, matmul(mix, code.gen), check=False), perm), h


def _dial_fields(results):
    return [(r.to_dict(), r.lambdas) for r in results]


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_codes_of_every_hull_dimension())
def test_dials_from_the_hull_span_match_the_measured_hull_route(case):
    code, h = case
    assert hull(code).dim == h
    want = dials_from_measured_hull(code)
    assert len(want) == h + 1
    assert _dial_fields(dial._dials(code, "hermitian", None, None)) == _dial_fields(want)
    for target in range(h + 1):
        got = reduce_hull(code, target)
        assert _dial_fields([got]) == _dial_fields(dials_from_measured_hull(code, [target]))


def _recording_products(monkeypatch):
    """(a, b, a @ b) for every product the code and dial modules form, in call order."""
    products = []

    def recording(original):
        def product(a, b):
            products.append((a, b, original(a, b)))
            return products[-1][2]

        return product

    for module in (code_module, dial):
        monkeypatch.setattr(module, "matmul", recording(module.matmul))
    return products


def test_hull_of_a_self_orthogonal_code_forms_the_gram_product_and_its_check(monkeypatch):
    code = full_field_rs(make_quadratic_field(13), 6).code()
    products = _recording_products(monkeypatch)
    report = hull(code)
    # the Gram matrix is zero, so the hull is the code itself: no left null
    # space and no product with it, only the check of the canonical basis
    assert report.dim == 6 and same_row_space(report.basis, code.gen)
    assert [out.shape for _, _, out in products] == [(6, 6), (6, 6)]
    assert products[0][0] is code.gen and products[1][0] is report.basis
    assert not any(out.data.any() for _, _, out in products)


def test_zero_hull_forms_only_the_gram_product(monkeypatch):
    # a nonsingular Gram matrix leaves an empty span: neither hull() nor the
    # dial core forms the (0 x k)(k x n) span or its (0 x n)(n x k) check
    code = dial_hull(full_field_rs(make_quadratic_field(5), 2).code(), 0).code
    products = _recording_products(monkeypatch)
    report = hull(code)
    assert report.dim == 0 and report.basis.shape == (0, code.n)
    res = reduce_hull(code, 0)
    assert res.code is code and res.achieved_h == 0
    assert [out.shape for _, _, out in products] == [(2, 2), (2, 2)]


def test_reduce_hull_reduces_its_span_once(monkeypatch, eliminations):
    field = make_quadratic_field(13)
    dialed = dial_hull(full_field_rs(field, 6).code(), 3).code
    eliminations.clear()
    products = _recording_products(monkeypatch)
    res = reduce_hull(dialed, 0)
    assert res.achieved_h == 0
    # the Gram matrix, then span = leftnull(Gram) G, checked against sigma(G)^T
    (_, sigma_gt, gram), (_, _, span), (checked, twist, check) = products[:3]
    assert gram.data.any() and twist is sigma_gt
    assert span.shape == (3, dialed.n) and checked is span and not check.data.any()
    # the arrangement's standard form is the span's one reduction; no other
    # 3 x n matrix (such as the reversed span hull() canonicalises) is reduced
    assert [m is span for m in eliminations if m.shape == span.shape] == [True]


def test_dial_result_serialization(rs92):
    res = dial_hull(rs92, 1)
    d = res.to_dict()
    assert set(d) == {"code", "v", "perm", "target_h", "achieved_h"}
    assert d["achieved_h"] == 1
    assert len(d["v"]) == 9 and all(len(c) == 2 for c in d["v"])


@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(st.data())
def test_gram_rank_hull_dim_matches_brute_force(data):
    # the dial's check measures k - rank(G sigma(G)^T); count the hull instead
    field = _FIELDS[data.draw(st.sampled_from(sorted(_FIELDS)))]
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, min(n, 2)))
    entries = data.draw(st.lists(st.integers(0, field.order - 1), min_size=k * n, max_size=k * n))
    gen = FieldMatrix(field, np.array(entries, dtype=np.int64).reshape(k, n))
    assume(rank(gen) == k)
    code = LinearCode(field, gen, check=False)
    cases = [("hermitian", None, None), ("euclidean", None, 0)]
    cases += [("galois", l, l) for l in range(field.e)]
    for kind, l, index in cases:
        gram_rank_dim = code.k - rank(gram_matrix(code, index))
        assert gram_rank_dim == brute_hull_dim(code, kind, l) == hull(code, kind, l).dim


def _dials(code):
    """Every strictly lower target of each single-target transform, and the sweep."""
    k = code.k
    for h in range(k):
        yield lambda: dial_hull(code, h)
        yield lambda: reduce_hull(code, h)
        yield lambda: dial_galois_hull(code, h, code.field.e // 2)
    yield lambda: eaqec_sweep(code)


def test_norm_one_constants_are_refused(monkeypatch, self_orthogonal_corpus):
    # constants with x^e = 1 leave every Gram entry as it was: the hull
    # does not drop, and the Gram-rank check must notice
    def norm_one(self, exponent, count):
        return tuple(x for x in range(1, self.order) if self.pow(x, exponent) == 1)[:1] * count

    monkeypatch.setattr(Field, "find_power_non_one", norm_one)
    for tag, code in self_orthogonal_corpus:
        for run in _dials(code):
            with pytest.raises(VerificationFailedError):
                run()


def _corrupting(monkeypatch, unit, which=None):
    """Make dial's per-target scaling put back the unit-th norm-1 element in
    place of the first scaled coordinate of row 0, in every output or, for
    a self-orthogonal input (whose hull is the whole code), in the output
    for target ``which`` alone.  Returns the targets it corrupted."""
    scale, corrupted_targets = dial._scale_columns, []

    def corrupted(gen, v):
        out = scale(gen, v)
        target = gen.rows - sum(x != 1 for x in v)  # the constants are never 1
        if which is not None and target != which % gen.rows:
            return out
        corrupted_targets.append(target)
        field = gen.field
        exponent = field.subfield_order + 1
        units = [x for x in range(1, field.order) if field.pow(x, exponent) == 1]
        data = out.data.copy()
        data[0, 0] = units[unit - 1]
        return FieldMatrix(field, data)

    monkeypatch.setattr(dial, "_scale_columns", corrupted)
    return corrupted_targets


@pytest.mark.parametrize("unit", [1, 2])
def test_corrupted_output_entry_is_refused(monkeypatch, self_orthogonal_corpus, unit):
    # putting back a norm-1 entry (the first such unit, or the second) in
    # place of the first scaled coordinate of row 0 makes that row
    # self-orthogonal again: the hull of the returned code is one too big
    _corrupting(monkeypatch, unit)
    for tag, code in self_orthogonal_corpus:
        for run in _dials(code):
            with pytest.raises(VerificationFailedError):
                run()


@pytest.mark.parametrize("unit", [1, 2])
def test_one_corrupted_target_of_a_sweep_is_refused(monkeypatch, self_orthogonal_corpus, unit):
    # every target below k but one is dialed correctly: the sweep still
    # measures each output on itself and refuses the sweep
    swept = 0
    for which in (0, -1):  # target 0 alone, or target k - 1 alone
        with monkeypatch.context() as m:
            corrupted = _corrupting(m, unit, which)
            for tag, code in self_orthogonal_corpus:
                if code.k < 2:
                    continue
                swept += 1
                corrupted.clear()
                with pytest.raises(VerificationFailedError):
                    eaqec_sweep(code)
                assert corrupted == [which % code.k], tag
    assert swept


def test_a_sweep_holds_one_target_at_a_time():
    # the full-field [1024, 31] code at q = 32 has 31 targets below its
    # hull: their generators take 7.5 MiB, and dialing them one by one
    # holds little more (a (T, k, n) stack of them and its conjugate would
    # add about 24 MiB)
    field = make_quadratic_field(32)
    dial._dials(full_field_rs(field, 31).code(), "hermitian", None, None)  # builds the field's tables
    code = full_field_rs(field, 31).code()
    tracemalloc.start()
    try:
        dials = dial._dials(code, "hermitian", None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.achieved_h for r in dials] == list(range(32))
    outputs = sum(r.code.gen.data.nbytes for r in dials if r.code is not code)
    assert outputs == 31 * 31 * 1024 * 8
    assert peak - outputs <= 4 * 2**20, f"peak {peak} bytes, outputs {outputs}"
