import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hulldial.errors import (
    BadPermutationError,
    OddExtensionError,
    RankDeficientError,
    ShapeMismatchError,
    SpecMismatchError,
)
from hulldial import matrix
from hulldial.code import LinearCode, gram_matrix, permute, scale
from hulldial.field import Field, make_quadratic_field
from hulldial.grs import full_field_rs
from hulldial.matrix import (
    FieldMatrix,
    batch_column_deficient,
    conj_transpose,
    frobenius_entrywise,
    matmul,
    null_space,
    permute_columns,
    rank,
    rref,
    standard_form,
    transpose,
)
from oracles import (
    _poly_digits,
    minor_rank,
    poly_matmul,
    poly_mul,
    poly_pow,
    row_space_contains,
    same_row_space,
    scalar_rref,
)


@pytest.fixture(scope="module")
def gf3():
    return Field(3, 1)


def _random_matrix(field, rng, rows, cols):
    return FieldMatrix(field, rng.integers(0, field.order, size=(rows, cols)))


def test_matmul_identity_and_zero(gf9):
    rng = np.random.default_rng(1)
    m = _random_matrix(gf9, rng, 3, 4)
    assert matmul(FieldMatrix(gf9, np.eye(3, dtype=np.int64)), m) == m
    z = FieldMatrix.zeros(gf9, 4, 2)
    assert matmul(m, z) == FieldMatrix.zeros(gf9, 3, 2)


def test_matmul_1x1_reduces_to_field_mul(gf9):
    a = FieldMatrix(gf9, [[4]])
    assert matmul(a, a) == FieldMatrix(gf9, [[6]])  # (w+1)^2 = 2w


def test_matmul_shape_and_spec_errors(gf9, gf3, gf25):
    with pytest.raises(ShapeMismatchError):
        matmul(FieldMatrix.zeros(gf9, 2, 3), FieldMatrix.zeros(gf9, 2, 3))
    with pytest.raises(SpecMismatchError):
        matmul(FieldMatrix.zeros(gf9, 2, 3), FieldMatrix.zeros(gf25, 3, 2))
    with pytest.raises(ShapeMismatchError, match=r"must be 2-D, got shape \(1, 2, 2\)"):
        FieldMatrix(gf9, [[[1, 2], [3, 4]]])


# p = 2 and odd p, on both sides of TABLE_LIMIT; a prime field; and odd p
# with e >= 4, where the lane capacity is small enough to cut slices
_MATMUL_FIELDS = [Field(2, 2), Field(3, 2), Field(2, 8),
                  make_quadratic_field(37), Field(2, 12), make_quadratic_field(101),
                  Field(7, 1), Field(5, 4), Field(3, 6), Field(3, 12)]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(_MATMUL_FIELDS),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    # small budgets cut the inner axis into slices of every length
    budget=st.sampled_from([1, 2, 3, 5, 8, 13, 40, matrix._PRODUCT_BUDGET]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_scalar_oracle(field, shape, budget, seed):
    rows, inner, cols = shape
    rng = np.random.default_rng(seed)
    a = rng.integers(0, field.order, size=(rows, inner))
    b = rng.integers(0, field.order, size=(inner, cols))
    a[rng.random(a.shape) < 0.3] = 0
    b[rng.random(b.shape) < 0.3] = 0
    with mock.patch.object(matrix, "_PRODUCT_BUDGET", budget):
        out = matmul(FieldMatrix(field, a), FieldMatrix(field, b))
    assert out.shape == (rows, cols)
    assert out.tolist() == poly_matmul(field, a, b)


def _pairs(field, count, rows, inner, cols, seed):
    """``count`` random (rows x inner, inner x cols) operand pairs, a third
    of the left entries zero."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        a = rng.integers(0, field.order, size=(rows, inner))
        b = rng.integers(0, field.order, size=(inner, cols))
        a[rng.random(a.shape) < 0.3] = 0
        pairs.append((FieldMatrix(field, a), FieldMatrix(field, b)))
    return pairs


def _kernel_calls(monkeypatch, field):
    """Record the product tensor shape and the summed axis of every dot_lanes
    call (matmul's slices) and count add_array calls."""
    shapes, adds = [], []
    dot_lanes, add_array = field.dot_lanes, field.add_array

    def recording(a, b, into=None, axis=-1):
        shapes.append((np.broadcast_shapes(np.shape(a), np.shape(b)), axis))
        return dot_lanes(a, b, into, axis)

    monkeypatch.setattr(field, "dot_lanes", recording)
    monkeypatch.setattr(field, "add_array", lambda a, b: adds.append(1) or add_array(a, b))
    return shapes, adds


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(_MATMUL_FIELDS),
    shape=st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)),
    # small budgets cut the inner axis into slices
    budget=st.sampled_from([1, 2, 3, 5, 8, 13, 40, matrix._PRODUCT_BUDGET]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_matmul_matches_separate_products_and_oracle(field, shape, budget, seed):
    # a run of same-shape products, as a dial sweep makes them one target
    # at a time: under any budget each equals its product at the default
    # budget and the scalar oracle, whatever was multiplied before it
    count, rows, inner, cols = shape
    pairs = _pairs(field, count, rows, inner, cols, seed)
    with mock.patch.object(matrix, "_PRODUCT_BUDGET", budget):
        stacked = [matmul(x, y) for x, y in pairs]
    assert stacked == [matmul(x, y) for x, y in pairs]
    assert [m.tolist() for m in stacked] == [
        poly_matmul(field, x.data, y.data) for x, y in pairs
    ]


@pytest.mark.parametrize("rows, inner, cols", [
    (12, 1500, 5),  # 12 * 5 entries a layer: the budget cuts inner into 1092-wide slices
    (0, 6, 3),  # no rows
    (3, 0, 4),  # empty inner dimension: zero products
])
def test_matmul_edge_cases(monkeypatch, gf9, rows, inner, cols):
    ((a, b),) = _pairs(gf9, 1, rows, inner, cols, seed=rows * 1000 + inner)
    shapes, _ = _kernel_calls(monkeypatch, gf9)
    out = matmul(a, b)
    assert out.shape == (rows, cols)
    assert max((math.prod(s) for s, _ in shapes), default=0) <= matrix._PRODUCT_BUDGET
    assert sum(s[axis] for s, axis in shapes) == inner
    assert out.tolist() == poly_matmul(gf9, a.data, b.data)


def test_matmul_checks_field_equality_not_identity():
    # two equal Field objects built apart multiply; a different modulus does not
    one, twin = Field(3, 2), Field(3, 2)
    other = Field(3, 2, modulus=(2, 1, 1))  # x^2 + x + 2, irreducible over GF(3)
    assert one is not twin and one == twin and one != other
    ((a, b),) = _pairs(one, 1, 2, 3, 2, seed=3)
    want = matmul(a, b)
    assert matmul(a, FieldMatrix(twin, b.data)) == want
    assert matmul(FieldMatrix(twin, a.data), b) == want
    with pytest.raises(SpecMismatchError):
        matmul(a, FieldMatrix(other, b.data))


def test_matmul_memory_does_not_grow_with_the_inner_dimension():
    # entries in the prime subfield GF(13), so plain integer products mod 13 check it
    field = make_quadratic_field(13)
    rng = np.random.default_rng(17)
    a = FieldMatrix(field, rng.integers(0, 13, size=(3, 2**17)))
    b = FieldMatrix(field, rng.integers(0, 13, size=(2**17, 3)))
    matmul(a, b)  # builds the field's tables before tracing
    tracemalloc.start()
    try:
        out = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.data, a.data @ b.data % 13)
    # the whole product tensor would take 3 * 2^17 * 3 * 8 bytes, about 9.4 MB
    assert peak < 2 * 2**20, f"peak {peak} bytes"


def test_matmul_sums_each_slice_in_one_reduction(monkeypatch):
    field = make_quadratic_field(13)
    code = full_field_rs(field, 6).code()
    shapes, adds = _kernel_calls(monkeypatch, field)
    gram = gram_matrix(code)
    assert not np.any(gram.data)  # the [169, 6] full-field code is self-orthogonal
    # one reduction over the last axis, nothing to add
    assert (shapes, adds) == ([((6, 6, code.n), -1)], [])
    # whatever the inner length: 3 * 3 entries a layer leave room for
    # 7281-term slices, and GF(13^2) lanes hold far more terms than that,
    # so the slices' lane sums add up as integers, with no add_array
    rng = np.random.default_rng(4)
    for inner in (1, 2**12, 7281, 7282, 3 * 7281):
        a = FieldMatrix(field, rng.integers(0, 13, size=(3, inner)))
        b = FieldMatrix(field, rng.integers(0, 13, size=(inner, 3)))
        shapes.clear()
        out = matmul(a, b)
        assert len(shapes) == math.ceil(inner / 7281) and not adds
        assert max(s[axis] for s, axis in shapes) <= 7281
        assert np.array_equal(out.data, a.data @ b.data % 13)


_LANE_FIELDS = [Field(3, 6), Field(3, 12), Field(5, 4)]
_LANE_IDS = ["GF(3^6)", "GF(3^12)", "GF(5^4)"]


@pytest.mark.parametrize("field", _LANE_FIELDS, ids=_LANE_IDS)
@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("budget", [matrix._PRODUCT_BUDGET, 2 * 2 * 7])
def test_matmul_at_and_past_the_lane_capacity(monkeypatch, field, over, budget):
    capacity = field.lane_capacity
    inner = capacity + over
    rng = np.random.default_rng(capacity + over)
    a = rng.integers(1, field.order, size=(2, inner))
    b = rng.integers(0, field.order, size=(inner, 2))
    # column 0 of the product sums only products whose digits are all p - 1:
    # every lane of every term is full, the worst case for a carry
    b[:, 0] = field.mul_array(field.order - 1, field.inv_array(a[0]))
    shapes, adds = _kernel_calls(monkeypatch, field)
    monkeypatch.setattr(matrix, "_PRODUCT_BUDGET", budget)
    out = matmul(FieldMatrix(field, a), FieldMatrix(field, b))
    widths = [s[axis] for s, axis in shapes]
    assert sum(widths) == inner and max(widths) <= min(capacity, budget // 4)
    if budget == 2 * 2 * 7:  # 7-term slices: lane sums of whole slices up to the capacity
        assert len(adds) == math.ceil(inner / (capacity // 7 * 7)) - 1
    else:  # one slice of capacity terms, then one more term added to it
        assert widths == [capacity] + [1] * over and len(adds) == over
    assert out.data[0, 0] == poly_mul(field, inner % field.p, field.order - 1)
    assert out.tolist() == poly_matmul(field, a, b)
    assert capacity == {729: 511, 3**12: 15, 625: 8191}[field.order]


def _layout_case(field, count, rows, inner, cols, seed):
    """``count or 1`` operand pairs, with every digit p - 1 on a fifth of
    the entries: lane sums as full as a random case gets."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count or 1):
        pair = []
        for shape in ((rows, inner), (inner, cols)):
            m = rng.integers(0, field.order, size=shape)
            m[rng.random(shape) < 0.2] = field.order - 1
            pair.append(FieldMatrix(field, m))
        pairs.append(tuple(pair))
    return pairs


@pytest.mark.parametrize("field", _LANE_FIELDS, ids=_LANE_IDS)
# count operand pairs of each shape (one for None)
@pytest.mark.parametrize("count, rows, inner, cols, axis", [
    # one rows x cols layer at least as large as the inner dimension: t leads
    (None, 4, 0, 30, 0),
    (None, 3, 1, 40, 0),
    (None, 5, 2, 25, 0),
    (None, 6, 3, 20, 0),
    (3, 2, 1, 30, 0),
    (3, 2, 3, 30, 0),
    (None, 2, 2, 1, 0),  # layer == inner
    # a smaller layer: t stays last
    (None, 1, 3, 2, -1),  # layer one short of inner
    (None, 2, 700, 1, -1),  # inner >> rows * cols, past GF(3^6)'s and GF(3^12)'s capacity
    (2, 1, 300, 2, -1),
    (4, 3, 40, 3, -1),
])
def test_matmul_layout_follows_the_layer_and_matches_the_oracle(
    monkeypatch, field, count, rows, inner, cols, axis
):
    shapes, _ = _kernel_calls(monkeypatch, field)
    for a, b in _layout_case(field, count, rows, inner, cols, seed=rows * 1000 + inner):
        shapes.clear()
        out = matmul(a, b)
        assert {summed for _, summed in shapes} == ({axis} if inner else set())
        assert sum(s[summed] for s, summed in shapes) == inner
        assert out.tolist() == poly_matmul(field, a.data, b.data)


@pytest.mark.parametrize("rows, inner, cols", [(1, 2**14, 2), (300, 3, 200)],
                         ids=["inner-last", "inner-first"])
def test_matmul_layouts_against_integer_products(monkeypatch, rows, inner, cols):
    # entries in the prime subfield GF(5) of GF(5^4), so a @ b % 5 checks them;
    # 2^14 terms are past GF(5^4)'s lane capacity of 8191
    field = Field(5, 4)
    rng = np.random.default_rng(rows + inner)
    a = FieldMatrix(field, rng.integers(0, 5, size=(rows, inner)))
    b = FieldMatrix(field, rng.integers(0, 5, size=(inner, cols)))
    shapes, adds = _kernel_calls(monkeypatch, field)
    out = matmul(a, b)
    assert np.array_equal(out.data, a.data @ b.data % 5)
    assert {axis for _, axis in shapes} == {0 if rows * cols >= inner else -1}
    assert len(adds) == math.ceil(inner / 8191) - 1


# count operand pairs of each shape
@pytest.mark.parametrize("count, rows, inner, cols, axis", [
    (3, 20, 4, 30, 0),
    (5, 8, 9, 8, 0),
    (3, 2, 500, 3, -1),
    (2, 1, 2000, 1, -1),
    (1, 300, 3, 300, 0),  # one 300 x 300 layer is past the default budget
])
@pytest.mark.parametrize("budget", [1, 7, 100, 1000, 5000, matrix._PRODUCT_BUDGET])
def test_matmul_tensor_stays_within_budget_or_one_layer_in_both_layouts(
    monkeypatch, gf9, count, rows, inner, cols, axis, budget
):
    pairs = _pairs(gf9, count, rows, inner, cols, seed=budget + inner)
    with mock.patch.object(matrix, "_PRODUCT_BUDGET", rows * inner * cols):
        want = [matmul(a, b) for a, b in pairs]  # each whole product tensor at once
    shapes, _ = _kernel_calls(monkeypatch, gf9)
    monkeypatch.setattr(matrix, "_PRODUCT_BUDGET", budget)
    assert [matmul(a, b) for a, b in pairs] == want
    assert {summed for _, summed in shapes} == {axis}
    assert max(math.prod(s) for s, _ in shapes) <= max(budget, rows * cols)


def test_conj_transpose_examples(gf9):
    assert conj_transpose(FieldMatrix(gf9, [[3]])) == FieldMatrix(gf9, [[6]])
    ident = FieldMatrix(gf9, np.eye(4, dtype=np.int64))
    assert conj_transpose(ident) == ident
    m = FieldMatrix(gf9, np.arange(6).reshape(2, 3))
    assert conj_transpose(m).shape == (3, 2)
    assert conj_transpose(conj_transpose(m)) == m


def test_conj_transpose_odd_extension(gf3):
    with pytest.raises(OddExtensionError):
        conj_transpose(FieldMatrix(gf3, np.eye(2, dtype=np.int64)))


def test_conj_transpose_reverses_products(gf9):
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = _random_matrix(gf9, rng, 2, 3)
        b = _random_matrix(gf9, rng, 3, 4)
        assert conj_transpose(matmul(a, b)) == matmul(conj_transpose(b), conj_transpose(a))


def test_rref_examples(gf3, gf9):
    ident = FieldMatrix(gf9, np.eye(3, dtype=np.int64))
    r, piv = rref(ident)
    assert r == ident and piv == (0, 1, 2)
    r, piv = rref(FieldMatrix(gf3, [[1, 1], [2, 2]]))
    assert r == FieldMatrix(gf3, [[1, 1], [0, 0]]) and piv == (0,)


def test_rref_idempotent_bit_exact(gf9):
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = _random_matrix(gf9, rng, 3, 6)
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2
        assert same_row_space(m, r1)
        assert list(p1) == sorted(p1)


def test_rref_is_kept_on_the_matrix_it_reduced(gf9, eliminations):
    # through the module, where the fixture records each elimination
    rng = np.random.default_rng(5)
    matrices = [_random_matrix(gf9, rng, r, c) for r, c in ((3, 6), (4, 4), (5, 2), (0, 3))]
    firsts = [matrix.rref(m) for m in matrices]
    assert eliminations == matrices
    for m, first in zip(matrices, firsts):
        # a second call, and rank, null_space and standard_form, reuse it
        assert matrix.rref(m) is first
        assert rank(m) == len(first[1])
        assert null_space(m) == null_space(FieldMatrix(gf9, m.data))
        if rank(m) == m.rows:
            assert standard_form(m) == standard_form(FieldMatrix(gf9, m.data))
    assert [sum(e is m for e in eliminations) for m in matrices] == [1] * len(matrices)
    for m, (reduced, pivots) in zip(matrices, firsts):
        copy = FieldMatrix(gf9, m.data)
        assert copy._reduced is None
        assert matrix.rref(copy) == (reduced, pivots)  # a fresh reduction agrees
        assert not reduced.data.flags.writeable


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from([Field(3, 1), Field(3, 2), Field(2, 4)]),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 9)),
    rank_=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_matches_scalar_oracle_across_empty_columns_and_zero_rows(field, shape, rank_, seed):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    # a product of random factors has rank at most rank_, so rows below it clear to zero
    left = rng.integers(0, field.order, size=(rows, rank_))
    right = rng.integers(0, field.order, size=(rank_, cols))
    m = matmul(FieldMatrix(field, left), FieldMatrix(field, right)).data.copy()
    if cols:  # clear a run of columns, and some rows
        start = int(rng.integers(0, cols))
        m[:, start : start + int(rng.integers(0, cols + 1))] = 0
    m[rng.random(rows) < 0.3] = 0
    r, pivots = rref(FieldMatrix(field, m))
    expected, expected_pivots = scalar_rref(field, m)
    assert pivots == expected_pivots
    assert r.tolist() == expected


def test_rref_stops_scanning_once_the_remaining_rows_are_zero(gf9, monkeypatch):
    # one pivot in column 150 of 200 and three zero rows: a column at a time
    # would take 200 scans, one per column; skipping the empty runs takes 5
    data = np.zeros((4, 200), dtype=np.int64)
    data[0, 150:152] = 3, 1
    scans = []
    nonzero = np.nonzero
    monkeypatch.setattr(matrix.np, "nonzero", lambda a: scans.append(1) or nonzero(a))
    r, pivots = rref(FieldMatrix(gf9, data))
    assert pivots == (150,) and r.data[0, 150:152].tolist() == [1, gf9.inv(3)]
    assert not r.data[1:].any()
    assert len(scans) <= 5


def test_rank_properties(gf9):
    assert rank(FieldMatrix.zeros(gf9, 3, 5)) == 0
    assert rank(FieldMatrix(gf9, np.eye(4, dtype=np.int64))) == 4
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = _random_matrix(gf9, rng, 3, 5)
        assert rank(m) == rank(transpose(m))
        assert rank(m) == minor_rank(gf9, m.tolist())


@pytest.mark.parametrize("q", [2, 3, 37])
def test_batch_column_deficient_matches_minor_rank(q):
    # dense-table fields and GF(37^2), which has no tables; a third of the
    # entries are zero so rank drops and row swaps both occur
    field = make_quadratic_field(q)
    rng = np.random.default_rng(q)
    for rows, cols in ((1, 1), (3, 1), (3, 2), (3, 3), (4, 3), (2, 3)):
        blocks = rng.integers(1, field.order, size=(40, rows, cols))
        blocks[rng.random(blocks.shape) < 0.35] = 0
        blocks[0, :, -1] = blocks[0, :, 0]  # a repeated column
        flags = batch_column_deficient(field, blocks)
        assert flags.shape == (40,)
        for m, flag in zip(blocks, flags):
            assert flag == (minor_rank(field, m) < cols)
    assert batch_column_deficient(field, np.zeros((0, 3, 2), dtype=np.int64)).shape == (0,)


def test_null_space_examples(gf3, gf9):
    ns = null_space(FieldMatrix(gf3, [[1, 1]]))
    assert ns.rows == 1
    # spans {(a, 2a)}
    assert row_space_contains(ns, [1, 2])
    assert null_space(FieldMatrix(gf9, np.eye(3, dtype=np.int64))).rows == 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = _random_matrix(gf9, rng, 3, 6)
        ns = null_space(m)
        assert ns.rows + rank(m) == m.cols
        if ns.rows:
            prod = matmul(m, transpose(ns))
            assert not np.any(prod.data)
        # the identity on the free columns pins the basis down to the entry
        free = [c for c in range(m.cols) if c not in rref(m)[1]]
        assert np.array_equal(ns.data[:, free], np.eye(len(free), dtype=np.int64))


def test_null_space_of_empty_matrix(gf9):
    ns = null_space(FieldMatrix.zeros(gf9, 0, 4))
    assert ns.rows == 4 and rank(ns) == 4


def test_standard_form(gf3, gf9):
    ident_like = FieldMatrix(gf9, [[1, 0, 5], [0, 1, 7]])
    out, perm = standard_form(ident_like)
    assert out == ident_like and perm == (0, 1, 2)
    out, perm = standard_form(FieldMatrix(gf3, [[0, 1]]))
    assert out == FieldMatrix(gf3, [[1, 0]]) and perm == (1, 0)
    rng = np.random.default_rng(8)
    done = 0
    while done < 20:
        m = _random_matrix(gf9, rng, 2, 5)
        if rank(m) < 2:
            continue
        out, perm = standard_form(m)
        assert np.array_equal(out.data[:, :2], np.eye(2, dtype=np.int64))
        assert same_row_space(out, permute_columns(m, perm))
        done += 1
    with pytest.raises(RankDeficientError):
        standard_form(FieldMatrix(gf9, [[1, 1], [1, 1]]))


def test_zero_row_matrices_are_legal(gf9):
    empty = FieldMatrix.zeros(gf9, 0, 3)
    assert rank(empty) == 0
    assert rref(empty)[1] == ()
    out, perm = standard_form(empty)
    assert out.rows == 0 and perm == (0, 1, 2)


def test_scale_and_permute_columns(gf9):
    m = FieldMatrix(gf9, [[1, 2, 3]])
    assert scale(LinearCode(gf9, m), (1, 1, 1)).gen == m
    # weights are element codes: a float, -1 and 9 were once read as 1, 8
    # and a bare numpy IndexError
    for weights in ((1, 1.5, 2), (1, -1, 2), (1, 9, 2)):
        with pytest.raises(ValueError, match=r"must be int64 integers|outside \[0, 9\)"):
            scale(LinearCode(gf9, m), weights)
    with pytest.raises(BadPermutationError):
        permute_columns(m, (0, 0, 1))
    assert permute_columns(m, (2, 1, 0)) == FieldMatrix(gf9, [[3, 2, 1]])
    # bools are the ints they stand for, not a mask that drops coordinates;
    # floats are refused, not a bare numpy IndexError
    two = FieldMatrix(gf9, [[1, 2]])
    assert permute_columns(two, [True, False]) == FieldMatrix(gf9, [[2, 1]])
    code = permute(LinearCode(gf9, [[1, 2]]), [True, False])
    assert (code.n, code.k) == (2, 1)
    with pytest.raises(ValueError, match="must be int64 integers"):
        permute_columns(two, [1.0, 0.0])


def _code_dict(field, rows, cols, entries):
    gen = {"rows": rows, "cols": cols, "entries": entries}
    return {"field": field.to_dict(), "n": cols, "k": rows, "generator": gen}


def test_matrix_json_round_trip(gf9):
    # the matrix layer writes a code file's entries; LinearCode.from_dict reads them
    from hulldial.code import LinearCode

    rng = np.random.default_rng(9)
    for field in (gf9, Field(2, 8), make_quadratic_field(37)):
        m = _random_matrix(field, rng, 2, 3)
        d = m.to_dict()
        assert d["entries"] == [_poly_digits(field, x) for x in m.data.reshape(-1).tolist()]
        assert all(type(c) is int for entry in d["entries"] for c in entry)
        assert LinearCode.from_dict(_code_dict(field, 2, 3, d["entries"])).gen == m
    assert FieldMatrix.zeros(gf9, 0, 3).to_dict() == {"rows": 0, "cols": 3, "entries": []}


def test_out_of_range_entries_are_refused_where_user_data_enters(gf9):
    from hulldial.code import LinearCode
    from hulldial.errors import MalformedCodeError

    for bad in (gf9.order, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
            FieldMatrix(gf9, [[1, bad]])
        with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
            LinearCode(gf9, [[1, 0, bad]])
    # a stored entry has e = 2 coefficients; a third would leave GF(9)
    with pytest.raises(ValueError, match="at most 2 coefficients"):
        LinearCode.from_dict(_code_dict(gf9, 1, 1, [[0, 1, 1]]))
    # a coefficient outside [0, p) is refused, not reduced mod p
    for entries in ([[0, 3], [5, -1]], [[0, 1], [2, 3]], [[-1], [0]]):
        with pytest.raises(MalformedCodeError, match=r"must lie in \[0, p\) = \[0, 3\)"):
            LinearCode.from_dict(_code_dict(gf9, 1, 2, entries))
    # fewer than e digits are leading zeros
    ok = LinearCode.from_dict(_code_dict(gf9, 1, 2, [[0, 2], [2]]))
    assert ok.gen.tolist() == [[6, 2]]
    d = LinearCode(gf9, [[1, 2]]).to_dict()
    d["generator"]["entries"][1] = [0, gf9.p]
    with pytest.raises(MalformedCodeError):
        LinearCode.from_dict(d)


def test_non_integer_entries_are_refused_not_truncated(gf9):
    with pytest.raises(ValueError, match="must be int64 integers"):
        FieldMatrix(gf9, [[1.7, 2.2]])
    with pytest.raises(ValueError, match="must be int64 integers"):
        FieldMatrix(gf9, np.array([[1.0, 2.0]]))
    # Python and numpy integers pass, and so does size-0 data of a float dtype
    ints = FieldMatrix(gf9, [[np.int64(1), 2], [np.uint8(3), np.int32(8)]])
    assert ints.tolist() == [[1, 2], [3, 8]] and ints.data.dtype == np.int64
    assert FieldMatrix(gf9, []).shape == (0, 0)
    assert FieldMatrix(gf9, np.zeros((0, 3))).shape == (0, 3)


def test_results_wrapped_without_a_check_are_read_only(gf9):
    m = FieldMatrix(gf9, [[0, 2, 3, 4], [0, 5, 1, 7]])
    results = [
        transpose(m), frobenius_entrywise(m, 1), matrix._scale_columns(m, (1, 2, 3, 4)),
        permute_columns(m, (3, 2, 1, 0)), rref(m)[0], null_space(m), standard_form(m)[0],
        matmul(m, transpose(m)),
    ]
    for r in results:
        assert not r.data.flags.writeable
        assert r.data.min() >= 0 and r.data.max() < gf9.order


def test_frobenius_entrywise(gf9):
    m = FieldMatrix(gf9, [[3, 4]])
    fr = frobenius_entrywise(m, 1)
    assert fr == FieldMatrix(gf9, [[poly_pow(gf9, 3, 3), poly_pow(gf9, 4, 3)]])
