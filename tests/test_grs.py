import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hulldial.errors import (
    BadDimensionError,
    BadFamilyParamsError,
    CapExceededError,
    DuplicateEvalPointsError,
    NotADivisorError,
    ShapeMismatchError,
    TooLargeToEnumerateError,
    VerificationFailedError,
    ZeroMultiplierError,
)
from hulldial.field import Field, make_quadratic_field
from hulldial.code import is_hermitian_self_orthogonal, is_mds, min_distance
from hulldial import code as code_module, grs
from hulldial.cli import main
from hulldial.grs import (
    _CHUNK,
    GrsSpec,
    MultiplierProblem,
    _orthogonality_system,
    construct_family,
    full_field_rs,
    grs_generator,
    solve_multipliers,
    subgroup_eval_set,
    subgroup_union_eval_set,
    trace_nonzero_eval_set,
)
from hulldial.matrix import null_space
from oracles import (
    brute_first_all_nonzero,
    gram_by_power_sums,
    hermitian_gram,
    norm_substituted_polys,
    orthogonality_system,
    poly_mul,
    poly_pow,
    random_phase_by_whole_chunks,
    trace_nonzero_points,
    twisted_inner,
)


def test_grs_spec_validation(gf9):
    with pytest.raises(DuplicateEvalPointsError):
        GrsSpec(gf9, (1, 1), (1, 1), 1)
    with pytest.raises(ZeroMultiplierError):
        GrsSpec(gf9, (1, 2), (1, 0), 1)
    with pytest.raises(BadDimensionError):
        GrsSpec(gf9, (1, 2), (1, 1), 3)
    with pytest.raises(ShapeMismatchError, match="expected 2 multipliers, got 3"):
        GrsSpec(gf9, (1, 2), (1, 1, 1), 1)
    ext = GrsSpec(gf9, (1, 2), (1, 1, 1), 3, extended=True)
    assert ext.length == 3


def test_non_integer_points_and_multipliers_are_refused(gf9):
    with pytest.raises(ValueError, match="must be int64 integers"):
        GrsSpec(gf9, (0.5, 1.7, 2.2), (1, 1.9, 1), 2)
    with pytest.raises(ValueError, match="must be int64 integers"):
        GrsSpec(gf9, (0, 1, 2), (1, 1.9, 1), 2)
    spec = GrsSpec(gf9, (np.int64(0), 1, np.uint8(2)), (1, np.int32(2), 1), 2)
    assert spec.eval_points == (0, 1, 2) and spec.multipliers == (1, 2, 1)
    assert all(type(x) is int for x in spec.eval_points + spec.multipliers)
    # no evaluation point at all: an empty tuple, which numpy reads as float
    assert GrsSpec(gf9, (), (3,), 1, extended=True).length == 1


def test_solver_refuses_non_integer_points(gf9):
    with pytest.raises(ValueError, match="must be int64 integers"):
        solve_multipliers(MultiplierProblem(gf9, (0.0, 1.5, 2.0), 1))
    points = tuple(np.arange(9, dtype=np.int64))
    assert solve_multipliers(MultiplierProblem(gf9, points, 1)).found


def test_generator_shapes(gf9):
    spec = GrsSpec(gf9, tuple(range(9)), (1,) * 9, 2)
    code = grs_generator(spec)
    assert (code.n, code.k) == (9, 2)
    assert min_distance(code) == 8
    ones = GrsSpec(gf9, tuple(range(5)), (1,) * 5, 1)
    assert min_distance(grs_generator(ones)) == 5


def test_extended_generator(gf9):
    spec = GrsSpec(gf9, tuple(range(9)), (1,) * 10, 1, extended=True)
    code = grs_generator(spec)
    assert (code.n, code.k) == (10, 1)
    assert min_distance(code) == 10


def test_grs_code_is_reduced_once_across_its_rank_check_and_is_mds(gf16, eliminations):
    spec = GrsSpec(gf16, tuple(range(1, 12)), tuple(range(1, 12)), 4, extended=False)
    code = spec.code()
    assert is_mds(code) and spec.code() is code
    # LinearCode's rank check and the MDS certificate's standard form share
    # the one elimination kept on the generator
    assert sum(m is code.gen for m in eliminations) == 1


@st.composite
def _grs_specs(draw):
    """Specs on distinct points that include 0, with random nonzero multipliers."""
    field = make_quadratic_field(draw(st.sampled_from((2, 3, 4, 5))))
    nonzero = st.integers(1, field.order - 1)
    others = draw(st.lists(nonzero, unique=True, max_size=min(field.order - 1, 10)))
    pts = tuple(draw(st.permutations([0, *others])))
    extended = draw(st.booleans())
    mults = tuple(draw(st.lists(nonzero, min_size=len(pts) + extended,
                                max_size=len(pts) + extended)))
    k = draw(st.integers(1, len(pts) + extended))
    return GrsSpec(field, pts, mults, k, extended)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_grs_specs())
def test_grs_generator_matches_scalar_oracle(spec):
    # entry (i, l) is v_l * a_l^i with 0^0 = 1; the extension column holds
    # v_inf in the last row only
    f = spec.field
    for i, row in enumerate(grs_generator(spec).gen.data.tolist()):
        points = zip(spec.eval_points, spec.multipliers)
        want = [poly_mul(f, v, poly_pow(f, a, i)) for a, v in points]
        if spec.extended:
            want.append(spec.multipliers[-1] if i == spec.k - 1 else 0)
        assert row == want


def test_grs_spec_builds_its_code_once(gf9):
    spec = GrsSpec(gf9, tuple(range(9)), (1,) * 10, 2, extended=True)
    assert spec.code() is spec.code()
    assert spec.code().gen == grs_generator(spec).gen


def test_full_field_rs(gf9, gf16):
    for q, field in ((3, gf9), (4, gf16)):
        for k in range(1, q):
            spec = full_field_rs(field, k)
            code = spec.code()
            assert is_hermitian_self_orthogonal(code)
            assert is_mds(code)
    with pytest.raises(BadDimensionError):
        full_field_rs(gf9, 3)
    with pytest.raises(BadDimensionError):
        full_field_rs(gf9, 0)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_full_field_gram_matches_power_sums(q):
    field = make_quadratic_field(q)
    k = q - 1
    from hulldial.code import gram_matrix

    code = full_field_rs(field, k).code()
    direct = gram_by_power_sums(field, list(field.elements()), k)
    assert gram_matrix(code).tolist() == direct
    assert all(x == 0 for row in direct for x in row)


def test_solver_hand_verifiable_8_1(gf9):
    res = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
    assert res.found
    w = [gf9.norm(v) for v in res.grs.multipliers]
    acc = 0
    for x in w:
        acc = gf9.add(acc, x)
    assert acc == 0  # the defining equation, summed by hand
    code = res.grs.code()
    assert (code.n, code.k) == (8, 1)
    assert min_distance(code) == 8
    assert is_hermitian_self_orthogonal(code)


def test_solver_hand_verifiable_10_1_extended(gf9):
    res = solve_multipliers(MultiplierProblem(gf9, tuple(range(9)), 1, extended=True))
    assert res.found
    code = res.grs.code()
    assert (code.n, code.k) == (10, 1)
    assert min_distance(code) == 10
    assert is_hermitian_self_orthogonal(code)


def test_solver_determinism(gf9):
    a = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
    b = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
    assert a.grs == b.grs and a.attempts == b.attempts


def test_solver_dimension_obstruction(gf9):
    res = solve_multipliers(MultiplierProblem(gf9, (0, 1), 2))
    assert res.status == "no-solution"
    assert res.grs is None


ORACLE_QS = (2, 3, 4, 5, 7)  # GF(4), GF(9), GF(16), GF(25), GF(49)
ORACLE_WALK = 20000  # largest q^nu the scalar oracle walks


def _chunked_attempts(index: int, total: int) -> int:
    """Indices ruled out up to the end of the scan chunk holding ``index``."""
    return min((index - 1) // _CHUNK * _CHUNK + _CHUNK, total - 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orthogonality_system_matches_scalar_oracle(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5, 7, 9, 32)))
    field = make_quadratic_field(q)
    k = data.draw(st.integers(1, min(q, 5)))
    pts = data.draw(st.lists(st.integers(0, field.order - 1), unique=True, max_size=40))
    problem = MultiplierProblem(field, tuple(pts), k, extended=data.draw(st.booleans()))
    system = _orthogonality_system(problem).data
    assert system.shape == (2 * k * k, len(pts) + problem.extended)
    assert system.tolist() == orthogonality_system(problem)


@st.composite
def _exhaustive_problems(draw):
    """Solver problems whose null space is scanned exhaustively, nu <= 6."""
    q = draw(st.sampled_from(ORACLE_QS))
    field = make_quadratic_field(q)
    k = draw(st.integers(1, q))
    # the system has about k^2 independent rows, so nu is about n - k^2
    n = min(q * q, max(k, k * k + draw(st.integers(-1, 6))))
    pts = tuple(draw(st.permutations(list(field.elements())))[:n])
    problem = MultiplierProblem(field, pts, k, extended=draw(st.booleans()))
    basis = null_space(_orthogonality_system(problem))
    assume(basis.rows <= 6 and q**basis.rows <= ORACLE_WALK)
    return problem, basis


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_exhaustive_problems())
def test_solver_matches_first_all_nonzero_oracle(case):
    problem, basis = case
    f = problem.field
    total = f.subfield_order**basis.rows
    res = solve_multipliers(problem, seed=5)
    assert res.null_dim == basis.rows
    expected = brute_first_all_nonzero(f, basis.data)
    if expected is None:
        assert (res.status, res.grs, res.attempts) == ("no-solution", None, total - 1)
        return
    vec, index = expected
    assert res.status == "found"
    assert tuple(f.norm(v) for v in res.grs.multipliers) == vec
    assert res.attempts == _chunked_attempts(index, total)


@st.composite
def _echelon_bases(draw):
    """Subfield bases shaped like null_space output: row t is 1 on free
    column t, 0 on the other free columns, and nonzero elsewhere only on
    bound columns left of its free column."""
    field = make_quadratic_field(draw(st.sampled_from(ORACLE_QS)))
    sub = [a for a in field.elements() if field.in_subfield(a)]
    nu = draw(st.integers(1, 6))
    assume(len(sub) ** nu <= ORACLE_WALK)
    is_free = draw(st.permutations([True] * nu + [False] * draw(st.integers(0, 6))))
    free = [c for c, flag in enumerate(is_free) if flag]
    basis = np.zeros((nu, len(is_free)), dtype=np.int64)
    for t, fc in enumerate(free):
        basis[t, fc] = 1
        for c in range(fc):
            if not is_free[c]:
                basis[t, c] = draw(st.sampled_from(sub))
    return field, basis


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_echelon_bases())
def test_pruned_scan_matches_first_all_nonzero_oracle(case):
    field, basis = case
    total = field.subfield_order ** basis.shape[0]
    w, attempts, exhausted = grs._all_nonzero_combination(field, basis, seed=1)
    assert exhausted
    expected = brute_first_all_nonzero(field, basis)
    if expected is None:
        assert (w, attempts) == (None, total - 1)
    else:
        assert tuple(int(x) for x in w) == expected[0]
        assert attempts == _chunked_attempts(expected[1], total)


def test_solver_random_phase_hit_pinned(gf25):
    # q2plus1 at q = 5, k = 3: nu = 17, so every index within the prefix
    # budget has a zero digit and the hit comes from the seeded random
    # phase; values recorded before zero-digit vectors were pruned
    res = construct_family(gf25, "q2plus1", k=3, seed=2)
    assert (res.status, res.null_dim, res.attempts) == ("found", 17, 104096)
    assert res.grs.multipliers == (
        1, 8, 8, 8, 2, 8, 2, 8, 2, 8, 7, 8, 1, 7, 7, 7, 1, 2, 7, 2, 2, 1, 7, 8, 7, 7,
    )


@pytest.mark.parametrize("q, nu", [(13, 161), (16, 248)])
def test_solver_second_random_pass_reaches_q2plus1_at_k3(q, nu):
    # [q^2 + 1, 3]: the first pass evaluates a share ((q - 1)/q)^nu of its
    # draws (about 3e-6 at q = 13) and finds nothing; the second pass draws
    # nonzero digits only, and its first chunk holds a hit
    res = construct_family(make_quadratic_field(q), "q2plus1", k=3)
    assert (res.status, res.null_dim) == ("found", nu)
    assert res.attempts == grs.PREFIX_SCAN_BUDGET + grs.RANDOM_BUDGET + _CHUNK
    code = res.grs.code()
    assert (code.n, code.k) == (q * q + 1, 3)
    assert hermitian_gram(code) == [[0] * 3] * 3
    assert is_mds(code)


def _random_phase_basis(field: Field, nu: int, bound: int, basis_seed: int) -> np.ndarray:
    """[B | I]: nu rows whose bound columns B hold seeded subfield values."""
    q = field.subfield_order
    rng = np.random.default_rng(basis_seed)
    values = field.subfield_elements[rng.integers(0, q, size=(nu, bound))]
    return np.hstack([values, np.eye(nu, dtype=np.int64)])


def _random_phase_runs(q: int, nu: int) -> bool:
    """Whether the solver goes straight to its random passes on nu rows."""
    total = q**nu
    return total > grs.EXHAUSTIVE_SCAN_LIMIT and (total - 1) // (q - 1) > grs.PREFIX_SCAN_BUDGET


def _assert_matches_whole_chunks(field: Field, basis: np.ndarray, seed: int):
    w, attempts, exhausted = grs._all_nonzero_combination(field, basis, seed)
    ref_w, ref_attempts, ref_exhausted = random_phase_by_whole_chunks(field, basis, seed)
    assert (attempts, exhausted) == (ref_attempts, ref_exhausted)
    assert (w is None) == (ref_w is None)
    if w is not None:
        assert w.tolist() == ref_w.tolist()
        assert np.all(w != 0)
    return attempts - grs.PREFIX_SCAN_BUDGET, w


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_phase_matches_one_draw_per_chunk(data):
    q = data.draw(st.sampled_from((3, 4, 5, 7)))
    field = make_quadratic_field(q)
    nu0 = next(nu for nu in range(1, 20) if _random_phase_runs(q, nu))
    nu = data.draw(st.integers(nu0, nu0 + 4))
    basis = _random_phase_basis(
        field, nu, data.draw(st.integers(0, 40)), data.draw(st.integers(0, 2**32 - 1))
    )
    _assert_matches_whole_chunks(field, basis, data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("basis_seed, drawn", [
    (7, 3 * _CHUNK),  # pass 1, third chunk
    (11, grs.RANDOM_BUDGET),  # pass 1, its last, 1,696-row chunk
    (5, grs.RANDOM_BUDGET + _CHUNK),  # pass 2, first chunk
    (1, grs.RANDOM_BUDGET + 11 * _CHUNK),  # pass 2, chunk 11
])
def test_random_phase_hit_placement_matches_one_draw_per_chunk(gf25, basis_seed, drawn):
    # nu = 9 rows at q = 5 with 45 seeded bound columns: about 0.8^45 of the
    # evaluated combinations are all nonzero, so the hit may lie anywhere
    basis = _random_phase_basis(gf25, 9, 45, basis_seed)
    assert _random_phase_runs(5, 9)
    assert _assert_matches_whole_chunks(gf25, basis, seed=1)[0] == drawn


def test_random_phase_miss_matches_one_draw_per_chunk(gf25):
    # ten bound columns hold c_i - c_j for the first five rows: five nonzero
    # coefficients from GF(5) are never pairwise distinct, so both passes miss
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    basis = np.zeros((9, len(pairs) + 9), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        basis[i, col], basis[j, col] = 1, gf25.neg(1)
    basis[:, len(pairs):] = np.eye(9, dtype=np.int64)
    drawn, w = _assert_matches_whole_chunks(gf25, basis, seed=3)
    assert (drawn, w) == (2 * grs.RANDOM_BUDGET, None)


def test_solver_prefix_phase_hit_pinned():
    # k = 1 on six points of GF(17^2): nu = 5 and 17^5 > EXHAUSTIVE_SCAN_LIMIT,
    # but the smallest all-nonzero index (17^5 - 1)/16 = 88741 lies within
    # the prefix budget, which finds the hit; values recorded before
    # zero-digit vectors were pruned
    f = make_quadratic_field(17)
    res = solve_multipliers(MultiplierProblem(f, (1, 2, 3, 4, 5, 6), 1))
    assert (res.status, res.null_dim, res.attempts) == ("found", 5, 90112)
    assert res.grs.multipliers == (38, 1, 1, 1, 1, 1)


def test_solver_rejects_basis_without_identity_on_free_columns(gf9):
    # free columns are each row's last nonzero entry: 2 and 2, then 1 and 2
    for basis in ([[1, 0, 1], [0, 1, 1]], [[1, 2, 0], [1, 0, 1]]):
        with pytest.raises(VerificationFailedError):
            grs._all_nonzero_combination(gf9, np.array(basis, dtype=np.int64), seed=1)


def test_construct_family_mds_check_uses_column_subsets(monkeypatch, gf25):
    # q2plus1 at q = 5, k = 5: 25^5 messages; the check never enumerates
    # them (the certificate answers this GRS code before the C(26, w <= 5)
    # column subsets of the dual distance search would be needed)
    def no_enumeration(code, cap=None):
        raise AssertionError("the MDS check enumerated messages")

    monkeypatch.setattr(code_module, "_enumerated_distance", no_enumeration)
    res = construct_family(gf25, "q2plus1", k=5)
    assert res.found and res.grs.code().n == 26


def _must_not_run(*args, **kwargs):
    raise AssertionError("the MDS check left the certificate")


def test_construct_family_mds_check_is_answered_by_certificate(monkeypatch):
    # [256, 3] at q = 16: 2.8 million column subsets and 256^253 dual
    # messages, both past their budgets; the certificate alone decides
    monkeypatch.setattr(code_module, "_smallest_dependent_set", _must_not_run)
    monkeypatch.setattr(code_module, "_enumerated_distance", _must_not_run)
    res = construct_family(make_quadratic_field(16), "full-field", k=3)
    assert res.found and res.grs.code().n == 256


def test_construct_family_mds_check_that_cannot_finish_raises(monkeypatch):
    monkeypatch.setattr(code_module, "_mds_certificate", lambda gen: False)
    with pytest.raises(TooLargeToEnumerateError):
        construct_family(make_quadratic_field(16), "full-field", k=3)


def test_solver_refuses_long_codes_before_building_system(monkeypatch):
    # the length bound, not the field order, limits the solver: q2plus1 at
    # q = 37 (n = 1370) and q = 1024 (n = 2^20 + 1) is refused up front,
    # while six points of GF(37^2) are solved and the result re-verified
    def no_system(problem):
        raise AssertionError("built the orthogonality system")

    with monkeypatch.context() as patch:
        patch.setattr(grs, "_orthogonality_system", no_system)
        for q in (37, 1024):
            with pytest.raises(CapExceededError):
                construct_family(make_quadratic_field(q), "q2plus1", k=1)
        with pytest.raises(BadDimensionError, match="k must be at least 1"):
            solve_multipliers(MultiplierProblem(make_quadratic_field(3), tuple(range(9)), 0))
    field = make_quadratic_field(37)
    res = solve_multipliers(MultiplierProblem(field, tuple(range(6)), 1))
    assert (res.status, res.null_dim) == ("found", 5)
    row = res.grs.code().gen.row(0)
    assert twisted_inner(field, row, row, 1) == 0


@pytest.mark.parametrize("q, family, params, n", [
    (1024, "q2plus1", {}, 1024**2 + 1),
    (1024, "subgroup", {"m": 1}, 1024**2 - 1),
    (1024, "two-subgroup", {"m1": 1, "m2": 5}, 1024**2 - 1),
    (127, "even-subgroup", {"m": 6}, (127**2 - 1) // 6),
])
def test_construct_refuses_long_sets_before_building_field_tables(q, family, params, n):
    # each length follows from q and the family's parameters, so the bound
    # is checked before the evaluation set, and the field's tables, exist
    field = make_quadratic_field(q)
    with pytest.raises(CapExceededError, match=f"length {n} exceeds the solver's length bound"):
        construct_family(field, family, k=1, **params)
    assert "_tables" not in field.__dict__


def test_solver_lift_norms(gf25):
    pts = subgroup_eval_set(gf25, 3)
    res = solve_multipliers(MultiplierProblem(gf25, pts, 2))
    assert res.found
    for v in res.grs.multipliers:
        assert gf25.in_subfield(gf25.norm(v))
        assert v != 0
        # each norm is lifted to its first preimage in canonical order
        assert v == min(u for u in range(1, 25) if gf25.norm(u) == gf25.norm(v))


@pytest.mark.parametrize("owner, name, broken, message", [
    (Field, "norm_preimage_array", lambda self, w: np.ones_like(w), "norm preimage lift failed"),
    (grs, "is_hermitian_self_orthogonal", lambda code: False, "self-orthogonality re-check"),
    (grs, "is_mds", lambda code: False, "not MDS"),
])
def test_every_recheck_runs_on_the_found_code(monkeypatch, gf25, owner, name, broken, message):
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(VerificationFailedError, match=message):
        construct_family(gf25, "subgroup", k=2, m=3)


def test_construct_builds_the_generator_once(monkeypatch, capsys):
    # the solver's re-check, the MDS re-check and the CLI payload share one build
    calls = []

    def counted(spec):
        calls.append(spec)
        return grs_generator(spec)

    monkeypatch.setattr(grs, "grs_generator", counted)
    assert main(["construct", "--q", "5", "--family", "subgroup", "--k", "2", "--m", "3"]) == 0
    assert len(calls) == 1 and '"status": "found"' in capsys.readouterr().out


def test_broken_subfield_scan_raises_typed_error(monkeypatch):
    # the scan maps coefficient digits to the fixed points of conjugation,
    # found once per field; a conjugation that fixes everything must fail
    # loudly, also under -O.  Field() is never shared, so this field has not
    # found them yet.
    gf9 = Field(3, 2)
    basis = null_space(_orthogonality_system(MultiplierProblem(gf9, tuple(range(8)), 1))).data
    monkeypatch.setattr(Field, "conj_array", lambda self, a: np.asarray(a))
    with pytest.raises(VerificationFailedError, match="fixed points of conjugation"):
        grs._all_nonzero_combination(gf9, basis, seed=1)


def test_norm_outside_the_subfield_raises_typed_error(monkeypatch, gf9):
    monkeypatch.setattr(Field, "in_subfield", lambda self, a: False)
    with pytest.raises(VerificationFailedError, match="norm left the subfield"):
        gf9.norm(1)


def test_trace_eval_sets(gf9):
    # constant with c + c^q != 0: every point stays
    assert len(trace_nonzero_eval_set(gf9, [1])) == 9
    # g = x: the zero set is {0, w, 2w}
    pts = trace_nonzero_eval_set(gf9, [0, 1])
    assert pts == (1, 2, 4, 5, 7, 8)
    # zero polynomial: the empty set, with no warning (construct_family refuses it)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empty = trace_nonzero_eval_set(gf9, [0])
    assert empty == () and not caught


def test_trace_eval_set_horner_budget(gf9, monkeypatch):
    # the budget counts (deg g + 1) * order; zero leading coefficients are free
    monkeypatch.setattr(grs, "HORNER_BUDGET", 2 * gf9.order)
    assert trace_nonzero_eval_set(gf9, [0, 1, 0, 0]) == (1, 2, 4, 5, 7, 8)
    with pytest.raises(CapExceededError, match="Horner"):
        trace_nonzero_eval_set(gf9, [0, 0, 1])


class _HornerStarted(Exception):
    pass


@pytest.mark.parametrize("q, top", [(1024, 1023), (512, 4095), (128, 127 * 128 - 1)])
def test_trace_eval_set_horner_budget_admits_useful_degrees(monkeypatch, q, top):
    # a g of degree d < q leaves a set within the solver's length bound only if
    # dq >= q^2 - 1025, so deg g = q - 1 must pass at every q; at q = 128 the
    # family's whole degree range, up to (q - 1)q - 1, passes
    field = make_quadratic_field(q)

    def started(*args):
        raise _HornerStarted

    monkeypatch.setattr(field, "mul_array", started)
    with pytest.raises(_HornerStarted):
        trace_nonzero_eval_set(field, [0] * top + [1])
    if q > 128:
        with pytest.raises(CapExceededError, match="Horner"):
            trace_nonzero_eval_set(field, [0] * (top + 1) + [1])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_trace_eval_set_matches_scalar_oracle(data):
    field = make_quadratic_field(data.draw(st.sampled_from((2, 3, 4, 8, 37))))
    g = data.draw(st.lists(st.integers(0, field.order - 1), max_size=6))
    assert trace_nonzero_eval_set(field, g) == trace_nonzero_points(field, g)


def test_norm_substituted_polys_shapes(gf9):
    polys = list(norm_substituted_polys(gf9, 1))
    q = gf9.subfield_order
    for g in polys:
        for idx, coeff in enumerate(g):
            if idx % (q + 1) != 0:
                assert coeff == 0
    # degree-1 f gives degree q+1 g
    assert any(len(g) == q + 2 for g in polys)


def test_subgroup_eval_sets(gf9, gf25):
    assert subgroup_eval_set(gf9, 1) == tuple(range(1, 9))
    squares = subgroup_eval_set(gf9, 2)
    assert squares == (1, 2, 3, 6)  # the four squares of GF(9)*
    with pytest.raises(NotADivisorError):
        subgroup_eval_set(gf9, 3)
    union = subgroup_union_eval_set(gf25, 1, 3)
    assert len(union) == 24 + 8 - 8


@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_subgroup_eval_set_matches_repeated_multiplication(q):
    field = make_quadratic_field(q)
    order = field.order - 1
    for m in (m for m in range(1, order + 1) if order % m == 0):
        step = poly_pow(field, field.primitive_element(), m)
        x, subgroup = 1, []
        for _ in range(order // m):
            subgroup.append(x)
            x = poly_mul(field, x, step)
        assert x == 1 and len(set(subgroup)) == order // m
        assert subgroup_eval_set(field, m) == tuple(sorted(subgroup)), m


def test_construct_family_full_field(gf9):
    res = construct_family(gf9, "full-field", k=2)
    assert res.found
    code = res.grs.code()
    assert (code.n, code.k) == (9, 2) and min_distance(code) == 8
    with pytest.raises(BadFamilyParamsError, match="k must be at least 1"):
        construct_family(gf9, "full-field", k=0)


def test_construct_family_q2plus1(gf9):
    res = construct_family(gf9, "q2plus1", k=3)
    assert res.found
    code = res.grs.code()
    assert (code.n, code.k) == (10, 3)
    assert is_hermitian_self_orthogonal(code)
    assert min_distance(code) == 8
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf9, "q2plus1", k=2)  # k = q - 1 excluded


def test_construct_family_subgroup(gf25):
    res = construct_family(gf25, "subgroup", k=2, m=3)
    assert res.found
    code = res.grs.code()
    assert (code.n, code.k) == (8, 2)
    assert min_distance(code) == 7
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf25, "subgroup", k=3, m=3)  # w bound violated
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf25, "subgroup", k=1, m=2)  # even m


def test_construct_family_two_subgroup(gf25):
    res = construct_family(gf25, "two-subgroup", k=2, m1=1, m2=3)
    assert res.found
    assert len(res.grs.eval_points) == 24
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf25, "two-subgroup", k=2, m1=3, m2=3)
    for k, m1, m2, reason in (
        (1, 2, 3, "m1, m2 must be odd"),
        (1, 5, 1, r"m1, m2 must divide q\+1 = 6"),
        (3, 1, 3, r"needs k <= \(q-1\)/2 = 2"),
    ):
        with pytest.raises(BadFamilyParamsError, match=reason):
            construct_family(gf25, "two-subgroup", k=k, m1=m1, m2=m2)


def test_construct_family_trace_poly(gf9):
    res = construct_family(gf9, "trace-poly", k=2, g=[0, 1])
    assert res.found
    code = res.grs.code()
    assert (code.n, code.k) == (6, 2) and min_distance(code) == 5
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf9, "trace-poly", k=2, g=[0, 0, 0, 1])  # degree too high
    with pytest.raises(BadFamilyParamsError, match="needs k <= q-1 = 2"):
        construct_family(gf9, "trace-poly", k=3, g=[0, 1])


def test_construct_family_even_subgroup():
    gf49 = make_quadratic_field(7)
    res = construct_family(gf49, "even-subgroup", k=2, m=6)
    assert res.status in ("found", "no-solution", "not-found-within-budget")
    if res.found:
        code = res.grs.code()
        assert (code.n, code.k) == (8, 2)
        assert is_hermitian_self_orthogonal(code)
    gf25 = make_quadratic_field(5)
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf25, "even-subgroup", k=1, m=4)  # m >= 6 required
    with pytest.raises(BadFamilyParamsError, match="needs k <= 4"):
        construct_family(gf49, "even-subgroup", k=5, m=6)  # 4 + 2^0 (3/3) - 1


def test_construct_family_unknown(gf9):
    with pytest.raises(BadFamilyParamsError):
        construct_family(gf9, "no-such-family", k=1)


@pytest.mark.parametrize(
    "family, params, foreign",
    [
        ("full-field", {"m": 3}, "m"),
        ("full-field", {"g": [0, 1]}, "g"),
        ("full-field", {"m1": 3, "m2": 1}, "m1, m2"),
        ("q2plus1", {"m": 3, "g": [0, 1]}, "m, g"),
        ("subgroup", {"m": 3, "g": [0, 1]}, "g"),
        ("subgroup", {"m": 3, "m1": 3}, "m1"),
        ("two-subgroup", {"m1": 1, "m2": 3, "m": 3}, "m"),
        ("trace-poly", {"g": [0, 1], "m2": 3}, "m2"),
        ("even-subgroup", {"m": 6, "g": [0, 1]}, "g"),
    ],
)
def test_construct_family_rejects_parameters_its_family_does_not_take(family, params, foreign):
    with pytest.raises(BadFamilyParamsError, match=f"the {family} family takes no {foreign}$"):
        construct_family(make_quadratic_field(5), family, k=1, **params)


def test_every_solver_output_is_verified(gf9, gf16, gf25, self_orthogonal_corpus):
    for tag, code in self_orthogonal_corpus:
        assert is_hermitian_self_orthogonal(code), tag
