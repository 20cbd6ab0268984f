import collections
import functools
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hulldial import code as code_module, dial, eaqec
from hulldial.errors import (
    BadFieldError,
    BadTargetError,
    CapExceededError,
    VerificationFailedError,
)
from hulldial.field import Field, is_prime_power, make_quadratic_field
from hulldial.code import (
    LinearCode,
    dual_min_distance,
    hull,
    is_hermitian_self_orthogonal,
    min_distance,
    permute,
    scale,
)
from hulldial.dial import dial_hull, reduce_hull
from hulldial.grs import full_field_rs
from hulldial.eaqec import (
    TSV_HEADER,
    EaqecParams,
    claim,
    classified,
    eaqec_from_code,
    eaqec_from_dial,
    eaqec_sweep,
    enumerate_table1,
    tsv_row,
    verify_claim,
    witness_digest,
)
from hulldial.matrix import FieldMatrix, rank

from oracles import brute_table1, brute_table1_tags, family_pairs, table_blocks_by_pair

GOLDEN = Path(__file__).parent / "golden" / "table1_counts.json"
GOLDEN_NAMED = Path(__file__).parent / "golden" / "table1_named_digests.json"
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def test_both_forms_from_witness(rs92):
    first, second = eaqec_from_code(rs92)
    # hull dim is 2 for the undialed self-orthogonal witness
    assert first.params == (9, 0, 8, 5)
    assert first.gate is False and first.mds is None
    assert second.params == (9, 5, 3, 0)
    assert second.gate and second.mds
    assert second.witnessed and second.hull_dim == 2


def test_first_form_after_dialing_to_zero(rs92):
    dialed = dial_hull(rs92, 0).code
    first, second = eaqec_from_code(dialed)
    assert first.params == (9, 2, 8, 7)
    assert first.mds is None  # d = 8 > (9+2)/2: bound not applicable
    assert second.params == (9, 7, 3, 2)
    assert second.mds


def test_sweep_cardinality_and_bounds(rs92):
    sweep = eaqec_sweep(rs92)
    assert [r.params for r in sweep] == [(9, 7, 3, 2), (9, 6, 3, 1), (9, 5, 3, 0)]
    assert len(sweep) == rs92.k + 1
    assert sum(1 for r in sweep if r.c > 0) == rs92.k
    for r in sweep:
        assert 2 * r.d + r.k_q == r.n + r.c + 2
        assert r.mds and r.witnessed


def test_single_dial_record(rs92):
    rec = eaqec_from_dial(rs92, 1)
    assert rec.params == (9, 6, 3, 1)
    assert rec.hull_dim == 1


def test_dial_record_from_general_code(gf9):
    pts = list(range(1, 9))
    g83 = LinearCode(gf9, [[gf9.pow(a, i) for a in pts] for i in range(3)])
    recs = eaqec_sweep(g83)  # hull dim 1: l in {0, 1}
    assert len(recs) == 2
    assert all(2 * r.d + r.k_q == r.n + r.c + 2 for r in recs)


def _sweep_inputs():
    for q in (3, 4, 5):
        for k in range(1, q):
            yield f"full-field q={q} k={k}", lambda q=q, k=k: full_field_rs(
                make_quadratic_field(q), k
            ).code()
    for name in ("gf9", "gf16"):
        yield name, lambda name=name: LinearCode.from_dict(
            json.loads((GOLDEN_CLI / f"{name}_code.json").read_text())
        )


@pytest.mark.parametrize("make_code", [pytest.param(f, id=tag) for tag, f in _sweep_inputs()])
def test_dialing_preserves_both_distances(make_code):
    # eaqec_sweep measures the dual distance once, on the input: every
    # dialed code permutes and scales its coordinates, which keeps d and
    # d_dual.  Re-measure both on each dialed code to pin that down.
    code = make_code()
    d, dd = min_distance(code), dual_min_distance(code)
    if is_hermitian_self_orthogonal(code):
        dialed = [dial_hull(code, l).code for l in range(code.k + 1)]
    else:
        dialed = [reduce_hull(code, l).code for l in range(hull(code).dim + 1)]
    records = eaqec_sweep(code)
    assert len(records) == len(dialed)
    for l, (out, rec) in enumerate(zip(dialed, records)):
        assert (min_distance(out), dual_min_distance(out)) == (d, dd), l
        assert (rec.d, rec.hull_dim, rec.c) == (dd, l, code.k - l)


_FIELDS = {q: make_quadratic_field(q) for q in (3, 4, 5)}


@st.composite
def _equivalent_full_field_codes(draw):
    """A full-field code, q in {3, 4, 5}, with its columns permuted and
    scaled by norm-1 elements: still Hermitian self-orthogonal."""
    q = draw(st.sampled_from(sorted(_FIELDS)))
    field = _FIELDS[q]
    code = full_field_rs(field, draw(st.integers(1, min(q - 1, 3)))).code()
    units = [x for x in range(1, field.order) if field.pow(x, q + 1) == 1]
    perm = draw(st.permutations(range(code.n)))
    scales = draw(st.lists(st.sampled_from(units), min_size=code.n, max_size=code.n))
    return scale(permute(code, perm), scales)


@st.composite
def _codes_with_hull(draw):
    """A random [n, k] code that is not self-orthogonal, with a nonzero hull."""
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, min(n - 1, 3)))
    entries = draw(st.lists(st.integers(0, field.order - 1), min_size=k * n, max_size=k * n))
    gen = FieldMatrix(field, np.array(entries, dtype=np.int64).reshape(k, n))
    assume(rank(gen) == k)
    code = LinearCode(field, gen, check=False)
    assume(not is_hermitian_self_orthogonal(code) and hull(code).dim > 0)
    return code


#: GF(q^2) for q with one- and two-digit coefficients (p >= 11) and up to
#: e = 10 digits per entry (q = 32); GF(37^2) is past the dense tables
_DIGEST_FIELDS = {q: make_quadratic_field(q) for q in (2, 3, 4, 8, 9, 11, 13, 16, 32, 37)}


@st.composite
def _digest_codes(draw):
    field = _DIGEST_FIELDS[draw(st.sampled_from(sorted(_DIGEST_FIELDS)))]
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["zero", "full", "any"]))
    if shape == "zero":
        return LinearCode(field, FieldMatrix.zeros(field, 0, n))
    k = n if shape == "full" else draw(st.integers(1, n))
    element = st.one_of(st.sampled_from([0, 1, field.order - 1]), st.integers(0, field.order - 1))
    entries = draw(st.lists(element, min_size=k * n, max_size=k * n))
    return LinearCode(field, np.array(entries, dtype=np.int64).reshape(k, n), check=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_digest_codes())
def test_witness_digest_hashes_the_json_encoding(code):
    blob = json.dumps(code.to_dict(), sort_keys=True).encode()
    assert witness_digest(code) == hashlib.sha256(blob).hexdigest()[:12]


@pytest.mark.parametrize("q", sorted(_DIGEST_FIELDS))
def test_witness_digest_writes_every_element(q):
    # one row holding every element of GF(q^2): each text of both half tables
    field = _DIGEST_FIELDS[q]
    code = LinearCode(field, [list(field.elements())])
    blob = json.dumps(code.to_dict(), sort_keys=True).encode()
    assert witness_digest(code) == hashlib.sha256(blob).hexdigest()[:12]


def _sweep_codes(monkeypatch, code):
    """eaqec_sweep(code) and the dialed code behind each record, in order."""
    codes = []

    def digest(c):
        codes.append(c)
        return witness_digest(c)

    with monkeypatch.context() as m:
        m.setattr(eaqec, "witness_digest", digest)
        records = eaqec_sweep(code)
    return records, codes


def _check_sweep_matches_single_targets(monkeypatch, code, single):
    records, codes = _sweep_codes(monkeypatch, code)
    for l, (rec, out) in enumerate(zip(records, codes, strict=True)):
        assert rec == eaqec_from_dial(code, l), l
        alone = single(code, l).code
        assert out.gen.shape == alone.gen.shape
        assert out.gen.data.tobytes() == alone.gen.data.tobytes()
        assert rec.witness_digest == witness_digest(alone)
    return records


_SWEEP_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.function_scoped_fixture],
)


@_SWEEP_SETTINGS
@given(_equivalent_full_field_codes())
def test_sweep_matches_dial_hull_for_every_target(monkeypatch, code):
    records = _check_sweep_matches_single_targets(monkeypatch, code, dial_hull)
    assert len(records) == code.k + 1


@_SWEEP_SETTINGS
@given(_codes_with_hull())
def test_sweep_matches_reduce_hull_for_every_target(monkeypatch, code):
    records = _check_sweep_matches_single_targets(monkeypatch, code, reduce_hull)
    assert len(records) == hull(code).dim + 1


def _counting(monkeypatch, module, name, counts, code):
    """Count the calls of module.name whose first argument is ``code``."""
    original = getattr(module, name)

    def wrapper(c, *args, **kwargs):
        counts[name] += c is code
        return original(c, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("self_orthogonal", [True, False], ids=["dial", "reduce"])
def test_sweep_arranges_once_and_checks_its_input_once(
    monkeypatch, eliminations, gf9, self_orthogonal
):
    if self_orthogonal:
        field = make_quadratic_field(4)
        data = full_field_rs(field, 3).code().gen.data
    else:
        field = gf9
        data = [[gf9.pow(a, i) for a in range(1, 9)] for i in range(3)]
    # a generator nothing has reduced yet, so every elimination of it is the sweep's
    code = LinearCode(field, FieldMatrix(field, data), check=False)
    counts = collections.Counter()
    for module, name in (
        (dial, "arrange_p1_nonsingular"), (dial, "_hull_span"), (code_module, "gram_matrix")
    ):
        _counting(monkeypatch, module, name, counts, code)
    records = eaqec_sweep(code)
    assert len(records) == (code.k + 1 if self_orthogonal else 2)
    counts["rref"] = sum(m is code.gen for m in eliminations)
    # one Gram matrix of the input, which is its self-orthogonality check
    # and (failing it) its hull measurement, and no second one; the dialed
    # codes are measured on themselves.  The input is arranged once, and its
    # generator is row-reduced once: the arrangement (of the input itself,
    # when it is self-orthogonal) and the MDS certificate share that
    # elimination
    assert counts == collections.Counter(arrange_p1_nonsingular=1, _hull_span=1, rref=1)


def test_sweep_singleton_law_across_corpus(self_orthogonal_corpus):
    # equality holds exactly when the witness is MDS with dual distance k+1
    # under the gate; every forge output is such a witness
    from hulldial.code import dual_min_distance, is_mds

    for tag, code in self_orthogonal_corpus:
        if code.field.order**code.k > 10**5:
            continue
        assert is_mds(code), tag
        assert dual_min_distance(code) == code.k + 1, tag
        for rec in eaqec_sweep(code):
            assert rec.gate, (tag, rec)
            assert rec.mds == (2 * rec.d + rec.k_q == rec.n + rec.c + 2), (tag, rec)
            assert rec.mds, (tag, rec)


@pytest.mark.parametrize("q, k", [(7, 5), (16, 3), (32, 3)])
def test_full_field_sweep_at_paper_scale(q, k):
    # [49, 5], [256, 3] and [1024, 3]: the column-subset search and the dual
    # enumeration are both past their budgets, and the MDS certificate
    # answers the dual distance
    code = full_field_rs(make_quadratic_field(q), k).code()
    records = eaqec_sweep(code)
    n = q * q
    assert [r.params for r in records] == [(n, n - k - l, k + 1, k - l) for l in range(k + 1)]
    assert [r.hull_dim for r in records] == list(range(k + 1))
    assert all(r.witnessed and r.witness_digest and r.gate and r.mds for r in records)


def test_qecc_from_self_orthogonal(rs92, gf9):
    # the unassisted [[n, n-2k, d]] code is the sweep's l = k record, c = 0
    rec = eaqec_from_dial(rs92, rs92.k)
    assert rec.params == (9, 5, 3, 0)
    assert rec.mds
    zero = LinearCode(gf9, FieldMatrix.zeros(gf9, 0, 4))
    degenerate = eaqec_from_dial(zero, zero.k)
    assert degenerate.params == (4, 4, 1, 0)
    assert degenerate.mds
    with pytest.raises(BadTargetError):
        eaqec_from_dial(LinearCode(gf9, [[1, 0]]), 1)
    with pytest.raises(BadTargetError, match="l must be nonnegative"):
        eaqec_from_dial(rs92, -1)


def test_classified_rejects_bound_violations():
    # the same reasons, in the same words and order, as verify_claim's failures
    for params in ((9, 7, 3, 1), (0, -1, 1, 0), (4, 9, 1, 0)):
        failures = verify_claim(claim(3, *params)).failures
        with pytest.raises(VerificationFailedError) as refused:
            classified(3, *params)
        assert failures and str(refused.value) == failures[0]
    rec = claim(3, 9, 7, 3, 1)  # claim() never raises
    assert rec.mds is False


def test_table_q3_first_family():
    rows = [r for r in enumerate_table1(3) if "q2plus1" in r.families]
    # k in {1, 3} (k = q-1 = 2 excluded), h = 0..k
    expect = set()
    for k in (1, 3):
        for h in range(k + 1):
            expect.add((10, 10 - k - h, k + 1, k - h))
    assert {r.params for r in rows} == expect


def test_table_q4_skips_char2_row():
    fams = {f for r in enumerate_table1(4) for f in r.families}
    assert "q2plus1-char2" not in fams  # q = 2^2, exponent even


def test_table_q8_has_char2_row():
    rows = [r for r in enumerate_table1(8) if "q2plus1-char2" in r.families]
    assert rows
    for r in rows:
        assert r.n == 65 and r.d == 8
        assert 2 * r.d + r.k_q == r.n + r.c + 2


def test_table_q5_near_full_rows_match_hand_expansion():
    # s in {0, 1}; k in [q/2, q-s-1] -> s=0: k in {3, 4}; s=1: k = 3
    rows = [r for r in enumerate_table1(5) if "near-full" in r.families]
    expect = set()
    for s, ks in ((0, (3, 4)), (1, (3,))):
        n = 25 - s
        for k in ks:
            for h in range(k + 1):
                expect.add((n, n - k - h, k + 1, k - h))
    assert {r.params for r in rows} == expect


def test_table_singleton_equality_everywhere():
    for q in (3, 4, 5, 7, 8):
        for r in enumerate_table1(q):
            assert 2 * r.d + r.k_q == r.n + r.c + 2
            assert r.gate and r.mds and not r.witnessed


def test_table_dedup_merges_families():
    rows = enumerate_table1(3)
    keyed = {}
    for r in rows:
        assert r.params not in keyed, "duplicate parameter tuple emitted"
        keyed[r.params] = r
    # the generic family overlaps the named ones
    assert any(len(r.families) > 1 for r in rows)


def test_table_row_counts_golden():
    golden = json.loads(GOLDEN.read_text())
    for q_str, count in golden.items():
        assert len(enumerate_table1(int(q_str))) == count, f"q = {q_str}"


def test_named_family_tables_match_frozen_digests():
    # every prime power 3 <= q <= 49: reaches two-t-subgroup at t = 3 (q = 23,
    # 47) and q2plus1-char2 at q = 32, which no byte-level golden covers
    golden = json.loads(GOLDEN_NAMED.read_text())
    assert [int(q) for q in golden] == [q for q in range(3, 50) if is_prime_power(q)]
    for q_str, want in golden.items():
        rows = enumerate_table1(int(q_str), include_generic=False)
        text = "".join(tsv_row(r) + "\n" for r in rows)
        got = {"rows": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        assert got == want, f"q = {q_str}"


def test_table_limits_and_errors():
    assert len(enumerate_table1(3, max_rows=7)) == 7
    no_generic = enumerate_table1(3, include_generic=False)
    assert all("generic" not in r.families for r in no_generic)
    with pytest.raises(BadFieldError):
        enumerate_table1(2)
    with pytest.raises(BadFieldError):
        enumerate_table1(6)
    with pytest.raises(CapExceededError):
        enumerate_table1(10**18 + 3)  # rejected before factorizing q
    assert enumerate_table1(3, max_rows=0) == []
    with pytest.raises(BadTargetError):
        enumerate_table1(3, max_rows=-1)  # a slice would silently drop the last row


def test_table_truncation_keeps_tags_merged_later():
    full = enumerate_table1(5)
    for max_rows in (1, 17, len(full) - 1, len(full) + 5):
        assert enumerate_table1(5, max_rows=max_rows) == full[:max_rows]
    # named-family rows come first; the generic family enumerated after
    # them still adds its tag to rows kept by a short limit
    first = enumerate_table1(5, max_rows=3)
    assert any("generic" in r.families and len(r.families) > 1 for r in first)


TABLE_QS = (3, 4, 5, 7, 8, 9, 11, 13)


@st.composite
def _table_limits(draw):
    q = draw(st.sampled_from(TABLE_QS))
    include_generic = draw(st.booleans())
    total = len(brute_table1_tags(q, include_generic))
    max_rows = draw(st.one_of(st.none(), st.integers(0, total + 5)))
    return q, {"max_rows": max_rows, "include_generic": include_generic}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_table_limits())
def test_table_matches_full_walk_oracle(case):
    q, limits = case
    assert enumerate_table1(q, **limits) == brute_table1(q, **limits)


RUN_QS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 27, 31, 32)


@functools.cache
def _named_rows(q: int) -> int:
    return sum(rows for *_, rows in table_blocks_by_pair(q, None, False))


def _pair_blocks(q: int, max_rows, include_generic: bool):
    """The table walk's runs, expanded to (n, k, tags, rows) blocks, or the error it raises."""
    try:
        runs = eaqec._table_blocks(q, max_rows, include_generic)
    except CapExceededError as e:
        return str(e)
    return [
        (n, k, tags, last if k == hi else k + 1)
        for n, lo, hi, tags, last in runs
        for k in range(lo, hi + 1)
    ]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_runs_match_the_pair_walk_oracle(data):
    # the walk by runs of consecutive k, expanded to one block per (n, k)
    # pair, is the pair-by-pair walk, cut and capped at the same row
    q = data.draw(st.sampled_from(RUN_QS))
    include_generic = data.draw(st.booleans())
    named = _named_rows(q)
    max_rows = data.draw(
        st.none() | st.just(0) | st.integers(0, 2000) | st.integers(max(0, named - 10), named + 10)
    )
    try:
        want = table_blocks_by_pair(q, max_rows, include_generic)
    except CapExceededError as e:
        want = str(e)
    assert _pair_blocks(q, max_rows, include_generic) == want


def _rows_before_last(pairs) -> int:
    """Rows of every pair but the last drawn: all of them were needed."""
    return sum(k + 1 for _, k in pairs[:-1])


def test_table_draws_generic_rows_only_as_needed(request):
    # at q = 32 every named row has n >= 403, so the first generic rows are new
    named = len(enumerate_table1(32, include_generic=False))
    drawn = request.getfixturevalue("table_draws")
    rows = enumerate_table1(32, max_rows=10)
    assert len(rows) == 10 and "generic" not in drawn
    rows = enumerate_table1(32, max_rows=named + 10)
    assert [r.families for r in rows[named:]] == [("generic",)] * 10
    assert _rows_before_last(drawn["generic"]) < 10, "walked generic rows past max_rows"


def test_table_draws_named_rows_only_as_needed(table_draws):
    assert len(enumerate_table1(1009, max_rows=5)) == 5
    assert set(table_draws) == {"q2plus1"} and _rows_before_last(table_draws["q2plus1"]) < 5
    # a limit ending inside coset-trim, the third family at q = 31
    table_draws.clear()
    first = sum(k + 1 for _, k in family_pairs(eaqec._q2plus1(31)))
    rows = enumerate_table1(31, max_rows=first + 10, include_generic=False)
    assert [r.families[0] for r in rows[first:]] == ["coset-trim"] * 10
    assert set(table_draws) == {"q2plus1", "coset-trim"}
    assert _rows_before_last(table_draws["coset-trim"]) < 10, "walked named rows past max_rows"


MEMBERSHIP_QS = (3, 4, 5, 7, 8, 9, 11, 13, 23, 27, 31, 32)


@functools.cache
def _family_pairs(q: int) -> dict[str, tuple[list, set]]:
    """Each family's pairs at q, generic included: the walk and its set."""
    return {
        family.name: (pairs := list(family_pairs(family)), set(pairs))
        for family in eaqec._families(q, include_generic=True)
    }


def test_family_membership_is_exact_around_every_length():
    names = set()
    for q in MEMBERSHIP_QS:
        for family in eaqec._families(q, include_generic=True):
            pairs, members = _family_pairs(q)[family.name]
            names.update([family.name] if pairs else [])
            lengths = {n + dn for n, _ in pairs for dn in (-1, 0, 1)} | {q * q + 1, q * q + 2}
            top = max((k for _, k in pairs), default=q) + 2
            for n, k in itertools.product(lengths, range(-1, top + 1)):
                assert family.has(n, k) == ((n, k) in members), (q, family.name, n, k)
    # every family occurs at some q drawn here
    assert names == {family.name for family in eaqec._families(3, include_generic=True)}


def test_table_tags_are_every_family_holding_the_row():
    for q in MEMBERSHIP_QS:
        families = eaqec._families(q, include_generic=True)
        for r in enumerate_table1(q, include_generic=False):
            k = r.d - 1
            assert r.params == (r.n, r.n - 2 * k + r.c, k + 1, r.c) and 0 <= r.c <= k
            assert r.families + ("generic",) == tuple(
                family.name for family in families if family.has(r.n, k)
            ), (q, r.params)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_family_membership_matches_generator(data):
    """Each closed-form test is exact on pairs of every family and their near misses."""
    q = data.draw(st.sampled_from(MEMBERSHIP_QS))
    walks = _family_pairs(q)
    source = data.draw(st.sampled_from([pairs for pairs, _ in walks.values() if pairs]))
    if data.draw(st.booleans()):
        n, k = data.draw(st.sampled_from(source))
    else:
        n, k = data.draw(st.integers(-2, q * q + 3)), data.draw(st.integers(-2, q + 3))
    for family in eaqec._families(q, include_generic=True):
        _, members = walks[family.name]
        for dn, dk in itertools.product((-1, 0, 1), repeat=2):
            pair = (n + dn, k + dk)
            assert family.has(*pair) == (pair in members), (q, family.name, pair)


def test_params_record_is_an_immutable_value():
    rec = claim(5, 26, 20, 4, 1, families=("q2plus1", "generic"))
    with pytest.raises(AttributeError):
        rec.d = 5
    same = claim(5, 26, 20, 4, 1, families=("q2plus1", "generic"))
    assert rec == same and hash(rec) == hash(same) and len({rec, same}) == 1
    assert rec != claim(5, 26, 20, 4, 1)
    assert list(rec.to_dict()) == [
        "q", "n", "k_q", "d", "c", "gate", "mds", "families", "witnessed",
        "witness_digest", "hull_dim",
    ]
    assert rec.params == (26, 20, 4, 1) and rec.to_dict()["families"] == ["q2plus1", "generic"]


def test_verify_claim_examples(rs92):
    witness = dial_hull(rs92, 1).code
    ok = verify_claim(claim(3, 9, 6, 3, 1), witness)
    assert ok.passed and ok.gate_applicable
    bad = verify_claim(claim(3, 9, 7, 3, 1))
    assert not bad.passed
    assert any("singleton" in f for f in bad.failures)
    gate_off = verify_claim(claim(3, 9, 2, 8, 7), dial_hull(rs92, 0).code)
    assert not gate_off.gate_applicable
    assert gate_off.passed  # witness reproduces the first-form record
    assert "witness" in gate_off.checks


@pytest.mark.parametrize("q, k, params", [(7, 5, (49, 43, 6, 4)), (32, 3, (1024, 1020, 4, 2))])
def test_verify_claim_witnesses_full_field_codes_past_the_cap(q, k, params):
    # q^(2k) messages are past the enumeration cap; the certificate answers both distances
    witness = dial_hull(full_field_rs(make_quadratic_field(q), k).code(), 1).code
    assert (q * q) ** k > code_module.DEFAULT_ENUM_CAP
    verdict = verify_claim(claim(q, *params), witness)
    assert verdict.passed, verdict.failures


def test_verify_claim_wrong_witness(rs92):
    verdict = verify_claim(claim(3, 9, 6, 3, 1), rs92)  # hull dim 2, not 1
    assert not verdict.passed
    # the [16, 1] full-field code over GF(16) derives the claimed
    # [[16, 14, 2, 0]], but as a q = 4 code
    gf16_witness = full_field_rs(make_quadratic_field(4), 1).code()
    verdict = verify_claim(claim(3, 16, 14, 2, 0), gf16_witness)
    assert verdict.failures == ("witness base field GF(4) != GF(3)",)
    # the dual of an [n, n] witness is the zero code, which has no distance
    full = LinearCode(rs92.field, np.eye(3, dtype=np.int64))
    verdict = verify_claim(claim(3, 3, 3, 1, 0), full)
    assert verdict.failures == (
        "witness check failed: the dual of the full space is the zero code",
    )


def test_verify_claim_refuses_a_bad_cap_before_the_witness(monkeypatch, rs92):
    # a bad cap is the caller's fault: it raises, not a failed witness check
    monkeypatch.setattr(eaqec, "eaqec_from_code", lambda code, cap=None: 1 / 0)
    with pytest.raises(CapExceededError, match="exceeds the int64 limit"):
        verify_claim(claim(3, 9, 6, 3, 1), rs92, cap=2**64)
    with pytest.raises(ValueError, match="enumeration cap -1 is negative"):
        verify_claim(claim(3, 9, 6, 3, 1), rs92, cap=-1)


def test_verify_claim_propagates_programming_errors(monkeypatch, rs92):
    def broken(code, cap=None):
        raise TypeError("not a measurement failure")

    monkeypatch.setattr(eaqec, "eaqec_from_code", broken)
    with pytest.raises(TypeError):
        verify_claim(claim(3, 9, 6, 3, 1), rs92)


def test_tsv_shape(rs92):
    lines = [TSV_HEADER] + [tsv_row(r) for r in eaqec_sweep(rs92)]
    assert lines[0].split("\t") == ["q", "n", "k_q", "d", "c", "family", "witnessed", "mds", "gate"]
    assert len(lines) == 4
    assert all(len(line.split("\t")) == 9 for line in lines)


def test_params_serialization(rs92):
    rec = eaqec_from_dial(rs92, 0)
    d = rec.to_dict()
    assert d["q"] == 3 and d["witnessed"] is True
    assert isinstance(d["witness_digest"], str) and len(d["witness_digest"]) == 12
