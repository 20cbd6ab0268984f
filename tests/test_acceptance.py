"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance
(exact integer equality throughout; no tolerances are deferred).  Every
test prints one line:  criterion N (<name>): PASS/FAIL.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

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
    hermitian_dual,
    hull,
    is_hermitian_self_orthogonal,
    min_distance,
    scale,
)
from hulldial.dial import dial_hull
from hulldial.eaqec import eaqec_from_dial, eaqec_sweep, enumerate_table1
from hulldial.grs import (
    MultiplierProblem,
    construct_family,
    full_field_rs,
    solve_multipliers,
)
from oracles import brute_hull_dim, poly_neg, same_row_space, weight_vector_inverse_conj

GOLDEN = Path(__file__).parent / "golden" / "table1_counts.json"


@contextmanager
def criterion(num: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"criterion {num} ({name}): PASS [{time.time() - start:.1f}s]")


def test_criterion_1_dial_exactness():
    with criterion(1, "hull dialing is exact and parameter-preserving"):
        for q in (3, 4, 5):
            field = make_quadratic_field(q)
            for k in range(1, q):
                code = full_field_rs(field, k).code()
                n = code.n
                d_ref = min_distance(code)
                assert d_ref == n - k + 1
                for h in range(0, k + 1):
                    res = dial_hull(code, h)
                    assert res.achieved_h == h, (q, k, h)
                    assert hull(res.code, "hermitian").dim == h
                    assert (res.code.n, res.code.k) == (n, k)
                    if field.order**k <= 10**7:
                        assert min_distance(res.code) == d_ref, (q, k, h)


def test_criterion_2_standard_form_gram(self_orthogonal_corpus):
    with criterion(2, "standard-form P satisfies P conj(P)^T = -I exactly"):
        for tag, code in self_orthogonal_corpus:
            field = code.field
            sf, _ = standard_form(code.gen)
            P = FieldMatrix(field, sf.data[:, code.k :])
            gram = matmul(P, conj_transpose(P))
            neg_eye = poly_neg(field, 1) * np.eye(code.k, dtype=np.int64)
            assert np.array_equal(gram.data, neg_eye), tag
            assert rank(P) == code.k, tag


def test_criterion_3_scaling_dual_identity():
    with criterion(3, "dual of scaled code equals inverse-conjugate-scaled dual"):
        rng = np.random.default_rng(20240803)
        pairs = 0
        for field in (Field(3, 2), make_quadratic_field(4)):
            while pairs < 100 * (1 if field.order == 9 else 2):
                n = int(rng.integers(3, 9))
                k = int(rng.integers(1, min(n, 4)))
                data = rng.integers(0, field.order, size=(k, n))
                m = FieldMatrix(field, data)
                if rank(m) != k:
                    continue
                code = LinearCode(field, m, check=False)
                v = tuple(int(x) for x in rng.integers(1, field.order, n))
                lhs = hermitian_dual(scale(code, v))
                rhs = scale(hermitian_dual(code), weight_vector_inverse_conj(field, v))
                assert same_row_space(lhs.gen, rhs.gen), (field.order, n, k, v)
                pairs += 1
        assert pairs == 200


def test_criterion_4_mds_eaqec_reproduction():
    with criterion(4, "dialed full-field families reproduce the MDS records"):
        gf9 = Field(3, 2)
        rs92 = full_field_rs(gf9, 2).code()
        sweep = eaqec_sweep(rs92)
        assert [r.params for r in sweep] == [(9, 7, 3, 2), (9, 6, 3, 1), (9, 5, 3, 0)]
        for r in sweep:
            assert 2 * r.d + r.k_q == r.n + r.c + 2
            assert 2 * r.d <= r.n + 2
            assert r.mds and r.witnessed
        for q in (4, 5):
            field = make_quadratic_field(q)
            for k in range(1, q):
                code = full_field_rs(field, k).code()
                sweep = eaqec_sweep(code)
                want = [(q * q, q * q - k - l, k + 1, k - l) for l in range(k + 1)]
                assert [r.params for r in sweep] == want, (q, k)
                assert all(r.mds and r.witnessed for r in sweep), (q, k)


def test_criterion_5_table_consistency():
    with criterion(5, "table families are Singleton-exact with frozen counts"):
        golden = json.loads(GOLDEN.read_text())
        for q in (3, 4, 5, 7, 8):
            records = enumerate_table1(q)
            for r in records:
                assert 2 * r.d + r.k_q == r.n + r.c + 2, r
                assert r.gate, r
            assert len(records) == golden[str(q)], (q, len(records))
        q8_families = {f for r in enumerate_table1(8) for f in r.families}
        assert "q2plus1-char2" in q8_families
        # full witness construction for all table families is out of reach at
        # desk scale: unwitnessed rows are formula-checked only, by design
        assert all(not r.witnessed for r in enumerate_table1(3))


def test_criterion_6_solver_soundness():
    with criterion(6, "multiplier solver outputs verify; known instances found"):
        gf9 = Field(3, 2)
        # hand-verifiable instances, default seed, deterministic
        res81 = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
        assert res81.found
        c81 = res81.grs.code()
        assert (c81.n, c81.k, min_distance(c81)) == (8, 1, 8)
        res101 = solve_multipliers(MultiplierProblem(gf9, tuple(range(9)), 1, extended=True))
        assert res101.found
        c101 = res101.grs.code()
        assert (c101.n, c101.k, min_distance(c101)) == (10, 1, 10)
        again = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
        assert again.grs == res81.grs

        runs = []
        for q in (3, 4, 5):
            field = make_quadratic_field(q)
            # subgroup family
            if q == 3:
                runs.append(construct_family(field, "subgroup", k=1, m=1))
            elif q == 4:
                runs.append(construct_family(field, "subgroup", k=1, m=5))
            else:
                runs.append(construct_family(field, "subgroup", k=2, m=3))
            # coset-union (two coprime odd subgroup indexes)
            pair = {3: (1, 1), 4: (1, 5), 5: (1, 3)}[q]
            runs.append(construct_family(field, "two-subgroup", k=1, m1=pair[0], m2=pair[1]))
            # trace-polynomial evaluation sets, g = x
            runs.append(construct_family(field, "trace-poly", k=2, g=[0, 1]))
            # extended evaluation sets
            runs.append(construct_family(field, "q2plus1", k=1))
        for res in runs:
            assert res.found, res
            code = res.grs.code()
            assert is_hermitian_self_orthogonal(code)
            if code.field.order**code.k <= 10**7:
                assert min_distance(code) == code.n - code.k + 1


def test_criterion_7_hull_oracle_equivalence(self_orthogonal_corpus):
    with criterion(7, "hull dimensions match exhaustive row-space enumeration"):
        rng = np.random.default_rng(77)
        cases = [
            (tag, code)
            for tag, code in self_orthogonal_corpus
            if code.field.order**code.k <= 10**4
        ]
        for field in (Field(3, 2), make_quadratic_field(4)):
            added = 0
            while added < 6:
                n = int(rng.integers(4, 8))
                k = int(rng.integers(1, 3))
                m = FieldMatrix(field, rng.integers(0, field.order, size=(k, n)))
                if rank(m) != k:
                    continue
                cases.append((f"random GF({field.order}) [{n},{k}]", LinearCode(field, m)))
                added += 1
        assert len(cases) >= 15
        for tag, code in cases:
            assert hull(code, "hermitian").dim == brute_hull_dim(code, "hermitian"), tag


def test_criterion_8_existence_smoke():
    with criterion(8, "witnessed MDS records with c > 0 for q=3, n in 4..10"):
        gf9 = Field(3, 2)
        outcomes = {}
        for n in range(4, 11):
            if n <= 9:
                problem = MultiplierProblem(gf9, tuple(range(n)), 1)
            else:
                problem = MultiplierProblem(gf9, tuple(range(9)), 1, extended=True)
            res = solve_multipliers(problem)
            if not res.found:
                outcomes[n] = f"{res.status} (null dim {res.null_dim}, {res.attempts} attempts)"
                continue
            rec = eaqec_from_dial(res.grs.code(), 0)
            assert rec.c > 0 and rec.mds and rec.gate and rec.witnessed, (n, rec)
            outcomes[n] = f"found {rec.params}"
        successes = sum(1 for v in outcomes.values() if v.startswith("found"))
        assert successes >= 6, outcomes
