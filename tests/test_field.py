import json
from pathlib import Path

import numpy as np
import pytest

from hulldial import field as field_module
from hulldial import grs as grs_module
from hulldial.code import LinearCode, scale
from hulldial.errors import (
    CapExceededError,
    NoSuchElementError,
    NotPrimeError,
    OddExtensionError,
)
from hulldial.field import Field, digit_columns, make_quadratic_field, smallest_irreducible
from hulldial.grs import GrsSpec, MultiplierProblem, solve_multipliers, trace_nonzero_eval_set
from hulldial.matrix import FieldMatrix, permute_columns
from oracles import (
    _poly_digits,
    _poly_element,
    poly_add,
    poly_inv,
    poly_mul,
    poly_neg,
    poly_pow,
    subfield_coordinates,
    trace_nonzero_points,
)

OMEGA = 3  # x in GF(9) with the canonical modulus x^2 + 1


def test_canonical_modulus_gf9():
    # x^2 reducible, x^2 + x and x^2 + 2x have root 0, so x^2 + 1 wins
    assert Field(3, 2).modulus == (1, 0, 1)


def test_prime_field_modulus_is_x():
    assert Field(2, 1).modulus == (0, 1)
    assert Field(5, 1).modulus == (0, 1)


def test_gf25_modulus_has_no_roots():
    f = Field(5, 2)
    a0, a1, _ = f.modulus
    for x in range(5):
        assert (a0 + a1 * x + x * x) % 5 != 0


def test_default_modulus_deterministic():
    assert Field(3, 2).modulus == Field(3, 2).modulus
    assert Field(2, 6).modulus == Field(2, 6).modulus


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        Field(6, 1)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        Field(2, 21)
    # checked before trial division of p, factorization of q, or forming p**e
    with pytest.raises(CapExceededError):
        Field(10**18 + 3, 1)
    with pytest.raises(CapExceededError):
        Field(2, 10**8)
    with pytest.raises(CapExceededError):
        make_quadratic_field(10**18 + 3)
    # a degree below 1 is refused before p is factorized, whatever p is
    for p in (2**61 - 1, 2 * (2**61 - 1)):
        with pytest.raises(ValueError, match="extension degree"):
            Field(p, 0)
    # the documented cap itself is constructible
    assert Field(2, 20).order == 2**20


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        Field(3, 2, (0, 0, 1))  # x^2 = x * x
    # not monic, and of the wrong degree
    for modulus in ((1, 0, 2), (1, 1), (2, 0, 0, 1)):
        with pytest.raises(ValueError, match="modulus must be monic of degree e"):
            Field(3, 2, modulus)


@pytest.mark.parametrize(
    "p, modulus",
    [
        # (x - 2)(x - 3): X^25 = X holds, only the unit check for r = 2 fails
        (5, (1, 0, 1)),
        # (x + 1)(x^2 + x + 1)(x^3 + x + 1): X^64 = X holds, the unit checks
        # for r = 2 and r = 3 both fail
        (2, (1, 1, 0, 0, 1, 0, 1)),
        # (x^2 + x + 1)(x^3 + x + 1): the unit check for r = 5 passes, only
        # X^32 = X fails
        (2, (1, 0, 0, 0, 1, 1)),
        # (x^2 + 1)^2, not squarefree
        (3, (1, 0, 2, 0, 1)),
    ],
    ids=["gf5-x2+1", "gf2-three-factors", "gf2-two-factors", "gf3-square"],
)
def test_reducible_moduli_each_defeating_a_partial_test_are_refused(p, modulus):
    with pytest.raises(ValueError, match="is reducible"):
        Field(p, len(modulus) - 1, modulus)


#: Modulus and primitive element of every field GF(p^e) with p < 1100 prime
#: and p^e <= 2^20, and of the five largest primes below 2^20 at e = 1,
#: recorded while the set-up still ran on coefficient-tuple polynomials.
GOLDEN_FIELDS = Path(__file__).parent / "golden" / "fields.json"


def test_every_field_set_up_matches_the_golden():
    golden = json.loads(GOLDEN_FIELDS.read_text())
    assert len(golden) == 431
    built = {}
    for key in golden:
        f = Field(*map(int, key.split(",")))
        built[key] = {"modulus": list(f.modulus), "primitive": f.primitive_element()}
    assert built == golden


def test_found_modulus_is_not_tested_again(monkeypatch):
    # the search's own Rabin tests are the only ones; a passed modulus is still checked
    calls = []
    rabin = field_module._is_irreducible
    counted = lambda f, p: calls.append(f) or rabin(f, p)  # noqa: E731
    monkeypatch.setattr(field_module, "_is_irreducible", counted)
    modulus = smallest_irreducible(5, 2)
    searched = len(calls)
    assert Field(5, 2).modulus == modulus and len(calls) == 2 * searched
    assert Field(5, 2, modulus).modulus == modulus and len(calls) == 2 * searched + 1


def test_gf9_arithmetic_examples():
    f = Field(3, 2)
    w1 = 4  # omega + 1
    assert f.mul_array(w1, w1) == 6 == poly_mul(f, w1, w1)  # (w+1)^2 = 2w
    assert f.inv(2) == 2  # 2*2 = 4 = 1 mod 3
    els = np.arange(f.order)
    assert not f.add_array(els, f.neg_array(els)).any()


def test_frobenius_examples():
    f = Field(3, 2)
    assert f.frobenius_array(OMEGA, 1) == 6  # w^3 = 2w
    els = np.arange(f.order)
    assert f.frobenius_array(els, f.e).tolist() == f.frobenius_array(els, 0).tolist() == list(els)


def test_frobenius_is_automorphism_gf16():
    f = make_quadratic_field(4)
    a, b = np.arange(f.order)[:, None], np.arange(f.order)
    for l in range(f.e):
        images = f.frobenius_array(b, l)
        assert images.tolist() == [poly_pow(f, x, f.p**l) for x in f.elements()]
        assert sorted(images) == list(f.elements())
        for op in (f.add_array, f.mul_array):
            assert np.array_equal(f.frobenius_array(op(a, b), l), op(images[a], images[b]))


def test_conj_examples():
    f = Field(3, 2)
    assert f.conj_array(OMEGA) == 6  # 2w
    els = np.arange(f.order)
    assert f.conj_array(els).tolist() == [poly_pow(f, x, 3) for x in f.elements()]
    assert f.conj_array(f.conj_array(els)).tolist() == list(els)
    assert f.conj_array(np.arange(3)).tolist() == [0, 1, 2]  # subfield fixed pointwise


def test_conj_rejects_odd_extension():
    f = Field(3, 1)
    with pytest.raises(OddExtensionError):
        f.conj_array(1)
    with pytest.raises(OddExtensionError):
        f.norm_preimage(1)
    with pytest.raises(OddExtensionError, match="conjugation needs an even extension degree"):
        Field(2, 3).conj_array(np.arange(8))


def test_norm_examples():
    f = Field(3, 2)
    norm = lambda a: f.pow_array(a, 4)  # noqa: E731  a^(q+1)
    assert norm(4) == 2 == poly_pow(f, 4, 4)  # (w+1)^4 = 2
    assert norm(1) == 1
    assert norm(OMEGA) == 1  # w^4 = (w^2)^2 = 1
    assert norm(f.mul_array(4, 5)) == f.mul_array(norm(4), norm(5))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_norm_fibers_have_size_q_plus_one(q):
    f = make_quadratic_field(q)
    norms = [poly_pow(f, a, q + 1) for a in range(1, f.order)]
    subfield_units = [a for a in range(1, f.order) if poly_pow(f, a, q) == a]
    assert f.pow_array(np.arange(1, f.order), q + 1).tolist() == norms
    assert sorted(set(norms)) == subfield_units == f.subfield_elements[1:].tolist()
    assert all(norms.count(w) == q + 1 for w in subfield_units)


def test_find_norm_non_one_gf9():
    f = Field(3, 2)
    picks = f.find_power_non_one(3 + 1, 1)
    assert picks == (4,)  # omega + 1 is the first qualifying element
    assert poly_pow(f, picks[0], 4) != 1


def test_find_norm_non_one_gf4_fails():
    f = Field(2, 2)
    with pytest.raises(NoSuchElementError):
        f.find_power_non_one(2 + 1, 1)


def test_find_norm_non_one_gf25_count():
    f = make_quadratic_field(5)
    picks = f.find_power_non_one(5 + 1, 3)
    assert len(picks) == 3
    assert all(poly_pow(f, x, 6) != 1 for x in picks)


def test_find_norm_non_one_cycles_when_exhausted():
    f = Field(3, 2)
    qualifiers = [a for a in range(1, 9) if poly_pow(f, a, 4) != 1]
    picks = f.find_power_non_one(3 + 1, len(qualifiers) + 2)
    assert picks[: len(qualifiers)] == tuple(qualifiers)
    assert picks[len(qualifiers)] == qualifiers[0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_norm_preimage_round_trip(q):
    # the lift is the first v in canonical order with v^(q+1) = w, a rule
    # the golden construct outputs depend on; the scan uses the oracle's pow
    f = make_quadratic_field(q)
    first: dict[int, int] = {}
    for v in range(1, f.order):
        first.setdefault(poly_pow(f, v, q + 1), v)
    assert len(first) == q - 1
    for w in range(1, f.order):
        if poly_pow(f, w, q) != w:
            continue
        v = f.norm_preimage(w)
        assert poly_pow(f, v, q + 1) == w
        assert v == first[w]
    norms = sorted(first)
    assert f.norm_preimage_array(np.array(norms)).tolist() == [first[w] for w in norms]


def test_norm_preimage_rejects_bad_input():
    f = Field(3, 2)
    for w in (0, OMEGA):  # OMEGA is not in the subfield
        with pytest.raises(ValueError, match=rf"{w} is not a unit of the subfield GF\(3\)"):
            f.norm_preimage(w)
    assert f.norm_preimage(1) == 1


def test_enumeration_order():
    assert list(Field(3, 1).elements()) == [0, 1, 2]
    gf4 = Field(2, 2)
    assert list(gf4.elements()) == [0, 1, 2, 3]
    assert _poly_digits(gf4, 2) == [0, 1]  # alpha
    assert _poly_digits(gf4, 3) == [1, 1]  # alpha + 1
    assert len(list(Field(3, 2).elements())) == 9


def test_element_coeffs_round_trip():
    # the library's digits of every element, as code files hold them
    f = Field(5, 2)
    digits = digit_columns(np.arange(f.order), f.p, f.e).tolist()
    for a in f.elements():
        assert digits[a] == _poly_digits(f, a) and _poly_element(f, digits[a]) == a


def test_field_axioms_exhaustive_gf81():
    # pairs and triples via vectorised identities
    f = Field(3, 4)
    assert f.order == 81
    a = np.arange(81).reshape(81, 1, 1)
    b = np.arange(81).reshape(1, 81, 1)
    c = np.arange(81).reshape(1, 1, 81)
    add, mul = f.add_array, f.mul_array
    assert (add(a, b) == add(b, a)).all()
    assert (mul(a, b) == mul(b, a)).all()
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    flat = np.arange(81)
    assert (add(flat, f.neg_array(flat)) == 0).all()
    units = np.arange(1, 81)
    assert (mul(units, f.inv_array(units)) == 1).all()


def test_axioms_random_above_table_regime():
    # property-style spot check on a field above the dense-table limit
    f = Field(2, 12)  # 4096 elements, above the exhaustive regime
    a, b, c = np.random.default_rng(5).integers(0, f.order, (3, 200))
    add, mul = f.add_array, f.mul_array
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    for x in a[a != 0].tolist():
        assert f.mul_array(x, f.inv(x)) == 1


@pytest.mark.parametrize("p, e, samples", [
    (3, 2, None), (2, 4, None),  # every pair
    (2, 10, 400), (37, 2, 400), (2, 12, 400), (101, 2, 400),  # seeded, zeros included
])
def test_arithmetic_matches_polynomial_oracle(p, e, samples):
    # the tables must reproduce the digit encoding and the canonical
    # modulus, which field axioms alone do not pin down
    f = Field(p, e)
    q = f.subfield_order
    if samples is None:
        a, b = (g.ravel() for g in np.meshgrid(np.arange(f.order), np.arange(f.order)))
    else:
        rng = np.random.default_rng(f.order)
        a, b = rng.integers(0, f.order, samples), rng.integers(0, f.order, samples)
        a[:20], b[10:30] = 0, 0
    pairs = list(zip(a.tolist(), b.tolist()))
    for array, oracle in ((f.add_array, poly_add), (f.mul_array, poly_mul)):
        assert array(a, b).tolist() == [oracle(f, x, y) for x, y in pairs]
    els = sorted(set(a[:100].tolist()) | {0, 1, f.order - 1})
    units = [x for x in els if x]
    assert f.neg_array(np.array(els)).tolist() == [poly_neg(f, x) for x in els]
    assert f.inv_array(np.array(units)).tolist() == [poly_inv(f, x) for x in units]
    assert [f.inv(x) for x in units] == [poly_inv(f, x) for x in units]
    assert f.conj_array(np.array(els)).tolist() == [poly_pow(f, x, q) for x in els]
    for n in (0, 1, 2, q + 1, f.order - 2, f.order - 1, f.order, 2**62 + 3, 10**20 + 3):
        want = [poly_pow(f, x, n) for x in els[:40]]
        assert [f.pow(x, n) for x in els[:40]] == want
        if n < 2**63:
            assert f.pow_array(np.array(els[:40]), n).tolist() == want
    for n in (-1, -5):
        assert [f.pow(x, n) for x in units[:40]] == [poly_pow(f, x, n) for x in units[:40]]


@pytest.mark.parametrize(
    "p, e", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3)]
)
def test_primitive_element_is_smallest_generator(p, e):
    f = Field(p, e)

    def order(g):
        x, n = g, 1
        while x != 1:
            x, n = poly_mul(f, x, g), n + 1
        return n

    assert f.primitive_element() == next(g for g in range(1, f.order) if order(g) == f.order - 1)


def test_subfield_coordinates_recompose():
    for q in (3, 4, 5):
        f = make_quadratic_field(q)
        beta = f.extension_generator()
        for z in f.elements():
            z0, z1 = subfield_coordinates(f, z)
            assert poly_add(f, z0, poly_mul(f, z1, beta)) == z


def test_smallest_irreducible_matches_root_check_gf5():
    # independent oracle: first monic quadratic over GF(5) without roots,
    # scanning constant-term-first lexicographic order
    found = None
    for a0 in range(5):
        for a1 in range(5):
            if all((a0 + a1 * x + x * x) % 5 != 0 for x in range(5)):
                found = (a0, a1, 1)
                break
        if found:
            break
    assert smallest_irreducible(5, 2) == found


def test_subfield_elements_are_found_once(gf9):
    assert gf9.subfield_elements.tolist() == [0, 1, 2]
    assert gf9.subfield_elements is gf9.subfield_elements
    assert not gf9.subfield_elements.flags.writeable


@pytest.mark.parametrize(
    "p,e", [(3, 2), (3, 6), (3, 12), (5, 3), (5, 4), (7, 2), (37, 2), (1021, 2)]
)
def test_lane_table_puts_each_digit_in_its_own_lane(p, e):
    # the per-digit divmod loop the lane table was once packed with
    field = Field(p, e)
    lanes, width, _ = field._lanes
    values, packed = np.arange(field.order, dtype=np.int64), 0
    for j in range(e):
        values, digit = np.divmod(values, p)
        packed = packed + (digit << (width * j))
    assert np.array_equal(lanes, np.take(packed, field._tables["exp"]))


#: Each entry point that reads element codes from its caller: a valid
#: sequence, the reader's bound, and the call, returning what it read.
#: GF(9) throughout; its modulus digits lie below p = 3.
_READERS = {
    "FieldMatrix": ((1, 2, 8), 9, lambda f, seq: tuple(FieldMatrix(f, [seq]).tolist()[0])),
    "LinearCode": ((1, 2, 8), 9, lambda f, seq: tuple(LinearCode(f, [seq]).gen.tolist()[0])),
    "GrsSpec points": ((0, 1, 2, 8), 9, lambda f, seq: GrsSpec(f, seq, (1,) * 4, 2).eval_points),
    "GrsSpec multipliers": (
        (1, 2, 5, 8), 9, lambda f, seq: GrsSpec(f, (0, 1, 2, 3), seq, 2).multipliers
    ),
    # k = 2 is solvable on (0, ..., 7); at k = 3 the points (0, ..., 6, -1)
    # were once solved as if -1 were 8 and reported no-solution
    "solve_multipliers": (
        tuple(range(8)), 9,
        lambda f, seq: solve_multipliers(MultiplierProblem(f, seq, 2)).grs.eval_points,
    ),
    "scale": (
        (1, 2, 8), 9, lambda f, seq: tuple(scale(LinearCode(f, [[1, 1, 1]]), seq).gen.tolist()[0])
    ),
    "permute_columns": (
        (2, 0, 1), 3,
        lambda f, seq: tuple(permute_columns(FieldMatrix(f, [[0, 1, 2]]), seq).tolist()[0]),
    ),
    "trace_nonzero_eval_set": ((5, 1), 9, trace_nonzero_eval_set),
    "Field modulus": ((1, 0, 1), 3, lambda f, seq: Field(3, 2, seq).modulus),
}


def _with_first(seq, bad, bound):
    """seq with its first entry replaced by the bad value named."""
    if bad == "2**63 as uint64":
        return np.array((2**63, *seq[1:]), dtype=np.uint64)
    return (bound if bad == "bound" else bad, *seq[1:])


@pytest.mark.parametrize("bad", [-1, "bound", "2**63 as uint64", 1.5])
@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_refuses_bad_element_codes_before_any_work(monkeypatch, gf9, reader, bad):
    valid, bound, call = _READERS[reader]
    expected = trace_nonzero_points(gf9, valid) if call is trace_nonzero_eval_set else valid
    assert call(gf9, valid) == expected
    # no arithmetic, no orthogonality system and no irreducibility test may
    # start before the codes are refused
    def work(*args):
        raise AssertionError(f"{reader} started work on a bad code")

    for name in ("add_array", "mul_array", "pow_array"):
        monkeypatch.setattr(Field, name, work)
    monkeypatch.setattr(grs_module, "_orthogonality_system", work)
    monkeypatch.setattr(field_module, "_is_irreducible", work)
    with pytest.raises(ValueError, match=rf"must be int64 integers|outside \[0, {bound}\)"):
        call(gf9, _with_first(valid, bad, bound))


def test_scalar_arithmetic_refuses_non_integers(gf9):
    for call in (lambda: gf9.inv(1.5), lambda: gf9.norm_preimage(1.0), lambda: gf9.pow(9, 2)):
        with pytest.raises(ValueError, match=r"is not an element of GF\(3\^2\)"):
            call()
    # integers of any kind index the tables as the ints they stand for
    assert gf9.inv(True) == 1 and gf9.pow(np.uint8(4), np.int64(2)) == 6
