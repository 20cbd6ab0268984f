"""Independent brute-force oracles for desk-scale cross-checks.

Everything here recomputes from definitions: full message-space
enumeration, Laplace-expansion determinants, inner products summed term
by term.  Element arithmetic is ``poly_*`` only: they compute on base-p
digit lists and read only p, e and the modulus of a Field, never the
library's tables, and are memoized, since the oracles repeat the same few
products and powers.  None of it shares code paths with the library's
arithmetic or echelon-form machinery, so agreement is meaningful.  Five
exceptions are references kept from earlier designs.
``random_phase_by_whole_chunks`` is one for the order of the multiplier
solver's seeded draws, too long to walk with scalars; it sums on element
arrays, without the library's ``matmul``.  ``arrange_p1_by_full_reduction``
is one for the columns the hull arrangement picks; it row-reduces all of P
with the library's own ``rref``.  ``dials_from_measured_hull`` is one for
the Hermitian dials of any code; it scales down the canonical basis that
``hull`` reports, with the library's own dialing core.
``reference_code_from_dict`` is one for reading a code file; it converts
each entry on its own, as a sum of its digits times powers of p.
``table_blocks_by_pair`` is one for the table walk; it takes each family's
pairs one by one, with one dedup set and a running row count.
``row_space_contains`` and ``same_row_space`` are test helpers, not
oracles: they compare row spaces by the library's own ``rank`` of the
stacked rows.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from hulldial.errors import (
    BadTargetError,
    CapExceededError,
    MalformedCodeError,
    RankDeficientError,
    ShapeMismatchError,
    VerificationFailedError,
)
from hulldial.field import Field, _check_base_field, ensure_same_field
from hulldial.code import (
    MAX_CODE_LENGTH,
    LinearCode,
    _json_value,
    hull,
    is_hermitian_self_orthogonal,
)
from hulldial.dial import _scale_down
from hulldial.matrix import FieldMatrix, matmul, rank, rref, standard_form
from hulldial.grs import _CHUNK, PREFIX_SCAN_BUDGET, RANDOM_BUDGET, MultiplierProblem
from hulldial.eaqec import TABLE_ROW_CAP, EaqecParams, _families, classified


def _poly_digits(field: Field, a: int) -> list[int]:
    return [(a // field.p**i) % field.p for i in range(field.e)]


def _poly_element(field: Field, digits) -> int:
    return sum(d * field.p**i for i, d in enumerate(digits))


@functools.cache
def poly_add(field: Field, a: int, b: int) -> int:
    """a + b, digit by digit mod p."""
    pairs = zip(_poly_digits(field, a), _poly_digits(field, b))
    return _poly_element(field, [(x + y) % field.p for x, y in pairs])


@functools.cache
def poly_neg(field: Field, a: int) -> int:
    return _poly_element(field, [-x % field.p for x in _poly_digits(field, a)])


@functools.cache
def poly_mul(field: Field, a: int, b: int) -> int:
    """Schoolbook product of the digit polynomials, reduced mod the monic modulus."""
    p, e, f = field.p, field.e, field.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_poly_digits(field, a)):
        for j, y in enumerate(_poly_digits(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * e - 2, e - 1, -1):  # x^top = -(f_0 + ... + f_(e-1) x^(e-1)) x^(top-e)
        c, prod[top] = prod[top], 0
        for i in range(e):
            prod[top - e + i] = (prod[top - e + i] - c * f[i]) % p
    return _poly_element(field, prod[:e])


@functools.cache
def poly_pow(field: Field, a: int, n: int) -> int:
    """a^n by square and multiply, 0^0 = 1; negative n inverts a first."""
    if n < 0:
        return poly_pow(field, poly_inv(field, a), -n)
    result = 1
    while n:
        if n & 1:
            result = poly_mul(field, result, a)
        a, n = poly_mul(field, a, a), n >> 1
    return result


def poly_inv(field: Field, a: int) -> int:
    assert a != 0
    return poly_pow(field, a, field.order - 2)


def poly_matmul(field: Field, a, b) -> list[list[int]]:
    """a @ b for 2-D arrays of element codes, each entry summed term by term."""
    (rows, inner), cols = a.shape, b.shape[1]
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for t in range(inner):
                term = poly_mul(field, int(a[i, t]), int(b[t, j]))
                out[i][j] = poly_add(field, out[i][j], term)
    return out


def hermitian_gram(code: LinearCode) -> list[list[int]]:
    """G conj(G)^T, each entry conjugated as a^q and summed by poly_matmul."""
    field, gen = code.field, code.gen.data
    q = field.subfield_order
    conj_t = [[poly_pow(field, int(gen[i, j]), q) for i in range(code.k)] for j in range(code.n)]
    return poly_matmul(field, gen, np.array(conj_t, dtype=np.int64))


def scalar_rref(field: Field, data) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form and pivots by scalar Gauss-Jordan, one
    column at a time: in each column the topmost nonzero entry at or below
    the current row is the pivot."""
    R = [list(map(int, row)) for row in data]
    rows, cols = len(R), len(data[0]) if len(data) else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = poly_inv(field, R[r][c])
        R[r] = [poly_mul(field, inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = poly_neg(field, R[i][c])
                R[i] = [poly_add(field, x, poly_mul(field, f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, tuple(pivots)


def codeword(field: Field, message, gen_rows) -> tuple[int, ...]:
    n = len(gen_rows[0]) if gen_rows else 0
    out = []
    for col in range(n):
        acc = 0
        for j, m in enumerate(message):
            acc = poly_add(field, acc, poly_mul(field, m, gen_rows[j][col]))
        out.append(acc)
    return tuple(out)


def all_codewords(code: LinearCode) -> list[tuple[int, ...]]:
    field = code.field
    rows = code.gen.tolist()
    words = []
    for msg in itertools.product(field.elements(), repeat=code.k):
        words.append(codeword(field, msg, rows))
    return words


def brute_min_distance(code: LinearCode) -> int:
    best = None
    for w in all_codewords(code):
        weight = sum(1 for x in w if x)
        if weight and (best is None or weight < best):
            best = weight
    assert best is not None, "zero code has no distance"
    return best


def twisted_inner(field: Field, c, x, l: int) -> int:
    """sum_i c_i * x_i^(p^l): the pairing defining the l-Galois dual."""
    acc = 0
    for ci, xi in zip(c, x):
        acc = poly_add(field, acc, poly_mul(field, ci, poly_pow(field, xi, field.p**l)))
    return acc


def in_twisted_dual(code: LinearCode, vec, l: int) -> bool:
    return all(twisted_inner(code.field, vec, row, l) == 0 for row in code.gen.tolist())


def brute_hull_dim(code: LinearCode, kind: str = "hermitian", l: int | None = None) -> int:
    """Hull dimension by enumerating every codeword and testing dual membership."""
    field = code.field
    if kind == "euclidean":
        l_eff = 0
    elif kind == "hermitian":
        assert field.e % 2 == 0
        l_eff = field.e // 2
    else:
        assert l is not None
        l_eff = l
    count = sum(1 for w in all_codewords(code) if in_twisted_dual(code, w, l_eff))
    dim = round(math.log(count, field.order)) if count > 1 else 0
    assert field.order**dim == count, "hull member count is not a power of the field order"
    return dim


def weight_vector_inverse_conj(field: Field, v) -> tuple[int, ...]:
    """Entrywise v -> v^(-q); conj(inv(x)) and inv(conj(x)) agree."""
    return tuple(poly_pow(field, int(x), -field.subfield_order) for x in v)


def dual_block_generator(arranged: LinearCode, v) -> list[list[int]]:
    """The paper's block generator of the Hermitian dual of scale(arranged, v).

    ``arranged`` is Hermitian self-orthogonal with generator (I_k | P1 | P2),
    and ``v`` is all ones past its first k coordinates.  With
    D = diag(v)^(-q) the rows are

        [ D                  P1   P2         ]
        [ -conj(P2)^T @ D    0    I_(n - 2k) ]

    and rows k-h .. k-1 of the top block coincide with the scaled
    generator's rows whenever v is 1 there.
    """
    field, k, n = arranged.field, arranged.k, arranged.n
    q, rows = field.subfield_order, arranged.gen.tolist()
    assert all(row[:k] == [int(i == j) for j in range(k)] for i, row in enumerate(rows))
    assert len(v) == n and all(x == 1 for x in v[k:])
    d = weight_vector_inverse_conj(field, v[:k])
    top = [[d[i] if j == i else 0 for j in range(k)] + rows[i][k:] for i in range(k)]
    minus_d = [poly_neg(field, x) for x in d]
    bottom = [
        [poly_mul(field, poly_pow(field, rows[j][2 * k + i], q), minus_d[j]) for j in range(k)]
        + [0] * k
        + [int(i == j) for j in range(n - 2 * k)]
        for i in range(n - 2 * k)
    ]
    return top + bottom


def laplace_det(field: Field, m: list[list[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = poly_mul(field, m[0][j], laplace_det(field, minor))
        total = poly_add(field, total, term if j % 2 == 0 else poly_neg(field, term))
    return total


def minor_rank(field: Field, data) -> int:
    """Largest r admitting a nonzero r x r minor (exhaustive search)."""
    rows = [list(map(int, row)) for row in data]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for r in range(min(nr, nc), 0, -1):
        for ri in itertools.combinations(range(nr), r):
            for ci in itertools.combinations(range(nc), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if laplace_det(field, sub) != 0:
                    return r
    return 0


def brute_dual_distance(code: LinearCode) -> int:
    """Smallest w such that some w generator columns have minor rank < w."""
    field, rows = code.field, code.gen.tolist()
    for w in range(1, code.n + 1):
        for cols in itertools.combinations(range(code.n), w):
            if minor_rank(field, [[row[j] for j in cols] for row in rows]) < w:
                return w
    raise AssertionError("the columns of the generator are independent: dual is zero")


def power_sum(field: Field, points, t: int) -> int:
    """sum of x^t over the given points, with 0^0 = 1."""
    acc = 0
    for x in points:
        acc = poly_add(field, acc, poly_pow(field, x, t))
    return acc


def gram_by_power_sums(field: Field, points, k: int) -> list[list[int]]:
    """Hermitian Gram of the unit-multiplier code on `points`, entry by entry."""
    q = field.subfield_order
    return [[power_sum(field, points, i + j * q) for j in range(k)] for i in range(k)]


def subfield_coordinates(field: Field, z: int) -> tuple[int, int]:
    """Coordinates (z0, z1) of z in the GF(q)-basis {1, x}: z = z0 + z1*x."""
    beta, q = field.extension_generator(), field.subfield_order

    def less_conj(a):  # a - a^q
        return poly_add(field, a, poly_neg(field, poly_pow(field, a, q)))

    z1 = poly_mul(field, less_conj(z), poly_inv(field, less_conj(beta)))
    z0 = poly_add(field, z, poly_neg(field, poly_mul(field, z1, beta)))
    assert less_conj(z0) == less_conj(z1) == 0
    return z0, z1


def orthogonality_system(problem: MultiplierProblem) -> list[list[int]]:
    """The solver's GF(q) system, entry by entry with ``poly_pow``.

    Rows 2(ik + j) and 2(ik + j) + 1 hold the coordinates of a_l^(i+jq)
    on 1 and on x; the extension column is 1 only in row 2(k^2 - 1).
    """
    f, k = problem.field, problem.k
    q = f.subfield_order
    rows = []
    for i in range(k):
        for j in range(k):
            coords = [
                subfield_coordinates(f, poly_pow(f, a, i + j * q)) for a in problem.eval_points
            ]
            row0, row1 = [z0 for z0, _ in coords], [z1 for _, z1 in coords]
            if problem.extended:
                row0.append(1 if i == j == k - 1 else 0)
                row1.append(0)
            rows += [row0, row1]
    return rows


def trace_nonzero_points(field: Field, g) -> tuple[int, ...]:
    """Points x with g(x) + g(x)^q != 0, g evaluated by scalar Horner steps."""
    points, q = [], field.subfield_order
    for x in field.elements():
        gx = 0
        for c in reversed(list(g)):
            gx = poly_add(field, poly_mul(field, gx, x), int(c))
        if poly_add(field, gx, poly_pow(field, gx, q)) != 0:
            points.append(x)
    return tuple(points)


def norm_substituted_polys(field: Field, max_f_degree: int):
    """All g(x) = f(x^(q+1)) with deg f <= max_f_degree, f over GF(q^2).

    These are the standard shapes whose trace zero sets are unions of norm
    fibers; enumerated in canonical coefficient order.
    """
    q = field.subfield_order
    for deg in range(max_f_degree + 1):
        for f_coeffs in itertools.product(field.elements(), repeat=deg + 1):
            if deg > 0 and f_coeffs[-1] == 0:
                continue
            g = [0] * ((q + 1) * deg + 1)
            for j, c in enumerate(f_coeffs):
                g[(q + 1) * j] = c
            yield tuple(g)


def brute_first_all_nonzero(field: Field, basis):
    """First combination of the basis rows with no zero entry, and its index.

    Coefficient vectors are walked in index order 1 .. q^nu - 1, where digit
    t of the index in base q picks the t-th subfield element (canonical
    order) as the coefficient of row t.  Returns (vector, index), or None
    when no combination qualifies.
    """
    rows = [list(map(int, row)) for row in basis]
    nu = len(rows)
    ncols = len(rows[0]) if rows else 0
    sub = [a for a in field.elements() if poly_pow(field, a, field.subfield_order) == a]
    q = len(sub)
    for index in range(1, q**nu):
        coeff = [sub[(index // q**t) % q] for t in range(nu)]
        vec = []
        for col in range(ncols):
            acc = 0
            for t in range(nu):
                acc = poly_add(field, acc, poly_mul(field, coeff[t], rows[t][col]))
            if acc == 0:
                break
            vec.append(acc)
        else:
            return tuple(vec), index
    return None


def random_phase_by_whole_chunks(field: Field, basis, seed: int):
    """(vector or None, attempts, exhausted) of the multiplier solver's two
    seeded random passes, each _CHUNK of draws made by one call and filtered
    whole before any of it is evaluated.

    It covers bases whose ordered scans do not run: q^nu over the
    exhaustive scan limit and the smallest all-nonzero index,
    (q^nu - 1)/(q - 1), over the prefix budget.  Combinations are summed
    with add_array and mul_array.
    """
    basis = np.asarray(basis, dtype=np.int64)
    nu, ncols = basis.shape
    q_sub, subfield_els = field.subfield_order, field.subfield_elements
    free = [int(np.flatnonzero(row)[-1]) for row in basis]
    bound = np.setdiff1d(np.arange(ncols), free)

    def evaluate(digits):
        coeff = subfield_els[digits]
        w = np.zeros((len(digits), len(bound)), dtype=np.int64)
        for t in range(nu):
            w = field.add_array(w, field.mul_array(coeff[:, t : t + 1], basis[t, bound]))
        hits = np.flatnonzero(np.all(w != 0, axis=1))
        if not hits.size:
            return None
        r = int(hits[0])
        full = np.empty(ncols, dtype=np.int64)
        full[free] = coeff[r]
        full[bound] = w[r]
        return r, full

    attempts = min(PREFIX_SCAN_BUDGET, q_sub**nu - 1)
    rng = np.random.default_rng(seed)
    for low in (0, 1):
        for start in range(0, RANDOM_BUDGET, _CHUNK):
            take = min(_CHUNK, RANDOM_BUDGET - start)
            digits = rng.integers(low, q_sub, size=(take, nu))
            attempts += take
            found = evaluate(digits[np.all(digits != 0, axis=1)])
            if found is not None:
                return found[1], attempts, False
    return None, attempts, False


def arrange_p1_by_full_reduction(
    c: LinearCode, basis: FieldMatrix
) -> tuple[LinearCode, tuple[int, ...]]:
    """``dial.arrange_p1_nonsingular`` as it was while it took P1's columns
    from one reduction of all h x (n - h) of P, kept verbatim."""
    field, k, n = c.field, c.k, c.n
    lead, perm1 = standard_form(basis)
    h = lead.rows
    rows = lead.data
    if h < k:
        # subtracting each generator row's pivot-coordinate combination of
        # the basis rows clears it on the first h coordinates
        gen = c.gen.data[:, perm1]
        minus = FieldMatrix._trusted(field, field.neg_array(gen[:, :h]))
        summed = field.add_array(gen, matmul(minus, lead).data)
        cleared, pivots = rref(FieldMatrix._trusted(field, summed))
        if h + len(pivots) != k:
            raise VerificationFailedError("hull basis extension lost rank")  # pragma: no cover
        rows = np.vstack([rows, cleared.data[: len(pivots)]])
    _, chosen = rref(FieldMatrix._trusted(field, lead.data[:, h:]))
    if len(chosen) < h:
        raise RankDeficientError("P has rank below h; the basis is not self-orthogonal")
    rest = [j for j in range(n - h) if j not in chosen]
    perm2 = list(range(h)) + [h + j for j in chosen] + [h + j for j in rest]
    return (
        LinearCode(field, FieldMatrix._trusted(field, rows[:, perm2]), check=False),
        tuple(perm1[j] for j in perm2),
    )


def dials_from_measured_hull(c: LinearCode, targets=None) -> list:
    """The library's Hermitian dials of c (``dial._dials`` of the Hermitian
    form) as they were while they scaled down ``hull(c).basis`` whenever a
    separate self-orthogonality check failed, kept verbatim."""
    basis = c.gen if is_hermitian_self_orthogonal(c) else hull(c, "hermitian").basis
    if targets is None:
        targets = range(basis.rows + 1)
    return _scale_down(c, basis, targets, c.field.e // 2)


def row_space_contains(m: FieldMatrix, vec) -> bool:
    """True iff vec lies in the row space of m."""
    v = FieldMatrix(m.field, [vec])
    if v.cols != m.cols:
        raise ShapeMismatchError("vector length does not match column count")
    return rank(FieldMatrix(m.field, np.vstack([m.data, v.data]))) == rank(m)


def same_row_space(a: FieldMatrix, b: FieldMatrix) -> bool:
    """True iff the two row spaces are equal."""
    ensure_same_field(a.field, b.field)
    if a.cols != b.cols:
        return False
    ra, rb = rank(a), rank(b)
    return ra == rb and rank(FieldMatrix(a.field, np.vstack([a.data, b.data]))) == ra


def reference_code_from_dict(d: dict) -> LinearCode:
    """``LinearCode.from_dict`` as it was while it handed the generator to
    a ``FieldMatrix.from_dict`` that converted one entry at a time, kept
    verbatim but for the inlined matrix reader and its per-entry
    ``Field.element`` call, since removed, written out as a digit sum."""
    spec, gen = _json_value(d, "field", dict), _json_value(d, "generator", dict)
    n, k = _json_value(d, "n", int), _json_value(d, "k", int)
    rows, cols = _json_value(gen, "rows", int), _json_value(gen, "cols", int)
    entries, modulus = _json_value(gen, "entries", list), _json_value(spec, "modulus", list)
    if not 0 <= k <= n <= MAX_CODE_LENGTH or (rows, cols) != (k, n) or len(entries) != k * n:
        raise MalformedCodeError(
            f"[n, k] = [{n}, {k}] with a {rows} x {cols} generator of {len(entries)} "
            f"entries (needs 0 <= k <= n <= {MAX_CODE_LENGTH})"
        )
    arrays = (modulus, *entries)
    if not all(type(cs) is list and all(type(x) is int for x in cs) for cs in arrays):
        raise MalformedCodeError("coefficient arrays must be lists of integers")
    p = _json_value(spec, "p", int)
    if not all(0 <= x < p for cs in arrays for x in cs):
        raise MalformedCodeError(f"coefficients must lie in [0, p) = [0, {p})")
    field = Field(p, _json_value(spec, "e", int), modulus)
    # the matrix reader, FieldMatrix.from_dict(field, gen), inlined
    rows, cols = int(gen["rows"]), int(gen["cols"])
    if not all(0 <= x < field.p for cs in gen["entries"] for x in cs):
        raise ValueError(f"matrix coefficients outside the field's digit range [0, {field.p})")
    values = []
    for cs in gen["entries"]:
        if len(cs) > field.e:
            raise ValueError(f"expected at most {field.e} coefficients, got {len(cs)}")
        values.append(_poly_element(field, cs))
    if len(values) != rows * cols:
        raise ShapeMismatchError("entry count does not match rows*cols")
    arr = np.array(values, dtype=np.int64).reshape(rows, cols)
    return LinearCode(field, FieldMatrix(field, arr))


def family_pairs(family):
    """The (n, k) pairs of a table family's runs, one by one, in order."""
    return ((n, k) for n, lo, hi in family.runs() for k in range(lo, hi + 1))


def table_blocks_by_pair(q: int, max_rows: int | None, include_generic: bool) -> list[tuple]:
    """The table as (n, k, tags, rows) blocks, one per (n, k) pair, in order.

    Block (n, k) stands for its first ``rows`` rows (n, n-k-h, k+1, k-h),
    h = 0..rows-1, all tagged ``tags``; every block holds k + 1 rows but the
    last, which is cut to ``max_rows``.  Keys (n, k_q, d, c) and (n, k, h)
    determine each other, so a key was emitted exactly when its pair was:
    the dedup set holds the emitted pairs.  A pair with 2k > n yields no
    row, since its rows fail the distance gate.  The walk stops at the row
    that reaches ``max_rows`` or passes TABLE_ROW_CAP; past the cap it
    raises CapExceededError.
    """
    if max_rows is not None and max_rows < 0:
        raise BadTargetError(f"max_rows = {max_rows} must be nonnegative")
    _check_base_field(q, least=3)
    families = _families(q, include_generic)
    wanted = TABLE_ROW_CAP + 1 if max_rows is None else min(TABLE_ROW_CAP + 1, max_rows)
    blocks: list[tuple] = []
    if wanted == 0:
        return blocks
    emitted: set[tuple[int, int]] = set()
    total = 0
    for i, family in enumerate(families):
        later, alone = families[i + 1 :], (family.name,)  # the last family tags pairs alone
        for n, k in family_pairs(family):
            if 2 * k > n or (n, k) in emitted:
                continue
            emitted.add((n, k))
            tags = alone + tuple([f.name for f in later if f.has(n, k)]) if later else alone
            rows = min(k + 1, wanted - total)
            blocks.append((n, k, tags, rows))
            total += rows
            if total == wanted:
                if total > TABLE_ROW_CAP:
                    raise CapExceededError(
                        f"the q = {q} table has over {TABLE_ROW_CAP} rows; "
                        "ask for at most that many"
                    )
                return blocks
    return blocks


@functools.cache
def brute_table1_tags(q: int, include_generic: bool) -> dict[tuple[int, int, int, int], tuple]:
    """Every table key (n, k_q, d, c) with its family tags, in emission order."""
    rows = (
        (family.name, n, n - k - h, k + 1, k - h)
        for family in _families(q, include_generic)
        for n, k in family_pairs(family)
        for h in range(k + 1)
    )
    families: dict[tuple[int, int, int, int], list[str]] = {}
    for fam, n, k_q, d, c in rows:
        if k_q < 0 or c < 0 or n < 2 or 2 * d > n + 2:
            continue
        tags = families.setdefault((n, k_q, d, c), [])
        if fam not in tags:
            tags.append(fam)
    return {key: tuple(tags) for key, tags in families.items()}


def brute_table1(
    q: int, *, max_rows: int | None = None, include_generic: bool = True
) -> list[EaqecParams]:
    """The table by walking every family row, the generic family included.

    Rows of every family pass through one dedup dict in family order, so a
    key's tags are ordered by first encounter; the first ``max_rows`` keys
    become records through ``classified``.  The walk is cached per
    (q, include_generic), since it does not depend on ``max_rows``.
    """
    families = brute_table1_tags(q, include_generic)
    return [
        classified(q, *key, families=families[key], witnessed=False)
        for key in itertools.islice(families, max_rows)
    ]
