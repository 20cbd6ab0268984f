"""Linear codes over GF(p^e): duals, hulls, distances, equivalence maps.

A LinearCode is a full-row-rank generator matrix together with its field.
Codes are stored non-canonically (the generator as given), because
equivalence transforms deliberately produce different generators for the
same code; ``hull`` reports a canonical basis where one is needed.

Both distances are exact or an error, and share three routes:
- an MDS certificate.  The systematic form (I | A) of a GRS code is a
  generalized Cauchy matrix (Roth-Seroussi 1985) whose points can be read
  back from A (Sidelnikov-Shestakov 1992); once they check on every entry,
  every square submatrix of A is a scaled Cauchy matrix, so every minor is
  nonzero and the code and its dual are both MDS.  Any other outcome
  claims nothing;
- a column-dependency search over the parity-check matrix of the code
  measured, in batched eliminations over chunks of column subsets;
- enumeration of that code's messages, under the enumeration cap; the cap
  bounds only this route, so a code past it may still get its exact value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadGaloisIndexError,
    CapExceededError,
    MalformedCodeError,
    OddExtensionError,
    RankDeficientError,
    ShapeMismatchError,
    TooLargeToEnumerateError,
    VerificationFailedError,
    ZeroMultiplierError,
)
from .field import FIELD_ORDER_CAP, Field, digit_columns, element_codes, ensure_same_field
from .matrix import (
    FieldMatrix,
    _scale_columns,
    batch_column_deficient,
    frobenius_entrywise,
    matmul,
    null_space,
    permute_columns,
    rank,
    rref,
    standard_form,
    transpose,
)

#: Default cap on exact codeword enumeration (number of messages).
DEFAULT_ENUM_CAP = 10**7

#: Budget for the column-dependency search, in column subsets.
SUPPORT_SEARCH_BUDGET = 2 * 10**6

_CHUNK = 1 << 15


#: Largest admissible cap: message indices are int64.
MAX_ENUM_CAP = 2**63 - 1


def enumeration_cap(cap: int | None = None) -> int:
    """The cap argument, else DEFAULT_ENUM_CAP; past int64 it raises."""
    if cap is None:
        return DEFAULT_ENUM_CAP
    if cap > MAX_ENUM_CAP:
        raise CapExceededError(f"enumeration cap {cap} exceeds the int64 limit {MAX_ENUM_CAP}")
    return cap


#: Longest code a code file may declare: q^2 + 1 at the field-order cap.
MAX_CODE_LENGTH = FIELD_ORDER_CAP + 1


def _json_value(d, key: str, kind: type):
    """d[key], which must have exactly that JSON type (so true is no int)."""
    if not isinstance(d, dict) or key not in d:
        raise MalformedCodeError(f"code JSON has no {key!r} entry")
    if type(d[key]) is not kind:
        raise MalformedCodeError(f"code JSON entry {key!r} must be a {kind.__name__}")
    return d[key]


class LinearCode:
    """An [n, k] linear code over a field, held as a generator matrix.

    The zero code (k = 0) is legal and represented by an empty generator
    with an explicit column count.
    """

    def __init__(self, field: Field, gen, check: bool = True):
        if not isinstance(gen, FieldMatrix):
            gen = FieldMatrix(field, gen)
        ensure_same_field(field, gen.field)
        if check and gen.rows and rank(gen) != gen.rows:
            raise RankDeficientError(
                f"generator has {gen.rows} rows but rank {rank(gen)}"
            )
        self.field = field
        self.gen = gen

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.rows

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over GF({self.field.order}))"

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "generator": self.gen.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        """Load the to_dict layout in one checked pass, in this order, before
        any entry is converted: keys and JSON types; sizes (n at most
        MAX_CODE_LENGTH); every coefficient an int (true is none) in [0, p);
        the field; at most e digits per entry (fewer are leading zeros).  The
        generator is then read in one array step and its rank checked."""
        spec, gen = _json_value(d, "field", dict), _json_value(d, "generator", dict)
        n, k = _json_value(d, "n", int), _json_value(d, "k", int)
        rows, cols = _json_value(gen, "rows", int), _json_value(gen, "cols", int)
        entries, modulus = _json_value(gen, "entries", list), _json_value(spec, "modulus", list)
        if not 0 <= k <= n <= MAX_CODE_LENGTH or (rows, cols) != (k, n) or len(entries) != k * n:
            raise MalformedCodeError(
                f"[n, k] = [{n}, {k}] with a {rows} x {cols} generator of {len(entries)} "
                f"entries (needs 0 <= k <= n <= {MAX_CODE_LENGTH})"
            )
        if not set(map(type, entries)) <= {list}:
            raise MalformedCodeError("coefficient arrays must be lists of integers")
        coeffs = list(itertools.chain(modulus, *entries))
        if not set(map(type, coeffs)) <= {int}:
            raise MalformedCodeError("coefficient arrays must be lists of integers")
        p = _json_value(spec, "p", int)
        if coeffs and not 0 <= min(coeffs) <= max(coeffs) < p:
            raise MalformedCodeError(f"coefficients must lie in [0, p) = [0, {p})")
        field = Field(p, _json_value(spec, "e", int), modulus)
        e = field.e
        lengths = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
        if np.any(over := lengths > e):
            raise ValueError(f"expected at most {e} coefficients, got {lengths[over.argmax()]}")
        digits = np.zeros((len(entries), e), dtype=np.int64)
        digits[np.arange(e) < lengths[:, None]] = coeffs[len(modulus):]
        values = (digits @ p ** np.arange(e, dtype=np.int64)).reshape(k, n)
        return cls(field, FieldMatrix._trusted(field, values))


@dataclass(frozen=True)
class HullReport:
    """Basis and dimension of the intersection of a code with one of its duals."""

    kind: str  # "euclidean", "hermitian", or "galois"
    l: int | None
    basis: FieldMatrix
    dim: int


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def _frobenius_index(field: Field, kind: str, l: int | None) -> int:
    """The l for which the named dual is {x : x . sigma(c) = 0 for all c in C},
    with sigma(a) = a^(p^l): 0 for Euclidean, e/2 for Hermitian.  Only the
    galois kind takes an l."""
    if kind in ("euclidean", "hermitian") and l is not None:
        raise BadGaloisIndexError(f"the {kind} dual takes no index l (got {l}); use galois")
    if kind == "euclidean":
        return 0
    if kind == "hermitian":
        if field.e % 2 != 0:
            raise OddExtensionError("Hermitian dual needs an even extension degree")
        return field.e // 2
    if kind == "galois":
        if l is None:
            raise BadGaloisIndexError("galois dual needs an index l")
        if not 0 <= l <= field.e - 1:
            raise BadGaloisIndexError(f"l must be in [0, {field.e - 1}], got {l}")
        return l
    raise ValueError(f"unknown dual kind {kind!r}")


def dual_of_kind(c: LinearCode, kind: str, l: int | None = None) -> LinearCode:
    """The named dual: the entrywise p^l-th power of the Euclidean dual."""
    sigma = _frobenius_index(c.field, kind, l)
    return LinearCode(c.field, frobenius_entrywise(null_space(c.gen), sigma), check=False)


def hermitian_dual(c: LinearCode) -> LinearCode:
    """The dual under the Hermitian form; equals the entrywise q-th power
    of the Euclidean dual."""
    return dual_of_kind(c, "hermitian")


def _hull_span(c: LinearCode, kind: str, l: int | None) -> tuple[FieldMatrix, FieldMatrix]:
    """Rows spanning the named hull, and sigma(G)^T to check them with.  A
    codeword mG lies in the twisted dual iff m G sigma(G)^T = 0, so the rows
    are leftnull(G sigma(G)^T) G, G itself when that Gram matrix is zero,
    and none, with no product formed, when it is nonsingular."""
    sigma_gt = transpose(frobenius_entrywise(c.gen, _frobenius_index(c.field, kind, l)))
    gram = matmul(c.gen, sigma_gt)
    if not np.any(gram.data):
        return c.gen, sigma_gt
    left = null_space(transpose(gram))
    return matmul(left, c.gen) if left.rows else FieldMatrix.zeros(c.field, 0, c.n), sigma_gt


def hull(c: LinearCode, kind: str = "hermitian", l: int | None = None) -> HullReport:
    """Intersection of the code with the named dual of itself.

    Its dimension is k - rank(G sigma(G)^T): one k x k Gram matrix decides
    it.  The basis is canonical, a function of the hull subspace alone:
    reverse the columns, take the reduced echelon form, drop the zero rows,
    then reverse both rows and columns.
    """
    field = c.field
    span, sigma_gt = _hull_span(c, kind, l)
    reduced, pivots = rref(FieldMatrix._trusted(field, span.data[:, ::-1]))
    basis = FieldMatrix._trusted(field, reduced.data[: len(pivots)][::-1, ::-1])
    if len(pivots) != span.rows or (pivots and np.any(matmul(basis, sigma_gt).data)):
        raise VerificationFailedError(
            "hull basis is not the left null space of the Gram matrix"
        )  # pragma: no cover
    return HullReport(kind=kind, l=l, basis=basis, dim=basis.rows)


def gram_matrix(c: LinearCode, l: int | None = None) -> FieldMatrix:
    """G @ sigma(G)^T where sigma raises entries to p^l (default: conjugation)."""
    sigma = _frobenius_index(c.field, "hermitian" if l is None else "galois", l)
    return matmul(c.gen, transpose(frobenius_entrywise(c.gen, sigma)))


def is_hermitian_self_orthogonal(c: LinearCode) -> bool:
    """True iff the Hermitian Gram matrix of the generator vanishes."""
    return not np.any(gram_matrix(c).data)


# ---------------------------------------------------------------------------
# equivalence maps
# ---------------------------------------------------------------------------


def check_weight_vector(field: Field, v: Sequence[int], n: int) -> tuple[int, ...]:
    """v read by ``element_codes`` as a tuple of n nonzero element codes."""
    codes = element_codes(v, field.order)
    if len(codes) != n:
        raise ShapeMismatchError(f"weight vector length {len(codes)} != n = {n}")
    if not codes.all():
        raise ZeroMultiplierError("weight vector entries must all be nonzero")
    return tuple(codes.tolist())


def scale(c: LinearCode, v: Sequence[int]) -> LinearCode:
    """Multiply coordinate j of every codeword by v[j] (all v[j] nonzero)."""
    v = check_weight_vector(c.field, v, c.n)
    return LinearCode(c.field, _scale_columns(c.gen, v), check=False)


def permute(c: LinearCode, perm: Sequence[int]) -> LinearCode:
    """Reorder coordinates: new coordinate j is old coordinate perm[j]."""
    return LinearCode(c.field, permute_columns(c.gen, perm), check=False)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def _enumerated_distance(gen: FieldMatrix) -> int:
    """Smallest weight of a nonzero codeword of a rank-k generator, every
    message encoded in base-order digit order, _CHUNK at a time."""
    field, (k, n) = gen.field, gen.shape
    total = field.order**k
    best = n
    for start in range(1, total, _CHUNK):
        digits = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        messages = FieldMatrix(field, digit_columns(digits, field.order, k))
        best = min(best, int(np.count_nonzero(matmul(messages, gen).data, axis=1).min()))
    return best


def _smallest_dependent_set(gen: FieldMatrix) -> int:
    """Smallest w such that some w columns of a rank-k matrix are dependent.

    Column subsets are taken in lexicographic order, _CHUNK at a time, and
    each chunk is tested in one batched elimination; the scan stops at the
    first chunk holding a dependent subset.  Any k+1 columns of a rank-k
    matrix are dependent, so weight k+1 needs no scan.
    """
    k, n = gen.shape
    for w in range(1, k + 1):
        combos = itertools.combinations(range(n), w)
        while chunk := list(itertools.islice(combos, _CHUNK)):
            cols = np.array(chunk, dtype=np.intp)
            if batch_column_deficient(gen.field, gen.data[:, cols].transpose(1, 0, 2)).any():
                return w
    return k + 1


def _mds_certificate(form: FieldMatrix) -> bool:
    """True only when every k columns of a rank-k generator are proved independent.

    ``form`` is the generator's standard form (I_k | A).  A must have no
    zero entry and, when k and n - k are both at least 2, the ratios
    R[i, j] = A[0, j] / A[i, j] (rows i >= 1) must read R[i, j] =
    a_i (y_j - x_i), with y_j = R[1, j] distinct, every a_i nonzero and the
    x_i distinct.  Then every square submatrix of A is a scaled Cauchy
    matrix, row 0's point at infinity, so every minor is nonzero.  Every GRS
    code passes, extended or not: R[i, j] is affine in 1/(x_0 - y_j), or in
    y_j when x_0 is infinite.
    """
    field, (k, n) = form.field, form.shape
    a = form.data[:, k:]
    if k == 1 or n - k == 1 or not a.all():
        return bool(a.all())
    sub = lambda u, v: field.add_array(u, field.neg_array(v))  # noqa: E731
    ratio = field.mul_array(a[0], field.inv_array(a[1:]))
    y = ratio[0]
    if np.unique(y).size < y.size:
        return False
    # a_i and -a_i x_i from columns 0 and 1, then checked on every column
    slope = field.mul_array(sub(ratio[:, 0], ratio[:, 1]), field.inv_array(sub(y[0], y[1])))
    offset = sub(ratio[:, 0], field.mul_array(slope, y[0]))
    fitted = field.add_array(field.mul_array(slope[:, None], y), offset[:, None])
    if not slope.all() or np.any(fitted != ratio):
        return False
    points = field.mul_array(field.neg_array(offset), field.inv_array(slope))
    return np.unique(points).size == points.size


def _distance(c: LinearCode, dual: bool, cap: int | None) -> int:
    """Exact minimum distance of c, or of its dual when ``dual``.

    A code is MDS iff its dual is, so the certificate on the standard form
    of c.gen answers either distance as n - dim + 1, dim the dimension of
    the code measured.
    Otherwise it picks between the column-dependency search over that
    code's parity-check matrix (c.gen for the dual, null_space(c.gen) for
    c) and enumeration of its messages, preferring enumeration up to 10^5
    messages.  The search's budget counts column subsets, adding only until
    the count passes SUPPORT_SEARCH_BUDGET; the cap counts messages, bounds
    only enumeration and is validated before any route runs.
    """
    cap = enumeration_cap(cap)
    dim = c.n - c.k if dual else c.k
    if _mds_certificate(standard_form(c.gen)[0]):
        return c.n - dim + 1
    total = c.field.order**dim
    counts = itertools.accumulate(math.comb(c.n, w) for w in range(1, c.n - dim + 1))
    support_ok = all(s <= SUPPORT_SEARCH_BUDGET for s in counts)
    enum_ok = total <= cap
    if support_ok and (not enum_ok or total > 10**5):
        return _smallest_dependent_set(c.gen if dual else null_space(c.gen))
    if enum_ok:
        return _enumerated_distance(null_space(c.gen) if dual else c.gen)
    raise TooLargeToEnumerateError(
        f"{'dual ' if dual else ''}enumeration ({c.field.order}^{dim} messages) and support "
        f"search (over {SUPPORT_SEARCH_BUDGET} subsets) both exceed their budgets"
    )


def min_distance(c: LinearCode, cap: int | None = None) -> int:
    """Exact minimum Hamming weight; past both the search budget and the
    cap it raises, never estimating."""
    if c.k < 1:
        raise ValueError("the zero code has no nonzero codeword")
    return 1 if c.k == c.n else _distance(c, False, cap)


def dual_min_distance(c: LinearCode, cap: int | None = None) -> int:
    """Exact minimum distance of the dual of c (all dual kinds share it);
    past both the search budget and the cap it raises, never estimating."""
    if c.k == c.n:
        raise ValueError("the dual of the full space is the zero code")
    return 1 if c.k == 0 else _distance(c, True, cap)


def is_mds(c: LinearCode, cap: int | None = None) -> bool:
    """True iff the minimum distance meets the Singleton bound n - k + 1.

    A code is MDS iff every k columns of its generator are independent,
    that is iff its dual distance is k + 1, which dual_min_distance decides
    (``cap`` bounds only its enumeration).  A code with k = n is MDS outright.
    """
    if c.k < 1:
        raise ValueError("the zero code has no nonzero codeword")
    return c.k == c.n or dual_min_distance(c, cap) == c.k + 1
