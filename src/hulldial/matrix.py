"""Dense linear algebra over a Field.

A FieldMatrix wraps a read-only numpy int array of element codes plus the
field they live in.  Row reduction, rank, null spaces and conjugate
transpose are all exact; pivoting is positional (first nonzero entry
top-to-bottom in the leftmost unscanned column), so every result is
deterministic.  Matrices with zero rows are legal values and
represent the zero subspace.

Products go through one kernel, ``matmul``, which sums each slice of the
inner index t in one integer reduction.  The field's lane table holds
every product a * b at log a + log b as an int64 with each base-p digit in
its own lane of floor(63/e) bits, so a plain integer sum of up to the
field's ``lane_capacity`` products carries from no lane into the next
(for p = 2 the code itself, summed by XOR, with no capacity bound).  One
lookup forms the tensor of products a[i, t] * b[t, j] for a slice of t,
with t leading when one rows x cols layer holds at least as many entries
as t has values and last otherwise, and one reduction sums it over t; the
slices' sums add up as integers until the capacity is reached, and one
shift, mask and % p per digit reads them back as elements.  Slices hold at
most ``_PRODUCT_BUDGET`` entries, and each later capacity's worth of terms
is added with one ``add_array``, so the memory a product needs does not
grow with its inner dimension.

Results whose entries are valid by construction (field-table lookups,
entries of an already checked matrix, or digits ``LinearCode.from_dict``
has checked) are wrapped with ``FieldMatrix._trusted``; the constructor
``FieldMatrix(field, data)`` copies and range-checks any other data.

Each matrix is row-reduced at most once: ``rref`` keeps its result on the
matrix it reduced, so ``rank``, ``null_space`` and ``standard_form`` of one
matrix share one elimination, whichever callers ask.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    BadPermutationError,
    OddExtensionError,
    RankDeficientError,
    ShapeMismatchError,
)
from .field import Field, digit_columns, element_codes, ensure_same_field


class FieldMatrix:
    """Immutable rows x cols matrix of field elements (stored as ints)."""

    __slots__ = ("field", "data", "_reduced")

    def __init__(self, field: Field, data):
        arr = element_codes(data, field.order)
        if arr.size == 0:
            arr = arr.reshape(arr.shape if arr.ndim == 2 else (0, 0))
        if arr.ndim != 2:
            raise ShapeMismatchError(f"matrix data must be 2-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self.field = field
        self.data = arr
        self._reduced = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, arr: np.ndarray) -> "FieldMatrix":
        """Wrap a 2-D int64 array of valid entries as it is, without copying or scanning it.

        ``rref`` keeps its result on the matrix, so neither ``arr`` nor an
        array it views may be written afterwards."""
        m = cls.__new__(cls)
        arr.setflags(write=False)
        m.field = field
        m.data = arr
        m._reduced = None
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    # -- basics ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over GF({self.field.order}))"

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.data[i])

    def tolist(self) -> list[list[int]]:
        return self.data.tolist()

    def to_dict(self) -> dict:
        coeffs = digit_columns(self.data.reshape(-1), self.field.p, self.field.e)
        return {"rows": self.rows, "cols": self.cols, "entries": coeffs.tolist()}


# ---------------------------------------------------------------------------
# elementwise helpers
# ---------------------------------------------------------------------------


def frobenius_entrywise(m: FieldMatrix, l: int) -> FieldMatrix:
    """Apply a -> a^(p^l) to every entry."""
    if m.data.size == 0 or l % m.field.e == 0:
        return m
    return FieldMatrix._trusted(m.field, m.field.frobenius_array(m.data, l))


def _scale_columns(m: FieldMatrix, vec: Sequence[int]) -> FieldMatrix:
    """Multiply column j by vec[j], m.cols weights that are already element
    codes (``code.scale`` reads and checks a caller's weights)."""
    return FieldMatrix._trusted(m.field, m.field.mul_array(m.data, np.asarray(vec)[None, :]))


def permute_columns(m: FieldMatrix, perm: Sequence[int]) -> FieldMatrix:
    """Column j of the result is column perm[j] of the input; perm is read by
    ``element_codes`` with bound cols, so bools act as the ints they stand for."""
    codes = element_codes(perm, m.cols)
    if sorted(codes.tolist()) != list(range(m.cols)):
        raise BadPermutationError(f"{perm} is not a permutation of 0..{m.cols - 1}")
    return FieldMatrix._trusted(m.field, m.data[:, codes])


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


#: Most entries of the product tensor that ``matmul`` forms at once.
_PRODUCT_BUDGET = 1 << 16


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Matrix product over the shared field.

    The inner index t is taken in slices of max(1, _PRODUCT_BUDGET // (rows
    * cols)) values, at most the field's ``lane_capacity``.  One
    ``Field.dot_lanes`` call takes the logs of a slice, looks up its
    products in the lane table and sums the slice axis in one integer
    reduction, adding the result to the lane sums of the slices before it:
    (slice, rows, cols) when rows * cols >= inner, so a few terms add up as
    whole layers, else (rows, cols, slice), so each entry sums a long row.
    Every whole number of slices that fits the lane capacity is read back
    as elements once, and one ``add_array`` call adds each later such chunk
    to the first (capacities fall below the budget only for odd p with
    e >= 3).  So the tensor held at once never exceeds the budget, or one
    rows x cols layer when that alone is larger, whatever the inner
    dimension.  The sums are valid entries by construction, so the result
    is wrapped without re-validating it.
    """
    field = a.field
    ensure_same_field(field, b.field)
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    (rows, inner), cols = a.shape, b.cols
    layer = max(1, rows * cols)
    axis = 0 if layer >= inner else -1
    if axis == 0:  # (inner, rows, 1) and (inner, 1, cols)
        A, B = a.data.T[:, :, None], b.data[:, None]
    else:  # (rows, 1, inner) and (1, cols, inner)
        A, B = a.data[:, None], b.data.T[None]
    capacity = field.lane_capacity
    step = min(capacity, max(1, _PRODUCT_BUDGET // layer))
    chunk = capacity // step * step  # whole slices, at most capacity terms
    out = np.zeros((rows, cols), dtype=np.int64)  # the sums of no terms, if inner is 0
    for c in range(0, inner, chunk):
        lanes = None
        for s in range(c, min(c + chunk, inner), step):
            t = np.s_[s : s + step] if axis == 0 else np.s_[..., s : s + step]
            lanes = field.dot_lanes(A[t], B[t], lanes, axis)
        sums = field.from_lanes(lanes)
        out = sums if c == 0 else field.add_array(out, sums)
    return FieldMatrix._trusted(field, out)


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix._trusted(m.field, m.data.T)


def conj_transpose(m: FieldMatrix) -> FieldMatrix:
    """Transpose with every entry conjugated (a -> a^q)."""
    if m.field.e % 2 != 0:
        raise OddExtensionError("conjugate transpose needs an even extension degree")
    return frobenius_entrywise(transpose(m), m.field.e // 2)


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns.

    Pivot choice is positional: leftmost unscanned column, topmost nonzero
    entry, so the result is unique and bit-reproducible.  A run of columns
    with no nonzero entry at or below the current row is skipped in one
    scan, which also ends the loop once the rows left are all zero.  The
    result is kept on ``m``, and later calls return it without reducing.
    """
    if m._reduced is not None:
        return m._reduced
    field = m.field
    R = m.data.copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        if not R[r, c]:
            nz = R[r:, c].nonzero()[0]
            if nz.size == 0:
                live = R[r:, c:].any(axis=0).nonzero()[0]
                if live.size == 0:
                    break
                c += int(live[0])
                nz = R[r:, c].nonzero()[0]
            pr = r + int(nz[0])
            if pr != r:
                R[[r, pr]] = R[[pr, r]]
        pivot = int(R[r, c])
        if pivot != 1:
            inv_p = field.inv(pivot)
            R[r] = field.mul_array(R[r], np.int64(inv_p))
        if np.count_nonzero(R[:, c]) > 1:  # the pivot is not alone in its column
            factors = field.neg_array(R[:, c])
            factors[r] = 0
            R = field.add_array(R, field.mul_array(factors[:, None], R[r][None, :]))
        pivots.append(c)
        r, c = r + 1, c + 1
    m._reduced = FieldMatrix._trusted(field, R), tuple(pivots)
    return m._reduced


def rank(m: FieldMatrix) -> int:
    """Number of pivots of the reduced row echelon form."""
    return len(rref(m)[1])


def batch_column_deficient(field: Field, blocks) -> np.ndarray:
    """For a (B, r, w) stack of matrices, True where the w columns are dependent.

    One fraction-free Gaussian elimination runs over the whole batch: rows
    below the pivot become pivot * row - row[c] * pivot_row, so no inverse
    is taken.  A matrix is deficient as soon as a column has no nonzero
    entry left on or below the diagonal; its later steps are ignored.
    """
    M = np.array(blocks, dtype=np.int64)
    batch, rows, cols = M.shape
    if cols > rows:
        return np.ones(batch, dtype=bool)
    deficient = np.zeros(batch, dtype=bool)
    idx = np.arange(batch)
    for c in range(cols):
        nz = M[:, c:, c] != 0
        deficient |= ~nz.any(axis=1)
        p = c + np.argmax(nz, axis=1)
        top = M[idx, c].copy()
        M[idx, c] = M[idx, p]
        M[idx, p] = top
        if c + 1 < cols:
            pivot = M[:, c, c][:, None, None]
            factors = field.neg_array(M[:, c + 1 :, c])[:, :, None]
            M[:, c + 1 :, c + 1 :] = field.add_array(
                field.mul_array(pivot, M[:, c + 1 :, c + 1 :]),
                field.mul_array(factors, M[:, c : c + 1, c + 1 :]),
            )
    return deficient


def _columns_first(first, n: int) -> np.ndarray:
    """The index array of 0..n-1 that lists ``first`` (distinct) in its own
    order, then every other index in increasing order."""
    first, rest = np.array(first, dtype=np.intp), np.ones(n, dtype=bool)
    rest[first] = False
    return np.concatenate([first, rest.nonzero()[0]])


def null_space(m: FieldMatrix) -> FieldMatrix:
    """Basis (as rows) of {x : m @ x^T = 0}; cols - rank(m) rows."""
    field = m.field
    R, pivots = rref(m)
    order, r = _columns_first(pivots, m.cols), len(pivots)
    free = order[r:]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, order[:r]] = field.neg_array(R.data[:r, free]).T
    return FieldMatrix._trusted(field, basis)


def standard_form(g: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Column-permute a full-row-rank matrix into (I_k | P).

    Returns the permuted matrix and the applied permutation: output column
    j is input column perm[j].  The pivot columns of the reduced echelon
    form (leftmost admissible) are moved to the front in order.
    """
    R, pivots = rref(g)
    if len(pivots) != g.rows:
        raise RankDeficientError(f"matrix has rank {len(pivots)}, expected {g.rows}")
    perm = _columns_first(pivots, g.cols)
    return FieldMatrix._trusted(g.field, R.data[:, perm]), tuple(perm.tolist())
