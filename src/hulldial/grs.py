"""Hermitian self-orthogonal generalized Reed-Solomon codes.

A GRS code is fixed by distinct evaluation points, nonzero column
multipliers and a dimension; an extended code appends an extra column
carrying the top polynomial coefficient.  The full-field code with unit
multipliers is self-orthogonal outright for k <= q - 1.  For every other
evaluation set the forge solves for multipliers: the code is Hermitian
self-orthogonal iff sum_l v_l^(q+1) a_l^(i+jq) = 0 for all 0 <= i, j < k,
which after substituting w_l = v_l^(q+1) (a nonzero subfield value) and
splitting each GF(q^2) equation into two GF(q) component equations becomes
a linear system over GF(q).  The solver scans the null space of that
system for a vector with every entry nonzero, exhaustively when the space
is small (so "no solution" is a proof), otherwise with a deterministic
prefix scan followed by seeded random sampling (so the failure mode is
"not found within budget", never a nonexistence claim).  A coefficient
vector with a zero coefficient gives a zero entry, so only all-nonzero
ones are evaluated; the rest are ruled out without arithmetic.

Every constructed code is re-verified self-orthogonal before it is
returned; no construction is trusted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadDimensionError,
    BadFamilyParamsError,
    CapExceededError,
    DuplicateEvalPointsError,
    NotADivisorError,
    ShapeMismatchError,
    VerificationFailedError,
    ZeroMultiplierError,
)
from .field import Field, digit_columns, element_codes
from .code import LinearCode, is_hermitian_self_orthogonal, is_mds
from .matrix import FieldMatrix, matmul, null_space

DEFAULT_SEED = 1

#: Null spaces with at most this many coefficient vectors are scanned
#: exhaustively, making a "no solution" outcome sound.
EXHAUSTIVE_SCAN_LIMIT = 6 * 10**5

#: Deterministic prefix scanned before random sampling on large spaces.
PREFIX_SCAN_BUDGET = 10**5

#: Seeded random attempts in each of the two passes after the prefix scan.
RANDOM_BUDGET = 10**5

#: Longest code the solver takes on, since its dense null-space basis has
#: up to n^2 entries: 32^2 + 1, the q2plus1 length over GF(32^2).
MAX_SOLVER_LENGTH = 1025

#: Most Horner work, (deg g + 1) times the field order, that evaluating a
#: trace polynomial g at every field element may take.  A g of degree
#: d < q gives g + g^q of degree dq, so a set within MAX_SOLVER_LENGTH
#: needs dq >= q^2 - 1025, i.e. d >= q - 1 at q = 1024.  This budget
#: allows deg g <= 1023 there (about 2 minutes, at 0.1 s per step over the
#: 2^20 elements), deg g <= 4095 at q = 512 and every degree the family
#: allows at q <= 128.
HORNER_BUDGET = 2**30

_CHUNK = 4096

#: Rows in a random pass's first draw; each later draw takes as many rows
#: as the pass has drawn so far, up to _CHUNK.
_FIRST_DRAW = 256

STATUS_FOUND = "found"
STATUS_NO_SOLUTION = "no-solution"
STATUS_NOT_FOUND = "not-found-within-budget"


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation points, column multipliers and dimension of a GRS code.

    ``multipliers`` has one entry per evaluation point, plus a final entry
    for the extension column when ``extended`` is set.  Both are read by
    ``element_codes`` into tuples of ints; the points must be distinct.
    """

    field: Field
    eval_points: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    extended: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eval_points", _points(self.field, self.eval_points))
        mults = element_codes(self.multipliers, self.field.order)
        object.__setattr__(self, "multipliers", tuple(mults.tolist()))
        if len(mults) != self.length:
            raise ShapeMismatchError(f"expected {self.length} multipliers, got {len(mults)}")
        if not mults.all():
            raise ZeroMultiplierError("multipliers must be nonzero")
        if not 1 <= self.k <= self.length:
            raise BadDimensionError(f"k = {self.k} outside [1, {self.length}]")

    @property
    def length(self) -> int:
        return len(self.eval_points) + (1 if self.extended else 0)

    def code(self) -> LinearCode:
        """The code, built by grs_generator on the first call; every later
        call returns that same object, so re-checks share one build."""
        return self._code

    @functools.cached_property
    def _code(self) -> LinearCode:
        return grs_generator(self)

    def to_dict(self) -> dict:
        f, split = self.field, len(self.eval_points)
        digits = digit_columns(self.eval_points + self.multipliers, f.p, f.e).tolist()
        return {
            "eval_points": digits[:split],
            "multipliers": digits[split:],
            "k": self.k,
            "extended": self.extended,
        }


def _points(field: Field, points: Sequence[int]) -> tuple[int, ...]:
    """Evaluation points read as element codes (see ``element_codes``),
    refused when two are equal."""
    pts = tuple(element_codes(points, field.order).tolist())
    if len(set(pts)) != len(pts):
        raise DuplicateEvalPointsError("evaluation points must be pairwise distinct")
    return pts


def grs_generator(spec: GrsSpec) -> LinearCode:
    """The k x N generator: row i, column l is v_l * a_l^i (0^0 = 1).

    The extension column, when present, is zero except for v_inf in the
    last row, so it carries the degree-(k-1) coefficient.  One pow_array
    and one mul_array build the whole matrix.
    """
    f, split = spec.field, len(spec.eval_points)
    pts = np.array(spec.eval_points, dtype=np.int64)
    gen = np.zeros((spec.k, spec.length), dtype=np.int64)
    mults = np.array(spec.multipliers[:split], dtype=np.int64)
    gen[:, :split] = f.mul_array(f.pow_array(pts, np.arange(spec.k)[:, None]), mults)
    if spec.extended:
        gen[-1, -1] = spec.multipliers[-1]
    return LinearCode(f, gen)


def full_field_rs(field: Field, k: int) -> GrsSpec:
    """Unit-multiplier RS code on all q^2 points; self-orthogonal for k <= q-1."""
    q = field.subfield_order
    if not 1 <= k <= q - 1:
        raise BadDimensionError(f"full-field construction needs 1 <= k <= q-1 = {q - 1}")
    spec = GrsSpec(
        field=field,
        eval_points=tuple(field.elements()),
        multipliers=(1,) * field.order,
        k=k,
        extended=False,
    )
    if not is_hermitian_self_orthogonal(spec.code()):
        raise VerificationFailedError(
            "full-field code failed the self-orthogonality check"
        )  # pragma: no cover
    return spec


# ---------------------------------------------------------------------------
# evaluation sets
# ---------------------------------------------------------------------------


def _coefficients(field: Field, g: Sequence[int]) -> np.ndarray:
    """g's coefficients read as element codes (see ``element_codes``),
    lowest degree first, without zero leading ones."""
    coeffs = element_codes(g, field.order)
    return coeffs[: np.flatnonzero(coeffs)[-1] + 1] if coeffs.any() else coeffs[:0]


def trace_nonzero_eval_set(field: Field, g: Sequence[int]) -> tuple[int, ...]:
    """Points x of GF(q^2) where g(x) + g(x)^q is nonzero.

    Any polynomial g of degree at most (q - k)q - 1 whose pointwise
    g + g^q vanishes on exactly q^2 - n points certifies that an
    [n, k] Hermitian self-orthogonal MDS code exists on the complement.
    g's coefficients, lowest degree first, are read by ``element_codes``.
    When g + g^q vanishes everywhere (g = 0, say) the set is empty, and
    ``construct_family`` refuses it as smaller than k.
    g is evaluated at every element at once, by Horner steps on arrays;
    their work is checked against ``HORNER_BUDGET`` before the first.
    """
    coeffs = _coefficients(field, g)
    if len(coeffs) * field.order > HORNER_BUDGET:
        raise CapExceededError(
            f"evaluating g of degree {len(coeffs) - 1} at {field.order} points takes "
            f"{len(coeffs) * field.order} Horner steps, over the budget {HORNER_BUDGET}"
        )
    xs = np.arange(field.order, dtype=np.int64)
    gx = np.zeros_like(xs)
    for c in reversed(coeffs):
        gx = field.add_array(field.mul_array(gx, xs), c)
    return tuple(np.flatnonzero(field.add_array(gx, field.conj_array(gx))).tolist())


def subgroup_eval_set(field: Field, m: int) -> tuple[int, ...]:
    """The index-m subgroup {g^(m t)} of the multiplicative group, g a
    generator of GF(q^2)*: (q^2 - 1)/m points, sorted in canonical element
    order."""
    o = field.order - 1
    if m < 1 or o % m != 0:
        raise NotADivisorError(f"m = {m} does not divide the group order {o}")
    powers = field.pow_array(field.primitive_element(), np.arange(0, o, m))
    return tuple(np.sort(powers).tolist())


def subgroup_union_eval_set(field: Field, m1: int, m2: int) -> tuple[int, ...]:
    """Union of the index-m1 and index-m2 subgroups, canonically sorted.

    For coprime m1, m2 the size is (q^2-1)/m1 + (q^2-1)/m2 - (q^2-1)/(m1 m2).
    """
    a = set(subgroup_eval_set(field, m1))
    b = set(subgroup_eval_set(field, m2))
    return tuple(sorted(a | b))


# ---------------------------------------------------------------------------
# the multiplier solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierProblem:
    """Find multipliers making GRS_k(eval_points) Hermitian self-orthogonal."""

    field: Field
    eval_points: tuple[int, ...]
    k: int
    extended: bool = False


@dataclass(frozen=True)
class MultiplierSearch:
    """Solver outcome: a verified GrsSpec, a sound nonexistence, or a budget miss."""

    status: str
    grs: GrsSpec | None
    null_dim: int
    attempts: int

    @property
    def found(self) -> bool:
        return self.status == STATUS_FOUND


def _orthogonality_system(problem: MultiplierProblem) -> FieldMatrix:
    """The GF(q)-linear system on w_l = v_l^(q+1), two rows per (i, j) pair.

    Each GF(q^2) equation sum_l w_l a_l^(i+jq) = 0 splits along the basis
    {1, x} into two subfield-coefficient equations: z = z0 + z1 x with
    z1 = (z - z^q)/(x - x^q) and z0 = z - z1 x.  The extension column
    adds an unknown w_inf appearing only in the (k-1, k-1) equation.
    """
    f, k = problem.field, problem.k
    pts = np.array(problem.eval_points, dtype=np.int64)
    exponents = np.arange(k)[:, None] + f.subfield_order * np.arange(k)  # i + jq
    z = f.pow_array(pts, exponents.reshape(-1, 1))  # row i*k + j holds a_l^(i+jq)
    x = f.extension_generator()
    dz, dx = (f.add_array(a, f.neg_array(f.conj_array(a))) for a in (z, x))  # z - z^q, x - x^q
    z1 = f.mul_array(dz, f.inv(dx))
    z0 = f.add_array(z, f.neg_array(f.mul_array(z1, x)))
    ncols = len(pts) + (1 if problem.extended else 0)
    system = np.zeros((k * k, 2, ncols), dtype=np.int64)
    system[:, 0, : len(pts)], system[:, 1, : len(pts)] = z0, z1
    if problem.extended:
        system[-1, 0, -1] = 1
    return FieldMatrix(f, system.reshape(2 * k * k, ncols))


def _all_nonzero_combination(
    field: Field, basis: np.ndarray, seed: int
) -> tuple[np.ndarray | None, int, bool]:
    """Search GF(q)-combinations of basis rows for an all-nonzero vector.

    Coefficient vector number i has base-q digit t as the coefficient of
    row t.  Row t is 1 on its free column and 0 on the other free columns,
    so w[free_t] is coefficient t: a zero digit rules the vector out, and
    only all-nonzero digit vectors are evaluated, on the bound columns.
    The ordered scans take them by increasing i (the smallest is
    (q^nu - 1)/(q - 1), so a smaller prefix budget is skipped).  Two seeded
    random passes follow: the first draws digits from 0..q-1 and evaluates
    the all-nonzero draws, a share of about ((q - 1)/q)^nu; the second
    draws every digit from 1..q-1, so each draw is evaluated.  Each draw
    is filtered and evaluated before the next is made, and the search
    stops at the first hit.  A pass draws _FIRST_DRAW rows first and then
    as many rows as it has drawn, up to _CHUNK: its first chunk, where a
    solvable system usually has its hit, comes in five sub-chunks, and
    every later chunk whole, so a pass that finds nothing makes only four
    calls more than one draw per chunk would.  For q < 2^32
    each digit takes one 32-bit output of the generator (Lemire's bounded
    draw redraws only on a rejection), and the generator keeps the spare
    half of a 64-bit output in its state, so the digits, and the hit, are
    those of one draw per chunk.

    Returns (vector or None, attempts, exhausted).  ``attempts`` counts the
    indices ruled out, evaluated or not, up to the end of the _CHUNK-sized
    chunk holding the hit, in the random passes as in the scans;
    ``exhausted`` means every nonzero coefficient vector was ruled out, so
    None is a proof of absence.
    """
    nu, ncols = basis.shape
    q_sub, subfield_els = field.subfield_order, field.subfield_elements
    free = [int(np.flatnonzero(row)[-1]) for row in basis]
    if not np.array_equal(basis[:, free], np.eye(nu, dtype=np.int64)):
        raise VerificationFailedError("null-space basis is not the identity on its free columns")
    bound = np.setdiff1d(np.arange(ncols), free)
    bound_rows = FieldMatrix(field, basis[:, bound])

    def evaluate(digits: np.ndarray) -> tuple[int, np.ndarray] | None:
        """First row of all-nonzero digits whose combination has no zero entry."""
        coeff = subfield_els[digits]
        w = matmul(FieldMatrix._trusted(field, coeff), bound_rows).data
        hits = np.flatnonzero(np.all(w != 0, axis=1))
        if not hits.size:
            return None
        r = int(hits[0])
        full = np.empty(ncols, dtype=np.int64)
        full[free] = coeff[r]
        full[bound] = w[r]
        return r, full

    def ordered(stop: int) -> tuple[np.ndarray | None, int]:
        """Scan the all-nonzero indices below ``stop`` in increasing order."""
        weights = q_sub ** np.arange(nu, dtype=np.int64)
        count = (q_sub - 1) ** nu
        for j0 in range(0, count, _CHUNK):
            rem = np.arange(j0, min(j0 + _CHUNK, count), dtype=np.int64)
            digits = digit_columns(rem, q_sub - 1, nu) + 1
            idx = digits @ weights
            keep = idx < stop
            found = evaluate(digits[keep])
            if found is not None:
                i = int(idx[found[0]])
                return found[1], min((i - 1) // _CHUNK * _CHUNK + _CHUNK, stop - 1)
            if not keep[-1]:
                break
        return None, stop - 1

    total = q_sub**nu
    if total <= EXHAUSTIVE_SCAN_LIMIT:
        w, attempts = ordered(total)
        return w, attempts, True
    prefix = min(PREFIX_SCAN_BUDGET, total - 1)
    # the smallest all-nonzero index; past the prefix there is nothing to
    # scan, and below it q^nu also fits the int64 index arithmetic
    if (total - 1) // (q_sub - 1) <= prefix:
        w, attempts = ordered(prefix + 1)
        if w is not None:
            return w, attempts, False
    attempts = prefix
    rng = np.random.default_rng(seed)
    for low in (0, 1):
        drawn = 0
        while drawn < RANDOM_BUDGET:
            take = min(max(drawn, _FIRST_DRAW), _CHUNK, RANDOM_BUDGET - drawn)
            digits = rng.integers(low, q_sub, size=(take, nu))
            drawn += take
            found = evaluate(digits[np.all(digits != 0, axis=1)])
            if found is not None:
                chunk_end = min(-(-drawn // _CHUNK) * _CHUNK, RANDOM_BUDGET)
                return found[1], attempts + chunk_end, False
        attempts += RANDOM_BUDGET
    return None, attempts, False


def _check_solver_length(n: int) -> None:
    """Refuse a code of length n longer than MAX_SOLVER_LENGTH."""
    if n > MAX_SOLVER_LENGTH:
        raise CapExceededError(f"length {n} exceeds the solver's length bound {MAX_SOLVER_LENGTH}")


def solve_multipliers(problem: MultiplierProblem, seed: int = DEFAULT_SEED) -> MultiplierSearch:
    """Search for multipliers making the GRS code Hermitian self-orthogonal.

    The subfield-valued unknowns w_l are found in the null space of the
    orthogonality system; each is then lifted to v_l through a norm
    preimage.  The returned code is always re-verified.  Codes longer than
    MAX_SOLVER_LENGTH are refused before the system is built, and so are
    points that GrsSpec would refuse: "no-solution" is about the points given.
    """
    f = problem.field
    _check_solver_length(len(problem.eval_points) + (1 if problem.extended else 0))
    pts = _points(f, problem.eval_points)
    if problem.k < 1:
        raise BadDimensionError("k must be at least 1")
    system = _orthogonality_system(problem)
    basis = null_space(system)
    if np.any(f.conj_array(basis.data) != basis.data):
        raise VerificationFailedError("null-space basis left the subfield")  # pragma: no cover
    nu = basis.rows
    if nu == 0:
        return MultiplierSearch(STATUS_NO_SOLUTION, None, 0, 0)
    w, attempts, exhausted = _all_nonzero_combination(f, basis.data, seed)
    if w is None:
        status = STATUS_NO_SOLUTION if exhausted else STATUS_NOT_FOUND
        return MultiplierSearch(status, None, nu, attempts)
    mults = f.norm_preimage_array(w)
    if np.any(f.pow_array(mults, f.subfield_order + 1) != w):
        raise VerificationFailedError("norm preimage lift failed")
    spec = GrsSpec(
        field=f, eval_points=pts, multipliers=tuple(mults.tolist()), k=problem.k,
        extended=problem.extended,
    )
    if not is_hermitian_self_orthogonal(spec.code()):
        raise VerificationFailedError("solver output failed the self-orthogonality re-check")
    return MultiplierSearch(STATUS_FOUND, spec, nu, attempts)


# ---------------------------------------------------------------------------
# family driver
# ---------------------------------------------------------------------------

#: Each family and the parameters it needs; giving it any other is an error.
_FAMILY_PARAMS = {
    "full-field": (),
    "q2plus1": (),
    "trace-poly": ("g",),
    "subgroup": ("m",),
    "two-subgroup": ("m1", "m2"),
    "even-subgroup": ("m",),
}
FAMILIES = tuple(_FAMILY_PARAMS)


def _even_subgroup_bound(q: int, m: int) -> int:
    """Largest k of the even-subgroup family, (q+1)/2 + 2^(H-h1) (a/a1) - 1,
    where q - 1 = 2^H a and m = 2^h1 a1 with a, a1 odd; m | q - 1."""
    big_h = ((q - 1) & -(q - 1)).bit_length() - 1  # the 2-adic valuations H and h1
    h1 = (m & -m).bit_length() - 1
    return (q + 1) // 2 + 2 ** (big_h - h1) * (((q - 1) >> big_h) // (m >> h1)) - 1


def construct_family(
    field: Field,
    family: str,
    *,
    k: int,
    m: int | None = None,
    m1: int | None = None,
    m2: int | None = None,
    g: Sequence[int] | None = None,
    seed: int = DEFAULT_SEED,
) -> MultiplierSearch:
    """Build the evaluation set for a named family and run the solver.

    Family parameters are validated against the family's constraints
    before any search starts; the family must get exactly the parameters
    _FAMILY_PARAMS lists for it.  Every solver family but trace-poly has a
    length that follows from q and m (or m1, m2), so a set longer than
    MAX_SOLVER_LENGTH is refused before it is built, and before the field's
    tables are.  A found code is re-verified Hermitian self-orthogonal and
    MDS (dual distance k + 1).  Every family output is GRS, so
    dual_min_distance's Cauchy-structure certificate answers the MDS check;
    were it ever to refuse, the column-subset search or the dual
    enumeration (under the default cap) would decide, and a check that
    cannot finish raises TooLargeToEnumerateError rather than being skipped.
    """
    q = field.subfield_order
    if k < 1:
        raise BadFamilyParamsError("k must be at least 1")
    if family not in _FAMILY_PARAMS:
        raise BadFamilyParamsError(f"unknown family {family!r}; choose from {FAMILIES}")
    given = {"m": m, "m1": m1, "m2": m2, "g": g}
    foreign = [p for p, v in given.items() if v is not None and p not in _FAMILY_PARAMS[family]]
    if foreign:
        raise BadFamilyParamsError(f"the {family} family takes no {', '.join(foreign)}")
    missing = [p for p in _FAMILY_PARAMS[family] if given[p] is None]
    if missing:
        raise BadFamilyParamsError(f"the {family} family needs {' and '.join(missing)}")
    if family == "q2plus1":
        if k > q or k == q - 1:
            raise BadFamilyParamsError(f"needs 1 <= k <= q = {q} and k != q-1")
        _check_solver_length(field.order + 1)
        pts = tuple(field.elements())
    elif family == "trace-poly":
        if k > q - 1:
            raise BadFamilyParamsError(f"needs k <= q-1 = {q - 1}")
        deg = len(_coefficients(field, g)) - 1
        if deg > (q - k) * q - 1:
            raise BadFamilyParamsError(f"deg g = {deg} exceeds (q-k)q-1 = {(q - k) * q - 1}")
        pts = trace_nonzero_eval_set(field, g)
        if len(pts) < max(k, 1):
            raise BadFamilyParamsError("evaluation set smaller than k")
    elif family == "subgroup":
        if m % 2 == 0 or (q + 1) % m != 0:
            raise BadFamilyParamsError(f"m = {m} must be an odd divisor of q+1 = {q + 1}")
        k0 = (m - 1) // 2
        if not k * m < (k0 + 1) * (q - 1):
            raise BadFamilyParamsError(
                f"dimension w = {k} violates w < (k0+1)(q-1)/m with k0 = {k0}"
            )
        _check_solver_length((field.order - 1) // m)
        pts = subgroup_eval_set(field, m)
    elif family == "two-subgroup":
        if m1 % 2 == 0 or m2 % 2 == 0:
            raise BadFamilyParamsError("m1, m2 must be odd")
        if (q + 1) % m1 != 0 or (q + 1) % m2 != 0:
            raise BadFamilyParamsError(f"m1, m2 must divide q+1 = {q + 1}")
        if math.gcd(m1, m2) != 1:
            raise BadFamilyParamsError("m1 and m2 must be coprime")
        if 2 * k > q - 1:
            raise BadFamilyParamsError(f"needs k <= (q-1)/2 = {(q - 1) / 2:g}")
        o = field.order - 1
        _check_solver_length(o // m1 + o // m2 - o // (m1 * m2))
        pts = subgroup_union_eval_set(field, m1, m2)
    elif family == "even-subgroup":
        if q % 2 == 0 or m % 2 != 0 or m < 6 or (q - 1) % m != 0:
            raise BadFamilyParamsError(
                f"m = {m} must be an even divisor >= 6 of q-1 = {q - 1} with q odd"
            )
        bound = _even_subgroup_bound(q, m)
        if k > bound:
            raise BadFamilyParamsError(f"needs k <= {bound}")
        _check_solver_length((field.order - 1) // m)
        pts = subgroup_eval_set(field, m)
    if family == "full-field":
        result = MultiplierSearch(STATUS_FOUND, full_field_rs(field, k), 0, 0)
    else:
        problem = MultiplierProblem(field, pts, k, extended=family == "q2plus1")
        result = solve_multipliers(problem, seed)
    if result.found and not is_mds(result.grs.code()):
        raise VerificationFailedError("family output is not MDS")
    return result
