"""Dialing the hull dimension of a code.

All three transforms are one step, the paper's main theorem.  Write a
basis of the hull as (I_h | P1 | P2) with P1 nonsingular, complete it to a
generator with rows that vanish on the first h coordinates, and scale the
first h - target coordinates by constants x with x^(p^sigma + 1) != 1,
where a -> a^(p^sigma) is the form's twist: sigma = e/2 (so p^sigma = q)
for the Hermitian form and l for the l-Galois form.  Gram entry (i, i) of
hull row i becomes x_i^(p^sigma + 1) - 1 and every other Gram entry keeps
its value, so the hull drops to exactly the target.

One core, keyed by the form (kind, l), serves dial_hull, dial_galois_hull,
reduce_hull and the EAQEC sweep.  One Gram matrix G sigma(G)^T is zero for
a self-orthogonal code, whose hull G spans; else leftnull(G sigma(G)^T) G
spans it, and only reduce_hull and the sweep go on.  The span is reduced
only in the arrangement (a row space has one reduced echelon form).  P1's
columns are the pivots of P, found on growing column prefixes of P: h
columns, then 2h, 4h, ..., and finally all of P.  The leftmost pivots of a
prefix are the leftmost pivots of P, so once a prefix holds h of them the
rest of P is never reduced.  For an MDS code (every GRS code is one) the
first h x h block is already P1.  The scaling gets only sigma; one
arrangement of the basis and one run of constants serve every target, and
each target below h gets its own scaled generator G and its own Gram
matrix G sigma(G)^T, so its hull dimension k - rank(G sigma(G)^T) is
measured on that output; a missed target is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BadTargetError,
    NotSelfOrthogonalError,
    RankDeficientError,
    SmallFieldError,
    VerificationFailedError,
)
from .code import LinearCode, _frobenius_index, _hull_span
from .field import digit_columns
from .matrix import (
    FieldMatrix,
    _columns_first,
    _scale_columns,
    frobenius_entrywise,
    matmul,
    rank,
    rref,
    standard_form,
    transpose,
)


@dataclass(frozen=True)
class DialResult:
    """Outcome of a hull transform.

    ``code`` is the scaled, permuted code; ``v`` the applied weight vector
    (in the permuted coordinate order); ``perm`` maps output coordinate j
    to input coordinate perm[j]; ``lambdas`` are the scaling constants
    placed on the leading coordinates.
    """

    code: LinearCode
    v: tuple[int, ...]
    perm: tuple[int, ...]
    target_h: int
    achieved_h: int
    lambdas: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "code": self.code.to_dict(),
            "v": digit_columns(self.v, self.code.field.p, self.code.field.e).tolist(),
            "perm": list(self.perm),
            "target_h": self.target_h,
            "achieved_h": self.achieved_h,
        }


def arrange_p1_nonsingular(
    c: LinearCode, basis: FieldMatrix
) -> tuple[LinearCode, tuple[int, ...]]:
    """Permutation-equivalent code with generator (I_h | P1 | P2 ; 0 | R).

    ``basis`` holds h independent codewords of c that span a self-orthogonal
    space.  The first h rows are their reduced echelon form, pivots first;
    P1 is formed by the pivot columns of P, the columns a greedy
    left-to-right scan would keep, and is nonsingular.  They are read off
    the reduced echelon forms of P's first h, 2h, 4h, ... columns, up to
    all of P, stopping at the first prefix with h pivots; a P of rank below
    h is refused once the whole of it is reduced.  The k - h rows below
    complete the generator and vanish on the first h coordinates.  A basis
    already in that shape comes back with the identity permutation.
    """
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
    P, width = lead.data[:, h:], h
    while True:  # the pivots of a prefix of P holding h of them are P's pivots
        _, chosen = rref(FieldMatrix._trusted(field, P[:, :width]))
        if len(chosen) == h or width >= n - h:
            break
        width *= 2
    if len(chosen) < h:
        raise RankDeficientError("P has rank below h; the basis is not self-orthogonal")
    perm2 = _columns_first([*range(h), *(h + j for j in chosen)], n)
    return (
        LinearCode(field, FieldMatrix._trusted(field, rows[:, perm2]), check=False),
        tuple(np.array(perm1)[perm2].tolist()),
    )


def _scale_down(
    c: LinearCode, basis: FieldMatrix, targets: Iterable[int], sigma: int
) -> list[DialResult]:
    """Scale c so that its hull under a -> a^(p^sigma), spanned by ``basis``, drops to each target.

    Target t takes the first h - t of one prefix-stable run of constants x
    with x^(p^sigma + 1) != 1.  Every target below h is dialed from one
    arrangement of the basis, in turn: its scaled generator G and its Gram
    matrix G sigma(G)^T are formed, and its hull dimension
    k - rank(G sigma(G)^T) is measured on that output; a missed target is
    refused.
    """
    field, h, n = c.field, basis.rows, c.n
    lower = list(dict.fromkeys(t for t in targets if t != h))
    dialed = {}
    if lower:
        arranged, perm = arrange_p1_nonsingular(c, basis)
        constants = field.find_power_non_one(field.p**sigma + 1, h - min(lower))
        for target in lower:
            lambdas = constants[: h - target]
            v = lambdas + (1,) * (n - len(lambdas))
            gen = _scale_columns(arranged.gen, v)
            achieved = c.k - rank(matmul(gen, transpose(frobenius_entrywise(gen, sigma))))
            if achieved != target:
                raise VerificationFailedError(
                    f"scaling reached hull dimension {achieved}, wanted {target}"
                )
            out = LinearCode(field, gen, check=False)
            dialed[target] = DialResult(out, v, perm, target, achieved, lambdas)
    # target h is already verified: basis spans the hull, measured from
    # the Gram matrix of c by its caller
    unchanged = DialResult(c, (1,) * n, tuple(range(n)), h, h, ())
    return [dialed.get(target, unchanged) for target in targets]


def _dials(
    c: LinearCode, kind: str, l: int | None, targets: Iterable[int] | None, refuse: str = ""
) -> list[DialResult]:
    """The one transform behind every dial, for the form (kind, l) of code.hull.

    One Gram matrix G sigma(G)^T gives the rows that span the hull: G when
    it is zero (c is self-orthogonal), else leftnull(G sigma(G)^T) G, or
    NotSelfOrthogonalError(refuse) when ``refuse`` is set.  Targets run
    from 0 to the hull dimension, by default all of them.
    """
    basis, sigma_gt = _hull_span(c, kind, l)
    if basis is not c.gen:
        if refuse:
            raise NotSelfOrthogonalError(refuse)
        # hull()'s checks, on the span itself (its reduction is the one the
        # arrangement reuses)
        if rank(basis) != basis.rows or (basis.rows and np.any(matmul(basis, sigma_gt).data)):
            raise VerificationFailedError(
                "hull span is not the left null space of the Gram matrix"
            )  # pragma: no cover
    h = basis.rows
    targets = range(h + 1) if targets is None else list(targets)
    for target in targets:
        if not 0 <= target <= h:
            raise BadTargetError(f"target hull dimension {target} outside [0, {h}]")
    field, sigma = c.field, _frobenius_index(c.field, kind, l)
    exponent = field.p**sigma + 1
    if min(targets, default=h) < h and exponent % (field.order - 1) == 0:
        raise SmallFieldError(f"no x in GF({field.order}) has x^{exponent} != 1 to scale by")
    return _scale_down(c, basis, targets, sigma)


def dial_hull(c: LinearCode, h: int) -> DialResult:
    """Equivalent code with Hermitian hull dimension exactly h, 0 <= h <= k.

    The input must be Hermitian self-orthogonal.  h = k returns the input
    unchanged under an all-ones weight vector.  The base field GF(q) must
    have q >= 3 whenever an actual scaling is needed, since the scaling
    constants must have norm different from 1.
    """
    return _dials(c, "hermitian", None, [h], "dial_hull needs a Hermitian self-orthogonal code")[0]


def dial_galois_hull(c: LinearCode, h: int, l: int) -> DialResult:
    """l-Galois variant of dial_hull for codes with C contained in C^perp_l.

    The scaling constants must satisfy x^(p^l + 1) != 1; if no such element
    exists in the field, SmallFieldError is raised before the arrangement,
    as for dial_hull (this is the exact condition the construction needs,
    rather than a blanket q >= 3 rule).
    """
    return _dials(c, "galois", l, [h], f"dial_galois_hull needs C inside its {l}-Galois dual")[0]


def reduce_hull(c: LinearCode, l_prime: int) -> DialResult:
    """Equivalent code whose Hermitian hull dimension drops to l_prime.

    Works for any linear code over GF(q^2), from 0 up to its measured hull
    dimension: the same scaling as dial_hull, applied to the rows
    leftnull(G sigma(G)^T) G that span the hull in place of the whole code.
    On a self-orthogonal code the two give the same result.
    """
    return _dials(c, "hermitian", None, [l_prime])[0]
