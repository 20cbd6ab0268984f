"""Dialing the hull dimension of a self-orthogonal code.

A Hermitian self-orthogonal [n, k] code over GF(q^2) is equivalent, via
coordinate permutation plus multiplication by a full-weight vector, to a
code whose Hermitian hull has any prescribed dimension h in [0, k].  The
transform arranges the generator as (I_k | P1 | P2) with P1 nonsingular,
then scales the first k - h coordinates by constants whose norm differs
from 1.  The same mechanics cover the general l-Galois form, and a hull
of an arbitrary code can be reduced from its measured dimension to any
smaller target by scaling coordinates of a hull-adapted basis.

Every public transform re-measures the hull of its output and refuses to
return a result that misses the target, so the module is self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadTargetError,
    DimensionTooLargeError,
    LengthTooShortError,
    NotSelfOrthogonalError,
    RankDeficientError,
    ShapeMismatchError,
    SmallFieldError,
    VerificationFailedError,
)
from .field import Field
from .code import (
    LinearCode,
    code_standard_form,
    hull,
    is_galois_self_orthogonal,
    is_hermitian_self_orthogonal,
    scale,
    weight_vector_inverse_conj,
)
from .matrix import (
    FieldMatrix,
    frobenius_entrywise,
    hstack,
    matmul,
    rank,
    rref,
    scale_columns,
    transpose,
)

#: How many alternative scaling-constant tuples the hull reducer tries
#: before declaring an internal inconsistency.
REDUCE_RETRY_LIMIT = 24

LambdaSource = Callable[[Field, int, int], Sequence[int]]


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
            "v": [list(self.code.field.coeffs(x)) for x in self.v],
            "perm": list(self.perm),
            "target_h": self.target_h,
            "achieved_h": self.achieved_h,
        }


def canonical_lambda_source(field: Field, count: int, exponent: int) -> tuple[int, ...]:
    """First ``count`` elements with x**exponent != 1, canonical order."""
    return field.find_power_non_one(exponent, count)


def seeded_lambda_source(seed: int) -> LambdaSource:
    """A reproducible random alternative to the canonical constants."""

    def source(field: Field, count: int, exponent: int) -> tuple[int, ...]:
        qualifiers = [a for a in range(1, field.order) if field.pow(a, exponent) != 1]
        if not qualifiers:
            return field.find_power_non_one(exponent, count)  # raises
        rng = np.random.default_rng(seed)
        return tuple(qualifiers[int(i)] for i in rng.integers(0, len(qualifiers), count))

    return source


def _validated_lambdas(
    field: Field, count: int, exponent: int, source: LambdaSource | None
) -> tuple[int, ...]:
    fn = source or canonical_lambda_source
    lambdas = tuple(int(x) for x in fn(field, count, exponent))
    if len(lambdas) != count:
        raise ValueError(f"lambda source returned {len(lambdas)} values, wanted {count}")
    for x in lambdas:
        if x == 0 or field.pow(x, exponent) == 1:
            raise ValueError(f"lambda {x} violates x^{exponent} != 1")
    return lambdas


# ---------------------------------------------------------------------------
# standard-form structure
# ---------------------------------------------------------------------------


def verify_standard_form_gram(c: LinearCode, l: int | None = None) -> FieldMatrix:
    """Standardise a self-orthogonal code and return the P of (I_k | P).

    Checks the structural identity P @ sigma(P)^T = -I_k and that P has
    full rank k; both follow from self-orthogonality and double as an
    input-consistency check.
    """
    field = c.field
    sigma_l = field.e // 2 if l is None else l
    if l is None:
        if not is_hermitian_self_orthogonal(c):
            raise NotSelfOrthogonalError("code is not Hermitian self-orthogonal")
    elif not is_galois_self_orthogonal(c, l):
        raise NotSelfOrthogonalError(f"code is not {l}-Galois self-orthogonal")
    if c.k > c.n - c.k:
        raise DimensionTooLargeError(
            f"k = {c.k} > n - k = {c.n - c.k} contradicts self-orthogonality"
        )
    if c.k == 0:
        return FieldMatrix.zeros(field, 0, c.n)
    sf, _ = code_standard_form(c)
    P = FieldMatrix(field, sf.gen.data[:, c.k :])
    gram = matmul(P, transpose(frobenius_entrywise(P, sigma_l)))
    minus_identity = FieldMatrix(field, field.neg(1) * np.eye(c.k, dtype=np.int64))
    if gram != minus_identity:
        raise VerificationFailedError("P @ sigma(P)^T != -I_k on a self-orthogonal input")
    if rank(P) != c.k:
        raise RankDeficientError("P is rank deficient")  # pragma: no cover
    return P


def arrange_p1_nonsingular(c: LinearCode) -> tuple[LinearCode, tuple[int, ...]]:
    """Permutation-equivalent code with generator (I_k | P1 | P2), P1 nonsingular.

    P1 is formed by the pivot columns of rref(P), which are the columns a
    greedy left-to-right scan would keep, so the arrangement is
    deterministic; an input already in that shape comes back with the
    identity permutation.
    """
    k, n = c.k, c.n
    if n < 2 * k:
        raise LengthTooShortError(f"need n >= 2k, got n = {n}, k = {k}")
    sf, perm1 = code_standard_form(c)
    if k == 0:
        return sf, perm1
    _, chosen = rref(FieldMatrix(c.field, sf.gen.data[:, k:]))
    if len(chosen) < k:
        raise RankDeficientError(
            "P has rank below k; the input cannot be self-orthogonal"
        )
    rest = [j for j in range(n - k) if j not in set(chosen)]
    perm2 = list(range(k)) + [k + j for j in chosen] + [k + j for j in rest]
    gen = FieldMatrix(c.field, sf.gen.data[:, perm2])
    perm_total = tuple(perm1[j] for j in perm2)
    return LinearCode(c.field, gen, check=False), perm_total


# ---------------------------------------------------------------------------
# the dial
# ---------------------------------------------------------------------------


def _identity_result(c: LinearCode, h: int, kind: str, l: int | None) -> DialResult:
    achieved = hull(c, kind, l).dim
    if achieved != h:
        raise VerificationFailedError(
            f"hull dimension {achieved} != k on a self-orthogonal input"
        )  # pragma: no cover
    return DialResult(
        code=c,
        v=(1,) * c.n,
        perm=tuple(range(c.n)),
        target_h=h,
        achieved_h=achieved,
        lambdas=(),
    )


def _dial(
    c: LinearCode,
    h: int,
    kind: str,
    l: int | None,
    exponent: int,
    lambda_source: LambdaSource | None,
) -> DialResult:
    if not 0 <= h <= c.k:
        raise BadTargetError(f"target hull dimension {h} outside [0, {c.k}]")
    if h == c.k:
        return _identity_result(c, h, kind, l)
    m = c.k - h
    arranged, perm = arrange_p1_nonsingular(c)
    lambdas = _validated_lambdas(c.field, m, exponent, lambda_source)
    v = lambdas + (1,) * (c.n - m)
    out = scale(arranged, v)
    achieved = hull(out, kind, l).dim
    if achieved != h:
        raise VerificationFailedError(
            f"dial produced hull dimension {achieved}, wanted {h}"
        )
    return DialResult(code=out, v=v, perm=perm, target_h=h, achieved_h=achieved, lambdas=lambdas)


def dial_hull(c: LinearCode, h: int, lambda_source: LambdaSource | None = None) -> DialResult:
    """Equivalent code with Hermitian hull dimension exactly h, 0 <= h <= k.

    The input must be Hermitian self-orthogonal.  h = k returns the input
    unchanged under an all-ones weight vector.  The base field GF(q) must
    have q >= 3 whenever an actual scaling is needed, since the scaling
    constants must have norm different from 1.
    """
    if not is_hermitian_self_orthogonal(c):
        raise NotSelfOrthogonalError("dial_hull needs a Hermitian self-orthogonal code")
    q = c.field.subfield_order
    if not 0 <= h <= c.k:
        raise BadTargetError(f"target hull dimension {h} outside [0, {c.k}]")
    if h < c.k and q == 2:
        raise SmallFieldError("GF(4) has no element of norm != 1; need q >= 3")
    return _dial(c, h, "hermitian", None, q + 1, lambda_source)


def dial_galois_hull(
    c: LinearCode, h: int, l: int, lambda_source: LambdaSource | None = None
) -> DialResult:
    """l-Galois variant of dial_hull for codes with C contained in C^perp_l.

    The scaling constants must satisfy x^(p^l + 1) != 1; if no such element
    exists in the field, NoSuchElementError is raised (this is the exact
    condition the construction needs, rather than a blanket q >= 3 rule).
    """
    if not is_galois_self_orthogonal(c, l):
        raise NotSelfOrthogonalError(f"dial_galois_hull needs C inside its {l}-Galois dual")
    exponent = c.field.p**l + 1
    return _dial(c, h, "galois", l, exponent, lambda_source)


def reduce_hull(
    c: LinearCode, l_prime: int, lambda_source: LambdaSource | None = None
) -> DialResult:
    """Equivalent code whose Hermitian hull dimension drops to l_prime.

    Works for any linear code over GF(q^2): the generator is rebuilt so its
    first rows are a hull basis in (I_l | P) shape with a nonsingular
    leading block of P, and the leading l - l_prime hull coordinates are
    scaled by norm-non-1 constants.  The result is re-measured; a few
    alternative constant choices are tried before giving up.
    """
    field = c.field
    rep = hull(c, "hermitian")
    l = rep.dim
    if not 0 <= l_prime <= l:
        raise BadTargetError(f"target {l_prime} outside [0, measured hull dim {l}]")
    if l_prime == l:
        return DialResult(
            code=c,
            v=(1,) * c.n,
            perm=tuple(range(c.n)),
            target_h=l_prime,
            achieved_h=l,
            lambdas=(),
        )
    q = field.subfield_order
    if q == 2:
        raise SmallFieldError("GF(4) has no element of norm != 1; need q >= 3")
    m = l - l_prime

    # Hull-adapted generator: first l rows a hull basis, echelon on its pivots.
    Rh, piv_h = rref(rep.basis)
    piv_set = set(piv_h)
    perm1 = list(piv_h) + [j for j in range(c.n) if j not in piv_set]
    hull_p = Rh.data[:, perm1]  # (I_l | P)
    gen_p = c.gen.data[:, perm1]
    # complement rows: clear the hull-pivot coordinates, keep independent rows.
    # With A = gen_p[:, :l], gen_p - A @ hull_p vanishes there because
    # hull_p[:, :l] = I_l; it is the one product (I_k | -A) @ (gen_p ; hull_p).
    minus_lead = scale_columns(FieldMatrix(field, gen_p[:, :l]), (field.neg(1),) * l)
    comp = matmul(
        hstack(FieldMatrix.identity(field, c.k), minus_lead),
        FieldMatrix(field, np.vstack([gen_p, hull_p])),
    )
    comp_r, comp_piv = rref(comp)
    ext = comp_r.data[: len(comp_piv)]
    if l + len(comp_piv) != c.k:
        raise VerificationFailedError("hull basis extension lost rank")  # pragma: no cover
    gen1 = np.vstack([hull_p, ext])

    # arrange a nonsingular l x l block right after the hull identity
    _, chosen = rref(FieldMatrix(field, hull_p[:, l:]))
    if len(chosen) < l:
        raise RankDeficientError("hull block P is rank deficient")  # pragma: no cover
    rest = [j for j in range(c.n - l) if j not in set(chosen)]
    perm2 = list(range(l)) + [l + j for j in chosen] + [l + j for j in rest]
    arranged = LinearCode(field, FieldMatrix(field, gen1[:, perm2]), check=False)
    perm_total = tuple(perm1[j] for j in perm2)

    qualifiers = [a for a in range(1, field.order) if field.pow(a, q + 1) != 1]
    attempts: list[tuple[int, ...]] = []
    if lambda_source is not None:
        attempts.append(_validated_lambdas(field, m, q + 1, lambda_source))
    for t in range(min(REDUCE_RETRY_LIMIT, len(qualifiers))):
        attempts.append(tuple(qualifiers[(i + t) % len(qualifiers)] for i in range(m)))
    last_achieved = None
    for lambdas in attempts:
        v = lambdas + (1,) * (c.n - m)
        out = scale(arranged, v)
        achieved = hull(out, "hermitian").dim
        if achieved == l_prime:
            return DialResult(
                code=out, v=v, perm=perm_total, target_h=l_prime, achieved_h=achieved,
                lambdas=lambdas,
            )
        last_achieved = achieved
    raise VerificationFailedError(
        f"hull reduction reached dimension {last_achieved}, wanted {l_prime}"
    )


# ---------------------------------------------------------------------------
# structural diagnostic
# ---------------------------------------------------------------------------


def dual_block_generator(arranged: LinearCode, v: Sequence[int]) -> FieldMatrix:
    """Block generator of the dual of the scaled code, built structurally.

    ``arranged`` must have generator (I_k | P1 | P2) with P1 nonsingular and
    be Hermitian self-orthogonal; ``v`` is the weight vector applied to it.
    Returns the matrix

        [ D        P1            P2          ]
        [ -conj(P2)^T @ D   0    I_(n - 2k) ]

    with D = diag(v)^(-q), which generates the Hermitian dual of
    scale(arranged, v).  Used by tests to confirm the block mechanics: its
    row space equals the computed dual, and its rows k-h .. k-1 coincide
    with the scaled generator's rows whenever v ends in ones there.
    """
    field = arranged.field
    k, n = arranged.k, arranged.n
    if len(v) != n:
        raise ShapeMismatchError("weight vector length != n")
    if not np.array_equal(arranged.gen.data[:, :k], np.eye(k, dtype=np.int64)):
        raise ValueError("generator is not in (I_k | P) form")
    if any(x != 1 for x in v[k:]):
        raise ValueError("block form needs v to be all ones past the first k coordinates")
    vinvq = weight_vector_inverse_conj(field, v)
    P1 = arranged.gen.data[:, k : 2 * k]
    P2 = arranged.gen.data[:, 2 * k :]
    D = np.diag(np.array(vinvq[:k], dtype=np.int64))
    top = np.hstack([D, P1, P2])
    if n - 2 * k > 0:
        # -conj(P2)^T @ D scales column j of conj(P2)^T by -D[j, j]
        bottom_left = scale_columns(
            transpose(frobenius_entrywise(FieldMatrix(field, P2), field.e // 2)),
            [field.neg(x) for x in vinvq[:k]],
        ).data
        bottom = np.hstack(
            [
                bottom_left,
                np.zeros((n - 2 * k, k), dtype=np.int64),
                np.eye(n - 2 * k, dtype=np.int64),
            ]
        )
        blocks = np.vstack([top, bottom])
    else:
        blocks = top
    return FieldMatrix(field, blocks)
