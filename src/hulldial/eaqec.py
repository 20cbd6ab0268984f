"""Entanglement-assisted quantum code parameters from classical codes.

A classical [n, k, d] code over GF(q^2) whose Hermitian hull has dimension
h yields two parameter sets: [[n, k-h, d, n-k-h]]_q and
[[n, n-k-h, d_dual, k-h]]_q, where the last entry counts the pre-shared
entangled pairs consumed.  The quantum Singleton bound
2d + k_q <= n + c + 2 applies when d <= (n+2)/2; records attaining it with
the gate satisfied are MDS.  Records violating the gate are never labelled
MDS or non-MDS, only gate-failed.

Hull dialing turns one k-dimensional self-orthogonal witness into the
whole sweep l = 0..k of derived records with distinct consumption
parameters.  The table enumerator reproduces the known parameter families
at the formula level (witnessed=False) with every emitted record checked
for exact Singleton equality.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .errors import (
    BadFieldError,
    BadTargetError,
    CapExceededError,
    HulldialError,
    HullMismatchError,
    NotSelfOrthogonalError,
    VerificationFailedError,
)
from .field import FIELD_ORDER_CAP, factorize
from .code import (
    LinearCode,
    dual_min_distance,
    hull,
    is_hermitian_self_orthogonal,
    min_distance,
)
from .dial import dial_hull, reduce_hull


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def witness_digest(code: LinearCode) -> str:
    blob = json.dumps(code.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class EaqecParams:
    """One [[n, k_q, d, c]]_q record with its Singleton classification.

    ``gate`` records whether d <= (n+2)/2; ``mds`` is None exactly when the
    gate fails, True on exact Singleton equality, False otherwise.
    """

    q: int
    n: int
    k_q: int
    d: int
    c: int
    gate: bool
    mds: bool | None
    families: tuple[str, ...] = ()
    witnessed: bool = False
    witness_digest: str | None = None
    hull_dim: int | None = None

    @property
    def params(self) -> tuple[int, int, int, int]:
        return (self.n, self.k_q, self.d, self.c)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k_q": self.k_q,
            "d": self.d,
            "c": self.c,
            "gate": self.gate,
            "mds": self.mds,
            "families": list(self.families),
            "witnessed": self.witnessed,
            "witness_digest": self.witness_digest,
            "hull_dim": self.hull_dim,
        }


def claim(q: int, n: int, k_q: int, d: int, c: int, **extra) -> EaqecParams:
    """Record with gate and MDS flags computed, nothing validated."""
    gate = 2 * d <= n + 2
    mds = (2 * d + k_q == n + c + 2) if gate else None
    return EaqecParams(q=q, n=n, k_q=k_q, d=d, c=c, gate=gate, mds=mds, **extra)


def classified(q: int, n: int, k_q: int, d: int, c: int, **extra) -> EaqecParams:
    """Like claim(), but enforces the Singleton inequality for gated records."""
    rec = claim(q, n, k_q, d, c, **extra)
    if k_q < 0 or c < 0 or d < 1 or n < 1:
        raise VerificationFailedError(f"nonsensical parameters [[{n},{k_q},{d},{c}]]")
    if rec.gate and 2 * d + k_q > n + c + 2:
        raise VerificationFailedError(
            f"[[{n},{k_q},{d},{c}]]_{q} violates the Singleton bound"
        )
    return rec


TSV_HEADER = "q\tn\tk_q\td\tc\tfamily\twitnessed\tmds\tgate"


def tsv_row(rec: EaqecParams) -> str:
    mds = "gate-failed" if rec.mds is None else ("true" if rec.mds else "false")
    fam = ",".join(rec.families) if rec.families else "-"
    wit = "true" if rec.witnessed else "false"
    gate = "true" if rec.gate else "false"
    return f"{rec.q}\t{rec.n}\t{rec.k_q}\t{rec.d}\t{rec.c}\t{fam}\t{wit}\t{mds}\t{gate}"


def tsv_lines(records: Iterable[EaqecParams]) -> list[str]:
    return [TSV_HEADER] + [tsv_row(r) for r in records]


# ---------------------------------------------------------------------------
# witnessed derivations
# ---------------------------------------------------------------------------


def _measured_hull_dim(c: LinearCode, asserted: int | None) -> int:
    """Fresh Hermitian hull dimension; an asserted value is only cross-checked."""
    h = hull(c, "hermitian").dim
    if asserted is not None and asserted != h:
        raise HullMismatchError(f"asserted hull dim {asserted}, measured {h}")
    return h


def _assisted_record(c: LinearCode, h: int, dd: int, digest: str) -> EaqecParams:
    """[[n, n-k-h, d_dual, k-h]]_q witnessed by c."""
    return classified(
        c.field.subfield_order, c.n, c.n - c.k - h, dd, c.k - h,
        witnessed=True, witness_digest=digest, hull_dim=h,
    )


def eaqec_from_code(
    c: LinearCode, use_hull_dim: int | None = None, cap: int | None = None
) -> tuple[EaqecParams, EaqecParams]:
    """Both parameter sets derived from a code with measured hull dimension.

    The hull dimension is always measured; a caller-asserted value is only
    cross-checked (HullMismatchError on disagreement).  Distances are exact:
    d from the code, the dual distance from its Hermitian dual.
    """
    h = _measured_hull_dim(c, use_hull_dim)
    d = min_distance(c, cap)
    dd = dual_min_distance(c, cap)
    digest = witness_digest(c)
    first = classified(
        c.field.subfield_order, c.n, c.k - h, d, c.n - c.k - h,
        witnessed=True, witness_digest=digest, hull_dim=h,
    )
    return first, _assisted_record(c, h, dd, digest)


def _dialed_code(c: LinearCode, l: int, lambda_source) -> LinearCode:
    if l < 0:
        raise BadTargetError("l must be nonnegative")
    dial = dial_hull if is_hermitian_self_orthogonal(c) else reduce_hull
    return dial(c, l, lambda_source).code


def _dialed_record(dialed: LinearCode, l: int, dd: int) -> EaqecParams:
    h = _measured_hull_dim(dialed, l)
    return _assisted_record(dialed, h, dd, witness_digest(dialed))


def eaqec_from_dial(
    c: LinearCode, l: int, cap: int | None = None, lambda_source=None
) -> EaqecParams:
    """Dial the hull of c down to l and derive [[n, n-k-l, d_dual, k-l]]_q.

    Self-orthogonal inputs can reach any l in [0, k]; general codes any
    l up to their measured hull dimension.  Only the dual distance is
    measured, since the record does not carry d.
    """
    dialed = _dialed_code(c, l, lambda_source)
    return _dialed_record(dialed, l, dual_min_distance(dialed, cap))


def eaqec_sweep(c: LinearCode, cap: int | None = None, lambda_source=None) -> list[EaqecParams]:
    """All records for l = 0 .. hull ceiling (k for self-orthogonal inputs).

    Every dialed code is the input with its coordinates permuted and scaled
    by nonzero constants, which preserves the dual distance, so it is
    measured once, on the input.  Each record gets a fresh hull
    measurement and its own witness digest.
    """
    top = c.k if is_hermitian_self_orthogonal(c) else hull(c, "hermitian").dim
    dialed = [_dialed_code(c, l, lambda_source) for l in range(top + 1)]
    dd = dual_min_distance(c, cap)
    return [_dialed_record(code, l, dd) for l, code in enumerate(dialed)]


@dataclass(frozen=True)
class QeccParams:
    """A plain (unassisted) [[n, n-2k, d]]_q record from a self-orthogonal code."""

    q: int
    n: int
    k_q: int
    d: int
    mds: bool

    def to_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "k_q": self.k_q, "d": self.d, "mds": self.mds}


def qecc_from_self_orthogonal(c: LinearCode, cap: int | None = None) -> QeccParams:
    """[[n, n-2k, d_dual]]_q from a Hermitian self-orthogonal [n, k] code."""
    if not is_hermitian_self_orthogonal(c):
        raise NotSelfOrthogonalError("QECC derivation needs a Hermitian self-orthogonal code")
    q = c.field.subfield_order
    d = 1 if c.k == 0 else dual_min_distance(c, cap)
    k_q = c.n - 2 * c.k
    return QeccParams(q=q, n=c.n, k_q=k_q, d=d, mds=(2 * d + k_q == c.n + 2))


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Limits:
    """Bounds for the table enumerator.

    ``max_rows`` truncates the deduplicated output; ``include_generic``
    controls the open-ended any-length family, which dominates the row
    count for larger q.
    """

    max_rows: int | None = None
    include_generic: bool = True

    def __post_init__(self):
        if self.max_rows is not None and self.max_rows < 0:
            raise BadTargetError(f"max_rows = {self.max_rows} must be nonnegative")


def _table_rows(q: int) -> Iterator[tuple[str, int, int, int, int]]:
    """Yield (family, n, k_q, d, c) in family order, params lexicographic."""
    # lengths q^2 + 1, any admissible k
    n = q * q + 1
    for k in range(1, q + 1):
        if k == q - 1:
            continue
        for h in range(0, k + 1):
            yield "q2plus1", n, n - k - h, k + 1, k - h
    # char-2 special row at length q^2 + 1
    fact = factorize(q)
    p_char, r = next(iter(fact.items()))
    if p_char == 2 and r >= 3 and r % 2 == 1:
        for h in range(0, q):
            yield "q2plus1-char2", n, q * q + 2 - q - h, q, q - 1 - h
    # q^2 - 1 - t(q-1) - u(q+1) lengths (q odd)
    if q % 2 == 1:
        for t in _divisors((q + 1) // 2):
            for k in range(1, q):
                u = 1
                while 1 + u * (q + 1) <= (q - k) * q - 1:
                    nn = q * q - 1 - t * (q - 1) - u * (q + 1)
                    if nn >= 2 and k <= nn:
                        for h in range(0, k + 1):
                            yield "coset-trim", nn, nn - k - h, k + 1, k - h
                    u += 1
    # q^2 - s lengths
    for s in range(0, q):
        if 2 * s > q - 2:
            break
        nn = q * q - s
        for k in range(1, q):
            if 2 * k < q or k > q - s - 1:
                continue
            for h in range(0, k + 1):
                yield "near-full", nn, nn - k - h, k + 1, k - h
    # (q^2 + 1)/5 lengths
    if q % 20 in (3, 7):
        nn = (q * q + 1) // 5
        for k in range(1, (q + 3) // 2 + 1):
            if 2 * k > q + 3 or k > nn:
                continue
            for h in range(0, k + 1):
                yield "fifth-length", nn, nn - k - h, k + 1, k - h
    # 2t(q-1) lengths
    if (q + 1) % 8 == 0:
        for t in _divisors(q + 1):
            if t % 2 == 0:
                continue
            nn = 2 * t * (q - 1)
            for k in range(1, 6 * t - 1):
                if k > nn:
                    continue
                for h in range(0, k + 1):
                    yield "two-t-subgroup", nn, nn - k - h, k + 1, k - h
    # unions of two coprime odd subgroups of the (q+1)-part
    odd_divs = [m for m in _divisors(q + 1) if m % 2 == 1]
    for i, m1 in enumerate(odd_divs):
        for m2 in odd_divs[i:]:
            if gcd(m1, m2) != 1:
                continue
            nn = (q * q - 1) // m1 + (q * q - 1) // m2 - (q * q - 1) // (m1 * m2)
            for k in range(1, q):
                if 2 * k > q - 1 or k > nn:
                    continue
                for h in range(0, k + 1):
                    yield "subgroup-union", nn, nn - k - h, k + 1, k - h
    # (q^2 - 1)/m lengths for even divisors m >= 6 of q - 1 (q odd)
    if q % 2 == 1:
        big_h = ((q - 1) & -(q - 1)).bit_length() - 1
        a = (q - 1) >> big_h
        for m in _divisors(q - 1):
            if m % 2 != 0 or m < 6:
                continue
            h1 = (m & -m).bit_length() - 1
            a1 = m >> h1
            if a % a1 != 0:
                continue
            bound = (q + 1) // 2 + 2 ** (big_h - h1) * (a // a1) - 1
            nn = (q * q - 1) // m
            for k in range(1, bound + 1):
                if k > nn:
                    continue
                for h in range(0, k + 1):
                    yield "subgroup-quotient", nn, nn - k - h, k + 1, k - h


def _generic_rows(q: int) -> Iterator[tuple[str, int, int, int, int]]:
    for n in range(2, q * q + 2):
        for k in range(1, n // 2 + 1):
            for l in range(0, k + 1):
                yield "generic", n, n - k - l, k + 1, k - l


def _is_generic(q: int, n: int, k_q: int, d: int, c: int) -> bool:
    """Closed-form membership in _generic_rows(q): k = d - 1, l = k - c."""
    k = d - 1
    return 2 <= n <= q * q + 1 and 1 <= k <= n // 2 and 0 <= c <= k and k_q == n - 2 * k + c


def _is_table_row(q: int, n: int, k_q: int, d: int, c: int) -> bool:
    """Sane parameters within the distance gate; such a row must meet
    Singleton equality, so the record is gated and MDS."""
    if k_q < 0 or c < 0 or d < 1 or n < 2 or 2 * d > n + 2:
        return False
    if 2 * d + k_q != n + c + 2:
        raise VerificationFailedError(
            f"table row [[{n},{k_q},{d},{c}]]_{q} misses Singleton equality"
        )  # pragma: no cover
    return True


def enumerate_table1(q: int, limits: Table1Limits | None = None) -> list[EaqecParams]:
    """Formula-level records for every parameter family admissible at q.

    Emitted records are deduplicated on (n, k_q, d, c); a record reachable
    from several families carries all their tags, ordered by first
    encounter.  The named families are enumerated in full into one dict,
    so their rows come first; the generic any-length family is tested in
    closed form for their tags, and its other rows follow in generic
    order, walked lazily and only until ``max_rows`` records exist.  Work
    is thus bounded by the named-family rows plus ``max_rows``; the named
    families still grow as about q^3 (coset-trim alone has about q^3/6
    rows per divisor of (q+1)/2), so large q stays costly in time and
    memory.  Every record satisfies the Singleton relation with
    equality and the distance gate; parameter combinations failing either
    are not rows of the table and are skipped.
    """
    limits = limits or Table1Limits()
    if q * q > FIELD_ORDER_CAP:
        raise CapExceededError(f"GF({q}^2) exceeds the field order cap {FIELD_ORDER_CAP}")
    if q < 3 or not is_prime_power(q):
        raise BadFieldError(f"q = {q} must be a prime power with q >= 3")
    families: dict[tuple[int, int, int, int], list[str]] = {}
    for fam, n, k_q, d, c in _table_rows(q):
        key = (n, k_q, d, c)
        tags = families.get(key)
        if tags is None:
            if _is_table_row(q, *key):
                families[key] = [fam]
        elif fam not in tags:
            tags.append(fam)
    records = []
    for key, tags in itertools.islice(families.items(), limits.max_rows):
        if limits.include_generic and _is_generic(q, *key):
            tags.append("generic")
        records.append(EaqecParams(q, *key, True, True, tuple(tags)))
    if limits.include_generic:
        fresh = (
            (n, k_q, d, c)
            for _, n, k_q, d, c in _generic_rows(q)
            if (n, k_q, d, c) not in families and _is_table_row(q, n, k_q, d, c)
        )
        left = None if limits.max_rows is None else limits.max_rows - len(records)
        records += [
            EaqecParams(q, *key, True, True, ("generic",)) for key in itertools.islice(fresh, left)
        ]
    return records


def is_prime_power(q: int) -> bool:
    return q >= 2 and len(factorize(q)) == 1


# ---------------------------------------------------------------------------
# claim verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a claimed parameter set, with reasons."""

    passed: bool
    gate_applicable: bool
    failures: tuple[str, ...]
    checks: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "gate_applicable": self.gate_applicable,
            "failures": list(self.failures),
            "checks": list(self.checks),
        }


def verify_claim(
    params: EaqecParams, witness: LinearCode | None = None, cap: int | None = None
) -> Verdict:
    """Arithmetic (and optionally witness-backed) check of a claimed record.

    The Singleton bound is only enforced under its gate d <= (n+2)/2; a
    witness, when given, is fully re-measured (hull dimension and both
    distances) and must reproduce the claimed parameters through one of
    the two derivations.
    """
    failures: list[str] = []
    checks: list[str] = []
    n, k_q, d, c, q = params.n, params.k_q, params.d, params.c, params.q
    checks.append("sanity")
    if n < 1 or d < 1 or k_q < 0 or c < 0:
        failures.append(f"nonsensical parameters [[{n},{k_q},{d},{c}]]_{q}")
    gate = 2 * d <= n + 2
    if gate:
        checks.append("singleton-bound")
        if 2 * d + k_q > n + c + 2:
            failures.append(
                f"singleton bound violated: 2*{d}+{k_q} = {2 * d + k_q} > {n + c + 2}"
            )
    if witness is not None:
        checks.append("witness")
        try:
            first, second = eaqec_from_code(witness, cap=cap)
            derived = {first.params, second.params}
            if (n, k_q, d, c) not in derived:
                failures.append(
                    f"witness derives {sorted(derived)}, not [[{n},{k_q},{d},{c}]]"
                )
            wq = witness.field.subfield_order
            if wq != q:
                failures.append(f"witness base field GF({wq}) != GF({q})")
        except (HulldialError, ValueError) as exc:  # measurement failures are verdicts
            failures.append(f"witness check failed: {exc}")
    return Verdict(
        passed=not failures,
        gate_applicable=gate,
        failures=tuple(failures),
        checks=tuple(checks),
    )
