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
at the formula level (witnessed=False); every row has the shape
(n, n-k-h, k+1, k-h) with 0 <= h <= k <= n/2, so it meets the distance
gate and the Singleton bound with equality.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from math import gcd, isqrt
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadTargetError,
    CapExceededError,
    HulldialError,
    VerificationFailedError,
)
from .field import _check_base_field, factorize
from .code import LinearCode, dual_min_distance, hull, min_distance
from .dial import _dials
from .grs import _even_subgroup_bound


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def witness_digest(code: LinearCode) -> str:
    """First 12 hex digits of the sha256 of json.dumps(code.to_dict(), sort_keys=True).

    The same bytes are written without the encoder: each entry's digit
    list is joined from the field's two cached half-element text tables.
    """
    field, k, n = code.field, code.k, code.n
    first, second, base = field._digit_texts
    hi, lo = np.divmod(code.gen.data.ravel(), base)
    entries = ", ".join((first[lo] + second[hi]).tolist())
    modulus = ", ".join(map(str, field.modulus))
    blob = (
        f'{{"field": {{"e": {field.e}, "modulus": [{modulus}], "p": {field.p}}}, '
        f'"generator": {{"cols": {n}, "entries": [{entries}], "rows": {k}}}, '
        f'"k": {k}, "n": {n}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class EaqecParams(NamedTuple):
    """One [[n, k_q, d, c]]_q record with its Singleton classification.

    ``gate`` records whether d <= (n+2)/2; ``mds`` is None exactly when the
    gate fails, True on exact Singleton equality, False otherwise.  A named
    tuple, so records are immutable, hash and compare by value, and cost
    little to build: enumerate_table1, and the table's pretty and JSON
    text, make one per row.
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
        return {**self._asdict(), "families": list(self.families)}


def claim(q: int, n: int, k_q: int, d: int, c: int, **extra) -> EaqecParams:
    """Record with gate and MDS flags computed, nothing validated."""
    gate = 2 * d <= n + 2
    mds = (2 * d + k_q == n + c + 2) if gate else None
    return EaqecParams(q=q, n=n, k_q=k_q, d=d, c=c, gate=gate, mds=mds, **extra)


def _bound_failures(q: int, n: int, k_q: int, d: int, c: int) -> list[str]:
    """Why [[n, k_q, d, c]]_q is impossible: nonsensical values, or past the
    Singleton bound under its gate d <= (n+2)/2; empty when neither."""
    failures = []
    if n < 1 or d < 1 or k_q < 0 or c < 0:
        failures.append(f"nonsensical parameters [[{n},{k_q},{d},{c}]]_{q}")
    if 2 * d <= n + 2 and 2 * d + k_q > n + c + 2:
        failures.append(f"singleton bound violated: 2*{d}+{k_q} = {2 * d + k_q} > {n + c + 2}")
    return failures


def classified(q: int, n: int, k_q: int, d: int, c: int, **extra) -> EaqecParams:
    """Like claim(), but refuses (VerificationFailedError) a record that
    verify_claim's sanity or Singleton check fails, with its first reason."""
    failures = _bound_failures(q, n, k_q, d, c)
    if failures:
        raise VerificationFailedError(failures[0])
    return claim(q, n, k_q, d, c, **extra)


TSV_HEADER = "q\tn\tk_q\td\tc\tfamily\twitnessed\tmds\tgate"


def _tsv_labels(families: tuple[str, ...], witnessed: bool, mds: bool | None, gate: bool) -> str:
    """The family, witnessed, mds and gate columns of a TSV row."""
    mds = "gate-failed" if mds is None else ("true" if mds else "false")
    fam = ",".join(families) if families else "-"
    wit = "true" if witnessed else "false"
    gate = "true" if gate else "false"
    return f"{fam}\t{wit}\t{mds}\t{gate}"


def tsv_row(rec: EaqecParams) -> str:
    # unpacked, since a tuple unpacks faster than nine attribute reads
    q, n, k_q, d, c, gate, mds, families, witnessed, _, _ = rec
    return f"{q}\t{n}\t{k_q}\t{d}\t{c}\t{_tsv_labels(families, witnessed, mds, gate)}"


# ---------------------------------------------------------------------------
# witnessed derivations
# ---------------------------------------------------------------------------


def _witnessed(c: LinearCode, h: int, k: int, d: int, digest: str) -> EaqecParams:
    """[[n, k-h, d, n-k-h]]_q witnessed by c with Hermitian hull dimension h;
    k and d are those of c, or n - k and d_dual for the record of its dual."""
    return classified(
        c.field.subfield_order, c.n, k - h, d, c.n - k - h,
        witnessed=True, witness_digest=digest, hull_dim=h,
    )


def eaqec_from_code(c: LinearCode, cap: int | None = None) -> tuple[EaqecParams, EaqecParams]:
    """Both parameter sets derived from a code and its measured hull dimension.

    Distances are exact: d from the code, the dual distance from its
    Hermitian dual, each enumerated under ``cap`` when it must be.
    """
    h = hull(c, "hermitian").dim
    d = min_distance(c, cap)
    dd = dual_min_distance(c, cap)
    digest = witness_digest(c)
    return _witnessed(c, h, c.k, d, digest), _witnessed(c, h, c.n - c.k, dd, digest)


def eaqec_from_dial(c: LinearCode, l: int, cap: int | None = None) -> EaqecParams:
    """Dial the hull of c down to l and derive [[n, n-k-l, d_dual, k-l]]_q.

    Self-orthogonal inputs can reach any l in [0, k]; general codes any
    l up to their measured hull dimension.  This is eaqec_sweep's path
    with the one target l, so only the dual distance is measured, on c.
    """
    if l < 0:
        raise BadTargetError("l must be nonnegative")
    return _dialed_records(c, [l], cap)[0]


def eaqec_sweep(c: LinearCode, cap: int | None = None) -> list[EaqecParams]:
    """All records for l = 0 .. hull ceiling (k for self-orthogonal inputs).

    One Gram matrix picks the basis (G when it is zero, else the rows that
    span the hull), and every l is dialed in turn from one arrangement of
    it.  Each dialed code has its hull dimension measured by the rank of its
    own Gram matrix, and gets its own witness digest.  Every
    dialed code is the input with its coordinates permuted and scaled by
    nonzero constants, which preserves the dual distance, so it is measured
    once, on the input.
    """
    return _dialed_records(c, None, cap)


def _dialed_records(c: LinearCode, targets: list[int] | None, cap: int | None) -> list[EaqecParams]:
    """eaqec_sweep's records for the given targets (by default every one)."""
    dials = _dials(c, "hermitian", None, targets)
    dd = dual_min_distance(c, cap)
    return [_witnessed(r.code, r.achieved_h, c.n - c.k, dd, witness_digest(r.code)) for r in dials]


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------


#: Most rows a table may hold; a longer table raises CapExceededError,
#: counted over its runs of (n, k) pairs before any record or byte exists.
#: The full q = 16 table fits: 732,032 rows from 16,512 pairs in 275 runs,
#: walked in about 1 ms, written by `table` in under 50 MB (as TSV in about
#: 0.25 s and 34 MB peak RSS, on a 2-vCPU shared host; 2 s as pretty text,
#: 17 s as JSON), and built as records by enumerate_table1 in about 0.9 s and 140 MB.
TABLE_ROW_CAP = 750_000


class _Family(NamedTuple):
    """One parameter family at a fixed q.

    ``runs()`` yields its (n, k) pairs in emission order, as runs
    (n, k_lo, k_hi) of consecutive k at one length; pair (n, k) stands for
    the rows (n, n-k-h, k+1, k-h), h = 0..k.  ``has(n, k)`` is true exactly
    on the pairs of those runs, decided in closed form.  Every family but
    coset-trim is one length-and-dimension rule (see _ranged), which gives
    both.  Coset-trim walks k-major within each t, with n falling as u
    rises, one pair per run, and the table's row order follows that walk.
    """

    name: str
    runs: Callable[[], Iterator[tuple[int, int, int]]]
    has: Callable[[int, int], bool]


def _ranged(name: str, lengths: Collection[int], dims: Callable[[int], Sequence[int]]) -> _Family:
    """The pairs with n in ``lengths``, in order, and k in ``dims(n)``, ascending.

    ``lengths`` is a range, a dict or a short list, and ``dims(n)`` a range
    or a short list built once per family, so ``has`` costs O(1) or close
    to it.
    """

    def runs():  # one per length, a list split where it skips a value
        for n in lengths:
            d = dims(n)
            cut = [i for i in range(1, len(d)) if d[i] > d[i - 1] + 1] if type(d) is list else []
            yield from ((n, d[a], d[b - 1]) for a, b in zip([0, *cut], [*cut, len(d)]) if a < b)

    return _Family(name, runs, lambda n, k: n in lengths and k in dims(n))


def _q2plus1(q: int) -> _Family:
    """Length q^2 + 1, any k <= q except q - 1."""
    ks = [*range(1, q - 1), q]
    return _ranged("q2plus1", [q * q + 1], lambda n: ks)


def _q2plus1_char2(q: int) -> _Family:
    """Length q^2 + 1 with k = q - 1, for q = 2^r with r >= 3 odd."""
    ((p, r),) = factorize(q).items()
    on = p == 2 and r >= 3 and r % 2 == 1
    return _ranged("q2plus1-char2", [q * q + 1] if on else [], lambda n: range(q - 1, q))


def _coset_trim(q: int) -> _Family:
    """Lengths q^2 - 1 - t(q-1) - u(q+1) for t | (q+1)/2 and u >= 1, q odd."""
    ts = _divisors((q + 1) // 2) if q % 2 == 1 else []

    def length(t: int, u: int) -> int:
        return q * q - 1 - t * (q - 1) - u * (q + 1)

    def runs():
        for t in ts:
            for k in range(1, q):
                u = 1
                while 1 + u * (q + 1) <= (q - k) * q - 1:
                    n = length(t, u)
                    if n >= 2 and k <= n:
                        yield n, k, k
                    u += 1

    def has(n: int, k: int) -> bool:
        if n < 2 or not 1 <= k <= min(q - 1, n):
            return False
        for t in ts:
            u, rest = divmod(length(t, 0) - n, q + 1)
            if rest == 0 and u >= 1 and 1 + u * (q + 1) <= (q - k) * q - 1:
                return True
        return False

    return _Family("coset-trim", runs, has)


def _near_full(q: int) -> _Family:
    """Lengths q^2 - s for 2s <= q - 2, with q/2 <= k <= q - s - 1."""
    lengths = range(q * q, q * q - (q - 2) // 2 - 1, -1)
    return _ranged("near-full", lengths, lambda n: range((q + 1) // 2, n - q * q + q))


def _fifth_length(q: int) -> _Family:
    """Length (q^2 + 1)/5 for q = 3, 7 mod 20, with k <= (q + 3)/2."""
    lengths = [(q * q + 1) // 5] if q % 20 in (3, 7) else []
    return _ranged("fifth-length", lengths, lambda n: range(1, min((q + 3) // 2, n) + 1))


def _two_t_subgroup(q: int) -> _Family:
    """Lengths 2t(q-1) for odd t | q + 1, 8 | q + 1, with k <= 6t - 2."""
    ts = [t for t in _divisors(q + 1) if t % 2 == 1] if (q + 1) % 8 == 0 else []
    lengths = {2 * t * (q - 1): t for t in ts}
    return _ranged("two-t-subgroup", lengths, lambda n: range(1, min(6 * lengths[n] - 2, n) + 1))


def _subgroup_union(q: int) -> _Family:
    """Unions of two coprime odd-index subgroups, with 2k <= q - 1."""
    odd = [m for m in _divisors(q + 1) if m % 2 == 1]
    lengths = dict.fromkeys(  # m1 = 1 gives q^2 - 1 for every m2
        (q * q - 1) // m1 + (q * q - 1) // m2 - (q * q - 1) // (m1 * m2)
        for i, m1 in enumerate(odd)
        for m2 in odd[i:]
        if gcd(m1, m2) == 1
    )
    return _ranged("subgroup-union", lengths, lambda n: range(1, min((q - 1) // 2, n) + 1))


def _subgroup_quotient(q: int) -> _Family:
    """Lengths (q^2 - 1)/m for even m >= 6 dividing q - 1 (q odd)."""
    tops = {
        (q * q - 1) // m: _even_subgroup_bound(q, m)
        for m in (_divisors(q - 1) if q % 2 == 1 else [])
        if m % 2 == 0 and m >= 6
    }
    return _ranged("subgroup-quotient", tops, lambda n: range(1, min(tops[n], n) + 1))


def _generic(q: int) -> _Family:
    """Every length 2 <= n <= q^2 + 1 with k <= n/2."""
    return _ranged("generic", range(2, q * q + 2), lambda n: range(1, n // 2 + 1))


def _families(q: int, include_generic: bool) -> list[_Family]:
    """The families in table order; the generic one, when included, is last."""
    named = [
        family(q)
        for family in (
            _q2plus1, _q2plus1_char2, _coset_trim, _near_full, _fifth_length,
            _two_t_subgroup, _subgroup_union, _subgroup_quotient,
        )
    ]
    return named + [_generic(q)] if include_generic else named


#: A table run (n, k_lo, k_hi, tags, last); see _table_blocks.
_Run = tuple[int, int, int, tuple[str, ...], int]


def _rows_through(lo: int, hi: int) -> int:
    """The rows of the pairs k = lo..hi at one length: the sum of k + 1."""
    return (hi - lo + 1) * (lo + hi + 2) // 2


def _table_blocks(q: int, max_rows: int | None, include_generic: bool) -> list[_Run]:
    """The table as runs (n, k_lo, k_hi, tags, last), in order.

    A run holds the pairs (n, k), k = k_lo..k_hi, tagged ``tags``; pair
    (n, k) stands for its rows (n, n-k-h, k+1, k-h), h = 0..k, but pair k_hi
    for its first ``last`` rows.  Keys (n, k_q, d, c) and (n, k, h) determine
    each other, so a key was emitted exactly when its pair was: runs are
    split around the ks emitted before at their length, and a named
    family's runs also where the later families holding a pair change.  A
    pair with 2k > n fails the distance gate and yields no row; every other
    row has 0 <= h <= k, so it meets the gate and Singleton equality.  Rows
    are counted per run in closed form, and no run is drawn past the one
    that reaches ``max_rows`` or passes TABLE_ROW_CAP, where the walk raises
    CapExceededError before any record or output exists.
    """
    if max_rows is not None and max_rows < 0:
        raise BadTargetError(f"max_rows = {max_rows} must be nonnegative")
    _check_base_field(q, least=3)
    families = _families(q, include_generic)
    left = wanted = TABLE_ROW_CAP + 1 if max_rows is None else min(TABLE_ROW_CAP + 1, max_rows)
    runs: list[_Run] = []
    emitted: dict[int, set[int]] = {}
    for i, family in enumerate(families if wanted else []):  # max_rows 0 draws nothing
        later, alone = families[i + 1 :], (family.name,)
        for n, lo, hi in family.runs():
            hi = min(hi, n // 2)
            done = sorted(k for k in emitted.get(n, ()) if lo <= k <= hi)
            if later:
                emitted.setdefault(n, set()).update(range(lo, hi + 1))
            for a, b in zip([lo, *[k + 1 for k in done]], [*[k - 1 for k in done], hi]):
                if a > b:
                    continue
                rows = _rows_through(a, b)
                if rows >= left:  # the last run: k_hi is the least k whose rows reach left
                    b = (isqrt(8 * (left + a * (a + 1) // 2) - 7) - 1) // 2
                tags = [alone + tuple([f.name for f in later if f.has(n, k)])
                        for k in range(a, b + 1)] if later else [alone]
                cuts = [j for j in range(1, len(tags)) if tags[j] != tags[j - 1]]
                runs += [(n, a + j, a + e - 1, tags[j], a + e)
                         for j, e in zip([0, *cuts], [*cuts, b - a + 1])]
                if rows >= left:
                    runs[-1] = (*runs[-1][:4], left - _rows_through(a, b - 1))
                    if wanted > TABLE_ROW_CAP:
                        raise CapExceededError(f"the q = {q} table has over {TABLE_ROW_CAP} "
                                               "rows; ask for at most that many")
                    return runs
                left -= rows
    return runs


def enumerate_table1(
    q: int, *, max_rows: int | None = None, include_generic: bool = True
) -> list[EaqecParams]:
    """Formula-level records for every parameter family admissible at q.

    Records are deduplicated on (n, k_q, d, c).  Families are walked in
    order, the generic any-length family last, each lazily.  Eight are one
    length-and-dimension rule each (lengths in order, dimensions rising);
    coset-trim keeps its own k-major walk, and its rows keep that order.
    A row is recorded where it is first met, and its tags are that family and
    every later family whose closed-form membership test holds for it.
    ``include_generic`` False leaves out the generic family, which holds
    most rows for larger q.  The walk stops once ``max_rows`` (nonnegative)
    rows are counted, so time and memory grow with the rows emitted, not
    with the families' size (about q^3 named rows, about q^6/24 generic
    ones).  A table that would hold more than TABLE_ROW_CAP records raises
    CapExceededError once its row count passes the cap, counted over runs
    of (n, k) pairs before any record is built.  Every record meets the
    distance gate and the Singleton bound with equality.
    """
    return list(_block_records(q, _table_blocks(q, max_rows, include_generic)))


def _block_records(q: int, runs: Iterable[_Run]) -> Iterator[EaqecParams]:
    """The records of table runs, one by one: formula-level, MDS, gated."""
    for n, lo, hi, tags, last in runs:
        for k in range(lo, hi + 1):
            for h in range(last if k == hi else k + 1):
                yield EaqecParams(q, n, n - k - h, k + 1, k - h, True, True, tags)


def _block_tsv_text(q: int, runs: Sequence[_Run], batch: int) -> Iterator[str]:
    """TSV_HEADER and the tsv_row of each record of table runs, each line
    ended, in pieces of exactly ``batch`` lines but the last; no record is built.

    Row h of pair (n, k) is "{q}\t{n}\t", k_q = n-k-h and a rest
    "\t{k+1}\t{k-h}\t{labels}\n", formatted once per tag tuple for the ks
    its runs span, in row order.  A run's k_q are gathered through k + h
    from the decimal strings of n-2k_hi..n-k_lo, made once for all runs
    (per run where that makes fewer), and each piece-sized slice of a run
    is one list [head, k_q, rest] * rows filled by two slice assignments.
    """
    spans: dict[tuple[str, ...], tuple[int, int]] = {}
    for _, lo, hi, tags, _ in runs:
        a, b = spans.get(tags, (lo, hi))
        spans[tags] = min(a, lo), max(b, hi)
    rests = {
        tags: (a, [f"\t{k + 1}\t{c}{tail}" for k in range(a, b + 1) for c in range(k, -1, -1)])
        for tags, (a, b) in spans.items()
        for tail in [f"\t{_tsv_labels(tags, False, True, True)}\n"]
    }
    top = max((b for _, b in spans.values()), default=0)
    ks = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
    sums = np.arange(len(ks)) - ks * (ks - 1) // 2  # k + h of the rows (k, h) from (0, 0)
    low = min((n - 2 * hi for n, _, hi, _, _ in runs), default=0)
    high = max((n - lo for n, lo, _, _, _ in runs), default=0)
    shared, decimals = high - low < sum(2 * hi - lo + 1 for _, lo, hi, _, _ in runs), None
    piece, room = [TSV_HEADER + "\n"], batch - 1
    for n, lo, hi, tags, last in runs:
        first, rest = rests[tags]
        at = lo * (lo + 1) // 2  # the row (lo, 0), counted from (0, 0)
        skip = at - first * (first + 1) // 2  # and from (first, 0)
        if not shared:
            low, high, decimals = n - 2 * hi, n - lo, None
        if decimals is None:
            decimals = np.array([*map(str, range(low, high + 1))], dtype=object)
        head, rows, done = f"{q}\t{n}\t", _rows_through(lo, hi - 1) + last, 0
        while done < rows:
            if not room:  # a full piece goes out only once a row follows it
                yield "".join(piece)
                piece, room = [], batch
            take = min(rows - done, room)
            lines = [head, "", ""] * take
            lines[1::3] = decimals[n - low - sums[at + done : at + done + take]].tolist()
            lines[2::3] = rest[skip + done : skip + done + take]
            piece += lines
            done += take
            room -= take
    yield "".join(piece)


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
        return {**asdict(self), "failures": list(self.failures), "checks": list(self.checks)}


def verify_claim(
    params: EaqecParams, witness: LinearCode | None = None, cap: int | None = None
) -> Verdict:
    """Arithmetic (and optionally witness-backed) check of a claimed record.

    The Singleton bound is only enforced under its gate d <= (n+2)/2; a
    witness, when given, is fully re-measured (hull dimension and both
    distances) and must reproduce the claimed parameters through one of
    the two derivations.  A q that is not a prime power, or whose GF(q^2)
    is past the field-order cap, raises before any check runs.
    """
    _check_base_field(params.q, least=2)
    n, k_q, d, c, q = params.n, params.k_q, params.d, params.c, params.q
    gate = 2 * d <= n + 2
    checks = ["sanity", "singleton-bound"] if gate else ["sanity"]
    failures = _bound_failures(q, n, k_q, d, c)
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
