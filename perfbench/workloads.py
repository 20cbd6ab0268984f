"""The benchmark's workloads: seeded inputs, field set-up, jobs and checks.

A workload is a list of jobs.  A job is one call into hulldial's public API
(or one in-process `cli.main` invocation).  `run` makes the call and
returns its output; `check` verifies that output exactly and raises
`CheckFailed` otherwise; `key` reduces it to a value that must come out
identical on every pass, because the inputs are fixed for the whole run.
The first (warm-up) pass is checked with `check`; every later pass is
checked by comparing `key`s against the warm-up's.

Inputs come from `--seed` alone.  Seeds change the inputs (column
permutations, scalings, evaluation points, solver seeds) but never the
expected outputs, so every seed is checkable.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hulldial as hd
from hulldial import cli
from hulldial.errors import CapExceededError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE_COUNTS = ROOT / "tests" / "golden" / "table1_counts.json"

#: Base fields GF(q^2) each workload builds during set-up, by q.
FIELDS = {
    "sweep": (3, 4, 5, 7),
    "longcode": (13,),
    "construct": (5,),
    "bigfield": (37,),
}

#: Full-field codes swept, as (q, k).  q = 5, k = 4 is left out: its sweep
#: alone takes about 7 s, too long to repeat within one run.
SWEEP_CODES = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2))

#: Full-field codes whose hulls are dialed, as (q, k): n = 169 columns.
LONG_CODES = ((13, 3), (13, 6))

#: GF(37^2): above the dense-table limit of 1024 elements.
BIG_Q = 37
BIG_SWEEP_N = 24
BIG_GRS_N, BIG_GRS_K = 32, 2


class CheckFailed(Exception):
    """An output differs from what the input guarantees."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# set-up and inputs
# ---------------------------------------------------------------------------


def build_fields(workload: str) -> dict[int, hd.Field]:
    """The workload's fields, each with its dense tables built where it has them."""
    fields = {}
    for q in FIELDS[workload]:
        field = hd.make_quadratic_field(q)
        try:
            field.mul_array(np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64))
        except CapExceededError:  # above the table limit there is no table to build
            pass
        fields[q] = field
    return fields


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def equivalent_code(code: hd.LinearCode, rng: np.random.Generator) -> hd.LinearCode:
    """Permute the columns and scale them by norm-1 elements.

    Both maps preserve Hermitian self-orthogonality, distances and hull
    dimensions, so every expected output is the same for every seed.
    """
    field = code.field
    q = field.subfield_order
    units = [x for x in range(1, field.order) if field.pow(x, q + 1) == 1]
    perm = [int(j) for j in rng.permutation(code.n)]
    scales = [units[int(i)] for i in rng.integers(0, len(units), code.n)]
    return hd.scale(hd.permute(code, perm), scales)


def _hull_key(rep) -> tuple:
    return (rep.dim, rep.basis.data.tobytes())


def _dial_key(res) -> tuple:
    return (res.achieved_h, res.v, res.perm, res.code.gen.data.tobytes())


def _records_key(records) -> tuple:
    return tuple(json.dumps(r.to_dict(), sort_keys=True) for r in records)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _check_sweep(code: hd.LinearCode, records) -> None:
    n, k = code.n, code.k
    want = [(n, n - k - l, k + 1, k - l) for l in range(k + 1)]
    got = [r.params for r in records]
    expect(got == want, f"records {got}, want {want}")
    for l, r in enumerate(records):
        expect(r.mds is True, f"record {r.params} not marked MDS")
        expect(r.witnessed and r.witness_digest, f"record {r.params} not witnessed")
        expect(r.hull_dim == l, f"record {r.params} has hull dim {r.hull_dim}, want {l}")


def _sweep_job(name: str, code: hd.LinearCode, check=_check_sweep) -> Job:
    return Job(
        name=name,
        run=lambda: hd.eaqec_sweep(code),
        check=lambda out: check(code, out),
        key=_records_key,
    )


def sweep_jobs(fields, seed: int) -> list[Job]:
    jobs = []
    for i, (q, k) in enumerate(SWEEP_CODES):
        base = hd.full_field_rs(fields[q], k).code()
        code = equivalent_code(base, _rng(seed, 1, i))
        jobs.append(_sweep_job(f"sweep q={q} k={k}", code))
    return jobs


# ---------------------------------------------------------------------------
# longcode
# ---------------------------------------------------------------------------


def _check_hull_dim(want: int):
    def check(rep) -> None:
        expect(rep.dim == want, f"hull dim {rep.dim}, want {want}")
        expect(rep.basis.rows == want, f"hull basis has {rep.basis.rows} rows, want {want}")

    return check


def _check_dial(want: int):
    def check(res) -> None:
        expect(res.target_h == want, f"target {res.target_h}, want {want}")
        expect(res.achieved_h == want, f"achieved hull dim {res.achieved_h}, want {want}")
        fresh = hd.hull(res.code).dim
        expect(fresh == want, f"re-measured hull dim {fresh}, want {want}")

    return check


def longcode_jobs(fields, seed: int) -> list[Job]:
    jobs = []
    for i, (q, k) in enumerate(LONG_CODES):
        code = equivalent_code(hd.full_field_rs(fields[q], k).code(), _rng(seed, 2, i))
        h = k // 2
        dialed: dict[str, Any] = {}

        def dial(code=code, h=h, dialed=dialed):
            dialed["res"] = hd.dial_hull(code, h)
            return dialed["res"]

        def reduce(dialed=dialed):
            return hd.reduce_hull(dialed["res"].code, 0)

        tag = f"[{code.n}, {k}] q={q}"
        jobs += [
            Job(f"hull {tag}", lambda code=code: hd.hull(code), _check_hull_dim(k),
                _hull_key),
            Job(f"dial_hull {tag} to {h}", dial, _check_dial(h), _dial_key),
            Job(f"reduce_hull {tag} to 0", reduce, _check_dial(0), _dial_key),
        ]
    return jobs


# ---------------------------------------------------------------------------
# construct (through the CLI)
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _check_construct(n: int, k: int):
    def check(out) -> None:
        code, text = out
        expect(code == 0, f"exit code {code}")
        payload = json.loads(text)
        expect(payload["status"] == "found", f"status {payload['status']}")
        built = hd.LinearCode.from_dict(payload["code"])
        expect((built.n, built.k) == (n, k), f"[{built.n}, {built.k}], want [{n}, {k}]")
        expect(hd.is_hermitian_self_orthogonal(built), "output is not self-orthogonal")

    return check


def _table_rows(text: str) -> list[tuple[int, ...]]:
    lines = text.splitlines()
    expect(lines and lines[0].split("\t")[:5] == ["q", "n", "k_q", "d", "c"], "bad TSV header")
    return [tuple(int(x) for x in line.split("\t")[:5]) for line in lines[1:]]


def _check_table(q: int, rows_wanted: int):
    def check(out) -> None:
        code, text = out
        expect(code == 0, f"exit code {code}")
        rows = _table_rows(text)
        expect(len(rows) == rows_wanted, f"{len(rows)} rows, want {rows_wanted}")
        expect(len(set(rows)) == len(rows), "duplicate rows")
        for rq, n, k_q, d, c in rows:
            expect(rq == q, f"row for q = {rq}")
            expect(2 * d <= n + 2, f"[[{n},{k_q},{d},{c}]] fails the distance gate")
            expect(2 * d + k_q == n + c + 2, f"[[{n},{k_q},{d},{c}]] is not MDS")

    return check


def construct_jobs(fields, seed: int) -> list[Job]:
    s = str(seed)
    golden = json.loads(GOLDEN_TABLE_COUNTS.read_text())
    commands = [
        (["construct", "--q", "5", "--family", "q2plus1", "--k", "3", "--seed", s],
         _check_construct(26, 3)),
        (["construct", "--q", "5", "--family", "trace-poly", "--k", "3", "--g", "0,1",
          "--seed", s], _check_construct(20, 3)),
        (["construct", "--q", "5", "--family", "subgroup", "--k", "2", "--m", "3", "--seed", s],
         _check_construct(8, 2)),
        (["table", "--q", "8"], _check_table(8, golden["8"])),
        (["table", "--q", "11", "--max-rows", "50"], _check_table(11, 50)),
    ]
    return [
        Job(" ".join(argv), lambda argv=argv: _cli(argv), check, lambda out: out)
        for argv, check in commands
    ]


# ---------------------------------------------------------------------------
# bigfield
# ---------------------------------------------------------------------------


def _self_orthogonal_row(field: hd.Field, n: int, rng: np.random.Generator) -> hd.LinearCode:
    """A [n, 1] code whose entries' norms sum to 0, so it is self-orthogonal.

    The norms are lifted with `norm_preimage`, whose canonical preimages
    are often prime-field constants; scaling by norm-1 elements makes the
    entries generic, so the cost of scalar arithmetic varies little by seed.
    """
    q = field.subfield_order
    while True:
        norms = [int(x) for x in rng.integers(1, q, n - 1)]
        last = -sum(norms) % q
        if last:
            break
    norms.append(last)  # GF(q) elements are the constant polynomials 0..q-1
    preimages = {w: field.norm_preimage(w) for w in set(norms)}
    row = hd.LinearCode(field, [[preimages[w] for w in norms]])
    return equivalent_code(row, rng)


def _random_grs(field: hd.Field, n: int, k: int, rng: np.random.Generator) -> hd.LinearCode:
    points = [int(x) for x in rng.choice(field.order, n, replace=False)]
    multipliers = [int(x) for x in rng.integers(1, field.order, n)]
    return hd.GrsSpec(field, tuple(points), tuple(multipliers), k).code()


def _check_gram_hull(code: hd.LinearCode):
    gram_rank = hd.rank(hd.matmul(code.gen, hd.conj_transpose(code.gen)))

    def check(rep) -> None:
        want = code.k - gram_rank
        expect(rep.dim == want, f"hull dim {rep.dim}, want k - rank(G G^+) = {want}")

    return check


def _check_equal(want):
    def check(got) -> None:
        expect(got == want, f"got {got}, want {want}")

    return check


def _check_big_sweep(code, records) -> None:
    n = code.n
    got = [r.params for r in records]
    want = [(n, n - 1, 2, 1), (n, n - 2, 2, 0)]
    expect(got == want, f"records {got}, want {want}")
    expect(all(r.witnessed for r in records), "records not witnessed")


def bigfield_jobs(fields, seed: int) -> list[Job]:
    field = fields[BIG_Q]
    row = _self_orthogonal_row(field, BIG_SWEEP_N, _rng(seed, 4, 0))
    grs = _random_grs(field, BIG_GRS_N, BIG_GRS_K, _rng(seed, 4, 1))
    tag = f"[{BIG_GRS_N}, {BIG_GRS_K}]"
    return [
        _sweep_job(f"sweep [{BIG_SWEEP_N}, 1]", row, _check_big_sweep),
        Job(f"hull {tag}", lambda: hd.hull(grs), _check_gram_hull(grs),
            _hull_key),
        Job(f"dual_min_distance {tag}", lambda: hd.dual_min_distance(grs),
            _check_equal(BIG_GRS_K + 1), lambda d: d),
    ]


WORKLOADS = {
    "sweep": sweep_jobs,
    "longcode": longcode_jobs,
    "construct": construct_jobs,
    "bigfield": bigfield_jobs,
}
