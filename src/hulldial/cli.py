"""Command-line front end.

Subcommands: construct, dial, eaqec, table, verify, distance, hull.
All artifacts are JSON (elements as coefficient arrays, constant term
first) or TSV (header row, tab separated, LF endings); identical argv and
seed produce byte-identical output.  Exit codes: 0 success, 1 error,
2 search finished without a construction (budget miss or proven empty).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .errors import HulldialError, MalformedCodeError
from .field import make_quadratic_field
from .code import LinearCode, enumeration_cap, hull, min_distance
from .dial import dial_galois_hull, reduce_hull
from .grs import DEFAULT_SEED, FAMILIES, construct_family
from .eaqec import (
    TSV_HEADER,
    EaqecParams,
    _block_records,
    _block_tsv_text,
    _table_blocks,
    claim,
    eaqec_from_dial,
    eaqec_sweep,
    tsv_row,
    verify_claim,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for search misses)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces in order to stdout, or atomically to ``out``."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, out)
    except BaseException:  # a write that fails part-way leaves no file behind
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _json(obj, pad: str = "") -> str:
    """obj as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, nested
    ``pad`` deep.  Only the types payloads hold are written: dicts with str
    keys, lists, tuples, str, int, bool and None.  A list of equal-length
    int lists (coefficient entries) goes through one %d template per row.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        items = [f"{encode_basestring_ascii(key)}: {_json(obj[key], inner)}" for key in sorted(obj)]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        widths = set(map(len, obj)) if set(map(type, obj)) <= {list, tuple} else set()
        if len(widths) == 1 and set(map(type, itertools.chain.from_iterable(obj))) == {int}:
            row = f"[\n{inner}  " + f"{sep}  ".join(["%d"] * widths.pop()) + f"\n{inner}]"
            items = [row % tuple(x) for x in obj]
        else:
            items = [_json(x, inner) for x in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}{sep.join(items)}\n{pad}{closing}"


def _json_text(obj) -> str:
    return _json(obj) + "\n"


def _load_code(path: str) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise MalformedCodeError(f"{path}: JSON nested too deeply") from exc
    if isinstance(data, dict) and "generator" not in data and "code" in data:
        data = data["code"]  # a construct or dial payload
    return LinearCode.from_dict(data)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


#: Lines per piece of TSV or pretty output, records per piece of JSON:
#: the text is never held whole.
_LINE_BATCH = 4096


def _pretty_row(r: EaqecParams) -> str:
    mds = "gate-failed" if r.mds is None else ("MDS" if r.mds else "not MDS")
    fam = ",".join(r.families) or "-"
    return f"[[{r.n}, {r.k_q}, {r.d}, {r.c}]]_{r.q}  {mds}  family={fam}"


def _batched(lines: Iterator[str]) -> Iterator[str]:
    """The lines, each ended, in pieces of at most _LINE_BATCH lines."""
    while batch := list(itertools.islice(lines, _LINE_BATCH)):
        yield "\n".join(batch) + "\n"


def _records_text(records: Iterable[EaqecParams], fmt: str) -> Iterator[str]:
    """The records as text, streamed in pieces of at most _LINE_BATCH lines.

    JSON is written _LINE_BATCH records at a time, each record two spaces
    deep, as the whole list's indent-2 dump holds it.
    """
    records = iter(records)
    if fmt == "json":
        opening = "[\n  "
        while batch := list(itertools.islice(records, _LINE_BATCH)):
            yield opening + ",\n  ".join([_json(r.to_dict(), "  ") for r in batch])
            opening = ",\n  "
        yield "[]\n" if opening == "[\n  " else "\n]\n"
        return
    if fmt == "tsv":
        lines = itertools.chain([TSV_HEADER], map(tsv_row, records))
    else:  # no records print as one empty line
        first = next(records, None)
        lines = map(_pretty_row, itertools.chain([first], records)) if first else iter([""])
    yield from _batched(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    field = make_quadratic_field(args.q)
    result = construct_family(
        field,
        args.family,
        k=args.k,
        m=args.m,
        m1=args.m1,
        m2=args.m2,
        g=None if args.g is None else _int_list(args.g),
        seed=args.seed,
    )
    payload = {
        **vars(result),
        "field": field.to_dict(),
        "grs": result.grs.to_dict() if result.found else None,
        "code": result.grs.code().to_dict() if result.found else None,
    }
    _emit([_json_text(payload)], args.out)
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def _cmd_dial(args) -> int:
    code = _load_code(args.codefile)
    if args.galois_l is not None:
        result = dial_galois_hull(code, args.target, args.galois_l)
    else:
        result = reduce_hull(code, args.target)
    _emit([_json_text(result.to_dict())], args.out)
    return EXIT_OK


def _cmd_eaqec(args) -> int:
    code = _load_code(args.codefile)
    if args.l is not None:
        records = [eaqec_from_dial(code, args.l, cap=args.cap)]
    else:
        records = eaqec_sweep(code, cap=args.cap)
    _emit(_records_text(records, args.format), args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    runs = _table_blocks(args.q, args.max_rows, not args.no_generic)
    if args.format == "tsv":  # the bulk format, rendered without records
        text = _block_tsv_text(args.q, runs, _LINE_BATCH)
    else:
        text = _records_text(_block_records(args.q, runs), args.format)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = _int_list(args.params)
    if len(params) != 4:
        raise HulldialError("--params must be n,k,d,c")
    if args.cap is not None and not args.witness:
        raise HulldialError("--cap bounds only the witness check; it needs --witness")
    n, k_q, d, c = params
    witness = _load_code(args.witness) if args.witness else None
    verdict = verify_claim(claim(args.q, n, k_q, d, c), witness, cap=args.cap)
    _emit([_json_text(verdict.to_dict())], args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    code = _load_code(args.codefile)
    d = min_distance(code, cap=args.cap)
    payload = {"n": code.n, "k": code.k, "d": d, "mds": d == code.n - code.k + 1}
    _emit([_json_text(payload)], args.out)
    return EXIT_OK


def _cmd_hull(args) -> int:
    code = _load_code(args.codefile)
    report = hull(code, args.kind, args.l)
    _emit([_json_text({**vars(report), "basis": report.basis.to_dict()})], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = _Parser(prog="hulldial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file (atomic)")

    def add_common(p):
        add_out(p)
        p.add_argument("--cap", type=int, default=None, help="enumeration cap override")

    p = sub.add_parser("construct", help="build a self-orthogonal GRS family member")
    p.add_argument("--q", type=int, required=True, help="base field size (prime power)")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--m", type=int, help="subgroup index")
    p.add_argument("--m1", type=int, help="first subgroup index (two-subgroup)")
    p.add_argument("--m2", type=int, help="second subgroup index (two-subgroup)")
    p.add_argument("--g", help="polynomial g as comma-separated element codes, low degree first")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="search seed")
    add_out(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("dial", help="transform a code to a target hull dimension")
    p.add_argument("codefile", help="code JSON file")
    p.add_argument("--h", dest="target", type=int, required=True, help="target hull dimension")
    p.add_argument("--galois-l", type=int, default=None, help="use the l-Galois form instead")
    add_out(p)
    p.set_defaults(fn=_cmd_dial)

    p = sub.add_parser("eaqec", help="derive entanglement-assisted parameters")
    p.add_argument("codefile", help="code JSON file")
    p.add_argument("--l", type=int, default=None, help="single hull target (default: sweep)")
    p.add_argument("--format", choices=("tsv", "json", "pretty"), default="tsv")
    add_common(p)
    p.set_defaults(fn=_cmd_eaqec)

    p = sub.add_parser("table", help="enumerate the known parameter families")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--no-generic", action="store_true", help="omit the any-length family")
    p.add_argument("--format", choices=("tsv", "json", "pretty"), default="tsv")
    add_out(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="check a claimed [[n,k,d,c]]_q record")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--params", required=True, help="n,k,d,c")
    p.add_argument("--witness", help="code JSON file backing the claim")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("distance", help="exact minimum distance")
    p.add_argument("codefile", help="code JSON file")
    add_common(p)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("hull", help="hull basis and dimension")
    p.add_argument("codefile", help="code JSON file")
    p.add_argument("--kind", choices=("euclidean", "hermitian", "galois"), default="hermitian")
    p.add_argument("--l", type=int, default=None, help="galois index (--kind galois only)")
    add_out(p)
    p.set_defaults(fn=_cmd_hull)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "cap" in args:
            enumeration_cap(args.cap)  # a bad cap fails before any work
        return args.fn(args)
    except (HulldialError, ValueError, ZeroDivisionError, OSError, MemoryError) as exc:
        sys.stderr.write(f"hulldial: error: {str(exc) or type(exc).__name__}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
