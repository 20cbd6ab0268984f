import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hulldial
from hulldial import cli, eaqec
from hulldial.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_full_field(tmp_path, capsys):
    out = tmp_path / "code.json"
    code, _, _ = _run(capsys, "construct", "--q", "3", "--family", "full-field",
                      "--k", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "found"
    assert payload["code"]["n"] == 9 and payload["code"]["k"] == 2
    assert payload["grs"]["extended"] is False
    assert len(payload["grs"]["eval_points"]) == 9


def test_construct_deterministic(capsys):
    code1, out1, _ = _run(capsys, "construct", "--q", "3", "--family", "q2plus1",
                          "--k", "3", "--seed", "7")
    code2, out2, _ = _run(capsys, "construct", "--q", "3", "--family", "q2plus1",
                          "--k", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical argv + seed


#: Every public name of the package but its submodules.  A helper that
#: only tests call belongs in tests/oracles.py, not here.
_PUBLIC_NAMES = {
    "BadDimensionError", "BadFamilyParamsError", "BadFieldError", "BadGaloisIndexError",
    "BadPermutationError", "BadTargetError", "CapExceededError", "DialResult",
    "DuplicateEvalPointsError", "EaqecParams", "Field", "FieldMatrix", "GrsSpec",
    "HullReport", "HulldialError", "LinearCode", "MalformedCodeError",
    "MultiplierProblem", "MultiplierSearch", "NoSuchElementError", "NotADivisorError",
    "NotPrimeError", "NotSelfOrthogonalError", "OddExtensionError",
    "RankDeficientError", "ShapeMismatchError", "SmallFieldError", "SpecMismatchError",
    "TooLargeToEnumerateError", "Verdict", "VerificationFailedError",
    "ZeroMultiplierError", "arrange_p1_nonsingular", "claim", "conj_transpose",
    "construct_family", "dial_galois_hull", "dial_hull", "dual_min_distance",
    "eaqec_from_code", "eaqec_from_dial", "eaqec_sweep", "enumerate_table1",
    "full_field_rs", "grs_generator", "hermitian_dual", "hull",
    "is_hermitian_self_orthogonal", "is_mds", "make_quadratic_field", "matmul",
    "min_distance", "null_space", "permute", "rank", "reduce_hull", "rref", "scale",
    "solve_multipliers", "standard_form", "subgroup_eval_set",
    "subgroup_union_eval_set", "trace_nonzero_eval_set", "verify_claim",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(hulldial).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == _PUBLIC_NAMES


#: Every public attribute of a Field and of a FieldMatrix.  Element
#: arithmetic is the *_array methods; the few scalar methods left are the
#: ones library paths call once per step.  A scalar twin of an array
#: method, which only tests would call, does not belong here.
_PUBLIC_ATTRIBUTES = {
    hulldial.Field: {
        "add_array", "conj_array", "dot_lanes", "e", "elements", "extension_generator",
        "find_power_non_one", "from_lanes", "frobenius_array", "inv", "inv_array",
        "lane_capacity", "modulus", "mul_array", "neg_array", "norm_preimage",
        "norm_preimage_array", "order", "p", "pow", "pow_array", "primitive_element",
        "subfield_elements", "subfield_order", "to_dict",
    },
    hulldial.FieldMatrix: {
        "cols", "data", "field", "rows", "shape", "to_dict", "tolist", "zeros",
    },
}


@pytest.mark.parametrize("kind", list(_PUBLIC_ATTRIBUTES), ids=lambda kind: kind.__name__)
def test_public_attributes_are_pinned(kind):
    gf9 = hulldial.make_quadratic_field(3)
    instance = gf9 if kind is hulldial.Field else hulldial.FieldMatrix(gf9, [[1, 2]])
    assert {name for name in dir(instance) if not name.startswith("_")} == _PUBLIC_ATTRIBUTES[kind]


def test_construct_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--q", "3", "--family", "full-field"])
    assert exc.value.code == 1


def test_roundtrip_construct_dial_eaqec(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    dialfile = tmp_path / "dial.json"
    assert _run(capsys, "construct", "--q", "3", "--family", "full-field",
                "--k", "2", "--out", str(codefile))[0] == 0
    assert _run(capsys, "dial", str(codefile), "--h", "1", "--out", str(dialfile))[0] == 0
    dial = json.loads(dialfile.read_text())
    assert dial["achieved_h"] == 1 and dial["target_h"] == 1
    assert len(dial["perm"]) == 9 and len(dial["v"]) == 9

    code, out, _ = _run(capsys, "eaqec", str(dialfile))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("q\tn\tk_q")
    assert len(lines) == 3  # header + sweep over hull dim 1
    assert lines[1].split("\t")[:5] == ["3", "9", "7", "3", "2"]


def test_eaqec_sweep_on_witness(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    code, out, _ = _run(capsys, "eaqec", str(codefile))
    assert code == 0
    rows = [l.split("\t") for l in out.strip().split("\n")[1:]]
    assert [r[:5] for r in rows] == [
        ["3", "9", "7", "3", "2"],
        ["3", "9", "6", "3", "1"],
        ["3", "9", "5", "3", "0"],
    ]


def test_construct_eaqec_round_trip_at_q16(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    assert _run(capsys, "construct", "--q", "16", "--family", "full-field", "--k", "3",
                "--out", str(codefile))[0] == 0
    code, out, _ = _run(capsys, "eaqec", str(codefile), "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert [(r["n"], r["k_q"], r["d"], r["c"]) for r in recs] == [
        (256, 253 - l, 4, 3 - l) for l in range(4)
    ]
    assert all(r["witnessed"] and r["mds"] for r in recs)


def test_eaqec_single_l_json(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    code, out, _ = _run(capsys, "eaqec", str(codefile), "--l", "1", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1 and recs[0]["c"] == 1 and recs[0]["mds"] is True


def test_eaqec_rejects_odd_extension_field(tmp_path, capsys):
    codefile = tmp_path / "bad.json"
    codefile.write_text(json.dumps({
        "field": {"p": 3, "e": 1, "modulus": [0, 1]},
        "n": 2, "k": 1,
        "generator": {"rows": 1, "cols": 2, "entries": [[1], [1]]},
    }))
    code, _, err = _run(capsys, "eaqec", str(codefile))
    assert code == 1
    assert "error" in err


def test_dial_bad_target_exit_1(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    code, _, err = _run(capsys, "dial", str(codefile), "--h", "5")
    assert code == 1 and "error" in err


def test_table_determinism_and_q2(capsys):
    code1, out1, _ = _run(capsys, "table", "--q", "3", "--max-rows", "100")
    code2, out2, _ = _run(capsys, "table", "--q", "3", "--max-rows", "100")
    assert code1 == code2 == 0 and out1 == out2
    assert out1.endswith("\n") and "\r" not in out1
    code, _, err = _run(capsys, "table", "--q", "2")
    assert code == 1


def test_base_field_is_checked_alike_by_every_subcommand(capsys):
    for argv in (["table", "--q", "6"],
                 ["construct", "--q", "6", "--family", "full-field", "--k", "1"],
                 ["verify", "--q", "6", "--params", "5,1,3,0"]):
        assert _run(capsys, *argv) == (1, "", "hulldial: error: q = 6 is not a prime power\n")


def test_hostile_field_size_exits_1(capsys):
    for argv in (["table", "--q", "1000000000000000003"],
                 ["construct", "--q", "1000000000000000003", "--family", "full-field", "--k", "1"],
                 ["verify", "--q", "1000000000000000003", "--params", "5,1,3,0"]):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert "exceeds the field order cap" in err


def test_trace_poly_horner_work_is_budgeted(capsys):
    # deg g may reach (q - k)q - 1, about 10^6 at q = 1024, and each Horner
    # step over the 2^20 field elements takes about 0.1 s
    g = ",".join(["0"] * 100_000 + ["1"])
    start = time.perf_counter()
    code, out, err = _run(capsys, "construct", "--q", "1024", "--family", "trace-poly",
                          "--k", "1", "--g", g)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("hulldial: error: ") and err.count("\n") == 1 and "Horner" in err


@pytest.mark.parametrize("extra", [[], ["--no-generic"]])
def test_table_large_q_costs_only_the_rows_it_prints(capsys, table_draws, extra):
    # the named families alone hold about 10^9 rows at q = 1009; table_draws
    # fails a walk that draws more than 1000 pairs from one of them
    tracemalloc.start()
    try:
        code, out, _ = _run(capsys, "table", "--q", "1009", "--max-rows", "5", *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = out.splitlines()
    assert code == 0 and len(lines) == 6 and lines[0].startswith("q\tn\t")
    assert all(line.startswith("1009\t1018082\t") for line in lines[1:])
    assert peak < 2 * 2**20, f"peak {peak} bytes"
    assert list(table_draws) == ["q2plus1"] and len(table_draws["q2plus1"]) <= 5


@pytest.mark.parametrize("extra", [[], ["--no-generic"], ["--max-rows", "1000000000"]])
def test_table_stops_one_row_past_the_cap(capsys, monkeypatch, extra):
    # without the cap, q = 1009 would build about 10^9 rows until memory ran out
    monkeypatch.setattr(eaqec, "TABLE_ROW_CAP", 2000)
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "table", "--q", "1009", *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert "q = 1009 table has over 2000 rows" in err
    assert peak < 2 * 2**20, f"peak {peak} bytes"


def test_table_row_cap_holds_the_full_q16_table():
    rows = eaqec.enumerate_table1(16)
    assert len(rows) == 732_032 <= eaqec.TABLE_ROW_CAP


@pytest.mark.parametrize("fmt", ["tsv", "pretty", "json"])
def test_refused_table_writes_nothing(capsys, monkeypatch, tmp_path, fmt):
    # the full q = 16 table has 732,032 rows: one past the cap, counted on
    # the last (n, k) pair, before the first byte
    monkeypatch.setattr(eaqec, "TABLE_ROW_CAP", 732_031)
    code, out, err = _run(capsys, "table", "--q", "16", "--format", fmt)
    assert code == 1 and out == ""
    assert "q = 16 table has over 732031 rows" in err
    target = tmp_path / "table.out"
    code, out, _ = _run(capsys, "table", "--q", "16", "--format", fmt, "--out", str(target))
    assert code == 1 and out == ""
    assert list(tmp_path.iterdir()) == []


def _hulldial_process(*argv, limit_bytes=None):
    """Run ``python -m hulldial`` in a child process, with its own address
    space capped at limit_bytes if given (a limit on the child alone)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    env = {**os.environ, "PYTHONPATH": str(Path(hulldial.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "hulldial", *argv], env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=None if limit_bytes is None else cap,
    )


def test_memory_error_exits_1_with_one_line_and_no_file(capsys, monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError

    target = tmp_path / "code.json"
    argv = ["construct", "--q", "3", "--family", "full-field", "--k", "2", "--out", str(target)]
    monkeypatch.setattr(cli, "construct_family", exhausted)
    assert _run(capsys, *argv) == (1, "", "hulldial: error: MemoryError\n")
    assert list(tmp_path.iterdir()) == []
    # GF(256^2) tables and a 255 x 65536 elimination do not fit in 700 MiB;
    # numpy's allocation failure once ended the process with a traceback
    argv[2], argv[6] = "256", "255"
    done = _hulldial_process(*argv, limit_bytes=700 * 2**20)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("hulldial: error: ") and done.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_empty_trace_poly_set_is_one_stderr_line():
    # the empty set once came with a UserWarning naming the library's source line
    done = _hulldial_process("construct", "--q", "5", "--family", "trace-poly", "--k", "2",
                             "--g", "0")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "hulldial: error: evaluation set smaller than k\n"


#: Runs hulldial in a grandchild and prints its peak RSS, so no earlier
#: child of the test process shows in RUSAGE_CHILDREN.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "hulldial", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.parametrize(
    "fmt, row_start", [("tsv", b"16\t"), ("pretty", b"[["), ("json", b"  {\n")]
)
def test_full_q16_table_streams_in_bounded_memory(tmp_path, fmt, row_start):
    # as one list of records it peaked at 142 MB as TSV and 1,934 MB as JSON
    target = tmp_path / f"table.{fmt}"
    env = {**os.environ, "PYTHONPATH": str(Path(hulldial.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "table", "--q", "16", "--format", fmt,
         "--out", str(target)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    peak_mb = int(done.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 60, f"peak {peak_mb:.1f} MB"
    with open(target, "rb") as fh:
        assert sum(line.startswith(row_start) for line in fh) == 732_032


def test_table_negative_max_rows_exits_1(capsys):
    code, out, err = _run(capsys, "table", "--q", "3", "--max-rows", "-1")
    assert code == 1 and out == ""
    assert "max_rows" in err


def test_table_rejects_flags_it_would_ignore(capsys):
    # and every other subcommand that would ignore its --seed or --cap
    for argv, flags in (
        (["table", "--q", "3"], ("--seed", "--cap")),
        (["dial", "code.json", "--h", "0"], ("--seed", "--cap")),
        (["hull", "code.json"], ("--seed", "--cap")),
        (["eaqec", "code.json"], ("--seed",)),
        (["verify", "--q", "3", "--params", "9,6,3,1"], ("--seed",)),
        (["distance", "code.json"], ("--seed",)),
        (["construct", "--q", "3", "--family", "full-field", "--k", "1"], ("--cap",)),
    ):
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "1"])
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["--q", "3", "--family", "full-field", "--k", "1", "--m", "3"], "m"),
        (["--q", "3", "--family", "full-field", "--k", "1", "--g", "0,1"], "g"),
        (["--q", "3", "--family", "full-field", "--k", "1", "--g", ""], "g"),
        (["--q", "3", "--family", "full-field", "--k", "1", "--m1", "3", "--m2", "1"], "m1, m2"),
        (["--q", "5", "--family", "subgroup", "--k", "2", "--m", "3", "--g", "0,1"], "g"),
    ],
)
def test_construct_rejects_parameters_its_family_does_not_take(capsys, argv, foreign):
    code, out, err = _run(capsys, "construct", *argv)
    assert code == 1 and out == ""
    assert err.startswith("hulldial: error: ") and err.count("\n") == 1
    assert f"takes no {foreign}\n" in err


@pytest.mark.parametrize(
    "family, params, missing",
    [
        ("trace-poly", {}, "g"),
        ("subgroup", {}, "m"),
        ("two-subgroup", {"m2": 3}, "m1"),
        ("two-subgroup", {"m1": 1}, "m2"),
        ("two-subgroup", {}, "m1 and m2"),
        ("even-subgroup", {}, "m"),
    ],
)
def test_construct_refuses_a_missing_family_parameter(capsys, family, params, missing):
    from hulldial.errors import BadFamilyParamsError
    from hulldial.field import make_quadratic_field
    from hulldial.grs import construct_family

    with pytest.raises(BadFamilyParamsError, match=f"^the {family} family needs {missing}$"):
        construct_family(make_quadratic_field(7), family, k=1, **params)
    flags = [arg for p, v in params.items() for arg in (f"--{p}", str(v))]
    code, out, err = _run(capsys, "construct", "--q", "7", "--family", family, "--k", "1", *flags)
    assert code == 1 and out == ""
    assert err == f"hulldial: error: the {family} family needs {missing}\n"


def test_dial_refusals_keep_their_error_types(tmp_path, capsys):
    from hulldial.code import LinearCode
    from hulldial.dial import dial_galois_hull, dial_hull, reduce_hull
    from hulldial.errors import NotSelfOrthogonalError, SmallFieldError
    from hulldial.field import Field

    # the [7, 3] GF(9) code has a 1-dimensional l-Galois hull for l = 0 and 1
    gf9_file = GOLDEN_CLI / "gf9_code.json"
    gf9 = LinearCode.from_dict(json.loads(gf9_file.read_text()))
    for l in (0, 1):
        with pytest.raises(NotSelfOrthogonalError):
            dial_galois_hull(gf9, 0, l)
        code, out, err = _run(capsys, "dial", str(gf9_file), "--h", "0", "--galois-l", str(l))
        assert code == 1 and out == ""
        assert err == f"hulldial: error: dial_galois_hull needs C inside its {l}-Galois dual\n"
    # (1, 1) over GF(4) is self-orthogonal under every form; a Hermitian
    # scaling needs x^3 != 1, which no element of GF(4) has, and so does
    # the 1-Galois one (its twist is conjugation too): each entry point
    # refuses before arranging anything
    from hulldial import dial as dial_module

    gf4 = LinearCode(Field(2, 2), [[1, 1]])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dial_module, "arrange_p1_nonsingular", _must_not_run)
        for dial in (dial_hull, reduce_hull, lambda c, h: dial_galois_hull(c, h, 1)):
            with pytest.raises(SmallFieldError):
                dial(gf4, 0)
    gf4_file = tmp_path / "gf4.json"
    gf4_file.write_text(json.dumps(gf4.to_dict()))
    for galois in ([], ["--galois-l", "1"]):
        code, out, err = _run(capsys, "dial", str(gf4_file), "--h", "0", *galois)
        assert code == 1 and out == ""
        assert err == "hulldial: error: no x in GF(4) has x^3 != 1 to scale by\n"
    # the 0-Galois form has constants to scale by
    assert dial_galois_hull(gf4, 0, 0).achieved_h == 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the cap was checked")


def test_enumeration_cap_past_int64_exits_1(tmp_path, capsys, monkeypatch):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    code, out, err = _run(capsys, "distance", str(codefile), "--cap", str(2**64))
    assert code == 1 and out == "" and "int64" in err
    monkeypatch.setattr(cli, "eaqec_sweep", _must_not_run)
    code, out, err = _run(capsys, "eaqec", str(codefile), "--cap", str(2**64))
    assert code == 1 and out == "" and "int64" in err


@pytest.mark.parametrize("command, cap", [("distance", "-1"), ("eaqec", "-5")])
def test_negative_enumeration_cap_exits_1(capsys, monkeypatch, command, cap):
    for name in ("eaqec_sweep", "min_distance"):
        monkeypatch.setattr(cli, name, _must_not_run)
    code, out, err = _run(capsys, command, str(GOLDEN_CLI / "gf9_code.json"), "--cap", cap)
    assert (code, out, err) == (1, "", f"hulldial: error: enumeration cap {cap} is negative\n")


def test_table_q8_includes_char2_row(capsys):
    code, out, _ = _run(capsys, "table", "--q", "8", "--no-generic")
    assert code == 0
    assert "q2plus1-char2" in out


def test_verify_command(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    dialfile = tmp_path / "dial.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    _run(capsys, "dial", str(codefile), "--h", "1", "--out", str(dialfile))
    code, out, _ = _run(capsys, "verify", "--q", "3", "--params", "9,6,3,1",
                        "--witness", str(dialfile))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["passed"] is True
    code, out, _ = _run(capsys, "verify", "--q", "3", "--params", "9,7,3,1")
    assert code == 0
    assert json.loads(out)["passed"] is False


def test_verify_witnesses_a_dialed_q7_code(tmp_path, capsys):
    # [[49, 3, 46, 44]]_7 from the [49, 4] code dialed to hull dimension 1:
    # the certificate answers d = 46 without enumerating 49^4 messages
    codefile = tmp_path / "code.json"
    dialfile = tmp_path / "dial.json"
    _run(capsys, "construct", "--q", "7", "--family", "full-field", "--k", "4",
         "--out", str(codefile))
    _run(capsys, "dial", str(codefile), "--h", "1", "--out", str(dialfile))
    code, out, _ = _run(capsys, "verify", "--q", "7", "--params", "49,3,46,44",
                        "--witness", str(dialfile))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_witnesses_a_dialed_q16_code_past_the_cap(tmp_path, capsys):
    # 256^3 messages are past the enumeration cap: the certificate answers
    codefile = tmp_path / "code.json"
    dialfile = tmp_path / "dial.json"
    _run(capsys, "construct", "--q", "16", "--family", "full-field", "--k", "3",
         "--out", str(codefile))
    _run(capsys, "dial", str(codefile), "--h", "1", "--out", str(dialfile))
    code, out, _ = _run(capsys, "verify", "--q", "16", "--params", "256,252,4,2",
                        "--witness", str(dialfile))
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = _run(capsys, "distance", str(dialfile))
    assert code == 0
    assert json.loads(out)["d"] == 254


@pytest.mark.parametrize("q", ["6", "1", "0", "-3"])
def test_verify_rejects_a_q_that_is_not_a_prime_power(capsys, q):
    code, out, err = _run(capsys, "verify", "--q", q, "--params", "5,1,3,0")
    assert code == 1 and out == ""
    assert err.startswith("hulldial: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("q", ["2", "4"])
def test_verify_accepts_prime_power_q(capsys, q):
    code, out, _ = _run(capsys, "verify", "--q", q, "--params", "5,1,3,0")
    assert code == 0 and "passed" in json.loads(out)


def test_verify_cap_needs_witness(capsys):
    # the cap bounds only the witness check; alone it would be ignored
    code, out, err = _run(capsys, "verify", "--q", "3", "--params", "9,6,3,1", "--cap", "10")
    assert code == 1 and out == ""
    assert err.count("hulldial: error:") == 1 and "--witness" in err
    # and --params takes exactly four values
    assert _run(capsys, "verify", "--q", "3", "--params", "9,6,3") == (
        1, "", "hulldial: error: --params must be n,k,d,c\n")


def test_distance_and_hull_commands(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    code, out, _ = _run(capsys, "distance", str(codefile))
    assert code == 0
    assert json.loads(out) == {"d": 8, "k": 2, "mds": True, "n": 9}
    code, out, _ = _run(capsys, "hull", str(codefile))
    assert code == 0
    hull_payload = json.loads(out)
    assert hull_payload["dim"] == 2 and hull_payload["kind"] == "hermitian"
    code, out, _ = _run(capsys, "hull", str(codefile), "--kind", "galois", "--l", "0")
    assert code == 0
    assert json.loads(out)["kind"] == "galois"


def test_hull_l_needs_galois_kind(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    for kind in ("euclidean", "hermitian"):
        code, out, err = _run(capsys, "hull", str(codefile), "--kind", kind, "--l", "1")
        assert code == 1 and out == ""
        assert err.count("hulldial: error:") == 1 and "galois" in err


def test_search_miss_exit_2(tmp_path, capsys):
    # two points, k = 2: provably no self-orthogonal multiplier assignment
    codefile = tmp_path / "unused.json"
    from hulldial.field import Field
    from hulldial.grs import MultiplierProblem, solve_multipliers

    res = solve_multipliers(MultiplierProblem(Field(3, 2), (0, 1), 2))
    assert res.status == "no-solution"
    # the CLI surfaces the same outcome through construct on a family whose
    # solver finds nothing; trace-poly over a 2-point set with k = 2
    code, out, _ = _run(capsys, "construct", "--q", "4", "--family", "q2plus1", "--k", "1")
    assert code in (0, 2)  # found for this family; the contract is 0/2, never crash


def test_json_artifacts_accepted_back_bit_identically(tmp_path, capsys):
    codefile = tmp_path / "code.json"
    _run(capsys, "construct", "--q", "3", "--family", "full-field", "--k", "2",
         "--out", str(codefile))
    # dial output embeds the code; feeding it to distance/hull must work
    dialfile = tmp_path / "dial.json"
    _run(capsys, "dial", str(codefile), "--h", "0", "--out", str(dialfile))
    code, out, _ = _run(capsys, "distance", str(dialfile))
    assert code == 0 and json.loads(out)["d"] == 8


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def _golden_cases():
    # Outputs recorded from the CLI while hulls were still computed by
    # intersecting two n-column null spaces; the Gram-matrix path must
    # reproduce them byte for byte.  Neither code is Hermitian
    # self-orthogonal, so `dial --h 0` runs reduce_hull.
    for name, e in (("gf9", 2), ("gf16", 4)):
        yield name, "hull_hermitian", ["hull", "--kind", "hermitian"]
        yield name, "hull_euclidean", ["hull", "--kind", "euclidean"]
        for l in range(e):
            yield name, f"hull_galois_l{l}", ["hull", "--kind", "galois", "--l", str(l)]
        yield name, "dial_h0", ["dial", "--h", "0"]
    # eaqec sweeps: reduce_hull for gf9 and gf16, dial_hull for the
    # self-orthogonal full-field [16, 3] code rs16; recorded while every
    # record still re-measured both distances of its dialed code
    for name in ("gf9", "gf16", "rs16"):
        yield name, "eaqec_tsv", ["eaqec", "--format", "tsv"]
        yield name, "eaqec_json", ["eaqec", "--format", "json"]
        yield name, "eaqec_l0", ["eaqec", "--l", "0", "--format", "json"]
    # construct and table take no code file; recorded while the multiplier
    # solver still evaluated every coefficient vector and the table built a
    # record for every row before truncating
    yield "construct", "q5_q2plus1_k3", ["construct", "--q", "5", "--family", "q2plus1",
                                         "--k", "3", "--seed", "1"]  # random-phase hit
    yield "construct", "q5_tracepoly_k3", ["construct", "--q", "5", "--family", "trace-poly",
                                           "--k", "3", "--g", "0,1", "--seed", "1"]
    yield "construct", "q3_q2plus1_k1", ["construct", "--q", "3", "--family", "q2plus1",
                                         "--k", "1"]  # exhaustive hit in the third chunk
    yield "construct", "q4_tracepoly_k2", ["construct", "--q", "4", "--family", "trace-poly",
                                           "--k", "2", "--g", "0,1"]
    yield "construct", "q5_subgroup_k2", ["construct", "--q", "5", "--family", "subgroup",
                                          "--k", "2", "--m", "3"]
    # recorded while each family checked its own required parameters and
    # dial_galois_hull ran a separate self-orthogonality gate; the full-field
    # [16, 3] code is Euclidean (0-Galois) self-orthogonal
    yield "construct", "q5_twosubgroup_k2", ["construct", "--q", "5", "--family", "two-subgroup",
                                             "--k", "2", "--m1", "1", "--m2", "3"]
    yield "construct", "q7_evensubgroup_k2", ["construct", "--q", "7", "--family",
                                              "even-subgroup", "--k", "2", "--m", "6"]
    yield "rs16", "dial_galois_l0_h1", ["dial", "--h", "1", "--galois-l", "0"]
    # distance and verify, recorded while each code file entry was still
    # converted on its own: gf9 and gf16 are not MDS, so neither distance
    # has a certificate; verify passes on rs16 and fails with one reason on gf9
    yield "gf9", "distance", ["distance"]
    yield "gf16", "distance", ["distance"]
    yield "rs16", "verify_q4_16_10_4_0", ["verify", "--q", "4", "--params", "16,10,4,0",
                                          "--witness"]
    yield "gf9", "verify_q3_7_4_2_3", ["verify", "--q", "3", "--params", "7,4,2,3", "--witness"]
    # a 16-target sweep of the full-field [256, 15] code at q = 16, recorded
    # while every target was still dialed from one (T, k, n) stack
    yield "rs256", "eaqec_json", ["eaqec", "--format", "json"]
    # found by the solver's second random pass, which draws nonzero digits
    # only; checked on its own below
    yield "construct", "q13_q2plus1_k3", ["construct", "--q", "13", "--family", "q2plus1",
                                          "--k", "3"]
    yield "table", "q11_rows50", ["table", "--q", "11", "--max-rows", "50"]
    yield "table", "q9_rows300", ["table", "--q", "9", "--max-rows", "300",
                                  "--format", "pretty"]
    # full tables, recorded while every generic row still went through the
    # dedup dict
    yield "table", "q8_full", ["table", "--q", "8"]
    yield "table", "q7_full", ["table", "--q", "7", "--format", "json"]
    yield "table", "q9_nogeneric", ["table", "--q", "9", "--no-generic", "--format", "pretty"]
    # rs16's generator digits read over GF(16) with the modulus x^4 + x + 1,
    # not the default x^4 + x^3 + 1: a non-MDS [16, 3] code with d = 12,
    # recorded while the field set-up ran on coefficient-tuple polynomials
    yield "gf16_alt_modulus", "hull", ["hull"]
    yield "gf16_alt_modulus", "eaqec_json", ["eaqec", "--format", "json"]


#: Codes too long to keep as golden files, built by construct for each run
_CONSTRUCTED = {"rs256": ["--q", "16", "--family", "full-field", "--k", "15"]}


@pytest.mark.parametrize(
    "name,tag,argv", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _golden_cases()]
)
def test_golden_cli_bytes(capsys, tmp_path, name, tag, argv):
    if name in ("construct", "table"):
        files = []
    elif name in _CONSTRUCTED:
        files = [str(tmp_path / "code.json")]
        assert _run(capsys, "construct", *_CONSTRUCTED[name], "--out", files[0])[0] == 0
    else:
        files = [str(GOLDEN_CLI / f"{name}_code.json")]
    code, out, _ = _run(capsys, *argv, *files)  # the file last, so --witness takes it
    assert code == 0
    if "--format" in argv:
        suffix = argv[argv.index("--format") + 1]
    else:
        suffix = "tsv" if argv[0] == "table" else "json"
    assert out.encode() == (GOLDEN_CLI / f"{name}_{tag}.{suffix}").read_bytes()


def test_golden_q13_q2plus1_code_checks_against_the_oracle():
    # no earlier solver found this [170, 3] code, so its golden is checked
    # independently: Gram matrix by polynomial arithmetic, and the MDS property
    from hulldial.code import LinearCode, is_mds
    from oracles import hermitian_gram

    out = json.loads((GOLDEN_CLI / "construct_q13_q2plus1_k3.json").read_text())
    assert (out["status"], out["null_dim"], out["attempts"]) == ("found", 161, 204096)
    code = LinearCode.from_dict(out["code"])
    assert (code.field.subfield_order, code.n, code.k) == (13, 170, 3)
    assert hermitian_gram(code) == [[0] * 3] * 3
    assert is_mds(code)


def test_golden_eaqec_sweep_over_odd_characteristic_with_e_6(capsys, tmp_path):
    # A full-field [729, 4] code over GF(3^6), recorded while matmul still
    # summed products with a pairwise add_array tree: the 729-long inner axis
    # of its Gram products passes the field's lane capacity of 511, and the
    # witness digests pin every dialed generator.
    codefile = tmp_path / "code.json"
    assert _run(capsys, "construct", "--q", "27", "--family", "full-field", "--k", "4",
                "--out", str(codefile))[0] == 0
    code, out, _ = _run(capsys, "eaqec", str(codefile), "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN_CLI / "gf729_eaqec_json.json").read_bytes()


def test_golden_dial_of_a_long_full_field_code(capsys, tmp_path):
    # The full-field [169, 6] code at q = 13, recorded while the arrangement
    # still row-reduced all h x (n - h) of P in one go.  dial_hull to 3 keeps
    # the identity permutation; dialing that output to 0 runs reduce_hull on
    # its 3-dimensional hull, with h < k and a permutation that moves
    # coordinates.
    codefile = tmp_path / "code.json"
    assert _run(capsys, "construct", "--q", "13", "--family", "full-field", "--k", "6",
                "--out", str(codefile))[0] == 0
    dialed = GOLDEN_CLI / "rs169_dial_h3.json"
    code, out, _ = _run(capsys, "dial", str(codefile), "--h", "3")
    assert code == 0 and out.encode() == dialed.read_bytes()
    code, out, _ = _run(capsys, "dial", str(dialed), "--h", "0")
    assert code == 0 and out.encode() == (GOLDEN_CLI / "rs169_dial_h3_h0.json").read_bytes()


def test_golden_hull_span_at_n_169(capsys, tmp_path):
    # Recorded while hull() still multiplied a zero Gram matrix's left null
    # space into G, and reduce_hull still dialed from hull().basis: the hull
    # of the self-orthogonal full-field [169, 6] code (a zero Gram matrix),
    # and the hull, eaqec sweep and dial to 1 of its 3-dimensional-hull
    # dialed output.
    codefile = tmp_path / "code.json"
    assert _run(capsys, "construct", "--q", "13", "--family", "full-field", "--k", "6",
                "--out", str(codefile))[0] == 0
    dialed = str(GOLDEN_CLI / "rs169_dial_h3.json")
    for argv, golden in (
        (["hull", str(codefile)], "rs169_hull.json"),
        (["hull", dialed], "rs169_dial_h3_hull.json"),
        (["eaqec", dialed, "--format", "json"], "rs169_dial_h3_eaqec_json.json"),
        (["dial", dialed, "--h", "1"], "rs169_dial_h3_h1.json"),
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out.encode() == (GOLDEN_CLI / golden).read_bytes(), golden


def test_code_file_with_a_reducible_modulus_exits_1(capsys, tmp_path):
    payload = json.loads((GOLDEN_CLI / "gf16_alt_modulus_code.json").read_text())
    payload["field"]["modulus"] = [1, 0, 0, 0, 1]  # x^4 + 1 = (x + 1)^4
    codefile = tmp_path / "code.json"
    codefile.write_text(json.dumps(payload))
    assert _run(capsys, "hull", str(codefile)) == (
        1, "", "hulldial: error: modulus (1, 0, 0, 0, 1) is reducible over GF(2)\n"
    )


_BATCHED_TABLES = [
    ("q8_full", ["--q", "8"]),
    ("q9_rows300", ["--q", "9", "--max-rows", "300", "--format", "pretty"]),
    ("q9_nogeneric", ["--q", "9", "--no-generic", "--format", "pretty"]),
    # 35 rows end in the (65, 8) run cut to 8 of its 9 rows, on lines
    # 29..36, across the piece boundaries after lines 35 (7), 30 (2) and 29 (1)
    ("q8_full", ["--q", "8", "--max-rows", "35"]),
]


@pytest.mark.parametrize("tag,argv,batch", [
    pytest.param(tag, argv, batch, id=f"{tag}-argv{i}" + ("" if batch == 7 else f"-batch{batch}"))
    for batch in (7, 1, 2)
    for i, (tag, argv) in enumerate(_BATCHED_TABLES)
])
def test_table_text_is_written_in_line_batches(capsys, monkeypatch, tmp_path, tag, argv, batch):
    # the text is never formatted whole; its pieces still add up to the golden bytes
    monkeypatch.setattr(cli, "_LINE_BATCH", batch)
    pieces = []
    emit = cli._emit

    def recording(texts, out):
        texts = list(texts)
        pieces.append(texts)
        emit(texts, out)

    monkeypatch.setattr(cli, "_emit", recording)
    golden = (GOLDEN_CLI / f"table_{tag}.{'pretty' if 'pretty' in argv else 'tsv'}").read_bytes()
    if tag == "q8_full" and "--max-rows" in argv:  # the header and the first rows
        rows = int(argv[argv.index("--max-rows") + 1])
        golden = b"".join(golden.splitlines(keepends=True)[: rows + 1])
        n, _, k, tags, last = eaqec._table_blocks(8, rows, True)[-1]
        assert (n, k, tags, last) == (65, 8, ("q2plus1", "generic"), 8)
    out = tmp_path / "table.txt"
    assert _run(capsys, "table", *argv)[1].encode() == golden
    assert _run(capsys, "table", *argv, "--out", str(out))[1] == ""
    assert out.read_bytes() == golden and not (tmp_path / "table.txt.tmp").exists()
    assert pieces[0] == pieces[1] and len(pieces[0]) == -(-golden.count(b"\n") // batch)
    assert all(piece.count("\n") <= batch for piece in pieces[0])
    assert all(piece.count("\n") == batch for piece in pieces[0][:-1])


def _record_text(records, fmt: str) -> str:
    """The table text built from records, one formatter per format."""
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], sort_keys=True, indent=2) + "\n"
    if fmt == "tsv":
        return eaqec.TSV_HEADER + "\n" + "".join(eaqec.tsv_row(r) + "\n" for r in records)
    return "".join(cli._pretty_row(r) + "\n" for r in records) or "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    q=st.sampled_from((3, 4, 5, 7, 8, 9)),
    max_rows=st.one_of(st.none(), st.integers(0, 400)),
    no_generic=st.booleans(),
    fmt=st.sampled_from(("tsv", "pretty", "json")),
    batch=st.sampled_from((1, 7, 4096)),
)
def test_table_blocks_render_the_records(capsys, monkeypatch, q, max_rows, no_generic, fmt,
                                         batch):
    # the CLI renders TSV from (n, k) blocks without building records, and
    # streams JSON in batches; its bytes must stay those of the record
    # formatters over the whole list, in pieces of any size
    monkeypatch.setattr(cli, "_LINE_BATCH", batch)
    argv = ["table", "--q", str(q), "--format", fmt]
    argv += [] if max_rows is None else ["--max-rows", str(max_rows)]
    argv += ["--no-generic"] if no_generic else []
    records = eaqec.enumerate_table1(q, max_rows=max_rows, include_generic=not no_generic)
    code, out, _ = _run(capsys, *argv)
    # compared as lines: a failing comparison then names the first line that
    # differs, where pytest's diff of two long strings would take minutes
    want = _record_text(records, fmt).splitlines(keepends=True)
    assert code == 0 and out.splitlines(keepends=True) == want


@st.composite
def _runs(draw):
    """Table runs with short k ranges, at lengths close together or far apart."""
    base, spread = draw(st.sampled_from((2, 1000))), draw(st.sampled_from((50, 10**6)))
    runs = []
    for _ in range(draw(st.integers(0, 6))):
        n = base + draw(st.integers(0, spread))
        lo = draw(st.integers(1, min(n // 2, 40)))
        hi = draw(st.integers(lo, min(n // 2, lo + 40)))
        tags = draw(st.sampled_from((("generic",), ("q2plus1", "generic"), ("coset-trim",))))
        runs.append((n, lo, hi, tags, draw(st.integers(1, hi + 1))))
    return runs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(runs=_runs(), batch=st.sampled_from((1, 3, 4096)))
def test_tsv_text_of_any_runs_is_their_records(runs, batch):
    # close lengths share one array of decimal strings, far-apart ones take a
    # window each; both give the record formatter's bytes in batch-line pieces
    pieces = list(eaqec._block_tsv_text(7, runs, batch))
    assert "".join(pieces) == _record_text(eaqec._block_records(7, runs), "tsv")
    assert all(piece.count("\n") == batch for piece in pieces[:-1])


def _escaped_text():
    return st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t", "\x00", "é", "\u2028", "😀"])


@st.composite
def _int_rows(draw):
    """Equal-length int rows, as lists or tuples; sometimes one entry is a
    bool or None, which must print as JSON, not as a number."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.integers(), min_size=width, max_size=width), max_size=4))
    if rows and width and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(
            st.sampled_from((True, False, None))
        )
    return [tuple(r) for r in rows] if draw(st.booleans()) else rows


_json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _escaped_text()
    | _int_rows(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_escaped_text(), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=_json_payloads)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [1.5, {1, 2}, b"x", {"a": [0.5]}, [[1, 2.0]], {1: 2}])
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._json(obj)


def test_failed_write_exits_1_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    def failing(*args):
        yield "q\n"
        raise OSError("device full")

    monkeypatch.setattr(cli, "_block_tsv_text", failing)
    out = tmp_path / "table.tsv"
    code, _, err = _run(capsys, "table", "--q", "3", "--out", str(out))
    assert code == 1 and "device full" in err
    assert list(tmp_path.iterdir()) == []


def test_empty_table_text(capsys):
    header = "q\tn\tk_q\td\tc\tfamily\twitnessed\tmds\tgate\n"
    assert _run(capsys, "table", "--q", "3", "--max-rows", "0")[1] == header
    assert _run(capsys, "table", "--q", "3", "--max-rows", "0", "--format", "pretty")[1] == "\n"
    assert _run(capsys, "table", "--q", "3", "--max-rows", "0", "--format", "json")[1] == "[]\n"


# Malformed code files: every path of the code JSON layout with the JSON
# type it needs.  Each mutation below leaves a file that is not a code.
_LAYOUT = {
    (): dict, ("field",): dict, ("field", "p"): int, ("field", "e"): int,
    ("field", "modulus"): list, ("n",): int, ("k",): int, ("generator",): dict,
    ("generator", "rows"): int, ("generator", "cols"): int, ("generator", "entries"): list,
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _is_json_type(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _walk(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _malformed_code_text(draw) -> bytes:
    doc = json.loads((GOLDEN_CLI / "gf9_code.json").read_text())  # [7, 3] over GF(9)
    kind = draw(st.sampled_from(
        ["delete", "retype", "resize", "entry", "coefficient", "range", "text", "long"]))
    if kind == "text":
        return draw(st.sampled_from([b"", b"{", b"\xff\xfe", b"[" * 100_000, b'"code"', b"7"]))
    if kind == "delete":
        *parent, key = draw(st.sampled_from([path for path in _LAYOUT if path]))
        del _walk(doc, parent)[key]
    elif kind == "retype":
        path = draw(st.sampled_from(list(_LAYOUT)))
        value = draw(_JSON.filter(lambda v: not _is_json_type(v, _LAYOUT[path])))
        if not path:
            doc = value
        else:
            _walk(doc, path[:-1])[path[-1]] = value
    elif kind == "resize":  # a declared size that disagrees with the rest
        *parent, key = draw(st.sampled_from([("field", "e"), ("n",), ("k",),
                                             ("generator", "rows"), ("generator", "cols")]))
        node = _walk(doc, parent)
        node[key] = draw(st.integers(-(10**30), 10**30).filter(lambda v, old=node[key]: v != old))
    elif kind == "long":  # a zero code, consistent but longer than any code file may be
        n = draw(st.integers(2**20 + 2, 2**20 + 100))
        doc["n"], doc["k"], doc["generator"] = n, 0, {"rows": 0, "cols": n, "entries": []}
    elif kind == "entry":  # drop, add or replace one generator entry
        entries = doc["generator"]["entries"]
        i = draw(st.integers(0, len(entries) - 1))
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if action == "drop":
            del entries[i]
        elif action == "add":
            entries.insert(i, [0, 0])
        else:
            entries[i] = draw(_JSON.filter(lambda v: not isinstance(v, list))
                              | st.lists(st.integers(), min_size=3, max_size=4))
    else:  # a coefficient array holding a non-integer, or an integer outside [0, p)
        arrays = [doc["field"]["modulus"], *doc["generator"]["entries"]]
        array = arrays[draw(st.integers(0, len(arrays) - 1))]
        i = draw(st.integers(0, len(array) - 1))
        if kind == "range":  # same residue mod p, so only the range check refuses it
            shift = draw(st.integers(-(10**20), 10**20).filter(lambda j: j != 0))
            array[i] += doc["field"]["p"] * shift
        else:
            array[i] = draw(_JSON.filter(lambda v: not _is_json_type(v, int)))
    if draw(st.booleans()) and isinstance(doc, dict):
        doc = {"code": doc}  # as the construct payload wraps it
    return json.dumps(doc).encode()


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(text=_malformed_code_text())
def test_malformed_code_json_exits_1_with_typed_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    for argv in (["dial", str(path), "--h", "0"], ["eaqec", str(path)],
                 ["distance", str(path)], ["hull", str(path)],
                 ["verify", "--q", "3", "--params", "7,1,5,2", "--witness", str(path)]):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == "", (argv, text[:200])
        assert err.startswith("hulldial: error:") and err.count("\n") == 1, err
