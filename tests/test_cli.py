"""Tests for the command-line front end."""
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chaincodes
from chaincodes import cli
from chaincodes.chainring import chain_ring
from chaincodes.cli import main
from chaincodes.codes import (ENTRY_CAP, LinearCode, code_to_json, dumps_code,
                             loads_code)
from chaincodes.counting import count_hsd


def parse_decimal(text):
    """int(text) in pieces below the interpreter's digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_code(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(dumps_code(code))
    return str(path)


def reference_main(argv):
    """main as it parsed before dispatching on the subcommand word: the
    top-level parser takes the whole line and hands the rest of it on."""
    parser, _ = cli._build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except cli.UsageError as exc:
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except OSError as exc:
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"chaincodes: error: {exc}", file=sys.stderr)
        return 2


def answer(entry, argv, stdin=""):
    """(exit code, stdout, stderr) of entry(argv) with stdin fed."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# count

def test_count_single_value_text(capsys):
    code, out, _ = run(capsys, "count", "hsd", "--q", "4", "--n", "2")
    assert code == 0
    assert out == "hsd(q=4,n=2) = 15\n"


def test_count_range_text(capsys):
    code, out, _ = run(capsys, "count", "esd", "--q", "2", "--range", "1:3")
    assert code == 0
    assert out.splitlines() == [
        "esd(q=2,n=1) = 0",
        "esd(q=2,n=2) = 3",
        "esd(q=2,n=3) = 0",
    ]


def test_count_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "count", "esd", "--q", "3", "--range", "1:4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "esd"
    assert doc["params"] == {"q": "3"}
    assert [c["count"] for c in doc["counts"]] == ["0", "0", "0", "176"]
    assert all(isinstance(c["count"], str) for c in doc["counts"])


def test_count_prints_values_over_the_digit_limit(capsys):
    code, out, err = run(capsys, "count", "hsd", "--q", "4", "--n", "300")
    assert code == 0 and err == ""
    head, _, digits = out.rstrip("\n").partition(" = ")
    assert head == "hsd(q=4,n=300)"
    assert len(digits) > 4300 and digits.isdigit()
    assert parse_decimal(digits) == count_hsd(4, 300)


def test_decimal_helper_is_exact():
    for value in [0, 7, 10 ** 599 - 1, 10 ** 600, 10 ** 601 + 1, 2 ** 4000,
                  10 ** 5000, 3 ** 20000, 10 ** 9000 - 1]:
        text = cli._decimal(value)
        assert text.isdigit() and (text == "0" or text[0] != "0")
        assert parse_decimal(text) == value
        assert cli._decimal(-value) == ("-" + text if value else "0")


def test_count_linear_and_gaussian(capsys):
    code, out, _ = run(capsys, "count", "linear", "--q", "2", "--n", "2")
    assert code == 0 and out.strip().endswith("= 37")
    code, out, _ = run(capsys, "count", "linear", "--q", "2", "--n", "2",
                       "--e", "4")
    assert code == 0 and out == "linear(q=2,e=4,n=2) = 83\n"
    code, out, _ = run(capsys, "count", "gaussian", "--q", "2", "--n", "4",
                       "--k", "2")
    assert code == 0 and out == "gaussian(q=2,k=2,n=4) = 35\n"


def test_count_quasi_abelian_kinds(capsys):
    code, out, _ = run(capsys, "count", "qa", "--p", "3", "--m", "1", "--s",
                       "1", "--A", "2", "--n", "1")
    assert code == 0 and out.strip().endswith("= 16")
    code, out, _ = run(capsys, "count", "qa", "--p", "2", "--A", "7", "--n", "1")
    assert code == 0 and out == "qa(p=2,m=1,s=1,A=7,n=1) = 27\n"
    code, out, _ = run(capsys, "count", "qa-esd", "--p", "3", "--A", "2",
                       "--n", "4")
    assert code == 0 and out.strip().endswith("= 30976")
    code, out, _ = run(capsys, "count", "qa-hsd", "--p", "3", "--m", "2",
                       "--A", "2", "--n", "2")
    assert code == 0 and out.strip().endswith("= 1600")


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "hsd", "--n", "2")[0] == 1          # missing --q
    assert run(capsys, "count", "esd", "--q", "2")[0] == 1          # missing --n
    assert run(capsys, "count", "entropy", "--q", "2", "--n", "2")[0] == 1
    assert run(capsys, "count", "esd", "--q", "2", "--range", "5")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    # --n and --range together are refused before any count
    assert run(capsys, "count", "linear", "--q", "2", "--n", "3",
               "--range", "1:2") == (
        1, "", "chaincodes: error: --n and --range are exclusive\n")
    # only linear, esd and hsd read --e; a qa count's depth is p^s
    for argv in (("gaussian", "--q", "2", "--k", "1"), ("sigma-e", "--q", "2"),
                 ("sigma-h", "--q", "4"), ("qa", "--p", "2", "--A", "7"),
                 ("qa-esd", "--p", "2", "--A", "7"),
                 ("qa-hsd", "--p", "3", "--m", "2", "--A", "2")):
        code, out, err = run(capsys, "count", *argv, "--n", "2", "--e", "3")
        assert code == 1 and out == ""
        assert err.startswith(f"chaincodes: error: count {argv[0]} does not "
                              f"read --e")


def test_count_math_precondition_errors(capsys):
    assert run(capsys, "count", "sigma-h", "--q", "5", "--n", "2")[0] == 2
    assert run(capsys, "count", "hsd", "--q", "3", "--n", "2")[0] == 2
    assert run(capsys, "count", "qa", "--p", "4", "--A", "3", "--n", "1")[0] == 2
    # the self-dual closed forms hold at depth 3 only
    assert run(capsys, "count", "qa-esd", "--p", "2", "--A", "7", "--n", "2")[0] == 2
    # depths over the chain-ring cap are refused before any work
    assert run(capsys, "count", "linear", "--q", "2", "--e", "65537",
               "--n", "1")[0] == 2
    # so are self-dual counts at any depth but 3, which stay as they were
    for kind, q in (("esd", "2"), ("hsd", "4")):
        assert run(capsys, "count", kind, "--q", q, "--n", "4", "--e", "5") == (
            2, "", "chaincodes: error: self-dual counts have closed forms for "
                   "depth 3 only, got depth 5\n")
        assert run(capsys, "count", kind, "--q", q, "--n", "4", "--e", "3") \
            == run(capsys, "count", kind, "--q", q, "--n", "4")


def test_count_linear_over_the_bit_cap_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "linear", "--q", "2", "--n", "700")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("chaincodes: error: the count is about q^367500 with "
                   "q = 2, over the cap of 262144 bits\n")


@pytest.mark.parametrize("argv,exponent,q", [
    (("esd", "--q", "2", "--n", "20000"), 149995000, 2),
    (("qa", "--p", "3", "--A", ",".join(["2"] * 10), "--n", "150"), 17280000, 3)])
def test_self_dual_and_qa_counts_over_the_bit_cap_exit_two_at_once(
        capsys, argv, exponent, q):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"chaincodes: error: the count is about q^{exponent} with "
                   f"q = {q}, over the cap of 262144 bits\n")


HUGE_M = str(10 ** 30)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,message", [
    (("decompose", "--p", "2", "--m", HUGE_M, "--A", "3"),
     f"field order 2^{HUGE_M} has over 4300 digits, too many for the report "
     f"to print"),
    (("count", "qa", "--p", "2", "--m", HUGE_M, "--A", "3", "--n", "2"),
     f"factor field order 2^{HUGE_M} has over 262144 bits"),
    (("count", "qa", "--p", "3", "--m", "100000000000", "--A", "1", "--n", "1"),
     "factor field order 3^100000000000 has over 262144 bits")])
def test_huge_field_degrees_exit_two_before_any_field_order_is_built(
        argv, message):
    """In a fresh interpreter held to 1 GiB of address space, so that
    building p^m would end in a MemoryError traceback (exit 1)."""
    src = os.path.dirname(os.path.dirname(chaincodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chaincodes.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20,
                          preexec_fn=_cap_address_space)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"chaincodes: error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    # under the length limit, but its top length is over the bit cap
    (("esd", "--q", "2", "--range", "1:1024"), "over the cap of 262144 bits"),
    # every count is 0, so no cap would ever stop it
    (("gaussian", "--q", "2", "--k", "-1", "--range", "1:1000000000000"),
     "more than 1024 lengths"),
    (("esd", "--q", "2", "--range", "1:5000"), "more than 1024 lengths")])
def test_count_ranges_are_bounded_before_any_count(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("chaincodes: error: ") and message in err


def test_cached_parser_answers_as_a_fresh_one(capsys, tmp_path):
    """main() parses with one set of parsers per process; interleaved calls,
    a usage error first, answer exactly as calls on newly built parsers."""
    doc = write_code(tmp_path, "code.json",
                     LinearCode(chain_ring(4, 3), 2, [(1, 7)]))
    calls = [["count", "esd", "--q", "2"],
             ["count", "linear", "--q", "2", "--n", "3"],
             ["--help"],
             ["code", "dual", doc],
             ["count", "--help"],
             ["count", "linear", "--q", "2", "--e", "65537", "--n", "1"],
             ["count", "hsd", "--q", "4", "--range", "2:4", "--format", "json"],
             ["code", "--help"],
             ["bogus"],
             []]
    shared = [run(capsys, *argv) for argv in calls + calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls + calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in fresh[:len(calls)]] == [1, 0, 0, 0, 0, 2, 0,
                                                           0, 1, 1]


@pytest.mark.parametrize("q,e,n,message", [
    ("6", "2", "1", "not a prime power: 6"), ("6", "3", "1", "not a prime power: 6"),
    ("2", "0", "1", "need n >= 1 and e >= 1"),
    ("2", "2", "0", "need n >= 1 and e >= 1")])
def test_count_linear_reports_invalid_inputs_at_every_depth(capsys, q, e, n, message):
    code, out, err = run(capsys, "count", "linear", "--q", q, "--e", e, "--n", n)
    assert code == 2 and out == ""
    assert err == f"chaincodes: error: {message}\n"


def test_group_spec_parse_errors_are_usage_errors(capsys):
    for spec in (",", "2,x", "2,,3", "Z5"):
        code, _, err = run(capsys, "count", "qa", "--p", "3", "--A", spec,
                           "--n", "2")
        assert code == 1 and "bad --A" in err
        code, _, err = run(capsys, "decompose", "--p", "3", "--A", spec)
        assert code == 1 and "bad --A" in err
    # specs that parse but name no group violate a precondition
    for spec in ("0", "2,0"):
        assert run(capsys, "count", "qa", "--p", "3", "--A", spec,
                   "--n", "2")[0] == 2
        assert run(capsys, "decompose", "--p", "3", "--A", spec)[0] == 2


# ---------------------------------------------------------------------------
# code transforms

def test_code_check_sd_and_torsion(tmp_path, capsys):
    r = chain_ring(4, 3)
    u, u2 = r.u, r.mul(r.u, r.u)
    path = write_code(tmp_path, "sd.json", LinearCode(r, 2, [(u, u), (0, u2)]))
    code, out, _ = run(capsys, "code", "check-sd", path, "--inner", "hermitian")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "code", "check-sd", path)
    assert code == 0 and out == "true\n"

    code, out, _ = run(capsys, "code", "torsion", path, "--i", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == 1 and doc["n"] == 2


def test_code_standard_form_is_idempotent(tmp_path, capsys):
    r = chain_ring(3, 3)
    path = write_code(tmp_path, "c.json",
                      LinearCode(r, 3, [(1, 2, r.u), (0, r.u, 1)]))
    code, out1, _ = run(capsys, "code", "standard-form", path)
    assert code == 0
    path2 = tmp_path / "c2.json"
    path2.write_text(out1)
    code, out2, _ = run(capsys, "code", "standard-form", str(path2))
    assert code == 0
    assert out1 == out2
    assert loads_code(out1).equal(loads_code(path2.read_text()))


def test_code_dual_writes_output_file(tmp_path, capsys):
    r = chain_ring(2, 3)
    path = write_code(tmp_path, "z.json", LinearCode.zero(r, 2))
    out_path = tmp_path / "dual.json"
    code, out, _ = run(capsys, "code", "dual", path, "--out", str(out_path))
    assert code == 0
    dual = loads_code(out_path.read_text())
    assert dual.cardinality() == r.size ** 2       # dual of zero is everything


def test_code_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    r = chain_ring(2, 3)
    text = dumps_code(LinearCode(r, 2, [(1, 1)]))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "code", "check-sd", "-")
    assert code == 0 and out == "true\n"


def test_code_rejects_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"q\": 4}")
    assert run(capsys, "code", "check-sd", str(bad))[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json at all")
    assert run(capsys, "code", "standard-form", str(garbled))[0] == 2
    code, _, err = run(capsys, "code", "check-sd", str(tmp_path / "absent.json"))
    assert code == 1 and "error" in err


CODE_ACTIONS = [["standard-form"], ["dual"], ["check-sd"],
                ["torsion", "--i", "1"]]


def run_code_on_stdin(text, action):
    """cli.main(["code", *action, "-"]) with the text on stdin; returns the
    exit code and stderr."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["code", action[0], "-", *action[1:]])
    return code, err.getvalue()


VALID_DOC = code_to_json(LinearCode(chain_ring(4, 3), 2, [(1, 7)]))


@pytest.mark.parametrize("action", CODE_ACTIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("key,raw", [
    ("p", "1e400"), ("m", "1e400"), ("e", "1e400"), ("n", "1e400"),
    ("modulus", "[1e400, 1, 1]"), ("rows", "[[[[1e400, 0], [0, 0], [0, 0]]]]"),
    ("p", "2.9"), ("p", '"2"'), ("n", "true"),
    ("rows", "[[[[1.5, 0], [0, 0], [0, 0]]]]"),
    ("rows", "[[[[true, 0], [0, 0], [0, 0]]]]"), ("modulus", "[1, true, 1]"),
])
def test_code_actions_reject_non_integer_entries(key, raw, action):
    obj = dict(VALID_DOC, **{key: "@"})
    text = json.dumps(obj).replace('"@"', raw)
    code, err = run_code_on_stdin(text, action)
    assert code == 2
    assert "malformed code document" in err


@pytest.mark.parametrize("action", CODE_ACTIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("rows", ['""', "{}", '"ab"', '[""]', '[{"a": 1}]',
                                  '[[{"a": 1, "b": 2, "c": 3}, "xyz"]]'])
def test_code_actions_reject_rows_that_are_not_lists(rows, action):
    text = json.dumps(dict(VALID_DOC, rows="@")).replace('"@"', rows)
    code, err = run_code_on_stdin(text, action)
    assert code == 2
    assert "malformed code document" in err


@pytest.mark.parametrize("action", CODE_ACTIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("key,raw", [
    ("modulus", "[3, -1, 1]"), ("rows", "[[[[1, 0], [0, 0], [0, 0]], [[1], [], [0, 0]]]]"),
    ("rows", "[[[[7, -1], [0, 0], [0, 0]], [[1, 1], [1, 0], [0, 0]]]]"),
    ("rows", "[[[[1, 0, 0], [0, 0], [0, 0]], [[1, 1], [1, 0], [0, 0]]]]"),
])
def test_code_actions_reject_coefficients_dumps_code_never_writes(key, raw, action):
    text = json.dumps(dict(VALID_DOC, **{key: "@"})).replace('"@"', raw)
    code, err = run_code_on_stdin(text, action)
    assert code == 2
    assert "malformed code document" in err


@pytest.mark.parametrize("key,raw", [
    ("e", "100000000000"), ("p", "1" + "0" * 38 + "7"), ("m", "10" * 20),
    ("n", "4000000"), ("n", "10" * 20)])
def test_huge_sizes_in_code_documents_are_refused_promptly(key, raw):
    """By every action; a huge n comes with no rows, so that the document
    is a few dozen bytes asking for n entries, or n^2 for the dual."""
    obj = dict(VALID_DOC, **{key: "@"})
    if key == "n":
        obj["rows"] = []
    text = json.dumps(obj).replace('"@"', raw)
    for action in CODE_ACTIONS:
        start = time.perf_counter()
        code, err = run_code_on_stdin(text, action)
        assert code == 2
        assert err.startswith("chaincodes: error: ")
        assert time.perf_counter() - start < 2.0


def test_lengths_at_the_entry_cap_load_and_their_duals_are_refused():
    """n = ENTRY_CAP is a length a document may have; the zero code's dual
    would hold n^2 entries and is refused before it is built."""
    text = json.dumps(dict(VALID_DOC, n=ENTRY_CAP, rows=[]))
    code, _ = run_code_on_stdin(text, ["check-sd"])
    assert code == 0
    start = time.perf_counter()
    code, err = run_code_on_stdin(text, ["dual"])
    assert code == 2
    assert err == (f"chaincodes: error: the dual would hold {ENTRY_CAP ** 2} "
                   f"entries, over the entry cap {ENTRY_CAP}\n")
    assert time.perf_counter() - start < 2.0


def test_empty_rows_are_the_zero_code():
    text = json.dumps(dict(VALID_DOC, rows=[]))
    assert loads_code(text).cardinality() == 1


JSON_NON_INTEGERS = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.sampled_from([1e400, -1e400, 2.0, 2.9, "2", "1e400"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def malformed_documents(draw):
    """A valid document with one integer or coefficient list swapped for a
    non-integer JSON value, or a valid document cut short."""
    text = json.dumps(VALID_DOC)
    kind = draw(st.sampled_from(["p", "m", "e", "n", "modulus", "rows",
                                 "entry", "coeff", "cut"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    obj = json.loads(text)
    # an empty list of rows is the zero code and well formed
    value = draw(JSON_NON_INTEGERS.filter(lambda v: kind != "rows" or v != []))
    if kind == "entry":
        obj["rows"][0][draw(st.integers(0, 1))] = value
    elif kind == "coeff":
        coeffs = obj["rows"][0][1][draw(st.integers(0, 2))]
        coeffs[draw(st.integers(0, 1))] = value
    else:
        obj[kind] = value
    return json.dumps(obj).replace("Infinity", "1e400")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(malformed_documents(), st.sampled_from(CODE_ACTIONS))
@example(text='{"p": 2, "m": 2, "e": 3, "n": 2, "modulus": [1, 1, 1], "rows": '
              '[[[[], [], []], [[1, 1], [1, 0], [0, 0]]]]}',
         action=["standard-form"])
def test_malformed_code_documents_never_raise(text, action):
    with pytest.raises(ValueError):
        loads_code(text)
    code, err = run_code_on_stdin(text, action)
    assert code in (1, 2)
    assert err.startswith("chaincodes: error: ")


# malformed, out-of-range and over-cap values for each flag; no value here
# is valid and slow, so every argv built from them answers at once
_INTS = ["x", "1.5", "", "0", "-1"]
FLAG_VALUES = {
    "count": {
        "--q": _INTS + ["1", "6", "2", "3", "4", "1000000000000000003"],
        "--n": _INTS + ["2", "20000", "1000000000000"],
        "--e": _INTS + ["3", "65537"],
        "--k": _INTS + ["2", "1000000000000"],
        "--p": _INTS + ["1", "4", "2", "3"],
        "--m": _INTS + ["2", "100000"],
        "--s": _INTS + ["1", "20000"],
        "--A": [",", "x", "", "2,,3", "0", "2,0", "1", "7", "100000007",
                ",".join(["2"] * 10)],
        "--range": ["3:1", "::", "1:1000000000000", "0:2", "a:b", "5",
                    "1:3", "1:1025"],
        "--format": ["text", "json", "xml"],
    },
    "decompose": {
        "--p": _INTS + ["1", "4", "2", "3"],
        "--m": _INTS + ["2", "100000"],
        "--s": _INTS + ["1", "20000"],
        "--A": [",", "x", "", "0", "2,0", "7", "100000007", "999999999989"],
        "--format": ["text", "json", "xml"],
    },
    "verify": {
        "--suite": ["", "huge", "tiny"],
        "--format": ["text", "json", "xml"],
    },
}
COUNT_KINDS = ["linear", "esd", "hsd", "sigma-e", "sigma-h", "gaussian",
               "qa", "qa-esd", "qa-hsd", "entropy"]


@st.composite
def cli_argvs(draw):
    """A count, decompose or verify command line with each flag present or
    not, and each present flag drawn from its pool."""
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    argv = [command]
    if command == "count":
        argv.append(draw(st.sampled_from(COUNT_KINDS)))
    for flag, pool in FLAG_VALUES[command].items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_argvs())
def test_malformed_flags_exit_with_a_documented_code(argv):
    got = code, _, err = answer(main, argv)
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("chaincodes: error: ")
    # the subcommand's parser alone answers as the top-level parse did
    assert got == answer(reference_main, argv)


# the flags of `code`, each pool mixing valid, malformed and out-of-range
# values; --out is taken under a temporary directory: a file, the directory
# itself, or a file in a directory that does not exist
CODE_FLAG_VALUES = {
    "--inner": ["euclidean", "hermitian", "", "Hermitian", "symplectic"],
    "--i": _INTS + ["1", "2", "3", "-3", "1000000000000"],
    "--format": ["text", "json", "xml"],
    "--out": ["out.json", "", ".", "missing/out.json"],
}
# valid documents over a square field, over GF(2), which has no Hermitian
# form, and at e = 2, which has no torsion codes
CODE_DOCS = [json.dumps(VALID_DOC)] + [
    dumps_code(LinearCode(chain_ring(q, e), 2, [(1, 3)]))
    for q, e in ((2, 3), (16, 2))]


@st.composite
def code_argvs(draw):
    """A code command line on stdin with each flag present or not, and each
    present flag drawn from its pool."""
    argv = ["code", draw(st.sampled_from(["standard-form", "dual", "torsion",
                                          "check-sd"])), "-"]
    for flag, pool in CODE_FLAG_VALUES.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(argv=code_argvs(), doc=st.sampled_from(CODE_DOCS))
@example(argv=["code", "torsion", "-", "--i", "-1"], doc=CODE_DOCS[0])
@example(argv=["code", "check-sd", "-", "--inner", "hermitian"], doc=CODE_DOCS[1])
def test_malformed_code_flags_exit_with_a_documented_code(tmp_path, argv, doc):
    argv = [str(tmp_path / a) if flag == "--out" and a else a
            for flag, a in zip([None, *argv], argv)]
    out_file = tmp_path / "out.json"

    def outcome(entry):
        got = answer(entry, argv, doc)
        if out_file.is_file():
            got += (out_file.read_text(),)
            out_file.unlink()
        return got
    got = outcome(main)
    code, _, err = got[:3]
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("chaincodes: error: ")
    # the subcommand's parser alone answers as the top-level parse did
    assert got == outcome(reference_main)


# ---------------------------------------------------------------------------
# decompose

def test_decompose_text_report(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "2", "--A", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("GF(2)[A x Z2]")
    assert any(line.startswith("7") and "III" in line for line in lines)
    assert lines[-1] == "dimension check: sum of orbit sizes 7 = |A| = 7 (ok)"


def test_decompose_reports_a_dimension_mismatch_with_exit_three(
        capsys, monkeypatch):
    """With the last factor's multiplicity lowered by one the orbit sizes
    no longer sum to |A|: both formats say so and exit 3."""
    real = cli.decompose

    def short(*args):
        report = real(*args)
        *rest, last = report.factors
        last = dataclasses.replace(last, multiplicity=last.multiplicity - 1)
        return dataclasses.replace(report, factors=(*rest, last))
    monkeypatch.setattr(cli, "decompose", short)
    code, out, _ = run(capsys, "decompose", "--p", "2", "--A", "7")
    assert code == 3
    assert (out.splitlines()[-1]
            == "dimension check: sum of orbit sizes 4 != |A| = 7 (MISMATCH)")
    code, out, _ = run(capsys, "decompose", "--p", "2", "--A", "7",
                       "--format", "json")
    assert code == 3
    assert json.loads(out)["dimension_ok"] is False


def test_decompose_json_report(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--m", "2", "--A", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 3 and doc["group"] == [2]
    assert all(f["depth"] == 3 for f in doc["factors"])


def test_decompose_errors(capsys):
    assert run(capsys, "decompose", "--A", "7")[0] == 1             # missing --p
    assert run(capsys, "decompose", "--p", "3", "--A", "6")[0] == 2


@pytest.mark.parametrize("argv,message", [
    (["--p", "2", "--A", "1", "--s", "20000"], "u-depth"),
    (["--p", "2", "--A", "100000007"], "field order"),
    (["--p", "2", "--A", "100000007", "--format", "json"], "field order"),
    (["--p", "2", "--A", "999999999989"], "field order"),
])
def test_decompose_refuses_unprintable_sizes_promptly(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert message in err and "4300 digits) for integer" not in err


# ---------------------------------------------------------------------------
# byte pins: the stdout of every code action on five fixed documents

def _pinned_code(q, e, n, vals):
    """A fixed code whose row i is divisible by exactly u^vals[i]: an
    arithmetic pattern with one unit, the same on every Python version."""
    ring = chain_ring(q, e)
    rows = []
    for i, v in enumerate(vals):
        row = [((40503 * (i * n + j) + 7) ** 2 >> 5) % ring.size
               for j in range(n)]
        row[3 * i % n] = 1 + i % (q - 1)
        rows.append([ring.shift_up(x, v) for x in row])
    return LinearCode(ring, n, rows)


# R(9,3) computes on half tables and R(16,3) on digit loops; GF(9)^5 is a
# field code (e = 1)
PINNED_CODES = {
    "R(2,3)^6": (2, 3, 6, (0, 0, 1, 2, 2)),
    "R(4,3)^5": (4, 3, 5, (0, 1, 1, 2)),
    "R(9,3)^6": (9, 3, 6, (0, 0, 1, 2)),
    "R(16,3)^3": (16, 3, 3, (0, 1, 2)),
    "GF(9)^5": (9, 1, 5, (0, 0)),
}
PINNED_ACTIONS = (("standard-form",), ("dual", "--inner", "euclidean"),
                  ("dual", "--inner", "hermitian"), ("torsion", "--i", "0"),
                  ("torsion", "--i", "1"), ("torsion", "--i", "2"),
                  ("check-sd", "--inner", "euclidean"),
                  ("check-sd", "--inner", "hermitian"))


def pinned_action_digests(name):
    """{action: sha256 of stdout} for one pinned code, under the key
    "document" the digest of its document; an action that exits 2 (no
    Hermitian product over GF(2), no torsion codes at e = 1) is left out."""
    text = dumps_code(_pinned_code(*PINNED_CODES[name]))
    digests = {"document": hashlib.sha256(text.encode()).hexdigest()}
    for action in PINNED_ACTIONS:
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["code", action[0], "-", *action[1:]])
        if code == 0:
            digests[" ".join(action)] = hashlib.sha256(
                out.getvalue().encode()).hexdigest()
        else:
            assert code == 2, (name, action)
    return digests



# recorded from a library that reduced every code from its generators,
# with no form carried from a dual or a conjugate
PINNED_DIGESTS = {
    'R(2,3)^6': {
        'document':
            '799d078dfc55ac5159e664d00521a5cd2da8bf1ad206c4c268c70743efe5eecb',
        'standard-form':
            '73fa3bbe248b148d188e068884565469a6985ef3b99c3fcab8959566e6ebcdf9',
        'dual --inner euclidean':
            'e2ee56b8214379689c4b799b591f9682744e572c741a2e34544c7dfcc47e656f',
        'torsion --i 0':
            'ff4f1257a29d7db20d4cffceb376b21a1fc319f40bf131dfdf8ca804bbf3a8b2',
        'torsion --i 1':
            'ed7d4313de76108c59cff0c28a98fc9c3dbe89484538455d2540e860fe20c55f',
        'torsion --i 2':
            '75cd866cb2a5321adf93448be054627c59021dc7628a6eae57a6a00f1b7838e9',
        'check-sd --inner euclidean':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
    },
    'R(4,3)^5': {
        'document':
            '59076080563e5718166148856ac1cff20fbc482f4d2f4c223217ed6f6be7992f',
        'standard-form':
            '56542c07382900e61c326acd36cc65f25093d33370c0fef540fb0470bce50485',
        'dual --inner euclidean':
            '9dff39ce5cd34beb19c2f1ee173422e81686ff2f0a7d3beb40954ce30b5104bd',
        'dual --inner hermitian':
            '2203f50325ea8972db518a587fc6781123e0948a94aa0d8f583748b084ab01ce',
        'torsion --i 0':
            'fa12a9fdba96aa84796b02d6ed60f366de59b56ee2da1810111d3314014734bc',
        'torsion --i 1':
            '541b9f97d5ebbe0ee5e7947d98e0e7937ebae34d51e6cdc73f6d59e714f523f3',
        'torsion --i 2':
            '60fc20984976e2768de1f98baa96514306c228013f8ac0839a44986361f51fb9',
        'check-sd --inner euclidean':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
        'check-sd --inner hermitian':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
    },
    'R(9,3)^6': {
        'document':
            '1cbac4e7f446cbb8bfe08c2aeabfbdfda4c3457163498e9d0e60f85305b7531b',
        'standard-form':
            '592427ad059d298fac21430856839f937a7891360505ecd2e8d0480ff049c2e1',
        'dual --inner euclidean':
            'a7b3a9e2d0a7bd1814ca07e80abfff9183b907efb0d6e1432929740d033979a0',
        'dual --inner hermitian':
            '855f9571c95537d06d85bf60149ea34046c283ce4183907f060d11a040eda4b6',
        'torsion --i 0':
            '5ff8b3503b4b644de662bb523a8fbb8a3c3ef1532174258c6878436c9b5f3e83',
        'torsion --i 1':
            'd480af26f4c843fbfde02d0cc6ac3e42c4e6106e0d5431dc8cba259e40715dcc',
        'torsion --i 2':
            '7fea11905d2d8141dcddbc6be29ba80ce56d09c262759c5f8b14dc93983ae9d9',
        'check-sd --inner euclidean':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
        'check-sd --inner hermitian':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
    },
    'R(16,3)^3': {
        'document':
            '5c05ffae1d4d2f23a17df19b1c3afa5d516bd7e61b11b1a80f6accb7cfd62b2d',
        'standard-form':
            '03590d28993cac886020c613e6983d31900a2aaa5a695040240e6bb76df11a45',
        'dual --inner euclidean':
            'bc6a09aa4935cdc8de06b1a1cb6ec2f6b85a4326fd50b73bcdf43bfa8db39dca',
        'dual --inner hermitian':
            'f1a88d96994d840b8258b56865e1af3360b8ffc730f533f2bc6a316510d39f66',
        'torsion --i 0':
            'df00144b70ea1ac7d2944c1dc18e5bc476fea8dcb2f59a85114aad41b499c44b',
        'torsion --i 1':
            'bc0daa1ab48891eea7d29bfd15b214c6606d7d970e294960fb0f2790c614b287',
        'torsion --i 2':
            'b03767f0a3ca0c93b186ebc7d4ae5640f04c016987f904eaa07eeb801bc2fc41',
        'check-sd --inner euclidean':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
        'check-sd --inner hermitian':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
    },
    'GF(9)^5': {
        'document':
            '100c14f1ce6c84983cbca96e9d853610c5812e83241584204065855d74467d48',
        'standard-form':
            '414b5ec7bb635dfe001236e4b19f2a9a333dfe4d64be396d3a630fef2f1c0831',
        'dual --inner euclidean':
            '2bd067e27cd51cb86149b0da26e9332dfcc98e193de8d1158a1a0ba985bb2b22',
        'dual --inner hermitian':
            '85dab1c0c0053484ecba92581e0dfb6b2733db642f606c60ca9bb496e463a44b',
        'check-sd --inner euclidean':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
        'check-sd --inner hermitian':
            '2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0',
    },
}


@pytest.mark.parametrize("name", PINNED_CODES)
def test_code_action_outputs_are_pinned_byte_for_byte(name):
    assert pinned_action_digests(name) == PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# verify

def test_verify_tiny_suite_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "tiny")
    assert code1 == 0
    assert out1.rstrip().endswith("14/14 checks passed")
    code2, out2, _ = run(capsys, "verify", "--suite", "tiny")
    assert code2 == 0 and out1 == out2


def test_verify_full_suite_passes_with_large_length_identity(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "full")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("qa-esd(p=3,m=1,s=1,A=2,n=200) vs NE^2 ")
    assert lines[-2].endswith("  pass")
    assert lines[-1] == "30/30 checks passed"


FULL_SUITE_REPORT = """\
N(q=2,e=3,n=1) formula                   expected        4  got        4  pass
N(q=2,e=3,n=1) census                    expected        4  got        4  pass
N(q=2,e=3,n=2) formula                   expected       37  got       37  pass
N(q=2,e=3,n=2) census                    expected       37  got       37  pass
NE(q=2,n=2) formula                      expected        3  got        3  pass
NE(q=2,n=2) census                       expected        3  got        3  pass
NH(q=4,n=2) formula                      expected       15  got       15  pass
NH(q=4,n=2) census                       expected       15  got       15  pass
sigma_e(q=2,n=2) formula                 expected        1  got        1  pass
sigma_e(q=2,n=2) census                  expected        1  got        1  pass
sigma_h(q=4,n=2) formula                 expected        3  got        3  pass
sigma_h(q=4,n=2) census                  expected        3  got        3  pass
gaussian[4,2]_2 formula                  expected       35  got       35  pass
gaussian[4,2]_2 subspace scan            expected       35  got       35  pass
N(q=3,e=3,n=2) formula                   expected       76  got       76  pass
N(q=3,e=3,n=2) census                    expected       76  got       76  pass
N(q=4,e=3,n=2) formula                   expected      139  got      139  pass
N(q=4,e=3,n=2) census                    expected      139  got      139  pass
NE(q=3,n=4) formula                      expected      176  got      176  pass
NE(q=3,n=4) standard forms               expected      176  got      176  pass
NH(q=9,n=2) formula                      expected       40  got       40  pass
NH(q=9,n=2) standard forms               expected       40  got       40  pass
NH(q=9,n=2) constructive                 expected       40  got       40  pass
NH(q=4,n=4) constructive                 expected     9099  got     9099  pass
qa(p=3,m=1,s=1,A=2,n=1) formula          expected       16  got       16  pass
qa(p=3,m=1,s=1,A=2,n=1) factor censuses  expected       16  got       16  pass
qa-esd(p=3,m=1,s=1,A=2,n=4)              expected    30976  got    30976  pass
qa-hsd(p=3,m=2,s=1,A=2,n=2)              expected     1600  got     1600  pass
cyclic-to-chain isomorphism              expected       ok  got       ok  pass
qa-esd(p=3,m=1,s=1,A=2,n=200) vs NE^2    expected       ok  got       ok  pass
30/30 checks passed
"""


def test_verify_full_suite_report_is_byte_stable(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "full")
    assert code == 0
    assert out == FULL_SUITE_REPORT


def test_verify_reports_mismatch_with_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_esd", lambda q, n: 999)
    code, out, _ = run(capsys, "verify", "--suite", "tiny")
    assert code == 3
    assert "FAIL" in out
    assert "13/14 checks passed" in out


def test_verify_counts_exceptions_as_failures(capsys, monkeypatch):
    def boom(q, n):
        raise RuntimeError("synthetic breakage")
    monkeypatch.setattr(cli, "count_hsd", boom)
    code, out, _ = run(capsys, "verify", "--suite", "tiny")
    assert code == 3
    assert "error: synthetic breakage" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["count", "--help"]) == 0
    # --e is read by three kinds only, and esd and hsd take only depth 3
    assert ("u-depth (linear, esd, hsd; default 3; esd and hsd take only 3)"
            in " ".join(capsys.readouterr().out.split()))


# ---------------------------------------------------------------------------
# parsing: a line is parsed once, by the parser that its first word names

LINEAR = ["count", "linear", "--q", "2", "--n", "2"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["count", "--help"], ["code", "--help"], ["bogus"],
    ["cod", "dual", "-"], ["count"], ["code", "dual"], ["--inn", "hermitian"],
    ["--q=9"], ["count", "linear", "--q=9", "--n=2"], ["--", *LINEAR],
    [LINEAR[0], "--", *LINEAR[1:]], [*LINEAR, "--"], [*LINEAR, "-h"],
    [*LINEAR, "extra"], ["code", "dual", "-", "--inn", "hermitian"],
    ["code", "-h", "dual"], ["--help", "count"], ["-x", "count"], [""]],
    ids=repr)
def test_dispatch_answers_as_one_top_level_parse(argv):
    doc = json.dumps(VALID_DOC)
    assert answer(main, argv, doc) == answer(reference_main, argv, doc)


def test_a_line_naming_a_subcommand_skips_the_top_level_parser(
        capsys, monkeypatch):
    progs = []
    parse_known_args = cli._Parser.parse_known_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    for argv in (LINEAR, ["count", "--help"], ["code", "dual"],
                 ["decompose", "--p", "2", "--A", "3"], ["verify", "--bogus"]):
        progs.clear()
        run(capsys, *argv)
        assert progs == [f"chaincodes {argv[0]}"], argv
    for argv in ([], ["--help"], ["bogus"], ["cod", "dual", "-"]):
        progs.clear()
        run(capsys, *argv)
        assert progs == ["chaincodes"], argv
