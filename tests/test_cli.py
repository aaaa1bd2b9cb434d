import collections
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdseries
from mdseries import arith, cli, coefficients, descriptor
from mdseries.arith import factorize, primes_up_to
from mdseries.cli import main
from mdseries.descriptor import parse_descriptor, parse_record, serialize_descriptor
from mdseries.errors import DescriptorError
from mdseries.momentlab import moment_rhs
from mdseries.series import direct_sum_and_half
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.variety import box_array

DIAG_DOC = {
    "t": 2, "m": 1, "A": [[1, -1]],
    "omega": ["1"], "omega_prime": ["1"],
    "coefficients": [{"type": "trivial"}, {"type": "trivial"}],
    "s": [[2, 0], [2, 0]],
}


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(DIAG_DOC))
    return str(path)


def maxrss_kib(argv):
    """Peak RSS in KiB of `python argv`, run on this package without a work
    cap override; it must exit 0."""
    src = str(Path(mdseries.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MDS_WORK_CAP", None)
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, proc.stderr.read()
    proc.stderr.close()
    return usage.ru_maxrss


class TestDescriptor:
    def test_round_trip_is_identity(self):
        system, families, s, _ = parse_descriptor(DIAG_DOC)
        doc2 = serialize_descriptor(system, families, s)
        system2, families2, s2, _ = parse_descriptor(doc2)
        assert system2 == system and s2 == s
        assert serialize_descriptor(system2, families2, s2) == doc2

    def test_round_trip_all_family_kinds(self):
        doc = {
            "t": 5, "m": 1, "A": [[1, 1, 1, 1, -1]],
            "omega": ["2"], "omega_prime": ["3"],
            "coefficients": [
                {"type": "trivial"},
                {"type": "character", "q": 7, "k": 2},
                {"type": "hecke_gl2", "lambda": {"2": -0.5, "3": [0.25, 0.1]}},
                {"type": "tau", "bound": 500},
                {"type": "table", "values": {"2^1": 1.5, "2^2": [0.0, -1.0]}},
            ],
            "s": [[2, 0]] * 5,
        }
        system, families, s, _ = parse_descriptor(doc)
        doc2 = serialize_descriptor(system, families, s)
        system2, families2, s2, _ = parse_descriptor(doc2)
        assert serialize_descriptor(system2, families2, s2) == doc2

    def test_ragged_rows_name_the_row(self):
        doc = dict(DIAG_DOC, m=2, A=[[1, -1], [1]], omega=["1", "1"],
                   omega_prime=["1", "1"])
        with pytest.raises(DescriptorError) as exc:
            parse_descriptor(doc)
        assert exc.value.path == "A[1]"

    def test_twist_string_validation(self):
        doc = dict(DIAG_DOC, omega=["x"])
        with pytest.raises(DescriptorError) as exc:
            parse_descriptor(doc)
        assert "omega[0]" in str(exc.value)

    def test_large_twist_survives_string_interchange(self):
        big = str(2**62)
        doc = dict(DIAG_DOC, omega=[big])
        system, _, _, _ = parse_descriptor(doc)
        assert system.omega == (2**62,)

    def test_unknown_family_kind(self):
        doc = dict(DIAG_DOC, coefficients=[{"type": "maass"}, {"type": "trivial"}])
        with pytest.raises(DescriptorError) as exc:
            parse_descriptor(doc)
        assert "coefficients[0]" in exc.value.path

    @pytest.mark.parametrize("kind", [["tau"], {"type": "tau"}, None])
    def test_a_kind_that_is_not_a_string_is_unknown(self, kind):
        # the kind is looked up in a table of kinds; an unhashable one must
        # not escape as a TypeError
        doc = dict(DIAG_DOC, coefficients=[{"type": kind}, {"type": "trivial"}])
        with pytest.raises(DescriptorError) as exc:
            parse_descriptor(doc)
        assert str(exc.value) == f"coefficients[0].type: unknown coefficient kind {kind!r}"

    @pytest.mark.parametrize("rec, key, takes", [
        ({"type": "trivial", "q": 7}, "q", "'type'"),
        ({"type": "character", "q": 7, "k": 2, "bogus": 1}, "bogus", "'type', 'q', 'k'"),
        ({"type": "hecke_gl2", "lambda": {"2": 0.5}, "lambda_p": {}}, "lambda_p",
         "'type', 'lambda'"),
        ({"type": "tau", "bond": 100000}, "bond", "'type', 'bound'"),
        ({"type": "table", "value": {"2^1": 0.5}}, "value", "'type', 'values'"),
    ], ids=["trivial", "character", "hecke_gl2", "tau", "table"])
    def test_unknown_record_keys_are_rejected(self, tmp_path, capsys, rec, key, takes):
        # an unknown key used to load without a word: a misspelt tau "bound"
        # ran at the default bound
        path = tmp_path / "key.json"
        path.write_text(json.dumps(dict(DIAG_DOC, coefficients=[{"type": "trivial"}, rec])))
        for argv in (["eval", "--N", "10"], ["normalize"]):
            assert main(argv + ["--system", str(path)]) == 1
            assert capsys.readouterr() == (
                "", f"mds: coefficients[1].{key}: unknown key; a {rec['type']!r} record "
                    f"takes {takes}\n")

    def test_missing_s_allowed(self):
        doc = {k: v for k, v in DIAG_DOC.items() if k != "s"}
        _, _, s, _ = parse_descriptor(doc)
        assert s is None

    def test_defaults_to_trivial(self):
        doc = {k: v for k, v in DIAG_DOC.items() if k != "coefficients"}
        _, records, _, _ = parse_descriptor(doc)
        assert records == ({"type": "trivial"},) * 2

    def test_extra_fields_reported(self, tmp_path, capsys):
        doc = dict(DIAG_DOC, note="hello")
        _, _, _, extras = parse_descriptor(doc)
        assert extras == ["note"]
        # on stderr for every subcommand, and among the warnings of the
        # documents that have them, first
        note = "unknown descriptor field 'note'; ignored"
        path = tmp_path / "note.json"
        path.write_text(json.dumps(dict(doc, zeta=1)))
        for argv in (["eval", "--N", "1"], ["compare", "--N", "10", "--P", "3"],
                     ["moment", "--q", "11", "--N", "10"]):
            assert main(argv + ["--system", str(path)]) == 0
            out, err = capsys.readouterr()
            warnings = json.loads(out)["warnings"]
            assert warnings[:2] == [note, note.replace("'note'", "'zeta'")] and len(warnings) > 2
            assert err.startswith(f"mds: {note}\n") and err.count("'zeta'") == 1
        for argv in (["normalize"], ["reduce-support"], ["check-s"], ["enumerate", "--N", "2"]):
            assert main(argv + ["--system", str(path)]) == 0
            assert capsys.readouterr().err.startswith(f"mds: {note}\n"), argv

    @pytest.mark.parametrize("bound", [0, -3, 10**5 + 1])
    def test_tau_bound_out_of_range_names_its_field(self, tmp_path, capsys, bound):
        doc = dict(DIAG_DOC, coefficients=[{"type": "trivial"},
                                           {"type": "tau", "bound": bound}])
        with pytest.raises(DescriptorError) as exc:
            parse_descriptor(doc)
        assert exc.value.path == "coefficients[1].bound"
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--system", str(path), "--N", "10"]) == 1
        assert capsys.readouterr().err == (
            f"mds: coefficients[1].bound: expected 1..100000, got {bound}\n")

    @pytest.mark.parametrize("field, edit, stderr", [
        ("omega", lambda doc: doc.update(m=2, A=[[1, -1], [1, 1]], omega=["6", "\u00b2"],
                                         omega_prime=["1", "1"]),
         "mds: omega[1]: expected a decimal string, got '\u00b2'\n"),
        ("lambda", lambda doc: doc["coefficients"].__setitem__(
            1, {"type": "hecke_gl2", "lambda": {"2": 0.5, "\u00b2": 1.0}}),
         "mds: coefficients[1].lambda.\u00b2: keys must be primes\n"),
        ("table", lambda doc: doc["coefficients"].__setitem__(
            0, {"type": "table", "values": {"\u0663^1": 1.0}}),
         "mds: coefficients[0].values.\u0663^1: keys look like 'p^e', e.g. '2^1'\n"),
        ("table-newline", lambda doc: doc["coefficients"].__setitem__(
            0, {"type": "table", "values": {"2^1\n": 1.0}}),
         "mds: coefficients[0].values.2^1\n: keys look like 'p^e', e.g. '2^1'\n"),
    ])
    def test_keyed_fields_take_ascii_digits_only(self, tmp_path, capsys, field, edit, stderr):
        # '\u00b2' (superscript two) passes str.isdigit, '\u0663' (Arabic-Indic
        # three) a Unicode \d, and a trailing newline a regex '$'
        doc = json.loads(json.dumps(DIAG_DOC))
        edit(doc)
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--system", str(path), "--N", "10", "--P", "10"]) == 1
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize("key", ["0", "1", "4", "1000001"])
    def test_lambda_keys_must_be_primes(self, tmp_path, capsys, key):
        # 1000001 = 101 * 9901 is past the sieved keys, so is_prime decides
        # it, as it accepts the prime 1000003
        lam = {"2": 0.5, "1000003": 0.25}
        rec = parse_record({"type": "hecke_gl2", "lambda": lam}, "coefficients[1]")
        assert list(rec["lambda"]) == ["2", "1000003"]
        doc = dict(DIAG_DOC, coefficients=[{"type": "trivial"},
                                           {"type": "hecke_gl2", "lambda": dict(lam, **{key: 1.0})}])
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--system", str(path), "--N", "10", "--P", "10"]) == 1
        assert capsys.readouterr().err == f"mds: coefficients[1].lambda.{key}: keys must be primes\n"

    def test_lambda_keys_fit_int64(self):
        # 2^89 - 1 is prime, but past the int64 array the family keeps
        key = str(2**89 - 1)
        with pytest.raises(DescriptorError, match=r"keys must be below 2\^63$"):
            parse_record({"type": "hecke_gl2", "lambda": {"2": 0.5, key: 0.25}},
                         "coefficients[1]")

    def test_table_key_format(self):
        rec = {"type": "table", "values": {"12": 1.0}}
        with pytest.raises(DescriptorError):
            parse_record(rec, "coefficients[0]")

    @pytest.mark.parametrize("key", ["4^1", "0^3", "2^0"])
    def test_table_keys_need_a_prime_and_a_positive_exponent(self, tmp_path, capsys, key):
        # values reads only p^e with p prime and e >= 1, so any other key
        # would load and never be read
        rec = {"type": "table", "values": {"2^1": 0.5}}
        assert parse_record(rec, "coefficients[1]")["values"] == {"2^1": 0.5}
        rec["values"][key] = 1.0
        doc = dict(DIAG_DOC, coefficients=[{"type": "trivial"}, rec])
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--system", str(path), "--N", "10", "--P", "10"]) == 1
        assert capsys.readouterr().err == \
            f"mds: coefficients[1].values.{key}: keys need a prime p and e >= 1\n"

    @pytest.mark.parametrize("old, new, stderr", [
        # two spellings of one key, which read as one prime or prime power
        ('{"type": "trivial"}]',
         '{"type": "hecke_gl2", "lambda": {"2": 0.5, "3": 0.1, "03": -1.5}}]',
         "mds: coefficients[1].lambda.03: duplicates key '3'\n"),
        ('[{"type": "trivial"}',
         '[{"type": "table", "values": {"2^1": 0.5, "2^01": -0.25, "02^1": 7}}',
         "mds: coefficients[0].values.2^01: duplicates key '2^1'\n"),
        # one key repeated in one JSON object, at any depth
        ('{"type": "trivial"}]',
         '{"type": "hecke_gl2", "lambda": {"2": 0.5, "3": 0.1, "3": -1.5}}]',
         "mds: coefficients[1].lambda.3: duplicates key '3'\n"),
        ('{"type": "trivial"}]', '{"type": "tau", "type": "trivial"}]',
         "mds: coefficients[1].type: duplicates key 'type'\n"),
        ('"m": 1,', '"m": 2, "m": 1,', "mds: m: duplicates key 'm'\n"),
        ('"s": [[2, 0], [2, 0]]', '"s": [[2, 0], {"re": 2, "re": 0}]',
         "mds: s[1].re: duplicates key 're'\n"),
    ], ids=["lambda-spellings", "table-spellings", "lambda", "record", "document", "list"])
    def test_a_key_given_twice_is_rejected(self, tmp_path, capsys, old, new, stderr):
        # the later value used to win silently
        text = json.dumps(DIAG_DOC)
        assert text.count(old) == 1
        path = tmp_path / "twice.json"
        path.write_text(text.replace(old, new))
        assert main(["compare", "--system", str(path), "--N", "10", "--P", "10"]) == 1
        assert capsys.readouterr() == ("", stderr)


    @pytest.mark.parametrize("edit, stderr", [
        (lambda doc: doc.update(s=[[math.nan, 0], [2, 0]]),
         "mds: s[0]: expected finite numbers, got [nan, 0]\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            1, {"type": "hecke_gl2", "lambda": {"2": 0.5, "3": [0, math.inf]}}),
         "mds: coefficients[1].lambda.3: expected finite numbers, got [0, inf]\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            0, {"type": "table", "values": {"2^1": -math.inf}}),
         "mds: coefficients[0].values.2^1: expected finite numbers, got -inf\n"),
        # integers past float range, which complex() cannot convert
        (lambda doc: doc.update(s=[10**400, [2, 0]]),
         f"mds: s[0]: expected finite numbers, got {10**400}\n"),
        (lambda doc: doc.update(s=[[2, 0], [2, -10**400]]),
         f"mds: s[1]: expected finite numbers, got [2, {-10**400}]\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            1, {"type": "hecke_gl2", "lambda": {"2": 0.5, "3": 10**400}}),
         f"mds: coefficients[1].lambda.3: expected finite numbers, got {10**400}\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            0, {"type": "table", "values": {"2^1": [10**400, 0]}}),
         f"mds: coefficients[0].values.2^1: expected finite numbers, got [{10**400}, 0]\n"),
        # JSON true and false load as bools, which Python counts as ints
        (lambda doc: doc.update(s=[[2, 0], [True, False]]),
         "mds: s[1]: expected a number or [re, im] pair, got [True, False]\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            1, {"type": "hecke_gl2", "lambda": {"2": 0.5, "3": True}}),
         "mds: coefficients[1].lambda.3: expected a number or [re, im] pair, got True\n"),
        (lambda doc: doc["coefficients"].__setitem__(
            0, {"type": "table", "values": {"2^1": False}}),
         "mds: coefficients[0].values.2^1: expected a number or [re, im] pair, got False\n"),
    ])
    def test_numbers_must_be_finite(self, tmp_path, capsys, edit, stderr):
        # Python's json writes and reads NaN and Infinity
        doc = json.loads(json.dumps(DIAG_DOC))
        edit(doc)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        for argv in (["eval", "--N", "10"], ["compare", "--N", "10", "--P", "10"]):
            assert main(argv + ["--system", str(path)]) == 1
            assert capsys.readouterr() == ("", stderr)


class TestCliEval:
    def test_zeta4(self, diag_file, capsys):
        code = main(["eval", "--system", diag_file, "--N", "10000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["direct"][0] - math.pi**4 / 90) < 1e-10
        assert doc["direct"][1] == 0
        assert doc["tail_estimate"] is not None

    def test_malformed_descriptor(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(DIAG_DOC, m=2, A=[[1, -1], [1]],
                                        omega=["1", "1"], omega_prime=["1", "1"])))
        code = main(["eval", "--system", str(path), "--N", "10"])
        assert code == 1
        assert "A[1]" in capsys.readouterr().err

    def test_empty_variety_warns(self, tmp_path, capsys):
        doc = dict(DIAG_DOC, A=[[0, 0]], omega=["2"], omega_prime=["3"])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code = main(["eval", "--system", str(path), "--N", "10"])
        captured = capsys.readouterr()
        assert code == 0
        out = json.loads(captured.out)
        assert out["direct"] == [0, 0]
        assert out["warnings"]

    def test_empty_variety_warning_order(self, tmp_path, capsys):
        # eval and compare share one message; each keeps its own order
        empty = "empty variety: a zero row has omega != omega'"
        no_half_box = "direct tail estimate skipped: N < 2 leaves the N/2 box empty"
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(dict(DIAG_DOC, A=[[0, 0]], omega=["2"], omega_prime=["3"])))
        assert main(["eval", "--system", str(path), "--N", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == [no_half_box, empty]
        assert main(["compare", "--system", str(path), "--N", "1", "--P", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == [
            empty, no_half_box, "euler tail estimate skipped: P/2 < 2, so no prime is <= P/2"]

    def test_convergence_guard(self, tmp_path, capsys):
        doc = dict(DIAG_DOC, s=[[1, 0], [1, 0]])
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--system", str(path), "--N", "10"]) == 1
        capsys.readouterr()
        assert main(["eval", "--system", str(path), "--N", "10",
                     "--override-convergence"]) == 0

    @pytest.mark.parametrize("argv, remedy", [
        (["eval"], "pass --override-convergence to evaluate a formal truncation"),
        (["compare", "--P", "10"], "pass --override-convergence to evaluate a formal truncation"),
        # moment has no override
        (["moment", "--q", "11,31"], "mds moment needs min Re s > 1"),
    ], ids=["eval", "compare", "moment"])
    def test_convergence_error_names_the_flag(self, tmp_path, capsys, argv, remedy):
        # the message used to name the library's keyword override_convergence
        path = tmp_path / "low.json"
        path.write_text(json.dumps(dict(DIAG_DOC, s=[[0.9, 0], [2, 0]])))
        assert main(argv + ["--system", str(path), "--N", "10"]) == 1
        assert capsys.readouterr() == ("", f"mds: min Re s = 0.9 <= 1; {remedy}\n")

    def test_override_label_in_json(self, tmp_path, capsys, recwarn):
        doc = dict(DIAG_DOC, s=[[1, 0], [1, 0]])
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc))
        label = "formal truncation only: min Re s = 1.0 <= 1"
        for argv in (["eval", "--N", "10"], ["compare", "--N", "10", "--P", "10"]):
            assert main(argv + ["--system", str(path), "--override-convergence"]) == 0
            captured = capsys.readouterr()
            assert label in json.loads(captured.out)["warnings"]
            assert captured.err.count(label) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_sum_is_one_error_line(self, tmp_path, capsys, recwarn):
        # each term n^102.5 <= 1000^102.5 is finite; their sum is not
        doc = dict(DIAG_DOC, s=[[-51.25, 0], [-51.25, 0]])
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        for argv in (["eval", "--N", "1000"], ["compare", "--N", "1000", "--P", "10"]):
            assert main(argv + ["--system", str(path), "--override-convergence"]) == 1
            assert capsys.readouterr().err == "mds: the sum overflows float64\n"
        # the term 2^400 overflows itself: the direct sum fails before the
        # Euler product is tried
        path.write_text(json.dumps(dict(DIAG_DOC, s=[[-200, 0], [-200, 0]])))
        for argv in (["eval", "--N", "50"], ["compare", "--N", "50", "--P", "50"]):
            assert main(argv + ["--system", str(path), "--override-convergence"]) == 1
            assert capsys.readouterr() == ("", "mds: the sum overflows float64\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_coordinate_past_1e12_is_factored(self, tmp_path, capsys):
        # n = 10^12 + 39, a prime, is the one point; its table coefficient
        # is read through its factorization
        p = 10**12 + 39
        doc = {"t": 1, "m": 1, "A": [[1]], "omega": ["1"], "omega_prime": [str(p)],
               "coefficients": [{"type": "table", "values": {f"{p}^1": 0.5}}],
               "s": [[2, 0]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--system", str(path), "--N", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["direct"] == [4.999999999609993e-25, 0.0]

    @pytest.mark.parametrize("s,P,B,err", [
        # 2^(102.5 e) overflows in the factor at p = 2, the smallest such prime
        (-51.25, 10, None, "the Euler factor at p = 2 overflows float64"),
        # every factor 1 + p^6 is finite; their product up to 10^4 is not
        (-3, 10000, 1, "the Euler product overflows float64"),
    ])
    def test_overflowing_euler_is_one_error_line(self, tmp_path, capsys, recwarn,
                                                 s, P, B, err):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(DIAG_DOC, s=[[s, 0], [s, 0]])))
        argv = ["compare", "--system", str(path), "--N", "10", "--P", str(P),
                "--override-convergence"] + (["--B", str(B)] if B else [])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"mds: {err}\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestCliCompare:
    def test_product_system(self, tmp_path, capsys):
        doc = {
            "t": 3, "m": 1, "A": [[1, 1, -1]],
            "omega": ["1"], "omega_prime": ["1"],
            "s": [[2, 0], [2, 0], [2, 0]],
        }
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(doc))
        code = main(["compare", "--system", str(path), "--N", "2000",
                     "--P", "2000", "--B", "40", "--deterministic"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["abs_diff"] < 1e-6

    def test_twists_are_factored_once_each(self, tmp_path, capsys, monkeypatch):
        # 6 n1 n2 = 35 n3 and 7 n1 = 5 n2: (5k, 7k, 6k^2); the Euler product,
        # its tail and the twist checks all read the system's twist_rhs
        calls = []
        monkeypatch.setattr("mdseries.system.factorize_twist",
                            lambda n: calls.append(n) or arith.factorize_twist(n))
        doc = {"t": 3, "m": 2, "A": [[1, 1, -1], [1, -1, 0]],
               "omega": ["6", "7"], "omega_prime": ["35", "5"], "s": [[2, 0]] * 3}
        path = tmp_path / "twisted.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--system", str(path), "--N", "30", "--P", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["direct"][0] > 0
        assert sorted(calls) == [5, 6, 7, 35]

    def test_twist_prime_beyond_P(self, tmp_path, capsys):
        doc = dict(DIAG_DOC, omega=["101"])
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(doc))
        code = main(["compare", "--system", str(path), "--N", "50", "--P", "50"])
        assert code == 1
        assert "101" in capsys.readouterr().err

    def test_tau_descriptor_within_budget(self, tmp_path, capsys):
        import time
        doc = {
            "t": 1, "m": 0, "A": [], "omega": [], "omega_prime": [],
            "coefficients": [{"type": "tau"}],
            "s": [[2, 0]],
        }
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code = main(["compare", "--system", str(path), "--N", "10000",
                     "--P", "10000", "--deterministic"])
        wall = time.perf_counter() - t0
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["abs_diff"] < 1e-4
        assert wall < 60.0

    def test_tail_rule_shared_with_eval(self, diag_file, capsys):
        # N = 1 has no N/2 box in either command; P = 3 has no prime <= P/2,
        # and the diagonal system has no twist to blame
        direct = "direct tail estimate skipped: N < 2 leaves the N/2 box empty"
        assert main(["compare", "--system", diag_file, "--N", "1", "--P", "3",
                     "--B", "40"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["direct_tail"] is None and out["euler_tail"] is None
        assert out["warnings"] == [
            direct, "euler tail estimate skipped: P/2 < 2, so no prime is <= P/2"]
        assert main(["eval", "--system", diag_file, "--N", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tail_estimate"] is None and out["warnings"] == [direct]


class TestCliUsage:
    def test_usage_errors_exit_1(self, diag_file, capsys):
        # 2 is reserved for a witness, so argparse's own exit code is not used
        assert main(["compare", "--system", diag_file, "--bogus"]) == 1
        assert main(["eval", "--system", diag_file, "--N", "abc"]) == 1
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, stderr", [
        # int() alone reads '1_000' as 1000 and Arabic-Indic digits as ASCII
        (["eval", "--N", "1_000"], "argument --N: invalid int value: '1_000'\n"),
        (["compare", "--P", "\u0661\u0660\u0660"],
         "argument --P: invalid int value: '\u0661\u0660\u0660'\n"),
        (["moment", "--q", "1_1,31"], "mds: --q '1_1,31': '1_1' is not an integer\n"),
        (["moment", "--q", "\u0661\u0661,31"],
         "mds: --q '\u0661\u0661,31': '\u0661\u0661' is not an integer\n"),
    ])
    def test_integer_arguments_take_ascii_digits_only(self, diag_file, capsys, argv, stderr):
        assert main(argv + ["--system", diag_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(stderr)

    def test_signed_and_padded_integers_are_accepted(self, diag_file, capsys):
        assert main(["moment", "--system", diag_file, "--q", " 11, +31", "--N", "+100"]) == 0
        assert json.loads(capsys.readouterr().out)["q"] == [11, 31]

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["compare", "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_compatibility_flags_have_no_effect(self, diag_file, capsys):
        # --deterministic is accepted and changes nothing; --threads is gone
        argv = ["compare", "--system", diag_file, "--N", "200", "--P", "200"]
        docs = []
        for extra in ([], ["--deterministic"]):
            assert main(argv + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("wall_time")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert main(argv + ["--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--threads" in captured.err


class TestCliCheckS:
    def test_additive_witness_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("x1 + x2 - 5")
        code = main(["check-s", "--constraints", str(path), "--t", "2", "--N", "5"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "witness"
        x1, x2 = doc["point"]
        assert x1 + x2 != 5

    def test_monomial_system_passes(self, tmp_path, capsys):
        doc = {"t": 3, "m": 1, "A": [[1, 1, -1]],
               "omega": ["1"], "omega_prime": ["1"]}
        path = tmp_path / "mono.json"
        path.write_text(json.dumps(doc))
        code = main(["check-s", "--system", str(path), "--N", "20"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"] == "no_counterexample"

    def test_requires_t_with_constraints(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("x1 - 1")
        assert main(["check-s", "--constraints", str(path), "--N", "5"]) == 1


class TestCliNormalize:
    def test_dependent_row(self, tmp_path, capsys):
        doc = {"t": 2, "m": 2, "A": [[2, -2], [1, -1]],
               "omega": ["1", "1"], "omega_prime": ["1", "1"]}
        path = tmp_path / "n.json"
        path.write_text(json.dumps(doc))
        code = main(["normalize", "--system", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["system"]["A"] == [[1, -1]]
        assert out["dropped_rows"] == 1
        assert out["operations"]
        assert "coefficients" not in out["system"]

    def test_families_are_kept(self, tmp_path, capsys):
        # row operations act on the rows of A; the families belong to its
        # columns, so the canonical system evaluates the same series
        recs = [{"type": "tau", "bound": 10**4}, {"type": "character", "q": 7, "k": 2}]
        doc = {"t": 2, "m": 2, "A": [[2, -2], [1, -1]],
               "omega": ["1", "1"], "omega_prime": ["1", "1"],
               "coefficients": recs, "s": [[2, 0], [2, 0]]}
        path = tmp_path / "n.json"
        path.write_text(json.dumps(doc))
        assert main(["normalize", "--system", str(path)]) == 0
        canonical = json.loads(capsys.readouterr().out)["system"]
        assert canonical["coefficients"] == recs
        path2 = tmp_path / "canonical.json"
        path2.write_text(json.dumps(canonical))
        direct = []
        for p in (path, path2):
            assert main(["eval", "--system", str(p), "--N", "200"]) == 0
            direct.append(json.dumps(json.loads(capsys.readouterr().out)["direct"]))
        assert direct[0] == direct[1]
        assert json.loads(direct[0])[1] != 0


class TestCliReduceSupport:
    def test_reducible(self, tmp_path, capsys):
        doc = {"t": 3, "m": 2, "A": [[1, -1, 0], [0, 1, -1]],
               "omega": ["1", "1"], "omega_prime": ["1", "1"]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["reduce-support", "--system", str(path), "--bound", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "reducible"
        assert all(sum(1 for x in row if x) <= 2 for row in out["basis"])

    def test_irreducible(self, tmp_path, capsys):
        doc = {"t": 3, "m": 1, "A": [[1, 1, -1]],
               "omega": ["1"], "omega_prime": ["1"]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["reduce-support", "--system", str(path), "--bound", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "irreducible_within_bound"


class TestCliMoment:
    def test_decreasing_errors_and_csv(self, diag_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["moment", "--system", diag_file, "--q", "11,31,101",
                     "--N", "5000", "--csv", str(csv_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        errs = [out["errors"][q] for q in ("11", "31", "101")]
        assert errs[0] > errs[1] > errs[2]
        assert out["eta_hat"] > 0.5
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "q,error" and len(lines) == 4

    @pytest.mark.parametrize("q", [",", "", " , ", "11,abc", "11,11"])
    def test_empty_modulus_list_is_an_error(self, diag_file, capsys, q):
        # a document with "q": [] would have measured nothing; every bad
        # list is reported against --q
        reason = {"11,abc": "--q '11,abc': 'abc' is not an integer",
                  "11,11": "--q '11,11' is not strictly ascending"}
        assert main(["moment", "--system", diag_file, "--q", q, "--N", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mds: {reason.get(q, f'--q {q!r} lists no modulus')}\n"

    def test_twist_prime_above_N(self, tmp_path, capsys):
        # the reference is the direct sum alone, so a twist prime above N
        # (and above any prime bound) is no error
        path = tmp_path / "w.json"
        path.write_text(json.dumps(dict(DIAG_DOC, omega_prime=["1009"])))
        code = main(["moment", "--system", str(path), "--q", "11,31", "--N", "1000"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lhs"] == [0.0, 0.0] and out["warnings"] == []

    def test_family_values_once_per_job(self, tmp_path, capsys, monkeypatch):
        # the Hecke family keeps no values, so each pass of the job factors
        # each n <= N once: the reference direct sum on the diagonal, and the
        # class-sum pass once for both moduli
        N = 300
        hecke = {"type": "hecke_gl2",
                 "lambda": {str(p): 0.1 * (p % 7) - 0.3 for p in primes_up_to(N)}}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(dict(DIAG_DOC, coefficients=[{"type": "trivial"}, hecke])))
        seen = []
        factor_levels = coefficients.factor_levels
        monkeypatch.setattr(coefficients, "factor_levels",
                            lambda n: seen.append(np.array(n)) or factor_levels(n))
        code = main(["moment", "--system", str(path), "--q", "11,31", "--N", str(N)])
        assert code == 0 and json.loads(capsys.readouterr().out)["errors"]
        got = collections.Counter(np.concatenate(seen).tolist())
        assert got == collections.Counter(2 * list(range(1, N + 1)))

    def test_families_keep_no_state(self, tmp_path, capsys, monkeypatch):
        # a family keeps no per-integer values: its attributes are unchanged
        # by an `mds moment` job (whose reference is the direct sum), a direct
        # sum and an m = 0 moment; and values() factors no n inside the
        # sieve's reach one by one: factorize runs only for the character
        # tables' q - 1
        N = 300
        records = [{"type": "hecke_gl2",
                    "lambda": {str(p): 0.1 * (p % 7) - 0.3 for p in primes_up_to(N)}},
                   {"type": "tau", "bound": 1000}, {"type": "character", "q": 7, "k": 2}]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(dict(DIAG_DOC, t=3, A=[[1, 1, -1]], coefficients=records,
                                        s=[[2, 0]] * 3)))
        built, calls = [], []

        def build(records):
            fams = descriptor.build_families(records)
            built.extend((fam, pickle.dumps(vars(fam))) for fam in fams)
            return fams

        monkeypatch.setattr(cli, "build_families", build)
        monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
        code = main(["moment", "--system", str(path), "--q", "11,31", "--N", str(N)])
        assert code == 0 and json.loads(capsys.readouterr().out)["errors"]
        fams = [fam for fam, _ in built]
        direct_sum_and_half(make_system([[1, 1, -1]]), fams, (2, 2, 2), N)
        moment_rhs(LaurentMonomialSystem(t=3, m=0, A=(), omega=(), omega_prime=()),
                   fams, (2, 2, 2), 7, N)
        assert len(built) == 3
        assert all(pickle.dumps(vars(fam)) == before for fam, before in built)
        assert calls and set(calls) <= {6, 10, 30}


class TestCliEnumerate:
    def test_monomial(self, diag_file, capsys):
        code = main(["enumerate", "--system", diag_file, "--N", "4"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["points"] == [[1, 1], [2, 2], [3, 3], [4, 4]]
        assert out["count"] == 4

    def test_constraints(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("x1 + x2 - 5")
        code = main(["enumerate", "--constraints", str(path), "--t", "2", "--N", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["points"] == [[1, 4], [2, 3], [3, 2], [4, 1]]


    @pytest.mark.parametrize("doc,N", [
        (DIAG_DOC, 10**4),                          # three windows
        (dict(DIAG_DOC, A=[[0, 0]], omega=["2"], omega_prime=["3"]), 5),
        ({"t": 0, "m": 0, "A": [], "omega": [], "omega_prime": []}, 5),
        (dict(DIAG_DOC, A=[[1, 1, -1]], t=3), 300),
        (dict(DIAG_DOC, A=[[40, -40]], omega=["3"], omega_prime=["3"]), 200),  # object dtype
        (DIAG_DOC, 1),                              # one point
    ])
    def test_document_is_the_emitted_list_of_lists(self, tmp_path, capsys, doc, N):
        # the points are written a window at a time, byte for byte as
        # json.dump of the whole document with indent 2
        doc = {k: v for k, v in doc.items() if k not in ("coefficients", "s")}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        assert main(["enumerate", "--system", str(path), "--N", str(N)]) == 0
        points = box_array(parse_descriptor(doc)[0], N).tolist()
        assert capsys.readouterr().out == json.dumps(
            {"N": N, "count": len(points), "points": points}, indent=2) + "\n"

    @pytest.mark.parametrize("text,stderr", [
        ("x\u0661 - x2", "mds: line 1, col 1: expected digits after 'x'\n"),
        ("x1\u00b2", "mds: line 1, col 3: unexpected character '\u00b2'\n"),
        ("x1 - \u00b3", "mds: line 1, col 6: unexpected character '\u00b3'\n"),
    ])
    def test_constraint_digits_are_ascii(self, tmp_path, capsys, text, stderr):
        # str.isdigit accepts the Arabic-Indic one, which int() reads as 1,
        # and superscripts, which int() rejects without a position
        path = tmp_path / "c.txt"
        path.write_text(text)
        assert main(["enumerate", "--constraints", str(path), "--t", "2", "--N", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == stderr

    def test_constraints_document_is_json_dumps(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("x1 * x3 - x2^2")
        assert main(["enumerate", "--constraints", str(path), "--t", "3", "--N", "30"]) == 0
        points = [list(p) for p in itertools.product(range(1, 31), repeat=3)
                  if p[0] * p[2] == p[1] ** 2]
        assert capsys.readouterr().out == json.dumps(
            {"N": 30, "count": len(points), "points": points}, indent=2) + "\n"

    def test_memory_holds_the_box_as_an_array(self, diag_file):
        # the windows are int64 arrays, 16 bytes a point here; the list of
        # lists took about 170, 17 MiB over the import at N = 10^5
        base = maxrss_kib(["-c", "import numpy, mdseries.cli"])
        run = maxrss_kib(["-m", "mdseries.cli", "enumerate", "--system", diag_file,
                          "--N", "100000"])
        assert run - base < 8 * 1024


class TestWorkCapEnv:
    def test_env_override(self, diag_file, capsys, monkeypatch):
        monkeypatch.setenv("MDS_WORK_CAP", "3")
        code = main(["enumerate", "--system", diag_file, "--N", "50"])
        assert code == 1
        assert "MDS_WORK_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_000", "\u0661\u0660\u0660\u0660", "abc", "-5"])
    def test_value_must_be_an_ascii_integer(self, diag_file, capsys, monkeypatch, value):
        # int() reads the first two as 1000 and the last as a cap of -5
        monkeypatch.setenv("MDS_WORK_CAP", value)
        assert main(["enumerate", "--system", diag_file, "--N", "5"]) == 1
        assert capsys.readouterr() == (
            "", f"mds: MDS_WORK_CAP={value!r}: expected an integer >= 0\n")

    @pytest.mark.parametrize("value, cap", [(" 3\t", 3), ("0", 0), ("", None)])
    def test_blanks_zero_and_empty(self, diag_file, capsys, monkeypatch, value, cap):
        # blanks around the digits are allowed, and an empty value is the default
        monkeypatch.setenv("MDS_WORK_CAP", value)
        code = main(["enumerate", "--system", diag_file, "--N", "50"])
        err = capsys.readouterr().err
        assert (code, err.count(f"cap is {cap} ")) == ((0, 0) if cap is None else (1, 1))

    def test_fixed_caps_name_their_own_remedy(self, tmp_path, capsys, monkeypatch):
        # the character-tuple cap does not read MDS_WORK_CAP, so its message
        # must not offer it: (1009 - 1)^2 tuples pass any enumeration cap
        monkeypatch.setenv("MDS_WORK_CAP", str(10**11))
        path = tmp_path / "two_rows.json"
        path.write_text(json.dumps(dict(DIAG_DOC, m=2, A=[[1, -1], [1, 1]],
                                        omega=["1", "1"], omega_prime=["1", "1"])))
        code = main(["moment", "--system", str(path), "--q", "11,1009", "--N", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "character tuple average" in err and "smaller q" in err
        assert "MDS_WORK_CAP" not in err


class TestConsoleScript:
    def test_module_invocation(self, diag_file):
        # the child imports the same package as this process, also when it
        # is found only through pytest's `pythonpath` setting
        src = str(Path(mdseries.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mdseries.cli", "eval",
             "--system", diag_file, "--N", "100"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["direct"][0] - math.pi**4 / 90) < 1e-3

    def test_eval_memory_does_not_grow_with_the_box(self, diag_file):
        # the direct sum holds one window of the box and two fixed-size exact
        # sums, not the K x t box and its K-long temporaries; at N = 10^5 on
        # the diagonal that is about 1.6 MiB over the import, where the whole
        # box took about 13 MiB
        base = maxrss_kib(["-c", "import numpy, mdseries.cli"])
        run = maxrss_kib(["-m", "mdseries.cli", "eval", "--system", diag_file,
                          "--N", "100000"])
        assert run - base < 4 * 1024

    def test_compare_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma is imported lazily by some numpy calls (np.unique among
        # them); it costs about 1 MB of peak memory, and compare needs none
        lam = {str(p): math.cos(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                             41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)}
        doc = dict(DIAG_DOC, coefficients=[{"type": "hecke_gl2", "lambda": lam},
                                           {"type": "tau"}])
        path = tmp_path / "tau_hecke.json"
        path.write_text(json.dumps(doc))
        src = str(Path(mdseries.__file__).resolve().parent.parent)
        code = ("import contextlib, io, sys\n"
                "from mdseries.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main(['compare', '--system', {str(path)!r}, '--N', '97', '--P', '97'])\n"
                "print(rc, 'numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_sympy_and_hypothesis_stay_unimported(self, tmp_path):
        # sympy and hypothesis serve the tests only; a library import of
        # either would add its import time to every command
        path = tmp_path / "n.json"
        path.write_text(json.dumps(dict(DIAG_DOC, m=2, A=[[2, -2], [1, -1]],
                                        omega=["1", "1"], omega_prime=["1", "1"])))
        src = str(Path(mdseries.__file__).resolve().parent.parent)
        code = ("import contextlib, io, sys\n"
                "from mdseries.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rcs = [main(['normalize', '--system', {str(path)!r}]),\n"
                f"           main(['compare', '--system', {str(path)!r}, '--N', '30', '--P', '30'])]\n"
                "print(*rcs, *(name in sys.modules for name in ('sympy', 'hypothesis')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == ["0", "0", "False", "False"], proc.stderr

    def test_traced_replay_matches_untraced(self, tmp_path):
        # perfbench's layer trace wraps library functions by module and name;
        # a refactor that drops one of those names must fail here, not in
        # the benchmark's traced run
        script = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(dict(DIAG_DOC, coefficients=[{"type": "tau"},
                                                                {"type": "trivial"}])))
        docs = []
        for trace in ("1", "0"):
            out = tmp_path / f"trace{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(script), "--trace", trace, "--out", str(out), "--",
                 "compare", "--system", str(path), "--N", "30", "--P", "100"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            assert doc["rc"] == 0
            docs.append(doc)
        traced, untraced = docs
        assert traced["spans"]["cli.main"]["calls"] == 1
        assert traced["spans"]["series.compare"]["calls"] == 1
        # no twist: one local search, for the zero right-hand side at its
        # largest bound, serves every bound B_p
        assert traced["spans"]["variety.local_solutions"]["calls"] == 1
        assert untraced["spans"] == {}
        outputs = [json.loads(doc["stdout"]) for doc in docs]
        for out in outputs:
            out.pop("wall_time")
        assert outputs[0] == outputs[1]

    def test_traced_moment_replay_matches_untraced(self, tmp_path):
        # the same guard on the moment path, whose module the trace also
        # wraps by name
        script = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
        path = tmp_path / "hecke.json"
        lam = {str(p): 0.1 * (p % 7) - 0.3 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)}
        path.write_text(json.dumps(dict(DIAG_DOC, coefficients=[
            {"type": "hecke_gl2", "lambda": lam}, {"type": "trivial"}])))
        docs = []
        for trace in ("1", "0"):
            out = tmp_path / f"trace{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(script), "--trace", trace, "--out", str(out), "--",
                 "moment", "--system", str(path), "--q", "11,31", "--N", "30"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            assert doc["rc"] == 0
            docs.append(doc)
        traced, untraced = docs
        assert traced["spans"]["cli.main"]["calls"] == 1
        assert traced["spans"]["momentlab.decay_experiment"]["calls"] == 1
        assert untraced["spans"] == {}
        outputs = [json.loads(doc["stdout"]) for doc in docs]
        for out in outputs:
            out.pop("wall_time", None)
        assert outputs[0] == outputs[1]


def run_python(code: str) -> str:
    """stdout of `python -c code` on this package; it must exit 0."""
    src = str(Path(mdseries.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportSurface:
    """What each entry point loads, each in a fresh interpreter: the package
    exports lazily, and a job compiles only the modules it runs."""

    LOADED = "print(*sorted(m for m in sys.modules if m.startswith('mdseries.')))\n"

    def test_package_import_loads_no_submodule(self):
        assert run_python("import sys, mdseries\n" + self.LOADED) == "\n"

    def test_jobs_load_recombination_only_for_property_s(self, diag_file, tmp_path):
        cons = tmp_path / "c.txt"
        cons.write_text("x1*x2 - x3")
        # (argv, modules the job must load, modules it must not load)
        jobs = [(["compare", "--system", diag_file, "--N", "30", "--P", "30"],
                 {"series"}, {"recombination", "momentlab", "lattice"}),
                (["eval", "--system", diag_file, "--N", "30"],
                 {"series"}, {"recombination", "momentlab", "lattice"}),
                (["moment", "--system", diag_file, "--q", "11,31", "--N", "30"],
                 {"momentlab"}, {"recombination", "lattice"}),
                (["normalize", "--system", diag_file],
                 {"lattice"}, {"series", "momentlab"}),
                (["reduce-support", "--system", diag_file],
                 {"lattice"}, {"series", "momentlab"}),
                (["check-s", "--constraints", str(cons), "--t", "3", "--N", "6"],
                 {"recombination"}, set())]
        for argv, loads, skips in jobs:
            out = run_python("import contextlib, io, sys\n"
                             "from mdseries.cli import main\n"
                             "with contextlib.redirect_stdout(io.StringIO()):\n"
                             f"    rc = main({argv!r})\n"
                             "print(rc, 'dataclasses' in sys.modules)\n" + self.LOADED)
            status, modules = out.splitlines()
            # the records are NamedTuples or plain classes, so no job makes
            # dataclasses generate code at import
            assert status == "0 False", argv[0]
            names = {m.removeprefix("mdseries.") for m in modules.split()}
            assert loads <= names and not skips & names, (argv[0], names)

    def test_jobs_that_do_not_evaluate_build_no_family(self, tmp_path):
        # only eval, compare and moment read the families; the others would
        # spend most of a second on the tau table at bound 10^5
        recs = [{"type": "tau", "bound": 10**5}, {"type": "character", "q": 7, "k": 2},
                {"type": "hecke_gl2", "lambda": {"2": 0.5, "3": -0.25}}]
        path = tmp_path / "fams.json"
        path.write_text(json.dumps({"t": 3, "m": 1, "A": [[1, 1, -1]], "omega": ["6"],
                                    "omega_prime": ["35"], "coefficients": recs,
                                    "s": [[2, 0]] * 3}))
        jobs = [["normalize"], ["reduce-support"], ["enumerate", "--N", "40"],
                ["check-s", "--N", "20"]]
        out = run_python("import contextlib, io, sys\n"
                         "from mdseries.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    rcs = [main(argv + ['--system', {str(path)!r}]) for argv in {jobs!r}]\n"
                         "print(*rcs, 'mdseries.coefficients' in sys.modules)\n")
        assert out.split() == ["0", "0", "0", "0", "False"]

    def test_system_import_loads_no_lattice(self):
        out = run_python("import sys, mdseries.system\n" + self.LOADED)
        assert "mdseries.system" in out.split()
        assert "mdseries.lattice" not in out.split()

    def test_every_export_resolves_to_its_module_object(self):
        out = run_python(
            "import importlib, mdseries\n"
            "names = dir(mdseries)\n"
            "for name in mdseries.__all__:\n"
            "    module = importlib.import_module('mdseries.' + mdseries._EXPORTS[name])\n"
            "    assert getattr(mdseries, name) is getattr(module, name), name\n"
            "    assert name in names, name\n"
            "print(len(mdseries.__all__))\n")
        assert int(out) > 0

    def test_unknown_name_raises_attribute_error(self):
        out = run_python("import mdseries\n"
                         "try:\n"
                         "    mdseries.nope\n"
                         "except AttributeError as exc:\n"
                         "    print(exc)\n")
        assert out == "module 'mdseries' has no attribute 'nope'\n"

    def test_from_import_gives_the_submodule(self):
        out = run_python("import types\n"
                         "from mdseries import series\n"
                         "print(isinstance(series, types.ModuleType), series.__name__)\n")
        assert out == "True mdseries.series\n"
