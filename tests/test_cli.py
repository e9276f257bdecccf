"""End-to-end CLI behavior: reports, determinism, and exit codes."""

import contextlib
import copy
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import argparse_oracle
from cobalt import cli, fgl, landweber, rings, tables, verify
from cobalt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_grass_report(capsys):
    code, report = run_json(capsys, "grass", "--n", "4", "--d", "2",
                            "--verify", "all")
    assert code == 0
    assert report["schema"] == 1
    assert report["rank"] == 6
    assert [c["name"] for c in report["checks"]] == \
        ["complex", "identities", "pairing", "products"]
    assert all(c["pass"] for c in report["checks"])
    assert [2, 1] in report["basis"]


def test_grass_single_check_and_full_box(capsys):
    code, report = run_json(capsys, "grass", "--n", "3", "--d", "3",
                            "--verify", "all")
    assert code == 0
    # no restriction target exists at d == n, so that check is skipped
    assert [c["name"] for c in report["checks"]] == \
        ["identities", "pairing", "products"]
    code, report = run_json(capsys, "grass", "--n", "5", "--d", "2",
                            "--verify", "pairing")
    assert code == 0
    assert report["checks"] == [{"name": "pairing", "pass": True}]


def test_grass_products_at_the_frontier(capsys):
    # all 1225 products of R(7, 3) against tableau counting
    code, report = run_json(capsys, "grass", "--n", "7", "--d", "3",
                            "--verify", "products")
    assert code == 0
    assert report["checks"] == [{"name": "products", "pass": True}]


def test_grass_products_n8(capsys):
    # all 4900 products of R(8, 4), the largest box COBALT_MAX_N admits
    code, report = run_json(capsys, "grass", "--n", "8", "--d", "4",
                            "--verify", "products")
    assert code == 0
    assert report["checks"] == [{"name": "products", "pass": True}]


def test_grass_products_witness(capsys, monkeypatch):
    monkeypatch.setattr("cobalt.grassmann.lr_multiply",
                        lambda a, b, d, r: {})
    code, report = run_json(capsys, "grass", "--n", "3", "--d", "1",
                            "--verify", "products")
    assert code == 1
    # every pair with a nonzero product in the 1 x 2 box, in basis order
    assert report["checks"] == [{"name": "products", "pass": False,
                                 "witness": [
                                     {"a": [], "b": []}, {"a": [], "b": [1]},
                                     {"a": [], "b": [2]}, {"a": [1], "b": []},
                                     {"a": [1], "b": [1]},
                                     {"a": [2], "b": []}]}]


def test_every_grass_check_runs(capsys):
    for token in cli.COMMANDS["grass"][2]["--verify"][0]:
        code, report = run_json(capsys, "grass", "--n", "3", "--d", "1",
                                "--verify", token)
        assert code == 0, token
        assert all(c["pass"] and "witness" not in c
                   for c in report["checks"]), token


def test_grass_and_verify_all_share_the_witness(capsys, monkeypatch):
    monkeypatch.setattr("cobalt.grassmann.lr_multiply",
                        lambda a, b, d, r: {})
    code, report = run_json(capsys, "grass", "--n", "3", "--d", "1",
                            "--verify", "products")
    assert code == 1
    result = verify.check_structure_constants(3)
    assert not result["pass"]
    entry, = [f for f in result["details"]["failures"]
              if (f["n"], f["d"]) == (3, 1)]
    assert entry == {"n": 3, "d": 1,
                     "witness": report["checks"][0]["witness"]}


def test_verify_all_failure_entries(monkeypatch):
    # lattices that never agree: one {"n", "d", "witness"} per proper box
    monkeypatch.setattr("cobalt.snf.lattices_equal", lambda a, b: False)
    result = verify.check_restriction_complex(2)
    assert result == {"name": "restriction_complex", "pass": False,
                      "details": {"max_n": 2, "failures": [
                          {"n": 1, "d": 0, "witness": [0]},
                          {"n": 2, "d": 0, "witness": [0]},
                          {"n": 2, "d": 1, "witness": [0, 1]}]}}


def test_zero_section_witness_names_the_identities(monkeypatch):
    monkeypatch.setattr(verify, "zero_section_report", lambda n, d: {
        "n": n, "d": d, "restriction": True, "zero_section": d > 0,
        "ok": d > 0})
    result = verify.check_zero_section(2)
    assert result["details"]["failures"] == [
        {"n": 1, "d": 0,
         "witness": {"restriction": True, "zero_section": False}},
        {"n": 2, "d": 0,
         "witness": {"restriction": True, "zero_section": False}}]


def test_fgl_report(capsys):
    code, report = run_json(capsys, "fgl", "--law", "multiplicative",
                            "--N", "4", "--check", "--p-series", "2",
                            "--landweber", "2", "2")
    assert code == 0
    assert report["coefficients"]["1,1"] == "-beta"
    assert report["axioms"]["ok"] is True
    assert report["p_series"]["coefficients"] == {"1": "2", "2": "-beta"}
    assert report["landweber_generators"]["sequence"] == ["2", "-beta", "0"]


def test_fgl_universal_rational(capsys):
    code, report = run_json(capsys, "fgl", "--law", "universal-q",
                            "--N", "4", "--check")
    assert code == 0
    assert report["coefficients"]["1,1"] == "-2*m1"


def test_fgl_universal_rational_n12_axioms(capsys):
    # the N = 12 universal law of ROADMAP item 5
    code, report = run_json(capsys, "fgl", "--law", "universal-q",
                            "--N", "12", "--check")
    assert code == 0
    assert report["axioms"]["ok"] is True


def test_landweber_exact_and_failing(capsys):
    code, report = run_json(capsys, "landweber", "--law", "multiplicative",
                            "--primes", "2,3", "--height", "3",
                            "--window", "-6:6")
    assert code == 0
    assert report["exact"] is True
    statuses = [s["status"] for s in report["verdicts"]["2"]["stages"]]
    assert statuses == ["regular", "regular", "quotient_vanishes",
                        "quotient_vanishes"]

    code, report = run_json(capsys, "landweber", "--law", "additive",
                            "--primes", "2", "--height", "1",
                            "--window", "0:4")
    assert code == 1
    assert report["exact"] is False
    assert report["verdicts"]["2"]["stages"][1]["status"] == "fails"


def test_landweber_module_file(capsys, tmp_path):
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({
        "ring": {"base": "Z", "generators": [], "relations": []},
        "generators": [{"name": "e", "adams_degree": 0}],
        "relations": [{"e": 2}],
    }))
    code, report = run_json(capsys, "landweber", "--law", "additive",
                            "--module", str(module), "--primes", "2",
                            "--height", "0", "--window", "0:2")
    assert code == 1
    assert report["verdicts"]["2"]["stages"][0]["status"] == "fails"


@pytest.mark.parametrize("zero", ["0", "t - t"])
def test_landweber_skips_a_zero_ring_relation(capsys, tmp_path, zero):
    def verdicts(relations):
        module = tmp_path / "mod.json"
        module.write_text(json.dumps({
            "ring": {"base": "Z",
                     "generators": [{"name": "t", "adams_degree": 1}],
                     "relations": relations},
            "generators": [{"name": "e", "adams_degree": 0}],
            "relations": [{"e": "2*t"}],
        }))
        return run(capsys, "landweber", "--module", str(module),
                   "--law", "additive", "--primes", "2", "--height", "1",
                   "--window", "0:2")

    code, out = verdicts([zero])
    assert (code, out) == verdicts([])
    assert code == 1
    stages = json.loads(out)["verdicts"]["2"]["stages"]
    assert [s["status"] for s in stages] == ["fails", "fails"]


def test_landweber_custom_law_file(capsys, tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({
        "ring": {"base": "Z",
                 "generators": [{"name": "beta", "adams_degree": 1,
                                 "invertible": True}],
                 "relations": []},
        "order": 4,
        "exact": True,
        "coefficients": [{"i": 1, "j": 1, "value": "-beta"}],
    }))
    code, report = run_json(capsys, "landweber", "--law", str(law),
                            "--primes", "2", "--height", "2",
                            "--window", "-4:4")
    assert code == 0
    assert report["exact"] is True


def test_custom_law_must_satisfy_axioms(capsys, tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({
        "ring": {"base": "Q", "generators": [], "relations": []},
        "order": 5,
        "coefficients": [{"i": 2, "j": 1, "value": 1}],
    }))
    code, out = run(capsys, "landweber", "--law", str(law),
                    "--primes", "2", "--height", "1", "--window", "0:2")
    assert code == 2


def test_a_commutative_law_that_is_not_associative_is_refused(capsys,
                                                              tmp_path):
    # x + y - 2a(x^3 y + x y^3) over Z[a], |a| = 3: the entry (3, 1) is
    # mirrored to (1, 3), and F(F(x, y), z) has 3x^2yz but no xyz^2 term
    law = tmp_path / "law.json"
    law.write_text(json.dumps({
        "ring": {"base": "Z", "generators": [{"name": "a", "adams_degree": 3}],
                 "relations": []},
        "order": 4,
        "coefficients": [{"i": 3, "j": 1, "value": "-2*a"}],
    }))
    code = main(["landweber", "--law", str(law), "--primes", "2",
                 "--height", "1", "--window", "0:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "cobalt: error: custom law fails: associative\n"


def test_oriented_report(capsys):
    code, report = run_json(capsys, "oriented", "--n", "4", "--d", "2",
                            "--thom")
    assert code == 0
    assert report["thom_class"] == {"x^0": "x2", "x^1": "-x1", "x^2": "1"}
    assert report["zero_section"]["ok"] is True


def test_oriented_thom_size_message_names_the_input(capsys, monkeypatch):
    monkeypatch.setenv("COBALT_MAX_N", "5")
    assert main(["oriented", "--n", "5", "--d", "2", "--thom"]) == 2
    err = capsys.readouterr().err
    assert "--n 5" in err and "R(6, 3)" in err and "n=6" not in err
    code, report = run_json(capsys, "oriented", "--n", "4", "--d", "2",
                            "--thom")
    assert code == 0 and report["zero_section"]["ok"] is True
    # without --thom the ring R(n, d) alone must fit
    code, _ = run(capsys, "oriented", "--n", "5", "--d", "2")
    assert code == 0


def test_oriented_custom_coefficients(capsys, tmp_path):
    coeff = tmp_path / "coeff.json"
    coeff.write_text(json.dumps({
        "base": "Z",
        "generators": [{"name": "b", "adams_degree": 1,
                        "invertible": True}],
        "relations": []}))
    code, report = run_json(capsys, "oriented", "--coeff", str(coeff),
                            "--n", "3", "--d", "1")
    assert code == 0
    assert report["rank"] == 3
    assert report["coefficient_ring"]["generators"] == ["b", "b_inv"]


def test_hopf_report(capsys):
    code, report = run_json(capsys, "hopf", "--N", "3")
    assert code == 0
    assert report["comult"]["b1"] == "bL1 + bR1"
    assert report["right_unit"]["m1"] == "m1 - b1"
    assert report["axioms"]["pass"] is True


def test_hopf_induced(capsys, tmp_path):
    doc = tmp_path / "law.json"
    doc.write_text(json.dumps({
        "ring": {"base": "Q",
                 "generators": [{"name": "beta", "adams_degree": 1,
                                 "invertible": True}],
                 "relations": []},
        "law": "multiplicative"}))
    code, report = run_json(capsys, "hopf", "--N", "3",
                            "--induced", str(doc))
    assert code == 0
    assert report["collapse_identifies_units"] is True
    assert "-beta_L + 2*b1 + beta_R" in report["induced"]["relations"]


@pytest.mark.parametrize("relations, collapse",
                         [(["t - 3*beta^2"], True), ([], False)])
def test_hopf_induced_collapse_reads_the_algebra_relations(
        capsys, tmp_path, relations, collapse):
    """Over Q[beta, t]/(t - 3 beta^2) the units of t differ by
    3 (beta_L^2 - beta_R^2) modulo both copies of the relation, so they
    collapse with those of beta; with t free they stay apart."""
    doc = tmp_path / "law.json"
    doc.write_text(json.dumps({
        "ring": {"base": "Q",
                 "generators": [{"name": "beta", "adams_degree": 1},
                                {"name": "t", "adams_degree": 2}],
                 "relations": relations},
        "law": "multiplicative"}))
    code, report = run_json(capsys, "hopf", "--N", "3",
                            "--induced", str(doc))
    assert code == (0 if collapse else 1)
    assert report["collapse_identifies_units"] is collapse


def test_cobordism_json_and_csv(capsys):
    code, report = run_json(capsys, "cobordism", "--field", "Q",
                            "--window", "-4:0,-2:0", "--verify")
    assert code == 0
    assert report["field"] == "Q"
    assert report["verification"]["pass"] is True
    grid = dict(zip(report["p_values"],
                    [dict(zip(report["q_values"], row))
                     for row in report["cells"]]))
    assert grid[-4][-2] == "Q^2"
    assert grid[-1][0] == "k*(x)Q"
    assert grid[0][0] == "Q"

    code, out = run(capsys, "cobordism", "--field", "F7",
                    "--window", "-4:0,-2:0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["p\\q", "-2", "-1", "0"]
    assert len(lines) == 6
    assert lines[1].split(",") == ["-4", "Q^2", "0", "0"]


def test_verify_all_deterministic(capsys):
    code1, out1 = run(capsys, "verify-all", "--seed", "7")
    code2, out2 = run(capsys, "verify-all", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True
    assert report["within_budget"] is True
    assert len(report["checks"]) == 10
    assert "timing_ms" not in report
    assert all("timing_ms" not in c for c in report["checks"])


def test_verify_all_timings_flag(capsys):
    code, report = run_json(capsys, "verify-all", "--timings")
    assert code == 0
    assert "timing_ms" in report
    assert all("timing_ms" in c for c in report["checks"])


def test_usage_and_input_errors(capsys):
    code, out = run(capsys, "grass", "--n", "99", "--d", "2")
    assert code == 2
    code, out = run(capsys, "landweber", "--law", "additive",
                    "--window", "5:1")
    assert code == 2
    code, out = run(capsys, "cobordism", "--field", "X",
                    "--window", "0:1,0:1")
    assert code == 2
    code, out = run(capsys, "cobordism", "--field", "Q",
                    "--window", "0:1")
    assert code == 2
    code, out = run(capsys, "landweber", "--law", "/nonexistent.json")
    assert code == 2
    with pytest.raises(SystemExit) as err:
        main(["grass", "--n", "4", "--d", "2", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_negative_window_value_after_space(capsys):
    code, report = run_json(capsys, "landweber", "--law", "multiplicative",
                            "--primes", "2", "--height", "1",
                            "--window", "-3:3")
    assert code == 0
    assert report["window"] == [-3, 3]


def _module_file(tmp_path, doc):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _landweber_on_module(capsys, module):
    return run(capsys, "landweber", "--law", "additive", "--module", module,
               "--primes", "2", "--height", "0", "--window", "0:2")


@pytest.mark.parametrize("degree", ["abc", "2", 1.5, True])
def test_module_generator_degree_must_be_an_integer(capsys, tmp_path,
                                                    degree):
    module = _module_file(tmp_path, {
        "ring": {"base": "Z", "generators": [], "relations": []},
        "generators": [{"name": "e", "adams_degree": degree}]})
    code, out = _landweber_on_module(capsys, module)
    assert code == 2
    assert out == ""


def test_module_generators_must_be_a_list_of_objects(capsys, tmp_path):
    module = _module_file(tmp_path, {
        "ring": {"base": "Z", "generators": [], "relations": []},
        "generators": "e"})
    code, _ = _landweber_on_module(capsys, module)
    assert code == 2


def test_ring_generators_must_be_a_list_of_objects(capsys, tmp_path):
    module = _module_file(tmp_path, {
        "ring": {"base": "Z", "generators": "x", "relations": []}})
    code = main(["landweber", "--law", "additive", "--module", module,
                 "--primes", "2", "--height", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "list of objects" in err
    assert "unknown generator fields" not in err


@pytest.mark.parametrize("primes", ["4", "2,9", "1", "-3"])
def test_landweber_rejects_non_primes(capsys, primes):
    code, out = run(capsys, "landweber", "--law", "multiplicative",
                    "--primes", primes, "--height", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("prime", ["4", "1", "0", "-2"])
def test_fgl_landweber_rejects_non_primes(capsys, prime):
    code = main(["fgl", "--law", "multiplicative", "--N", "4",
                 "--landweber", prime, "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--landweber prime {prime} is not a prime" in captured.err


def test_landweber_refuses_primes_too_large_to_check(capsys):
    code, _ = run(capsys, "landweber", "--law", "additive",
                  "--primes", str(10 ** 12 + 39), "--height", "0")
    assert code == 2


@pytest.mark.parametrize("field", [
    "F6", "F1", "F0", "F12", "F\u00b2",
    pytest.param("F" + "7" * 5000, id="F-5000-digits")])
def test_cobordism_rejects_non_prime_power_fields(capsys, field):
    code, out = run(capsys, "cobordism", "--field", field,
                    "--window", "0:1,0:1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("field", ["F2", "F7", "F8", "F9"])
def test_cobordism_accepts_prime_power_fields(capsys, field):
    code, report = run_json(capsys, "cobordism", "--field", field,
                            "--window", "0:1,0:1")
    assert code == 0
    assert report["field"] == field


# -- JSON loaders: malformed fields exit 2 and name the field -------------

_Z_RING = {"base": "Z", "generators": [], "relations": []}
_BETA_RING = {"base": "Z",
              "generators": [{"name": "beta", "adams_degree": 1,
                              "invertible": True}],
              "relations": []}


def _refused(capsys, argv, field):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("law", [5, [{"order": 3}]])
def test_law_file_must_hold_an_object(capsys, tmp_path, law):
    module = _module_file(tmp_path, {"ring": _Z_RING})
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    _refused(capsys, ["landweber", "--module", module, "--law", str(path),
                      "--primes", "2", "--height", "0"], "JSON object")


@pytest.mark.parametrize("coefficients", [5, [5]])
def test_law_coefficients_must_be_a_list_of_objects(capsys, tmp_path,
                                                    coefficients):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"ring": _Z_RING, "order": 3,
                                "coefficients": coefficients}))
    _refused(capsys, ["landweber", "--law", str(path), "--primes", "2",
                      "--height", "0"], "'coefficients'")


def test_induced_law_coefficients_must_be_a_list(capsys, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "ring": {"base": "Q", "generators": [], "relations": []},
        "law": {"order": 3, "coefficients": 5}}))
    _refused(capsys, ["hopf", "--N", "3", "--induced", str(path)],
             "'coefficients'")


def test_module_relations_must_be_a_list(capsys, tmp_path):
    module = _module_file(tmp_path, {"ring": _Z_RING, "relations": 5})
    _refused(capsys, ["landweber", "--law", "additive", "--module", module,
                      "--primes", "2", "--height", "0"], "'relations'")


def test_presentation_relations_must_be_a_list(capsys, tmp_path):
    module = _module_file(tmp_path, {
        "ring": {"base": "Z", "generators": [], "relations": 5}})
    _refused(capsys, ["landweber", "--law", "additive", "--module", module,
                      "--primes", "2", "--height", "0"], "'relations'")


def test_invertible_must_be_a_boolean(capsys, tmp_path):
    module = _module_file(tmp_path, {
        "ring": {"base": "Z",
                 "generators": [{"name": "x", "adams_degree": 1,
                                 "invertible": "no"}],
                 "relations": []}})
    _refused(capsys, ["landweber", "--law", "additive", "--module", module,
                      "--primes", "2", "--height", "0"], "'invertible'")


def test_exact_must_be_a_boolean(capsys, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "ring": _BETA_RING, "order": 4, "exact": "false",
        "coefficients": [{"i": 1, "j": 1, "value": "-beta"}]}))
    _refused(capsys, ["landweber", "--law", str(path), "--primes", "2",
                      "--height", "2", "--window", "0:4"], "'exact'")


@pytest.mark.parametrize("i, j", [(1.9, 1), (1, True), ("1", 1)],
                         ids=["float", "bool", "string"])
def test_coefficient_indices_must_be_integers(capsys, tmp_path, i, j):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "ring": _BETA_RING, "order": 4, "exact": True,
        "coefficients": [{"i": i, "j": j, "value": "-beta"}]}))
    _refused(capsys, ["landweber", "--law", str(path), "--primes", "2",
                      "--height", "2", "--window", "0:4"], "'i' and 'j'")


@pytest.mark.parametrize("module, field", [
    ({"ring": {"base": "Z",
               "generators": [{"name": None, "adams_degree": 1}]}}, "'name'"),
    ({"ring": _Z_RING, "generators": [{"name": ["e"], "adams_degree": 0}]},
     "'name'"),
    ({"ring": {"base": "Z", "generators": [], "relations": [2]}},
     "'relations'")], ids=["null-name", "list-name", "number-relation"])
def test_a_name_or_a_relation_must_be_a_string(capsys, tmp_path, module,
                                               field):
    _refused(capsys, ["landweber", "--law", "additive", "--module",
                      _module_file(tmp_path, module), "--primes", "2",
                      "--height", "0"], field)


def test_an_inline_induced_law_carries_no_ring(capsys, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "ring": {"base": "Q",
                 "generators": [{"name": "beta", "adams_degree": 1,
                                 "invertible": True}],
                 "relations": []},
        "law": {"ring": _Z_RING, "order": 3, "exact": True,
                "coefficients": [{"i": 1, "j": 1, "value": "-2*beta"}]}}))
    _refused(capsys, ["hopf", "--N", "3", "--induced", str(path)], "'ring'")


def test_a_coefficient_past_the_order_is_refused(capsys, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "ring": _BETA_RING, "order": 3, "exact": True,
        "coefficients": [{"i": 1, "j": 1, "value": "-beta"},
                         {"i": 5, "j": 1, "value": 7}]}))
    _refused(capsys, ["landweber", "--law", str(path), "--primes", "2",
                      "--height", "1", "--window", "0:2"], "'order'")


def test_a_coefficient_at_the_order_is_kept():
    ring = cli.load_presentation(_BETA_RING)
    law = cli._law({"order": 3, "coefficients": [
        {"i": 1, "j": 1, "value": "-beta"},
        {"i": 2, "j": 1, "value": "7*beta^2"}]}, ring, 8)
    assert law.coefficient(2, 1) == law.coefficient(1, 2) == \
        7 * ring.gen("beta") ** 2


def _power_module(tmp_path, relation):
    return _module_file(tmp_path, {
        "ring": {"base": "Z",
                 "generators": [{"name": "s", "adams_degree": 1},
                                {"name": "t", "adams_degree": 1}],
                 "relations": [relation]}})


def test_a_power_past_the_term_pair_bound_is_refused(capsys, tmp_path):
    # the last squaring of (s+t)^5000 multiplies 2501^2 term pairs
    module = _power_module(tmp_path, "(s+t)^5000")
    start = time.perf_counter()
    _refused(capsys, ["landweber", "--law", "additive", "--module", module,
                      "--primes", "2", "--height", "0", "--window", "0:2"],
             "at column 7")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("relation", ["s^" + "9" * 5000, "s^²"])
def test_an_unreadable_integer_literal_is_refused(capsys, tmp_path,
                                                  relation):
    module = _power_module(tmp_path, relation)
    _refused(capsys, ["landweber", "--law", "additive", "--module", module,
                      "--primes", "2", "--height", "0", "--window", "0:2"],
             "unreadable integer literal (at column 3)")


@pytest.mark.parametrize("relation", ["(s+t)^500", "t^5000"])
def test_a_power_within_the_term_pair_bound_parses(capsys, tmp_path,
                                                   relation):
    code, report = run_json(
        capsys, "landweber", "--law", "additive", "--module",
        _power_module(tmp_path, relation), "--primes", "2", "--height", "0",
        "--window", "0:2")
    assert code == 0
    assert report["exact"]


def test_parentheses_nested_too_deeply_are_refused(capsys, tmp_path):
    coeff = _module_file(tmp_path, {
        "base": "Z", "generators": [{"name": "x", "adams_degree": 1}],
        "relations": ["(" * 3000 + "x" + ")" * 3000]})
    code = main(["oriented", "--coeff", coeff, "--n", "3", "--d", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("cobalt: error: ")
    assert "nest deeper than 100 (at column 101)" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["landweber", "--law", "FILE"],
    ["landweber", "--law", "additive", "--module", "FILE"],
    ["oriented", "--coeff", "FILE", "--n", "3", "--d", "1"],
    ["hopf", "--N", "2", "--induced", "FILE"]])
def test_json_nested_too_deeply_is_refused(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("cobalt: error: ")
    assert "is nested too deeply" in captured.err
    assert "Traceback" not in captured.err


# -- sizes refused before the work that would exhaust memory ---------------


def _refused_quickly(capsys, argv, field):
    start = time.perf_counter()
    _refused(capsys, argv, field)
    assert time.perf_counter() - start < 2


def test_hopf_collapse_refuses_a_lattice_past_the_cell_bound(capsys,
                                                             tmp_path):
    # degree 4 at exponent bound 6 reaches 34,300 x 17,150 cells over
    # Q[e_inv, t^+-1, f] with |e_inv| = 4, |t| = -1, |f| = 0
    law = _module_file(tmp_path, {
        "ring": {"base": "Q", "relations": ["t - t"],
                 "generators": [{"name": "e_inv", "adams_degree": 4},
                                {"name": "t", "adams_degree": -1,
                                 "invertible": True},
                                {"name": "f", "adams_degree": 0}]},
        "law": "additive"})
    _refused_quickly(capsys, ["hopf", "--N", "2", "--induced", law],
                     f"more than {rings.MAX_LATTICE_CELLS} cells")


def test_cobordism_refuses_a_window_past_the_cell_bound(capsys):
    cells = tables.MAX_TABLE_CELLS + 1
    _refused_quickly(capsys, ["cobordism", "--field", "Q",
                              "--window", f"1:{cells},0:0"],
                     f"the window has {cells} cells")


def test_cobordism_refuses_a_cell_far_out_in_p(capsys):
    # one cell, but it reads the partition count P(500,000)
    start = time.perf_counter()
    _refused(capsys, ["cobordism", "--field", "Q", "--window",
                      "-1000000:-1000000,0:0"],
             "p = -1000000 needs the partition count of 500000")
    assert time.perf_counter() - start < 1
    # the least p whose index is past the bound is refused, the next
    # one is admitted
    edge = -2 * tables.MAX_PARTITION_INDEX
    _refused(capsys, ["cobordism", "--field", "Q",
                      "--window", f"{edge - 2}:{edge - 2},0:0"],
             f"past {tables.MAX_PARTITION_INDEX}")
    code, report = run_json(capsys, "cobordism", "--field", "Q", "--window",
                            f"{edge}:{edge},{edge // 2}:{edge // 2}")
    assert code == 0
    assert report["cells"][0][0] == \
        f"Q^{tables.partition_count(tables.MAX_PARTITION_INDEX)}"


def test_landweber_refuses_a_window_past_the_degree_bound(capsys):
    degrees = landweber.MAX_WINDOW_DEGREES + 1
    _refused_quickly(capsys, ["landweber", "--law", "additive",
                              "--primes", "2", "--height", "1",
                              "--window", f"1:{degrees}"],
                     f"the window has {degrees} degrees")


def test_a_p_series_at_a_huge_p_is_built_by_doubling(capsys):
    # p - 1 formal sums at p = 10^8 ran past 10 s; doubling takes 26
    # sums and 11 more for the set bits below the leading one
    p = 10 ** 8
    start = time.perf_counter()
    code, report = run_json(capsys, "fgl", "--law", "multiplicative",
                            "--N", "4", "--p-series", str(p))
    assert time.perf_counter() - start < 2
    assert code == 0
    # [p](x) = (1 - (1 - beta x)^p) / beta
    assert report["p_series"]["coefficients"] == {
        "1": str(p),
        "2": f"-{math.comb(p, 2)}*beta",
        "3": f"{math.comb(p, 3)}*beta^2",
        "4": f"-{math.comb(p, 4)}*beta^3"}


def test_fgl_refuses_a_landweber_height_past_the_series_bound(capsys):
    # v_2 at p = 999983 asked for [p](x) to order about 10^12
    _refused_quickly(capsys, ["fgl", "--law", "multiplicative", "--N", "4",
                              "--landweber", "999983", "2"],
                     f"past {fgl.MAX_P_SERIES_ORDER}")
    # the largest prime order within the bound is admitted and finishes
    start = time.perf_counter()
    code, report = run_json(capsys, "fgl", "--law", "multiplicative",
                            "--N", "4", "--landweber", "997", "1")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert report["landweber_generators"]["sequence"] == ["997", "beta^996"]
    _refused(capsys, ["fgl", "--law", "multiplicative", "--N", "4",
                      "--landweber", "1009", "1"],
             f"1009^1, past {fgl.MAX_P_SERIES_ORDER}")


def test_landweber_refuses_a_height_past_the_series_bound(capsys):
    _refused_quickly(capsys, ["landweber", "--law", "multiplicative",
                              "--primes", "999983", "--height", "2",
                              "--window", "-2:2"],
                     f"past {fgl.MAX_P_SERIES_ORDER}")


# -- the loaders under drawn JSON ----------------------------------------

_KEYS = st.sampled_from([
    "ring", "base", "generators", "relations", "name", "adams_degree",
    "invertible", "order", "exact", "coefficients", "i", "j", "value",
    "law", "e", "beta"])
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
              st.text(max_size=3),
              st.sampled_from(["Z", "Q", "e", "beta", "additive",
                               "multiplicative", "-beta", "beta^2"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12)
_WINDOW = ["--primes", "2", "--height", "1", "--window", "0:2"]
# per loader: a valid file, and the command that reads it from FILE
_LOADERS = {
    "module": ({"ring": _BETA_RING,
                "generators": [{"name": "e", "adams_degree": 0}],
                "relations": [{"e": "2*beta"}]},
               ["landweber", "--law", "additive", "--module", "FILE",
                *_WINDOW]),
    "law": ({"ring": _BETA_RING, "order": 3, "exact": True,
             "coefficients": [{"i": 1, "j": 1, "value": "-beta"}]},
            ["landweber", "--law", "FILE", *_WINDOW]),
    "induced": ({"ring": _BETA_RING, "law": "multiplicative"},
                ["hopf", "--N", "2", "--induced", "FILE"])}


def _positions(doc, path=()):
    """Every position in a JSON document, as its path of keys."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _positions(value, path + (key,))


@st.composite
def _input_files(draw):
    """A loader and its valid file with one position, or the whole file,
    replaced by drawn JSON, so that each check and the work after the
    checks get reached."""
    loader = draw(st.sampled_from(sorted(_LOADERS)))
    doc = copy.deepcopy(_LOADERS[loader][0])
    path = draw(st.sampled_from(list(_positions(doc))))
    if not path:
        return loader, draw(_JSON)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(_JSON)
    return loader, doc


@settings(max_examples=300, deadline=None)
@given(_input_files())
def test_a_drawn_input_file_exits_0_1_or_2_without_a_traceback(drawn):
    loader, doc = drawn
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "input.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([str(path) if a == "FILE" else a
                         for a in _LOADERS[loader][1]])
    assert code in (0, 1, 2), drawn
    assert code != 2 or err.getvalue().startswith("cobalt: error: "), drawn
    assert "Traceback" not in err.getvalue(), drawn


# -- the option table against the old argparse front end ------------------


ORACLE_OPTIONS = {
    "grass": ["--n", "--d", "--verify"],
    "fgl": ["--law", "--N", "--check", "--p-series", "--landweber"],
    "landweber": ["--module", "--law", "--primes", "--height", "--window"],
    "oriented": ["--coeff", "--n", "--d", "--thom"],
    "hopf": ["--N", "--induced"],
    "cobordism": ["--field", "--window", "--verify", "--format"],
    "verify-all": ["--seed", "--budget", "--timings"],
}
FLAGS = {"--check", "--thom", "--timings", ("cobordism", "--verify")}
REQUIRED_VALUES = {"grass": ["--n", "4", "--d", "2"],
                   "fgl": ["--law", "additive"],
                   "oriented": ["--n", "3", "--d", "1"],
                   "hopf": ["--N", "3"], "cobordism": ["--field", "Q"]}
VALUES = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from([
        "0.5", "-1.5", "1e3", "300", "inf", "nan", "-inf", ".5", "-.5",
        "1_0", " 7 ", "all", "complex", "identities", "pairing",
        "products", "additive", "multiplicative", "universal-q", "json",
        "csv", "Q", "F7", "-3:3", "0:4", "5:1", "-10:10,-5:5",
        "-4:0,-2:0", "2,3", "2,2", "", "x", "-x", "-", "--", "--n",
        "--check", "--law", "a b", "-1 2", "-1e5", "-h"]))
# argparse reads a token as an option when it starts with "-", is longer
# than "-", holds no space and is not a negative number
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _argparse_reads_as_option(token):
    return (token.startswith("-") and len(token) > 1 and " " not in token
            and not _NEGATIVE_NUMBER.fullmatch(token))


@pytest.mark.parametrize("budget", ["inf", "nan", "0", "-1", "-inf",
                                    "1e400", "ten"])
def test_verify_all_refuses_a_budget_that_is_not_finite_and_positive(
        capsys, monkeypatch, budget):
    def no_check_may_run(**_):
        raise AssertionError("a check ran before the budget was checked")

    monkeypatch.setattr("cobalt.verify.ALL_CHECKS", [no_check_may_run])
    with pytest.raises(SystemExit) as err:
        main(["verify-all", "--budget", budget])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert "--budget" in captured.err


@pytest.mark.parametrize("primes", ["2,2", "3,2,3", "2, 2", "5,05"])
def test_landweber_refuses_a_repeated_prime(capsys, primes):
    code = main(["landweber", "--primes", primes, "--height", "1",
                 "--window", "-1:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    repeated = primes.split(",")[-1].strip().lstrip("0")
    assert f"prime list entry {repeated} is repeated" in captured.err


def test_landweber_keeps_the_given_prime_order(capsys):
    code, report = run_json(capsys, "landweber", "--primes", "3,2",
                            "--height", "1", "--window", "-1:1")
    assert code == 0
    assert report["primes"] == [3, 2]
    assert sorted(report["verdicts"]) == ["2", "3"]


def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == f"cobalt {cli.__version__}\n"
    with pytest.raises(SystemExit) as err:
        main(["--ver"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("cobalt ")
    for flag in ("--help", "-h", "--he"):
        with pytest.raises(SystemExit) as err:
            main([flag])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(ORACLE_OPTIONS))
def test_command_help_names_every_option(capsys, command):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as err:
            main([command, flag])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cobalt {command} ")
        for option in ORACLE_OPTIONS[command]:
            assert re.search(rf"{option}[ \]]", out), (command, option)


def test_the_table_holds_the_options_of_the_old_parser():
    assert {command: sorted(key.split()[0] for key in table)
            for command, (_, _, table) in cli.COMMANDS.items()} == \
        {command: sorted(options)
         for command, options in ORACLE_OPTIONS.items()}


def test_importing_the_cli_leaves_argparse_unloaded():
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cobalt.cli; print('argparse' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_usage_errors_name_the_problem(capsys):
    for argv, words in [
            (["fgl", "--l", "additive"], ["--law or --landweber"]),
            (["grass", "--n", "4", "--d", "2", "--bogus"], ["--bogus"]),
            (["grass", "--n", "4"], ["missing --d"]),
            (["grass", "--n", "four", "--d", "2"], ["--n", "four"]),
            (["fgl", "--law=additive", "--landweber=2", "1"],
             ["--landweber takes 2"]),
            (["fgl", "--law", "additive", "--check=yes"], ["--check"]),
            (["grass", "--n", "4", "--d", "2", "--verify", "most"],
             ["--verify", "most"]),
            ([], ["choose a command"]),
            (["no-such-command"], ["no-such-command"])]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2, argv
        assert captured.out == ""
        assert "cobalt: error: " in captured.err
        assert all(word in captured.err for word in words), (argv,
                                                            captured.err)


def test_value_may_start_with_a_dash_after_any_spelling(capsys):
    for spelling in (["--window", "-3:3"], ["--win", "-3:3"],
                     ["--window=-3:3"], ["--window", "0:1", "--wi", "-3:3"]):
        code, report = run_json(capsys, "landweber", "--primes", "2",
                                "--height", "1", *spelling)
        assert code == 0
        assert report["window"] == [-3, 3]


@st.composite
def argvs(draw):
    """An argv for one command, the indices of its separate values, and
    the values it gives --budget."""
    command = draw(st.sampled_from(sorted(ORACLE_OPTIONS)))
    argv = [command]
    if draw(st.booleans()):
        argv += REQUIRED_VALUES.get(command, [])
    values, budgets = [], []
    for _ in range(draw(st.integers(0, 5))):
        option = draw(st.sampled_from(ORACLE_OPTIONS[command] + ["--bogus"]))
        arity = 0 if option in FLAGS or (command, option) in FLAGS else \
            2 if option == "--landweber" else 1
        given = [draw(VALUES) for _ in range(arity)]
        if option == "--budget":
            budgets += given
        spelling = draw(st.sampled_from(["full", "prefix", "equals"]))
        if spelling == "prefix" and option != "--bogus":
            option = option[:draw(st.integers(3, len(option)))]
        if spelling == "equals" and draw(st.booleans()):
            argv.append(f"{option}={given[0] if given else 'x'}")
            continue
        values += range(len(argv) + 1, len(argv) + 1 + len(given))
        argv += [option, *given]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(VALUES))
    return argv, values, budgets


def _outcome(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parse_args_matches_the_argparse_oracle(drawn):
    argv, values, budgets = drawn
    old = _outcome(argparse_oracle.parse_args, argv)
    new = _outcome(cli.parse_args, argv)
    if old == new:
        return
    # argparse takes a "--" anywhere for its end-of-options marker and
    # drops it, even from --opt=--
    dashes = any(token == "--" or token.endswith("=--") for token in argv)
    if isinstance(old, dict) and old["command"] == "verify-all":
        # the table refuses a budget that is not a finite number > 0,
        # also one that a later --budget overrides, and an option value
        # that argparse read past a "--"
        assert new == 2, (argv, old)
        assert dashes or any(not 0 < float(b) < math.inf for b in budgets), \
            argv
        return
    if dashes:
        return
    # argparse refuses a value that starts with "-" as an option, unless
    # the old --window join rescued it; the table takes it (and goes on to
    # accept, or to print a later -h's help)
    joined = argparse_oracle.join_window(argv) != argv
    rescued = argv.index("--window") + 1 if joined else None
    assert old == 2, (argv, old, new)
    assert any(_argparse_reads_as_option(argv[i])
               for i in values if i != rescued), (argv, new)
