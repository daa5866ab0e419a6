import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiberprod import cli, fiber, oracle, series as se


def write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def corpus_path(tmp_path, sid):
    return write_scenario(tmp_path, cli.load_corpus_scenario(sid))


def test_examples_lists_corpus(capsys):
    assert cli.run(["examples"]) == 0
    out = capsys.readouterr().out
    for sid in ("ex-paper-4x", "lescot-xy", "amalg-dup-x", "ci-xy-z2",
                "lescot-mod-y", "paper-4x-mod-x"):
        assert sid in out


def test_verify_lescot(tmp_path, capsys):
    code = cli.run(["verify", "--scenario", corpus_path(tmp_path, "lescot-xy"), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    result = doc["result"]
    assert result["relation"] == "equal"
    assert result["formula_series"] == ["1"] + ["2"] * 10


def test_verify_report_round_trips(tmp_path, capsys):
    code = cli.run(["verify", "--scenario", corpus_path(tmp_path, "ex-paper-4x"), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    a = cli.TruncatedSeries.from_json(result["formula_series"])
    b = cli.TruncatedSeries.from_json(result["oracle_series"])
    relation, first = se.relation(a, b)
    assert relation == result["relation"]
    assert first == result["first_divergence"]


def test_false_largeness_is_an_internal_inconsistency(tmp_path):
    doc = cli.load_corpus_scenario("ex-paper-4x")
    doc["payload"]["is_large"] = True
    assert cli.run(["verify", "--scenario", write_scenario(tmp_path, doc)]) == 3


def test_verify_resolves_M_over_the_product_for_any_K(tmp_path, capsys):
    # M = R/KR = P/(I + K); over the product P/(I cap J) that is P/(x, y) = k
    # here, not P/(xy, y), whose series 1 1 1 ... broke the large equality
    payload = {"vars": ["x", "y"], "I": ["x"], "J": ["y"], "module": ["y"],
               "is_large": True, "order": 4}
    code = cli.run(["verify", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["relation"] == "equal"
    assert result["oracle_series"] == ["1", "2", "2", "2", "2"]
    # M = P/(x, y^2) over P/(xy^2): the bound holds and is not attained
    payload = {"vars": ["x", "y"], "I": ["y^2"], "J": ["x^2", "x*y"], "module": ["x"],
               "order": 4}
    report = cli.run_verify(payload)
    assert report.formula_series.coeffs == (1, 2, 4, 11, 29)
    assert report.oracle_series.coeffs == (1, 2, 2, 2, 2)
    assert report.relation == "formula-dominates"


def test_depth_scenario(tmp_path, capsys):
    payload = {
        "R": {"dim": 1, "depth": 1, "edim": 2},
        "S": {"dim": 1, "depth": 1, "edim": 2},
        "T": {"dim": 0, "depth": 0, "edim": 1},
        "grade_mR": 1,
        "grade_mS": 1,
        "grade_mT": 0,
    }
    code = cli.run(["depth", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"kind": "Exact", "value": 1, "rule": "Thm-4(i)"}


def test_depth_validation_error_names_the_field(tmp_path, capsys):
    payload = {
        "R": {"dim": 1, "depth": 0, "edim": 2},
        "S": {"dim": 1, "depth": 1, "edim": 2},
        "T": {"dim": 0, "depth": 0, "edim": 1},
        "grade_mR": 1,
        "grade_mS": 1,
        "grade_mT": 0,
    }
    code = cli.run(["depth", "--scenario", write_scenario(tmp_path, payload)])
    assert code == 1
    assert "grade_mR" in capsys.readouterr().err


def test_schema_rejects_unknown_fields(tmp_path):
    payload = {"num": ["1"], "den": ["1"], "bogus": 1}
    assert cli.run(["series", "--scenario", write_scenario(tmp_path, payload)]) == 1


def test_series_scenario(tmp_path, capsys):
    payload = {"num": ["1", "2", "1"], "den": ["1", "0", "-1"], "order": 5}
    code = cli.run(["series", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["series"] == ["1", "2", "2", "2", "2", "2"]


def test_betti_scenario(tmp_path, capsys):
    payload = {
        "beta_M_over_R": ["1", "2", "2"],
        "beta_T_over_R": ["1", "2", "0"],
        "beta_T_over_S": ["1", "1", "1"],
        "n": 2,
    }
    code = cli.run(["betti", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["bound"] == ["1", "3", "7"]


def test_betti_scenario_with_vanishing_beta1(tmp_path, capsys):
    beta_m = [1, 2, 3, 1, 0]
    beta_r = [1, 0, 2, 1, 4]
    beta_s = [1, 3, 0, 2, 1]
    n = 4
    payload = {
        "beta_M_over_R": [str(v) for v in beta_m],
        "beta_T_over_R": [str(v) for v in beta_r],
        "beta_T_over_S": [str(v) for v in beta_s],
        "n": n,
    }
    code = cli.run(["betti", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["label"] == "lower bound"
    bound = se.TruncatedSeries.from_json(result["bound"])

    def conv(x, y):
        return [sum(x[j] * y[i - j] for j in range(i + 1)) for i in range(n + 1)]

    rs = conv(beta_r, beta_s)
    b = [beta_r[i] + beta_s[i] - rs[i] for i in range(n + 1)]
    assert conv(bound, b) == conv(beta_m, beta_s)


def test_classify_scenario(tmp_path, capsys):
    payload = {
        "data": {
            "R": {"dim": 1, "depth": 1, "edim": 2, "is_cohen_macaulay": True},
            "S": {"dim": 1, "depth": 1, "edim": 2, "is_cohen_macaulay": True},
            "T": {"dim": 0, "depth": 0, "edim": 1},
            "grade_mR": 1,
            "grade_mS": 1,
            "grade_mT": 0,
        }
    }
    code = cli.run(["classify", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["regular"]["value"] is False
    assert result["cohen_macaulay"]["value"] is True


def test_resolve_scenario(tmp_path, capsys):
    payload = {"vars": ["x", "y"], "ideal": ["x*y"], "module": ["x", "y"],
               "max_hom": 4}
    code = cli.run(["resolve", "--scenario", write_scenario(tmp_path, payload), "--json"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["total"] == ["1", "2", "2", "2", "2"]


def test_resolve_budget_exit_code(tmp_path, capsys):
    # k over k[x,y]/(xy^2): t_6 = 9 exceeds the budget of 6
    payload = {"vars": ["x", "y"], "ideal": ["x*y^2"], "module": ["x", "y"],
               "max_hom": 6}
    code = cli.run(["resolve", "--scenario", write_scenario(tmp_path, payload),
                    "--max-internal", "6"])
    assert code == 2


def test_corpus_scenarios_validate_and_run(tmp_path, capsys):
    for sid in cli.corpus_ids():
        doc = cli.load_corpus_scenario(sid)
        cli.validate_payload(doc["kind"], doc["payload"])
        code = cli.run([doc["kind"], "--scenario", write_scenario(tmp_path, doc), "--json"])
        assert code == 0, sid
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == doc["kind"]


def test_betti_and_verify_evaluate_one_bound_on_the_corpus():
    # `betti` inverts b = r + s - r*s on Betti sequences and `verify` divides
    # series; fed the oracle's three input series, both give one sequence
    for sid in cli.corpus_ids():
        payload = cli.load_corpus_scenario(sid)["payload"]
        n = len(payload["vars"])
        I, J, module = (oracle.ideal_from_json(payload[key], payload["vars"])
                        for key in ("I", "J", "module"))
        _, total = oracle.fiber_presentation(I, J)

        def betti(base, extra):
            pres = oracle.QuotientPresentation(
                n, payload["char"], base, oracle.MonomialIdeal(n, base.generators | extra.generators)
            )
            return fiber.BettiSequence(oracle.poincare_truncation(pres, payload["order"]).coeffs)

        bound = fiber.betti_bound(betti(I, module), betti(I, total), betti(J, total),
                                  payload["order"])
        assert bound.values == cli.run_verify(payload).formula_series.coeffs, sid


def test_closed_stdout_ends_quietly_with_the_run_exit_code(tmp_path):
    # the reader closes the pipe (`| head`) before the report is written: no
    # traceback, nothing more on stderr, and the exit code the run would have
    resolve = tmp_path / "resolve.json"
    resolve.write_text(json.dumps({"vars": ["x", "y"], "ideal": ["x*y^2"],
                                   "module": ["x", "y"], "max_hom": 6}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv, code, err in (
        (["verify", "--scenario", corpus_path(tmp_path, "lescot-xy"), "--order", "40",
          "--json"], 0, ""),
        (["resolve", "--scenario", str(resolve), "--max-internal", "6"], 2,
         "warning: table incomplete within the internal-degree budget\n"),
    ):
        proc = subprocess.Popen([sys.executable, "-m", "fiberprod.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (code, err), argv
        proc.stderr.close()


def test_exit_codes_are_distinct():
    assert len({cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_BUDGET,
                cli.EXIT_INCONSISTENT}) == 4


def test_malformed_scenario_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"vars": ["x", "y"], "module": ["x"')
    assert cli.run(["resolve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err
    for unreadable in (tmp_path / "missing.json", tmp_path):
        assert cli.run(["resolve", "--scenario", str(unreadable)]) == 1
        assert capsys.readouterr().err.startswith("validation error:")


def test_duplicate_variables_rejected(tmp_path, capsys):
    payload = {"vars": ["x", "x"], "ideal": ["x^2"], "module": ["x"], "max_hom": 2}
    assert cli.run(["resolve", "--scenario", write_scenario(tmp_path, payload)]) == 1
    assert "scenario field vars" in capsys.readouterr().err
    doc = cli.load_corpus_scenario("lescot-xy")
    doc["payload"]["vars"] = ["x", "x"]
    assert cli.run(["verify", "--scenario", write_scenario(tmp_path, doc)]) == 1


def test_huge_characteristic_rejected_by_schema(tmp_path, capsys):
    payload = {"vars": ["x", "y"], "ideal": ["x*y"], "module": ["x", "y"],
               "max_hom": 2, "char": 10**18 + 3}
    assert cli.run(["resolve", "--scenario", write_scenario(tmp_path, payload)]) == 1
    assert "scenario field char" in capsys.readouterr().err


def test_huge_characteristic_rejected_on_the_command_line(tmp_path, capsys):
    payload = {"vars": ["x", "y"], "ideal": ["x*y"], "module": ["x", "y"], "max_hom": 2}
    path = write_scenario(tmp_path, payload)
    assert cli.run(["resolve", "--scenario", path, "--char", str(10**18 + 3)]) == 1
    assert "characteristic" in capsys.readouterr().err
    # the largest admitted prime still runs
    assert cli.run(["resolve", "--scenario", path, "--char", str(2**31 - 1)]) == 0


def test_zero_characteristic_is_a_validation_error(tmp_path, capsys):
    payload = {"vars": ["x", "y"], "ideal": ["x*y"], "module": ["x", "y"], "max_hom": 2}
    path = write_scenario(tmp_path, payload)
    assert cli.run(["resolve", "--scenario", path, "--char", "0"]) == 1
    assert capsys.readouterr().err.startswith("validation error:")
    path = corpus_path(tmp_path, "lescot-xy")
    assert cli.run(["verify", "--scenario", path, "--char", "0"]) == 1
    assert capsys.readouterr().err.startswith("validation error:")


def test_verify_order_zero_is_a_validation_error(tmp_path, capsys):
    path = corpus_path(tmp_path, "lescot-xy")
    assert cli.run(["verify", "--scenario", path, "--order", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "order" in err and "trivial" not in err


def test_usage_errors_exit_1(tmp_path, capsys):
    path = corpus_path(tmp_path, "lescot-xy")
    # a valid scenario of each kind, so that only the flag can fail
    structure_data = {"R": {"dim": 1, "depth": 1, "edim": 2},
                      "S": {"dim": 1, "depth": 1, "edim": 2},
                      "T": {"dim": 0, "depth": 0, "edim": 1},
                      "grade_mR": 1, "grade_mS": 1, "grade_mT": 0}
    valid = {
        "series": {"num": ["1"], "den": ["1", "-1"]},
        "betti": {"beta_M_over_R": ["1", "2"], "beta_T_over_R": ["1", "2"],
                  "beta_T_over_S": ["1", "1"], "n": 1},
        "depth": structure_data,
        "classify": {"data": structure_data},
    }
    scenario = {}
    for kind, payload in valid.items():
        scenario[kind] = tmp_path / f"{kind}.json"
        scenario[kind].write_text(json.dumps({"kind": kind, "payload": payload}))
        assert cli.run([kind, "--scenario", str(scenario[kind])]) == 0, kind
    capsys.readouterr()
    for argv in (
        ["verify"],
        ["verify", "--scenario", path, "--order", "x"],
        ["verify", "--scenario", path, "--bogus"],
        ["verify", "--scenario", path, "--threads", "2"],
        # --order is read only by series, resolve and verify, and --max-internal
        # only by resolve and verify
        *([kind, "--scenario", str(scenario[kind]), "--order", "4"]
          for kind in ("betti", "depth", "classify")),
        *([kind, "--scenario", str(scenario[kind]), "--max-internal", "6"]
          for kind in ("series", "betti", "depth", "classify")),
        ["examples", "--order", "4"],
        ["examples", "--max-internal", "6"],
        # --char is registered only on resolve, verify, depth and classify
        *([kind, "--scenario", str(scenario[kind]), "--char", "3"]
          for kind in ("series", "betti")),
        ["examples", "--char", "3"],
    ):
        assert cli.run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("validation error:"), argv


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


# Python's limit on int <-> str conversion: absent from interpreters that
# predate it (3.11, 3.10.7 and the other security releases), 0 when off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit")


def _run_quietly(capsys, argv, code, prefix):
    assert cli.run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err
    return err


@needs_digit_limit
def test_series_input_past_the_digit_limit_is_a_validation_error(tmp_path, capsys):
    payload = {"num": ["1", "1" * (DIGIT_LIMIT + 1)], "den": ["1"]}
    err = _run_quietly(capsys, ["series", "--scenario", write_scenario(tmp_path, payload)],
                       1, "validation error:")
    assert "num/1" in err


@needs_digit_limit
def test_series_result_past_the_digit_limit_is_a_budget_exit(tmp_path, capsys):
    # 1/(1 - 10t): the coefficient of t^limit is 10^limit, one digit too many
    path = write_scenario(tmp_path, {"num": ["1"], "den": ["1", "-10"]})
    for flag in ([], ["--json"]):
        err = _run_quietly(capsys, ["series", "--scenario", path, "--order",
                                    str(DIGIT_LIMIT + 1), *flag], 2, "budget exceeded:")
        assert f"coefficient {DIGIT_LIMIT} " in err


@needs_digit_limit
def test_betti_input_past_the_digit_limit_is_a_validation_error(tmp_path, capsys):
    payload = {"beta_M_over_R": ["1"], "beta_T_over_R": ["1", "2"],
               "beta_T_over_S": ["1", "9" * (DIGIT_LIMIT + 1)], "n": 0}
    err = _run_quietly(capsys, ["betti", "--scenario", write_scenario(tmp_path, payload)],
                       1, "validation error:")
    assert "beta_T_over_S/1" in err


@needs_digit_limit
def test_betti_result_past_the_digit_limit_is_a_budget_exit(tmp_path, capsys):
    # D = 10^(limit - 1) prints; b = 1 - D t^2 and a = 1 + 2D t + D^2 t^2, so
    # the bound's coefficient 2 is D^2 + D, with 2 limit - 1 digits
    d = "1" + "0" * (DIGIT_LIMIT - 1)
    payload = {"beta_M_over_R": ["1", d, "0"], "beta_T_over_R": ["1", "1", "0"],
               "beta_T_over_S": ["1", d, "0"], "n": 2}
    path = write_scenario(tmp_path, payload)
    for flag in ([], ["--json"]):
        err = _run_quietly(capsys, ["betti", "--scenario", path, *flag], 2, "budget exceeded:")
        assert "coefficient 2 " in err
