import csv
import json
import math
import random

import pytest

from rankguard import (
    Alternative, Decision, DegenerateDataError, Sample, Support, cli, robust_test_general,
    wmw_test,
)

from fixtures import write_eight_arm_fixture
from oracles import grid_completions, oracle_p, oracle_tie_variance
from rankguard.cli import EXIT_BAD_INPUT, EXIT_DEGENERATE, EXIT_OK


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestTestCommand:
    def test_complete_distinct_data_matches_classical_p(self, capsys):
        payload = run_json(
            capsys, "test", "--x", "1,3,9,11", "--y", "2,4,6,8"
        )
        _, p = wmw_test([1, 3, 9, 11], [2, 4, 6, 8])
        assert payload["p_min"] == pytest.approx(p)
        assert payload["p_max"] == pytest.approx(p)
        assert payload["variant"] == "general"

    def test_worked_example_bounds_in_payload(self, capsys):
        payload = run_json(
            capsys,
            "test",
            "--x", "1,2,3,2,2,1,1",
            "--y", "3,3,3,3,3,3",
            "--m-total", "7",
            "--support", "1,4",
        )
        assert payload["w_min"] == 3.0
        assert payload["w_max"] == 8.5
        assert payload["variant"] == "general"

    def test_tie_across_the_sides_selects_the_general_variant(self, capsys):
        # the only tie pairs an x value with a y value
        payload = run_json(capsys, "test", "--x", "1,2", "--y", "2,3")
        assert payload["variant"] == "general"
        assert payload["sigma2_max"] == float(oracle_tie_variance(2, 2, [1.0, 2.0, 2.0, 3.0]))

    def test_thirty_percent_missing_is_flagged_infeasible(self, capsys):
        x = ",".join(str(v) for v in range(70))
        y = ",".join(str(v + 0.5) for v in range(70))
        payload = run_json(
            capsys, "test", "--x", x, "--y", y,
            "--n-total", "100", "--m-total", "100",
        )
        assert payload["decision"] != "significant"
        assert payload["p_max"] == 1.0
        assert payload["feasible"] is False
        assert payload["feasibility"]["threshold"] >= 0.5

    def test_one_sided_screen_follows_the_alternative(self, capsys):
        # 76 of 100 observed a side: 0.5776 clears the one-sided threshold
        # (z_{1-alpha}) but not the two-sided one (z_{1-alpha/2})
        argv = ("test", "--x", ",".join(map(str, range(100, 176))),
                "--y", ",".join(map(str, range(76))), "--n-total", "100", "--m-total", "100")
        greater = run_json(capsys, *argv, "--alternative", "greater")
        assert greater["decision"] == "significant"
        assert greater["feasible"] is True
        assert greater["feasibility"]["threshold"] == pytest.approx(0.5673, abs=1e-4)
        assert run_json(capsys, *argv)["feasible"] is False

    def test_values_and_support_starting_with_minus_attach_with_equals(self, capsys):
        payload = run_json(capsys, "test", "--x=-1.5,2", "--y=-3,4,5", "--support=-4,6")
        assert (payload["n"], payload["m"], payload["variant"]) == (2, 3, "general")
        assert run_json(capsys, "test", "--x=-1.5,2", "--y", "3,4")["n"] == 2

    def test_both_sides_are_required(self, capsys):
        for argv in (("--x", "1,2"), ("--y", "1,2")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["test", *argv])
            assert exc.value.code == EXIT_BAD_INPUT
            assert "required" in capsys.readouterr().err

    def test_alpha_near_zero_gives_a_finite_threshold(self, capsys):
        payload = run_json(capsys, "test", "--x", "1,2,3", "--y", "4,5,6", "--alpha", "1e-300")
        assert math.isfinite(payload["feasibility"]["threshold"]) and payload["feasible"] is False
        assert payload["decision"] == "not_significant"

    def test_two_sided_alpha_whose_half_underflows_exits_2(self, capsys):
        argv = ("test", "--x", "1,2,3", "--y", "4,5,6", "--alpha", "5e-324")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "alpha 5e-324" in err and "1e-323" in err
        # the one-sided screen needs no half, and the smallest supported alpha runs
        assert run_json(capsys, *argv, "--alternative", "greater")["feasible"] is False
        assert run_json(capsys, *argv[:-1], "1e-323")["decision"] == "not_significant"

    def test_malformed_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "test", "--x", "1,banana", "--y", "2")
        assert code == EXIT_BAD_INPUT and "--x" in err

    def test_total_below_observed_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "test", "--x", "1,2,3", "--y", "4", "--n-total", "2")
        assert code == EXIT_BAD_INPUT and "n-total" in err

    def test_degenerate_data_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "test", "--x", "2,2", "--y", "2")
        assert code == EXIT_DEGENERATE
        assert "single" in err.lower() or "tied" in err.lower()

    def test_tied_observed_values_select_the_general_variant(self, capsys):
        # the distinct variant called this not_significant (p_min 0.0538), yet
        # one completion rejects
        assert wmw_test([1, 2, 1, 0, 1, 2, 1], [1, 0, 0, 0, 1, -1])[1] < 0.05
        argv = ("test", "--x", "1,2,1,0,1,2,1", "--y", "1,0,0,0,1", "--m-total", "6")
        assert run_json(capsys, *argv)["decision"] == "inconclusive_data_dependent"

    def test_whole_line_support_runs_the_general_variant_on_untied_data(self, capsys):
        argv = ("test", "--x", "1,3,9,11", "--y", "2,4,6,8", "--n-total", "5")
        whole_line = run_json(capsys, *argv, "--support", ",")
        assert whole_line["variant"] == "general"
        # a missing value may tie with an observed one: sigma2_min is below nm(n+m+1)/12
        assert whole_line["sigma2_min"] < whole_line["sigma2_max"] == 5 * 4 * 10 / 12
        assert run_json(capsys, *argv) == whole_line

    def test_removed_variant_spellings_exit_2(self, capsys):
        argv = ("test", "--x", "1,3", "--y", "2,4")
        code, out, err = run_cli(capsys, *argv, "--support", "none")
        assert (code, out) == (EXIT_BAD_INPUT, "") and "support" in err
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--ties", "on"])
        assert exc.value.code == EXIT_BAD_INPUT and "--ties" in capsys.readouterr().err

    def test_malformed_support_exits_2_naming_it(self, capsys):
        for support in ("abc,", "1", "1,2,3", "0,inf", ",nan", "3,1"):
            code, out, err = run_cli(capsys, "test", "--x", "1,3", "--y", "2,4",
                                     "--support", support)
            assert (code, out) == (EXIT_BAD_INPUT, "") and "support" in err, (support, err)

    def test_report_round_trip(self, capsys):
        payload = run_json(
            capsys, "test", "--x", "1,2,3", "--y", "4,5,6", "--n-total", "4"
        )
        x = Sample((1.0, 2.0, 3.0), 1)
        y = Sample((4.0, 5.0, 6.0))
        report = robust_test_general(x, y, Support()).to_dict()
        for key, value in report.items():
            assert payload[key] == value


def _small_instances():
    """(x', y', missing x, missing y, alternative, alpha) for the comparison
    without --support: n', m' <= 3 and up to 2 missing a side, observed values
    drawn distinct from 0..9 or with repeats from 0..2, every alternative and
    alpha in {0.05, 0.3, 0.7, 0.9}. First the untied case x' = (18), y' = (14)
    with one y missing: the completion y = (14, 14) does not reject at 0.9."""
    yield [18.0], [14.0], 0, 1, Alternative.X_LESS, 0.9
    rng = random.Random(26)
    for alternative in Alternative:
        for alpha in (0.05, 0.3, 0.7, 0.9):
            for tied in (False, True) * 16:
                n1, m1 = rng.randint(1, 3), rng.randint(1, 3)
                values = ([rng.randint(0, 2) for _ in range(n1 + m1)] if tied
                          else rng.sample(range(10), n1 + m1))
                yield ([float(v) for v in values[:n1]], [float(v) for v in values[n1:]],
                       rng.randint(0, 2), rng.randint(0, 2), alternative, alpha)


class TestCompareWithoutSupport:
    """Without --support, test and analyze cover every completion on the whole line."""

    def test_significant_means_every_completion_rejects(self):
        significant = 0
        for x_obs, y_obs, dx, dy, alternative, alpha in _small_instances():
            try:
                report, _ = cli._compare(Sample(x_obs, dx), Sample(y_obs, dy), None, alpha,
                                         alternative)
            except DegenerateDataError:
                continue
            if report.decision is not Decision.SIGNIFICANT:
                continue
            significant += 1
            # the observed values, the midpoints between them and one beyond each end
            ends = sorted(set(x_obs + y_obs))
            grid = [ends[0] - 1, *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:])),
                    ends[-1] + 1]
            for cx, cy in grid_completions(x_obs, y_obs, dx, dy, grid):
                if len(set(cx + cy)) > 1:  # a fully tied completion has no p-value
                    p = oracle_p(cx, cy, alternative)
                    assert p < alpha, (x_obs, y_obs, dx, dy, alternative, alpha, cx, cy, p)
        assert significant >= 40

    def test_no_support_prints_what_the_whole_line_prints(self, capsys):
        names = {Alternative.TWO_SIDED: "two-sided", Alternative.X_GREATER: "greater",
                 Alternative.X_LESS: "less"}
        for x_obs, y_obs, dx, dy, alternative, alpha in _small_instances():
            argv = ("test", f"--x={','.join(map(repr, x_obs))}",
                    f"--y={','.join(map(repr, y_obs))}", "--n-total", str(len(x_obs) + dx),
                    "--m-total", str(len(y_obs) + dy), "--alternative", names[alternative],
                    "--alpha", repr(alpha))
            assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--support", ",")


class TestFeasibilityCommand:
    def test_reference_numbers(self, capsys):
        payload = run_json(
            capsys, "feasibility", "--n", "100", "--m", "100",
            "--n-obs", "80", "--m-obs", "80",
        )
        assert payload["threshold"] == pytest.approx(0.58, abs=0.005)
        assert payload["observed_pair_fraction"] == pytest.approx(0.64)
        assert payload["feasible"] is True

    def test_asymmetric_case(self, capsys):
        payload = run_json(
            capsys, "feasibility", "--n", "100", "--m", "100",
            "--n-obs", "80", "--m-obs", "70",
        )
        assert payload["observed_pair_fraction"] == pytest.approx(0.56)
        assert payload["feasible"] is False

    def test_one_sided_threshold_follows_the_alternative(self, capsys):
        args = ("feasibility", "--n", "100", "--m", "100", "--n-obs", "76", "--m-obs", "76")
        default = run_json(capsys, *args)
        assert run_json(capsys, *args, "--alternative", "two-sided") == default
        assert round(default["threshold"], 4) == 0.5802 and default["feasible"] is False
        greater = run_json(capsys, *args, "--alternative", "greater")
        assert round(greater["threshold"], 4) == 0.5673 and greater["feasible"] is True
        assert run_json(capsys, *args, "--alternative", "less") == greater

    def test_no_missing_is_feasible(self, capsys):
        payload = run_json(
            capsys, "feasibility", "--n", "100", "--m", "100",
            "--n-obs", "100", "--m-obs", "100",
        )
        assert payload["feasible"] is True


class TestPowerCommand:
    def test_reference_power(self, capsys):
        payload = run_json(
            capsys, "power", "--dist-x", "normal(0,1)", "--dist-y", "normal(1,1)",
            "--n", "100", "--m", "100", "--s", "0.1",
        )
        assert payload["power"] == pytest.approx(0.89, abs=0.01)

    def test_null_power_is_alpha(self, capsys):
        payload = run_json(
            capsys, "power", "--dist-x", "normal(0,1)", "--dist-y", "normal(0,1)",
            "--n", "100", "--m", "100", "--s", "0",
        )
        assert payload["power"] == pytest.approx(0.05, abs=0.01)

    def test_limit_classification(self, capsys):
        payload = run_json(
            capsys, "power", "--dist-x", "normal(0,1)", "--dist-y", "normal(0,1)",
            "--n", "100", "--m", "100", "--s", "0.5", "--limit",
        )
        assert payload["classification"] == "power_to_zero"

    def test_alpha_whose_half_underflows_exits_2(self, capsys):
        argv = ("power", "--dist-x", "normal(0,1)", "--dist-y", "normal(1,1)", "--alpha")
        code, out, err = run_cli(capsys, *argv, "5e-324")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "alpha 5e-324" in err and "1e-323" in err
        assert 0.0 <= run_json(capsys, *argv, "1e-323")["power"] <= 1.0

    def test_bad_distribution_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "power", "--dist-x", "cauchy(0)", "--dist-y", "normal(0,1)"
        )
        assert code == EXIT_BAD_INPUT and "normal" in err


SCENARIO = """
# smoke scenario
dist_x = normal(0,1)
dist_y = normal(1,1)
n = 25
m = 25
mechanism = mcar
s = 0.1
methods = proposed,ignore,oracle
alpha = 0.05
trials = 1
seed = 3
"""


class TestSimulateCommand:
    def test_single_trial_smoke(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO)
        out = tmp_path / "out.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--scenario", str(scenario), "--out", str(out),
            "--workers", "1",
        )
        assert code == EXIT_OK and "3 rows" in stdout
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["method"] for row in rows] == ["proposed", "ignore", "oracle"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("trials = 1", "trials = 24"))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out1))
        run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_explicit_unbounded_support_differs_from_auto(self, capsys, tmp_path):
        # Poisson data: auto-derived support is bounded below at 0, which
        # buys power for proposed_ties; "support = ," switches it off
        base = (
            "dist_x = poisson(1)\ndist_y = poisson(3)\nn = 60\nm = 60\n"
            "mechanism = mcar\ns = 0.15\nmethods = proposed_ties\n"
            "trials = 80\nseed = 2\n"
        )
        rates = {}
        for label, extra in (("auto", ""), ("unbounded", "support = ,\n")):
            scenario = tmp_path / f"{label}.txt"
            scenario.write_text(base + extra)
            out = tmp_path / f"{label}.csv"
            run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
            rates[label] = float(out.read_text().splitlines()[1].split(",")[9])
        assert rates["auto"] >= rates["unbounded"]
        assert rates["auto"] > 0.0

    def test_scenario_support_must_hold_what_the_distributions_draw(
        self, capsys, tmp_path, monkeypatch
    ):
        scenario = tmp_path / "scenario.txt"
        out = tmp_path / "o.csv"
        base = ("dist_x = poisson(2)\ndist_y = poisson(2)\nn = 20\nmechanism = mcar\n"
                "s = 0.1\nmethods = proposed,proposed_ties,ignore\ntrials = 4\n")
        for support in (",", "-1,", "0,"):
            scenario.write_text(f"{base}support = {support}\n")
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                   "--out", str(out), "--workers", "1")
            assert code == EXIT_OK, (support, err)
        out.unlink()

        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rankguard.simulate._run_block", no_trials)
        # Poisson draws every nonnegative integer; "none" is no support
        for support in (",3", "0.5,", "none", ",nan", "inf,"):
            scenario.write_text(f"{base}support = {support}\n")
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                   "--out", str(out))
            assert code == EXIT_BAD_INPUT and "support" in err, (support, err)
            assert not out.exists()

    def test_trials_with_no_observed_value_are_tallied(self, capsys, tmp_path):
        # MCAR at s = 0.6 deletes the only value on both sides of every trial
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("dist_x = normal(0,1)\ndist_y = normal(0,1)\nn = 1\n"
                            "mechanism = mcar\ns = 0.6\nmethods = proposed,proposed_ties,ignore\n"
                            "trials = 5\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                               "--out", str(out), "--workers", "1")
        assert code == EXIT_OK, err
        rows = {row["method"]: (row["reject_rate"], row["degenerate"])
                for row in csv.DictReader(out.read_text().splitlines())}
        assert rows == {"proposed": ("0.0", "0"), "proposed_ties": ("0.0", "0"),
                        "ignore": ("0.0", "5")}

    def test_unknown_method_exits_2_listing_options(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("proposed,ignore,oracle", "wavelets"))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o.csv")
        )
        assert code == EXIT_BAD_INPUT and "proposed_ties" in err

    def test_alpha_zero_exits_2_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rankguard.simulate._run_block", no_trials)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("alpha = 0.05", "alpha = 0"))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
        assert code == EXIT_BAD_INPUT and "alpha" in err
        assert not out.exists()

    def test_a_non_finite_distribution_parameter_exits_2_before_any_trial(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rankguard.simulate._run_block", no_trials)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("dist_x = normal(0,1)", "dist_x = normal(0,nan)"))
        out = tmp_path / "o.csv"
        code, out_text, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                      "--out", str(out))
        assert (code, out_text) == (EXIT_BAD_INPUT, "") and "normal(0,nan)" in err, err
        assert not out.exists()

    def test_zero_workers_exits_2(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO)
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(scenario), "--out", str(out), "--workers", "0"
        )
        assert code == EXIT_BAD_INPUT and "workers" in err
        assert not out.exists()

    def test_mechanism_none_exits_2_listing_the_mechanisms(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        for line in ("mechanism = none", "mechanism_x = none\nmechanism_y = mcar"):
            scenario = tmp_path / "scenario.txt"
            scenario.write_text(SCENARIO.replace("mechanism = mcar", line))
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                   "--out", str(out))
            assert code == EXIT_BAD_INPUT and "'none'" in err and "mcar, mnar_positive" in err, err
            assert not out.exists()

    def test_an_s_list_without_a_mechanism_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("rankguard.simulate._run_block", no_trials)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("mechanism = mcar\n", "")
                            .replace("s = 0.1", "s = 0.1,0.2"))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
        assert code == EXIT_BAD_INPUT and "an s list" in err, err
        assert not out.exists()

    def test_a_side_without_a_mechanism_keeps_every_value(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO.replace("mechanism = mcar", "mechanism_x = mcar"))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {(row["mechanism"], row["s"]) for row in rows} == {("x:mcar;y:none", "0.1")}
        # no s key and no mechanism: nothing is deleted, and the row says so
        scenario.write_text(SCENARIO.replace("mechanism = mcar\n", "").replace("s = 0.1\n", ""))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
        assert code == EXIT_OK, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {(row["mechanism"], row["s"]) for row in rows} == {("none", "0")}

    @pytest.mark.parametrize("key, line", [
        ("n", "n = abc"), ("n", "n = 25,x"), ("m", "m = 2.5"), ("s", "s = 0.1,ten"),
        ("alpha", "alpha = 5%"), ("alpha", "alpha = 0.05,0.1"), ("trials", "trials = many"),
        ("seed", "seed = 3.5"),
    ])
    def test_a_scenario_number_that_does_not_parse_names_its_key(
        self, capsys, tmp_path, key, line
    ):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO + line + "\n")
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
        assert code == EXIT_BAD_INPUT and f"scenario key {key!r}" in err, err
        assert not out.exists()

    def test_seed_precedence(self, capsys, tmp_path):
        # --seed, else the scenario file's seed, else 0
        def csv_bytes(seed_line, *flags):
            scenario = tmp_path / "scenario.txt"
            scenario.write_text(SCENARIO.replace("trials = 1", "trials = 16")
                                .replace("normal(1,1)", "normal(0.5,1)")
                                .replace("seed = 3\n", seed_line))
            out = tmp_path / "out.csv"
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario), *flags,
                                   "--workers", "1", "--out", str(out))
            assert code == EXIT_OK, err
            return out.read_bytes()

        from_file = csv_bytes("seed = 3\n")
        assert csv_bytes("", "--seed", "3") == from_file
        overridden = csv_bytes("seed = 3\n", "--seed", "99")
        assert overridden == csv_bytes("seed = 99\n") != from_file
        assert csv_bytes("") == csv_bytes("", "--seed", "0") != from_file


class TestAnalyzeCommand:
    def test_two_groups_consistent_with_test_command(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        lines = ["group,value"]
        lines += [f"a,{v}" for v in (1.0, 2.5, 4.0, 7.5)]
        lines += [f"b,{v}" for v in (2.0, 3.5, 5.0, 6.5)]
        data.write_text("\n".join(lines) + "\n")
        payload = run_json(capsys, "analyze", "--data", str(data), "--control", "a")
        direct = run_json(
            capsys, "test", "--x", "1,2.5,4,7.5", "--y", "2,3.5,5,6.5"
        )
        comparison = payload["comparisons"][0]
        assert comparison.pop("group") == "b"
        assert comparison.pop("feasible") is direct["feasible"]
        # every report key, in the same order, with the same value
        del direct["feasibility"], direct["feasible"]
        assert list(comparison.items()) == list(direct.items())

    def test_eight_arm_fixture(self, capsys, tmp_path):
        data = tmp_path / "arms.csv"
        write_eight_arm_fixture(data)
        payload = run_json(
            capsys, "analyze", "--data", str(data), "--control", "placebo",
            "--alternative", "greater", "--holm",
        )
        assert len(payload["comparisons"]) == 7
        for entry in payload["comparisons"]:
            assert entry["p_max_holm"] >= entry["p_max"] - 1e-15
            assert entry["n_observed_x"] == 90
            assert 0.0 <= entry["p_min"] <= entry["p_max"] <= 1.0

    def test_one_sided_screen_follows_the_alternative(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        lines = ["group,value"]
        lines += [f"a,{v}" for v in range(76)] + ["a,NA"] * 24
        lines += [f"b,{v}" for v in range(100, 176)] + ["b,NA"] * 24
        data.write_text("\n".join(lines) + "\n")
        argv = ("analyze", "--data", str(data), "--control", "a")
        less = run_json(capsys, *argv, "--alternative", "less")["comparisons"][0]
        assert less["decision"] == "significant" and less["feasible"] is True
        assert run_json(capsys, *argv)["comparisons"][0]["feasible"] is False

    def test_unknown_control_exits_2(self, capsys, tmp_path):
        data = tmp_path / "arms.csv"
        write_eight_arm_fixture(data)
        code, _, err = run_cli(capsys, "analyze", "--data", str(data), "--control", "zzz")
        assert code == EXIT_BAD_INPUT and "zzz" in err

    def test_all_missing_group_exits_3_naming_it(self, capsys, tmp_path):
        data = tmp_path / "arms.csv"
        write_eight_arm_fixture(data, all_na_group=True)
        code, _, err = run_cli(
            capsys, "analyze", "--data", str(data), "--control", "placebo"
        )
        assert code == EXIT_DEGENERATE and "d5" in err

    def test_errors_name_the_group_and_the_control(self, capsys, tmp_path):
        data = tmp_path / "groups.csv"
        argv = ("analyze", "--data", str(data), "--control", "a")
        cases = (
            ("a,1\na,2\nb,3\nb,9\nc,2\nc,NA", ("--support", "0,5"), EXIT_BAD_INPUT,
             "group 'b' vs control 'a': observed y value 9.0 lies outside the support"),
            ("a,1\na,2\nb,inf\nb,NA", (), EXIT_BAD_INPUT,
             "group 'b': observed contains a non-finite value: inf"),
            ("a,2\na,2\nb,2", (), EXIT_DEGENERATE,
             "group 'b' vs control 'a': pooled sample holds a single distinct value"),
            # an error that names its group already keeps its message
            ("a,1\nb,NA", (), EXIT_DEGENERATE, "group 'b' has no observed values"),
        )
        for rows, options, exit_code, message in cases:
            data.write_text(f"group,value\n{rows}\n")
            code, out, err = run_cli(capsys, *argv, *options)
            assert (code, out) == (exit_code, "") and err.startswith(f"error: {message}"), err

    def test_a_malformed_support_is_refused_once_naming_no_group(self, capsys, tmp_path):
        data = tmp_path / "groups.csv"
        data.write_text("group,value\na,1\na,2\nb,3\nb,4\nc,2\n")
        code, out, err = run_cli(capsys, "analyze", "--data", str(data), "--control", "a",
                                 "--support", "1")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "error: support: expected 'lo,hi' (either end may be empty), got '1'\n"

    def test_a_negative_support_attaches_with_equals(self, capsys, tmp_path):
        data = tmp_path / "groups.csv"
        data.write_text("group,value\na,-1.5\na,2\nb,-3\nb,4\nb,NA\n")
        payload = run_json(capsys, "analyze", "--data", str(data), "--control", "a",
                           "--support=-4,6")
        assert payload["comparisons"][0]["variant"] == "general"

    def test_alpha_near_zero_runs(self, capsys, tmp_path):
        data = tmp_path / "groups.csv"
        data.write_text("group,value\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        payload = run_json(capsys, "analyze", "--data", str(data), "--control", "a",
                           "--alpha", "1e-300")
        assert payload["alpha"] == 1e-300
        assert payload["comparisons"][0]["decision"] == "not_significant"

    def test_single_group_exits_2(self, capsys, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("group,value\na,1\na,2\n")
        code, _, err = run_cli(capsys, "analyze", "--data", str(data), "--control", "a")
        assert code == EXIT_BAD_INPUT
