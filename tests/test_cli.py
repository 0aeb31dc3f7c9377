"""End-to-end tests of the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from catalocc import experiments, search
from catalocc.catalysis import MAX_RESOLUTION
from catalocc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_state(tmp_path, name, coeffs):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "coeffs": list(coeffs)}))
    return str(path)


@pytest.fixture
def jp_files(tmp_path):
    return {
        "psi": write_state(tmp_path, "psi", (0.4, 0.4, 0.1, 0.1)),
        "phi": write_state(tmp_path, "phi", (0.5, 0.25, 0.25, 0.0)),
        "phi_shifted": write_state(tmp_path, "phi_shifted", (0.48, 0.27, 0.25, 0.0)),
        "chi": write_state(tmp_path, "chi", (0.6, 0.4)),
    }


def last_json(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def assert_input_error(result, fragment=""):
    """Bad input: exit 2 through ``sys.exit`` with an ``error: ...`` line on
    stderr, not an uncaught exception and its traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert fragment in result.stderr


def catalyze_with_chi(runner, files, target, mode):
    result = runner.invoke(
        main, ["catalyze", files["psi"], files[target], "--chi", files["chi"], "--mode", mode]
    )
    return result.exit_code, last_json(result.output)


class TestCheck:
    def test_jp_pair_blocked(self, runner, jp_files):
        result = runner.invoke(main, ["check", jp_files["psi"], jp_files["phi"]])
        assert result.exit_code == 1
        payload = last_json(result.output)
        assert payload["relation"] == "incomparable"
        assert payload["first_violation"] == 2
        assert payload["feasible"] is False
        assert payload["psi_partial_sums"][1] == pytest.approx(0.8)

    def test_identical_files_equivalent(self, runner, jp_files):
        result = runner.invoke(main, ["check", jp_files["psi"], jp_files["psi"]])
        assert result.exit_code == 0
        assert last_json(result.output)["relation"] == "equivalent"

    def test_malformed_file(self, runner, tmp_path):
        # not JSON, then JSON that is not an object
        bad = tmp_path / "bad.json"
        ok = write_state(tmp_path, "ok", (1.0,))
        for text, fragment in (("{not json", ""), ("[0.5, 0.5]", "expected a JSON object")):
            bad.write_text(text)
            result = runner.invoke(main, ["check", str(bad), ok])
            assert_input_error(result, fragment)
            assert len(result.stderr.splitlines()) == 1

    def test_unnormalized_file_names_problem(self, runner, tmp_path):
        bad = write_state(tmp_path, "bad", (0.5, 0.6))
        ok = write_state(tmp_path, "ok", (1.0,))
        result = runner.invoke(main, ["check", str(bad), ok])
        assert result.exit_code == 2
        assert "sum" in result.output

    def test_negative_entry_names_offender(self, runner, tmp_path):
        bad = write_state(tmp_path, "bad", (1.2, -0.2))
        ok = write_state(tmp_path, "ok", (1.0,))
        result = runner.invoke(main, ["check", str(bad), ok])
        assert result.exit_code == 2
        assert "coefficient 1" in result.output
        assert "-0.2" in result.output

    @pytest.mark.parametrize(
        "coeffs", ["[NaN, 0.6, 0.4]", "[Infinity, 0.0]", "[1e308, 1e308]", '"1"', "[true]"]
    )
    def test_non_finite_or_non_numeric_file_rejected(self, runner, tmp_path, coeffs):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"coeffs": {coeffs}}}')
        ok = write_state(tmp_path, "ok", (1.0,))
        result = runner.invoke(main, ["check", str(bad), ok])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_state_round_trip_is_exact(self, tmp_path):
        import numpy as np

        from catalocc import make_osc
        from oracles import random_osc

        rng = np.random.default_rng(97)
        for _ in range(50):
            v = random_osc(rng, int(rng.integers(1, 9)))
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"name": "s", "coeffs": list(v)}))
            back = make_osc(json.loads(path.read_text())["coeffs"])
            assert back.coeffs == v.coeffs  # repr round-trip, 17 significant digits


class TestCatalyze:
    def test_jp_standard_catalyst(self, runner, jp_files):
        code, payload = catalyze_with_chi(runner, jp_files, "phi", "standard")
        assert code == 0
        assert payload["mode"] == "standard"
        assert payload["feasible"] is True
        assert payload["catalyst"] == payload["residual"] == [0.6, 0.4]
        assert payload["classification"]["kind"] == "standard"
        # the same chi as a general catalyst is consumed completely
        code, payload = catalyze_with_chi(runner, jp_files, "phi", "general")
        assert code == 0
        assert payload["mode"] == "general"
        assert payload["feasible"] is True
        assert payload["catalyst"] == [0.6, 0.4]
        assert payload["residual"] == [1.0, 0.0]
        assert payload["classification"]["kind"] == "sub"

    def test_shifted_target_standard_fails_general_works(self, runner, jp_files):
        code, standard = catalyze_with_chi(runner, jp_files, "phi_shifted", "standard")
        assert code == 1
        assert standard == {"mode": "standard", "feasible": False, "catalyst": [0.6, 0.4],
                            "residual": None, "classification": None}
        code, general = catalyze_with_chi(runner, jp_files, "phi_shifted", "general")
        assert code == 0
        assert general["feasible"] is True
        assert general["residual"] == [1.0, 0.0]
        assert general["classification"]["kind"] == "sub"

    def test_monte_carlo_search(self, runner, jp_files):
        result = runner.invoke(
            main,
            ["--seed", "7", "catalyze", jp_files["psi"], jp_files["phi"],
             "--k", "2", "--mode", "standard", "-M", "1000"],
        )
        assert result.exit_code == 0
        payload = last_json(result.output)
        assert payload["status"] == "success"
        assert 0.6 - 1e-9 <= payload["catalyst"][0] <= 0.625 + 1e-9
        assert payload["seed"] == 7

    def test_general_existence_decision(self, runner, jp_files):
        result = runner.invoke(
            main,
            ["catalyze", jp_files["psi"], jp_files["phi_shifted"], "--k", "2"],
        )
        assert result.exit_code == 0
        assert last_json(result.output)["exists"] is True

    def test_argument_conflicts(self, runner, jp_files):
        both = runner.invoke(
            main,
            ["catalyze", jp_files["psi"], jp_files["phi"],
             "--chi", jp_files["chi"], "--k", "2"],
        )
        assert both.exit_code == 2
        neither = runner.invoke(main, ["catalyze", jp_files["psi"], jp_files["phi"]])
        assert neither.exit_code == 2
        # invalid search settings are errors (exit 2), not "infeasible" (exit 1)
        for bad in (["--k", "0"], ["--k", "2", "-M", "0"], ["--k", "16385"]):
            result = runner.invoke(
                main,
                ["catalyze", jp_files["psi"], jp_files["phi"], "--mode", "standard", *bad],
            )
            assert result.exit_code == 2
            assert "error:" in result.output

    def test_already_feasible_is_an_error(self, runner, tmp_path):
        psi = write_state(tmp_path, "max", (0.25, 0.25, 0.25, 0.25))
        phi = write_state(tmp_path, "tgt", (0.5, 0.25, 0.25, 0.0))
        result = runner.invoke(
            main, ["catalyze", psi, phi, "--k", "2", "--mode", "standard"]
        )
        assert result.exit_code == 2

    def test_malformed_chi_file(self, runner, jp_files, tmp_path):
        bad = tmp_path / "bad_chi.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["catalyze", jp_files["psi"], jp_files["phi"], "--chi", str(bad)]
        )
        assert_input_error(result, "bad_chi.json: ")

    def test_failed_recheck_is_an_internal_fault(self, runner, jp_files, monkeypatch, tmp_path):
        # a certificate that fails the re-check is a bug, not bad input,
        # in the search and in pair generation alike
        monkeypatch.setattr(search, "_scalar_leq", lambda *args: False)
        monkeypatch.setattr(experiments, "_scalar_leq", lambda *args: False)
        for args in (
            ["--seed", "7", "catalyze", jp_files["psi"], jp_files["phi"],
             "--k", "2", "--mode", "standard", "-M", "1000"],
            ["--out", str(tmp_path), "genpairs", "--n", "6", "--k", "3", "--count", "1"],
        ):
            result = runner.invoke(main, args)
            assert isinstance(result.exception, RuntimeError)
            assert result.exit_code != 2


class TestRegion:
    def test_demo_region_outputs(self, runner, tmp_path):
        psi = write_state(tmp_path, "psi", (0.5, 0.26, 0.24))
        phi = write_state(tmp_path, "phi", (0.49, 0.48, 0.03))
        chi = write_state(tmp_path, "chi", (0.62, 0.3, 0.08))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--out", str(out), "region", psi, phi, chi, "--resolution", "100"],
        )
        assert result.exit_code == 0
        payload = last_json(result.output)
        assert payload["feasible_cells"] > 0
        csv_lines = (out / "region.csv").read_text().splitlines()
        assert csv_lines[0] == "x1p,x2p,valid,feasible"
        assert len(csv_lines) == 100 * 100 + 1
        # the cell containing the demo residual point (0.81, 0.10) is feasible
        demo_row = csv_lines[1 + 81 * 100 + 10]
        assert demo_row == f"{0.815!r},{0.105!r},1,1"
        manifest = json.loads((out / "region.manifest.json").read_text())
        assert manifest["parameters"]["resolution"] == 100
        assert "region.csv" in manifest["outputs"]

    def test_wrong_dimension_errors(self, runner, tmp_path):
        psi = write_state(tmp_path, "psi", (0.6, 0.4))
        phi = write_state(tmp_path, "phi", (0.49, 0.48, 0.03))
        chi = write_state(tmp_path, "chi", (0.62, 0.3, 0.08))
        result = runner.invoke(main, ["region", psi, phi, chi])
        assert result.exit_code == 2

    def test_resolution_cap(self, runner, tmp_path):
        psi = write_state(tmp_path, "psi", (0.5, 0.26, 0.24))
        phi = write_state(tmp_path, "phi", (0.49, 0.48, 0.03))
        chi = write_state(tmp_path, "chi", (0.62, 0.3, 0.08))
        too_fine = str(MAX_RESOLUTION + 1)
        result = runner.invoke(main, ["region", psi, phi, chi, "--resolution", too_fine])
        assert result.exit_code == 2
        assert "resolution" in result.output


class TestGenpairsAndCurve:
    def test_genpairs_then_curve(self, runner, tmp_path):
        out = tmp_path / "out"
        gen = runner.invoke(
            main,
            ["--seed", "41", "--out", str(out), "genpairs",
             "--n", "6", "--k", "3", "--count", "25"],
        )
        assert gen.exit_code == 0, gen.output
        pairs_path = out / "pairs.jsonl"
        assert pairs_path.exists()
        assert len(pairs_path.read_text().splitlines()) == 25

        curve = runner.invoke(
            main,
            ["--seed", "41", "--out", str(out), "curve",
             "--pairs", str(pairs_path), "--k", "3", "--m-values", "1,10,50"],
        )
        assert curve.exit_code == 0, curve.output
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "M,success_fraction,pairs,seed"
        fractions = [float(line.split(",")[1]) for line in lines[1:]]
        assert fractions == sorted(fractions)

        # same seed reproduces the CSV byte for byte
        out2 = tmp_path / "out2"
        rerun = runner.invoke(
            main,
            ["--seed", "41", "--out", str(out2), "curve",
             "--pairs", str(pairs_path), "--k", "3", "--m-values", "1,10,50"],
        )
        assert rerun.exit_code == 0
        assert (out / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_genpairs_reproducible(self, runner, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(
                main,
                ["--seed", "43", "--out", str(out), "genpairs",
                 "--n", "6", "--k", "3", "--count", "10"],
            )
            assert result.exit_code == 0
            outputs.append((out / "pairs.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_genpairs_impossible_family(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path / "x"), "genpairs",
             "--n", "2", "--k", "1", "--count", "3", "--max-rejections", "300000"],
        )
        assert result.exit_code == 2

    def test_manifest_reproduces_run(self, runner, tmp_path):
        first = tmp_path / "first"
        result = runner.invoke(
            main,
            ["--seed", "47", "--out", str(first), "genpairs",
             "--n", "6", "--k", "3", "--count", "8"],
        )
        assert result.exit_code == 0
        manifest = json.loads((first / "genpairs.manifest.json").read_text())
        params = manifest["parameters"]
        second = tmp_path / "second"
        rerun = runner.invoke(
            main,
            ["--seed", str(manifest["seed"]), "--out", str(second),
             "--tol-major", str(manifest["tolerance"]["eps_major"]),
             "--tol-norm", str(manifest["tolerance"]["eps_norm"]),
             "genpairs", "--n", str(params["n"]), "--k", str(params["k"]),
             "--count", str(params["count"])],
        )
        assert rerun.exit_code == 0
        import hashlib

        digest = "sha256:" + hashlib.sha256((second / "pairs.jsonl").read_bytes()).hexdigest()
        assert digest == manifest["outputs"]["pairs.jsonl"]


class TestCurveInputErrors:
    @pytest.fixture
    def archive(self, runner, tmp_path):
        out = tmp_path / "archive"
        gen = runner.invoke(
            main,
            ["--seed", "41", "--out", str(out), "genpairs", "--n", "6", "--k", "3", "--count", "5"],
        )
        assert gen.exit_code == 0, gen.output
        return out / "pairs.jsonl"

    @pytest.mark.parametrize("m_values", ["x", "0"])
    def test_bad_budgets(self, runner, archive, tmp_path, m_values):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "curve", "--pairs", str(archive), "--k", "3",
             "--m-values", m_values],
        )
        assert_input_error(result)
        assert not (tmp_path / "curve.csv").exists()

    def test_tampered_archive(self, runner, archive, tmp_path):
        lines = archive.read_text().splitlines()
        record = json.loads(lines[1])
        record["witness"] = [1.0, 0.0, 0.0]  # a product ancilla never catalyzes
        lines[1] = json.dumps(record)
        archive.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["--out", str(tmp_path), "curve", "--pairs", str(archive), "--k", "3"]
        )
        assert_input_error(result, "pairs.jsonl:2: invalid pair record")

    def test_pairs_is_required(self, runner, tmp_path):
        # a missing option is a usage error, and usage errors are bad input too
        result = runner.invoke(main, ["--out", str(tmp_path), "curve", "--k", "3"])
        assert_input_error(result, "Missing option '--pairs'")
        assert not (tmp_path / "curve.csv").exists()

    def test_removed_generation_options(self, runner, archive):
        for flag in ("--n", "--count"):
            result = runner.invoke(main, ["curve", "--pairs", str(archive), flag, "5"])
            assert_input_error(result, f"No such option '{flag}'")


class TestFixtures:
    def test_all_pass(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "fixtures"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert result.output.count("PASS") >= 12
        report = json.loads((out / "fixtures.json").read_text())
        assert all(r["passed"] for r in report)


class TestThreadsFlag:
    def test_threads_do_not_change_search_result(self, runner, jp_files):
        outputs = []
        for threads in ("1", "4"):
            result = runner.invoke(
                main,
                ["--seed", "53", "--threads", threads, "catalyze",
                 jp_files["psi"], jp_files["phi"],
                 "--k", "2", "--mode", "standard", "-M", "9000"],
            )
            assert result.exit_code == 0
            outputs.append(last_json(result.output))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_an_error(self, runner, jp_files, threads):
        result = runner.invoke(
            main,
            ["--threads", threads, "catalyze", jp_files["psi"], jp_files["phi"],
             "--k", "2", "--mode", "standard", "-M", "100"],
        )
        assert_input_error(result, "--threads must be >= 1")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["--threads", "x", "check", "PSI", "PHI"], "Invalid value for '--threads'"),
            (["--bogus", "check", "PSI", "PHI"], "No such option '--bogus'"),
            (["check", "PSI"], "Missing argument 'PHI_FILE'"),
            (["nosuchcommand"], "No such command 'nosuchcommand'"),
            ([], "Missing command"),
        ],
    )
    def test_usage_errors_print_one_error_line(self, runner, jp_files, args, fragment):
        args = [{"PSI": jp_files["psi"], "PHI": jp_files["phi"]}.get(a, a) for a in args]
        result = runner.invoke(main, args)
        assert_input_error(result, fragment)
        assert "Usage:" not in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_help_and_version_still_exit_zero(self, runner):
        for args in (["--help"], ["check", "--help"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.output.startswith("Usage: ")
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "version" in result.output


def test_genpairs_width_is_capped(runner, tmp_path):
    result = runner.invoke(
        main, ["--out", str(tmp_path), "genpairs", "--n", "512", "--k", "256", "--count", "1"]
    )
    assert_input_error(result, "search too large: n*k = 131072")
    assert not (tmp_path / "pairs.jsonl").exists()


def test_tolerance_out_of_range(runner, jp_files):
    result = runner.invoke(main, ["--tol-major", "5", "check", jp_files["psi"], jp_files["phi"]])
    assert_input_error(result, "eps_major")


class TestOSErrors:
    """An output path the OS refuses is bad input: one line, exit 2, no manifest."""

    @pytest.fixture
    def demo_files(self, tmp_path):
        return [
            write_state(tmp_path, "psi3", (0.5, 0.26, 0.24)),
            write_state(tmp_path, "phi3", (0.49, 0.48, 0.03)),
            write_state(tmp_path, "chi3", (0.62, 0.3, 0.08)),
        ]

    def test_out_under_a_regular_file(self, runner, jp_files, tmp_path):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        result = runner.invoke(main, ["--out", str(out), "check", jp_files["psi"], jp_files["phi"]])
        assert_input_error(result, "Not a directory")
        assert len(result.stderr.splitlines()) == 1

    def test_region_csv_is_a_directory(self, runner, demo_files, tmp_path):
        (tmp_path / "o" / "region.csv").mkdir(parents=True)
        result = runner.invoke(
            main, ["--out", str(tmp_path / "o"), "region", *demo_files, "--resolution", "10"]
        )
        assert_input_error(result, "Is a directory")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "o" / "region.manifest.json").exists()

    def test_pairs_jsonl_is_a_directory(self, runner, tmp_path):
        (tmp_path / "g" / "pairs.jsonl").mkdir(parents=True)
        result = runner.invoke(
            main, ["--out", str(tmp_path / "g"), "genpairs", "--n", "6", "--k", "3", "--count", "5"]
        )
        assert_input_error(result, "Is a directory")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "g" / "genpairs.manifest.json").exists()


def test_readme_session_ends_each_command_with_its_answer(runner, jp_files, tmp_path):
    """Each command of the README session prints its JSON answer as the last
    stdout line and exits 0 or 1 by it; only ``fixtures`` prints lines before
    it.  Region and pair counts are smaller than the README's to keep this fast."""
    psi, phi, chi = jp_files["psi"], jp_files["phi"], jp_files["chi"]
    demo = [write_state(tmp_path, name, coeffs) for name, coeffs in (
        ("psi3", (0.5, 0.26, 0.24)), ("phi3", (0.49, 0.48, 0.03)), ("chi3", (0.62, 0.3, 0.08)))]
    out = str(tmp_path / "results")
    session = [
        (["check", psi, phi], 1),
        (["catalyze", psi, phi, "--chi", chi, "--mode", "standard"], 0),
        (["catalyze", psi, phi, "--chi", chi, "--mode", "general"], 0),
        (["catalyze", psi, phi, "--k", "2", "--mode", "general"], 0),
        (["--seed", "7", "catalyze", psi, phi, "--k", "2", "--mode", "standard", "-M", "1000"], 0),
        (["--out", out, "region", *demo, "--resolution", "100"], 0),
        (["--seed", "41", "--out", out, "genpairs", "--n", "8", "--k", "4", "--count", "50"], 0),
        (["--seed", "41", "--out", out, "curve", "--pairs", f"{out}/pairs.jsonl", "--k", "4"], 0),
        (["--out", out, "fixtures"], 0),
    ]
    for args, code in session:
        result = runner.invoke(main, args)
        assert result.exit_code == code, (args, result.output)
        assert result.stderr == ""
        lines = result.stdout.splitlines()
        assert result.stdout == "\n".join(lines) + "\n"
        assert isinstance(json.loads(lines[-1]), dict)
        before = ["PASS"] * 13 if args[-1] == "fixtures" else []
        assert [line.split(" ")[0] for line in lines[:-1]] == before
