"""Command-line interface: subcommands, formats, exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import BEYOND_CEILING, DESCRIPTORS

from dualrec import cli
from dualrec.simulate import CSV_HEADER, StudyConfig, TABLE2_POPULATIONS

TABLE_JSON = '{"x11": 50, "x10": 30, "x01": 20}\n'
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _first_population(config, **values):
    """``config`` with ``values`` set on its first population entry."""
    return {**config, "populations": [{**config["populations"][0], **values}]}


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(TABLE_JSON)
    return str(path)


class TestEstimateCommand:
    def test_json_report(self, table_file, capsys):
        code, out, err = run_cli(
            ["estimate", "--table", table_file, "--method", "dse", "--json"], capsys
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["method"] == "dse"
        assert payload["n_hat"] == 112.0
        assert payload["n_hat_integer"] == 112
        assert payload["phi_hat"] == 1.0
        assert payload["se"] == pytest.approx(math.sqrt(26.88))

    def test_text_report_with_recapture_policy(self, table_file, capsys):
        code, out, _ = run_cli(
            [
                "estimate", "--table", table_file,
                "--method", "adpl-mtb", "--delta", "recapture:4.0",
            ],
            capsys,
        )
        assert code == 0
        assert "n_hat: 112" in out
        assert "delta_used: 0.9866071429" in out

    def test_csv_table_input_and_fractional_estimate(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("x11,x10,x01\n7,5,3\n")
        code, out, _ = run_cli(
            ["estimate", "--table", str(path), "--method", "dse"], capsys
        )
        assert code == 0
        assert "n_hat: 17.1429 (integer part 17)" in out

    def test_boundary_estimate_warns(self, table_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--table", table_file, "--method", "pl-mtb"], capsys
        )
        assert code == 0
        assert "n_hat: 101" in out
        assert "warning: degenerate boundary estimate" in out

    def test_bootstrap_is_deterministic(self, table_file, capsys):
        args = [
            "estimate", "--table", table_file, "--method", "dse",
            "--bootstrap", "40", "--seed", "7",
        ]
        code, first, _ = run_cli(args, capsys)
        assert code == 0
        assert "bootstrap (B=40):" in first
        _, second, _ = run_cli(args, capsys)
        assert second == first

    @pytest.mark.parametrize("b", ["-3", "0", "1"])
    def test_bootstrap_needs_two_replicates(self, table_file, capsys, b):
        code, out, err = run_cli(
            ["estimate", "--table", table_file, "--method", "dse", "--bootstrap", b], capsys
        )
        assert code == 1 and out == ""
        assert f"bootstrap needs at least 2 replicates, got {b}" in err
        assert "Traceback" not in err

    def test_bootstrap_beyond_the_sampler_range_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"x11": 1e10, "x10": 1e10, "x01": 1e10}\n')
        args = ["estimate", "--table", str(path), "--method", "dse", "--bootstrap", "5"]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("dualrec: estimation error: bootstrap unavailable: fitted N = ")

    def test_writes_to_file(self, table_file, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            [
                "estimate", "--table", table_file, "--method", "dse",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0 and out == ""
        assert "n_hat: 112" in out_path.read_text()

    def test_missing_delta_is_usage_error(self, table_file, capsys):
        code, _, err = run_cli(
            ["estimate", "--table", table_file, "--method", "adpl-mtb"], capsys
        )
        assert code == 1
        assert "requires --delta" in err

    def test_delta_on_plain_method_is_usage_error(self, table_file, capsys):
        code, _, err = run_cli(
            [
                "estimate", "--table", table_file, "--method", "dse",
                "--delta", "fixed:0.9",
            ],
            capsys,
        )
        assert code == 1
        assert "does not take --delta" in err

    def test_unknown_method_is_usage_error(self, table_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--table", table_file, "--method", "petersen"])
        assert exc.value.code == 1

    def test_undefined_estimate_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty_overlap.json"
        path.write_text('{"x11": 0, "x10": 30, "x01": 20}\n')
        code, _, err = run_cli(
            ["estimate", "--table", str(path), "--method", "dse"], capsys
        )
        assert code == 2
        assert "estimation error" in err

    def test_divergent_adjustment_exits_two(self, table_file, capsys):
        code, _, err = run_cli(
            [
                "estimate", "--table", table_file,
                "--method", "adpl-mtb", "--delta", "fixed:1.5",
            ],
            capsys,
        )
        assert code == 2
        assert "estimation error" in err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("second-row.csv", "x11,x10,x01\n50,30,20\n1,2,3\n", "one data row of three"),
            ("fourth-field.csv", "x11,x10,x01\n50,30,20,4\n", "one data row of three"),
            ("extra-key.json", '{"x11": 50, "x10": 30, "x01": 20, "x00": 4}', "keys x11, x10, x01"),
        ],
        ids=["csv-second-row", "csv-fourth-field", "json-extra-key"],
    )
    def test_table_file_with_extra_counts_is_usage_error(
        self, name, text, message, tmp_path, capsys
    ):
        # Such files used to be truncated to their first three counts.
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(["estimate", "--table", str(path), "--method", "dse"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("dualrec: error:") and message in err

    @pytest.mark.parametrize(
        "text",
        ['{"x11": 5e1, "x10": 30.0, "x01": 20}', "x11,x10,x01\n50, 30 ,20\n"],
        ids=["json-integral-floats", "csv-spaces"],
    )
    def test_table_file_counts_read_like_config_counts(self, text, tmp_path, capsys):
        path = tmp_path / "table"
        path.write_text(text)
        got = run_cli(["estimate", "--table", str(path), "--method", "mpl-mt"], capsys)
        path.write_text(TABLE_JSON)
        assert got == run_cli(["estimate", "--table", str(path), "--method", "mpl-mt"], capsys)
        assert got[0] == 0

    @pytest.mark.parametrize(
        "text",
        ["x11,x10,x01\n5_0,30,20\n", "x11,x10,x01\n\u0665\u0660,30,20\n"],
        ids=["digit-group-underscore", "arabic-indic-digits"],
    )
    def test_csv_count_that_is_not_ascii_digits_is_usage_error(self, text, tmp_path, capsys):
        # int() reads both as 50.
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["estimate", "--table", str(path), "--method", "dse"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("dualrec: error:") and "decimal digits" in err

    @pytest.mark.parametrize("cells", BEYOND_CEILING)
    @pytest.mark.parametrize("descriptor", DESCRIPTORS)
    def test_domain_above_the_ceiling_exits_two(self, descriptor, cells, tmp_path, capsys):
        # Searches used to die here with a traceback or a domain error (exit 1),
        # or report an N above the ceiling.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(zip(("x11", "x10", "x01"), cells))))
        method, _, delta = descriptor.partition(":")
        args = ["estimate", "--table", str(path), "--method", method]
        code, out, err = run_cli(args + (["--delta", delta] if delta else []), capsys)
        if method in ("dse", "pl-mtb"):
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == ""
            assert err.startswith("dualrec: estimation error:")

    @pytest.mark.parametrize("method", ["dse", "pl-mtb"])
    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_table_beyond_exact_doubles_is_usage_error(self, method, suffix, tmp_path, capsys):
        # A 401-digit x11 used to end in an OverflowError traceback.
        x11 = "9" * 401
        path = tmp_path / f"huge.{suffix}"
        if suffix == "json":
            path.write_text(f'{{"x11": {x11}, "x10": 1, "x01": 1}}')
        else:
            path.write_text(f"x11,x10,x01\n{x11},1,1\n")
        code, out, err = run_cli(["estimate", "--table", str(path), "--method", method], capsys)
        assert code == 1 and out == ""
        assert err == "dualrec: error: table total x0 = x11 + x10 + x01 must be below 2**53\n"

    def test_json_report_writes_infinite_values_as_text(self, tmp_path, capsys):
        # x01 = 0 gives p_hat = 0 and phi_hat = inf; JSON has no Infinity.
        path = tmp_path / "no_x01.json"
        path.write_text('{"x11": 50, "x10": 30, "x01": 0}\n')
        code, out, _ = run_cli(
            ["estimate", "--table", str(path), "--method", "adpl-mtb",
             "--delta", "fixed:0.5", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert payload["phi_hat"] == "inf" and payload["p_hat"] == 0.0
        assert payload["se"] is None

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_file_that_is_not_utf8_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"x11": 50}')
        args = ["estimate", "--table", str(path), "--method", "dse"]
        if command == "simulate":
            args = ["simulate", "--config", str(path)]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("dualrec: error:") and "not UTF-8" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("estimate", TABLE_JSON),
            ("estimate", "x11,x10,x01\n50,30,20\n"),
            (
                "simulate",
                StudyConfig((TABLE2_POPULATIONS[0],), ("dse", "pl-mtb"), 5, 3).to_json(),
            ),
        ],
        ids=["json-table", "csv-table", "config"],
    )
    def test_leading_byte_order_mark_is_ignored(self, command, text, tmp_path, capsys):
        # Some editors start UTF-8 files with the mark EF BB BF.
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "input"
            path.write_bytes(prefix + text.encode())
            args = ["estimate", "--table", str(path), "--method", "dse"]
            if command == "simulate":
                args = ["simulate", "--config", str(path)]
            outputs.append(run_cli(args, capsys))
        assert outputs[1] == outputs[0]
        assert outputs[0][0] == 0 and outputs[0][2] == ""

    def test_missing_table_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", "--table", str(tmp_path / "nope.json"), "--method", "dse"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_help_names_the_reproduced_case_study(self, tmp_path, capsys):
        # The epilog agrees with case_studies.note in the bundled reference
        # data: the urban-area estimate is reproduced on one consistent table.
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(1646, 316, 804) under --method adpl-mtb --delta recapture:4 gives 3428" in text
        assert "cannot be recomputed" not in text
        note = cli.load_published_reference()["case_studies"]["note"]
        assert "(1646, 316, 804)" in note and "n_hat = 3428" in note
        path = tmp_path / "urban.json"
        path.write_text('{"x11": 1646, "x10": 316, "x01": 804}\n')
        code, out, _ = run_cli(["estimate", "--table", str(path), "--method", "adpl-mtb",
                                "--delta", "recapture:4", "--json"], capsys)
        assert code == 0 and json.loads(out)["n_hat"] == 3428


class TestSimulateCommand:
    def _config_path(self, tmp_path, replicates=30):
        config = StudyConfig(
            populations=(TABLE2_POPULATIONS[0],),
            estimators=("dse", "adpl-mtb:scaled:1.25"),
            replicates=replicates,
            seed=41,
        )
        path = tmp_path / "study.json"
        path.write_text(config.to_json())
        return str(path)

    def test_study_csv_and_rerun_invariance(self, tmp_path, capsys):
        config = self._config_path(tmp_path)
        out_path = tmp_path / "study.csv"
        code, _, _ = run_cli(
            ["simulate", "--config", config, "--out", str(out_path)], capsys
        )
        assert code == 0
        text = out_path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("P1,dse,")
        code, stdout, _ = run_cli(["simulate", "--config", config], capsys)
        assert code == 0
        assert stdout == text
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", config, "--workers", "3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --workers 3" in capsys.readouterr().err

    def test_population_beyond_exact_doubles_is_usage_error(self, tmp_path, capsys):
        config = json.loads(Path(self._config_path(tmp_path)).read_text())
        for n in (10**9 + 1, 2**53, 10**19):
            config["populations"][0]["N"] = n
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(config))
            code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("dualrec: error: population size must be")

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: _first_population(c, N=500.7), "N must be an integer"),
            (lambda c: _first_population(c, N="many"), "N must be an integer"),
            (lambda c: _first_population(c, N=True), "N must be an integer"),
            (lambda c: _first_population(c, p1="0.5"), "p1 must be a number"),
            (lambda c: {**c, "replicates": 5.9}, "replicates must be an integer"),
            (lambda c: {**c, "replicates": "ten"}, "replicates must be an integer"),
            (lambda c: {**c, "seed": 1.5}, "seed must be an integer"),
            (lambda c: [c], "config must be a JSON object"),
            (lambda c: {**c, "populations": None}, "populations must be a list"),
            (lambda c: {**c, "populations": [7]}, "population entry must be an object"),
            (lambda c: {**c, "estimators": "dse"}, "estimators must be a list"),
            (lambda c: {**c, "delta_mode": "oracle"}, "@oracle"),
            (lambda c: {**c, "delta_mode": "candidate"}, "@oracle"),
            (lambda c: {**c, "delta_mod": "oracle"}, "@oracle"),
            (lambda c: _first_population(c, ph1=0.8), "population keys must be exactly"),
            (lambda c: _first_population(c, label=None), "population label must be a string"),
            (lambda c: _first_population(c, label="P,1"), "without a comma"),
        ],
        ids=[
            "fractional-N", "string-N", "bool-N", "string-p1", "fractional-replicates",
            "string-replicates", "fractional-seed", "top-level-array", "null-populations",
            "number-population", "string-estimators", "study-wide-oracle",
            "study-wide-candidate", "unknown-key", "unknown-population-key", "null-label",
            "comma-label",
        ],
    )
    def test_malformed_config_values_are_usage_errors(
        self, edit, message, tmp_path, capsys, monkeypatch
    ):
        # Rejected while reading the config: no study runs.
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("study ran"))
        config = json.loads(Path(self._config_path(tmp_path)).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(config)))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("dualrec: error:") and message in err

    def test_integral_float_counts_are_accepted(self, tmp_path, capsys):
        config = json.loads(Path(self._config_path(tmp_path)).read_text())
        _, want, _ = run_cli(["simulate", "--config", self._config_path(tmp_path)], capsys)
        config["populations"][0]["N"] = 5e2
        config["replicates"] = 3e1
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(path)], capsys) == (0, want, "")


class TestReproduceCommand:
    def test_population_design_table(self, capsys):
        code, out, _ = run_cli(["reproduce", "--target", "table2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "population,n,p1,p_dot1,phi,expected_distinct,expected_distinct_exact"
        )
        rounded = [int(line.split(",")[5]) for line in lines[1:]]
        assert rounded == [394, 422, 458, 420, 431, 459, 483, 446]

    def test_study_table_layout_and_reference_rows(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "--target", "table3", "--replicates", "20"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 8  # 7 computed + 1 reference row per population
        block = [line.split(",") for line in lines[1:9]]
        assert [row[1] for row in block] == [
            "dse",
            "adpl-mtb:scaled:0.75", "adpl-mtb:scaled:1.25", "adpl-mtb:scaled:1.75",
            "adpl-mtb:scaled:0.75@oracle", "adpl-mtb:scaled:1.25@oracle",
            "adpl-mtb:scaled:1.75@oracle",
            "lee-published-reference",
        ]
        # candidate and oracle adjustments genuinely differ
        assert block[2][2] != block[5][2]
        # adjusted rows carry delta_used, the unadjusted row does not
        assert block[0][8] == "" and block[2][8] != ""
        # reference row is transcribed, with empty failures and delta cells
        reference = cli.load_published_reference()["study_summaries"]["P1"]["lee"]
        assert block[7][2] == str(reference["mean"])
        assert block[7][7] == "" and block[7][8] == ""

    def test_reruns_are_byte_identical(self, capsys):
        args = ["reproduce", "--target", "table4", "--replicates", "20"]
        code, first, _ = run_cli(args, capsys)
        assert code == 0
        _, second, _ = run_cli(args, capsys)
        assert second == first

    def test_spread_scaling_dataset(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "--target", "fig1", "--replicates", "10"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "situation,estimator,n,mean,sd,slope"
        assert len(lines) == 1 + 4 * 10 * 2  # situations x grid sizes x estimators
        slopes = {
            (row[0], row[1]): float(row[5])
            for row in (line.split(",") for line in lines[1:])
        }
        assert all(math.isfinite(s) for s in slopes.values())
        assert 0.0 < slopes[("S1", "dse")] < 1.0

    @pytest.mark.parametrize("svg", [False, True])
    def test_spread_figure_leaves_zero_spreads_out_of_the_plot(self, tmp_path, capsys, svg):
        # At two replicates some grid points have equal estimates, so sd = 0
        # and ln sd is undefined; their CSV rows stay, the plot leaves them out.
        svg_path = tmp_path / "fig1.svg"
        args = ["reproduce", "--target", "fig1", "--replicates", "2", "--seed", "1"]
        code, out, err = run_cli(args + (["--svg", str(svg_path)] if svg else []), capsys)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4 * 10 * 2
        positive = sum(float(row[4]) > 0 for row in rows)
        assert 0 < positive < len(rows)
        if svg:
            plotted = re.findall(r'<polyline points="([^"]*)"', svg_path.read_text())
            assert sum(len(points.split()) for points in plotted) == positive
        else:
            assert not svg_path.exists()

    def test_band_figure_with_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "bands.svg"
        csv_path = tmp_path / "bands.csv"
        code, _, _ = run_cli(
            [
                "reproduce", "--target", "fig2", "--replicates", "10",
                "--svg", str(svg_path), "--out", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        header = csv_path.read_text().split("\n", 1)[0]
        assert header == "population,estimator,n,mean,sd,rel_lcl,rel_ucl"

    def test_effect_sweep_reports_skipped_points(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "--target", "fig4", "--replicates", "10"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        skipped = [line for line in lines if "skipped infeasible point" in line]
        assert len(skipped) == 2
        assert any(line.startswith("p60-70,0.5,") for line in skipped)
        assert any(line.startswith("p80-70,0.5,") for line in skipped)
        # 4 situations x 11 effect values - 2 skipped, for each of 2 estimators
        assert len(lines) == 1 + 42 * 2 + 2

    def test_svg_rejected_for_table_targets(self, tmp_path, capsys, monkeypatch):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran before --svg was checked")

        monkeypatch.setattr(cli, "run_study", no_study)
        for target in ("table2", "table3"):
            code, out, err = run_cli(
                ["reproduce", "--target", target, "--svg", str(tmp_path / "x.svg")],
                capsys,
            )
            assert code == 1 and out == ""
            assert "figure targets" in err
        assert not (tmp_path / "x.svg").exists()


class TestEntryPoints:
    def test_in_process_calls_print_what_separate_processes_print(self, table_file, capsys):
        # main builds its parser once per process: each call, whatever the
        # subcommand and options of the calls before it, parses as a fresh
        # process does.
        calls = [
            ["estimate", "--table", table_file, "--method", "adpl-mtb",
             "--delta", "scaled:1.25", "--json"],
            ["reproduce", "--target", "table2"],
            ["estimate", "--table", table_file, "--method", "pl-mt"],
        ]
        got = [run_cli(args, capsys) for args in calls]
        for args, result in zip(calls, got):
            proc = subprocess.run(
                [sys.executable, "-m", "dualrec", *args], capture_output=True, text=True
            )
            assert result == (proc.returncode, proc.stdout, proc.stderr)
        assert got[0][1].startswith("{") and "n_hat: 111" in got[2][1]

    def test_module_invocation(self, table_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dualrec", "estimate", "--table", table_file,
             "--method", "dse"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "n_hat: 112" in proc.stdout

    def test_console_script(self, table_file):
        # Runs the declared [project.scripts] entry point the way the
        # installer-generated wrapper does, so the check does not depend on
        # an installed `dualrec` executable.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["dualrec"]
        module, attr = target.split(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {attr} as entry\n"
            "sys.argv[0] = 'dualrec'\n"
            "sys.exit(entry())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper,
             "estimate", "--table", table_file, "--method", "pl-mt"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "n_hat: 111" in proc.stdout
