import gc
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from discordant import (
    DocumentError,
    NotDensityMatrix,
    document_to_state,
    dumps_document,
    loads_document,
    parse_document,
    state_to_document,
)
from discordant import discord as discord_module
from discordant.cli import main
from discordant.documents import FAMILIES
from discordant.states import bell_mixture, example_state

FIXTURE_DOCUMENTS = [
    {"family": {"name": "example_state", "parameters": {"b": 0.5, "c": 0.5}}},
    {"family": {"name": "bell_mixture", "parameters": {"a": 0.25}}},
    {"family": {"name": "teahouse_ensemble", "parameters": {}}},
    {
        "family": {
            "name": "classical_classical",
            "parameters": {"weights": [[0.5, 0.0], [0.0, 0.5]]},
        }
    },
    {
        "family": {
            "name": "zero_discord",
            "parameters": {
                "p": [0.5, 0.5],
                "basis_a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "sigmas_b": [
                    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                ],
            },
        }
    },
    {"family": {"name": "random", "parameters": {"dims": [2, 2], "rank": 3, "seed": 5}}},
    {
        "explicit": {
            "dims": [2, 2],
            "matrix": [
                [[0.375, 0.0], [0.0, 0.0], [0.0, 0.0], [0.125, 0.0]],
                [[0.0, 0.0], [0.375, 0.0], [0.125, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.125, 0.0], [0.125, 0.0], [0.0, 0.0]],
                [[0.125, 0.0], [0.0, 0.0], [0.0, 0.0], [0.125, 0.0]],
            ],
        }
    },
]


class TestDocuments:
    def test_round_trip_value_identical(self):
        for fixture in FIXTURE_DOCUMENTS:
            document = parse_document(fixture)
            rebuilt = json.loads(dumps_document(document))
            assert rebuilt == fixture

    def test_documents_build_valid_states(self):
        for fixture in FIXTURE_DOCUMENTS:
            state = document_to_state(parse_document(fixture))
            assert abs(np.trace(state.rho).real - 1.0) <= 1e-10

    def test_explicit_matches_family(self):
        explicit = document_to_state(parse_document(FIXTURE_DOCUMENTS[-1]))
        np.testing.assert_allclose(explicit.rho, example_state(0.5, 0.5).rho, atol=1e-12)

    def test_state_to_document_round_trip(self):
        state = bell_mixture(0.25)
        document = state_to_document(state)
        rebuilt = document_to_state(loads_document(dumps_document(document)))
        np.testing.assert_allclose(rebuilt.rho, state.rho, atol=1e-15)

    def test_rejects_both_or_neither(self):
        with pytest.raises(DocumentError):
            parse_document({})
        with pytest.raises(DocumentError):
            parse_document({"family": {"name": "random"}, "explicit": {}})

    def test_rejects_unknown_family(self):
        with pytest.raises(DocumentError):
            parse_document({"family": {"name": "bogus"}})

    def test_rejects_unknown_parameters(self):
        document = parse_document(
            {"family": {"name": "bell_mixture", "parameters": {"a": 0.5, "zz": 1}}}
        )
        with pytest.raises(DocumentError):
            document_to_state(document)

    def test_rejects_bad_matrix_shapes(self):
        with pytest.raises(DocumentError):
            parse_document({"explicit": {"dims": [2, 2], "matrix": [[[1.0, 0.0]]]}})
        with pytest.raises(DocumentError):
            parse_document({"explicit": {"dims": [2], "matrix": []}})

    def test_invalid_state_raises_validation_error(self):
        document = parse_document(
            {
                "explicit": {
                    "dims": [1, 2],
                    "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                }
            }
        )
        with pytest.raises(NotDensityMatrix):
            document_to_state(document)

    def test_bad_json_text(self):
        with pytest.raises(DocumentError):
            loads_document("{not json")


def invoke(*args, env=None, catch=True):
    runner = CliRunner()
    return runner.invoke(main, list(args), env=env or {}, catch_exceptions=catch)


class TestCliBasics:
    def test_analyze_human(self):
        result = invoke(
            "analyze", "--family", "example_state", "--param", "b=0.5", "--param", "c=0.5",
            "--restarts", "5",
        )
        assert result.exit_code == 0
        assert "discord:" in result.output
        assert "demon" in result.output

    def test_analyze_json_schema(self):
        result = invoke(
            "analyze", "--family", "bell_mixture", "--param", "a=0.25", "--restarts", "5",
            "--json",
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        for key in (
            "state", "entropies", "discord", "classification", "demon",
            "identities", "notes", "warnings", "settings",
        ):
            assert key in report
        assert report["warnings"] == []
        assert report["discord"]["d1"]["value"] == pytest.approx(
            0.18872187554086717, abs=1e-4
        )
        assert any("1 - H2(a)" in note or "1 - H2" in note for note in report["notes"])

    def test_analyze_json_byte_identical(self):
        args = (
            "analyze", "--family", "example_state", "--param", "b=0.3", "--param", "c=0.4",
            "--restarts", "4", "--seed", "9", "--json",
        )
        first = invoke(*args)
        second = invoke(*args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_analyze_runs_each_search_once(self, monkeypatch):
        import discordant.cli as cli_module
        import discordant.demon as demon_module

        # Each name is patched where it is bound: the CLI runs D1 and D3, and
        # the ledger runs D2.
        searches = []
        for module, name in (
            (cli_module, "optimize_discord"), (cli_module, "discord_d3"),
            (demon_module, "optimize_discord"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                report = _original(*args, **kwargs)
                searches.append((_name, report.measure))
                return report

            monkeypatch.setattr(module, name, counted)
        result = invoke("analyze", "--family", "example_state", "--param", "b=0.0",
                        "--param", "c=0.5", "--restarts", "2", "--json")
        assert result.exit_code == 0
        assert sorted(searches) == [
            ("discord_d3", "D3"), ("optimize_discord", "D1"), ("optimize_discord", "D2"),
        ]

    @pytest.mark.parametrize("source", [
        ("--family", "example_state", "--param", "b=0.5", "--param", "c=0.5"),
        ("--family", "example_state", "--param", "b=0", "--param", "c=0.5"),
        ("--family", "bell_mixture", "--param", "a=0.3"),
    ], ids=["example", "degenerate_marginal", "bell_mixture"])
    def test_analyze_demon_and_d2_match_their_commands(self, source):
        flags = ["--restarts", "3", "--seed", "5", "--json"]
        analyzed = invoke("analyze", *source, *flags)
        demon = invoke("demon", *source, *flags)
        d2 = invoke("discord", "--measure", "D2", *source, *flags)
        assert analyzed.exit_code == demon.exit_code == d2.exit_code == 0
        report = json.loads(analyzed.output)
        assert report["demon"] == json.loads(demon.output)
        assert report["discord"]["d2"] == json.loads(d2.output)

    def test_unconverged_search_warns_on_stderr_only(self):
        # A (4, 2) D1 at one restart stops both simplexes at MAX_EVALUATIONS.
        result = invoke("discord", "--family", "random", "--param", "dims=[4,2]", "--param", "seed=7",
                        "--restarts", "1", "--json")
        assert result.exit_code == 0
        diagnostics = json.loads(result.stdout)["diagnostics"]
        assert not diagnostics["converged"]
        assert diagnostics["function_evaluations"] == 10000
        assert result.stderr == "warning: D1 search did not converge after 10000 evaluations\n"

    @pytest.mark.parametrize("command, measures", [
        (("analyze", "--family", "bell_mixture", "--param", "a=0.25"), ["D1", "D3", "D2"]),
        (("demon", "--family", "bell_mixture", "--param", "a=0.25"), ["D2"]),
        (("table1",), ["D1"] * 6),
    ], ids=["analyze", "demon", "table1"])
    def test_each_printed_unconverged_search_warns(self, monkeypatch, command, measures):
        # A five-evaluation cap stops every simplex, D3's restricted one too.
        monkeypatch.setattr(discord_module, "MAX_EVALUATIONS", 5)
        result = invoke(*command, "--restarts", "1", "--json")
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report.get("warnings", []) == []
        warned = re.findall(r"^warning: (\w+) search did not converge after \d+ evaluations$", result.stderr, re.M)
        assert warned == measures

    @pytest.mark.parametrize("document", [
        {"family": {"name": "example_state", "parameters": {"b": float("nan"), "c": 0.5}}},
        {"explicit": {"dims": [1, 2],
                      "matrix": [[[0.5, 0], [float("nan"), 0]], [[0, 0], [0.5, 0]]]}},
    ], ids=["family", "explicit"])
    @pytest.mark.parametrize("command", [("analyze",), ("classify", "--side", "B")])
    def test_non_finite_document_exit_3(self, tmp_path, document, command):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(document))
        result = invoke(*command, "--input", str(path))
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")

    def test_one_dimensional_measured_side(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text(json.dumps(
            {"explicit": {"dims": [1, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}
        ))
        result = invoke("analyze", "--input", str(path), "--json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["discord"]["d1"]["value"] == 0.0
        assert report["discord"]["d1"]["diagnostics"]["converged"]

    def test_pure_marginal_entropy_prints_positive_zero(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text(json.dumps(
            {"explicit": {"dims": [1, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}
        ))
        result = invoke("analyze", "--input", str(path), "--json")
        assert result.exit_code == 0
        assert re.search(r"-0\.0\b", result.output) is None
        assert json.loads(result.output)["entropies"]["s_a"] == 0.0

    @pytest.mark.parametrize("command", [
        ("classify", "--family", "bell_mixture", "--param", "a=x"),
        ("classify", "--family", "random", "--param", "dims=[2,2]", "--param", "seed=NaN"),
        ("states", "emit", "bell_mixture", "--param", "a=x", "--explicit"),
        ("states", "emit", "random", "--param", "dims=[2,2]", "--param", "seed=NaN", "--explicit"),
    ])
    def test_non_numeric_family_parameter_exit_2(self, command):
        result = invoke(*command)
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output + result.stderr

    @pytest.mark.parametrize("option", [
        ("--restarts", "0"), ("--seed", "-1"),
    ])
    def test_bad_optimizer_option_exit_2(self, option):
        result = invoke("analyze", "--family", "bell_mixture", "--param", "a=0.3", *option)
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output + result.stderr

    def test_threads_option_is_gone(self):
        result = invoke("analyze", "--family", "bell_mixture", "--param", "a=0.3", "--threads", "2")
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--threads" in result.stderr

    def test_tol_option_is_gone(self):
        # The simplex tolerance is the fixed SIMPLEX_TOLERANCE.
        result = invoke("analyze", "--family", "bell_mixture", "--param", "a=0.3", "--tol", "1e-9")
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--tol" in result.stderr

    def test_input_file_is_closed(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(FIXTURE_DOCUMENTS[1]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke("classify", "--input", str(path))
            gc.collect()
        assert result.exit_code == 1
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_environment_does_not_set_optimizer_options(self):
        args = ("analyze", "--family", "example_state", "--param", "b=0.3", "--param", "c=0.4",
                "--json")
        plain = invoke(*args)
        env = {"DISCORDANT_SEED": "5", "DISCORDANT_RESTARTS": "3", "DISCORDANT_THREADS": "2"}
        with_env = invoke(*args, env=env)
        assert plain.exit_code == with_env.exit_code == 0
        assert plain.output == with_env.output
        assert json.loads(plain.output)["settings"] == {
            "restarts": 20, "seed": 0, "threads": 1, "tolerance": 1e-9,
        }

    @pytest.mark.parametrize("command, patched", [
        (("analyze", "--restarts", "1"), "classify_zero_discord"),
        (("classify",), "classify_zero_discord"),
        (("discord", "--restarts", "1"), "optimize_discord"),
        (("discord", "--measure", "D3SYM"), "discord_d3_symmetric"),
        (("demon", "--restarts", "1"), "work_ledger"),
        (("table1", "--restarts", "1"), "optimize_discord"),
        (("states", "emit", "--explicit"), "state_to_document"),
    ], ids=["analyze", "classify", "discord", "discord_d3sym", "demon", "table1", "states_emit"])
    def test_library_error_after_loading_exit_3(self, monkeypatch, command, patched):
        import discordant.cli as cli_module
        from discordant import DiscordantError

        def failing(*args, **kwargs):
            raise DiscordantError("injected failure")

        monkeypatch.setattr(cli_module, patched, failing)
        source = ("--family", "bell_mixture", "--param", "a=0.3")
        if command[0] == "states":
            source = ("bell_mixture", "--param", "a=0.3")
        elif command[0] == "table1":
            source = ()
        result = invoke(*command, *source)
        assert result.exit_code == 3
        assert result.stderr == "error: injected failure\n"
        assert result.stdout == ""

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = invoke("analyze", "--input", str(bad))
        assert result.exit_code == 2
        both = invoke("analyze")
        assert both.exit_code == 2
        not_utf8 = tmp_path / "latin.json"
        not_utf8.write_bytes(b"\xff\xfe{")
        result = invoke("classify", "--input", str(not_utf8))
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("kt", ["nan", "inf", "0"])
    def test_demon_kt_not_positive_and_finite_exit_3(self, kt):
        result = invoke("demon", "--family", "bell_mixture", "--param", "a=0.3", "--kt", kt)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: kT must be positive and finite")
        assert result.stdout == ""

    def test_demon_kt_overflow_exit_3(self):
        # kT is finite, but kT times the work is not.
        result = invoke("demon", "--family", "bell_mixture", "--param", "a=1.0",
                        "--restarts", "1", "--kt", "1e308", "--json")
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")
        assert result.stdout == ""

    @pytest.mark.parametrize("param", ["dims=[2.5, 2]", "rank=2.5", "seed=1.5"])
    def test_non_integral_random_parameter_exit_3(self, param):
        params = {"dims": "dims=[2, 2]", param.partition("=")[0]: param}
        args = [x for p in params.values() for x in ("--param", p)]
        result = invoke("classify", "--family", "random", *args)
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")

    def test_closed_stdout_is_not_a_parse_error(self):
        # A broken pipe is an OSError, but click, not the exit-2 mapping, handles it.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "discordant.cli", "states", "list"],
                                   stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr == b""

    @pytest.mark.parametrize("params", [
        ("dims=[2,2,5]",), ("dims=[true,2]",), ('dims={"a":1}',), ("dims=[2,2]", "rank=true"),
        ("dims=[2,2]", "seed=true"),
    ], ids=["three_dims", "boolean_dim", "object_dims", "boolean_rank", "boolean_seed"])
    @pytest.mark.parametrize("command", [("classify",), ("states", "emit", "--explicit")])
    def test_malformed_random_dims_and_booleans_exit_3(self, command, params):
        args = [x for p in params for x in ("--param", p)]
        if command[0] == "states":
            result = invoke(*command, "random", *args)
        else:
            result = invoke(*command, "--family", "random", *args)
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")
        assert result.stdout == ""

    def test_explicit_boolean_dims_exit_3(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(
            {"explicit": {"dims": [True, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}
        ))
        result = invoke("classify", "--input", str(path))
        assert result.exit_code == 3
        assert result.stderr.startswith("error: d_A must be an integer")

    def test_integral_float_random_parameters_still_work(self):
        as_floats = invoke("classify", "--json", "--family", "random", "--param", "dims=[2.0, 3.0]",
                           "--param", "rank=2.0", "--param", "seed=4.0")
        as_ints = invoke("classify", "--json", "--family", "random", "--param", "dims=[2, 3]",
                         "--param", "rank=2", "--param", "seed=4")
        assert as_floats.exit_code == as_ints.exit_code
        assert as_floats.output == as_ints.output

    def test_emit_to_unwritable_path_exit_2(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        result = invoke("states", "emit", "bell_mixture", "--param", "a=0.25", "-o", str(target))
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert not target.exists()

    def test_random_document_above_size_cap_exit_3(self):
        result = invoke("classify", "--family", "random", "--param", "dims=[1025, 1]")
        assert result.exit_code == 3
        assert "exceeds the cap of 1024" in result.stderr

    def test_validation_error_exit_3(self):
        result = invoke("analyze", "--family", "example_state",
                        "--param", "b=1.0", "--param", "c=1.0")
        assert result.exit_code == 3

    def test_explicit_maximally_mixed_all_measures_zero(self, tmp_path):
        entry = [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        matrix = [entry[-i:] + entry[:-i] for i in range(4)]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"explicit": {"dims": [2, 2], "matrix": matrix}}))
        result = invoke("analyze", "--input", str(path), "--restarts", "4", "--json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        for measure in ("d1", "d2", "d3", "d3sym"):
            assert abs(report["discord"][measure]["value"]) <= 1e-9
        assert report["classification"]["A"]["verdict"] == "ZERO"
        assert report["classification"]["B"]["verdict"] == "ZERO"

    def test_classify_exit_codes(self):
        zero = invoke("classify", "--family", "bell_mixture", "--param", "a=0.5")
        assert zero.exit_code == 0
        nonzero = invoke("classify", "--family", "bell_mixture", "--param", "a=0.3")
        assert nonzero.exit_code == 1

    def test_classify_ambiguous_exit_4(self, tmp_path):
        from discordant import BipartiteState, zero_discord_state

        sigmas = [np.diag([0.8, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
        base = zero_discord_state([0.3, 0.7], np.eye(2), sigmas)
        eps = 3e-7
        mixed = BipartiteState(
            (2, 2), (1 - eps) * base.rho + eps * example_state(0.5, 0.5).rho
        )
        path = tmp_path / "near.json"
        path.write_text(dumps_document(state_to_document(mixed)))
        result = invoke("classify", "--input", str(path))
        assert result.exit_code == 4
        assert "commutator norm" in result.output
        assert "residual discord" in result.output

    def test_discord_command(self):
        result = invoke(
            "discord", "--family", "example_state", "--param", "b=0.5", "--param", "c=0.5",
            "--measure", "D3", "--json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["measure"] == "D3"
        assert payload["value"] == pytest.approx(0.21040208776627678, abs=1e-9)
        assert payload["optimal_measurement"] is None

    def test_demon_command(self):
        result = invoke(
            "demon", "--family", "bell_mixture", "--param", "a=1.0",
            "--restarts", "5", "--kt", "2.0", "--json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["w_plus"] == pytest.approx(4.0, abs=1e-9)
        assert payload["delta_L"] == pytest.approx(4.0, abs=1e-9)
        assert payload["delta_2"] == pytest.approx(2.0, abs=1e-7)

    def test_states_list_and_emit_round_trip(self, tmp_path):
        listing = invoke("states", "list")
        assert listing.exit_code == 0
        fixtures = {doc["family"]["name"]: doc for doc in FIXTURE_DOCUMENTS if "family" in doc}
        assert set(fixtures) == set(FAMILIES)
        for family, fixture in fixtures.items():
            assert f"{family:<22} {FAMILIES[family].summary}" in listing.output
            params = []
            for key, value in fixture["family"]["parameters"].items():
                params += ["--param", f"{key}={json.dumps(value)}"]
            out = tmp_path / f"{family}.json"
            emitted = invoke("states", "emit", family, *params, "-o", str(out))
            assert emitted.exit_code == 0
            assert json.loads(out.read_text()) == fixture

            explicit = invoke("states", "emit", family, *params, "--explicit")
            assert explicit.exit_code == 0
            document = json.loads(explicit.output)
            assert "explicit" in document
            np.testing.assert_array_equal(
                document_to_state(parse_document(document)).rho,
                document_to_state(parse_document(fixture)).rho,
            )

        analyzed = invoke(
            "analyze", "--input", str(tmp_path / "bell_mixture.json"), "--restarts", "4", "--json"
        )
        assert analyzed.exit_code == 0


class TestTable1:
    def test_rows_and_values(self):
        result = invoke("table1", "--restarts", "8", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        rows = payload["rows"]
        assert len(rows) == 4
        assert abs(rows[0]["d1_a"]) <= 1e-7 and abs(rows[0]["d1_b"]) <= 1e-7
        assert abs(rows[1]["d1_a"]) <= 1e-7 and abs(rows[1]["d1_b"]) <= 1e-7
        assert rows[2]["d1_a"] > 1e-3
        assert rows[3]["d1_a"] > 1e-3
        assert [row["locally_measurable"] for row in rows] == ["no", "yes", "yes", "no"]
        assert "cited" in payload["locally_measurable_source"]

    def test_row3_parameter(self):
        result = invoke("table1", "--restarts", "6", "--param", "a=0.3", "--json")
        payload = json.loads(result.output)
        expected = 1.0 + 0.3 * np.log2(0.3) + 0.7 * np.log2(0.7)
        assert payload["rows"][2]["d1_a"] == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("a", ["2", "nan"])
    def test_row3_parameter_out_of_range_exit_3(self, a):
        result = invoke("table1", "--restarts", "1", "--param", f"a={a}")
        assert result.exit_code == 3
        assert result.stderr.startswith("error: mixing probability must lie in [0, 1]")

    @pytest.mark.parametrize("param, message", [
        ("a=x", "error: malformed parameters for family 'bell_mixture'"),
        ("b=0.3", "error: unknown parameters for family 'bell_mixture': ['b']"),
        ("a", "error: --param expects KEY=VALUE"),
    ], ids=["not_a_number", "unknown_key", "no_equals"])
    def test_row3_parameter_parse_error_exit_2(self, param, message):
        result = invoke("table1", "--restarts", "1", "--param", param)
        assert result.exit_code == 2
        assert result.stderr.startswith(message)
        assert result.stdout == ""

    def test_human_output_marks_citation(self):
        result = invoke("table1", "--restarts", "4")
        assert result.exit_code == 0
        assert "cited" in result.output
