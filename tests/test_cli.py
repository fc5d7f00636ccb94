"""Command line interface: output shapes, verdicts, and exit codes."""

import dataclasses
import json
import time

import pytest

from distspec import cli
from distspec.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestSpectrum:
    def test_doob_verify(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "doob", "1", "1",
                                 "--verify")
        assert code == EXIT_OK
        assert data["match"] is True
        assert data["n"] == 64
        assert data["closed_form"]["eigs"][0] == {
            "value": 144.0, "exact": "144", "mult": 1}
        assert data["numeric"]["eigs"][2]["mult"] == 9

    def test_closed_form_only_by_default(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "petersen")
        assert code == EXIT_OK
        assert "numeric" not in data
        assert [e["exact"] for e in data["closed_form"]["eigs"]] == \
            ["15", "0", "-3"]

    def test_out_of_range_closed_form_falls_back(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "halved-cube", "3")
        assert code == EXIT_OK
        assert "closed_form" not in data
        assert "note" in data
        assert data["numeric"]["n"] == 4

    def test_family_without_formula_notes_it(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "path", "5")
        assert code == EXIT_OK
        assert "no closed form" in data["note"]
        assert len(data["numeric"]["eigs"]) == 5

    def test_numeric_flag_skips_formula(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "cycle", "6",
                                 "--numeric")
        assert code == EXIT_OK
        assert "closed_form" not in data

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "icosahedron",
                           "--format", "text")
        assert code == EXIT_OK
        assert "18 ^ 1" in out
        assert "[-3+sqrt(5)]" in out

    def test_quadratic_exact_strings_in_json(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "dodecahedron")
        exacts = [e["exact"] for e in data["closed_form"]["eigs"]]
        assert "-7+3*sqrt(5)" in exacts and "-7-3*sqrt(5)" in exacts

    def test_disconnected_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "kneser", "4", "2")
        assert code == EXIT_USAGE
        assert "disconnected" in err

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "hamming", "2")
        assert code == EXIT_USAGE
        assert "parameter" in err

    def test_unknown_family_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "klein-bottle"])
        assert exc.value.code == EXIT_USAGE


class TestVerify:
    def test_barbell_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "barbell", "--k", "2..3",
                           "--m", "2..3", "--l", "0..2")
        assert code == EXIT_OK
        assert "12 instance(s), 0 failure(s)" in out

    def test_lollipop_grid_json(self, capsys):
        code, data, _ = run_json(capsys, "verify", "lollipop",
                                 "--k", "2..4", "--l", "0..3",
                                 "--format", "json")
        assert code == EXIT_OK
        assert data["instances"] == 12
        assert data["failures"] == 0
        assert all(r["match"] for r in data["results"])

    def test_spectrum_family_grid(self, capsys):
        code, data, _ = run_json(capsys, "verify", "johnson",
                                 "--n", "4..6", "--r", "1..5",
                                 "--format", "json")
        assert code == EXIT_OK
        assert data["failures"] == 0
        # r is clipped to 1..n-1 per instance
        assert data["instances"] == 3 + 4 + 5

    def test_lemma_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-identities",
                           "--max", "6")
        assert code == EXIT_OK
        assert "0 failure(s)" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "lollipop", "--k", "2..2",
                           "--l", "0..1", "--format", "csv")
        assert code == EXIT_OK
        head, *rows = [ln for ln in out.splitlines() if ln]
        assert head.startswith("family,params,n,det,inertia,match")
        assert len(rows) == 2

    def test_workers_do_not_change_results(self, capsys):
        args = ("verify", "cycle", "--n", "3..10", "--format", "json")
        _, seq, _ = run_json(capsys, *args)
        _, par, _ = run_json(capsys, *args, "--workers", "2")
        assert seq == par

    def test_workers_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTSPEC_WORKERS", "2")
        code, data, _ = run_json(capsys, "verify", "cycle", "--n", "3..8",
                                 "--format", "json")
        assert code == EXIT_OK
        assert data["failures"] == 0

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_nonpositive_workers_rejected(self, capsys, count):
        code, out, err = run(capsys, "verify", "cycle", "--n", "3..4",
                             "--workers", count)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --workers must be a positive integer, " \
                      f"got {count}\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5"])
    def test_bad_workers_env_var_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DISTSPEC_WORKERS", value)
        code, out, err = run(capsys, "verify", "cycle", "--n", "3..4")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: DISTSPEC_WORKERS must be a positive")
        assert err.count("\n") == 1

    def test_workers_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("DISTSPEC_WORKERS", "abc")
        code, _, _ = run(capsys, "verify", "cycle", "--n", "3..4",
                         "--workers", "1")
        assert code == EXIT_OK

    def test_unknown_target(self, capsys):
        code, _, err = run(capsys, "verify", "moebius")
        assert code == EXIT_USAGE
        assert "unknown verify target" in err

    def test_family_without_formula_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "path", "--n", "2..4")
        assert code == EXIT_USAGE
        assert "no closed-form spectrum" in err

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "cycle", "--n", "6..3")
        assert code == EXIT_USAGE
        assert "empty range" in err

    def test_closed_form_refusal_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "halved-cube", "--d", "3..4")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: halved cube closed form needs d >= 4; " \
                      "use the numeric route below that\n"


class TestSrg:
    def test_conference_13(self, capsys):
        code, data, _ = run_json(capsys, "srg", "13", "6", "2", "3")
        assert code == EXIT_OK
        assert data["feasible"] and data["conference"] and data["optimistic"]
        assert data["one_positive_distance_eigenvalue"] is False
        assert data["complement"] == [13, 6, 2, 3]
        exacts = [e["exact"]
                  for e in data["distance"]["spectrum"]["eigs"]]
        assert exacts == ["18", "-3/2+1/2*sqrt(13)", "-3/2-1/2*sqrt(13)"]

    def test_symplectic_4_2(self, capsys):
        code, data, _ = run_json(capsys, "srg", "15", "8", "4", "4")
        assert code == EXIT_OK
        assert data["optimistic"] is False
        assert data["one_positive_distance_eigenvalue"] is True
        assert data["adjacency"] == {"theta": 2.0, "tau": -2.0,
                                     "m_theta": 5, "m_tau": 9}

    def test_infeasible_reports_false(self, capsys):
        code, data, _ = run_json(capsys, "srg", "10", "3", "1", "1")
        assert code == EXIT_OK
        assert data["feasible"] is False
        assert "optimistic" not in data

    def test_invalid_parameters_are_usage_error(self, capsys):
        code, _, err = run(capsys, "srg", "10", "0", "0", "1")
        assert code == EXIT_USAGE
        assert "k" in err


class TestVerifyTrees:
    def test_small_orders_clean(self, capsys):
        code, out, _ = run(capsys, "verify-trees", "--max-order", "7")
        assert code == EXIT_OK
        lines = [json.loads(ln) for ln in out.splitlines() if ln]
        assert [d["order"] for d in lines] == [2, 3, 4, 5, 6, 7]
        assert [d["trees"] for d in lines] == [1, 1, 2, 3, 6, 11]
        assert all(d["strong_violations"] == 0 for d in lines)
        assert all(d["weak_violations"] == 0 for d in lines)


class TestZfBound:
    def test_cube(self, capsys):
        code, data, _ = run_json(capsys, "zf-bound", "hypercube", "3")
        assert code == EXIT_OK
        assert data["bound_exact"] == "12/5"
        assert data["bound_ceiling"] == 3
        assert data["distinct_distance_eigenvalues"] == 3
        assert data["holds"] and data["tight"]

    def test_petersen_loose(self, capsys):
        code, data, _ = run_json(capsys, "zf-bound", "petersen")
        assert code == EXIT_OK
        assert data["holds"]


class TestMatrixAndDet:
    def test_matrix_dump(self, capsys):
        code, out, _ = run(capsys, "matrix", "path", "4")
        assert code == EXIT_OK
        assert out == "4\n0 1 2 3\n1 0 1 2\n2 1 0 1\n3 2 1 0\n"

    def test_det_plain_family(self, capsys):
        code, data, _ = run_json(capsys, "det", "path", "4")
        assert code == EXIT_OK
        assert data["det"] == -12
        assert data["inertia"] == [1, 0, 3]
        assert "formula_det" not in data

    def test_det_with_formula(self, capsys):
        code, data, _ = run_json(capsys, "det", "barbell", "3", "4", "2")
        assert code == EXIT_OK
        assert data["det"] == data["formula_det"] == 280
        assert data["match"] is True
        assert data["inertia"] == data["formula_inertia"] == [1, 0, 8]

    def test_det_lollipop(self, capsys):
        code, data, _ = run_json(capsys, "det", "lollipop", "5", "0")
        assert code == EXIT_OK
        assert data["det"] == 4
        assert data["match"] is True


def refuse_to_build(*params):
    raise AssertionError("a graph was built")


@pytest.fixture
def no_graphs(monkeypatch):
    """Every family's generator raises, so a passing command built nothing."""
    for name, fam in list(cli.FAMILIES.items()):
        monkeypatch.setitem(cli.FAMILIES, name,
                            dataclasses.replace(fam, gen=refuse_to_build))


class TestSizeBeforeBuilding:
    def test_closed_form_builds_nothing(self, capsys, no_graphs):
        start = time.perf_counter()
        code, data, err = run_json(capsys, "spectrum", "hamming", "12", "12")
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK and err == ""
        assert data["n"] == 8916100448256
        assert data["closed_form"]["n"] == 8916100448256
        assert "numeric" not in data

    @pytest.mark.parametrize("argv, message", [
        ("spectrum hamming 12 12 --verify",
         "order 8916100448256 exceeds the supported cap 1500"),
        ("spectrum path 5000", "order 5000 exceeds the supported cap 1500"),
        ("zf-bound hypercube 10",
         "order 1024 exceeds the zero forcing search cap 24"),
        ("det halved-cube 12", "order 2048 exceeds the exact search cap 256"),
    ])
    def test_over_cap_refused_before_building(self, capsys, no_graphs,
                                              argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("spectrum odd 1", "odd graph needs r >= 2"),
        ("spectrum johnson 4 7", "johnson needs 1 <= r <= n-1"),
        ("det johnson 5 -1", "johnson needs 1 <= r <= n-1"),
        ("det barbell 1 2 3",
         "generalized barbell needs k, m >= 2 and length >= 0"),
        ("spectrum kneser 4 2",
         "graph is disconnected: no path between vertices 0 and 1"),
        ("spectrum hamming 0 2", "hamming needs d >= 1 and n >= 2"),
        ("det lollipop 1 300", "lollipop needs k >= 2 and length >= 0"),
        ("spectrum doob 0 6", "doob needs m >= 1 and d >= 0"),
    ])
    def test_bad_parameters_keep_the_generator_message(self, capsys, argv,
                                                       message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
