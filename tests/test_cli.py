"""Command line interface: output shapes, verdicts, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from distspec import bounds, cli, closedforms, jacobi, spectra, srg
from distspec.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from conftest import referee_graph
from distspec.distances import distance_matrix, format_matrix
from test_distances import bfs_distances, joined_matrix
from test_graphs import GENERATOR_CASES


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
        # the halved 3-cube is K_4, inside the closed form's domain: the
        # formula answers, and nothing falls back to the solver
        code, data, _ = run_json(capsys, "spectrum", "halved-cube", "3")
        assert code == EXIT_OK
        assert "numeric" not in data and "note" not in data
        assert [(e["exact"], e["mult"])
                for e in data["closed_form"]["eigs"]] == [("3", 1), ("-1", 3)]

    def test_family_without_formula_notes_it(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "path", "5")
        assert code == EXIT_OK
        assert "no closed form" in data["note"]
        assert len(data["numeric"]["eigs"]) == 5

    def test_text_format_ends_with_the_note(self, capsys):
        code, out, _ = run(capsys, "spectrum", "path", "4", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == \
            "  note: no closed form for this family; using numeric solver"

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

    def test_verify_reports_error_bound(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "hamming", "3", "3",
                                 "--verify")
        assert code == EXIT_OK
        assert 0 < data["max_deviation"] <= data["error_bound"] < 1e-8
        code, out, _ = run(capsys, "spectrum", "hamming", "3", "3",
                           "--verify", "--format", "text")
        assert code == EXIT_OK
        assert "  error_bound=" in out.splitlines()[-1]

    def test_verify_validates_its_matrix_once(self, capsys, monkeypatch):
        class CountingNumpy:
            """numpy, with the shape of every `isfinite` argument kept."""

            def __init__(self):
                self.shapes = []

            def __getattr__(self, name):
                return getattr(np, name)

            def isfinite(self, a):
                self.shapes.append(np.shape(a))
                return np.isfinite(a)

        counting = CountingNumpy()
        monkeypatch.setattr(jacobi, "np", counting)
        code, data, _ = run_json(capsys, "spectrum", "hamming", "3", "3",
                                 "--verify")
        assert code == EXIT_OK and data["match"] is True
        assert counting.shapes == [(27, 27)]

    def test_verify_refused_where_the_closed_form_is(self, capsys):
        # no closed form refuses inside its family's domain, so the
        # smallest halved cubes, K_2 and K_4, are verified like any other
        for d in ("2", "3"):
            code, data, err = run_json(capsys, "spectrum", "halved-cube", d,
                                       "--verify")
            assert (code, err) == (EXIT_OK, ""), d
            assert data["match"] is True, d

    def test_verify_and_numeric_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "spectrum", "petersen", "--numeric",
                             "--verify")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: argument --verify: "
                            "not allowed with argument --numeric\n")

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
        code, out, err = run(capsys, "spectrum", "klein-bottle")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(
            "error: argument family: invalid choice: 'klein-bottle' (")


class TestNumericClustering:
    """Numeric eigenvalues are grouped within twice the solver's error
    bound, so close distinct eigenvalues of long paths and cycles stay
    apart."""

    def test_path_eigenvalues_stay_distinct(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "path", "100",
                                 "--numeric")
        assert code == EXIT_OK
        eigs = data["numeric"]["eigs"]
        assert len(eigs) == 100
        assert all(e["mult"] == 1 for e in eigs)

    def test_cycle_200_verifies(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "cycle", "200",
                                 "--verify")
        assert code == EXIT_OK
        assert data["match"] is True
        assert len(data["numeric"]["eigs"]) == 52

    def test_cycle_400_fails_only_on_its_bound(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "cycle", "400",
                                 "--verify")
        assert code == EXIT_FAIL
        assert data["match"] is False
        assert len(data["numeric"]["eigs"]) == 102
        assert data["max_deviation"] < 1e-10
        assert data["error_bound"] >= 1e-8

    def test_tolerance_flag_for_clustering_is_gone(self, capsys):
        code, out, err = run(capsys, "spectrum", "petersen",
                             "--cluster-tol", "1e-3")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: unrecognized arguments: --cluster-tol 1e-3\n")


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

    def test_dropped_points_are_counted_in_every_format(self, capsys):
        # johnson needs r <= n - 1, so (3, 3) leaves the sweep
        argv = ("verify", "johnson", "--n", "3..4", "--r", "1..3")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith(
            "\n5 instance(s), 0 failure(s), 1 point(s) dropped\n")
        code, data, err = run_json(capsys, *argv, "--format", "json")
        assert (code, data["instances"], data["dropped"], err) == \
            (EXIT_OK, 5, 1, "")
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (EXIT_OK, "note: 1 point(s) dropped\n")
        assert len(out.splitlines()) == 1 + 5

    def test_hamming_sweep_drops_points_its_generator_refuses(self, capsys):
        # hamming needs n >= 2: (d, 1) for d = 1..3 leaves the sweep, and
        # the six other points run
        code, data, err = run_json(capsys, "verify", "hamming", "--d", "1..3",
                                   "--n", "1..3", "--format", "json")
        assert (code, data["instances"], data["dropped"], err) == \
            (EXIT_OK, 6, 3, "")
        assert [r["params"] for r in data["results"]] == \
            [[d, n] for d in range(1, 4) for n in (2, 3)]
        assert all(r["match"] for r in data["results"])
        # CP(1) is built but disconnected: dropped too
        code, data, err = run_json(capsys, "verify", "cocktail-party",
                                   "--m", "1..3", "--format", "json")
        assert (code, data["instances"], data["dropped"], err) == \
            (EXIT_OK, 2, 1, "")

    def test_nothing_dropped_adds_nothing(self, capsys):
        argv = ("verify", "johnson", "--n", "4", "--r", "1..3")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith("\n3 instance(s), 0 failure(s)\n")
        code, data, err = run_json(capsys, *argv, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert sorted(data) == ["failures", "instances", "results", "target"]
        assert run(capsys, *argv, "--format", "csv")[2] == ""

    def test_lemma_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-identities",
                           "--max", "6")
        assert code == EXIT_OK
        assert "0 failure(s)" in out

    def test_lemma_bounds_default_to_20_and_10(self, capsys):
        default = run(capsys, "verify", "lemma-identities", "--format", "csv")
        given = run(capsys, "verify", "lemma-identities", "--max", "20",
                    "--max-b", "10", "--format", "csv")
        assert default == given and default[0] == EXIT_OK

    def test_lemma_rows_in_order(self, capsys):
        code, data, _ = run_json(capsys, "verify", "lemma-identities",
                                 "--max", "7", "--max-b", "3",
                                 "--format", "json")
        assert code == EXIT_OK
        rows = [(r["identity"], {k: r[k] for k in "sdab" if k in r})
                for r in data["results"]]
        assert rows == [
            (1, {"s": 1}), (1, {"s": 2}), (1, {"s": 3}), (1, {"s": 4}),
            (1, {"s": 5}), (1, {"s": 6}), (1, {"s": 7}),
            (2, {"s": 2}), (2, {"s": 3}), (2, {"s": 4}), (2, {"s": 5}),
            (2, {"s": 6}), (2, {"s": 7}),
            (3, {"d": 2}), (3, {"d": 3}), (3, {"d": 4}), (3, {"d": 5}),
            (3, {"d": 6}), (3, {"d": 7}),
            (4, {"d": 2}), (4, {"d": 3}), (4, {"d": 4}), (4, {"d": 5}),
            (4, {"d": 6}), (4, {"d": 7}),
            (5, {"d": 3}), (5, {"d": 4}), (5, {"d": 5}), (5, {"d": 6}),
            (5, {"d": 7}),
            (6, {"a": 2, "b": 0}), (6, {"a": 2, "b": 1}),
            (6, {"a": 2, "b": 2}), (6, {"a": 2, "b": 3}),
            (6, {"a": 3, "b": 0}), (6, {"a": 3, "b": 1}),
            (6, {"a": 3, "b": 2}), (6, {"a": 3, "b": 3}),
            (6, {"a": 4, "b": 0}), (6, {"a": 4, "b": 1}),
            (6, {"a": 4, "b": 2}), (6, {"a": 4, "b": 3}),
            (6, {"a": 5, "b": 0}), (6, {"a": 5, "b": 1}),
            (6, {"a": 5, "b": 2}), (6, {"a": 5, "b": 3}),
            (6, {"a": 6, "b": 0}), (6, {"a": 6, "b": 1}),
            (6, {"a": 6, "b": 2}), (6, {"a": 6, "b": 3}),
            (6, {"a": 7, "b": 0}), (6, {"a": 7, "b": 1}),
            (6, {"a": 7, "b": 2}), (6, {"a": 7, "b": 3}),
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_rows_report_error_bound(self, capsys, fmt):
        code, out, _ = run(capsys, "verify", "hamming", "--d", "2..3",
                           "--n", "3", "--format", fmt)
        assert code == EXIT_OK
        if fmt == "json":
            rows = json.loads(out)["results"]
            assert all(0 < r["error_bound"] < 1e-8 for r in rows)
        elif fmt == "csv":
            assert out.splitlines()[0] == \
                "family,params,n,match,max_deviation,error_bound"
        else:
            assert all("  error_bound=" in ln for ln in out.splitlines()[:2])

    def test_bound_over_match_tol_fails_the_sweep(self, capsys):
        code, data, _ = run_json(capsys, "verify", "cycle", "--n", "400",
                                 "--format", "json")
        assert code == EXIT_FAIL
        assert data["failures"] == 1
        assert data["results"][0]["error_bound"] >= cli.MATCH_TOL

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "lollipop", "--k", "2..2",
                           "--l", "0..1", "--format", "csv")
        assert code == EXIT_OK
        head, *rows = [ln for ln in out.splitlines() if ln]
        assert head.startswith("family,params,n,det,inertia,match")
        assert len(rows) == 2

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
        # the closed form accepts the whole domain, d >= 2: every point runs
        code, out, err = run(capsys, "verify", "halved-cube", "--d", "2..5")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "4 instance(s), 0 failure(s)"


@pytest.mark.parametrize("argv, message", [
    ("spectrum klein-bottle",
     "argument family: invalid choice: 'klein-bottle' (choose from"),
    ("spectrum petersen --numeric --verify",
     "argument --verify: not allowed with argument --numeric"),
    ("srg 5 7 0 1", "need 0 < k < n, got k=7, n=5"),
    ("verify nosuch", "unknown verify target 'nosuch'"),
    ("spectrum hamming 3 3 --verify --match-tol 1e-6",
     "unrecognized arguments: --match-tol 1e-6"),
    ("spectrum", "the following arguments are required: family"),
    ("det lollipop x 2", "argument params: invalid int value: 'x'"),
    ("verify cycle --d 3..4", "cycle takes no parameter d"),
    ("verify johnson --n 5.. --r 1",
     "argument --n: invalid range '5..': expected A..B or A"),
    ("verify johnson --n ..5 --r 1",
     "argument --n: invalid range '..5': expected A..B or A"),
    ("verify johnson --n 3..4..5 --r 1",
     "argument --n: invalid range '3..4..5': expected A..B or A"),
    ("verify johnson --n a..b --r 1",
     "argument --n: invalid range 'a..b': expected A..B or A"),
    ("verify petersen --n 5", "petersen takes no parameter n"),
    ("verify lemma-identities --n 3..4",
     "lemma-identities takes no parameter n"),
    ("verify cycle --max 3", "cycle takes no option --max"),
    ("verify cycle --max-b 3", "cycle takes no option --max-b"),
    ("verify lollipop --max 3", "lollipop takes no option --max"),
    ("spectrum johnson 4 7", "johnson needs 1 <= r <= n-1"),
    ("verify-trees --max-order 15", "--max-order 15 is outside 2..14"),
    ("verify-trees --max-order 1", "--max-order 1 is outside 2..14"),
    ("verify lemma-identities --max 201",
     "--max 201 exceeds the lemma-identities cap 200"),
    ("verify lemma-identities --max-b 100000",
     "--max-b 100000 exceeds the lemma-identities cap 200"),
])
def test_every_refusal_is_one_line_from_main(capsys, argv, message):
    # main returns the code itself: no refusal raises SystemExit
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 \
        and err.endswith("\n")


class TestSharedParser:
    def test_no_parser_is_built_after_the_first_call(self, capsys,
                                                     monkeypatch):
        main(["srg", "5", "2", "0", "1"])
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        requests = ["spectrum complete 5", "srg 16 6 2 2", "det path 4",
                    "matrix path 3", "verify-trees --max-order 4",
                    "zf-bound cycle 5", "spectrum klein-bottle",
                    "verify cycle --d 3..4", "srg 5 7 0 1", "spectrum"]
        for k in range(50):
            main(requests[k % len(requests)].split())
        capsys.readouterr()
        assert built == []
        cli._Parser(prog="probe")  # the counter does count
        assert built == ["probe"]

    def test_range_flags_do_not_carry_over(self, capsys):
        code, data, _ = run_json(capsys, "verify", "cycle", "--n", "3..5",
                                 "--format", "json")
        assert (code, data["instances"]) == (EXIT_OK, 3)
        code, data, _ = run_json(capsys, "verify", "cycle", "--format",
                                 "json")
        assert code == EXIT_OK
        assert [r["params"] for r in data["results"]] == \
            [[n] for n in range(3, 41)]

    def test_verify_flag_does_not_carry_over(self, capsys):
        code, data, _ = run_json(capsys, "spectrum", "petersen", "--verify")
        assert code == EXIT_OK and "numeric" in data
        code, data, _ = run_json(capsys, "spectrum", "petersen")
        assert code == EXIT_OK and "numeric" not in data

    def test_a_refusal_leaves_no_trace(self, capsys):
        argv = ["spectrum", "petersen", "--numeric", "--format", "text"]
        fresh = subprocess.run(
            [sys.executable, "-m", "distspec.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert (fresh.returncode, fresh.stderr) == (EXIT_OK, "")
        for refusal in ("spectrum petersen --numeric --verify",
                        "spectrum klein-bottle", "srg 5 7 0 1"):
            code, _, err = run(capsys, *refusal.split())
            assert code == EXIT_USAGE and err.startswith("error: ")
            assert run(capsys, *argv) == (EXIT_OK, fresh.stdout, "")


class TestSrg:
    def test_distance_values_beyond_the_float_range_are_refused(self, capsys):
        # the triangular graph T(m): its rho_D is about 1e400
        m = 10**200
        code, out, err = run(capsys, "srg", str(m * (m - 1) // 2),
                             str(2 * (m - 2)), str(m - 2), "4")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: value beyond the float range +-1.8e308\n")

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

    def test_verdicts_agree_with_the_printed_spectrum(self, capsys):
        sets = [p.as_tuple() for p in srg.feasible_parameter_sets(100)
                if p.mu > 0]
        # complete graphs K_n, at the least and the greatest mu
        sets += [(n, n - 1, n - 2, mu)
                 for n in range(2, 41) for mu in sorted({1, n - 1})]
        for params in sets:
            code, data, err = run_json(capsys, "srg", *map(str, params))
            assert (code, err) == (EXIT_OK, ""), params
            eigs = [(e["value"], e["mult"])
                    for e in data["distance"]["spectrum"]["eigs"]]
            pos = sum(m for v, m in eigs if v > 0)
            neg = sum(m for v, m in eigs if v < 0)
            assert data["one_positive_distance_eigenvalue"] is (pos == 1), \
                params
            assert data["optimistic"] is (pos > neg), params
            n, k = params[:2]
            if k == n - 1:
                assert eigs == [(n - 1, 1), (-1, n - 1)], params
                assert data["complement_connected"] is False, params
                assert "complement" not in data, params

    def test_complete_graph_document_does_not_depend_on_mu(self, capsys):
        # K_7's theta has multiplicity 0, so neither it nor its distance
        # counterpart, which would move with mu, is printed
        docs = []
        for mu in range(1, 7):
            code, data, err = run_json(capsys, "srg", "7", "6", "5", str(mu))
            assert (code, err, data.pop("params")) == (EXIT_OK, "",
                                                       [7, 6, 5, mu])
            docs.append(data)
        assert docs == [docs[0]] * 6
        assert docs[0]["adjacency"] == {"tau": -1.0, "m_tau": 6}
        assert "theta" not in docs[0]["distance"]
        assert docs[0]["distance"]["tau"] == -1.0

    def test_infeasible_reports_false(self, capsys):
        code, data, _ = run_json(capsys, "srg", "10", "3", "1", "1")
        assert code == EXIT_OK
        assert data["feasible"] is False
        assert "optimistic" not in data

    def test_invalid_parameters_are_usage_error(self, capsys):
        code, _, err = run(capsys, "srg", "10", "0", "0", "1")
        assert code == EXIT_USAGE
        assert "k" in err

    def test_square_discriminant_needs_no_factoring(self, capsys):
        # the triangular graph T(m) has discriminant (m - 2)^2
        m = 10**150
        start = time.perf_counter()
        code, data, err = run_json(capsys, "srg", str(m * (m - 1) // 2),
                                   str(2 * (m - 2)), str(m - 2), "4")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK and err == ""
        assert data["feasible"] is True
        assert data["adjacency"]["theta"] == 1e150


    def test_non_square_discriminant_over_the_cap_refused(self, capsys,
                                                          monkeypatch):
        # conference parameters have discriminant n, here 10**24 + 49
        def refuse(d):
            raise AssertionError("the radicand was factored")

        monkeypatch.setattr(spectra, "_squarefree_split", refuse)
        n = 10**24 + 49
        start = time.perf_counter()
        code, out, err = run(capsys, "srg", str(n), str((n - 1) // 2),
                             str((n - 5) // 4), str((n - 1) // 4))
        assert time.perf_counter() - start < 1
        assert srg.DISCRIMINANT_CAP == 10**21
        assert (code, out, err) == (
            EXIT_USAGE, "", f"error: discriminant {n} is not a square and "
                            f"exceeds the cap {10**21}\n")

    def test_prime_conference_order_in_a_second(self, capsys):
        # the radicand is the prime order itself, about 1e14: trial
        # division stops at its cube root, near 46,416
        n = 100000000000097
        start = time.perf_counter()
        code, data, err = run_json(capsys, "srg", str(n), str((n - 1) // 2),
                                   str((n - 5) // 4), str((n - 1) // 4))
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK and err == ""
        assert data["conference"] is True
        assert data["distance"]["spectrum"]["eigs"][1]["exact"] == \
            f"-3/2+1/2*sqrt({n})"


class TestSweepCaps:
    """`verify-trees` and `verify lemma-identities` check their bounds
    against `bounds.TREE_ORDER_CAP` and `closedforms.LEMMA_CAP` before any
    tree or identity is evaluated."""

    @pytest.fixture
    def no_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli, "trees_by_order", refuse)
        monkeypatch.setattr(cli, "lemma_identity", refuse)

    @pytest.mark.parametrize("argv, message", [
        ("verify-trees --max-order 40", "--max-order 40 is outside 2..14"),
        ("verify-trees --max-order 0", "--max-order 0 is outside 2..14"),
        ("verify lemma-identities --max 100000",
         "--max 100000 exceeds the lemma-identities cap 200"),
        ("verify lemma-identities --max 20 --max-b 201",
         "--max-b 201 exceeds the lemma-identities cap 200"),
    ])
    def test_over_cap_refused_before_any_work(self, capsys, no_sweeps, argv,
                                              message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        "verify lemma-identities --max 0 --max-b -5",
        "verify johnson --n 3 --r 5..6",
        "verify lollipop --k 300 --l 2",
    ])
    def test_empty_sweep_refused_before_any_work(self, capsys, monkeypatch,
                                                 no_sweeps, argv):
        # every point is outside the domain or over the cap: a sweep that
        # would check nothing is refused rather than reported as a pass
        def refuse(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(cli, "_spectrum_report", refuse)
        monkeypatch.setattr(cli, "_det_report", refuse)
        target = argv.split()[1]
        assert run(capsys, *argv.split()) == (
            EXIT_USAGE, "", f"error: the {target} sweep has no instance "
                            f"inside its domain and cap\n")

    @pytest.mark.parametrize("argv, points", [
        ("verify cycle --n 1501..10000000000", 9999998500),
        (f"verify cycle --n 1..{10**30}", 10**30),
        ("verify hamming --d 1..400 --n 2..252", 100400),
        ("verify lollipop --k 2..100002 --l 0", 100001),
    ])
    def test_oversized_grid_refused_before_the_walk(self, capsys, monkeypatch,
                                                    argv, points):
        def refuse(*params):
            raise AssertionError("a grid point was walked")

        target = argv.split()[1]
        monkeypatch.setitem(cli.FAMILIES, target, dataclasses.replace(
            cli.FAMILIES[target], domain=refuse, order=refuse))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert cli.SWEEP_POINT_CAP == 10**5
        assert (code, out, err) == (
            EXIT_USAGE, "", f"error: the {target} sweep has {points} grid "
                            f"points, over the cap 100000\n")

    def test_grid_point_cap_is_inclusive(self, capsys):
        # 100 x 1000 points, all outside the domain (r > n - 1): walked,
        # then refused as empty
        code, out, err = run(capsys, "verify", "johnson", "--n", "1..100",
                             "--r", "1001..2000")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: the johnson sweep has no instance "
                            "inside its domain and cap\n")

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        assert (bounds.TREE_ORDER_CAP, closedforms.LEMMA_CAP) == (14, 200)
        monkeypatch.setattr(cli, "trees_by_order", lambda n: iter(()))
        assert run(capsys, "verify-trees", "--max-order", "14") == \
            (EXIT_OK, "", "")
        monkeypatch.setattr(cli, "lemma_identity", lambda sel, **kw: (0, 0))
        code, out, _ = run(capsys, "verify", "lemma-identities", "--max",
                           "200", "--max-b", "200")
        assert code == EXIT_OK
        assert out.endswith(" instance(s), 0 failure(s)\n")


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

    def test_zero_forcing_searched_once(self, capsys, monkeypatch):
        orders = []
        search = bounds.zero_forcing_number

        def counted(g):
            orders.append(g.n)
            return search(g)

        monkeypatch.setattr(bounds, "zero_forcing_number", counted)
        monkeypatch.setattr(cli, "zero_forcing_number", counted)
        code, data, _ = run_json(capsys, "zf-bound", "hypercube", "4")
        assert code == EXIT_OK
        assert data["zero_forcing_complement"] == 12
        assert orders == [16]


# family name -> its connected generator cases of order 256 or less
MATRIX_CASES = {name: [p for p in points if cli.FAMILIES[name].domain(*p)
                       and cli.FAMILIES[name].order(*p) <= 256]
                for name, points in GENERATOR_CASES.items()}


class TestMatrixAndDet:
    def test_matrix_dump(self, capsys):
        code, out, _ = run(capsys, "matrix", "path", "4")
        assert code == EXIT_OK
        assert out == "4\n0 1 2 3\n1 0 1 2\n2 1 0 1\n3 2 1 0\n"

    @pytest.mark.parametrize("family, n", [("hypercube", 10), ("cycle", 1001)])
    def test_matrix_text_is_the_joined_bfs_lists(self, capsys, family, n):
        code, out, err = run(capsys, "matrix", family, str(n))
        assert (code, err) == (EXIT_OK, "")
        graph = cli.FAMILIES[family].gen(n)
        assert out == joined_matrix(distance_matrix(graph))

    @pytest.mark.parametrize("family", sorted(MATRIX_CASES))
    def test_matrix_text_is_the_referee_bfs(self, capsys, family):
        for params in MATRIX_CASES[family]:
            code, out, err = run(capsys, "matrix", family, *map(str, params))
            assert (code, err) == (EXIT_OK, ""), params
            ref = referee_graph(family, params)
            assert out == format_matrix([bfs_distances(ref, s)
                                         for s in range(ref.n)]), params

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


FLOAT_RANGE = "value beyond the float range +-1.8e308"


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
        ("matrix hamming 12 12",
         "order 8916100448256 exceeds the supported cap 1500"),
    ])
    def test_over_cap_refused_before_building(self, capsys, no_graphs,
                                              argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_cycle_over_the_entry_cap_is_refused(self, capsys, no_graphs,
                                                 flags):
        # 2,500,002 closed-form entries, and an order over the solver's cap:
        # the closed form refuses alone, and --verify builds first, so
        # there only the order's cap is named
        message = ("order 10000000 exceeds the supported cap 1500" if flags
                   else "cycle(10000000) has 2500002 spectrum entries, over "
                        "the cap 1000000")
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "cycle", "10000000", *flags)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_cycle_refusal_names_both_caps(self, capsys, no_graphs):
        # the closed form's refusal is the answer: no numeric route follows
        code, out, err = run(capsys, "spectrum", "cycle", "2000001")
        assert (code, out, err) == (
            EXIT_USAGE, "",
            "error: cycle(2000001) has 1000001 spectrum entries, over the cap "
            "1000000\n")

    @pytest.mark.parametrize("argv, message", [
        ("spectrum hypercube 100000000000", FLOAT_RANGE),
        ("spectrum halved-cube 100000000000", FLOAT_RANGE),
        ("spectrum hamming 100000000000 3", FLOAT_RANGE),
        ("spectrum doob 100000000000 0", FLOAT_RANGE),
        ("spectrum kneser 100000000000 50000000", FLOAT_RANGE),
        ("matrix hypercube 100000000000",
         "order over 2^1100 exceeds the supported cap 1500"),
        ("spectrum hypercube-leaf 100000000000",
         "order over 2^1100 exceeds the supported cap 1500"),
        ("zf-bound kneser 100000000 3000000",
         "order over 2^1100 exceeds the zero forcing search cap 24"),
        ("det johnson 100000000000 50000000000",
         "order over 2^1100 exceeds the exact search cap 256"),
        ("spectrum odd 100000000000 --verify",
         "order over 2^1100 exceeds the supported cap 1500"),
        ("verify hypercube --d 100000000000",
         "the hypercube sweep has no instance inside its domain and cap"),
        ("verify double-odd --r 100000000000",
         "the double-odd sweep has no instance inside its domain and cap"),
    ])
    def test_orders_past_every_cap_are_never_computed(self, capsys, no_graphs,
                                                      argv, message):
        # 2**(10**11) alone would take 12.5 GB; C(10**8, 3 * 10**6) minutes
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("spectrum kneser 700 300", None),
        ("spectrum odd 505", None),
        ("spectrum odd 510", FLOAT_RANGE),
        ("spectrum odd 511", FLOAT_RANGE),
    ])
    def test_kneser_closed_forms_up_to_the_float_range_are_quick(
            self, capsys, no_graphs, argv, message):
        # orders C(700, 300) ~ 2^685 up to C(1023, 511) ~ 2^1018, all under
        # the float range: the Johnson recurrence takes O(r^2) integer steps
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 5
        if message:
            assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
        else:
            assert (code, err) == (EXIT_OK, "")
            assert "kneser(" in json.loads(out)["closed_form"]["formula"]

    def test_a_sweep_drops_orders_past_every_cap(self, capsys):
        # 4**(2m) passes 2**1100 from m = 276; only m = 1, 2 are in the cap
        code, data, err = run_json(capsys, "verify", "doob", "--m", "1..600",
                                   "--d", "0", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert (data["instances"], data["dropped"]) == (2, 598)

    def test_verify_without_a_closed_form_builds_nothing(self, capsys,
                                                         no_graphs):
        code, out, err = run(capsys, "spectrum", "path", "5", "--verify")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: path has no closed-form spectrum to verify\n")

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
        ("det hypercube-leaf 0", "hypercube-leaf needs d >= 1"),
    ])
    def test_bad_parameters_keep_the_generator_message(self, capsys, argv,
                                                       message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        f"spectrum {family} --format {fmt}"
        for family in ("hypercube 1100", "halved-cube 1100", "doob 300 500")
        for fmt in ("json", "text")])
    def test_values_beyond_the_float_range_are_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: value beyond the float range +-1.8e308\n")

    def test_closed_form_beyond_the_float_range_is_not_evaluated(
            self, capsys, no_graphs):
        # evaluating s(20000, 10000) alone takes about half a minute
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "johnson", "20000", "10000")
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: value beyond the float range +-1.8e308\n")
