"""Command-line front-end tests.

Everything runs in-process through main(argv) so exit codes, stdout,
and stderr can be asserted exactly.  Two subprocess checks cover the
`lpcodes` console script: one reads its entry from pyproject.toml's
[project.scripts] and runs the launcher an installer writes for it, so
it needs no installed package; the other runs the script from PATH and
is skipped where none is installed.  A third closes the pipe it reads
stdout from early, as `| head` does.  Table output is compared against
the frozen rows in reference_data, and the search/analyze commands are
checked for agreement with the library calls they wrap.
"""

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lpcodes
from lpcodes import cli
from lpcodes.balls import ball_points
from lpcodes.cli import (
    compact_basis,
    main,
    parse_basis,
    report_csv_rows,
    report_to_dict,
)
from lpcodes.families import BEST_COVERING_DENSITY
from lpcodes.lattices import canonical_form
from lpcodes.search import SearchQuery, run_search
from reference_data import (
    DISTSET_2D_PREFIX,
    EXAMPLE_BASIS,
    EXAMPLE_R_COV_POW,
    EXAMPLE_R_POW,
    FAMILY_A_R3_CATALOG_TWIN,
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    TABLE4_ROWS,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# The directory that holds the imported lpcodes package (`src/`).
PACKAGE_ROOT = Path(lpcodes.__file__).resolve().parents[1]


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def declared_console_script(name):
    """The `module:attr` target of `name` in pyproject.toml's [project.scripts].

    pyproject.toml is found beside PACKAGE_ROOT, so the entry checked is
    the one shipped with the code under test, whatever the working
    directory.
    """
    text = (PACKAGE_ROOT.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = line.split("=", 1)
                scripts[key.strip().strip('"')] = value.strip().strip('"')
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[name]


class TestExitCodes:
    def test_success_is_zero_with_empty_stderr(self, capsys):
        rc, out, err = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                               "--rpow", "5")
        assert rc == 0
        assert err == ""
        assert json.loads(out)["mu"] == 21

    def test_missing_required_flag_names_it(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "--dim", "2",
                               "--basis", "1,2;0,5")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert "--p" in err

    def test_bad_flag_value_names_it(self, capsys):
        rc, _, err = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                             "--rpow", "-3")
        assert rc == 1
        assert "--rpow" in err

    def test_ragged_basis_is_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                             "--basis", "1,2;0")
        assert rc == 1
        assert "--basis" in err

    def test_dim_basis_mismatch(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--dim", "3", "--p", "2",
                             "--basis", "1,2;0,5")
        assert rc == 1
        assert "--dim" in err

    def test_singular_basis(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                             "--basis", "1,2;2,4")
        assert rc == 1
        assert "--basis" in err

    @pytest.mark.parametrize("basis", ["1,2;2,4", "1,0;0,0"])
    def test_polyomino_singular_basis(self, capsys, basis):
        rc, out, err = run_cli(capsys, "polyomino", "--p", "2", "--r", "3",
                               "--basis", basis)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --basis:")

    def test_polyomino_is_planar_only(self, capsys):
        rc, _, err = run_cli(capsys, "polyomino", "--dim", "3", "--p", "2",
                             "--r", "2")
        assert rc == 1
        assert "--dim" in err

    def test_bounds_reject_theta_at_most_one(self, capsys):
        rc, _, err = run_cli(capsys, "bounds", "--dim", "2", "--p", "2",
                             "--theta-min", "0.9")
        assert rc == 1
        assert "--theta-min" in err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_bounds_reject_non_finite_theta(self, capsys, theta):
        rc, out, err = run_cli(capsys, "bounds", "--dim", "2", "--p", "2",
                               "--theta-min", theta)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --theta-min:")

    def test_search_unopenable_checkpoint_names_it(self, capsys, tmp_path):
        ck = str(tmp_path / "missing_dir" / "ck.tsv")
        rc, out, err = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                               "--max-volume", "10", "--checkpoint", ck)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --checkpoint:")

    def test_search_malformed_checkpoint_names_it(self, capsys, tmp_path):
        ck = tmp_path / "ck.tsv"
        ck.write_text("1\t1\t0\n2\tzero\t0\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                               "--max-volume", "10", "--checkpoint", str(ck))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --checkpoint:")
        assert "zero" in err
        assert ck.read_text(encoding="utf-8") == "1\t1\t0\n2\tzero\t0\n"

    def test_family_hypothesis_violation(self, capsys):
        rc, _, err = run_cli(capsys, "family", "--kind", "C", "--r", "3",
                             "--p", "2")
        assert rc == 1
        assert "--kind C" in err

    def test_search_range_validation(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                             "--min-volume", "5", "--max-volume", "2")
        assert rc == 1
        assert "--min-volume" in err

    @pytest.mark.parametrize("volumes", [("11", "12"), ("1", "3")])
    def test_search_unsupported_dimension_names_dim(self, capsys, volumes):
        lo, hi = volumes
        rc, out, err = run_cli(capsys, "search", "--dim", "5", "--p", "2",
                               "--min-volume", lo, "--max-volume", hi)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --dim:")

    def test_search_bad_jobs_variable_names_it(self, capsys, monkeypatch):
        monkeypatch.setenv("QP_JOBS", "abc")
        rc, out, err = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                               "--max-volume", "5")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert "QP_JOBS" in err

    def test_search_checkpoint_of_another_query_names_it(self, capsys, tmp_path):
        ck = str(tmp_path / "p3.tsv")
        rc, _, _ = run_cli(capsys, "search", "--dim", "2", "--p", "3",
                           "--max-volume", "8", "--checkpoint", ck)
        assert rc == 0
        rc, out, err = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                               "--max-volume", "8", "--checkpoint", ck)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --checkpoint:")

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "out.json"
        rc, _, err = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                             "--rpow", "5", "--out", str(target))
        assert rc == 1
        assert "--out" in err

    @pytest.mark.parametrize("where", ["missing_dir/out.json", "."])
    def test_unusable_out_is_refused_before_the_search(
        self, capsys, monkeypatch, tmp_path, where
    ):
        def search_must_not_run(*args, **kwargs):
            pytest.fail("the search ran before --out was checked")

        monkeypatch.setattr(cli, "run_search", search_must_not_run)
        target = tmp_path / where
        rc, out, err = run_cli(capsys, "search", "--dim", "3", "--p", "2",
                               "--max-volume", "400", "--out", str(target))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --out:")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_fails_to_open_names_it(self, capsys, tmp_path):
        # The directory is writable, so only the open itself fails.
        target = tmp_path / ("x" * 300)
        rc, out, err = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                               "--rpow", "5", "--out", str(target))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --out:")

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run_cli(capsys, "frobnicate")
        assert rc == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize("basis", ["[[1.5,0],[0,2]]", "[[true,0],[0,2]]"])
    def test_non_integer_json_entry_names_basis(self, capsys, basis):
        rc, out, err = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                               "--basis", basis)
        assert rc == 1
        assert out == ""
        assert "--basis" in err

    def test_huge_exponent_analyzes(self, capsys):
        # R_pow = 2^1100 is past the float range, so neither the integer
        # roots nor the display roots may go through float(R_pow).
        rc, out, err = run_cli(capsys, "analyze", "--dim", "2", "--p", "1100",
                               "--basis", "1,0;0,5")
        assert (rc, err) == (0, "")
        a = json.loads(out)["analysis"]
        assert (a["r_pow"], a["R_pow"], a["t"]) == (0, 2**1100, 3)
        assert (a["r"], a["R"], a["real_pack_radius"]) == (0.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "dim,p,theta", [("2", "1100", "1.5"), ("3", "400", "1.4")]
    )
    def test_huge_exponent_bounds(self, capsys, dim, p, theta):
        # The scan reaches pow-radii past the float range (2^1100 at
        # p = 1100), so the bound rows may not take float(r_pow) roots.
        rc, out, err = run_cli(capsys, "bounds", "--dim", dim, "--p", p,
                               "--theta-min", theta)
        assert (rc, err) == (0, "")
        lines = out.strip().splitlines()
        assert lines[-2].startswith("# r_pow_max=")
        assert lines[-1].startswith("# volume_max=")
        radii = [int(r["r_pow"]) for r in parse_csv("\n".join(lines[:-2]))]
        assert radii == sorted(radii) and max(radii) > 2**1024

    def test_internal_error_is_two(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_ball", boom)
        rc, _, err = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                             "--rpow", "5")
        assert rc == 2
        assert err.startswith("internal error: RuntimeError: boom")


class TestBasisParsing:
    def test_round_trip_through_compact_form(self):
        bases = (
            ((1, 5), (0, 24)),
            ((5, 11), (13, 1)),
            ((2, -3), (-4, 1)),
            ((1, 0, 3), (0, 1, 9), (0, 0, 26)),
        )
        for b in bases:
            assert parse_basis(compact_basis(b)) == b

    def test_json_rows_accepted(self):
        assert parse_basis("[[1,5],[0,24]]") == ((1, 5), (0, 24))

    def test_rejects_garbage_naming_the_flag(self):
        for text in ("1,2;0", "[]", "[[1,2],[3]]", "pancake", "[[1,2],[3,[4]]]"):
            with pytest.raises(cli.CliError) as info:
                parse_basis(text, flag="--basis")
            assert "--basis" in str(info.value)


class TestAnalyzeCommand:
    def test_worked_example_json(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                             "--basis", compact_basis(EXAMPLE_BASIS))
        assert rc == 0
        payload = json.loads(out)
        assert payload["basis"] == [list(r) for r in EXAMPLE_BASIS]
        a = payload["analysis"]
        assert a["det"] == 138
        assert a["r_pow"] == EXAMPLE_R_POW
        assert a["R_pow"] == EXAMPLE_R_COV_POW
        assert a["t"] == 5

    def test_json_and_compact_inputs_agree(self, capsys):
        rc1, out1, _ = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                               "--basis", "5,11;13,1")
        rc2, out2, _ = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                               "--basis", "[[5,11],[13,1]]")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_csv_carries_the_same_numbers(self, capsys):
        _, json_out, _ = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                                 "--basis", "5,11;13,1")
        _, csv_out, _ = run_cli(capsys, "analyze", "--dim", "2", "--p", "2",
                                "--basis", "5,11;13,1", "--format", "csv")
        a = json.loads(json_out)["analysis"]
        (row,) = parse_csv(csv_out)
        for field in ("det", "t", "r_pow", "R_pow", "mu_r", "mu_R"):
            assert row[field] == str(a[field])
        assert row["disc_pack_density"] == a["disc_pack_density"]
        assert row["basis"] == compact_basis(
            tuple(tuple(r) for r in a["basis"])
        )


class TestTables:
    def table(self, capsys, which):
        rc, out, err = run_cli(capsys, "tables", "--which", which)
        assert rc == 0 and err == ""
        return parse_csv(out)

    def test_table1(self, capsys):
        rows = self.table(capsys, "table1")
        assert len(rows) == len(TABLE1_ROWS)
        for row, want in zip(rows, TABLE1_ROWS):
            block, r_pow, mu_val, delta, theta7, theta8 = want
            assert row["block"] == block
            assert int(row["r_pow"]) == r_pow
            assert int(row["mu"]) == mu_val
            assert float(row["delta_lower"]) == pytest.approx(delta, abs=1e-12)
            assert float(row["theta_upper_7"]) == pytest.approx(theta7, abs=1e-12)
            if theta8 is None:
                assert row["theta_upper_8"] == ""
            else:
                assert float(row["theta_upper_8"]) == pytest.approx(
                    theta8, abs=1e-12
                )

    def test_table2(self, capsys):
        rows = self.table(capsys, "table2")
        assert len(rows) == len(TABLE2_ROWS)
        for row, want in zip(rows, TABLE2_ROWS):
            basis, t, r_pow, big_pow, pack, cover, rr, rc_, dp, dc = want
            assert row["basis"] == basis
            assert int(row["t"]) == t
            assert int(row["r_pow"]) == r_pow
            assert int(row["R_pow"]) == big_pow
            assert row["disc_pack_density"] == f"{pack.numerator}/{pack.denominator}"
            assert row["disc_cover_density"] == f"{cover.numerator}/{cover.denominator}"
            assert float(row["real_pack_radius"]) == pytest.approx(rr, abs=1e-12)
            assert float(row["real_cover_radius"]) == pytest.approx(rc_, abs=1e-12)
            assert float(row["real_pack_density"]) == pytest.approx(dp, abs=1e-12)
            assert float(row["real_cover_density"]) == pytest.approx(dc, abs=1e-12)
            assert float(row["r"]) == pytest.approx(math.sqrt(r_pow), abs=1e-4)
            assert float(row["R"]) == pytest.approx(math.sqrt(big_pow), abs=1e-4)

    def test_table3(self, capsys):
        rows = self.table(capsys, "table3")
        assert [(int(r["r"]), int(r["min_p"])) for r in rows] == list(TABLE3_ROWS)

    def test_table4(self, capsys):
        rows = self.table(capsys, "table4")
        got = [
            (int(r["r"]), tuple(int(v) for v in r["p_values"].split()))
            for r in rows
        ]
        assert got == list(TABLE4_ROWS)


class TestSearchCommand:
    def test_csv_agrees_with_library(self, capsys):
        rc, out, _ = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                             "--max-volume", "15", "--format", "csv")
        assert rc == 0
        report = run_search(SearchQuery(2, 2, 1, 15))
        want = [
            {k: ("" if v is None else str(v)) for k, v in row.items()}
            for row in report_csv_rows(report)
        ]
        assert parse_csv(out) == want

    def test_json_agrees_with_library(self, capsys):
        rc, out, _ = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                             "--max-volume", "15")
        assert rc == 0
        assert json.loads(out) == report_to_dict(run_search(SearchQuery(2, 2, 1, 15)))

    def test_jobs_env_variable_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QP_JOBS", "2")
        _, out_env, _ = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                                "--max-volume", "12")
        _, out_one, _ = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                                "--max-volume", "12", "--jobs", "1")
        assert out_env == out_one

    def test_checkpoint_resume_is_transparent(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.tsv")
        args = ("search", "--dim", "2", "--p", "2", "--max-volume", "12",
                "--format", "csv", "--checkpoint", ck)
        _, fresh, _ = run_cli(capsys, *args)
        _, resumed, _ = run_cli(capsys, *args)
        assert fresh == resumed
        rc, out, _ = run_cli(capsys, "search", "--dim", "2", "--p", "2",
                             "--max-volume", "12", "--checkpoint", ck)
        assert rc == 0
        assert "resumed" in json.loads(out)["bound_provenance"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_writes_one_stderr_line_per_computed_volume(
        self, capsys, tmp_path, jobs
    ):
        def progress_lines(err):
            return [dict(f.split("=") for f in line.split()) for line in err.splitlines()]

        args = ("search", "--dim", "3", "--p", "2", "--max-volume", "30",
                "--jobs", jobs)
        rc, plain, err = run_cli(capsys, *args)
        assert (rc, err) == (0, "")
        ck = str(tmp_path / "ck.tsv")
        rc, out, err = run_cli(capsys, *args, "--progress", "--checkpoint", ck)
        assert rc == 0 and out == plain
        lines = progress_lines(err)
        keys = ["volume", "hits", "survivors", "passes", "ms"]
        assert all(list(line) == keys for line in lines)
        assert sorted(int(line["volume"]) for line in lines) == list(range(1, 31))
        counts = json.loads(plain)["counts"]
        assert sum(int(line["survivors"]) for line in lines) == counts[
            "injectivity_survivors"]
        assert sum(int(line["passes"]) for line in lines) == counts["covering_survivors"]
        # Times keep one decimal, where the checkpoint keeps whole millis.
        assert all(re.fullmatch(r"\d+\.\d", line["ms"]) for line in lines)
        checkpoint = Path(ck).read_text(encoding="utf-8").splitlines()
        assert all(row.split("\t")[2].isdecimal() for row in checkpoint)
        # A resumed run computes only the hit-bearing volumes again.
        hit_bearing = sorted(int(line["volume"]) for line in lines if line["hits"] != "0")
        rc, out, err = run_cli(capsys, *args, "--progress", "--checkpoint", ck)
        assert rc == 0
        assert sorted(int(line["volume"]) for line in progress_lines(err)) == hit_bearing

    def test_missing_checkpoint_ignores_a_leftover_header(self, capsys, tmp_path):
        """A checkpoint file that is gone holds no records, so a header
        file left beside it from another query does not block a fresh run."""
        ck = tmp_path / "ck.tsv"
        (tmp_path / "ck.tsv.query").write_text("n=4 p=2 t_max=1\n", encoding="utf-8")
        args = ("search", "--dim", "2", "--p", "3", "--max-volume", "12")
        _, fresh, _ = run_cli(capsys, *args)
        rc, out, err = run_cli(capsys, *args, "--checkpoint", str(ck))
        assert (rc, err) == (0, "")
        assert out == fresh
        assert (tmp_path / "ck.tsv.query").read_text() == "n=2 p=3 t_max=1\n"


class TestPolyominoCommand:
    def test_plus_pentomino(self, capsys):
        rc, out, _ = run_cli(capsys, "polyomino", "--dim", "2", "--p", "1",
                             "--r", "1")
        assert rc == 0
        assert out.startswith("<svg xmlns=")
        assert 'transform="scale(1,-1)"' in out
        assert out.count("<rect") == 5

    def test_tiling_renders_25_translates(self, capsys):
        _, solo, _ = run_cli(capsys, "polyomino", "--dim", "2", "--p", "2",
                             "--r", "2")
        base_count = solo.count("<rect")
        assert base_count == len(ball_points(2, 2, 4))
        _, tiled, _ = run_cli(capsys, "polyomino", "--dim", "2", "--p", "2",
                              "--r", "2", "--basis", "1,5;0,13")
        assert tiled.count("<rect") == base_count * 25
        assert tiled.count('fill="#555"') == base_count

    def test_fractional_radius(self, capsys):
        rc, out, _ = run_cli(capsys, "polyomino", "--dim", "2", "--p", "2",
                             "--r", "5/2")
        assert rc == 0
        assert out.count("<rect") == len(ball_points(2, 2, 6))

    def test_output_is_deterministic_and_out_flag_matches(self, capsys, tmp_path):
        args = ("polyomino", "--dim", "2", "--p", "2", "--r", "3",
                "--basis", "1,2;0,5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        target = tmp_path / "tile.svg"
        rc, out, _ = run_cli(capsys, *args, "--out", str(target))
        assert rc == 0
        assert out == ""
        assert target.read_text() == first


class TestJsonOutput:
    SEARCH = ("search", "--dim", "2", "--p", "2", "--max-volume", "30",
              "--t-max", "1000000000", "--no-dedupe")

    def test_streamed_json_equals_one_dumps(self, capsys, tmp_path):
        for argv in (
            ("analyze", "--dim", "2", "--p", "2", "--basis", "1,5;0,24"),
            self.SEARCH,
            ("ball", "--dim", "3", "--p", "2", "--rpow", "5", "--list"),
            ("distset", "--dim", "2", "--p", "3", "--limit", "300"),
        ):
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            target = tmp_path / "out.json"
            assert run_cli(capsys, *argv, "--out", str(target))[0] == 0
            assert target.read_text() == out, argv

    def test_search_json_is_the_report_dumped(self, capsys):
        _, out, _ = run_cli(capsys, *self.SEARCH)
        report = run_search(SearchQuery(2, 2, 1, 30, t_max=10**9, dedupe=False))
        assert out == json.dumps(report_to_dict(report), indent=2) + "\n"


class TestSmallCommands:
    def test_ball_listing(self, capsys):
        _, out, _ = run_cli(capsys, "ball", "--dim", "2", "--p", "2",
                            "--rpow", "5", "--list")
        payload = json.loads(out)
        assert payload["mu"] == 21
        assert payload["r"] == pytest.approx(math.sqrt(5), abs=1e-4)
        assert [tuple(pt) for pt in payload["points"]] == list(ball_points(2, 2, 5))

    def test_distset_payload(self, capsys):
        _, out, _ = run_cli(capsys, "distset", "--dim", "2", "--p", "2",
                            "--limit", "50")
        payload = json.loads(out)
        assert payload["elements"][0] == 0
        assert tuple(payload["elements"][1:]) == DISTSET_2D_PREFIX
        assert payload["count"] == len(DISTSET_2D_PREFIX) + 1

    def test_family_verify(self, capsys):
        rc, out, _ = run_cli(capsys, "family", "--kind", "A", "--r", "3",
                             "--p", "2", "--verify")
        assert rc == 0
        payload = json.loads(out)
        assert payload["det"] == 33
        assert payload["verified"] is True
        basis = tuple(tuple(row) for row in payload["basis"])
        assert canonical_form(basis) == canonical_form(FAMILY_A_R3_CATALOG_TWIN)

    def test_bounds_scan_trailer(self, capsys):
        theta = repr(BEST_COVERING_DENSITY[(2, 2)])
        rc, out, _ = run_cli(capsys, "bounds", "--dim", "2", "--p", "2",
                             "--theta-min", theta)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[-2] == "# r_pow_max=74"
        assert lines[-1] == "# volume_max=242"
        rows = parse_csv("\n".join(lines[:-2]))
        radii = [int(r["r_pow"]) for r in rows]
        assert radii == sorted(radii)
        assert radii[-1] == 74

    @pytest.mark.parametrize("dim", ["3", "4"])
    def test_bounds_delta_lower_is_zero_when_the_inner_ball_is_empty(self, capsys, dim):
        rc, out, _ = run_cli(capsys, "bounds", "--dim", dim, "--p", "1",
                             "--theta-min", "1.5")
        assert rc == 0
        first = parse_csv(out)[0]
        assert (first["r_pow"], first["delta_lower"]) == ("1", "0.0000")

    def test_console_script_is_installed(self, tmp_path):
        module, _, attr = declared_console_script("lpcodes").partition(":")
        launcher = (f"import sys\nfrom {module} import {attr}\n"
                    f"sys.argv[0] = 'lpcodes'\nsys.exit({attr}())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
        )

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-c", launcher, *argv],
                capture_output=True, text=True, cwd=tmp_path, env=env,
            )

        ok = run("ball", "--dim", "2", "--p", "2", "--rpow", "5")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["mu"] == 21
        bad = run("ball", "--dim", "2", "--p", "2", "--rpow", "-3")
        assert bad.returncode == 1
        assert "--rpow" in bad.stderr

    @pytest.mark.skipif(shutil.which("lpcodes") is None,
                        reason="lpcodes console script not installed")
    def test_console_script_on_path(self):
        proc = subprocess.run(
            ["lpcodes", "ball", "--dim", "2", "--p", "2", "--rpow", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mu"] == 21


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lpcodes.cli", "distset", "--dim", "2",
         "--p", "2", "--limit", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["elements"] == [0, 1, 2, 4, 5, 8, 9, 10]


def test_a_reader_closing_stdout_early_is_no_error():
    # About 0.5 MB of JSON, far more than a pipe buffers, so the writer
    # meets the closed pipe: `distset ... | head -c 20`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lpcodes.cli", "distset", "--dim", "2",
         "--p", "2", "--limit", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20).startswith(b"{")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""
