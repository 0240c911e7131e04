"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import load_database, save_database

from .conftest import build_tiny_star


@pytest.fixture
def tiny_archive(tmp_path):
    path = tmp_path / "tiny.npz"
    save_database(build_tiny_star(), path)
    return str(path)


class TestGenerate:
    def test_generate_ssb(self, tmp_path, capsys):
        out = str(tmp_path / "ssb.npz")
        code = main(["generate", "--benchmark", "ssb", "--sf", "0.001",
                     "--out", out])
        assert code == 0
        assert "lineorder=6,000" in capsys.readouterr().out
        db = load_database(out)
        assert db.table("lineorder").num_rows == 6000

    def test_generate_tpch(self, tmp_path, capsys):
        out = str(tmp_path / "tpch.npz")
        assert main(["generate", "--benchmark", "tpch", "--sf", "0.001",
                     "--out", out]) == 0
        assert "lineitem" in capsys.readouterr().out


class TestQuery:
    def test_query_prints_rows(self, tiny_archive, capsys):
        code = main(["query", tiny_archive,
                     "SELECT d_year, sum(lo_revenue) AS s "
                     "FROM lineorder, date GROUP BY d_year ORDER BY d_year"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1997" in out and "170" in out

    def test_query_limit_notice(self, tiny_archive, capsys):
        main(["query", tiny_archive,
              "SELECT lo_orderkey FROM lineorder ORDER BY lo_orderkey",
              "--limit", "3"])
        assert "more rows" in capsys.readouterr().out

    def test_query_explain(self, tiny_archive, capsys):
        code = main(["query", tiny_archive,
                     "SELECT count(*) FROM lineorder, customer "
                     "WHERE c_region = 'ASIA'", "--explain"])
        assert code == 0
        assert "root: lineorder" in capsys.readouterr().out

    def test_query_variant(self, tiny_archive, capsys):
        code = main(["query", tiny_archive,
                     "SELECT count(*) AS n FROM lineorder",
                     "--variant", "AIRScan_R"])
        assert code == 0
        assert "AIRScan_R" in capsys.readouterr().out

    def test_query_csv_output(self, tiny_archive, tmp_path, capsys):
        out_csv = str(tmp_path / "result.csv")
        main(["query", tiny_archive,
              "SELECT d_year, count(*) AS n FROM lineorder, date "
              "GROUP BY d_year", "--csv", out_csv])
        text = open(out_csv).read()
        assert text.startswith("d_year|n")

    def test_parse_error_is_reported(self, tiny_archive, capsys):
        code = main(["query", tiny_archive, "SELEKT nonsense"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_repeat_reports_warm_cache_breakdown(self, tiny_archive, capsys):
        code = main(["query", tiny_archive,
                     "SELECT d_year, count(*) AS n FROM lineorder, date "
                     "GROUP BY d_year", "--repeat", "3", "--breakdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "cache: plan hits=1" in out

    def test_no_cache_flag(self, tiny_archive, capsys):
        code = main(["query", tiny_archive,
                     "SELECT count(*) AS n FROM lineorder",
                     "--repeat", "2", "--breakdown", "--no-cache"])
        assert code == 0
        assert "cache:" not in capsys.readouterr().out


class TestValidate:
    def test_consistent(self, tiny_archive, capsys):
        assert main(["validate", tiny_archive]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_violation_detected(self, tmp_path, capsys):
        db = build_tiny_star()
        db.table("customer").delete([0])  # still referenced
        path = tmp_path / "broken.npz"
        save_database(db, path)
        assert main(["validate", str(path)]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestSSBCommand:
    def test_runs_all_queries(self, tmp_path, capsys):
        out = str(tmp_path / "ssb.npz")
        main(["generate", "--benchmark", "ssb", "--sf", "0.002",
              "--out", out])
        capsys.readouterr()
        assert main(["ssb", out, "--repeat", "1", "--no-cache"]) == 0
        text = capsys.readouterr().out
        assert "Q1.1" in text and "Q4.3" in text and "AVG" in text


@pytest.fixture(scope="module")
def ssb_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ssb.npz"
    main(["generate", "--benchmark", "ssb", "--sf", "0.002",
          "--out", str(path)])
    return str(path)


class TestCacheCommand:
    def test_prints_tier_statistics(self, ssb_archive, capsys):
        code = main(["cache", ssb_archive, "--queries", "Q1.1,Q2.1",
                     "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "query cache tiers" in out
        for tier in ("plan", "leaf", "axis", "result"):
            assert tier in out
        assert "cold" in out and "warm" in out
