"""Round-trip, comparison, and gating logic of bench artifacts."""

from __future__ import annotations

import pytest

from repro.bench.artifacts import (
    SCHEMA,
    BenchArtifact,
    BenchRecord,
    collect_environment,
    compare_artifacts,
    load_artifact,
)


def rec(name, min_s, extra=None):
    return BenchRecord(name=name, group=None, mean=min_s * 1.1, min=min_s,
                       median=min_s * 1.05, stddev=min_s * 0.01, rounds=100,
                       iterations=1, extra=extra or {})


def artifact(records):
    return BenchArtifact(name="kernels", created_utc="2026-07-30T00:00:00+00:00",
                         environment={"python": "3.11"}, benchmarks=records)


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        art = artifact([rec("test_a[shards]", 2e-4, {"layout": "shards"}),
                        rec("test_a[stacked]", 1e-4, {"layout": "stacked"})])
        path = art.write(tmp_path / "BENCH_kernels.json")
        loaded = load_artifact(path)
        assert loaded.schema == SCHEMA
        assert loaded.names() == art.names()
        assert loaded.record("test_a[shards]").extra == {"layout": "shards"}
        assert loaded.record("test_a[stacked]").min == pytest.approx(1e-4)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": "other/9", "name": "x", '
                        '"created_utc": "", "environment": {}, '
                        '"benchmarks": []}')
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)

    def test_missing_record_raises(self):
        with pytest.raises(KeyError):
            artifact([]).record("nope")


class TestComparison:
    def test_speedup(self):
        art = artifact([rec("test_a[shards]", 3e-4),
                        rec("test_a[stacked]", 1e-4)])
        assert (art.speedup("test_a[shards]", "test_a[stacked]")
                == pytest.approx(3.0))

    def test_no_regression_within_threshold(self):
        base = artifact([rec("test_a", 1e-4)])
        cur = artifact([rec("test_a", 1.15e-4)])
        assert compare_artifacts(base, cur, threshold=0.20) == []

    def test_regression_detected(self):
        base = artifact([rec("test_a", 1e-4), rec("test_b", 1e-4)])
        cur = artifact([rec("test_a", 1.5e-4), rec("test_b", 1e-4)])
        regs = compare_artifacts(base, cur, threshold=0.20)
        assert [r.name for r in regs] == ["test_a"]
        assert regs[0].ratio == pytest.approx(1.5)

    def test_added_and_removed_benchmarks_ignored(self):
        base = artifact([rec("gone", 1e-4), rec("kept", 1e-4)])
        cur = artifact([rec("kept", 1e-4), rec("new", 9.0)])
        assert compare_artifacts(base, cur) == []


class TestEnvironment:
    def test_collect_environment_keys(self):
        env = collect_environment()
        for key in ("repro", "python", "numpy", "scipy"):
            assert key in env


class TestCompareBenchCli:
    """scripts/compare_bench.py gating semantics through its main()."""

    @pytest.fixture
    def cli(self):
        import importlib.util
        from pathlib import Path
        script = (Path(__file__).resolve().parents[2]
                  / "scripts" / "compare_bench.py")
        spec = importlib.util.spec_from_file_location("compare_bench", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_regression_fails(self, cli, tmp_path):
        base = artifact([rec("test_a", 1e-4)])
        cur = artifact([rec("test_a", 2e-4)])
        b = str(base.write(tmp_path / "base.json"))
        c = str(cur.write(tmp_path / "cur.json"))
        assert cli.main([b, c]) == 1
        assert cli.main([b, b]) == 0

    def test_disjoint_names_are_not_green(self, cli, tmp_path):
        """A benchmark rename must not make the gate pass vacuously."""
        base = artifact([rec("test_old", 1e-4)])
        cur = artifact([rec("test_new", 9.0)])
        b = str(base.write(tmp_path / "base.json"))
        c = str(cur.write(tmp_path / "cur.json"))
        assert cli.main([b, c]) == 1
        # ... unless the rename is declared intentional
        assert cli.main([b, c, "--allow-disjoint"]) == 0

    def test_one_sided_entries_reported_not_errored(self, cli, tmp_path,
                                                    capsys):
        """Benchmarks present in only one artifact are new/removed churn,
        not failures; the shared set still gates."""
        base = artifact([rec("kept", 1e-4), rec("gone", 1e-4)])
        cur = artifact([rec("kept", 1e-4), rec("fresh", 9.0)])
        b = str(base.write(tmp_path / "base.json"))
        c = str(cur.write(tmp_path / "cur.json"))
        assert cli.main([b, c]) == 0
        out = capsys.readouterr().out
        assert "new benchmark (not gated): fresh" in out
        assert "removed benchmark: gone" in out
        # a regression in the shared set still fails alongside churn
        cur2 = artifact([rec("kept", 9e-4), rec("fresh", 9.0)])
        c2 = str(cur2.write(tmp_path / "cur2.json"))
        assert cli.main([b, c2]) == 1

    def test_speedup_gate(self, cli, tmp_path):
        art = artifact([rec("test_a[shards]", 3e-4),
                        rec("test_a[stacked]", 1e-4)])
        p = str(art.write(tmp_path / "a.json"))
        assert cli.main([p, "--check-speedup", "test_a"]) == 0
        assert cli.main([p, "--check-speedup", "test_a",
                         "--min-speedup", "5.0"]) == 1

    def test_missing_speedup_entries_hard_error(self, cli, tmp_path,
                                                capsys):
        """A candidate missing entries referenced by --check-speedup is a
        configuration error (exit 2, every missing entry named), never a
        silent pass."""
        art = artifact([rec("test_a[shards]", 3e-4),
                        rec("test_a[stacked]", 1e-4)])
        p = str(art.write(tmp_path / "a.json"))
        assert cli.main([p, "--check-speedup", "test_missing"]) == 2
        out = capsys.readouterr().out
        assert "ERROR" in out and p in out
        assert "test_missing[shards]" in out
        assert "test_missing[stacked]" in out
        # one present layout leg is not enough — both are required
        half = artifact([rec("test_a[shards]", 3e-4)])
        ph = str(half.write(tmp_path / "half.json"))
        assert cli.main([ph, "--check-speedup", "test_a"]) == 2
        out = capsys.readouterr().out
        assert "test_a[stacked]" in out and "test_a[shards]" not in \
            out.split("required by --check-speedup:")[1]
        # the two-artifact form blames the *candidate* file
        assert cli.main([p, ph, "--check-speedup", "test_a",
                         "--allow-disjoint"]) == 2
        assert ph in capsys.readouterr().out
