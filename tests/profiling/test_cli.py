"""``repro profile``: sources, exit codes, and byte-clean --fold output.

Exit-code contract (mirrors ``repro regress``): 0 = ok/identical,
1 = profiles differ (``--diff`` only), 2 = usage or unreadable source.
``--fold`` writes nothing but folded stacks to stdout, and loading a
run directory is byte-identical whether the artifacts are merged, raw
shard parts, or the un-folded trace/metrics JSONL lines.
"""

import json

import pytest

from repro.bench import build_runtime_fleet, run_darpa_over_fleet_parallel
from repro.profiling import Profile, load_profile, run_profile
from repro.profiling.io import ProfileSourceError
from tests.profiling.test_diff import fold


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("run")
    sessions = build_runtime_fleet(n_apps=3, seed=5, duration_ms=5_000.0)
    run_darpa_over_fleet_parallel(
        sessions, "oracle", ct_ms=200.0, mode="full",
        n_workers=2, n_shards=3, trace_dir=str(trace_dir))
    return trace_dir


def write_profile(tmp_path, name, profile):
    path = tmp_path / name
    path.write_text(profile.to_json())
    return str(path)


class TestLoadProfile:
    def test_run_directory_prefers_merged_profile(self, run_dir):
        loaded = load_profile(str(run_dir))
        with open(run_dir / "profile.json") as fp:
            assert loaded == Profile.from_dict(json.load(fp))
        assert loaded.sessions == 3

    def test_trace_jsonl_fold_matches_merged_profile(self, run_dir,
                                                     tmp_path):
        # Deleting profile.json forces the trace.jsonl fold path; the
        # two sources must agree byte for byte.
        for name in ("trace.jsonl", "metrics.jsonl"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        refolded = load_profile(str(tmp_path))
        assert refolded.to_json() == load_profile(str(run_dir)).to_json()

    def test_jsonl_file_source(self, run_dir):
        loaded = load_profile(str(run_dir / "trace.jsonl"))
        assert loaded.sessions == 3

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(ProfileSourceError):
            load_profile(str(tmp_path / "nope.json"))
        with pytest.raises(ProfileSourceError):
            load_profile(str(tmp_path))  # empty dir: no artifacts

    def test_json_without_profile_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmark": "x"}\n')
        with pytest.raises(ProfileSourceError):
            load_profile(str(path))


class TestExitCodes:
    def test_summary_exits_zero(self, run_dir, capsys):
        assert run_profile(source=str(run_dir)) == 0
        out = capsys.readouterr().out
        assert "3 session(s)" in out
        assert "top" in out

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        assert run_profile(source=str(tmp_path / "nope")) == 2
        assert run_profile() == 2
        assert "profile:" in capsys.readouterr().err

    def test_diff_identical_exits_zero(self, tmp_path, capsys):
        a = write_profile(tmp_path, "a.json", fold())
        b = write_profile(tmp_path, "b.json", fold())
        assert run_profile(diff=(a, b)) == 0
        assert "no differing frames" in capsys.readouterr().out

    def test_diff_differing_exits_one(self, tmp_path, capsys):
        a = write_profile(tmp_path, "a.json", fold(100.0))
        b = write_profile(tmp_path, "b.json", fold(200.0))
        assert run_profile(diff=(a, b)) == 1
        assert "session;event;analyze;inference" in capsys.readouterr().out

    def test_diff_unreadable_exits_two(self, tmp_path):
        a = write_profile(tmp_path, "a.json", fold())
        assert run_profile(diff=(a, str(tmp_path / "nope.json"))) == 2

    def test_non_span_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"rows": 3}\n')
        assert run_profile(source=str(path)) == 2
        assert run_profile(source=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("not a span record") == 2 and "Traceback" not in err

    def test_torn_trailing_line_is_dropped(self, run_dir, tmp_path):
        # A live run's half-written last line is not yet data: the
        # fold equals the fold of the complete lines alone.
        complete = (run_dir / "trace.jsonl").read_text()
        torn = tmp_path / "trace.jsonl"
        torn.write_text(complete + '{"session": 2, "na')
        assert run_profile(source=str(torn)) == 0
        assert (load_profile(str(torn)).to_json()
                == load_profile(str(run_dir / "trace.jsonl")).to_json())


class TestFoldOutput:
    def test_fold_stdout_is_exactly_the_folded_text(self, run_dir,
                                                    capsys):
        assert run_profile(source=str(run_dir), fold=True) == 0
        out = capsys.readouterr().out
        assert out == load_profile(str(run_dir)).folded_text()
        for line in out.splitlines():
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0
            assert stack.startswith("session")

    def test_json_out_writes_canonical_document(self, run_dir, tmp_path):
        out = tmp_path / "profile.json"
        assert run_profile(source=str(run_dir), json_out=str(out)) == 0
        assert out.read_text() == load_profile(str(run_dir)).to_json()


class TestCompletenessWarnings:
    def test_dropped_and_orphans_warn_on_stderr(self, tmp_path, capsys):
        prof = fold()
        prof.dropped_spans, prof.orphan_spans = 4, 2
        path = write_profile(tmp_path, "partial.json", prof)
        assert run_profile(source=path) == 0
        err = capsys.readouterr().err
        assert "4 span(s) dropped" in err
        assert "undercount" in err
        assert "2 orphan span(s)" in err

    def test_clean_profile_stays_silent(self, tmp_path, capsys):
        path = write_profile(tmp_path, "clean.json", fold())
        assert run_profile(source=path) == 0
        assert capsys.readouterr().err == ""
