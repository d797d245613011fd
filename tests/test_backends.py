"""Tests for the pluggable store backends (:mod:`repro.sweeps.backends`).

The contract tests run identically against all three registered backends —
the point of the backend interface is that callers cannot tell them apart
through :class:`~repro.sweeps.store.SweepStore`.
"""

from __future__ import annotations

import json

import pytest

from repro.sweeps import (
    BACKENDS,
    LocalDirBackend,
    ObjectStoreBackend,
    SqliteBackend,
    SweepError,
    SweepSpec,
    SweepStore,
    open_backend,
    parse_store_url,
    run_sweep,
)


def tiny_spec(**overrides) -> SweepSpec:
    """A fast 4-point grid (same family as the sweep tests')."""
    config = dict(
        name="backend-tiny",
        game="linear-singleton",
        protocol="imitation",
        measure="approx_equilibrium_time",
        axes={"n": [24, 48], "epsilon": [0.4, 0.2]},
        base={"coeffs": [0.5, 1.0, 2.0], "delta": 0.25},
        replicas=4,
        max_rounds=200,
        seed=11,
    )
    config.update(overrides)
    return SweepSpec(**config)


def store_url(scheme: str, tmp_path) -> str:
    """A fresh store location of the given scheme under ``tmp_path``."""
    return {
        "dir": f"dir:{tmp_path / 'store-dir'}",
        "sqlite": f"sqlite:{tmp_path / 'store.db'}",
        "object": f"object:{tmp_path / 'store-objects'}",
    }[scheme]


ALL_SCHEMES = ("dir", "sqlite", "object")


# ----------------------------------------------------------------------
# URL parsing and backend selection
# ----------------------------------------------------------------------

class TestStoreUrls:
    def test_bare_path_is_the_dir_backend(self):
        assert parse_store_url(".sweeps") == ("dir", ".sweeps")
        assert parse_store_url("/abs/path") == ("dir", "/abs/path")

    def test_relative_path_with_dot_segments(self):
        # "./x" has no scheme shape (the dot is not a scheme start).
        assert parse_store_url("./x") == ("dir", "./x")

    def test_explicit_schemes(self):
        assert parse_store_url("dir:.sweeps") == ("dir", ".sweeps")
        assert parse_store_url("sqlite:results.db") == ("sqlite", "results.db")
        assert parse_store_url("object:/mnt/bucket") == ("object", "/mnt/bucket")

    def test_double_slash_is_tolerated(self):
        assert parse_store_url("sqlite://results.db") == ("sqlite", "results.db")

    def test_scheme_is_case_insensitive(self):
        assert parse_store_url("SQLite:results.db") == ("sqlite", "results.db")

    def test_unknown_scheme_is_an_error_naming_known_ones(self):
        with pytest.raises(SweepError, match="sqllite"):
            parse_store_url("sqllite:results.db")
        with pytest.raises(SweepError, match="sqlite"):
            parse_store_url("weird:whatever")

    def test_empty_path_is_an_error(self):
        with pytest.raises(SweepError, match="empty path"):
            parse_store_url("sqlite:")

    def test_windows_style_drive_letter_would_be_rejected_loudly(self):
        # "c:\..." parses as scheme "c" — unknown, so it fails by name
        # instead of silently creating a directory called "c:...".
        with pytest.raises(SweepError, match="known schemes"):
            parse_store_url("c:/sweeps")

    def test_open_backend_classes(self, tmp_path):
        assert isinstance(open_backend(str(tmp_path)), LocalDirBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path}/x.db"),
                          SqliteBackend)
        assert isinstance(open_backend(f"object:{tmp_path}/o"),
                          ObjectStoreBackend)

    def test_registry_covers_all_schemes(self):
        assert set(BACKENDS) == set(ALL_SCHEMES)

    def test_store_facade_exposes_scheme_and_url(self, tmp_path):
        store = SweepStore(f"sqlite:{tmp_path}/x.db")
        assert store.scheme == "sqlite"
        assert store.url == f"sqlite:{tmp_path}/x.db"
        reopened = SweepStore(store.url)
        assert reopened.scheme == "sqlite"

    def test_bare_path_store_keeps_dir_semantics(self, tmp_path):
        store = SweepStore(str(tmp_path / "s"))
        assert store.scheme == "dir"
        spec = tiny_spec()
        assert store.directory(spec).parent == tmp_path / "s"

    def test_dir_only_helpers_raise_on_other_backends(self, tmp_path):
        spec = tiny_spec()
        for scheme in ("sqlite", "object"):
            store = SweepStore(store_url(scheme, tmp_path))
            for method in (store.directory, store.manifest_path,
                           store.rows_path, store.lock):
                with pytest.raises(SweepError, match="'dir' backend only"):
                    method(spec)


# ----------------------------------------------------------------------
# The backend contract, across every backend
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestBackendContract:
    def rows_for(self, spec, indices):
        points = spec.expand()
        return [{"point_index": points[i].index, "point_key": points[i].key,
                 "value": i * 10} for i in indices]

    def test_empty_store_reads(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        assert store.load_rows(spec) == []
        assert store.completed_keys(spec) == set()
        assert store.manifest(spec) is None
        assert store.runs() == []

    def test_commit_then_load_round_trips(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        rows = self.rows_for(spec, [0, 1, 2, 3])
        assert store.commit(spec, rows) == 4
        assert store.load_rows(spec) == rows
        assert store.completed_keys(spec) == {r["point_key"] for r in rows}

    def test_rows_are_byte_stable(self, scheme, tmp_path):
        """Loaded rows re-serialise to the exact committed bytes —
        key order preserved, no canonicalisation anywhere."""
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        rows = [{"point_index": p.index, "point_key": p.key,
                 "zebra": 1, "alpha": 2.5, "nested": {"b": 1, "a": 2}}
                for p in spec.expand()]
        store.commit(spec, rows)
        assert [json.dumps(r) for r in store.load_rows(spec)] \
            == [json.dumps(r) for r in rows]

    def test_first_commit_wins_per_point(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        first = self.rows_for(spec, [0, 1])
        duplicate = [dict(row, value=-999) for row in first]
        store.commit(spec, first)
        store.commit(spec, duplicate)
        assert store.load_rows(spec) == first

    def test_commit_of_nothing_is_a_noop(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        assert store.commit(spec, []) == 0
        assert store.manifest(spec) is None

    def test_manifest_records_spec_and_hash(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        store.commit(spec, self.rows_for(spec, [0]))
        manifest = store.manifest(spec)
        assert manifest["spec_hash"] == spec.content_hash()
        recovered = SweepSpec.from_dict(manifest["spec"])
        assert recovered.content_hash() == spec.content_hash()

    def test_reset_drops_rows_but_keeps_manifest(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        store.commit(spec, self.rows_for(spec, [0, 1]))
        store.reset(spec)
        assert store.load_rows(spec) == []
        assert store.manifest(spec) is not None

    def test_specs_are_isolated(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec_a = tiny_spec()
        spec_b = tiny_spec(seed=99)
        store.commit(spec_a, self.rows_for(spec_a, [0, 1]))
        store.commit(spec_b, self.rows_for(spec_b, [2]))
        assert len(store.load_rows(spec_a)) == 2
        assert len(store.load_rows(spec_b)) == 1
        assert len(store.runs()) == 2

    def test_record_telemetry_lands_in_manifest(self, scheme, tmp_path):
        store = SweepStore(store_url(scheme, tmp_path))
        spec = tiny_spec()
        store.commit(spec, self.rows_for(spec, [0]))
        store.record_telemetry(spec, {"elapsed_seconds": 1.5, "workers": 2})
        telemetry = store.manifest(spec)["telemetry"]
        assert telemetry["elapsed_seconds"] == 1.5
        assert telemetry["recorded_at"] > 0
        # Overwritten per run, not accumulated.
        store.record_telemetry(spec, {"elapsed_seconds": 0.5, "workers": 1})
        assert store.manifest(spec)["telemetry"]["workers"] == 1


# ----------------------------------------------------------------------
# run_sweep over every backend: identical tables, working resume
# ----------------------------------------------------------------------

class TestRunSweepOverBackends:
    def test_all_backends_produce_identical_tables(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(spec).rows
        for scheme in ALL_SCHEMES:
            result = run_sweep(spec, store=store_url(scheme, tmp_path))
            assert [json.dumps(r) for r in result.rows] \
                == [json.dumps(r) for r in reference], scheme

    @pytest.mark.parametrize("scheme", ("sqlite", "object"))
    def test_resume_serves_everything_from_cache(self, scheme, tmp_path):
        spec = tiny_spec()
        url = store_url(scheme, tmp_path)
        first = run_sweep(spec, store=url)
        assert first.computed == spec.num_points
        second = run_sweep(spec, store=url)
        assert second.computed == 0
        assert second.cached == spec.num_points
        assert [json.dumps(r) for r in second.rows] \
            == [json.dumps(r) for r in first.rows]

    @pytest.mark.parametrize("scheme", ("sqlite", "object"))
    def test_partial_store_resumes_the_remainder(self, scheme, tmp_path):
        spec = tiny_spec()
        url = store_url(scheme, tmp_path)
        store = SweepStore(url)
        full = run_sweep(spec).rows
        store.commit(spec, full[:2])
        result = run_sweep(spec, store=url)
        assert result.cached == 2
        assert result.computed == spec.num_points - 2
        assert [json.dumps(r) for r in result.rows] \
            == [json.dumps(r) for r in full]

    def test_url_string_reaches_run_sweep_via_store_kwarg(self, tmp_path):
        # The scheduler accepts the URL string directly (the CLI path).
        spec = tiny_spec()
        result = run_sweep(spec, store=f"sqlite:{tmp_path}/direct.db")
        assert result.computed == spec.num_points
        assert SweepStore(f"sqlite:{tmp_path}/direct.db").completed_keys(
            spec) == {p.key for p in spec.expand()}

    def test_commit_metric_is_labelled_by_backend(self, tmp_path):
        spec = tiny_spec()
        result = run_sweep(spec, store=f"sqlite:{tmp_path}/m.db")
        flat = result.metrics.flat()
        assert any(name.startswith("store_commit_seconds")
                   and 'backend="sqlite"' in name for name in flat)


# ----------------------------------------------------------------------
# The dir backend after a torn write
# ----------------------------------------------------------------------

class TestLocalDirTornTail:
    def test_commit_after_torn_line_keeps_its_first_row(self, tmp_path):
        """A crash mid-commit leaves a trailing fragment without a newline;
        the next commit must start on a fresh line, not glue its first row
        onto the fragment (where ``load_rows`` would skip it)."""
        store = SweepStore(store_url("dir", tmp_path))
        spec = tiny_spec()
        points = spec.expand()
        rows = [{"point_index": p.index, "point_key": p.key, "value": p.index}
                for p in points]
        versions = [store.rows_version(spec)]
        store.commit(spec, rows[:2])
        versions.append(store.rows_version(spec))
        with store.rows_path(spec).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(rows[2])[:25])
        versions.append(store.rows_version(spec))
        store.commit(spec, rows[2:])
        versions.append(store.rows_version(spec))
        assert [row["point_index"] for row in store.load_rows(spec)] \
            == [0, 1, 2, 3]
        assert len(set(versions)) == len(versions)
