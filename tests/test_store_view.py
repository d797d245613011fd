"""The sweep service's stored views stay coherent with the store.

:class:`~repro.service.SweepService` keeps one parsed view per spec and
rebuilds it only when :meth:`~repro.sweeps.store.SweepStore.rows_version`
moves.  These tests play an external writer (a second
:class:`~repro.sweeps.store.SweepStore` on the same location, as a CLI
``repro sweep`` would be) against the daemon on every backend, and check
two things:

* after every change, the daemon answers exactly what an uncached read
  gives: sorted ``load_rows``, ``json.dumps`` per row, ``aggregate_rows``;
* warm requests on an unchanged store parse it once per spec, and one
  more commit costs exactly one more parse (a call count, not a timing).
"""

from __future__ import annotations

import collections
import json
import os
import sys
import threading
import time

import pytest

from repro.service import ServiceError, SweepService
from repro.sweeps import SweepSpec, SweepStore, aggregate_rows, run_sweep

SCHEMES = ("dir", "sqlite", "object")


def view_spec(seed: int = 5) -> SweepSpec:
    """A 4-point spec that converges within a few rounds."""
    return SweepSpec(
        name="view-tiny", game="linear-singleton", protocol="imitation",
        measure="approx_equilibrium_time", axes={"n": [16, 32, 48, 64]},
        base={"coeffs": [1.0, 2.0], "delta": 0.3, "epsilon": 0.4},
        replicas=2, max_rounds=100, seed=seed)


@pytest.fixture(scope="module")
def computed():
    """Rows of two specs by seed, computed once without a store."""
    return {seed: run_sweep(view_spec(seed), workers=1).rows
            for seed in (5, 6)}


def store_url(scheme: str, tmp_path) -> str:
    return {"dir": f"dir:{tmp_path / 'store-dir'}",
            "sqlite": f"sqlite:{tmp_path / 'store.db'}",
            "object": f"object:{tmp_path / 'store-objects'}"}[scheme]


@pytest.fixture(params=SCHEMES)
def scheme(request):
    return request.param


@pytest.fixture
def daemon(scheme, tmp_path):
    """A service (no worker pool: nothing here computes) and an external
    writer on the same store location."""
    url = store_url(scheme, tmp_path)
    service = SweepService(url)
    yield service, SweepStore(url)
    service.stop()


def uncached(store: SweepStore, spec: SweepSpec) -> dict:
    """What the daemon must answer, read straight from the store."""
    rows = sorted(store.load_rows(spec), key=lambda row: row["point_index"])
    keys = {row["point_key"] for row in rows}
    return {"lines": [json.dumps(row) for row in rows],
            "aggregate": aggregate_rows(rows, by=["n"]) if rows else None,
            "cached": all(point.key in keys for point in spec.expand())}


def served(service: SweepService, spec: SweepSpec) -> dict:
    """What the daemon answers on the rows, aggregate and submit routes."""
    spec_hash = spec.content_hash()
    cached = service.submit({"spec": spec.to_dict()})["cached"]
    try:
        aggregate = service.aggregate(spec_hash, by=["n"])
    except ServiceError as error:
        assert error.status == 409
        aggregate = None
    return {"lines": list(service.row_lines(spec_hash)),
            "aggregate": aggregate, "cached": cached}


def count_loads(monkeypatch, service: SweepService) -> collections.Counter:
    """Count ``store.load_rows`` calls per spec hash, through the same
    instance attribute perfbench's tracer wraps."""
    calls: collections.Counter = collections.Counter()
    load_rows = service.store.load_rows

    def counted(spec):
        calls[spec.content_hash()] += 1
        return load_rows(spec)

    monkeypatch.setattr(service.store, "load_rows", counted)
    return calls


class TestCoherence:
    def test_external_commits_are_seen_shard_by_shard(self, daemon,
                                                      computed):
        service, writer = daemon
        spec = view_spec(5)
        rows = computed[5]
        assert served(service, spec) == uncached(writer, spec)
        # Out of index order, so the view's sort is exercised too.
        for shard in (rows[2:4], rows[0:1], rows[1:2]):
            writer.commit(spec, shard)
            assert served(service, spec) == uncached(writer, spec)
        final = served(service, spec)
        assert final["cached"] is True
        assert final["lines"] == [json.dumps(row) for row in rows]

    def test_reset_empties_rows_and_aggregate_answers_409(self, daemon,
                                                          computed):
        service, writer = daemon
        spec = view_spec(5)
        writer.commit(spec, computed[5])
        assert served(service, spec)["cached"] is True
        writer.reset(spec)
        assert list(service.row_lines(spec.content_hash())) == []
        with pytest.raises(ServiceError) as raised:
            service.aggregate(spec.content_hash(), by=["n"])
        assert raised.value.status == 409
        assert served(service, spec) == uncached(writer, spec)
        writer.commit(spec, computed[5])
        assert served(service, spec) == uncached(writer, spec)

    def test_torn_trailing_line_is_skipped_like_load_rows(self, tmp_path,
                                                          computed):
        url = store_url("dir", tmp_path)
        service, writer = SweepService(url), SweepStore(url)
        try:
            spec = view_spec(5)
            rows = computed[5]
            writer.commit(spec, rows[:2])
            assert served(service, spec) == uncached(writer, spec)
            with writer.rows_path(spec).open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(rows[2])[:25])  # a crash mid-write
            assert len(writer.load_rows(spec)) == 2
            assert served(service, spec) == uncached(writer, spec)
            writer.commit(spec, rows[2:])
            assert served(service, spec) == uncached(writer, spec)
        finally:
            service.stop()

    def test_object_temp_files_are_not_rows(self, tmp_path, computed):
        url = store_url("object", tmp_path)
        service, writer = SweepService(url), SweepStore(url)
        try:
            spec = view_spec(5)
            writer.commit(spec, computed[5][:1])
            served_before = served(service, spec)
            # An in-flight (or crashed) PUT leaves a temp object behind.
            points = writer.backend.sweep_prefix(spec) / "points"
            (points / ".tmp-0123abcd").write_text("{", encoding="utf-8")
            assert served(service, spec) == served_before \
                == uncached(writer, spec)
        finally:
            service.stop()


class TestParseCount:
    def test_warm_requests_parse_once_per_spec_and_change(
            self, daemon, computed, scheme, monkeypatch):
        service, writer = daemon
        first, second = view_spec(5), view_spec(6)
        writer.commit(first, computed[5][:-1])
        writer.commit(second, computed[6])
        calls = count_loads(monkeypatch, service)

        def warm_requests() -> None:
            for number in range(30):  # 10 per route, both specs each time
                for spec in (first, second):
                    route = number % 3
                    if route == 0:
                        list(service.row_lines(spec.content_hash()))
                    elif route == 1:
                        service.aggregate(spec.content_hash(), by=["n"])
                    else:
                        service.submit({"spec": spec.to_dict()})

        warm_requests()
        assert calls == {first.content_hash(): 1, second.content_hash(): 1}

        rows_file = writer.rows_path(first) if scheme == "dir" else None
        before = os.stat(rows_file) if rows_file is not None else None
        writer.commit(first, computed[5][-1:])
        if before is not None:
            # A commit inside one tick of a coarse mtime clock: only the
            # size tells the token that the file changed.
            after = os.stat(rows_file)
            os.utime(rows_file, ns=(after.st_atime_ns, before.st_mtime_ns))
        warm_requests()
        assert calls == {first.content_hash(): 2, second.content_hash(): 1}
        assert served(service, first) == uncached(writer, first)
        assert served(service, first)["cached"] is True


class TestConcurrentReaders:
    def test_readers_racing_commits_end_on_the_final_rows(self, daemon,
                                                          computed):
        """More reader threads than cores race point-by-point commits: each
        answer is some committed state, no thread goes back to an older
        one, and once the writer is done every reader sees the last."""
        service, writer = daemon
        spec, rows = view_spec(5), computed[5]
        spec_hash = spec.content_hash()
        service.submit({"spec": spec.to_dict()})  # makes the hash known
        states = [[json.dumps(row) for row in rows[:count]]
                  for count in range(len(rows) + 1)]
        aggregates = [None] + [aggregate_rows(rows[:count], by=["n"])
                               for count in range(1, len(rows) + 1)]
        done = threading.Event()
        seen: list[list[int]] = [[] for _ in range(4)]
        finals: list = [None] * 4

        def read(index: int) -> None:
            while not done.is_set():
                state = states.index(list(service.row_lines(spec_hash)))
                try:
                    aggregate = service.aggregate(spec_hash, by=["n"])
                except ServiceError as error:
                    assert error.status == 409
                    aggregate = None
                # The aggregate's view is at least as new as the rows'.
                assert aggregate in aggregates[state:]
                seen[index].append(state)
            finals[index] = (list(service.row_lines(spec_hash)),
                             service.aggregate(spec_hash, by=["n"]))

        readers = [threading.Thread(target=read, args=(index,))
                   for index in range(len(seen))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for row in rows:
                time.sleep(0.01)
                writer.commit(spec, [row])
            time.sleep(0.01)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=60)
            assert not reader.is_alive()
        for states_seen in seen:
            assert states_seen == sorted(states_seen)
        assert finals == [(states[-1], aggregates[-1])] * len(seen)
