"""StreamWriter byte-identity, the prefix property, and the follow reader."""

from __future__ import annotations

import io

import pytest

from repro import Cluster, GB, MB, run_mdf
from repro.live import StreamWriter
from repro.live.stream import follow_events, read_events
from repro.obs.bridge import diff_registries, registry_from_trace
from repro.trace import Trace

from ..conftest import build_filter_mdf, build_nested_mdf


class TestByteIdentity:
    def test_streamed_ndjson_equals_posthoc_export(self):
        buffer = io.StringIO()
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(build_filter_mdf(), cluster, live=buffer)
        assert buffer.getvalue() == result.events.to_jsonl()
        assert buffer.getvalue()  # non-empty

    def test_every_prefix_is_a_byte_prefix_of_the_final_jsonl(self):
        """Property: after each committed event, the stream so far is a
        byte-prefix of the final JSONL.  A checker subscriber registered
        *after* the StreamWriter observes the buffer post-write."""
        buffer = io.StringIO()
        prefixes = []

        class Checker:
            def begin(self, mdf, cluster, config):
                cluster.trace.subscribe(lambda e: prefixes.append(buffer.getvalue()))

            def end(self, result):
                pass

        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        result = run_mdf(
            build_nested_mdf(), cluster, observers=[StreamWriter(buffer), Checker()]
        )
        final = result.events.to_jsonl()
        assert len(prefixes) == len(result.events.events)
        for prefix in prefixes:
            assert final.startswith(prefix)
        assert prefixes[-1] == final

    def test_stream_survives_memory_pressure_runs(self):
        """Eviction/spill-heavy traces stream byte-identically too."""
        buffer = io.StringIO()
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        result = run_mdf(build_filter_mdf(), cluster, live=buffer)
        assert buffer.getvalue() == result.events.to_jsonl()

    def test_file_target_round_trips(self, tmp_path):
        path = tmp_path / "run.ndjson"
        cluster = Cluster(num_workers=4, mem_per_worker=1 * GB)
        writer = StreamWriter(path)
        assert not path.exists()  # created by begin, not by the constructor
        result = run_mdf(build_filter_mdf(), cluster, observers=[writer])
        assert path.read_text() == result.events.to_jsonl()
        # the writer owned the handle and closed it at end
        assert writer.closed
        assert result.live is None  # a stream, not a monitor
        # and the keyword spelling of the same thing
        again = run_mdf(build_filter_mdf(), cluster, live=str(path))
        assert path.read_text() == again.events.to_jsonl()

    def test_bridge_parity_over_streamed_file(self):
        """registry_from_trace over the *streamed* NDJSON reconciles with
        the live registry exactly like the post-hoc trace does."""
        buffer = io.StringIO()
        cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
        run_mdf(build_filter_mdf(), cluster, live=buffer)
        rebuilt = registry_from_trace(Trace.from_jsonl(buffer.getvalue()))
        assert diff_registries(cluster.obs, rebuilt) == []


class TestStreamWriter:
    def make_event_trace(self, n=3):
        class FakeClock:
            now = 0.0

        trace = Trace(clock=FakeClock())
        for i in range(n):
            trace.emit("dataset_discarded", dataset=f"d{i}")
        return trace

    def test_counts_events_and_bytes(self):
        trace = self.make_event_trace()
        buffer = io.StringIO()
        writer = StreamWriter(buffer)
        for event in trace.events:
            writer(event)
        assert writer.events_written == 3
        assert writer.bytes_written == len(buffer.getvalue().encode())
        assert buffer.getvalue() == trace.to_jsonl()

    def test_caller_owned_handle_is_not_closed(self):
        buffer = io.StringIO()
        writer = StreamWriter(buffer)
        writer.close()
        assert writer.closed
        assert not buffer.closed  # caller keeps ownership

    def test_write_after_close_raises(self):
        writer = StreamWriter(io.StringIO())
        writer.close()
        with pytest.raises(ValueError):
            writer(self.make_event_trace(1).events[0])

    def test_path_writer_subscribed_by_hand(self, tmp_path):
        """No run, no ``begin``: the first event creates the file."""
        path = tmp_path / "by_hand.ndjson"
        trace = self.make_event_trace(0)
        writer = trace.subscribe(StreamWriter(path))
        assert not path.exists()
        trace.emit("dataset_discarded", dataset="d0")
        trace.emit("dataset_discarded", dataset="d1")
        writer.close()
        assert path.read_text() == trace.to_jsonl()
        assert trace.subscribers == [writer]  # never raised, never dropped

    def test_attach_detach(self):
        """``begin`` subscribes (after catching up), ``end`` unsubscribes."""
        cluster = Cluster(num_workers=1, mem_per_worker=1 * GB)
        cluster.trace.emit("dataset_discarded", dataset="before")
        writer = StreamWriter(io.StringIO())
        writer.begin(None, cluster, None)
        cluster.trace.emit("dataset_discarded", dataset="during")
        writer.end(None)
        cluster.trace.emit("dataset_discarded", dataset="after")
        assert writer.events_written == 2
        assert cluster.trace.subscribers == [] and writer.closed


class TestReaders:
    def test_read_events_round_trip(self):
        trace = TestStreamWriter().make_event_trace(4)
        events = list(read_events(trace.to_jsonl()))
        assert [e.seq for e in events] == [0, 1, 2, 3]
        assert [e.data["dataset"] for e in events] == ["d0", "d1", "d2", "d3"]

    def test_follow_skips_incomplete_lines(self, tmp_path):
        trace = TestStreamWriter().make_event_trace(2)
        lines = trace.to_jsonl().splitlines(keepends=True)
        path = tmp_path / "partial.ndjson"
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        events = list(follow_events(path, follow=False))
        assert len(events) == 1  # the torn second line is never parsed

    def test_follow_tails_until_idle_timeout(self, tmp_path):
        trace = TestStreamWriter().make_event_trace(3)
        lines = trace.to_jsonl().splitlines(keepends=True)
        path = tmp_path / "tail.ndjson"
        path.write_text(lines[0])

        wall = {"t": 0.0}
        appended = {"n": 1}

        def clock():
            return wall["t"]

        def sleep(seconds):
            wall["t"] += seconds
            # the "producer": one more line per poll until the file is done
            if appended["n"] < len(lines):
                with open(path, "a") as fh:
                    fh.write(lines[appended["n"]])
                appended["n"] += 1

        events = list(
            follow_events(
                path,
                follow=True,
                poll_interval=0.1,
                idle_timeout=0.3,
                sleep=sleep,
                clock=clock,
            )
        )
        assert [e.seq for e in events] == [0, 1, 2]
        assert wall["t"] >= 0.3  # terminated by idle timeout, not EOF
