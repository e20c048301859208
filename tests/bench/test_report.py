from repro.bench.report import format_table


class TestFormatTable:
    def test_headers_and_rows_present(self):
        text = format_table(["name", "value"], [["x", 1.5], ["y", 2.0]])
        assert "name" in text and "value" in text
        assert "1.500" in text and "2.000" in text

    def test_title_underlined(self):
        text = format_table(["a"], [[1]], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[1] == "=" * len("My Table")

    def test_large_floats_get_thousands_separator(self):
        text = format_table(["v"], [[123456.0]])
        assert "123,456" in text

    def test_zero_compact(self):
        text = format_table(["v"], [[0.0]])
        assert text.splitlines()[-1].strip() == "0"

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        widths = {len(line) for line in lines if line.strip()}
        assert len(widths) == 1  # every row padded to the same width

    def test_mixed_types(self):
        text = format_table(["a", "b", "c"], [[True, 42, "txt"]])
        assert "True" in text and "42" in text and "txt" in text


def test_counter_dictionaries_keep_their_keys():
    """The counter dictionaries are built from ``dataclasses.fields``;
    ``benchmarks/e2e/harness.py`` and the bench drivers read them by
    key, so the emitted key sets are pinned here."""
    from dataclasses import asdict

    from repro.federation import FederatedPortal
    from repro.frontdoor import AdmissionStats, CacheStats
    from repro.geometry import GeoPoint
    from repro.storage.stats import StorageStats
    from repro.transport.dispatcher import TransportStats

    assert set(CacheStats().as_dict()) == {
        "lookups", "l1_hits", "l2_hits", "misses", "hit_rate", "stores",
        "tile_stores", "uncacheable", "l1_evictions", "l2_evictions",
        "invalidated_slot", "invalidated_stale", "invalidated_write",
        "invalidated_generation", "fill_fallbacks", "fill_fallbacks_partial",
        "fill_fallbacks_crop", "fill_fallbacks_gone", "empty_tiles",
    }
    assert set(AdmissionStats().as_dict()) == {
        "offered", "admitted", "shed_rate", "shed_queue", "shed_fraction",
    }
    assert set(asdict(TransportStats())) == {
        "rounds", "overlapped_rounds", "retries",
        "dedup_inflight", "dedup_recent", "cooldown_skips",
        "streamed_readings", "stream_flushes", "maintenance_ops",
    }
    assert set(asdict(StorageStats())) == {
        "page_reads", "page_writes", "wal_appends", "wal_fsyncs",
        "wal_records_replayed", "torn_tail_truncations", "checkpoints",
        "recoveries",
    }
    fed = FederatedPortal(n_shards=1)
    fed.register_sensor(GeoPoint(1.0, 1.0), expiry_seconds=300.0)
    assert set(fed.stats_summary()["federation"]) == {
        "queries", "batch_ticks", "subqueries_scattered", "exact_broadcasts",
        "sampled_splits", "zero_share_skips",
        "shard_attempts", "shard_retries", "shard_failures",
        "partial_answers", "redistributions",
        "redistribution_rounds_run", "topup_subqueries",
        "topup_sensors_gained", "sampled_shortfall", "streaming_queries",
        "deferred_shard_answers", "shard_recoveries", "recovery_seconds_total",
    }
