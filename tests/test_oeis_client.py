import io
import json
import urllib.error
import urllib.request

import pytest

from latpath.oeis_client import (
    MalformedResponse,
    NetworkUnavailable,
    OeisEntry,
    _http_transport,
    _normalize_result,
    append_cache,
    contains_run,
    default_cache_path,
    load_fixtures,
    lookup,
    read_cache,
)


class RecordingTransport:
    def __init__(self, response=None, error=None):
        self.calls = []
        self.response = response if response is not None else {"results": []}
        self.error = error

    def __call__(self, query):
        self.calls.append(query)
        if self.error is not None:
            raise self.error
        return self.response


class TestContainsRun:
    def test_interior_run(self):
        assert contains_run([9, 1, 2, 3, 4], [2, 3])

    def test_prefix_and_whole(self):
        assert contains_run([1, 2, 3], [1, 2, 3])

    def test_absent(self):
        assert not contains_run([1, 2, 3], [2, 1])
        assert not contains_run([1, 2], [1, 2, 3])


class TestFixtureLookup:
    def test_motzkin_prefix(self):
        hits = lookup([1, 1, 2, 4, 9, 21, 51], cache_path="/nonexistent")
        assert "A001006" in {e.a_number for e in hits}

    def test_interior_run_matches_despite_offset(self):
        hits = lookup([1, 2, 3, 6, 11, 22, 43], cache_path="/nonexistent")
        assert "A026418" in {e.a_number for e in hits}

    def test_unknown_sequence_has_no_match(self):
        hits = lookup([1, 3, 10, 35, 126, 463, 1728], cache_path="/nonexistent")
        assert hits == []

    def test_requires_six_terms(self):
        with pytest.raises(ValueError):
            lookup([1, 2, 3])
        with pytest.raises(ValueError):
            lookup([])

    def test_fixture_shapes(self):
        for e in load_fixtures():
            assert e.a_number.startswith("A") and len(e.a_number) == 7
            assert len(e.terms) >= 6


class TestCacheOnlyMode:
    def test_never_touches_network(self, tmp_path):
        transport = RecordingTransport()
        lookup(
            [5, 8, 13, 21, 34, 55],
            mode="cache-only",
            cache_path=tmp_path / "c.jsonl",
            transport=transport,
        )
        assert transport.calls == []

    def test_reads_disk_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        append_cache(path, [OeisEntry("A999999", (4, 8, 15, 16, 23, 42, 99), "lost")])
        hits = lookup([8, 15, 16, 23, 42, 99], mode="cache-only", cache_path=path)
        assert [e.a_number for e in hits] == ["A999999"]

    def test_torn_cache_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"a_number": "A000001"\nnot json\n')
        assert read_cache(path) == []

    def test_torn_line_among_whole_ones(self, tmp_path):
        path = tmp_path / "c.jsonl"
        append_cache(path, [OeisEntry("A000001", (1, 2, 3), "first")])
        with path.open("a") as fh:
            fh.write('{"a_number": "A000002", "ter\n\n')
        append_cache(path, [OeisEntry("A000003", (4, 5, 6), "third")])
        assert read_cache(path) == [
            OeisEntry("A000001", (1, 2, 3), "first"),
            OeisEntry("A000003", (4, 5, 6), "third"),
        ]

    def test_undecodable_line_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        append_cache(path, [OeisEntry("A999999", (9, 9, 9, 9, 9, 9, 9), "nines")])
        with path.open("ab") as fh:
            fh.write(b"\xff\n")
        assert read_cache(path) == [OeisEntry("A999999", (9, 9, 9, 9, 9, 9, 9), "nines")]

    def test_cache_path_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LATPATH_OEIS_CACHE", str(tmp_path / "mine.jsonl"))
        assert default_cache_path() == tmp_path / "mine.jsonl"


class TestNetworkMode:
    def fake_doc(self):
        return {
            "results": [
                {
                    "number": 123456,
                    "data": "7,11,13,17,19,23,29",
                    "name": "made-up primes run",
                }
            ]
        }

    def test_fetches_normalizes_and_caches(self, tmp_path):
        path = tmp_path / "c.jsonl"
        transport = RecordingTransport(response=self.fake_doc())
        hits = lookup(
            [7, 11, 13, 17, 19, 23],
            mode="network",
            cache_path=path,
            transport=transport,
        )
        assert [e.a_number for e in hits] == ["A123456"]
        assert len(transport.calls) == 1
        cached = read_cache(path)
        assert cached and cached[0].a_number == "A123456"

    def test_repeated_query_served_from_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        transport = RecordingTransport(response=self.fake_doc())
        query = [7, 11, 13, 17, 19, 23]
        lookup(query, mode="network", cache_path=path, transport=transport)
        again = lookup(query, mode="network", cache_path=path, transport=transport)
        assert len(transport.calls) == 1
        assert [e.a_number for e in again] == ["A123456"]

    def test_network_hit_skipped_when_fixture_matches(self, tmp_path):
        transport = RecordingTransport()
        hits = lookup(
            [1, 1, 2, 4, 9, 21, 51],
            mode="network",
            cache_path=tmp_path / "c.jsonl",
            transport=transport,
        )
        assert transport.calls == []
        assert "A001006" in {e.a_number for e in hits}

    def test_no_results_returns_empty(self, tmp_path):
        transport = RecordingTransport(response={"results": None, "count": 0})
        hits = lookup(
            [4, 8, 15, 16, 23, 42],
            mode="network",
            cache_path=tmp_path / "c.jsonl",
            transport=transport,
        )
        assert hits == []

    def test_network_error_propagates(self, tmp_path):
        transport = RecordingTransport(error=NetworkUnavailable("down"))
        with pytest.raises(NetworkUnavailable):
            lookup(
                [4, 8, 15, 16, 23, 42],
                mode="network",
                cache_path=tmp_path / "c.jsonl",
                transport=transport,
            )

    def test_malformed_result_raises(self, tmp_path):
        transport = RecordingTransport(response={"results": [{"data": "1,2"}]})
        with pytest.raises(MalformedResponse):
            lookup(
                [4, 8, 15, 16, 23, 42],
                mode="network",
                cache_path=tmp_path / "c.jsonl",
                transport=transport,
            )

    @pytest.mark.parametrize(
        "response", [["not", "an", "object"], {"results": 5}], ids=["non-object", "non-list"]
    )
    def test_malformed_body_raises(self, tmp_path, response):
        with pytest.raises(MalformedResponse):
            lookup(
                [4, 8, 15, 16, 23, 42],
                mode="network",
                cache_path=tmp_path / "c.jsonl",
                transport=RecordingTransport(response=response),
            )

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            lookup([1, 2, 3, 4, 5, 6], mode="offline")


class TestNormalizeResult:
    def test_data_as_a_list_of_ints(self):
        entry = _normalize_result({"number": 45, "data": [0, 1, 1, 2, 3, 5], "name": "Fib"})
        assert entry == OeisEntry("A000045", (0, 1, 1, 2, 3, 5), "Fib")


class TestEntryValidation:
    def test_a_number_shape(self):
        with pytest.raises(ValueError):
            OeisEntry("123456", (1, 2, 3))
        with pytest.raises(ValueError):
            OeisEntry("A12345", (1,))
        with pytest.raises(ValueError):
            OeisEntry("A123456", ())


class TestHttpTransport:
    """The urllib transport, with ``urlopen`` replaced: no request leaves."""

    def test_query_url_and_timeout(self, monkeypatch):
        seen = []

        def fake_urlopen(url, timeout):
            seen.append((url, timeout))
            return io.BytesIO(b'{"results": []}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert _http_transport("1,2,4,9") == {"results": []}
        assert seen == [("https://oeis.org/search?q=1%2C2%2C4%2C9&fmt=json", 15)]

    def test_unreachable_maps_to_network_unavailable(self, monkeypatch):
        def fake_urlopen(url, timeout):
            raise urllib.error.URLError("no route")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(NetworkUnavailable):
            _http_transport("1,2,4,9")

    def test_non_json_maps_to_malformed_response(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda url, timeout: io.BytesIO(b"<html>")
        )
        with pytest.raises(MalformedResponse):
            _http_transport("1,2,4,9")
