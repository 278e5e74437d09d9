"""Sequence lookups against bundled OEIS fixtures, a disk cache and the
public OEIS JSON search API.

Matching is by contiguous run: a query hits an entry when the query terms
appear consecutively somewhere in the entry's term list (table rows start
at n = 1 while OEIS offsets vary, so prefix matching would miss).  The
cache is a JSON-lines file, one entry per line; cache-only mode never
touches the network.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .paths import _Record

SEARCH_URL = "https://oeis.org/search"
CACHE_ENV_VAR = "LATPATH_OEIS_CACHE"
MIN_QUERY_TERMS = 6

_A_NUMBER_RE = re.compile(r"^A\d{6}$")


class NetworkUnavailable(Exception):
    """The OEIS endpoint could not be reached (non-fatal)."""


class MalformedResponse(Exception):
    """The OEIS endpoint returned something unparseable."""


class OeisEntry(_Record):
    __slots__ = ("a_number", "terms", "name")

    def __init__(self, a_number: str, terms: tuple, name: str = ""):
        self.a_number, self.terms, self.name = a_number, terms, name
        if not _A_NUMBER_RE.match(self.a_number):
            raise ValueError(f"bad A-number {self.a_number!r}")
        if not self.terms:
            raise ValueError("entry has no terms")


def contains_run(haystack, needle) -> bool:
    """True iff needle occurs as a contiguous run inside haystack."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return False
    first = needle[0]
    for i in range(n - m + 1):
        if haystack[i] == first and list(haystack[i : i + m]) == list(needle):
            return True
    return False


def _entry(doc) -> OeisEntry:
    # A local record, from the fixtures or the cache: {a_number, terms, name}.
    return OeisEntry(doc["a_number"], tuple(doc["terms"]), doc.get("name", ""))


def load_fixtures() -> list[OeisEntry]:
    # Imported here: from Python 3.12 it pulls in inspect at every start-up.
    from importlib import resources

    raw = resources.files("latpath").joinpath("data/oeis_fixtures.json").read_text()
    return [_entry(e) for e in json.loads(raw)["entries"]]


def default_cache_path() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "latpath" / "oeis-cache.jsonl"


def read_cache(path: Path) -> list[OeisEntry]:
    entries = []
    try:
        data = Path(path).read_bytes()
    except OSError:
        return entries
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(_entry(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            continue  # a torn or undecodable line never poisons the cache
    return entries


def append_cache(path: Path, entries) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for e in entries:
            fh.write(json.dumps({"a_number": e.a_number, "terms": e.terms, "name": e.name}) + "\n")


def _http_transport(query: str) -> dict:
    # Imported here, not at module level: urllib.request pulls in http.client,
    # email and ssl, which would add to every CLI start-up.
    import http.client
    import urllib.parse
    import urllib.request

    url = SEARCH_URL + "?" + urllib.parse.urlencode({"q": query, "fmt": "json"})
    try:
        with urllib.request.urlopen(url, timeout=15) as resp:
            body = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        raise NetworkUnavailable(str(exc)) from exc
    try:
        return json.loads(body)
    except ValueError as exc:
        raise MalformedResponse(f"not JSON: {exc}") from exc


def _normalize_result(doc) -> OeisEntry:
    try:
        number = doc["number"]
        a_number = f"A{int(number):06d}"
        data = doc.get("data", "")
        if isinstance(data, str):
            terms = tuple(int(t) for t in data.split(",") if t.strip())
        else:
            terms = tuple(int(t) for t in data)
        return OeisEntry(a_number, terms, doc.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResponse(f"bad search result: {exc}") from exc


def lookup(
    terms,
    mode: str = "cache-only",
    cache_path: Path | str | None = None,
    transport=None,
) -> list[OeisEntry]:
    """Entries whose term list contains the query as a contiguous run.

    Modes: ``cache-only`` consults the bundled fixtures and the disk
    cache; ``network`` additionally queries the OEIS search endpoint when
    the local pool has no hit, normalizing and appending new entries to
    the cache (so an identical repeated query is served locally).
    """
    query = [int(t) for t in terms]
    if len(query) < MIN_QUERY_TERMS:
        raise ValueError(f"need at least {MIN_QUERY_TERMS} terms, got {len(query)}")
    if mode not in ("cache-only", "network"):
        raise ValueError(f"unknown mode {mode!r}")
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    pool: dict = {}
    for e in load_fixtures() + read_cache(path):
        pool.setdefault(e.a_number, e)
    hits = [e for e in pool.values() if contains_run(e.terms, query)]
    if hits or mode == "cache-only":
        return hits
    fetch = transport if transport is not None else _http_transport
    doc = fetch(",".join(str(t) for t in query))
    if not isinstance(doc, dict):
        raise MalformedResponse("search response is not an object")
    results = doc.get("results") or []
    if not isinstance(results, list):
        raise MalformedResponse("search results are not a list")
    fetched = [_normalize_result(r) for r in results]
    new = [e for e in fetched if e.a_number not in pool]
    if new:
        append_cache(path, new)
    return [e for e in fetched if contains_run(e.terms, query)]
