"""The BGPStream Broker: the framework's meta-data provider (§3.2).

The Broker continuously scrapes data-provider repositories, stores meta-data
about new files in an SQL database, and answers queries identifying the
location of dump files matching a set of parameters.  Responses are
*windowed* (bounded spans of data per response) for overload protection, and
in live mode an empty response simply means "nothing new yet — poll again".

The production metadata tier around that core:

* :class:`~repro.broker.db.MetadataDB` — the SQLite-backed index, with
  keyset pagination and transactional crawl state.
* :class:`~repro.broker.crawler.ArchiveCrawler` — scrapes an
  :class:`~repro.collectors.archive.Archive` into the index; resumable
  incremental crawls via persisted high-water marks.
* :class:`~repro.broker.broker.Broker` — the query service; its one client
  is libBGPStream's broker data interface
  (:class:`~repro.core.interfaces.BrokerDataInterface`), which pulls
  windows, cursor-paginated on request, only when the stream wants more.
* :class:`~repro.broker.segments.SegmentCache` — the persistent
  decoded-segment cache that lets warm replays skip MRT decoding.
"""

from repro.broker.db import CrawlState, DumpFileRecord, MetadataDB
from repro.broker.crawler import ArchiveCrawler
from repro.broker.broker import Broker, BrokerQuery, BrokerResponse
from repro.broker.cursor import CursorError, decode_cursor, encode_cursor
from repro.broker.segments import SegmentCache

__all__ = [
    "DumpFileRecord",
    "CrawlState",
    "MetadataDB",
    "ArchiveCrawler",
    "Broker",
    "BrokerQuery",
    "BrokerResponse",
    "CursorError",
    "decode_cursor",
    "encode_cursor",
    "SegmentCache",
]
