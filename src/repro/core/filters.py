"""Stream filters.

A stream is defined by meta-data filters (projects, collectors, dump types,
time interval) that restrict *which dump files* are read, plus data filters
(elem type, prefix, peer ASN, AS-path membership, communities) applied to
the content (§3.3.1, §4.1).  The same :class:`FilterSet` backs the
``BGPStream.add_filter`` API, the BGPReader command-line options and
BGPCorsaro's configuration.

Prefix filters implement the BGPStream filter language's four match modes
and are backed by a shared patricia trie (:mod:`repro.bgp.trie`), so an
elem is matched against *n* watched prefixes in O(prefix length), not O(n):

* ``prefix-exact`` — the elem prefix equals the filter prefix;
* ``prefix-more`` — the elem prefix equals the filter prefix or is more
  specific (contained in it); ``prefix`` is a back-compatible alias with
  the same semantics (the ``-k 192.0.0.0/8`` behaviour of BGPReader);
* ``prefix-less`` — the elem prefix equals the filter prefix or is less
  specific (contains it);
* ``prefix-any`` — the two prefixes overlap in either direction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.bgp.community import Community
from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie
from repro.core.elem import BGPElem, ElemType
from repro.core.record import BGPStreamRecord

#: Filter names accepted by ``add_filter`` (mirroring PyBGPStream).
_FILTER_NAMES = {
    "project",
    "collector",
    "record-type",
    "elem-type",
    "prefix",
    "prefix-exact",
    "prefix-more",
    "prefix-less",
    "prefix-any",
    "peer-asn",
    "origin-asn",
    "aspath",
    "community",
}

#: Prefix match modes, stored per watched prefix as a bitmask in the trie.
MATCH_EXACT = 1
MATCH_MORE = 2
MATCH_LESS = 4
MATCH_ANY = 8

_PREFIX_MODES = {
    "prefix": MATCH_MORE,  # historical alias: exact or more specific
    "prefix-exact": MATCH_EXACT,
    "prefix-more": MATCH_MORE,
    "prefix-less": MATCH_LESS,
    "prefix-any": MATCH_ANY,
}


@dataclass
class FilterSet:
    """The set of filters defining a stream."""

    projects: Set[str] = field(default_factory=set)
    collectors: Set[str] = field(default_factory=set)
    record_types: Set[str] = field(default_factory=set)  # "ribs" / "updates"
    elem_types: Set[ElemType] = field(default_factory=set)
    #: Watched prefixes: a patricia trie mapping each filter prefix to the
    #: bitmask of match modes requested for it.
    prefix_filters: PrefixTrie = field(default_factory=PrefixTrie)
    peer_asns: Set[int] = field(default_factory=set)
    origin_asns: Set[int] = field(default_factory=set)
    #: Regular expressions matched against the space-separated AS path string.
    aspath_patterns: List[re.Pattern] = field(default_factory=list)
    communities: Set[Community] = field(default_factory=set)
    interval_start: Optional[int] = None
    interval_end: Optional[int] = None  # None = live
    #: Union of the mode bits present in ``prefix_filters`` (skips the
    #: subtree walk when no less/any filters are configured).
    prefix_mode_mask: int = 0

    # -- construction -----------------------------------------------------------

    def add(self, name: str, value: str) -> "FilterSet":
        """Add one filter by name (the PyBGPStream ``add_filter`` idiom)."""
        if name not in _FILTER_NAMES:
            raise ValueError(f"unknown filter {name!r}; expected one of {sorted(_FILTER_NAMES)}")
        if name == "project":
            self.projects.add(value)
        elif name == "collector":
            self.collectors.add(value)
        elif name == "record-type":
            normalised = {"rib": "ribs", "update": "updates"}.get(value, value)
            if normalised not in ("ribs", "updates"):
                raise ValueError(f"unknown record type {value!r}")
            self.record_types.add(normalised)
        elif name == "elem-type":
            mapping = {
                "rib": ElemType.RIB,
                "announcement": ElemType.ANNOUNCEMENT,
                "announcements": ElemType.ANNOUNCEMENT,
                "withdrawal": ElemType.WITHDRAWAL,
                "withdrawals": ElemType.WITHDRAWAL,
                "state": ElemType.STATE,
            }
            if value not in mapping:
                raise ValueError(f"unknown elem type {value!r}")
            self.elem_types.add(mapping[value])
        elif name in _PREFIX_MODES:
            self._add_prefix(Prefix.from_string(value), _PREFIX_MODES[name])
        elif name == "peer-asn":
            self.peer_asns.add(int(value))
        elif name == "origin-asn":
            self.origin_asns.add(int(value))
        elif name == "aspath":
            self.aspath_patterns.append(re.compile(value))
        elif name == "community":
            self.communities.add(Community.from_string(value))
        return self

    def _add_prefix(self, prefix: Prefix, mode: int) -> None:
        existing = self.prefix_filters.get(prefix, 0)
        self.prefix_filters.insert(prefix, existing | mode)
        self.prefix_mode_mask |= mode

    def remove(self, name: str, value: str) -> "FilterSet":
        """Remove one filter by name — the inverse of :meth:`add`.

        Removing a value that is not present is a no-op, so a gateway
        subscriber can retract a filter without tracking whether the add
        ever happened.
        """
        if name not in _FILTER_NAMES:
            raise ValueError(f"unknown filter {name!r}; expected one of {sorted(_FILTER_NAMES)}")
        if name == "project":
            self.projects.discard(value)
        elif name == "collector":
            self.collectors.discard(value)
        elif name == "record-type":
            normalised = {"rib": "ribs", "update": "updates"}.get(value, value)
            self.record_types.discard(normalised)
        elif name == "elem-type":
            mapping = {
                "rib": ElemType.RIB,
                "announcement": ElemType.ANNOUNCEMENT,
                "announcements": ElemType.ANNOUNCEMENT,
                "withdrawal": ElemType.WITHDRAWAL,
                "withdrawals": ElemType.WITHDRAWAL,
                "state": ElemType.STATE,
            }
            if value in mapping:
                self.elem_types.discard(mapping[value])
        elif name in _PREFIX_MODES:
            self._remove_prefix(Prefix.from_string(value), _PREFIX_MODES[name])
        elif name == "peer-asn":
            self.peer_asns.discard(int(value))
        elif name == "origin-asn":
            self.origin_asns.discard(int(value))
        elif name == "aspath":
            self.aspath_patterns = [p for p in self.aspath_patterns if p.pattern != value]
        elif name == "community":
            self.communities.discard(Community.from_string(value))
        return self

    def _remove_prefix(self, prefix: Prefix, mode: int) -> None:
        existing = self.prefix_filters.get(prefix)
        if existing is None or not existing & mode:
            return
        remaining = existing & ~mode
        if remaining:
            self.prefix_filters.insert(prefix, remaining)
        else:
            self.prefix_filters.remove(prefix)
        # The dropped bit may survive on other watched prefixes: recompute.
        mask = 0
        for _prefix, bits in self.prefix_filters.items():
            mask |= bits
        self.prefix_mode_mask = mask

    def copy(self) -> "FilterSet":
        """An independent copy (mutating either set leaves the other alone).

        Compiled AS-path patterns and the stored prefix mode masks are
        immutable, so they are shared; the containers are fresh.
        """
        clone = FilterSet(
            projects=set(self.projects),
            collectors=set(self.collectors),
            record_types=set(self.record_types),
            elem_types=set(self.elem_types),
            peer_asns=set(self.peer_asns),
            origin_asns=set(self.origin_asns),
            aspath_patterns=list(self.aspath_patterns),
            communities=set(self.communities),
            interval_start=self.interval_start,
            interval_end=self.interval_end,
            prefix_mode_mask=self.prefix_mode_mask,
        )
        for prefix, mode in self.prefix_filters.items():
            clone.prefix_filters.insert(prefix, mode)
        return clone

    def add_interval(self, start: int, end: Optional[int]) -> "FilterSet":
        """Set the time interval; ``end=None`` (or -1) selects live mode."""
        if end is not None and end < 0:
            end = None
        if end is not None and end < start:
            raise ValueError("interval end precedes start")
        self.interval_start = start
        self.interval_end = end
        return self

    @property
    def live(self) -> bool:
        return self.interval_start is not None and self.interval_end is None

    # -- matching -------------------------------------------------------------------

    def match_record(self, record: BGPStreamRecord) -> bool:
        """Record-level (meta-data) matching."""
        if self.projects and record.project not in self.projects:
            return False
        if self.collectors and record.collector not in self.collectors:
            return False
        if self.record_types and record.dump_type not in self.record_types:
            return False
        if self.interval_start is not None and record.is_valid:
            if record.time < self.interval_start:
                return False
            if self.interval_end is not None and record.time > self.interval_end:
                return False
        return True

    def match_prefix(self, prefix: Prefix) -> bool:
        """True if ``prefix`` satisfies any configured prefix filter."""
        # One walk towards the root answers exact / more-specific / any:
        # every filter prefix containing ``prefix`` is on that path.
        for filter_prefix, mode in self.prefix_filters.covering(prefix):
            if mode & (MATCH_MORE | MATCH_ANY):
                return True
            if filter_prefix.length == prefix.length and mode & (MATCH_EXACT | MATCH_LESS):
                return True
        # Less-specific / any filters contained in ``prefix`` need the
        # subtree walk; skip it when no such filter exists.
        if self.prefix_mode_mask & (MATCH_LESS | MATCH_ANY):
            for _filter_prefix, mode in self.prefix_filters.covered(prefix):
                if mode & (MATCH_LESS | MATCH_ANY):
                    return True
        return False

    @property
    def has_elem_terms(self) -> bool:
        """True when :meth:`match_elem` can reject an elem."""
        return bool(
            self.elem_types
            or self.peer_asns
            or self.prefix_filters
            or self.origin_asns
            or self.aspath_patterns
            or self.communities
        )

    def match_elem(self, elem: BGPElem) -> bool:
        """Elem-level (content) matching.

        Terms are ordered so the *gate fields* a lazy elem carries eagerly
        (type, peer ASN, prefix) are checked before any term that reads a
        path attribute: ``origin_asn`` / ``aspath`` / ``community`` filters
        force a :class:`~repro.core.record.LazyBGPElem` to materialise its
        deferred attributes, and doing that for an elem the prefix trie is
        about to reject would defeat the lazy decode tier.
        """
        if self.elem_types and elem.elem_type not in self.elem_types:
            return False
        if self.peer_asns and elem.peer_asn not in self.peer_asns:
            return False
        # The prefix gate applies only when prefix filters are configured:
        # an elem without a prefix (e.g. a state message) must still match
        # a filter set made of non-prefix terms.
        if self.prefix_filters:
            if elem.prefix is None:
                return False
            if not self.match_prefix(elem.prefix):
                return False
        # Attribute-reading terms below this line only.
        if self.origin_asns:
            if elem.origin_asn is None or elem.origin_asn not in self.origin_asns:
                return False
        if self.aspath_patterns:
            if elem.as_path is None:
                return False
            path_text = str(elem.as_path)
            if not any(p.search(path_text) for p in self.aspath_patterns):
                return False
        if self.communities:
            if elem.communities is None or not elem.communities.matches_any(self.communities):
                return False
        return True

    def match(self, record: BGPStreamRecord, elem: BGPElem) -> bool:
        return self.match_record(record) and self.match_elem(elem)
