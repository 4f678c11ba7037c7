"""Converting live BMP messages into BGPStream records (paper §6).

The live path must hand the downstream pipeline (filters, BGPCorsaro
plugins) the *exact* record/elem model the historical MRT path
produces, so a converted Route Monitoring message becomes an ordinary
``updates`` record wrapping a BGP4MP message — the same UPDATE sequence
delivered over BMP or replayed from an MRT dump file yields identical elem
streams.

Session-state reconstruction follows §6 of the paper:

* **Peer Up** resets the per-peer routing state (the router re-announces its
  Adj-RIB-In as Route Monitoring messages right after — the RIB-in
  snapshot) and surfaces as a state-change elem to ESTABLISHED;
* **Peer Down** synthesises explicit withdrawals for every prefix the peer
  had announced (consumers like the routing-tables plugin must not keep
  routes from a dead session) followed by a state-change elem to IDLE;
* a **Termination** message tears down every peer of that router the same
  way.

Corrupt BMP messages convert into not-valid records, so live corruption is
signalled to the user exactly like a corrupted dump file read.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.bgp.fsm import SessionState
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp.messages import (
    BMPMessage,
    BMPPeerHeader,
    PeerDownNotification,
    PeerUpNotification,
    RouteMonitoringMessage,
    TerminationMessage,
)
from repro.core.record import BGPStreamRecord, RecordStatus
from repro.mrt.records import BGP4MPMessage, BGP4MPStateChange, MRTRecord

#: The project annotation live records carry (the paper's data-provider slot).
LIVE_PROJECT = "bmp"

#: A peer is identified within a router by address, ASN and distinguisher.
PeerKey = Tuple[str, str, int, int]


class BMPRecordConverter:
    """Stateful converter from a router-keyed BMP feed to BGPStream records.

    ``track_state=True`` (the default) maintains the per-peer announced
    prefix set needed to synthesise withdrawals on Peer Down; switch it off
    for stateless tailing (Peer Down then yields only the state-change
    record).
    """

    def __init__(self, project: str = LIVE_PROJECT, track_state: bool = True) -> None:
        self.project = project
        self.track_state = track_state
        #: (router, address, asn, distinguisher) -> prefixes currently announced.
        self._announced: Dict[PeerKey, Set[Prefix]] = {}
        #: router -> timestamp of the last message seen (fallback for corrupt ones).
        self._last_time: Dict[str, int] = {}
        self.messages_converted = 0
        self.corrupt_messages = 0
        self.withdrawals_synthesised = 0

    # -- public API --------------------------------------------------------

    def convert(self, router: str, message: BMPMessage) -> List[BGPStreamRecord]:
        """Convert one BMP message into zero or more stream records.

        Initiation and Statistics Report messages carry no routing
        information and produce no records (they still advance the
        router's last-seen time).
        """
        if not message.is_valid:
            self.corrupt_messages += 1
            return [self._corrupt_record(router)]
        self.messages_converted += 1
        body = message.body
        if isinstance(body, RouteMonitoringMessage):
            return self._route_monitoring(router, body)
        if isinstance(body, PeerUpNotification):
            return self._peer_up(router, body)
        if isinstance(body, PeerDownNotification):
            return self._peer_down(router, body)
        if isinstance(body, TerminationMessage):
            return self._termination(router)
        peer = message.peer
        if peer is not None:
            self._touch(router, peer)
        return []

    def announced_prefixes(self, router: str, peer: BMPPeerHeader) -> Set[Prefix]:
        """The currently tracked Adj-RIB-In of one peer (a copy)."""
        return set(self._announced.get(self._key(router, peer), ()))

    # -- per-type conversion -----------------------------------------------

    def _route_monitoring(
        self, router: str, body: RouteMonitoringMessage
    ) -> List[BGPStreamRecord]:
        peer = body.peer
        timestamp = self._touch(router, peer)
        update = body.update
        if self.track_state:
            state = self._announced.setdefault(self._key(router, peer), set())
            state.difference_update(update.all_withdrawn)
            state.update(update.all_announced)
        mrt = MRTRecord.bgp4mp_message(timestamp, self._bgp4mp(peer, update))
        return [self._record(router, mrt, timestamp)]

    def _peer_up(self, router: str, body: PeerUpNotification) -> List[BGPStreamRecord]:
        peer = body.peer
        timestamp = self._touch(router, peer)
        if self.track_state:
            # State reconstruction restarts here: the RIB-in snapshot that
            # follows re-announces everything the session still carries.
            self._announced[self._key(router, peer)] = set()
        mrt = MRTRecord.bgp4mp_state_change(
            timestamp,
            self._state_change(peer, SessionState.IDLE, SessionState.ESTABLISHED),
        )
        return [self._record(router, mrt, timestamp)]

    def _peer_down(self, router: str, body: PeerDownNotification) -> List[BGPStreamRecord]:
        peer = body.peer
        timestamp = self._touch(router, peer)
        records = self._withdraw_all(router, peer, timestamp)
        mrt = MRTRecord.bgp4mp_state_change(
            timestamp,
            self._state_change(peer, SessionState.ESTABLISHED, SessionState.IDLE),
        )
        records.append(self._record(router, mrt, timestamp))
        return records

    def _termination(self, router: str) -> List[BGPStreamRecord]:
        """The router's feed closed: every monitored session is gone."""
        timestamp = self._last_time.get(router, 0)
        records: List[BGPStreamRecord] = []
        for key in [k for k in self._announced if k[0] == router]:
            _, address, asn, distinguisher = key
            peer = BMPPeerHeader(
                address=address,
                asn=asn,
                distinguisher=distinguisher,
                timestamp_sec=timestamp,
            )
            records.extend(self._withdraw_all(router, peer, timestamp))
            records.append(
                self._record(
                    router,
                    MRTRecord.bgp4mp_state_change(
                        timestamp,
                        self._state_change(peer, SessionState.ESTABLISHED, SessionState.IDLE),
                    ),
                    timestamp,
                )
            )
        return records

    # -- helpers -----------------------------------------------------------

    def _withdraw_all(
        self, router: str, peer: BMPPeerHeader, timestamp: int
    ) -> List[BGPStreamRecord]:
        """Synthesise one updates record withdrawing a peer's tracked RIB."""
        state = self._announced.pop(self._key(router, peer), None)
        if not state:
            return []
        update = BGPUpdate()
        for prefix in sorted(state, key=str):
            if prefix.version == 6:
                update.attributes.mp_unreach_nlri.append(prefix)
            else:
                update.withdrawn.append(prefix)
        self.withdrawals_synthesised += len(state)
        mrt = MRTRecord.bgp4mp_message(timestamp, self._bgp4mp(peer, update))
        return [self._record(router, mrt, timestamp)]

    def _bgp4mp(self, peer: BMPPeerHeader, update: BGPUpdate) -> BGP4MPMessage:
        return BGP4MPMessage(
            peer_asn=peer.asn,
            local_asn=0,
            peer_address=peer.address,
            local_address="::" if peer.version == 6 else "0.0.0.0",
            update=update,
        )

    def _state_change(
        self, peer: BMPPeerHeader, old: SessionState, new: SessionState
    ) -> BGP4MPStateChange:
        return BGP4MPStateChange(
            peer_asn=peer.asn,
            local_asn=0,
            peer_address=peer.address,
            local_address="::" if peer.version == 6 else "0.0.0.0",
            old_state=old,
            new_state=new,
        )

    def _record(
        self, router: str, mrt: MRTRecord, timestamp: int
    ) -> BGPStreamRecord:
        return BGPStreamRecord(
            project=self.project,
            collector=router,
            dump_type="updates",
            dump_time=timestamp,
            mrt=mrt,
            router=router,
        )

    def _corrupt_record(self, router: str) -> BGPStreamRecord:
        return BGPStreamRecord(
            project=self.project,
            collector=router,
            dump_type="updates",
            dump_time=self._last_time.get(router, 0),
            status=RecordStatus.CORRUPTED_RECORD,
            router=router,
        )

    def _touch(self, router: str, peer: BMPPeerHeader) -> int:
        timestamp = peer.timestamp_sec
        if timestamp:
            self._last_time[router] = timestamp
        else:
            timestamp = self._last_time.get(router, 0)
        return timestamp

    def _key(self, router: str, peer: BMPPeerHeader) -> PeerKey:
        return (router, peer.address, peer.asn, peer.distinguisher)
