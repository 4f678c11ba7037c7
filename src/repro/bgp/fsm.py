"""BGP session finite-state-machine states (RFC 4271 §8).

RIPE RIS collectors dump a *state message* whenever the FSM of a session
with a vantage point changes state; BGPStream exposes the old and new state
in the elem (Table 1).  The paper's RT plugin (§6.2.1) also forces routing
table state transitions on receipt of these messages (event E4).
"""

from __future__ import annotations

from enum import IntEnum


class SessionState(IntEnum):
    """BGP FSM states, numbered as MRT BGP4MP_STATE_CHANGE encodes them."""

    UNKNOWN = 0
    IDLE = 1
    CONNECT = 2
    ACTIVE = 3
    OPENSENT = 4
    OPENCONFIRM = 5
    ESTABLISHED = 6

    @property
    def is_established(self) -> bool:
        return self is SessionState.ESTABLISHED

    def __str__(self) -> str:  # bgpdump-compatible rendering
        return self.name
