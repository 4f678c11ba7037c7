"""The BGPCorsaro pipeline driver.

Consumes a (time-sorted) BGPStream record by record, pushes every record
through the plugin pipeline, and closes the current time bin whenever a
valid record's timestamp crosses the bin boundary.  Because libBGPStream
already provides a sorted stream, recognising the end of a bin is trivial
even when the stream mixes many collectors (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.record import RecordStatus
from repro.core.stream import BGPStream
from repro.corsaro.plugin import Plugin, StatelessPlugin, TaggedRecord
from repro.utils.timeutil import bin_start


@dataclass
class BinOutput:
    """The output of one plugin for one time bin."""

    plugin: str
    interval_start: int
    value: Any


class BGPCorsaro:
    """Run a plugin pipeline over a stream with a fixed bin size.

    Plugins see the stream's filtered elems: the elems of each record that
    pass the stream's elem-level filters (``record.filtered_elems()``), so
    a ``prefix-exact`` or ``peer-asn`` filter reaches them exactly as it
    reaches ``stream.elems()``.
    """

    def __init__(
        self,
        stream: BGPStream,
        plugins: Sequence[Plugin],
        bin_size: int = 300,
    ) -> None:
        if bin_size <= 0:
            raise ValueError("bin_size must be positive")
        self.stream = stream
        self.plugins = list(plugins)
        self.bin_size = bin_size
        self.outputs: List[BinOutput] = []
        self.records_processed = 0
        self.invalid_records = 0
        self._current_bin: Optional[int] = None

    # -- runtime -----------------------------------------------------------------

    def run(self) -> List[BinOutput]:
        """Process the whole stream; returns every per-bin output collected."""
        for _ in self.process():
            pass
        return self.outputs

    def process(self) -> Iterator[BinOutput]:
        """Incremental driver: yields outputs as bins close (live friendly)."""
        for record in self.stream.records():
            self.records_processed += 1
            if record.status != RecordStatus.VALID:
                self.invalid_records += 1
                # Invalid records are still forwarded: plugins such as RT
                # need to react to corrupted dumps (E1/E3).
                tagged = TaggedRecord(record=record, elems=[])
            else:
                tagged = TaggedRecord(record=record, elems=list(record.filtered_elems()))

            record_bin = bin_start(record.time, self.bin_size)
            if self._current_bin is None:
                self._start_bin(record_bin)
            elif record_bin > self._current_bin:
                yield from self._close_bins_up_to(record_bin)

            for plugin in self.plugins:
                plugin.process_record(tagged)

        if self._current_bin is not None:
            yield from self._emit_bin(self._current_bin)
            self._current_bin = None
        for plugin in self.plugins:
            final = plugin.finish()
            if final is not None:
                output = BinOutput(plugin.name, -1, final)
                self.outputs.append(output)
                yield output

    # -- helpers ------------------------------------------------------------------

    def _start_bin(self, interval_start: int) -> None:
        self._current_bin = interval_start
        for plugin in self.plugins:
            plugin.start_interval(interval_start)

    def _close_bins_up_to(self, new_bin: int) -> Iterator[BinOutput]:
        """Close the current bin and any empty bins before ``new_bin``."""
        assert self._current_bin is not None
        while self._current_bin < new_bin:
            yield from self._emit_bin(self._current_bin)
            self._start_bin(self._current_bin + self.bin_size)

    def _emit_bin(self, interval_start: int) -> Iterator[BinOutput]:
        for plugin in self.plugins:
            if isinstance(plugin, StatelessPlugin):
                continue
            value = plugin.end_interval(interval_start)
            if value is not None:
                output = BinOutput(plugin.name, interval_start, value)
                self.outputs.append(output)
                yield output

    # -- output helpers -----------------------------------------------------------

    def outputs_for(self, plugin_name: str) -> List[BinOutput]:
        return [o for o in self.outputs if o.plugin == plugin_name]

    def series_for(self, plugin_name: str) -> Dict[int, Any]:
        """Outputs of one plugin keyed by bin start (drops the finish() entry)."""
        return {
            o.interval_start: o.value
            for o in self.outputs
            if o.plugin == plugin_name and o.interval_start >= 0
        }
