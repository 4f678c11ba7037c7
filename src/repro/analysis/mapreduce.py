"""A small partition → map → reduce driver (the Spark stand-in of §5).

The paper's longitudinal analyses all share one structure: (i) build a list
of data partitions by splitting the input by time range and collector and
hand it to Spark as an RDD; (ii) map a Python function over every partition
— the function creates its own BGPStream (filters, interval) and runs the
usual record/elem loops; (iii) reduce the per-partition outputs per VP, per
collector and overall.  This driver reproduces that skeleton with a thread
pool; partitions are independent streams, so the mapping is embarrassingly
parallel exactly as it is on a cluster.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.broker.broker import Broker
from repro.collectors.archive import Archive
from repro.core.interfaces import BrokerDataInterface
from repro.core.stream import BGPStream

MapOutput = TypeVar("MapOutput")
Reduced = TypeVar("Reduced")


@dataclass(frozen=True)
class Partition:
    """One unit of work: a time range and (optionally) one collector."""

    interval_start: int
    interval_end: int
    collector: Optional[str] = None
    dump_types: Tuple[str, ...] = ("ribs",)
    label: Optional[str] = None


class MapReduceDriver(Generic[MapOutput]):
    """Run a map function over partitions of an archive, then reduce."""

    def __init__(
        self,
        archive: Archive,
        map_function: Callable[[BGPStream, Partition], MapOutput],
        workers: int = 4,
    ) -> None:
        self.archive = archive
        self.map_function = map_function
        self.workers = max(1, workers)

    # -- partitioning ----------------------------------------------------------------

    def partitions_for(
        self,
        timestamps: Sequence[int],
        collectors: Optional[Sequence[str]] = None,
        window: int = 3600,
        dump_types: Tuple[str, ...] = ("ribs",),
    ) -> List[Partition]:
        """One partition per (timestamp, collector) pair.

        ``window`` widens each timestamp into an interval so the RIB dump
        records written over several minutes are all captured.
        """
        collector_list = list(collectors) if collectors else self.archive.collectors()
        partitions: List[Partition] = []
        for timestamp in timestamps:
            for collector in collector_list:
                partitions.append(
                    Partition(
                        interval_start=timestamp,
                        interval_end=timestamp + window,
                        collector=collector,
                        dump_types=dump_types,
                    )
                )
        return partitions

    # -- execution -------------------------------------------------------------------

    def _stream_for(self, partition: Partition) -> BGPStream:
        broker = Broker(archives=[self.archive])
        stream = BGPStream(data_interface=BrokerDataInterface(broker, max_empty_polls=1))
        stream.add_interval_filter(partition.interval_start, partition.interval_end)
        if partition.collector:
            stream.add_filter("collector", partition.collector)
        for dump_type in partition.dump_types:
            stream.add_filter("record-type", dump_type)
        return stream

    def map(self, partitions: Sequence[Partition]) -> List[Tuple[Partition, MapOutput]]:
        """Apply the map function to every partition (thread-pooled)."""

        def _run(partition: Partition) -> Tuple[Partition, MapOutput]:
            stream = self._stream_for(partition)
            return partition, self.map_function(stream, partition)

        if self.workers == 1 or len(partitions) <= 1:
            return [_run(p) for p in partitions]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(_run, partitions))

    def map_reduce(
        self,
        partitions: Sequence[Partition],
        reduce_function: Callable[[List[Tuple[Partition, MapOutput]]], Reduced],
    ) -> Reduced:
        return reduce_function(self.map(partitions))
