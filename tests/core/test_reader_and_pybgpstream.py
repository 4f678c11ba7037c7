"""Tests for the BGPReader CLI and the PyBGPStream-compatible facade."""

from __future__ import annotations

import io

import pytest

from repro.broker.broker import Broker
from repro.core.interfaces import BrokerDataInterface
from repro.core.reader import build_parser, build_stream, run
from repro import pybgpstream


class TestBGPReaderCLI:
    def _run(self, core_archive, extra_args):
        parser = build_parser()
        args = parser.parse_args(["--archive", core_archive.root] + extra_args)
        out = io.StringIO()
        status = run(args, out)
        assert status == 0
        return out.getvalue().splitlines()

    def test_basic_elem_output(self, core_archive, core_scenario):
        lines = self._run(
            core_archive, ["-w", f"{core_scenario.start},{core_scenario.end}"]
        )
        data_lines = [line for line in lines if not line.startswith("#")]
        assert data_lines
        first = data_lines[0].split("|")
        assert first[0] in ("R", "A", "W", "S")
        assert first[2] in ("ris", "routeviews")

    def test_type_and_project_filters(self, core_archive, core_scenario):
        lines = self._run(
            core_archive,
            ["-w", f"{core_scenario.start},{core_scenario.end}", "-t", "updates", "-p", "ris"],
        )
        data_lines = [line for line in lines if not line.startswith("#")]
        assert data_lines
        assert all(line.split("|")[2] == "ris" for line in data_lines)
        assert all(line.split("|")[0] in ("A", "W", "S") for line in data_lines)

    def test_prefix_filter_subprefix_semantics(self, core_archive, core_scenario):
        lines = self._run(
            core_archive,
            ["-w", f"{core_scenario.start},{core_scenario.end}", "-k", "10.0.0.0/8"],
        )
        data_lines = [line for line in lines if not line.startswith("#")]
        assert data_lines
        for line in data_lines:
            prefix = line.split("|")[6]
            assert prefix.startswith("10.")

    def test_prefix_mode_flags(self, core_archive, core_scenario):
        """--prefix-exact/-more/-less/-any wire the filter-language modes."""
        window = ["-w", f"{core_scenario.start},{core_scenario.end}"]
        all_lines = [
            line for line in self._run(core_archive, window) if not line.startswith("#")
        ]
        assert all_lines
        # Pick a concrete announced prefix and derive related queries.
        target = next(line.split("|")[6] for line in all_lines if line.split("|")[6])
        exact = [
            line.split("|")[6]
            for line in self._run(core_archive, window + ["--prefix-exact", target])
            if not line.startswith("#")
        ]
        assert exact and set(exact) == {target}
        more = [
            line.split("|")[6]
            for line in self._run(core_archive, window + ["--prefix-more", "10.0.0.0/8"])
            if not line.startswith("#")
        ]
        assert more and all(p.startswith("10.") for p in more)
        # prefix-less of a host address inside a seen prefix returns its
        # covering prefixes (at least the target itself).
        address = target.split("/")[0]
        less = [
            line.split("|")[6]
            for line in self._run(
                core_archive, window + ["--prefix-less", f"{address}/32"]
            )
            if not line.startswith("#")
        ]
        assert target in less
        any_mode = [
            line.split("|")[6]
            for line in self._run(core_archive, window + ["--prefix-any", f"{address}/32"])
            if not line.startswith("#")
        ]
        assert set(less) <= set(any_mode)

    def test_bgpdump_format_and_limit(self, core_archive, core_scenario):
        lines = self._run(
            core_archive,
            [
                "-w",
                f"{core_scenario.start},{core_scenario.end}",
                "--bgpdump-format",
                "--limit",
                "5",
            ],
        )
        data_lines = [line for line in lines if not line.startswith("#")]
        assert len(data_lines) == 5
        assert all(line.startswith(("BGP4MP|", "TABLE_DUMP2|")) for line in data_lines)

    def test_show_records_flag(self, core_archive, core_scenario):
        lines = self._run(
            core_archive,
            ["-w", f"{core_scenario.start},{core_scenario.end}", "-r", "--limit", "20"],
        )
        assert any(line.startswith(("ribs|", "updates|")) for line in lines)

    def test_engine_flags_are_hidden_and_ignored(
        self, core_archive, core_scenario, capsys
    ):
        """The process-pool engine is gone.  ``--parallel``/``--workers`` stay
        parsed for the frozen ledger but are hidden and change nothing;
        ``--batch-size`` is an argparse error like any unknown flag."""
        window = ["-w", f"{core_scenario.start},{core_scenario.end}", "-r"]
        plain = self._run(core_archive, window)
        assert plain
        assert self._run(core_archive, window + ["--parallel", "--workers", "2"]) == plain
        assert self._run(core_archive, window + ["--workers", "2"]) == plain

        help_text = build_parser().format_help()
        assert "--parallel" not in help_text and "--workers" not in help_text

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["--archive", core_archive.root, "--parallel", "--batch-size", "16"]
            )
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_no_intern_is_rejected_by_both_clis(self, core_archive, capsys):
        """Interning is not a mode: ``--no-intern`` is an argparse error on
        ``bgpreader`` and on the gateway, like any unknown flag."""
        from repro.gateway.cli import build_parser as build_gateway_parser

        for parser, argv in [
            (build_parser(), ["--archive", core_archive.root, "--no-intern"]),
            (build_gateway_parser(), ["--live", "feed.bmp", "--no-intern"]),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(argv)
            assert exit_info.value.code == 2
            assert "--no-intern" in capsys.readouterr().err

    def test_interning_keyword_is_an_inert_shim(self, core_archive):
        """``BGPStream(interning=)`` survives only for the frozen ledger
        (``ledger/live.py:90``) and selects nothing; every other spelling
        of the axis is gone."""
        import inspect

        from repro.core import intern
        from repro.core.record import BGPStreamRecord
        from repro.core.stream import BGPStream

        interface = BrokerDataInterface(Broker(archives=[core_archive]))
        for value in (False, None, intern.InternPool()):
            stream = BGPStream(data_interface=interface, interning=value)
            assert stream.intern_pool is intern.default_pool()
        assert not hasattr(BGPStream, "set_interning")
        assert "intern_pool" not in BGPStreamRecord.__slots__
        assert sorted(intern.__all__) == sorted(
            ["InternPool", "default_pool", "reset_default_pool", "DEFAULT_MAX_ENTRIES"]
        )
        assert list(inspect.signature(pybgpstream.BGPStream.__init__).parameters) == [
            "self",
            "data_interface",
            "interface_options",
        ]
        assert list(inspect.signature(BGPStream.__init__).parameters) == [
            "self",
            "data_interface",
            "filters",
            "interning",
            "interface_options",
            "eager",
            "segment_cache",
        ]

    def test_eager_keyword_is_an_inert_shim(self, core_archive):
        """``BGPStream(eager=)`` survives only for the frozen ledger
        (``ledger/live.py:90``): ``eager=True`` materialises nothing early
        and changes no elem."""
        from repro.core import stream as stream_module

        def consume(**options):
            stream = stream_module.BGPStream(
                data_interface=BrokerDataInterface(
                    Broker(archives=[core_archive]), max_empty_polls=1
                ),
                **options,
            )
            lines, deferred = [], 0
            for record in stream.records():
                update = getattr(record.mrt.body if record.mrt else None, "update", None)
                attrs = getattr(update, "attributes", None)
                deferred += bool(getattr(attrs, "deferred_types", None))
                lines.extend(elem.to_ascii() for elem in record.elems())
            return lines, deferred

        plain = consume()
        assert plain[0] and plain[1]
        assert consume(eager=True) == plain
        assert not hasattr(stream_module, "_materialise_attributes")

    def test_requires_exactly_one_source(self):
        parser = build_parser()
        args = parser.parse_args([])
        with pytest.raises(SystemExit):
            build_stream(args)


class TestPyBGPStreamFacade:
    def _interface(self, core_archive):
        return BrokerDataInterface(Broker(archives=[core_archive]))

    def test_listing1_idiom(self, core_archive, core_scenario):
        """The exact loop shape of the paper's Listing 1 works."""
        stream = pybgpstream.BGPStream(data_interface=self._interface(core_archive))
        rec = pybgpstream.BGPRecord()
        stream.add_filter("record-type", "ribs")
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        stream.start()

        elem_count = 0
        as_paths = []
        while stream.get_next_record(rec):
            assert rec.type == "ribs"
            elem = rec.get_next_elem()
            while elem:
                assert elem.peer_asn > 0
                fields = elem.fields
                if "as-path" in fields:
                    as_paths.append(fields["as-path"])
                elem_count += 1
                elem = rec.get_next_elem()
        assert elem_count > 0
        assert as_paths
        assert all(isinstance(p, str) for p in as_paths)

    def test_live_interval_minus_one(self, core_archive, core_scenario):
        stream = pybgpstream.BGPStream(data_interface=self._interface(core_archive))
        stream.add_interval_filter(core_scenario.start, -1)
        assert stream.core.filters.live

    def test_default_interface_registration(self, core_archive):
        pybgpstream.set_default_data_interface(None)
        with pytest.raises(RuntimeError):
            pybgpstream.BGPStream()
        interface = self._interface(core_archive)
        pybgpstream.set_default_data_interface(interface)
        try:
            assert pybgpstream.get_default_data_interface() is interface
            stream = pybgpstream.BGPStream()
            assert stream.core is not None
        finally:
            pybgpstream.set_default_data_interface(None)

    def test_elem_filters_applied_by_get_next_elem(self, core_archive, core_scenario):
        vp_asn = core_scenario.collectors[0].vps[0].asn
        stream = pybgpstream.BGPStream(data_interface=self._interface(core_archive))
        rec = pybgpstream.BGPRecord()
        stream.add_filter("peer-asn", str(vp_asn))
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        stream.start()
        seen = set()
        while stream.get_next_record(rec):
            elem = rec.get_next_elem()
            while elem:
                seen.add(elem.peer_asn)
                elem = rec.get_next_elem()
        assert seen == {vp_asn}
