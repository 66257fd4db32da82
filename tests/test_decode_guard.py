"""Decode guard: in the aggregation module, only _decode_stream names
decode_events and nothing names encode_events, so an aggregation's output
is never decoded or encoded a second time, by publish_result or any other
path: a packed derived file is built from the records the streams keep."""

import pathlib

from test_verdict_guard import _namers

AGGREGATION = pathlib.Path(__file__).resolve().parent.parent / "src" / "skyprov" / "aggregation.py"


def test_only_the_stream_decode_names_decode_events():
    assert _namers(AGGREGATION, "decode_events") == ["<module>", "_decode_stream"]  # its import, its one call


def test_nothing_in_the_aggregation_names_encode_events():
    assert _namers(AGGREGATION, "encode_events") == []
