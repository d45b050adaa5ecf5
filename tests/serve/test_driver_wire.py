"""The open-loop driver's wire contract, checked against a fake server.

A plain drive (``resilience=None``) opens exactly one connection, sends
no ``dedupe`` key and raises when the connection is lost; a resilient
drive tags every submit with ``"{prefix}:{tid}"``.  The fake server
records every frame it reads, so these tests pin the bytes on the wire
rather than the report a real service would produce.
"""

import asyncio

import pytest

from repro.serve import ClientResilience, build_drive_instance, drive, read_frame, write_frame

FAST = dict(m=4, n=12, rate=400.0, k=2, proc=0.004, seed=42)


def _fast_instance():
    return build_drive_instance(source="spec", **FAST)


async def _fake_drive(tmp, instance, close_after=None, **drive_kwargs):
    """Drive ``instance`` against a fake server that acks every submit
    (or only the first ``close_after``, then hangs up); return the
    per-connection frame log and the drive's report or exception."""
    connections: list[list[dict]] = []

    async def on_connection(reader, writer):
        frames: list[dict] = []
        connections.append(frames)
        n_submits = 0
        try:
            while (message := await read_frame(reader)) is not None:
                frames.append(message)
                if message["op"] != "submit":
                    await write_frame(writer, {"ok": True, "op": message["op"]})
                    continue
                if close_after is not None and n_submits == close_after:
                    break
                n_submits += 1
                await write_frame(
                    writer,
                    {"ok": True, "op": "submit", "tid": message["tid"], "status": "dispatched",
                     "machine": 1, "est_flow": message["proc"]},
                )
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    socket_path = str(tmp / "fake.sock")
    server = await asyncio.start_unix_server(on_connection, path=socket_path)
    async with server:
        try:
            outcome = await drive(instance, socket_path=socket_path, **drive_kwargs)
        except Exception as exc:  # the close test inspects the exception
            outcome = exc
    return connections, outcome


class TestPlainDriveWire:
    def test_one_connection_no_dedupe_key(self, tmp_path):
        inst = _fast_instance()
        connections, report = asyncio.run(_fake_drive(tmp_path, inst, shutdown=True))
        assert len(connections) == 1
        frames = connections[0]
        submits = [f for f in frames if f["op"] == "submit"]
        assert [f["tid"] for f in submits] == [t.tid for t in inst]
        assert all("dedupe" not in f for f in submits)
        assert [f["op"] for f in frames[len(submits):]] == ["drain", "stats", "shutdown"]
        assert report.n_acked == report.n_sent == FAST["n"]
        assert report.n_errors == 0 and report.n_reconnects == 0

    def test_lost_connection_raises(self, tmp_path):
        connections, outcome = asyncio.run(_fake_drive(tmp_path, _fast_instance(), close_after=3))
        assert isinstance(outcome, ConnectionResetError)
        assert len(connections) == 1  # no reconnect


class TestResilientDriveWire:
    def test_every_submit_carries_its_dedupe_key(self, tmp_path):
        inst = _fast_instance()
        connections, report = asyncio.run(
            _fake_drive(tmp_path, inst, resilience=ClientResilience(), dedupe_prefix="p7")
        )
        submits = [f for frames in connections for f in frames if f["op"] == "submit"]
        assert [f["dedupe"] for f in submits] == [f"p7:{t.tid}" for t in inst]
        assert report.n_acked == FAST["n"] and report.n_reconnects == 0
