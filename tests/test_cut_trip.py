"""A trip cut short by an error or an interrupt is sealed into the outbox, unsent, for the next flush.

The reproduction is an hour's aggressive trip, seed 7, whose OBD link is
cut at its 20,000th exchange. Before, the CSV was written and nothing was
sealed; now the outbox holds one entry that opens to exactly the rows
ingested before the cut, and the next ``--self-contained run`` sends it.
A run that does not upload seals nothing, so a cut ``--no-upload`` trip
never reaches the store.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from fogtrace import cli
from fogtrace.cli import main
from fogtrace.config import Config
from fogtrace.gateway import Gateway, Outbox, SessionRunner, csv_to_rows, open_envelope, validate_rows
from fogtrace.gateway.envelope import KEY_LEN
from fogtrace.gateway.session import Session
from fogtrace.vehicle import InProcessObdLink, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

CUT_AT = 20_000


@pytest.fixture
def ingested(monkeypatch) -> list:
    """Every row any session ingests, in order."""
    rows: list = []
    ingest = Session.ingest

    def recording(self, sample, source=None):
        appended = ingest(self, sample, source)
        rows.extend(appended)
        return appended

    monkeypatch.setattr(Session, "ingest", recording)
    return rows


def _cut_links(monkeypatch, exc: BaseException) -> None:
    """Make every in-process link raise ``exc`` at its ``CUT_AT``-th exchange."""
    transact = InProcessObdLink.transact
    exchanges = Counter()

    def cut(self, raw_request):
        exchanges[id(self)] += 1
        if exchanges[id(self)] == CUT_AT:
            raise exc
        return transact(self, raw_request)

    monkeypatch.setattr(InProcessObdLink, "transact", cut)


def _open_one_entry(outbox_dir, key: bytes) -> tuple[str, bytes]:
    outbox = Outbox(outbox_dir)
    [ref] = outbox.pending()
    envelope, manifest_json = outbox.load(ref)
    return ref, open_envelope(envelope, manifest_json, key)


def _runner(sim_clock, gateway: Gateway, cloud_client=None) -> SessionRunner:
    sim = VehicleSimulator.from_config(Config({"seed": 7, "vehicle.profile": "aggressive"}), sim_clock.now_ms())
    physio = PhysioModel()
    return SessionRunner(
        gateway,
        sim_clock,
        simulator=sim,
        obd_link_factory=lambda: InProcessObdLink(sim, sim_clock),
        wearables=(MiBand("miband-1", physio, 7), Polar("polar-1", physio, 7), Spire("spire-1", physio, 7)),
        physio=physio,
        cloud_client=cloud_client,
    )


def test_an_interrupted_trip_is_sealed_with_exactly_the_rows_ingested(
    sim_clock, key, tmp_path, monkeypatch, ingested, cloud_client
):
    _cut_links(monkeypatch, KeyboardInterrupt())
    gateway = Gateway(clock=sim_clock, key=key, outbox_dir=tmp_path / "outbox", trace_dir=tmp_path / "traces")
    runner = _runner(sim_clock, gateway, cloud_client)
    with pytest.raises(KeyboardInterrupt):
        runner.run("d", "v", 3600.0, upload=False)

    ref, csv_bytes = _open_one_entry(tmp_path / "outbox", key)
    assert runner.cut_ref == ref
    [trace] = (tmp_path / "traces").glob("*.csv")
    assert csv_bytes == trace.read_bytes()
    rows = csv_to_rows(csv_bytes)
    assert validate_rows(rows) == []
    assert Counter(row for row in rows if not row.interpolated) == Counter(ingested)
    # Every exchange before the cut one left its reading.
    assert sum(1 for row in ingested if row.source == "obd-1") == CUT_AT - 1


def test_a_trip_cut_without_a_store_a_key_or_an_outbox_seals_nothing(
    sim_clock, key, tmp_path, monkeypatch, cloud_client
):
    _cut_links(monkeypatch, RuntimeError("link gone"))
    for gateway, cloud in (
        (Gateway(clock=sim_clock, key=key, outbox_dir=tmp_path / "outbox", trace_dir=tmp_path / "traces"), None),
        (Gateway(clock=sim_clock, outbox_dir=tmp_path / "outbox", trace_dir=tmp_path / "traces"), cloud_client),
        (Gateway(clock=sim_clock, key=key, trace_dir=tmp_path / "traces"), cloud_client),
    ):
        runner = _runner(sim_clock, gateway, cloud)
        with pytest.raises(RuntimeError):
            runner.run("d", "v", 3600.0, upload=False)
        assert runner.cut_ref is None
    assert not (tmp_path / "outbox").exists() or Outbox(tmp_path / "outbox").pending() == []
    assert len(list((tmp_path / "traces").glob("*.csv"))) == 3


def test_a_completed_trip_is_not_sealed_by_the_loop(sim_clock, key, tmp_path, cloud_client):
    gateway = Gateway(clock=sim_clock, key=key, outbox_dir=tmp_path / "outbox", trace_dir=tmp_path / "traces")
    runner = _runner(sim_clock, gateway, cloud_client)
    runner.run("d", "v", 60.0, upload=False)
    assert runner.cut_ref is None
    assert Outbox(tmp_path / "outbox").pending() == []


def test_the_cli_names_the_sealed_entry_and_the_next_run_flushes_it(tmp_path, capsys, monkeypatch, ingested):
    out = tmp_path / "out"
    _cut_links(monkeypatch, cli.Terminated("terminated by SIGTERM"))
    argv = ["--seed", "7", "--self-contained", "run", "--profile", "aggressive", "--out", str(out)]
    assert main([*argv, "--duration", "3600"]) == 1
    stderr = capsys.readouterr().err

    key = bytes.fromhex((out / "key.hex").read_text())
    ref, csv_bytes = _open_one_entry(out / "outbox", key)
    assert f"fogtrace: run: the trip so far is sealed in the outbox as {ref}\n" in stderr
    assert "fogtrace: run: stage 'session' failed: terminated by SIGTERM\n" in stderr
    assert Counter(row for row in csv_to_rows(csv_bytes) if not row.interpolated) == Counter(ingested)

    monkeypatch.undo()
    assert main([*argv, "--duration", "5"]) == 0
    assert f"flushed pending upload {ref[:12]}..." in capsys.readouterr().err
    assert Outbox(out / "outbox").pending() == []
    assert main(["--self-contained", "verify", "--trace-ref", ref, "--out", str(out)]) == 0


def test_ctrl_c_in_the_cli_names_the_sealed_entry(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    _cut_links(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["--seed", "7", "--self-contained", "run", "--profile", "aggressive", "--duration", "3600", "--out", str(out)])

    [ref] = Outbox(out / "outbox").pending()
    assert f"fogtrace: run: the trip so far is sealed in the outbox as {ref}\n" in capsys.readouterr().err


def test_a_cut_no_upload_run_seals_nothing_even_with_a_key(tmp_path, capsys, monkeypatch):
    # A key.hex left by an earlier run in the same --out gives the gateway a key.
    out = tmp_path / "out"
    out.mkdir()
    (out / "key.hex").write_text(f"{os.urandom(KEY_LEN).hex()}\n")
    _cut_links(monkeypatch, RuntimeError("link gone"))
    argv = ["--seed", "7", "run", "--no-upload", "--profile", "aggressive", "--duration", "3600", "--out", str(out)]
    assert main(argv) == 1

    stderr = capsys.readouterr().err
    assert "fogtrace: run: stage 'session' failed: link gone\n" in stderr
    assert "sealed" not in stderr
    assert not (out / "outbox").exists() or Outbox(out / "outbox").pending() == []
    assert len(list((out / "traces").glob("*.csv"))) == 1
