"""store-mix: a closed loop of clients against a pre-populated store.

The store runs in its own process (``store_proc.py``), pre-populated with
48 seeded archive traces. Up to ``nproc`` client threads each repeat one
cycle until the time is up: a token, ``finalize_and_upload`` of a seeded
synthetic trace (about 20 kB, 180 kB or 2.1 MB), a listing of the client's
driver, a download and open of an earlier trace, and now and then a
re-upload of an envelope already stored. Every request is one operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from fogtrace.clock import SystemClock
from fogtrace.cloudstore import CloudClient
from fogtrace.gateway import envelope, records, uploader

import checks
import inputs
from common import BENCH_DIR, Outcome, child_env, golden_problems, median, median_setup, peak_rss_mb, percentile
from tracer import Tracer

PREPOP = 48
QUICK_PREPOP = 6
CLIENT_ID, CLIENT_SECRET = "gateway", "perfbench-secret"
KEEP_FOR_REUPLOAD = 4


class StoreProcess:
    def __init__(self, root, seed: int, prepop: int):
        self.root = root
        self.peak_rss_mb = None
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "store_proc.py"), str(root), str(seed), str(prepop), CLIENT_ID, CLIENT_SECRET],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("store process exited before it was ready")
        ready = json.loads(line)
        self.base_url = ready["base_url"]
        self.archive = ready["archive"]
        self.setup_s = ready["setup_s"]

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        """Stop the store; keeps the peak RSS it reports on the way out."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()
                last = self.proc.stdout.readline()
                self.peak_rss_mb = json.loads(last)["peak_rss_mb"] if last else None
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def archive_sha(archive) -> str:
    """sha256 over the references the store gave the archive traces.

    The archive is sealed with seeded nonces, so the references cover the
    envelope and manifest bytes fogtrace wrote for the seed.
    """
    return checks.sha256_hex("".join(ref for ref, *_ in archive).encode())


def content_sha(seed: int, quick: bool, work) -> str:
    store = StoreProcess(work / "store-golden", seed, QUICK_PREPOP if quick else PREPOP)
    store.close()
    shutil.rmtree(store.root, ignore_errors=True)
    return archive_sha(store.archive)


class RecordingOutbox(uploader.Outbox):
    """Keeps the envelope ``finalize_and_upload`` last put in the outbox."""

    last = b""

    def put(self, sealed: bytes, manifest_json: bytes) -> str:
        self.last = sealed
        return super().put(sealed, manifest_json)


class Client:
    """One closed-loop client: its own driver, records and latencies."""

    def __init__(self, index: int, seed: int, base_url: str, factory, archive, work):
        self.index = index
        self.tag = f"c{index}"
        self.driver = f"driver-{self.tag}"
        self.mix = inputs.ClientMix(seed, index)
        self.client = CloudClient(base_url, CLIENT_ID, CLIENT_SECRET)
        self.factory = factory
        self.key = inputs.key_for(seed)
        self.outbox = RecordingOutbox(work / f"outbox-{self.tag}")
        self.clock = SystemClock()
        self.known = list(archive)  # (trace_ref, plaintext sha256)
        self.uploads: list[str] = []
        self.kept: list[tuple[str, bytes, bytes]] = []
        self.cycle = 0
        self.latency = defaultdict(list)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _op(self, kind: str, fn, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - count it and go on
            self.failed += 1
            print(f"perfbench: {kind} failed: {exc!r}", file=sys.stderr)
            return None
        self.latency[kind].append(perf_counter() - t0)
        return result

    def run_cycle(self) -> None:
        j = self.cycle
        self.cycle += 1
        self._op("token", self.client.issue_token)

        # Every client's first upload is large and the clients start together,
        # so every run parses large uploads at once: the store's peak memory,
        # the workload's peak_rss_mb, does not depend on whether they overlap by chance.
        size = "large" if j == 0 else self.mix.size_class()
        csv_bytes, rows = self.factory.trace(self.tag, j, size)
        manifest = self.factory.manifest(self.driver, self.tag, j, csv_bytes, rows)
        receipt = self._op(
            f"upload_{size}", uploader.finalize_and_upload, csv_bytes, manifest, self.key, self.client, self.outbox, self.clock
        )
        if receipt is not None:
            sealed = self.outbox.last
            if receipt.trace_ref != checks.sha256_hex(sealed) or receipt.size_bytes != len(sealed):
                self.problems.append(f"receipt {receipt.trace_ref[:12]} is not the envelope that was sealed")
            self.uploads.append(receipt.trace_ref)
            self.known.append((receipt.trace_ref, checks.sha256_hex(csv_bytes)))
            if size == "small":
                self.kept = (self.kept + [(receipt.trace_ref, manifest.to_json(), sealed)])[-KEEP_FOR_REUPLOAD:]

        listed = self._op("list", self.client.list_traces, self.driver)
        if listed is not None:
            self.problems += checks.check_listing([m["trace_ref"] for m in listed], self.uploads)

        ref, want_sha = self.known[self.mix.pick(len(self.known))]

        def download():
            blob, metadata = self.client.get_trace(ref)
            manifest_json = records.SessionManifest.from_dict(metadata["manifest"]).to_json()
            return blob, envelope.open_envelope(blob, manifest_json, self.key)

        got = self._op("download", download)
        if got is not None:
            self.problems += checks.check_download(got[0], ref, got[1], want_sha)

        if self.mix.reupload() and self.kept:
            ref, manifest_json, sealed = self.kept[self.mix.pick(len(self.kept))]
            again = self._op("reupload", self.client.upload_trace, manifest_json, sealed)
            if again is not None and again["trace_ref"] != ref:
                self.problems.append(f"re-upload of {ref[:12]} came back as {again['trace_ref'][:12]}")


def _loop(clients, seconds: float) -> float:
    """Run every client's cycles for ``seconds``; returns the wall time."""
    stop_at = perf_counter() + seconds

    def body(client):
        try:
            while perf_counter() < stop_at:
                client.run_cycle()
        except Exception as exc:  # noqa: BLE001 - a dead client must not pass unnoticed
            client.problems.append(f"client {client.tag} stopped: {exc!r}")

    threads = [threading.Thread(target=body, args=(c,), name=c.tag) for c in clients]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return perf_counter() - t0


def _store_totals(root) -> tuple[int, int]:
    objects = sum(1 for p in (root / "objects").rglob("*") if p.is_file())
    conn = sqlite3.connect(root / "metadata.sqlite3")
    try:
        rows = conn.execute("SELECT COUNT(*) FROM traces").fetchone()[0]
    finally:
        conn.close()
    return objects, rows


def run(seed: int, seconds: float, trace: bool, quick: bool, work) -> Outcome:
    outcome = Outcome()
    prepop = QUICK_PREPOP if quick else PREPOP
    factory = inputs.TraceFactory(seed)
    plain_sha = {
        index: checks.sha256_hex(factory.trace("pre", index, size)[0])
        for index, _, size in inputs.prepopulation(prepop)
    }
    n_clients = min(2, os.cpu_count() or 1)
    counter = iter(range(100))

    def setup():
        store = StoreProcess(work / f"store-{next(counter)}", seed, prepop)
        return store, store.setup_s

    def teardown(store):
        store.close()
        shutil.rmtree(store.root, ignore_errors=True)

    setup_s, store = median_setup(setup, teardown)
    outcome.check(golden_problems("store-mix", seed, quick, archive_sha(store.archive)))
    archive = [(ref, plain_sha[index]) for ref, _driver, index, _size in store.archive]
    tracer = Tracer()
    clients = []
    try:
        clients = [Client(i, seed, store.base_url, factory, archive, work) for i in range(n_clients)]
        for c in clients:
            c.client.issue_token()
        wall = _loop(clients, seconds / 2 if trace else seconds)
        if trace:
            import layers  # only traced runs load every layer's modules

            plain = [x for c in clients for v in c.latency.values() for x in v]
            cycles = sum(c.cycle for c in clients)
            seen = {id(c): {k: len(v) for k, v in c.latency.items()} for c in clients}
            store.command("trace")
            layers.install_gateway(tracer)
            _loop(clients, seconds / 2)
            tracer.unpatch()
            server = store.command("stats")
            traced = [x for c in clients for k, v in c.latency.items() for x in v[seen[id(c)].get(k, 0) :]]
            traced_cycles = sum(c.cycle for c in clients) - cycles
    finally:
        tracer.unpatch()
        store.close()
    for c in clients:
        c.client.session.close()
        outcome.attempted += c.attempted
        outcome.failed += c.failed
        outcome.problems += c.problems
    distinct = len(archive) + sum(len(c.uploads) for c in clients)
    outcome.check(checks.check_store_totals(*_store_totals(store.root), distinct))
    shutil.rmtree(store.root, ignore_errors=True)

    if trace:
        totals = tracer.totals()
        for key, values in server.items():
            totals[key].update(Counter(values))
        overhead = (median(traced) / median(plain) - 1.0) * 100.0
        outcome.metrics = layers.metrics(totals, traced_cycles, {"trace.overhead_pct": overhead})
        outcome.tracer = tracer
        return outcome

    lat = defaultdict(list)
    for c in clients:
        for kind, values in c.latency.items():
            lat[kind] += values
    every = [x for v in lat.values() for x in v]
    uploads = lat["upload_small"] + lat["upload_medium"] + lat["upload_large"]
    client_peak = peak_rss_mb()
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (median(every) * 1000.0, "ms"),
        "throughput_per_s": (len(every) / wall, "1/s"),
        "peak_rss_mb": (max(store.peak_rss_mb, client_peak), "MB"),
    }
    ms = lambda values: (median(values) * 1000.0 if values else 0.0, "ms")  # noqa: E731
    outcome.detail = {
        "upload_small_p50_ms": ms(lat["upload_small"]),
        "upload_large_p50_ms": ms(lat["upload_large"]),
        "upload_p90_ms": (percentile(uploads, 0.9) * 1000.0, "ms"),
        "download_p50_ms": ms(lat["download"]),
        "list_p50_ms": ms(lat["list"]),
        "store_ops_per_s": outcome.metrics["throughput_per_s"],
        "uploads": (len(uploads), "count"),
        "large_uploads": (len(lat["upload_large"]), "count"),
        "clients": (n_clients, "count"),
        "store_peak_rss_mb": (store.peak_rss_mb, "MB"),
        "client_peak_rss_mb": (client_peak, "MB"),
    }
    return outcome
