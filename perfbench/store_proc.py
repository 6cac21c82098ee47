"""The store of ``store-mix``, run in a process of its own.

    python3 perfbench/store_proc.py ROOT SEED PREPOP CLIENT_ID SECRET

Builds a ``CloudStoreService`` under ROOT, fills it with PREPOP seeded
archive traces through the service itself, serves it over loopback HTTP
and prints one JSON line: the base URL, the archive's (reference, driver,
index, size class) and the set-up time at the reference speed (see
``common.Speed``), from the start of ``main`` to serving. It then answers one JSON line per command
read from standard input: ``trace`` starts tracing the store layers,
``stats`` returns the tracer's sums, ``stop`` (or end of input) stops the
server, prints the process's peak RSS and exits.
"""

from __future__ import annotations

import json
import sys

import common
import inputs


def main(argv: list[str]) -> int:
    root, seed, prepop, client_id, secret = argv[0], int(argv[1]), int(argv[2]), argv[3], argv[4]
    speed = common.Speed()
    speed.start()
    common.use_program()
    from fogtrace.cloudstore import ClientAccount, CloudStoreHTTPServer, CloudStoreService
    from fogtrace.gateway.envelope import seal
    from tracer import Tracer

    speed.tick()

    account = ClientAccount(client_id, secret, frozenset({"upload", "read"}))
    service = CloudStoreService(root, clients={client_id: account})
    token = service.issue_token(client_id, secret).token
    factory = inputs.TraceFactory(seed)
    key = inputs.key_for(seed)
    archive = []
    for index, driver, size_class in inputs.prepopulation(prepop):
        csv_bytes, rows = factory.trace("pre", index, size_class)
        manifest_json = factory.manifest(driver, "pre", index, csv_bytes, rows).to_json()
        envelope = seal(csv_bytes, manifest_json, key, nonce=inputs.nonce_for(seed, "pre", index))
        receipt = service.upload_trace(token, manifest_json, envelope)
        archive.append((receipt["trace_ref"], driver, index, size_class))
        speed.tick()

    tracer = Tracer(keep=0)
    with CloudStoreHTTPServer(service) as server:
        setup_s = speed.lap()[1]
        print(json.dumps({"base_url": server.base_url, "archive": archive, "setup_s": setup_s}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                import layers

                layers.install_store(tracer)
                reply = {"tracing": True}
            elif command == "stats":
                reply = {k: dict(v) for k, v in tracer.totals().items() if k != "under"}
            else:
                break
            print(json.dumps(reply), flush=True)
    print(json.dumps({"peak_rss_mb": common.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
