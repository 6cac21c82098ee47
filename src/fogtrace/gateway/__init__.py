"""Fog gateway: the coordinating node between sources and the cloud store.

The names in ``__all__`` load from their submodules on first use (PEP 562),
so importing one submodule, such as ``fogtrace.gateway.records``, costs only
that module and what it imports.
"""

import importlib

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "alerts": ("AlertEngine", "AlertEvent", "AlertRule", "default_rules"),
        "envelope": ("AuthenticationError", "EnvelopeError", "open_envelope", "seal"),
        "gapfill": ("fill_gaps", "fill_session_gaps"),
        "obd_poller": ("ObdPoller", "PollStats"),
        "records": (
            "CHANNELS",
            "CSV_HEADER",
            "NUMERIC_CHANNELS",
            "Pairing",
            "SessionManifest",
            "TraceRow",
            "csv_to_rows",
            "rows_to_csv",
            "sha256_hex",
            "sort_rows",
            "validate_rows",
        ),
        "runner": ("RunResult", "SessionRunner"),
        "session": (
            "Gateway",
            "GatewayError",
            "GpsFix",
            "LocalSource",
            "NoActiveSessionError",
            "NoDevicesError",
            "Session",
            "SessionActiveError",
            "SessionAlreadyActiveError",
            "UnknownSourceError",
        ),
        "uploader": (
            "KeyMissingError",
            "Outbox",
            "UploadError",
            "UploadReceipt",
            "UploadRejectedError",
            "finalize_and_upload",
            "flush_outbox",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
