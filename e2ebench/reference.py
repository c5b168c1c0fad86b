"""Write the committed reference outputs from serial, uncached runs.

Run ``python3 e2ebench/run.py --write-reference`` after a change that
is meant to alter results; every measured op is compared with this file.
It holds, per workload, each command's printed tables (provenance footer
stripped) and the event digest of every cell: figure cells keyed by
config fingerprint, service configs in schedule order.
"""

from __future__ import annotations

import json

from batch import MOTIF_COMMANDS, PTP_COMMANDS, run_command
from common import REFERENCE_PATH, strip_footer
from service import COLD_POOL, HOT, cold_config


def _ptp() -> dict:
    import repro.core.parallel as parallel
    digests = {}
    original = parallel.run_cells

    def recording(cells, *args, **kwargs):
        results, stats = original(cells, *args, **kwargs)
        for config, result in zip(cells, results):
            digests[parallel.config_fingerprint(config)] = \
                result.event_digest
        return results, stats

    parallel.run_cells = recording
    tables, items = {}, 0
    try:
        for command in PTP_COMMANDS:
            text, _ = run_command([command, "--jobs", "1"])
            tables[command] = strip_footer(text)
            for line in text.splitlines():
                if line.startswith("sweep engine:"):
                    items += int(line.split()[2])
    finally:
        parallel.run_cells = original
    return {"tables": tables, "digests": digests, "items": items,
            "executed": len(digests)}


def _motif() -> dict:
    import repro.patterns.runner as patterns
    import repro.proxy.projection as projection
    calls = [0]
    originals = (patterns.run_motif, projection.run_snap)

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    patterns.run_motif = counting(originals[0])
    projection.run_snap = counting(originals[1])
    try:
        tables = {c: strip_footer(run_command([c])[0])
                  for c in MOTIF_COMMANDS}
    finally:
        patterns.run_motif, projection.run_snap = originals
    return {"tables": tables, "items": calls[0]}


def _service() -> dict:
    from repro.core.runner import run_ptp_benchmark
    from repro.service.protocol import config_from_payload

    def digest(payload):
        return run_ptp_benchmark(config_from_payload(payload)).event_digest

    return {"hot": [digest(h) for h in HOT],
            "cold": [digest(cold_config(s)) for s in range(COLD_POOL)]}


def write_reference() -> None:
    reference = {"ptp": _ptp(), "motif-snap": _motif(),
                 "service-mixed": _service()}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as stream:
        json.dump(reference, stream, indent=1, sort_keys=True)
        stream.write("\n")
