"""Open-loop, constant-rate HTTP load generator for the ``serve`` workload.

    python3 perfbench/loadgen.py INPUT.json OUTPUT.json

Runs in its own process.  Requests go out on a fixed schedule (request
``i`` of a phase is due at ``t0 + i / rate``) over a few keep-alive,
pipelined connections, whether or not earlier replies have arrived, so
a stalled daemon builds a queue instead of slowing the sender.  Latency
is timed from when each request was *due*, which charges a stall to
every request queued behind it; how late the generator itself sent is
recorded separately, so a run whose generator fell behind can be
reported as invalid instead of as a latency.

Phases: ``fixed`` (one rate, ``/verify`` with the trigger set at a fixed
interval, a seeded sample of replies kept for checking) and ``ladder``
(ascending rates, stopping at the first rate that misses the p99 limit,
fails a request, or ends with more requests in flight than the limit
allows at that rate).
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

import common

common.require_source()

import numpy as np  # noqa: E402

from repro._jsonsafe import dumps  # noqa: E402


def _request(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


class Connection:
    """One keep-alive connection; replies arrive in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.fifo: deque = deque()

    async def read_replies(self, state) -> None:
        reader = self.reader
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
                at = head.find(b"Content-Length:")
                length = int(head[at + 15: head.index(b"\r", at)]) if at >= 0 else 0
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            record = self.fifo.popleft()
            record[2] = perf_counter()
            record[3] = int(head[9:12])
            if record[5]:
                record[6] = body
            state.outstanding -= 1
            if state.outstanding == 0 and state.all_sent:
                state.idle.set()


class PhaseState:
    def __init__(self) -> None:
        self.outstanding = 0
        self.all_sent = False
        self.idle = asyncio.Event()


async def _connect(host, port, n):
    conns = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(reader, writer))
    return conns


async def _close(conns, readers) -> None:
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for conn in conns:
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except ConnectionError:
            pass


async def run_phase(spec, rate, seconds, *, verify_every=0.0, keep_frac=0.0, rng):
    """Send one constant-rate phase; returns per-request records.

    A record is ``[due, sent, received, status, kind, keep, body, pool_index]``
    with ``kind`` 0 for ``predict_all`` and 1 for ``/verify``.
    """
    predicts, verify = spec["predict_payloads"], spec["verify_payload"]
    n = max(1, int(round(rate * seconds)))
    pool_index = rng.integers(len(predicts), size=n)
    keep = rng.random(n) < keep_frac
    events = [(i / rate, 0, int(pool_index[i]), bool(keep[i])) for i in range(n)]
    if verify_every > 0:
        events += [(j * verify_every, 1, -1, True)
                   for j in range(1, int(seconds / verify_every) + 1)]
        events.sort(key=lambda event: (event[0], event[1]))

    conns = await _connect(spec["host"], spec["port"], spec["connections"])
    state = PhaseState()
    readers = [asyncio.ensure_future(conn.read_replies(state)) for conn in conns]
    records = []
    t0 = perf_counter() + 0.02
    for k, (offset, kind, index, kept) in enumerate(events):
        due = t0 + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = conns[k % len(conns)]
        record = [due, perf_counter(), None, 0, kind, kept, None, index]
        conn.fifo.append(record)
        state.outstanding += 1
        conn.writer.write(predicts[index] if kind == 0 else verify)
        records.append(record)
    backlog_end = state.outstanding
    state.all_sent = True
    if state.outstanding:
        try:
            await asyncio.wait_for(state.idle.wait(), timeout=spec["timeout_s"])
        except asyncio.TimeoutError:
            pass  # unanswered requests keep status 0 and count as failed
    await _close(conns, readers)
    return records, backlog_end, t0


def summarize(records, backlog_end, t0, rate, seconds) -> dict:
    predict = [r for r in records if r[4] == 0]
    ok = [r for r in predict if r[3] == 200]
    due_ms = [(r[2] - r[0]) * 1e3 for r in ok]
    send_ms = [(r[2] - r[1]) * 1e3 for r in ok]
    late_ms = [(r[1] - r[0]) * 1e3 for r in records]
    statuses: dict[str, int] = {}
    for r in predict:
        statuses[str(r[3])] = statuses.get(str(r[3]), 0) + 1
    last = max((r[2] for r in ok), default=t0)
    verify = [r for r in records if r[4] == 1]
    return {
        "rate": rate,
        "seconds": seconds,
        "sent": len(predict),
        "ok": len(ok),
        "failed": len(predict) - len(ok),
        "statuses": statuses,
        "due_ms": due_ms,
        "send_ms": send_ms,
        "late_p99_ms": float(np.percentile(late_ms, 99)),
        "late_max_ms": float(max(late_ms)),
        "backlog_end": backlog_end,
        "achieved_rps": len(ok) / (last - t0) if last > t0 else 0.0,
        "verify_sent": len(verify),
        "verify_ms": [(r[2] - r[0]) * 1e3 for r in verify if r[3] == 200],
        "verify_bodies": [r[6].decode("utf-8") for r in verify if r[3] == 200],
        "samples": [
            [r[7], json.loads(r[6])["per_tree"]] for r in ok if r[5]
        ],
    }


async def main_async(spec) -> dict:
    spec["predict_payloads"] = [
        _request(f"/v1/models/{spec['model']}/predict_all",
                 dumps({"rows": [row]}).encode("utf-8"))
        for row in spec["rows"]
    ]
    spec["verify_payload"] = _request(
        f"/v1/models/{spec['model']}/verify", dumps(spec["verify"]).encode("utf-8")
    )
    rng = np.random.default_rng(spec["seed"])
    out = {"phases": []}
    # The collector's pauses would make the generator late; records are
    # small and each phase starts from a collected heap.
    gc.disable()
    gc.collect()
    fixed = spec["fixed"]
    records, backlog, t0 = await run_phase(
        spec, fixed["rate"], fixed["seconds"], verify_every=fixed["verify_every"],
        keep_frac=fixed["keep_frac"], rng=rng,
    )
    out["phases"].append(
        {"name": "fixed", **summarize(records, backlog, t0, fixed["rate"], fixed["seconds"]),
         "window": [t0, max(r[2] or t0 for r in records)]}
    )
    ladder = spec["ladder"]
    for rate in ladder["rates"]:
        # A rung fails only if it fails three times: a stall of the host
        # must not end the climb far below capacity.
        for attempt in (1, 2, 3):
            gc.collect()
            await asyncio.sleep(ladder["pause_s"])
            records, backlog, t0 = await run_phase(spec, rate, ladder["seconds"], rng=rng)
            rung = {"name": "ladder", "attempt": attempt,
                    **summarize(records, backlog, t0, rate, ladder["seconds"])}
            rung["p99_ms"] = float(np.percentile(rung["due_ms"], 99)) if rung["due_ms"] else None
            rung["passed"] = bool(
                rung["failed"] == 0
                and rung["p99_ms"] is not None
                and rung["p99_ms"] <= ladder["limit_ms"]
                and rung["late_p99_ms"] <= ladder["late_limit_ms"]
                and backlog <= max(2 * spec["connections"], rate * ladder["limit_ms"] / 1e3)
            )
            out["phases"].append(rung)
            if rung["passed"]:
                break
        if not rung["passed"]:
            break
    return out


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    out = asyncio.run(main_async(spec))
    Path(argv[2]).write_text(dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
