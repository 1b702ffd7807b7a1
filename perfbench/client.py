"""One pass of a workload: run its chunkkit commands in order in this one
process and write what was measured as JSON.

    python3 perfbench/client.py <spawned> <spec.json> <result.json>

``spawned`` is the CLOCK_MONOTONIC reading taken just before this process
was started, so the first command's set-up includes interpreter start and
imports. The spec names the commands (CLI argument lists), whether to
trace, whether to stop each command where its set-up ends, and whether to
sample the host's speed. The client times the reference kernel before and
after the commands and, when sampling, every ``TICK_S`` while they run: on
SIGALRM, in the main thread, between two bytecodes of chunkkit. The host's
speed changes within a pass, so the two end samples alone missed much of
it. The ticks' own time is reported as pauses, which the run subtracts
from the pass's times; they are also inside the spans they interrupt.
"""

import sys

SPAWNED = float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import reference  # noqa: E402

TICK_S = 0.2  # seconds between samples of the host's speed while the commands run


def _invoke(cli, argv: list[str]) -> int:
    try:
        cli.main.main(args=argv, prog_name="chunkkit")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except probes.SetupDone:
        return 0
    except Exception:  # a traceback is a failed command, reported by exit code
        traceback.print_exc()
        return -1
    return 0


def main() -> None:
    spec = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    before = probes.now()
    samples = [reference.measure()]   # seconds per kernel run
    spawned = SPAWNED + probes.now() - before  # set-up excludes the kernel's time
    pauses = []                       # (start, end) of each tick

    def tick(signum, frame):
        start = probes.now()
        samples.append(reference.measure(bursts=1))
        pauses.append((start, probes.now()))

    if spec["sample_speed"]:
        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    rec = probes.Recorder(trace=spec["trace"], setup_only=spec["setup_only"])
    probes.install(rec)
    from chunkkit import cli

    commands = []
    for run, argv in enumerate(spec["commands"]):
        rec.run = run
        rec.first_doc = None
        begin = probes.now()
        if rec.trace:
            code = rec.call("cli", _invoke, (cli, argv), {})
        else:
            code = _invoke(cli, argv)
        end = probes.now()
        commands.append({
            "code": code,
            "start": spawned if run == 0 else begin,
            "first_doc": rec.first_doc if rec.first_doc is not None else end,
            "end": end,
        })
    signal.setitimer(signal.ITIMER_REAL, 0)
    samples.append(reference.measure())
    result = {
        # the pass's mean speed relative to the reference host, > 1: faster
        "host_speed": statistics.fmean(reference.REFERENCE_S / k for k in samples),
        "pauses": pauses,
        "commands": commands,
        "counts": dict(rec.counts),
        "spans": rec.spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(sys.argv[3]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
