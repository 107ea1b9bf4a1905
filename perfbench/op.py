"""One benchmark operation, run in a fresh process as a `ybx` command is.

Usage: python3 perfbench/op.py SPEC.json

The spec names the workload, the `src` directory, the inputs to write, the
`--jobs` value, whether to trace, and where to put the result.  Set-up is
the interpreter start, `import yangbaxter` and writing the input files; it
ends when the result's `ready` stamp is taken on the system-wide monotonic
clock, so the parent can subtract its own spawn stamp.  The timed part runs
the workload's commands through `yangbaxter.cli.main` (or the library call
for `braces-8`) with standard output captured.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _ybx(cli, argv: list[str], commands: list) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    commands.append({"argv": argv, "code": code, "stdout": buf.getvalue()})


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import yangbaxter
    from yangbaxter import cli, enumeration

    from checks import solution_text

    for path, (n, sigma, tau) in spec["inputs"].items():
        Path(path).write_text(solution_text(n, sigma, tau), encoding="utf-8")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["op"])
        tracer.install(yangbaxter)
    ready = time.monotonic()

    commands: list = []
    found: list = []
    workload = spec["workload"]

    def run() -> None:
        if workload == "braces-8":
            found.extend(enumeration.enumerate_braces(8))
        else:
            for argv in spec["commands"]:
                _ybx(cli, argv, commands)

    if tracer is not None:
        run = tracer.wrap(run, "bench.op")
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "ready": ready,
        "wall": wall,
        "cpu": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; the children figure is the largest
        # reaped pool worker
        "rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "commands": commands,
        "braces": [[b.add, b.mul] for b in found],
        "spans": tracer.as_dicts() if tracer is not None else [],
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
