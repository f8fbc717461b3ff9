"""Run one detcodes CLI command in this fresh process and report its cost.

Usage: python3 perfbench/child.py '{"argv": [...], "src": "<dir>", "trace": false}'

The last line of stdout is one JSON object:
  setup_s   seconds to import detcodes.cli (every CLI user pays this)
  wall_s    seconds of the detcodes.cli.main(argv) call
  rchar     bytes the process read during that call (/proc/self/io)
  rss_kib   peak resident set size of this process (ru_maxrss)
  exit      the call's return value, 1 if it raised (then also "error")
  stdout    what the call printed
  trace     spans and counters of tracer.py, when "trace" is true
The process exits with the call's exit code.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def read_rchar() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import detcodes.cli

    setup_s = time.perf_counter() - start
    src = Path(spec["src"]).resolve()
    if src not in Path(detcodes.cli.__file__).resolve().parents:
        print(f"detcodes was imported from {detcodes.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    # Parsing once first finishes the lazy imports argparse makes (gettext
    # loads locale), so rchar counts only what the command itself reads.
    detcodes.cli.build_parser().parse_args(spec["argv"])
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.install()
    report = {"setup_s": setup_s}
    out = io.StringIO()
    rchar = read_rchar()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if recorder is None:
                code = detcodes.cli.main(spec["argv"])
            else:
                code = recorder.call("cli.main", detcodes.cli.main, spec["argv"])
    except Exception:
        code = 1
        report["error"] = traceback.format_exc()
    report["wall_s"] = time.perf_counter() - start
    report["rchar"] = read_rchar() - rchar
    report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["exit"] = code
    report["stdout"] = out.getvalue()
    if recorder is not None:
        report["trace"] = recorder.report()
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
